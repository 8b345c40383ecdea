"""Corpus loading and header-field statistics.

Two sources are supported: a TREC-style index file mapping labels to
message files, and a directory of labeled emails where each file is
either a single message or an mbox-style concatenation.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass, field

from .headers import (EmailHeader, header_facts, parse_headers,
                      serialize_headers)

log = logging.getLogger(__name__)

__all__ = [
    "Label",
    "CorpusRecord",
    "HeaderStats",
    "LoadReport",
    "load_trec_index",
    "load_labeled_dir",
    "header_frequencies",
    "top_k_fields",
    "corpus_digest",
]


class Label(enum.Enum):
    HAM = "ham"
    SPAM = "spam"
    PHISHING = "phishing"


class CorpusRecord:
    """One loaded message. It keeps what a run reads after loading, not
    its parsed header: the header's facts, its field names in order
    (interned: one copy per corpus), its malformed-line count, and
    ``digest``, the SHA-256 of its serialized header, which
    corpus_digest hashes. A reader that needs field values reads the
    message again from its source."""

    __slots__ = ("id", "label", "facts", "names", "digest", "malformed_line_count")

    def __init__(self, id: str, header: EmailHeader, label: Label):
        self.id = id
        self.label = label
        self.facts = header_facts(header)
        self.names = tuple(sys.intern(f.name) for f in header.fields)
        self.digest = hashlib.sha256(serialize_headers(header)).digest()
        self.malformed_line_count = header.malformed_line_count


@dataclass
class LoadReport:
    entries: int = 0
    loaded: int = 0
    skipped: int = 0


@dataclass
class HeaderStats:
    doc_freq: dict[str, int] = field(default_factory=dict)
    total_emails: int = 0


def _strip_mbox_postmark(raw: bytes) -> bytes:
    """Drop a leading mbox "From " envelope line if one is present."""
    if raw.startswith(b"From "):
        nl = raw.find(b"\n")
        return b"" if nl < 0 else raw[nl + 1 :]
    return raw


def _in_id_order(made: list[tuple[str, object]]) -> list:
    """The items of (id, item) pairs, stably sorted by id."""
    made.sort(key=lambda pair: pair[0])
    return [item for _, item in made]


def load_trec_index(index_path: str, root: str,
                    make=CorpusRecord) -> tuple[list, LoadReport]:
    """Load a "<label> <relative-path>" index; paths resolve against root.
    Each message becomes make(id, header, label), in id order.

    A missing index file is fatal; an individual missing or unreadable
    email file is logged, skipped, and counted in the returned report.
    """
    report = LoadReport()
    made: list[tuple[str, object]] = []
    with open(index_path, "r", encoding="latin-1") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            report.entries += 1
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0].lower() not in ("spam", "ham"):
                raise ValueError(f"bad index line: {line!r}")
            label = Label.SPAM if parts[0].lower() == "spam" else Label.HAM
            rel = parts[1]
            path = os.path.normpath(os.path.join(root, rel))
            try:
                with open(path, "rb") as mail:
                    raw = mail.read()
            except OSError as exc:
                log.warning("skipping %s: %s", rel, exc)
                report.skipped += 1
                continue
            header = parse_headers(_strip_mbox_postmark(raw))
            made.append((rel, make(rel, header, label)))
            report.loaded += 1
    return _in_id_order(made), report


def _split_mbox(raw: bytes) -> list[bytes]:
    """Split an mbox blob at every line starting "From ": a member is the
    text between two, less its last newline, if any line lies between."""
    text = b"\n" + raw  # so that every line starts after a newline
    messages: list[bytes] = []
    start = 1  # where the current member's first line starts
    while (envelope := text.find(b"\nFrom ", start - 1)) >= 0:
        if envelope >= start:
            messages.append(text[start:envelope])
        start = text.find(b"\n", envelope + 1) + 1
        if start == 0:
            return messages  # the last envelope line has no newline
    messages.append(text[start:])
    return messages


def load_labeled_dir(dir_path: str, label: Label,
                     make=CorpusRecord) -> tuple[list, LoadReport]:
    """Load every message under a directory with a fixed label. Each
    message becomes make(id, header, label), in id order.

    Files beginning with an mbox "From " envelope line are split into
    their member messages; anything else is one message per file.
    """
    report = LoadReport()
    made: list[tuple[str, object]] = []
    paths = []
    for base, _dirs, names in os.walk(dir_path):
        for name in names:
            paths.append(os.path.join(base, name))
    paths.sort()
    for path in paths:
        report.entries += 1
        rel = os.path.relpath(path, dir_path)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            log.warning("skipping %s: %s", rel, exc)
            report.skipped += 1
            continue
        if raw.startswith(b"From "):
            for i, blob in enumerate(_split_mbox(raw)):
                member = f"{rel}:{i}"
                made.append((member, make(member, parse_headers(blob), label)))
        else:
            made.append((rel, make(rel, parse_headers(raw), label)))
        report.loaded += 1
    if not made:
        log.warning("no messages found under %s", dir_path)
    return _in_id_order(made), report


def header_frequencies(records: list[CorpusRecord]) -> HeaderStats:
    """Document frequency per field name: one count per email, however
    many times the field repeats inside it."""
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(set(rec.names))
    return HeaderStats(dict(counts), len(records))


def top_k_fields(stats: HeaderStats, k: int) -> list[str]:
    """The k most common field names, ties broken lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(stats.doc_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _ in ordered[:k]]


def corpus_digest(records: list[CorpusRecord]) -> str:
    """Content hash of a corpus: the SHA-256 of its records in id order,
    each framed as its id and its label (each after its byte length),
    its header digest, and its malformed-line count. Lengths and the
    count take 8 big-endian bytes."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r.id):
        for text in (rec.id, rec.label.value):
            data = text.encode("utf-8", "surrogateescape")
            h.update(len(data).to_bytes(8, "big") + data)
        h.update(rec.digest + rec.malformed_line_count.to_bytes(8, "big"))
    return h.hexdigest()

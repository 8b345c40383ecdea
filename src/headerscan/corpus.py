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

from .fanout import run_jobs
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
    (interned, also when a worker sends it: one copy per corpus), its
    malformed-line count, and ``digest``, the SHA-256 of its serialized
    header, which corpus_digest hashes. A reader that needs field values
    reads the message again from its source."""

    __slots__ = ("id", "label", "facts", "names", "digest", "malformed_line_count")

    def __init__(self, id: str, header: EmailHeader, label: Label):
        self.id = id
        self.label = label
        self.facts = header_facts(header)
        self.names = tuple(sys.intern(f.name) for f in header.fields)
        self.digest = hashlib.sha256(serialize_headers(header)).digest()
        self.malformed_line_count = header.malformed_line_count

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():  # (None, slot -> value)
            setattr(self, name, value)
        self.names = tuple(map(sys.intern, self.names))


@dataclass
class LoadReport:
    entries: int = 0
    loaded: int = 0
    skipped: int = 0


@dataclass
class HeaderStats:
    doc_freq: dict[str, int] = field(default_factory=dict)
    total_emails: int = 0


def _trec_message(rel: str, raw: bytes) -> list[tuple[str, bytes]]:
    """A TREC file's one message, less a leading mbox "From " envelope line."""
    return [(rel, raw.partition(b"\n")[2] if raw.startswith(b"From ") else raw)]


# a load job's message bytes, the best of 64-512 KiB measured on 2 CPUs;
# a source under two jobs' bytes forks nothing, and a file is never split
JOB_BYTES = 1 << 17


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0  # its read fails in its job, which skips it


def _load_files(files: list, messages, make, what: str) -> tuple[list, LoadReport]:
    """make(id, header, label) of each (id, blob) of messages(rel, raw) over
    the (rel, path, label) files, stably by id, read in jobs of about
    JOB_BYTES; an unreadable file is logged, skipped and counted."""
    sizes = [_size(path) for _, path, _ in files]
    total = sum(sizes)
    parts: list[list] = [[] for _ in range(max(1, total // JOB_BYTES))]
    start = 0
    for file, size in zip(files, sizes):  # a file joins the part its first byte is in
        parts[start * len(parts) // (total + 1)].append(file)
        start += size

    def job(part: list):
        def read() -> tuple[list, list]:
            made, skipped = [], []
            for rel, path, label in part:
                try:
                    with open(path, "rb") as fh:
                        raw = fh.read()
                except OSError as exc:
                    skipped.append((rel, exc))
                    continue
                made += [(id, make(id, parse_headers(blob), label))
                         for id, blob in messages(rel, raw)]
            return made, skipped
        return read

    report, made = LoadReport(entries=len(files)), []
    for part_made, skipped in run_jobs([job(part) for part in parts if part], what):
        made += part_made
        for rel, exc in skipped:
            log.warning("skipping %s: %s", rel, exc)
        report.skipped += len(skipped)
    report.loaded = report.entries - report.skipped
    made.sort(key=lambda pair: pair[0])  # stable: equal ids keep file order
    return [item for _, item in made], report


def load_trec_index(index_path: str, root: str,
                    make=CorpusRecord) -> tuple[list, LoadReport]:
    """Load a "<label> <relative-path>" index; paths resolve against root.
    Each message becomes make(id, header, label), in id order.

    A missing index file is fatal; an individual missing or unreadable
    email file is logged, skipped, and counted in the returned report.
    """
    files = []
    with open(index_path, "r", encoding="latin-1") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0].lower() not in ("spam", "ham"):
                raise ValueError(f"bad index line: {line!r}")
            label = Label.SPAM if parts[0].lower() == "spam" else Label.HAM
            files.append((parts[1], os.path.normpath(os.path.join(root, parts[1])), label))
    return _load_files(files, _trec_message, make, f"loading {index_path}")


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


def _members(rel: str, raw: bytes) -> list[tuple[str, bytes]]:
    """A file's messages: an mbox file's members as "rel:i", else itself."""
    if raw.startswith(b"From "):
        return [(f"{rel}:{i}", blob) for i, blob in enumerate(_split_mbox(raw))]
    return [(rel, raw)]


def load_labeled_dir(dir_path: str, label: Label,
                     make=CorpusRecord) -> tuple[list, LoadReport]:
    """Load every message under a directory with a fixed label. Each
    message becomes make(id, header, label), in id order.

    Files beginning with an mbox "From " envelope line are split into
    their member messages; anything else is one message per file.
    """
    paths = sorted(os.path.join(base, name)
                   for base, _dirs, names in os.walk(dir_path) for name in names)
    records, report = _load_files(
        [(os.path.relpath(path, dir_path), path, label) for path in paths],
        _members, make, f"loading {dir_path}")
    if not records:
        log.warning("no messages found under %s", dir_path)
    return records, report


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

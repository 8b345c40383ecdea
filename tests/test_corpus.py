from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import struct
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import pytest

from headerscan import cli, corpus, pipeline
from headerscan.corpus import (
    CorpusRecord,
    HeaderStats,
    Label,
    corpus_digest,
    header_frequencies,
    load_labeled_dir,
    load_trec_index,
    top_k_fields,
)
from headerscan.headers import (EmailHeader, HeaderFacts, header_facts, parse_headers,
                                serialize_headers)
from headerscan.pipeline import load_config, load_datasets
from headerscan.synthetic import (generate_emails, to_records, write_labeled_dirs,
                                  write_trec)
from test_acceptance import _mutate  # the criterion-8 fuzz mutator


def _write(path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _digest(raw: bytes) -> bytes:
    """The record digest of the header the test parses from raw."""
    return hashlib.sha256(serialize_headers(parse_headers(raw))).digest()


def test_trec_index_maps_labels(tmp_path):
    _write(tmp_path / "data" / "inmail.1", b"From: a@b.com\r\n\r\nbody")
    _write(tmp_path / "data" / "inmail.2", b"From: c@d.com\r\n\r\nbody")
    (tmp_path / "index").write_text("spam data/inmail.1\nham data/inmail.2\n")
    records, report = load_trec_index(str(tmp_path / "index"), str(tmp_path))
    assert [r.label for r in records] == [Label.SPAM, Label.HAM]
    assert report.entries == 2 and report.loaded == 2 and report.skipped == 0


def test_trec_missing_file_skipped_and_counted(tmp_path):
    _write(tmp_path / "data" / "inmail.1", b"From: a@b.com\r\n\r\n")
    (tmp_path / "index").write_text("spam data/inmail.1\nham data/gone\n")
    records, report = load_trec_index(str(tmp_path / "index"), str(tmp_path))
    assert len(records) == 1
    assert report.skipped == 1
    assert report.loaded + report.skipped == report.entries


def test_trec_missing_index_fatal(tmp_path):
    with pytest.raises(OSError):
        load_trec_index(str(tmp_path / "nope"), str(tmp_path))


def test_trec_bad_label_rejected(tmp_path):
    (tmp_path / "index").write_text("virus data/inmail.1\n")
    with pytest.raises(ValueError):
        load_trec_index(str(tmp_path / "index"), str(tmp_path))


def test_trec_label_case_insensitive_and_postmark_stripped(tmp_path):
    _write(tmp_path / "m1", b"From spammer@x.com Mon Apr 9 2007\nSubject: hi\n\n")
    (tmp_path / "index").write_text("SPAM m1\n")
    records, _ = load_trec_index(str(tmp_path / "index"), str(tmp_path))
    assert records[0].label is Label.SPAM
    assert records[0].names == ("subject",)
    assert records[0].malformed_line_count == 0
    assert records[0].digest == _digest(b"Subject: hi\n\n")


def test_labeled_dir_single_files(tmp_path):
    for i in range(3):
        _write(tmp_path / f"mail{i}.eml", b"Subject: x\r\n\r\n")
    records, report = load_labeled_dir(str(tmp_path), Label.PHISHING)
    assert len(records) == 3
    assert all(r.label is Label.PHISHING for r in records)
    assert report.loaded == 3


def test_labeled_dir_mbox_split(tmp_path):
    mbox = (
        b"From a@x.com Mon Jan 1 00:00:00 2007\n"
        b"Subject: first\n\nbody\n"
        b"From b@y.com Mon Jan 1 00:00:01 2007\n"
        b"Subject: second\n\nbody\n"
    )
    _write(tmp_path / "box", mbox)
    records, _ = load_labeled_dir(str(tmp_path), Label.PHISHING)
    assert len(records) == 2
    assert [r.id for r in records] == ["box:0", "box:1"]
    assert [r.digest for r in records] == [_digest(b"Subject: first\n\nbody"),
                                           _digest(b"Subject: second\n\nbody")]


def reference_split_mbox(raw: bytes) -> list[bytes]:
    """corpus._split_mbox as it was, splitting every line and joining
    each member's lines back."""
    messages: list[bytes] = []
    current: list[bytes] = []
    for line in raw.split(b"\n"):
        if line.startswith(b"From "):
            if current:
                messages.append(b"\n".join(current))
            current = []
            continue
        current.append(line)
    if current:
        messages.append(b"\n".join(current))
    return messages


def test_split_mbox_slices_the_members_the_line_loop_joined():
    """Random blobs of envelopes, text before the first one, back-to-back
    envelopes, empty members, CRLF and bare CR line ends, a last envelope
    with no newline and "From" with no space after it."""
    pieces = [b"From a@b Mon Jan 1 00:00:00 2007\n", b"From x\r\n", b"From ",
              b"From", b"From:", b" From ", b"Subject: s\r\n", b"body", b"\n",
              b"\r\n", b"\r", b"\n\n"]
    rng = random.Random(20261023)
    for _ in range(30_000):
        blob = b"".join(rng.choices(pieces, k=rng.randrange(12)))
        assert corpus._split_mbox(blob) == reference_split_mbox(blob), blob


def test_labeled_dir_empty_warns(tmp_path, caplog):
    records, report = load_labeled_dir(str(tmp_path), Label.HAM)
    assert records == []
    assert report.loaded == 0


def test_records_sorted_by_id(tmp_path):
    for name in ["zz.eml", "aa.eml", "mm.eml"]:
        _write(tmp_path / name, b"Subject: x\r\n\r\n")
    records, _ = load_labeled_dir(str(tmp_path), Label.HAM)
    assert [r.id for r in records] == sorted(r.id for r in records)


def _rec(i, raw, label=Label.HAM):
    return CorpusRecord(f"m{i}", parse_headers(raw), label)


def test_header_frequencies_document_counts():
    records = [
        _rec(0, b"From: a@b.c\r\nX-Mailer: foo\r\n\r\n"),
        _rec(1, b"From: d@e.f\r\n\r\n"),
    ]
    stats = header_frequencies(records)
    assert stats.doc_freq == {"from": 2, "x-mailer": 1}
    assert stats.total_emails == 2


def test_header_frequencies_repeated_field_counts_once():
    records = [_rec(0, b"Received: a\r\nReceived: b\r\nReceived: c\r\n\r\n")]
    assert header_frequencies(records).doc_freq == {"received": 1}


def test_header_frequencies_permutation_invariant():
    rng = random.Random(5)
    records = [
        _rec(i, f"A: 1\r\nB-{i % 3}: x\r\n\r\n".encode()) for i in range(20)
    ]
    base = header_frequencies(records).doc_freq
    for _ in range(5):
        rng.shuffle(records)
        assert header_frequencies(records).doc_freq == base


def test_top_k_tie_broken_lexicographically():
    stats = HeaderStats({"a": 5, "b": 3, "c": 3}, 5)
    assert top_k_fields(stats, 2) == ["a", "b"]
    assert top_k_fields(stats, 3) == ["a", "b", "c"]


def test_top_k_larger_than_field_count():
    stats = HeaderStats({"a": 1}, 1)
    assert top_k_fields(stats, 50) == ["a"]


def test_top_k_matches_brute_force_sort():
    rng = random.Random(11)
    freq = {f"f{i:03d}": rng.randint(0, 30) for i in range(80)}
    stats = HeaderStats(freq, 100)
    oracle = [n for n, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))]
    for k in (1, 10, 50, 80):
        assert top_k_fields(stats, k) == oracle[:k]


def test_corpus_digest_stable_and_content_sensitive():
    """Reordering the records keeps the digest; changing one id, one
    label, one header byte or one malformed-line count (1 against 257,
    which differ in the low byte by nothing) changes it."""
    raws = [b"From: x@y.z\r\n\r\n", b"To: q@r.s\r\n\r\n",
            b"From: a@b.c\r\nnot a field\r\n\r\n"]
    a = [_rec(i, raw) for i, raw in enumerate(raws)]
    base = corpus_digest(a)
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(a)
        assert corpus_digest(a) == base
    a.sort(key=lambda r: r.id)
    many = _rec(2, b"From: a@b.c\r\n" + b"not a field\r\n" * 257 + b"\r\n")
    assert (a[2].malformed_line_count, many.malformed_line_count) == (1, 257)
    assert (a[2].names, a[2].digest) == (many.names, many.digest)
    changed = [
        [CorpusRecord("m9", parse_headers(raws[0]), Label.HAM)] + a[1:],
        [_rec(0, raws[0], Label.SPAM)] + a[1:],
        a[:1] + [_rec(1, b"To: q@r.t\r\n\r\n")] + a[2:],
        a[:2] + [many],
    ]
    digests = {base} | {corpus_digest(records) for records in changed}
    assert len(digests) == 1 + len(changed)


def test_record_keeps_names_facts_and_digest_not_the_header():
    raw = b"Received: a\r\nno colon\r\nFrom: x@y.z\r\nReceived: b\r\n\r\nbody"
    header = parse_headers(raw)
    record = CorpusRecord("m", header, Label.HAM)
    assert record.names == ("received", "from", "received")
    assert record.digest == hashlib.sha256(serialize_headers(header)).digest()
    assert record.digest == _digest(raw) and len(record.digest) == 32
    assert record.malformed_line_count == 1
    assert record.facts.hops == 2 and record.facts.from_domain == "y.z"
    assert not hasattr(record, "__dict__")  # no room to keep the header
    assert not hasattr(record, "wire") and not hasattr(record, "header")


# ------------------------------------ the old records, with their parsed header


@dataclass(frozen=True)
class ReferenceRecord:
    """CorpusRecord when it kept its parsed header; its facts and
    malformed-line count, which only load_datasets' log line reads, come
    from that header."""

    id: str
    header: EmailHeader
    label: Label

    @property
    def facts(self) -> HeaderFacts:
        return header_facts(self.header)

    @property
    def malformed_line_count(self) -> int:
        return self.header.malformed_line_count


def reference_header_frequencies(records) -> HeaderStats:
    """header_frequencies when it read the parsed header's names."""
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(set(rec.header.names()))
    return HeaderStats(dict(counts), len(records))


def reference_corpus_digest(records) -> str:
    """corpus_digest computed from each record's parsed header: per record
    in id order, its id and label after their lengths, the SHA-256 of its
    serialized header, and its malformed-line count."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r.id):
        for text in (rec.id, rec.label.value):
            data = text.encode("utf-8", "surrogateescape")
            h.update(struct.pack(">Q", len(data)))
            h.update(data)
        h.update(hashlib.sha256(serialize_headers(rec.header)).digest())
        h.update(struct.pack(">Q", rec.header.malformed_line_count))
    return h.hexdigest()


def reference_cmd_ingest(args) -> int:
    """cli._cmd_ingest when records kept their parsed header, which it
    read in place of reading each message again."""
    cfg = cli.load_config(args.config, args.seed, args.out)
    datasets = cli.load_datasets(cfg)
    records = datasets.ham_spam + (datasets.phishing or [])
    fields = cli.top_k_fields(cli.header_frequencies(records), cfg.k)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "cache.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label"] + fields)
        for record in records:
            row = [record.id, record.label.value]
            # repeated fields collapse into one cell, values in file order
            row += [" | ".join(record.header.get_all(name))
                    for name in fields]
            writer.writerow(row)
    print(f"wrote {len(records)} rows, {2 + len(fields)} columns: {path}")
    return 0


def with_full_headers(call, *args):
    """call(*args) with load_datasets building ReferenceRecords, and the
    census, digest and ingest reading their parsed headers."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "CorpusRecord", ReferenceRecord)
        m.setattr(pipeline, "corpus_digest", reference_corpus_digest)
        m.setattr(cli, "header_frequencies", reference_header_frequencies)
        m.setattr(cli, "_cmd_ingest", reference_cmd_ingest)
        return call(*args)


def _mangled_raws(n: int, seed: int) -> list[bytes]:
    """Fuzzed synthetic messages, plus blocks with many malformed lines
    (more than 256: more than one byte holds) and a block cut mid-line
    with no blank line after it."""
    base = [e.raw for e in generate_emails(50, 0.5, seed=seed)]
    rng = random.Random(seed)
    raws = [_mutate(base[i % 50], rng) for i in range(n)]
    raws.append(b"junk\r\n continued\r\n: no name\r\nSubject: a\r\n\tfold\r\n"
                + b"x\r\n" * 300 + b"\r\nbody")
    raws.append(base[0][:base[0].index(b"\r\n\r\n") // 2])
    return raws


def _mbox(raws: list[bytes]) -> bytes:
    return b"".join(b"From sender@example.com Mon Jan 1 00:00:00 2007\n" + raw + b"\n"
                    for raw in raws)


def _config(tmp_path, source: str) -> str:
    """A config of the given ham+spam source; every source but the
    synthetic one takes its phishing from an mbox of 12 members and a
    directory of mangled single messages."""
    doc = {"seed": 5, "output_dir": str(tmp_path / "out"), "k": 30}
    if source == "synthetic":
        doc["synthetic"] = {"n": 200, "anomaly_fraction": 0.5, "seed": 24}
    else:
        emails = generate_emails(120, 0.5, seed=25)
        if source == "trec":
            doc["trec_index"], _ = write_trec(emails, str(tmp_path / "trec"))
        else:
            doc["ham_dir"], doc["spam_dir"] = write_labeled_dirs(
                emails, str(tmp_path / "dirs"))
            for i, raw in enumerate(_mangled_raws(150, 26)):
                (tmp_path / "dirs" / "ham" / f"mangled{i:03d}.eml").write_bytes(raw)
        phish = tmp_path / "phish"
        phish.mkdir()
        (phish / "box").write_bytes(_mbox(_mangled_raws(10, 27)))
        for i, raw in enumerate(_mangled_raws(20, 28)):
            (phish / f"single{i:02d}.eml").write_bytes(raw)
        doc["phishing_dir"] = str(phish)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("source", ["synthetic", "trec", "dirs"])
def test_corpus_digest_matches_the_full_header_digest(tmp_path, source):
    """Each loader's records, namespaced as the pipeline does, hash to
    the digest of the records that kept their parsed headers."""
    cfg = load_config(_config(tmp_path, source))
    old = with_full_headers(load_datasets, cfg)
    assert isinstance(old.phishing[0], ReferenceRecord)
    assert load_datasets(cfg).info == old.info
    assert old.info["phishing"]["count"] == (100 if source == "synthetic" else 34)


def test_mbox_and_mangled_digests_match_the_full_header_digest(tmp_path):
    raws = _mangled_raws(200, 29)
    (tmp_path / "box").write_bytes(_mbox(raws[:12]))
    for i, raw in enumerate(raws[12:]):
        (tmp_path / f"m{i:03d}.eml").write_bytes(raw)
    old, _ = load_labeled_dir(str(tmp_path), Label.SPAM, ReferenceRecord)
    new, _ = load_labeled_dir(str(tmp_path), Label.SPAM)
    assert isinstance(old[0], ReferenceRecord)
    assert [r.id for r in new][:4] == ["box:0", "box:1", "box:10", "box:11"]
    assert [r.id for r in new] == [r.id for r in old]
    assert max(r.malformed_line_count for r in new) > 256
    assert corpus_digest(new) == reference_corpus_digest(old)
    assert header_frequencies(new) == reference_header_frequencies(old)
    synthetic = generate_emails(300, 0.5, seed=30)
    assert (corpus_digest(to_records(synthetic))
            == reference_corpus_digest(to_records(synthetic, ReferenceRecord)))


def test_record_digest_holds_the_raw_messages_parsed_header():
    """The criterion-8 fuzz corpus: a record's digest hashes the
    serialized form of the header parsed from the raw message, and that
    form parses back to the same fields, so the digest is a function of
    the parsed fields and the count."""
    base = [e.raw for e in generate_emails(50, 0.5, seed=8)]
    rng = random.Random(20260816)
    for case in range(10_000):
        raw = _mutate(base[case % len(base)], rng)
        want = parse_headers(raw)
        record = CorpusRecord(str(case), parse_headers(raw), Label.HAM)
        wire = serialize_headers(want)
        assert record.digest == hashlib.sha256(wire).digest(), case
        assert record.names == tuple(want.names()), case
        assert record.malformed_line_count == want.malformed_line_count, case
        again = parse_headers(wire)
        again.malformed_line_count = record.malformed_line_count
        assert again == want, case


@pytest.mark.parametrize("source", ["synthetic", "trec", "dirs"])
def test_ingest_cache_matches_the_full_header_ingest(tmp_path, capsys, source):
    """ingest, which reads each message again from its source, writes the
    cache and prints the line that reading the parsed headers did; and
    headers-report prints the same table."""
    config = _config(tmp_path, source)
    out = tmp_path / "out" / "cache.csv"

    def outputs(call):
        capsys.readouterr()
        assert call(cli.main, ["ingest", "--config", config]) == 0
        cache = out.read_bytes()
        out.unlink()
        assert call(cli.main, ["headers-report", "--config", config]) == 0
        return cache, capsys.readouterr().out

    want = outputs(with_full_headers)
    assert outputs(lambda main, argv: main(argv)) == want
    rows = {"synthetic": 200 + 100, "trec": 120 + 34, "dirs": 120 + 152 + 34}
    assert len(want[0].splitlines()) == 1 + rows[source]
    assert want[1].count("\n") > 30  # a table past the top-30 cut


def test_records_stay_small():
    """1,000 synthetic records with their facts, names and 32-byte header
    digest: about 730 B each. A record that kept its serialized header
    took 2.7 KB, and one that kept its parsed header 10.3 KB."""
    emails = generate_emails(1_000, 0.5, seed=31)
    tracemalloc.start()
    try:
        records = to_records(emails)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(records) < 1024
    assert not any(hasattr(r, "wire") or hasattr(r, "header") for r in records)

"""Tests for the synthetic corpus generator."""

import hashlib

import numpy as np
import pytest

from headerscan.corpus import Label, load_labeled_dir, load_trec_index
from headerscan.headers import parse_headers, serialize_headers
from headerscan.synthetic import (
    NOISE_FEATURES,
    OPTIONAL_FIELDS,
    PLANTED_FEATURES,
    generate_emails,
    to_records,
    write_labeled_dirs,
    write_trec,
)


def test_generation_is_deterministic():
    for seed in range(5):
        a = generate_emails(40, 0.5, seed=seed)
        b = generate_emails(40, 0.5, seed=seed)
        assert [(e.id, e.label, e.raw) for e in a] == \
               [(e.id, e.label, e.raw) for e in b]
    assert generate_emails(40, 0.5, seed=1)[0].raw != \
        generate_emails(40, 0.5, seed=2)[0].raw


def test_generated_bytes_are_pinned():
    """The generator's output, ids, labels and raw bytes, is pinned by
    digest: a faster generator must write the same corpus."""
    h = hashlib.sha256()
    for e in (generate_emails(300, 0.5, seed=1)
              + generate_emails(100, 1.0, seed=2, anomaly_label=Label.PHISHING)):
        h.update(e.id.encode() + b"\0" + e.label.value.encode() + b"\0" + e.raw + b"\0")
    assert h.hexdigest() == "33dcdd8fd4b9110b93302069b3dc08471b9c86638a7f9bc00474a21bcb1a7720"


def test_label_counts_match_fraction():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(10, 120))
        frac = float(rng.uniform(0.0, 1.0))
        emails = generate_emails(n, frac, seed=int(rng.integers(1 << 30)))
        n_anom = sum(e.label is not Label.HAM for e in emails)
        assert n_anom == int(round(n * frac))
        assert len(emails) == n
        assert [e.id for e in emails] == [f"m{i:05d}" for i in range(n)]


def test_anomaly_label_choice():
    emails = generate_emails(20, 0.5, seed=3, anomaly_label=Label.PHISHING)
    labels = {e.label for e in emails}
    assert labels == {Label.HAM, Label.PHISHING}
    with pytest.raises(ValueError):
        generate_emails(10, 0.5, seed=0, anomaly_label=Label.HAM)
    with pytest.raises(ValueError):
        generate_emails(-1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_emails(10, 1.5, seed=0)


def test_every_email_parses():
    emails = generate_emails(120, 0.5, seed=9)
    for e in emails:
        parsed = parse_headers(e.raw)
        assert parsed.get_all("from")
        assert parsed.get_all("received")
        assert parsed.get_all("subject")


def _defect_rates(emails):
    missing = {True: 0, False: 0}
    mismatch = {True: 0, False: 0}
    hops = {True: [], False: []}
    counts = {True: 0, False: 0}
    for e in emails:
        anom = e.label is not Label.HAM
        counts[anom] += 1
        parsed = parse_headers(e.raw)
        if not parsed.get_all("message-id"):
            missing[anom] += 1
        from_dom = parsed.get_all("from")[0].split("@")[1].rstrip(">")
        rp = parsed.get_all("return-path")[0].strip("<>").split("@")[1]
        if from_dom != rp:
            mismatch[anom] += 1
        hops[anom].append(len(parsed.get_all("received")))
    return missing, mismatch, hops, counts


def test_planted_defect_rates():
    emails = generate_emails(3000, 0.5, seed=17)
    missing, mismatch, hops, counts = _defect_rates(emails)
    assert abs(missing[True] / counts[True] - 0.80) < 0.05
    assert missing[False] / counts[False] < 0.04
    assert abs(mismatch[True] / counts[True] - 0.70) < 0.05
    assert mismatch[False] / counts[False] < 0.05
    # one hop-count shape, anomalous shifted up by exactly two
    assert set(hops[False]) == {2, 3, 4}
    assert set(hops[True]) == {4, 5, 6}
    shift = np.mean(hops[True]) - np.mean(hops[False])
    assert abs(shift - 2.0) < 0.15


def test_noise_fields_are_class_independent():
    emails = generate_emails(4000, 0.5, seed=23)
    present = {name: {True: 0, False: 0} for name, _p in OPTIONAL_FIELDS}
    counts = {True: 0, False: 0}
    for e in emails:
        anom = e.label is not Label.HAM
        counts[anom] += 1
        parsed = parse_headers(e.raw)
        for name, _p in OPTIONAL_FIELDS:
            if parsed.get_all(name):
                present[name][anom] += 1
    for name, p in OPTIONAL_FIELDS:
        rate_anom = present[name][True] / counts[True]
        rate_ham = present[name][False] / counts[False]
        assert abs(rate_anom - rate_ham) < 0.06, name
        assert abs(rate_ham - p) < 0.06, name


def test_feature_name_constants_are_disjoint():
    assert len(PLANTED_FEATURES) == 3
    assert not set(PLANTED_FEATURES) & set(NOISE_FEATURES)
    assert len(set(NOISE_FEATURES)) == len(NOISE_FEATURES)


def test_trec_round_trip(tmp_path):
    emails = generate_emails(30, 0.4, seed=5)
    index_path, root = write_trec(emails, str(tmp_path / "corpus"))
    records, report = load_trec_index(index_path, root)
    assert len(records) == 30
    assert report.skipped == 0
    by_id = {r.id: r for r in records}
    for e in emails:
        rec = by_id[f"data/{e.id}.eml"]
        assert rec.label is e.label
        header = parse_headers(e.raw)
        assert rec.names == tuple(header.names())
        assert rec.digest == hashlib.sha256(serialize_headers(header)).digest()


def test_trec_rejects_phishing_labels(tmp_path):
    emails = generate_emails(6, 0.5, seed=5, anomaly_label=Label.PHISHING)
    with pytest.raises(ValueError):
        write_trec(emails, str(tmp_path / "corpus"))


def test_labeled_dirs_round_trip(tmp_path):
    emails = generate_emails(24, 0.25, seed=8, anomaly_label=Label.PHISHING)
    ham_dir, anom_dir = write_labeled_dirs(emails, str(tmp_path / "corpus"))
    ham, _ = load_labeled_dir(ham_dir, Label.HAM)
    phish, _ = load_labeled_dir(anom_dir, Label.PHISHING)
    assert len(ham) == 18
    assert len(phish) == 6
    assert all(r.label is Label.PHISHING for r in phish)


def test_to_records_keeps_labels_and_order():
    emails = generate_emails(15, 0.4, seed=2)
    records = to_records(emails)
    assert [r.id for r in records] == [e.id for e in emails]
    assert [r.label for r in records] == [e.label for e in emails]

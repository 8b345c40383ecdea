from __future__ import annotations

import random

import numpy as np
import pytest

from headerscan.corpus import CorpusRecord, Label
from headerscan.features import (
    _COMPARISON_PAIRS,
    CHAIN_BY_THEN_FROM,
    CHAIN_FROM_THEN_BY,
    DOMAIN_MATCH_ONLY,
    FULL,
    apply_scaler,
    extract,
    extract_matrix,
    fit_scaler,
    fit_schema,
    prune_single_valued,
    schema_from_dict,
    schema_to_dict,
    subset_schema,
)
from headerscan.headers import (
    EmailHeader,
    extract_domain,
    parse_address_list,
    parse_date,
    parse_headers,
    parse_received,
)
from headerscan.synthetic import generate_emails
from test_acceptance import _mutate  # the criterion-8 fuzz mutator


def _rec(i: int, raw: bytes, label=Label.HAM) -> CorpusRecord:
    return CorpusRecord(f"m{i}", parse_headers(raw), label)


BASIC = [
    _rec(0, b"From: a@x.org\r\nTo: b@y.org\r\nDate: Tue, 1 May 2007 10:00:00 -0400\r\n"
            b"Message-ID: <1@x.org>\r\n\r\n"),
    _rec(1, b"From: c@z.org\r\nTo: d@y.org\r\nDate: Tue, 1 May 2007 11:00:00 -0400\r\n"
            b"Message-ID: <2@z.org>\r\n\r\n"),
    _rec(2, b"From: e@w.org\r\nTo: f@y.org\r\nDate: Tue, 1 May 2007 12:00:00 +0000\r\n\r\n"),
]


def test_domain_match_only_schema_is_six_comparisons():
    schema = fit_schema(BASIC, k=50, feature_set=DOMAIN_MATCH_ONLY)
    assert len(schema.descriptors) == 6
    assert all(d.category == "comparison" for d in schema.descriptors)


def test_full_schema_counts_66_with_50_fields():
    fields = "".join(f"F{i:02d}: v\r\n" for i in range(50)).encode()
    records = [_rec(i, fields + b"\r\n") for i in range(4)]
    schema = fit_schema(records, k=50, feature_set=FULL)
    assert len(schema.top_fields) == 50
    assert len(schema.descriptors) == 50 + 6 + 4 + 6


def test_mode_timezone_majority():
    records = [
        _rec(i, f"Date: Tue, 1 May 2007 10:00:0{i} -0400\r\n\r\n".encode())
        for i in range(7)
    ] + [
        _rec(10 + i, f"Date: Tue, 1 May 2007 10:00:0{i} +0900\r\n\r\n".encode())
        for i in range(3)
    ]
    schema = fit_schema(records, k=5)
    assert schema.mode_timezone == "-0400"


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        fit_schema([], k=50)


def _value(schema, vec, name):
    return vec[schema.names.index(name)]


def test_missing_message_id_coordinate():
    schema = fit_schema(BASIC, k=10)
    assert "missing:message-id" in schema.names
    vec = extract(BASIC[2], schema)
    assert _value(schema, vec, "missing:message-id") == 1.0
    assert _value(schema, extract(BASIC[0], schema), "missing:message-id") == 0.0


def test_hop_count_counts_received_fields():
    schema = fit_schema(BASIC, k=10)
    h = _rec(9, b"Received: by a; 1 May 2007 10:00:00 +0000\r\n"
                b"Received: by b; 1 May 2007 09:00:00 +0000\r\n"
                b"Received: by c; 1 May 2007 08:00:00 +0000\r\n\r\n")
    assert _value(schema, extract(h, schema), "hop_count") == 3.0


def test_received_chain_consistency_paper_direction():
    schema = fit_schema(BASIC, k=10)
    good = _rec(9, b"Received: from relay.b.com by mx.a.com\r\n"
                   b"Received: from mx.a.com by origin.c.com\r\n\r\n")
    assert _value(schema, extract(good, schema), "received_chain_consistent") == 1.0
    bad = _rec(9, b"Received: from relay.b.com by mx.a.com\r\n"
                  b"Received: from mx.b.com by origin.c.com\r\n\r\n")
    assert _value(schema, extract(bad, schema), "received_chain_consistent") == 0.0


def test_received_chain_transpose_direction():
    schema = fit_schema(BASIC, k=10, chain_direction=CHAIN_FROM_THEN_BY)
    good = _rec(9, b"Received: from handoff.example by mx.final\r\n"
                   b"Received: from origin.example by handoff.example\r\n\r\n")
    assert _value(schema, extract(good, schema), "received_chain_consistent") == 1.0


def test_received_chain_vacuous_cases_are_consistent():
    schema = fit_schema(BASIC, k=10)
    for raw in [b"\r\n", b"Received: by only.one\r\n\r\n",
                b"Received: with SMTP\r\nReceived: with SMTP\r\n\r\n"]:
        assert _value(schema, extract(_rec(9, raw), schema),
                      "received_chain_consistent") == 1.0


def test_domain_match_codes():
    schema = fit_schema(BASIC, k=10)
    h = _rec(9, b"From: a@a.org\r\nMessage-ID: <x@a.org>\r\nReturn-Path: <b@b.net>\r\n\r\n")
    vec = extract(h, schema)
    assert _value(schema, vec, "domain_match:from:message-id") == 1.0
    assert _value(schema, vec, "domain_match:from:return-path") == 0.0
    assert _value(schema, vec, "domain_match:from:reply-to") == 2.0


def test_timezone_and_msgid_mode_features():
    schema = fit_schema(BASIC, k=10)
    assert schema.mode_timezone == "-0400"
    vec = extract(BASIC[0], schema)
    assert _value(schema, vec, "timezone_mismatch") == 0.0
    vec = extract(BASIC[2], schema)
    assert _value(schema, vec, "timezone_mismatch") == 1.0
    no_date = extract(_rec(9, b"From: a@x.org\r\n\r\n"), schema)
    assert _value(schema, no_date, "timezone_mismatch") == 1.0
    assert _value(schema, no_date, "date_parses") == 0.0
    assert _value(schema, no_date, "msgid_domain_mismatch") == 2.0


def test_content_type_html_codes():
    schema = fit_schema(BASIC, k=10)
    html = _rec(9, b"Content-Type: text/html; charset=utf-8\r\n\r\n")
    plain = _rec(9, b"Content-Type: text/plain\r\n\r\n")
    absent = _rec(9, b"From: a@x.org\r\n\r\n")
    assert _value(schema, extract(html, schema), "content_type_html") == 1.0
    assert _value(schema, extract(plain, schema), "content_type_html") == 0.0
    assert _value(schema, extract(absent, schema), "content_type_html") == 2.0


def test_recipient_counts():
    schema = fit_schema(BASIC, k=10)
    h = _rec(9, b"From: a@x.org\r\nTo: b@y.org, c@y.org\r\nCc: d@z.org\r\n\r\n")
    vec = extract(h, schema)
    assert _value(schema, vec, "to_count") == 2.0
    assert _value(schema, vec, "cc_count") == 1.0
    assert _value(schema, vec, "recipient_count") == 4.0
    # two From fields, the first without an address: one From address,
    # and no From domain, since the domain is the first field's
    h = _rec(9, b"From: undisclosed\r\nFrom: a@x.org\r\nMessage-ID: <1@x.org>\r\n\r\n")
    vec = extract(h, schema)
    assert _value(schema, vec, "recipient_count") == 1.0
    assert _value(schema, vec, "domain_match:from:message-id") == 2.0


def test_field_counts():
    schema = fit_schema(BASIC, k=10)
    h = _rec(9, b"A: 1\r\nA: 2\r\nB: 3\r\n\r\n")
    vec = extract(h, schema)
    assert _value(schema, vec, "field_count") == 3.0
    assert _value(schema, vec, "distinct_field_count") == 2.0


def test_encoding_ranges_property():
    rng = random.Random(17)
    schema = fit_schema(BASIC, k=10)
    binary = {i for i, d in enumerate(schema.descriptors) if d.encoding == "binary01"}
    ordinal3 = {i for i, d in enumerate(schema.descriptors)
                if d.encoding == "ordinal" and d.category in ("comparison", "header_value")}
    counting = {i for i, d in enumerate(schema.descriptors) if d.category == "counting"}
    for _ in range(300):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        vec = extract(parse_headers(raw), schema)
        assert np.isfinite(vec).all()
        for i in binary:
            assert vec[i] in (0.0, 1.0)
        for i in ordinal3:
            assert vec[i] in (0.0, 1.0, 2.0)
        for i in counting:
            assert vec[i] >= 0 and vec[i] == int(vec[i])


def test_schema_fit_order_invariant():
    rng = random.Random(3)
    records = list(BASIC)
    base = fit_schema(records, k=10).fingerprint
    for _ in range(4):
        rng.shuffle(records)
        assert fit_schema(records, k=10).fingerprint == base


def test_fingerprint_changes_with_content():
    a = fit_schema(BASIC, k=10)
    b = fit_schema(BASIC, k=3)
    c = fit_schema(BASIC, k=10, chain_direction=CHAIN_FROM_THEN_BY)
    assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3


def test_one_hot_expansion():
    plain = fit_schema(BASIC, k=10, feature_set=DOMAIN_MATCH_ONLY)
    hot = fit_schema(BASIC, k=10, feature_set=DOMAIN_MATCH_ONLY, one_hot=True)
    # 5 ordinal pairs expand to 3 binaries each; the chain feature stays
    assert len(hot.descriptors) == 5 * 3 + 1
    h = _rec(9, b"From: a@a.org\r\nMessage-ID: <x@a.org>\r\n\r\n")
    vec = extract(h, hot)
    names = hot.names
    assert vec[names.index("domain_match:from:message-id=1")] == 1.0
    assert vec[names.index("domain_match:from:message-id=0")] == 0.0
    assert vec[names.index("domain_match:from:reply-to=2")] == 1.0
    assert plain.fingerprint != hot.fingerprint


def test_scaler_hand_values():
    params = fit_scaler(np.array([[0.0], [0.0], [2.0], [2.0]]))
    assert params.mean[0] == 1.0
    assert params.stddev[0] == 1.0


def test_scaler_constant_column_degeneracy():
    params = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
    assert params.mean[0] == 5.0
    assert params.stddev[0] == 1.0
    out = apply_scaler(np.array([[5.0], [5.0]]), params)
    assert np.all(out == 0.0)


def test_scaler_random_matrix_moments():
    rng = np.random.default_rng(12)
    m = rng.normal(3.0, 2.5, size=(100, 10))
    params = fit_scaler(m)
    scaled = apply_scaler(m, params)
    assert np.abs(scaled.mean(axis=0)).max() < 1e-9
    assert np.abs(scaled.std(axis=0) - 1.0).max() < 1e-9


def test_apply_scaler_hand_example():
    from headerscan.features import ScalerParams
    params = ScalerParams(np.array([1.0]), np.array([2.0]))
    assert apply_scaler(np.array([3.0]), params)[0] == 1.0


def test_apply_scaler_length_mismatch():
    params = fit_scaler(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        apply_scaler(np.zeros(5), params)


def test_prune_single_valued():
    schema = fit_schema(BASIC, k=10)
    matrix = extract_matrix(BASIC, schema)
    pruned, smaller, dropped = prune_single_valued(schema, matrix)
    assert smaller.shape[1] == len(pruned.descriptors)
    assert len(dropped) == len(schema.descriptors) - len(pruned.descriptors)
    for j in range(smaller.shape[1]):
        assert not np.all(smaller[:, j] == smaller[0, j])
    assert pruned.fingerprint != schema.fingerprint


def test_subset_schema_keeps_order_and_extracts():
    schema = fit_schema(BASIC, k=10)
    names = ["hop_count", "missing:message-id", "domain_match:from:return-path"]
    sub, indices = subset_schema(schema, names)
    assert [schema.descriptors[i].name for i in indices] == sub.names
    full = extract(BASIC[0], schema)
    small = extract(BASIC[0], sub)
    assert np.array_equal(full[indices], small)


def test_subset_schema_unknown_name():
    schema = fit_schema(BASIC, k=10)
    with pytest.raises(KeyError):
        subset_schema(schema, ["nope"])


def test_schema_roundtrip_dict_and_file():
    schema = fit_schema(BASIC, k=10)
    again = schema_from_dict(schema_to_dict(schema))
    assert again == schema
    # train/serve consistency: extraction against the persisted schema
    for rec in BASIC:
        assert np.array_equal(extract(rec, again), extract(rec, schema))


def test_fingerprints_are_pinned():
    # schema_from_dict refuses a bundle whose fingerprint no longer
    # matches its schema, so these values must never change
    schema = fit_schema(BASIC, k=10, one_hot=True)
    pruned, _, dropped = prune_single_valued(schema, extract_matrix(BASIC, schema))
    sub, _ = subset_schema(pruned, pruned.names[::3])
    domain = fit_schema(BASIC, feature_set=DOMAIN_MATCH_ONLY)
    assert (len(schema.names), len(pruned.names), len(sub.names)) == (34, 9, 3)
    assert dropped[:3] == ["missing:date", "missing:from", "missing:to"]
    assert [s.fingerprint for s in (schema, pruned, sub, domain)] == [
        "af32e24667520b8e", "7560fc160135315c", "6d26ef2cd48bd40d",
        "ba74101d7dd25923"]
    for s in (schema, pruned, sub, domain):
        assert schema_from_dict(schema_to_dict(s)) == s



# ------------------------------------------- facts and projection

def reference_host_domain(host):
    if host is None:
        return None
    host = host.strip().strip("[]").lower()
    return host or None


def reference_base_values(header, schema):
    """Every catalog quantity for one email, keyed by kind[:param]."""
    values: dict[str, float] = {}
    present = set(header.names())
    from_lists = [parse_address_list(v) for v in header.get_all("from")]
    msgid_domain = extract_domain(header, "message-id")
    hops = [parse_received(v) for v in header.get_all("received")]

    if schema.feature_set == FULL:
        for f in schema.top_fields:
            values[f"missing:{f}"] = 0.0 if f in present else 1.0

        to_n = sum(len(parse_address_list(v)) for v in header.get_all("to"))
        cc_n = sum(len(parse_address_list(v)) for v in header.get_all("cc"))
        from_n = sum(len(addresses) for addresses in from_lists)
        values["count:hops"] = float(len(hops))
        values["count:to"] = float(to_n)
        values["count:cc"] = float(cc_n)
        values["count:recipients"] = float(to_n + cc_n + from_n)
        values["count:fields"] = float(len(header.fields))
        values["count:distinct"] = float(len(present))

        date_value = header.get("date")
        stamp = parse_date(date_value) if date_value is not None else None
        values["tz_mode"] = (
            0.0 if stamp is not None and stamp.zone_token == schema.mode_timezone else 1.0
        )
        values["date_parses"] = 1.0 if stamp is not None else 0.0

        ct = header.get("content-type")
        if ct is None:
            values["ct_html"] = 2.0
        else:
            values["ct_html"] = 1.0 if ct.strip().lower().startswith("text/html") else 0.0

        if msgid_domain is None:
            values["msgid_mode"] = 2.0
        else:
            values["msgid_mode"] = 0.0 if msgid_domain == schema.mode_msgid_domain else 1.0

    # as extract_domain reads it: the first From field's first address
    first_from = from_lists[0] if from_lists else []
    domains = {"from": (first_from[0].domain or None) if first_from else None,
               "return-path": extract_domain(header, "return-path"),
               "reply-to": extract_domain(header, "reply-to"),
               "message-id": msgid_domain,
               "received-from": reference_host_domain(hops[0].from_host) if hops else None}

    for a, b in _COMPARISON_PAIRS:
        da, db = domains[a], domains[b]
        if da is None or db is None:
            values[f"domain_match:{a}:{b}"] = 2.0
        else:
            values[f"domain_match:{a}:{b}"] = 1.0 if da == db else 0.0

    consistent = 1.0
    for first, second in zip(hops, hops[1:]):
        if schema.chain_direction == CHAIN_BY_THEN_FROM:
            left, right = reference_host_domain(first.by_host), reference_host_domain(second.from_host)
        else:
            left, right = reference_host_domain(first.from_host), reference_host_domain(second.by_host)
        if left is None or right is None:
            continue  # incomparable pairs are skipped, not mismatches
        if left != right:
            consistent = 0.0
            break
    values["chain"] = consistent
    return values


def reference_extract(header, schema):
    """Numeric vector for one email's parsed header, aligned to
    schema.descriptors."""
    base = reference_base_values(header, schema)
    out = np.empty(len(schema.descriptors), dtype=np.float64)
    for i, d in enumerate(schema.descriptors):
        value = base[d.kind if d.param is None else f"{d.kind}:{d.param}"]
        if d.encoding == "onehot":
            out[i] = 1.0 if value == d.onehot_value else 0.0
        else:
            out[i] = value
    return out


def reference_modes(headers):
    """The timezone and Message-ID domain counts fit_schema takes modes
    of, from each email's parsed header."""
    tz_counts, msgid_counts = {}, {}
    for header in headers:
        value = header.get("date")
        if value is not None:
            stamp = parse_date(value)
            if stamp is not None:
                tz_counts[stamp.zone_token] = tz_counts.get(stamp.zone_token, 0) + 1
        domain = extract_domain(header, "message-id")
        if domain is not None:
            msgid_counts[domain] = msgid_counts.get(domain, 0) + 1
    return [min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0] if c else ""
            for c in (tz_counts, msgid_counts)]


def _mangled(raw: bytes, kind: int, rng: random.Random) -> bytes:
    """The defects a stream of unseen mail carries: a long Received
    chain, no Date, bare LF line ends, a header block cut mid-line."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    if kind == 0:
        hops = [line for line in lines if line.startswith(b"Received:")]
        lines = hops[:1] * rng.randint(15, 20) + lines
    elif kind == 1:
        lines = [line for line in lines if not line.startswith(b"Date:")]
    elif kind == 2:
        return raw.replace(b"\r\n", b"\n")
    else:
        return head[:rng.randrange(len(head) // 4, 3 * len(head) // 4)]
    return b"\r\n".join(lines) + sep + body


def _corpus(mangle: bool) -> tuple[list[CorpusRecord], list[EmailHeader]]:
    """The records, and each one's header parsed again for the reference."""
    emails = (generate_emails(200, 0.5, seed=12)
              + generate_emails(100, 1.0, seed=13, anomaly_label=Label.PHISHING))
    rng = random.Random(14)
    raws = [_mangled(e.raw, i % 4, rng) if mangle else e.raw
            for i, e in enumerate(emails)]
    records = [_rec(i, raw, e.label) for i, (raw, e) in enumerate(zip(raws, emails))]
    return records, [parse_headers(raw) for raw in raws]


@pytest.mark.parametrize("mangle", [False, True], ids=["synthetic", "mangled"])
@pytest.mark.parametrize("chain", [CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY])
@pytest.mark.parametrize("one_hot", [False, True], ids=["ordinal", "one-hot"])
@pytest.mark.parametrize("feature_set", [FULL, DOMAIN_MATCH_ONLY])
def test_extract_matrix_matches_the_reference_extract(feature_set, one_hot,
                                                      chain, mangle):
    records, headers = _corpus(mangle)
    schema = fit_schema(records, k=30, feature_set=feature_set,
                        one_hot=one_hot, chain_direction=chain)
    assert [schema.mode_timezone, schema.mode_msgid_domain] == reference_modes(headers)
    matrix = extract_matrix(records, schema)
    pruned, _, _ = prune_single_valued(schema, matrix)
    sub, _ = subset_schema(pruned, pruned.names[::2])
    for s in (schema, pruned, sub):
        want = np.array([reference_extract(h, s) for h in headers])
        assert extract_matrix(records, s).tobytes() == want.tobytes()
        # a bare header (the classify path) projects to the same row
        for h in headers[::37]:
            assert extract(h, s).tobytes() == reference_extract(h, s).tobytes()


def test_records_extract_as_the_raw_messages_headers():
    """The criterion-8 fuzz corpus and the mangled one: records, which
    keep only their field names and facts, extract as the reference
    extract of each raw message's parsed header."""
    base = [e.raw for e in generate_emails(50, 0.5, seed=8)]
    rng = random.Random(20260816)
    raws = [_mutate(base[i % 50], rng) for i in range(2_000)]
    raws += [_mangled(e.raw, i % 4, rng)
             for i, e in enumerate(generate_emails(200, 0.5, seed=12))]
    records = [_rec(i, raw) for i, raw in enumerate(raws)]
    for one_hot in (False, True):
        schema = fit_schema(records, k=30, one_hot=one_hot)
        want = np.array([reference_extract(parse_headers(raw), schema)
                         for raw in raws])
        assert extract_matrix(records, schema).tobytes() == want.tobytes()

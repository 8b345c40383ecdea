from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

import pytest

from headerscan import headers
from headerscan.corpus import CorpusRecord, Label
from headerscan.features import extract_matrix, fit_schema
from headerscan.headers import (
    DateStamp,
    EmailHeader,
    HeaderField,
    extract_domain,
    parse_address_list,
    parse_date,
    parse_headers,
    parse_received,
    serialize_headers,
)
from headerscan.synthetic import generate_emails
import reference_headers as reference  # the functions before the rewrite
from test_acceptance import _mutate  # the criterion-8 fuzz mutator


def test_unfolds_continuation_into_single_field():
    h = parse_headers(b"Subject: hello\r\n world\r\n\r\nbody ignored")
    assert len(h.fields) == 1
    assert h.fields[0].name == "subject"
    # frozen via stdlib email parser: 'hello\r\n world' unfolds to 'hello world'
    assert h.fields[0].raw_value == "hello world"
    assert h.malformed_line_count == 0


def test_multi_space_fold_collapses_to_one_space():
    h = parse_headers(b"Subject: a\r\n\t   b\r\n\r\n")
    assert h.fields[0].raw_value == "a b"


def test_non_utf8_bytes_accepted_one_to_one():
    h = parse_headers(b"X-Weird: caf\xe9\r\n\r\n")
    assert h.malformed_line_count == 0
    assert h.fields[0].raw_value == b"caf\xe9".decode("latin-1")


def test_line_without_colon_is_counted_and_skipped():
    h = parse_headers(b"From: a@b.com\r\ngarbage line\r\nTo: c@d.com\r\n\r\n")
    assert h.malformed_line_count == 1
    assert [f.name for f in h.fields] == ["from", "to"]


def test_empty_name_is_malformed():
    h = parse_headers(b": no name\r\n   : padded\r\n\r\n")
    # second line starts with whitespace and continues the malformed line
    assert len(h.fields) == 0
    assert h.malformed_line_count >= 1


def test_boundary_at_first_blank_line():
    h = parse_headers(b"\r\n\r\nbody")
    assert h.fields == []
    assert h.malformed_line_count == 0


def test_names_lowercased_values_trimmed():
    h = parse_headers(b"FROM:  a@b.com  \r\n\r\n")
    assert h.fields[0] == HeaderField("from", "a@b.com", 0)


def test_duplicate_fields_keep_order():
    raw = b"Received: one\r\nReceived: two\r\nReceived: three\r\n\r\n"
    h = parse_headers(raw)
    assert h.get_all("received") == ["one", "two", "three"]
    assert [f.order for f in h.fields] == [0, 1, 2]


def test_encoded_words_left_verbatim():
    h = parse_headers(b"Subject: =?utf-8?B?aGVsbG8=?=\r\n\r\n")
    assert h.fields[0].raw_value == "=?utf-8?B?aGVsbG8=?="


def test_bare_lf_and_bare_cr_line_endings():
    assert parse_headers(b"A: 1\nB: 2\n\n").names() == ["a", "b"]
    assert parse_headers(b"A: 1\rB: 2\r\r").names() == ["a", "b"]


def test_get_helpers():
    h = parse_headers(b"To: x@y.z\r\nTo: q@r.s\r\n\r\n")
    assert h.get("to") == "x@y.z"
    assert h.get("absent") is None


def _random_field(rng: random.Random) -> tuple[str, str]:
    name = "".join(rng.choice(string.ascii_letters + "-_.") for _ in range(rng.randint(1, 12)))
    chars = string.printable.replace("\r", "").replace("\n", "").replace("\x0b", "").replace("\x0c", "")
    value = "".join(rng.choice(chars + "\xe9\xfc\x80") for _ in range(rng.randint(0, 40)))
    return name, value


def test_serialize_then_parse_is_identity():
    rng = random.Random(1234)
    for _ in range(200):
        raw = b""
        for _ in range(rng.randint(0, 8)):
            name, value = _random_field(rng)
            line = f"{name}: {value}"
            # fold at a random point inside the value now and then
            if value and rng.random() < 0.3:
                cut = rng.randrange(len(line) // 2, len(line))
                line = line[:cut] + "\r\n " + line[cut:]
            raw += line.encode("latin-1") + b"\r\n"
        raw += b"\r\n"
        first = parse_headers(raw)
        second = parse_headers(serialize_headers(first))
        assert second.fields == first.fields
        assert second.malformed_line_count == 0


def test_parse_never_crashes_and_field_count_bounded():
    rng = random.Random(99)
    for _ in range(1000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        h = parse_headers(raw)
        line_count = max(1, raw.count(b"\n") + raw.count(b"\r") + 1)
        assert len(h.fields) <= line_count
        assert h.malformed_line_count >= 0


# ---------------------------------------------------------------- dates

def test_date_standard_form():
    # frozen via email.utils.mktime_tz
    d = parse_date("Tue, 1 May 2007 10:00:00 -0400")
    assert d == DateStamp(1178028000, -240, "-0400")


def test_date_named_zone_est():
    d = parse_date("1 May 2007 10:00:00 EST")
    assert d == DateStamp(1178031600, -300, "EST")


def test_date_positive_offset():
    d = parse_date("Thu, 13 Apr 2006 03:04:05 +0530")
    assert d == DateStamp(1144877645, 330, "+0530")


def test_date_two_digit_years():
    assert parse_date("Sat, 1 Jan 00 00:00:00 GMT").epoch_seconds == 946684800
    assert parse_date("Fri, 31 Dec 99 23:59:59 -0000").epoch_seconds == 946684799


def test_date_unknown_zone_keeps_token_offset_zero():
    d = parse_date("Tue, 1 May 2007 10:00:00 XYZ")
    assert d is not None
    assert d.utc_offset_minutes == 0
    assert d.zone_token == "XYZ"
    assert d.epoch_seconds == parse_date("Tue, 1 May 2007 10:00:00 GMT").epoch_seconds


def test_date_trailing_comment_ignored():
    d = parse_date("Tue, 1 May 2007 10:00:00 -0400 (EDT)")
    assert d == DateStamp(1178028000, -240, "-0400")


def test_date_seconds_optional():
    d = parse_date("Tue, 1 May 2007 10:00 -0400")
    assert d.epoch_seconds == 1178028000 - 0


def test_date_rejects_non_dates():
    assert parse_date("not a date") is None
    assert parse_date("") is None
    assert parse_date("32 May 2007 10:00:00 -0400") is None
    assert parse_date("1 Nonmonth 2007 10:00:00 -0400") is None


def test_date_all_named_zones():
    offsets = {"UT": 0, "GMT": 0, "EST": -300, "EDT": -240, "CST": -360,
               "CDT": -300, "MST": -420, "MDT": -360, "PST": -480, "PDT": -420}
    for zone, minutes in offsets.items():
        d = parse_date(f"Tue, 1 May 2007 10:00:00 {zone}")
        assert d.utc_offset_minutes == minutes, zone
        assert d.zone_token == zone


def test_date_epoch_offset_roundtrip():
    # epoch + offset reconstructs the wall clock that was printed
    import calendar
    rng = random.Random(7)
    months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
    for _ in range(200):
        y, mo, day = rng.randint(1970, 2037), rng.randint(1, 12), rng.randint(1, 28)
        hh, mm, ss = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
        sign, oh, om = rng.choice("+-"), rng.randint(0, 13), rng.randint(0, 59)
        text = f"{day} {months[mo-1]} {y} {hh:02d}:{mm:02d}:{ss:02d} {sign}{oh:02d}{om:02d}"
        d = parse_date(text)
        wall = calendar.timegm((y, mo, day, hh, mm, ss, 0, 0, 0))
        assert d.epoch_seconds + 60 * d.utc_offset_minutes == wall
        assert d.zone_token == f"{sign}{oh:02d}{om:02d}"


# ------------------------------------------------------------ addresses

def test_address_list_quoted_display_and_bare():
    out = parse_address_list('"Doe, Jane" <jane@x.org>, bob@y.net')
    assert [(a.local_part, a.domain) for a in out] == [("jane", "x.org"), ("bob", "y.net")]
    assert out[0].display_name == "Doe, Jane"
    assert out[1].display_name is None


def test_address_list_empty_group():
    assert parse_address_list("undisclosed-recipients:;") == []


def test_address_list_group_members_flattened():
    out = parse_address_list("friends: a@b.com, c@d.org;, e@f.net")
    assert [a.domain for a in out] == ["b.com", "d.org", "f.net"]


def test_address_list_comments_stripped():
    out = parse_address_list("bob@y.net (Bob)")
    assert out == [
        type(out[0])("bob", "y.net", None)
    ]


def test_address_list_domains_lowercased():
    out = parse_address_list("Bob <BOB@EXAMPLE.COM>")
    assert out[0].domain == "example.com"
    assert out[0].local_part == "BOB"


def test_address_list_drops_junk_items():
    out = parse_address_list("no-at-sign, ok@fine.org, @nodomain")
    assert [a.domain for a in out] == ["fine.org"]


def test_address_list_empty_value():
    assert parse_address_list("") == []
    assert parse_address_list("   ") == []


def test_address_list_matches_stdlib_on_plain_lists():
    import email.utils
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        pairs = []
        for _ in range(n):
            local = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
            dom = "".join(rng.choice(string.ascii_lowercase) for _ in range(5)) + ".com"
            pairs.append((local, dom))
        text = ", ".join(
            rng.choice([f"{l}@{d}", f"<{l}@{d}>", f"Name Here <{l}@{d}>"])
            for l, d in pairs
        )
        expected = [addr.rsplit("@", 1) for _, addr in email.utils.getaddresses([text])]
        got = [(a.local_part, a.domain) for a in parse_address_list(text)]
        assert got == [tuple(e) for e in expected]


# ------------------------------------------------------------- received

def test_received_full_clause_set():
    hop = parse_received(
        "from mail.example.com (mail.example.com [192.0.2.1]) "
        "by mx.google.com with ESMTP id abc123 for <user@gmail.com>; "
        "Tue, 1 May 2007 10:00:00 -0400"
    )
    assert hop.from_host == "mail.example.com"
    assert hop.by_host == "mx.google.com"
    assert hop.with_protocol == "ESMTP"
    assert hop.id_token == "abc123"
    assert hop.for_addr == "user@gmail.com"
    assert hop.ip_literals == ("192.0.2.1",)
    assert hop.date == DateStamp(1178028000, -240, "-0400")


def test_received_by_alone():
    hop = parse_received("by alone")
    assert hop.by_host == "alone"
    assert hop.from_host is None
    assert hop.date is None


def test_received_keywords_inside_comment_ignored():
    hop = parse_received("(qmail 12345 invoked by uid 0); 1 May 2007 10:00:00 -0000")
    assert hop.by_host is None
    assert hop.from_host is None
    assert hop.date is not None


def test_received_ipv6_literal_harvested():
    hop = parse_received("from x ([IPv6:2001:db8::1]) by y; 1 May 2007 10:00:00 +0000")
    assert hop.ip_literals == ("2001:db8::1",)


def test_received_bracketed_hostname_not_an_ip():
    hop = parse_received("from [not.an.ip.literal.example] by y")
    assert hop.ip_literals == ()


# -------------------------------------------------------------- domains

def test_extract_domain_message_id():
    h = parse_headers(b"Message-ID: <abc123@mail.example.com>\r\n\r\n")
    assert extract_domain(h, "message-id") == "mail.example.com"


def test_extract_domain_message_id_unbracketed():
    h = parse_headers(b"Message-ID: abc@Host.ORG\r\n\r\n")
    assert extract_domain(h, "message-id") == "host.org"


def test_extract_domain_address_field():
    h = parse_headers(b"From: Jane <jane@X.Org>\r\n\r\n")
    assert extract_domain(h, "from") == "x.org"


def test_extract_domain_absent_or_hopeless():
    h = parse_headers(b"Message-ID: no-at-sign\r\nFrom: junk\r\n\r\n")
    assert extract_domain(h, "message-id") is None
    assert extract_domain(h, "from") is None
    assert extract_domain(h, "reply-to") is None


def test_extract_domain_multiple_at_signs():
    h = parse_headers(b"Message-ID: <a@b@real.dom>\r\n\r\n")
    assert extract_domain(h, "message-id") == "real.dom"


# ----------------------------------------------------------- fast paths

def reference_strip_comments(text: str) -> str:
    """Drop parenthesized comments outside quoted strings (nesting honored)."""
    out = []
    depth = 0
    in_quote = False
    i = 0
    while i < len(text):
        c = text[i]
        if in_quote:
            out.append(c)
            if c == "\\" and i + 1 < len(text):
                out.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                in_quote = False
        elif depth > 0:
            if c == "\\" and i + 1 < len(text):
                i += 2
                continue
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
        else:
            if c == '"':
                in_quote = True
                out.append(c)
            elif c == "(":
                depth += 1
            else:
                out.append(c)
        i += 1
    return "".join(out)


def reference_split_top_level(text: str, seps: str) -> list[str]:
    """Split on separator chars that sit outside quotes and angle brackets."""
    parts = []
    buf = []
    in_quote = False
    angle = 0
    i = 0
    while i < len(text):
        c = text[i]
        if in_quote:
            buf.append(c)
            if c == "\\" and i + 1 < len(text):
                buf.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                in_quote = False
        elif c == '"':
            in_quote = True
            buf.append(c)
        elif c == "<":
            angle += 1
            buf.append(c)
        elif c == ">":
            angle = max(0, angle - 1)
            buf.append(c)
        elif angle == 0 and c in seps:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    parts.append("".join(buf))
    return parts


TRICKY_VALUES = [
    "", "plain", " spaced  out ", "\\", "a\\", '"', "(", ")", "<", ">",
    "a (comment) b", "a (nested (deep) comment) b", "(unclosed comment",
    "closed) only", r"(escaped \) paren) after", r"a \(not a comment",
    '"quoted (not a comment)" (comment)', r'"escaped \" quote (x)" y',
    '"trailing escape \\', '"unclosed (quote', "(a \\", "a, <b \\",
    "Jane <jane@x.org>, bob@y.org; carol@z.org",
    "<a@b, c@d>, e@f", "<<a,b>>, c", ">stray, close", "a <b> c> , d",
    '"Doe, J" <j@x.org>, "Roe; R" <r@y.org>', r'"a \", b" <c>, d',
    "group: a@b, c@d;", "undisclosed-recipients:;", "x:y:z", "a\\,b",
    "from mx.example.com (mx [10.0.0.1]) by mail.example.org; Tue, 3 Jan 2023",
    "Tue, 3 Jan 2023 10:00:00 +0000 (UTC)",
]
SEPS = (",;", ":", ",", ";", "")


def test_tricky_values_match_the_loops():
    for text in TRICKY_VALUES:
        assert headers._strip_comments(text) == reference_strip_comments(text), text
        for seps in SEPS:
            assert (headers._split_top_level(text, seps)
                    == reference_split_top_level(text, seps)), (text, seps)


def test_strip_comments_matches_the_loop_on_random_strings():
    """Short strings over the characters the stripper's states turn on,
    so unclosed quotes and comments, escapes inside both and trailing
    backslashes all occur many times."""
    rng = random.Random(20261019)
    alphabet = 'ab ()"\\<>@,;:'
    bad = []
    for _ in range(200_000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(24)))
        if headers._strip_comments(text) != reference_strip_comments(text):
            bad.append(text)
    assert bad == []


def test_fuzz_corpus_matches_the_loops_and_extracts_the_same(monkeypatch):
    """The criterion-8 fuzz corpus: every string extraction passes to
    either function gives the old loop's result, every header the old
    header_facts' facts, and extract_matrix the same bytes."""
    base = [e.raw for e in generate_emails(50, 0.5, seed=8)]
    rng = random.Random(20260816)
    parsed = [parse_headers(_mutate(base[case % 50], rng)) for case in range(10_000)]
    records = [CorpusRecord(str(case), header, Label.HAM)
               for case, header in enumerate(parsed)]
    assert [r.facts for r in records] == [reference.header_facts(h) for h in parsed]
    schema = fit_schema(records)
    seen = set()
    for name, ref in (("_strip_comments", reference_strip_comments),
                      ("_split_top_level", reference_split_top_level)):
        monkeypatch.setattr(headers, name, lambda *args, ref=ref: seen.add(args) or ref(*args))
    # fit_schema left each record its facts; copies without them make
    # the reference pass compute every fact through the loops
    want = extract_matrix([CorpusRecord(str(case), header, Label.HAM)
                           for case, header in enumerate(parsed)], schema)
    monkeypatch.undo()
    got = extract_matrix(records, schema)
    assert got.tobytes() == want.tobytes()
    stripped = [args for args in seen if len(args) == 1]
    assert 1_000 < len(stripped) < len(seen)
    assert any("(" in text for (text,) in stripped)
    for args in seen:
        if len(args) == 1:
            assert headers._strip_comments(*args) == reference_strip_comments(*args)
        else:
            assert headers._split_top_level(*args) == reference_split_top_level(*args)


@dataclass(frozen=True)
class ReferenceHeaderField:
    name: str
    raw_value: str
    order: int


def reference_parse_headers(raw: bytes | str) -> tuple[list, int]:
    """parse_headers as it was, with its flush closure and frozen
    dataclass fields: (fields, malformed_line_count)."""
    text = raw.decode("latin-1") if isinstance(raw, bytes) else raw
    fields: list[ReferenceHeaderField] = []
    malformed = 0
    cur_name: str | None = None
    cur_value: str | None = None

    def flush() -> None:
        nonlocal cur_name, cur_value
        if cur_name is not None:
            fields.append(
                ReferenceHeaderField(cur_name, cur_value.strip(" \t"), len(fields))
            )
        cur_name = None
        cur_value = None

    for line in re.split(r"\r\n|\r|\n", text):
        if line == "":
            break  # header/body boundary
        if line[0] in " \t":
            if cur_name is None:
                malformed += 1
                continue
            cur_value += " " + line.lstrip(" \t")
            continue
        flush()
        idx = line.find(":")
        name = line[:idx].strip(" \t") if idx >= 0 else ""
        if idx < 0 or not name:
            malformed += 1
            continue
        cur_name = name.lower()
        cur_value = line[idx + 1 :]
    flush()
    return fields, malformed


def assert_parses_as_reference(raw) -> None:
    got = parse_headers(raw)
    fields, malformed = reference_parse_headers(raw)
    assert all(type(f) is HeaderField for f in got.fields)
    assert [(f.name, f.raw_value, f.order) for f in got.fields] == [
        (f.name, f.raw_value, f.order) for f in fields], raw
    assert got.malformed_line_count == malformed, raw


MANGLED_BLOCKS = [
    b"", b"\r\n", b"\n", b"\r", b"A: 1\nB: 2\rC: 3\r\nD: 4\n\nbody",
    b"A: 1\r\r\nB: 2", b" leading continuation\r\nA: 1\r\n\r\n",
    b"\tleading tab\nA: 1\n continued\n\tagain\n",
    b"no colon here\r\nA: 1\r\n: empty name\r\n \t : padded\r\n\r\n",
    b"   : spaced name\r\n\t\r\nA:\r\n", b"A: 1\r\n \r\nB: 2",
    b"Subject: cut mid-li", b"Subject: folded\r\n", b"X:\xff\xfe\x00\r\n \x80\r\n",
    b"a:b:c\r\n\x0cform-feed: kept\r\n", b"A \t: spaced\r\n B\r\n",
]


def test_parse_headers_matches_the_old_parser():
    """Mangled blocks, the synthetic corpus with the criterion-8
    mutations and random strings over the characters the parser turns
    on give the old parser's fields and malformed count."""
    for raw in MANGLED_BLOCKS:
        assert_parses_as_reference(raw)
        assert_parses_as_reference(raw.decode("latin-1"))
    rng = random.Random(20261020)
    for e in generate_emails(200, 0.5, seed=14):
        assert_parses_as_reference(e.raw)
        assert_parses_as_reference(_mutate(e.raw, rng))
    for _ in range(100_000):
        assert_parses_as_reference("".join(rng.choices("ab: \t\r\n", k=rng.randrange(24))))


def test_header_field_is_an_immutable_value():
    f = HeaderField("from", "a@b.com", 0)
    assert f == HeaderField("from", "a@b.com", 0) and hash(f) == hash(HeaderField(*f))
    with pytest.raises(AttributeError):
        f.name = "to"


# ------------------------------------------ header block and facts rewrite

BLANK_LINES = [b"\r\n\r\n", b"\n\n", b"\r\r", b"\n\r\n", b"\r\n\n"]
BODIES = [b"", b"body", b"X-Body: a colon line\r\nFrom: b@c.d\r\n",
          b"lone\rCR: x\rlines\r", b"\r\n\r\n\n\rY: z", b" folded: body\n\tline"]


def test_parse_reads_only_up_to_the_first_blank_line():
    """head + blank + body parses as head + blank, whatever the body and
    however the blank line is spelled, from bytes and from str."""
    rng = random.Random(20261021)
    heads = [e.raw.partition(b"\r\n\r\n")[0]
             for e in generate_emails(40, 0.5, seed=21)]
    heads += [_mutate(h, rng) for h in heads] + [b"", b"A: 1", b"A: 1\r", b"\tB"]
    for head in heads:
        for blank in BLANK_LINES:
            want = parse_headers(head + blank)
            assert_parses_as_reference(head + blank)
            for body in BODIES:
                assert parse_headers(head + blank + body) == want
                assert parse_headers((head + blank + body).decode("latin-1")) == want


def test_received_keyword_table_is_every_spelling_that_lowers_to_one():
    letters = set("".join(reference._RECEIVED_KEYWORDS))
    lowering_to_a_letter = {chr(c) for c in range(0x110000) if chr(c).lower() in letters}
    assert lowering_to_a_letter == letters | {c.upper() for c in letters}
    assert {t for t in headers._RECEIVED_KEYWORDS if t.lower() in reference._RECEIVED_KEYWORDS} \
        == set(headers._RECEIVED_KEYWORDS)
    assert len(headers._RECEIVED_KEYWORDS) == sum(2 ** len(k) for k in reference._RECEIVED_KEYWORDS)


SPACES = [" ", " ", "  ", "\t", "\x0b", "\x1c", "\x85", "\xa0"]


def _random_date(rng: random.Random) -> str:
    parts = [rng.choice(["", "Mon,", "tue ,", "WEDNESDAY,", "x,"]),
             rng.choice(["1", "01", "31", "32", "0", "00", "9", "\u0663", "123"]),
             rng.choice(["Jan", "jan", "JAN", "Janu", "Febr.", "Foo", "Dec", "sept"]),
             rng.choice(["2021", "21", "49", "50", "000", "999", "9999", "1",
                         "12345", "\u0662\u0660\u0662\u0661", "0001"]),
             rng.choice(["10:00", "10:00:00", "23:59:60", "24:00", "9:5", "10:60",
                         "10:00:61"]),
             rng.choice(["+0000", "-0500", "+1234", "EST", "est", "GMT", "UT", "XYZ",
                         "ABCDEF", "+00", "Z", ""]),
             rng.choice(["", "", "(UTC)", "(a (b) c)", '"q"', "(unclosed"])]
    return "".join(part + rng.choice(SPACES) for part in parts)


def _random_received(rng: random.Random) -> str:
    tokens = rng.choices(
        ["from", "FROM", "From", "by", "bY", "via", "with", "WITH", "id", "for", "For",
         "Kid", "\u0130d", "\u212ay", "mx.example.com", "[10.0.0.1]", "(comment [1.2.3.4])",
         "(by x)", "<a@b>", "<>", "ESMTP", "[IPv6:::1]", "(nested (deep) x", '"q (x)"',
         ";", "\\(", "HOST.Example"], k=rng.randrange(12))
    text = "".join(token + rng.choice(SPACES) for token in tokens)
    return text + ("; " + _random_date(rng) if rng.random() < 0.7 else "")


def _random_addresses(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choices('ab @<>",;:()\\.\t', k=rng.randrange(30)))
    items = rng.choices(
        ['"Doe, J" <j@X.org>', "bob@y.org", "<@r1,@r2:u@Z.COM>", "grp: a@b, c@d;",
         "undisclosed-recipients:;", "x <a@b c>", "a@", "@b", "Name (c) <u@v>",
         "u@v (comment)", '"a\\"b" <c@d>', "<a@b", "a@b>", "x <y@z> w"],
        k=rng.randint(1, 3))
    return rng.choice([", ", ",", "; "]).join(items)


def test_random_values_parse_and_give_facts_as_before():
    """parse_date, parse_received and parse_address_list return what they
    returned before the rewrite, and header_facts the same facts, on random
    Date, Received and address values in random headers."""
    rng = random.Random(20261022)
    makers = {"date": _random_date, "received": _random_received}
    names = ["date", "received", "received", "from", "from", "to", "cc", "return-path",
             "reply-to", "message-id", "content-type", "x-other"]
    for _ in range(3_000):
        date, received = _random_date(rng), _random_received(rng)
        addresses = _random_addresses(rng)
        assert parse_date(date) == reference.parse_date(date), date
        assert parse_received(received) == reference.parse_received(received), received
        assert parse_address_list(addresses) == reference.parse_address_list(addresses)
        fields = [(name, makers.get(name, _random_addresses)(rng))
                  for name in rng.sample(names, rng.randrange(len(names) + 1))]
        header = EmailHeader([HeaderField(n, v, i) for i, (n, v) in enumerate(fields)])
        assert headers.header_facts(header) == reference.header_facts(header), fields


def test_year_zero_is_not_a_date():
    """Year 0000 has no calendar: it parsed, then raised ValueError from
    calendar.timegm, so one such Date failed a whole corpus load."""
    value = "Mon, 1 Jan 0000 10:00:00 +0000"
    with pytest.raises(ValueError):
        reference.parse_date(value)
    assert parse_date(value) is None
    assert parse_received(f"from a by b; {value}").date is None
    header = parse_headers(f"Date: {value}\r\n\r\n")
    assert headers.header_facts(header).date_zone is None
    assert parse_date(value.replace(" 0000 ", " 0001 ")).zone_token == "+0000"

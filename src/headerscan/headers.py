"""Tolerant RFC 5322 header parsing.

Everything here operates on the header block only (up to the first blank
line): parse_headers decodes and splits nothing after it.  The parser
never rejects input: any byte sequence produces an EmailHeader, with junk
lines tallied in ``malformed_line_count``.  header_facts computes only
what feature extraction reads: no date epoch, no dict of every field and
no ParsedAddress for an address that is only counted.
"""

from __future__ import annotations

import calendar
import re
import sys
from dataclasses import dataclass, field
from itertools import count, product, repeat
from typing import NamedTuple

__all__ = [
    "HeaderField",
    "EmailHeader",
    "ParsedAddress",
    "DateStamp",
    "ReceivedHop",
    "HeaderFacts",
    "parse_headers",
    "serialize_headers",
    "parse_address_list",
    "parse_date",
    "parse_received",
    "extract_domain",
    "header_facts",
]


class HeaderField(NamedTuple):
    """One header field: canonical lowercase name, unfolded value, position."""

    name: str
    raw_value: str
    order: int


@dataclass
class EmailHeader:
    fields: list[HeaderField] = field(default_factory=list)
    malformed_line_count: int = 0

    def get(self, name: str) -> str | None:
        """Value of the first field with this (lowercase) name, or None."""
        for f in self.fields:
            if f.name == name:
                return f.raw_value
        return None

    def get_all(self, name: str) -> list[str]:
        return [f.raw_value for f in self.fields if f.name == name]

    def names(self) -> list[str]:
        return [f.name for f in self.fields]


@dataclass(frozen=True)
class ParsedAddress:
    local_part: str
    domain: str
    display_name: str | None = None


@dataclass(frozen=True)
class DateStamp:
    epoch_seconds: int
    utc_offset_minutes: int
    zone_token: str


@dataclass(frozen=True)
class ReceivedHop:
    from_host: str | None = None
    by_host: str | None = None
    with_protocol: str | None = None
    id_token: str | None = None
    for_addr: str | None = None
    ip_literals: tuple[str, ...] = ()
    date: DateStamp | None = None


def parse_headers(raw: bytes | str) -> EmailHeader:
    """Parse the header block of a raw message; nothing after it is read.

    Bytes decode 1:1 as latin-1, so nothing is ever rejected.  Lines end
    in CRLF, bare LF or bare CR (not str.splitlines, which also breaks on
    form feeds and other control characters that values keep verbatim).
    Continuation lines (leading space/tab) are unfolded into the previous
    field with the fold replaced by a single space.  Lines with no colon,
    an empty field name, or a continuation with nothing to continue are
    counted as malformed and skipped.  Encoded words are left verbatim.
    """
    is_bytes = isinstance(raw, bytes)
    end = len(raw)
    # A blank line is two line ends in a row: LF CR, LF LF or CR CR.  Cut
    # at the first of the first two; the loop stops at one of bare CRs.
    for blank in ((b"\n\r", b"\n\n") if is_bytes else ("\n\r", "\n\n")):
        at = raw.find(blank, 0, end)
        if at >= 0:
            end = at
    text = raw[:end].decode("latin-1") if is_bytes else raw[:end]
    names: list[str] = []
    values: list[str] = []
    malformed = 0
    value = None  # the value of the field being read; None outside one
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if not line:
            break  # header/body boundary
        if line[0] in " \t":
            if value is None:
                malformed += 1
            else:
                value += " " + line.lstrip(" \t")
            continue
        if value is not None:
            values.append(value)
        name, colon, value = line.partition(":")
        name = name.strip(" \t")
        if name and colon:
            names.append(name.lower())
        else:
            malformed += 1
            value = None
    if value is not None:
        values.append(value)
    fields = zip(names, map(str.strip, values, repeat(" \t")), count())
    # tuple.__new__ builds each HeaderField without the NamedTuple wrapper
    return EmailHeader(list(map(tuple.__new__, repeat(HeaderField), fields)),
                       malformed)


def serialize_headers(header: EmailHeader) -> bytes:
    """Render fields back to wire format.  parse_headers of the result
    reproduces the same fields with zero malformed lines."""
    lines = [f"{f.name}: {f.raw_value}\r\n" for f in header.fields]
    return ("".join(lines) + "\r\n").encode("latin-1")


# The comment stripper's three states, each a search for the next
# character that can change state: outside quotes and comments only '"'
# and '(' matter (a backslash there is plain text), inside a quoted
# string '"' and '\\', inside a comment '(', ')' and '\\'.
_TOP_STOPS = re.compile(r'["(]')
_QUOTED_STOPS = re.compile(r'["\\]')
_COMMENT_STOPS = re.compile(r'[()\\]')
_INNERMOST_COMMENT = re.compile(r"\([^()]*\)")
# what the top-level splitter's state turns on, separators from ",;:"
_SPLIT_STOPS = re.compile(r'["\\<>,;:]')
_NOT_IN_DOMAIN = re.compile(r"[ \t@<>,]")


def _strip_comments(text: str) -> str:
    """Drop parenthesized comments outside quoted strings (nesting honored).

    A backslash escapes the next character inside quotes and comments.
    Unclosed quotes and comments run to the end of the text.
    """
    if "(" not in text:
        return text
    if '"' not in text and "\\" not in text:
        # parens only: drop innermost comments while any is left; a '('
        # that then remains starts an unclosed comment
        while "(" in text:
            text, dropped = _INNERMOST_COMMENT.subn("", text)
            if not dropped:
                return text.partition("(")[0]
        return text
    out = []
    n = len(text)
    pos = 0  # start of the text not yet copied or dropped
    while pos < n:
        m = _TOP_STOPS.search(text, pos)
        if m is None:
            out.append(text[pos:])
            break
        i = m.start()
        quoted = text[i] == '"'
        if not quoted:
            out.append(text[pos:i])
        # run to the closing quote or the matching close paren
        stops = _QUOTED_STOPS if quoted else _COMMENT_STOPS
        depth, j = 1, i + 1
        while depth:
            m = stops.search(text, j)
            if m is None:
                j = n
                break
            j = m.end()
            c = text[j - 1]
            if c == "\\":
                j += 1  # the escaped character
            else:
                depth += 1 if c == "(" else -1
        if quoted:
            out.append(text[pos:j])
        pos = j
    return "".join(out)


def _split_top_level(text: str, seps: str) -> list[str]:
    """Split on separator chars that sit outside quotes and angle brackets."""
    for sep in seps:
        if sep in text:
            break
    else:
        return [text]
    parts = []
    start = skip = angle = 0
    in_quote = False
    for m in _SPLIT_STOPS.finditer(text):
        i = m.start()
        if i < skip:
            continue  # escaped by a backslash inside quotes
        c = text[i]
        if in_quote:
            if c == "\\":
                skip = i + 2
            elif c == '"':
                in_quote = False
        elif c == '"':
            in_quote = True
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif angle == 0 and c in seps:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _unquote_display(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        inner = text[1:-1]
        return re.sub(r"\\(.)", r"\1", inner)
    return text


def _parse_addr_spec(text: str) -> tuple[str, str] | None:
    text = text.strip()
    at = text.rfind("@")
    if at <= 0:
        return None
    local = text[:at].strip()
    domain = text[at + 1 :].strip().lower()
    if not local or not domain or _NOT_IN_DOMAIN.search(domain):
        return None
    return local, domain


def _addresses(raw_value: str) -> list[tuple[str, str, str | None]]:
    """(local part, domain, the text before the angle-addr or None for a
    bare addr-spec) of each address parse_address_list keeps."""
    addresses = []
    for item in _split_top_level(_strip_comments(raw_value), ",;"):
        # Group syntax: drop the "name:" label and keep the members, so
        # "undisclosed-recipients:;" flattens to nothing.  Colons inside
        # quotes and angle brackets are protected by the splitter.
        item = _split_top_level(item, ":")[-1].strip()
        if not item:
            continue
        lt = item.rfind("<")
        before = None if lt < 0 else item[:lt]
        if lt >= 0:
            gt = item.find(">", lt)
            item = item[lt + 1 :] if gt < 0 else item[lt + 1 : gt]
            # Drop an obsolete source route ("@a,@b:user@c") if present;
            # routes always start with '@'.
            if item.lstrip().startswith("@") and ":" in item:
                item = item[item.rfind(":") + 1 :]
        spec = _parse_addr_spec(item)
        if spec is not None:
            addresses.append((*spec, before))
    return addresses


def parse_address_list(raw_value: str) -> list[ParsedAddress]:
    """Parse a To/Cc/From style address list.

    Handles quoted display names, angle-addr, bare addr-spec, and group
    syntax (group members are flattened; an empty group yields nothing).
    Unparseable items are dropped rather than raised.
    """
    return [ParsedAddress(local, domain,
                          None if before is None else _unquote_display(before) or None)
            for local, domain, before in _addresses(raw_value)]


# RFC 5322 obsolete named zones and their fixed offsets (minutes).
_NAMED_ZONES = {
    "UT": 0,
    "GMT": 0,
    "EST": -5 * 60,
    "EDT": -4 * 60,
    "CST": -6 * 60,
    "CDT": -5 * 60,
    "MST": -7 * 60,
    "MDT": -6 * 60,
    "PST": -8 * 60,
    "PDT": -7 * 60,
}

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

_DATE_RE = re.compile(
    r"^(?:[A-Za-z]{2,10}\s*,\s*)?"
    r"(\d{1,2})\s+([A-Za-z]{3,10})\.?\s+(\d{2,4})\s+"
    r"(\d{1,2}):(\d{1,2})(?::(\d{1,2}))?\s+"
    r"([+-]\d{4}|[A-Za-z]{1,5})$"
)


def _date_match(raw_value: str) -> re.Match | None:
    """The _DATE_RE match of a value that parse_date reads as a date."""
    m = _DATE_RE.match(" ".join(_strip_comments(raw_value).split()))
    if (m is None or m[2][:3].lower() not in _MONTHS
            or len(m[3]) == 4 and not int(m[3])  # year 0: no calendar has it
            or not (1 <= int(m[1]) <= 31 and int(m[4]) <= 23
                    and int(m[5]) <= 59 and int(m[6] or 0) <= 60)):
        return None
    return m


def parse_date(raw_value: str) -> DateStamp | None:
    """Parse an RFC 5322 date-time, including obsolete forms.

    Named zones from the obsolete-zone table map to their fixed offsets;
    any other alphabetic zone parses with offset 0 and the token kept
    verbatim.  Returns None when the value is not a date.
    """
    m = _date_match(raw_value)
    if m is None:
        return None
    day, month, year, hour, minute, second, zone = m.groups()
    digits = len(year)
    year = int(year)
    if digits == 2:
        year += 2000 if year < 50 else 1900
    elif digits == 3:
        year += 1900
    if zone[0] in "+-":
        offset = int(zone[1:3]) * 60 + int(zone[3:5])
        if zone[0] == "-":
            offset = -offset
    else:
        offset = _NAMED_ZONES.get(zone.upper(), 0)
    epoch = calendar.timegm((year, _MONTHS[month[:3].lower()], int(day),
                             int(hour), int(minute), int(second or 0), 0, 0, 0))
    return DateStamp(epoch - offset * 60, offset, zone)


# each keyword's every spelling in upper and lower case: all that lowers to it
_RECEIVED_KEYWORDS = {"".join(spelling): keyword
                      for keyword in ("from", "by", "via", "with", "id", "for")
                      for spelling in product(*({c, c.upper()} for c in keyword))}
_IP_LITERAL = re.compile(r"\[(?:[Ii][Pp][vV]6:)?([0-9A-Fa-f:.]+)\]")


def _looks_like_ip(token: str) -> bool:
    if ":" in token:
        return True
    return bool(re.fullmatch(r"(?:\d{1,3}\.){3}\d{1,3}", token))


def _received_clauses(raw_value: str) -> dict[str, str]:
    """The first token after each clause keyword, read from the text
    before the final ';' with comments skipped."""
    semi = raw_value.rfind(";")
    body = raw_value[:semi] if semi >= 0 else raw_value
    clauses: dict[str, str] = {}
    current: str | None = None
    for token in _strip_comments(body).split():
        keyword = _RECEIVED_KEYWORDS.get(token)
        if keyword is not None:
            current = keyword
        elif current is not None:
            clauses.setdefault(current, token)
            current = None
    return clauses


def parse_received(raw_value: str) -> ReceivedHop:
    """Best-effort parse of one Received field.

    The clause keywords from/by/via/with/id/for anchor the scan; a clause
    holds the first token after its keyword.  Comments are skipped, except
    that bracketed IP literals anywhere in the value are harvested.  The
    text after the final ';' is the date clause.
    """
    ips = tuple(
        m.group(1) for m in _IP_LITERAL.finditer(raw_value)
        if _looks_like_ip(m.group(1))
    )
    semi = raw_value.rfind(";")
    date = parse_date(raw_value[semi + 1 :]) if semi >= 0 else None
    clauses = _received_clauses(raw_value)
    for_value = clauses.get("for")
    if for_value is not None:
        for_value = for_value.strip("<>") or None
    return ReceivedHop(
        from_host=clauses.get("from"),
        by_host=clauses.get("by"),
        with_protocol=clauses.get("with"),
        id_token=clauses.get("id"),
        for_addr=for_value,
        ip_literals=ips,
        date=date,
    )


_MSGID_BRACKETS = re.compile(r"<([^<>]*)>")


def extract_domain(header: EmailHeader, field_name: str) -> str | None:
    """Domain carried by a named field, lowercased.

    For message-id the domain is the part after the last '@' inside the
    angle brackets; for address fields it is the first address's domain.
    Returns None when the field is absent or carries no domain.
    """
    return _domain(header.get(field_name), field_name)


def _domain(value: str | None, field_name: str) -> str | None:
    """extract_domain of a field's first value, given that value."""
    if value is None:
        return None
    if field_name == "message-id":
        m = _MSGID_BRACKETS.search(value)
        inner = m.group(1) if m else value.strip()
        at = inner.rfind("@")
        if at < 0:
            return None
        domain = inner[at + 1 :].strip().lower()
        return domain or None
    addresses = _addresses(value)
    return addresses[0][1] if addresses else None


@dataclass(frozen=True, slots=True)
class HeaderFacts:
    """What feature extraction reads from one header, before any schema.

    Domains are lowercased and None when their field is absent or
    carries none. ``date_zone`` is the first Date field's zone token,
    None when it does not parse. ``content_type`` is 1 for text/html,
    0 for any other type and 2 with no Content-Type field. The chain
    flags say whether each hop's host agrees with the next hop's other
    host (by then from, or from then by) wherever both are present.
    """

    hops: int
    to: int
    cc: int
    from_addresses: int
    fields: int
    distinct_fields: int
    date_zone: str | None
    content_type: int
    from_domain: str | None
    return_path_domain: str | None
    reply_to_domain: str | None
    msgid_domain: str | None
    received_from_domain: str | None
    chain_by_then_from: bool
    chain_from_then_by: bool


def _host_domain(host: str | None) -> str | None:
    if host is None:
        return None
    host = host.strip("[]").lower()  # a token: no whitespace to strip
    return host or None


def _shared(text: str | None) -> str | None:
    """One copy of a string that many headers repeat, such as a zone or
    a domain, so that facts kept for a whole corpus stay small."""
    return None if text is None else sys.intern(text)


def _agree(left: list, right: list) -> bool:
    """No pair differs; a pair with a missing host is skipped."""
    return all(a is None or b is None or a == b for a, b in zip(left, right))


# the fields whose values header_facts reads
_FACT_FIELDS = frozenset(("from", "to", "cc", "received", "date", "content-type",
                          "return-path", "reply-to"))


def header_facts(header: EmailHeader) -> HeaderFacts:
    """The schema-free facts of one header (see HeaderFacts)."""
    values: dict[str, list[str]] = {}  # name -> its values, in field order
    for f in header.fields:  # f[0], not unpacking: faster on a NamedTuple
        if f[0] in _FACT_FIELDS:
            values.setdefault(f[0], []).append(f[1])
    first = {name: found[0] for name, found in values.items()}
    from_lists = [_addresses(v) for v in values.get("from", ())]
    # as extract_domain reads it: the first From field's first address
    first_from = from_lists[0] if from_lists else []
    # only the from and by hosts: no hop's date or IP literals
    hops = [_received_clauses(v) for v in values.get("received", ())]
    froms = [_host_domain(hop.get("from")) for hop in hops]
    bys = [_host_domain(hop.get("by")) for hop in hops]
    date = _date_match(first["date"]) if "date" in first else None
    ct = first.get("content-type")
    return HeaderFacts(
        hops=len(hops),
        to=sum(len(_addresses(v)) for v in values.get("to", ())),
        cc=sum(len(_addresses(v)) for v in values.get("cc", ())),
        from_addresses=sum(len(addresses) for addresses in from_lists),
        fields=len(header.fields),
        distinct_fields=len({f[0] for f in header.fields}),
        date_zone=_shared(date[7] if date is not None else None),
        content_type=(2 if ct is None
                      else int(ct.strip().lower().startswith("text/html"))),
        from_domain=_shared(first_from[0][1] if first_from else None),
        return_path_domain=_shared(_domain(first.get("return-path"), "return-path")),
        reply_to_domain=_shared(_domain(first.get("reply-to"), "reply-to")),
        msgid_domain=_shared(extract_domain(header, "message-id")),  # perfbench traces it
        received_from_domain=_shared(froms[0] if froms else None),
        chain_by_then_from=_agree(bys, froms[1:]),
        chain_from_then_by=_agree(froms, bys[1:]),
    )

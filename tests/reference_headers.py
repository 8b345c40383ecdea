"""headers.py's comment, address, date, Received and facts functions as they
were before parsing read only the header block and the facts computed
only what extraction reads, copied verbatim. The equivalence tests in
test_headers.py compare today's functions with these."""

from __future__ import annotations

import calendar
import re
import sys

from headerscan.headers import (DateStamp, EmailHeader, HeaderFacts,
                                ParsedAddress, ReceivedHop)


# The comment stripper's three states, each a search for the next
# character that can change state: outside quotes and comments only '"'
# and '(' matter (a backslash there is plain text), inside a quoted
# string '"' and '\\', inside a comment '(', ')' and '\\'.
_TOP_STOPS = re.compile(r'["(]')
_QUOTED_STOPS = re.compile(r'["\\]')
_COMMENT_STOPS = re.compile(r'[()\\]')


def _strip_comments(text: str) -> str:
    """Drop parenthesized comments outside quoted strings (nesting honored).

    A backslash escapes the next character inside quotes and comments.
    Unclosed quotes and comments run to the end of the text.
    """
    if "(" not in text:
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
    if not any(sep in text for sep in seps):
        return [text]
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
    if not local or not domain:
        return None
    if any(c in domain for c in " \t@<>,"):
        return None
    return local, domain


def parse_address_list(raw_value: str) -> list[ParsedAddress]:
    """Parse a To/Cc/From style address list.

    Handles quoted display names, angle-addr, bare addr-spec, and group
    syntax (group members are flattened; an empty group yields nothing).
    Unparseable items are dropped rather than raised.
    """
    text = _strip_comments(raw_value)

    addresses: list[ParsedAddress] = []
    for item in _split_top_level(text, ",;"):
        # Group syntax: drop the "name:" label and keep the members, so
        # "undisclosed-recipients:;" flattens to nothing.  Colons inside
        # quotes and angle brackets are protected by the splitter.
        item = _split_top_level(item, ":")[-1].strip()
        if not item:
            continue
        lt = item.rfind("<")
        if lt >= 0:
            gt = item.find(">", lt)
            inner = item[lt + 1 :] if gt < 0 else item[lt + 1 : gt]
            # Drop an obsolete source route ("@a,@b:user@c") if present;
            # routes always start with '@'.
            if inner.lstrip().startswith("@") and ":" in inner:
                inner = inner[inner.rfind(":") + 1 :]
            spec = _parse_addr_spec(inner)
            if spec is None:
                continue
            display = _unquote_display(item[:lt]) or None
            addresses.append(ParsedAddress(spec[0], spec[1], display))
        else:
            spec = _parse_addr_spec(item)
            if spec is None:
                continue
            addresses.append(ParsedAddress(spec[0], spec[1], None))
    return addresses


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
_WHITESPACE = re.compile(r"\s+")


def parse_date(raw_value: str) -> DateStamp | None:
    """Parse an RFC 5322 date-time, including obsolete forms.

    Named zones from the obsolete-zone table map to their fixed offsets;
    any other alphabetic zone parses with offset 0 and the token kept
    verbatim.  Returns None when the value is not a date.
    """
    text = _strip_comments(raw_value).strip()
    text = _WHITESPACE.sub(" ", text)
    m = _DATE_RE.match(text)
    if m is None:
        return None
    day = int(m.group(1))
    month = _MONTHS.get(m.group(2)[:3].lower())
    if month is None:
        return None
    year = int(m.group(3))
    if len(m.group(3)) == 2:
        year += 2000 if year < 50 else 1900
    elif len(m.group(3)) == 3:
        year += 1900
    hour, minute = int(m.group(4)), int(m.group(5))
    second = int(m.group(6)) if m.group(6) else 0
    zone = m.group(7)
    if not (1 <= day <= 31 and hour <= 23 and minute <= 59 and second <= 60):
        return None
    if zone[0] in "+-":
        offset = int(zone[1:3]) * 60 + int(zone[3:5])
        if zone[0] == "-":
            offset = -offset
    else:
        offset = _NAMED_ZONES.get(zone.upper(), 0)
    epoch = calendar.timegm((year, month, day, hour, minute, second, 0, 0, 0))
    return DateStamp(epoch - offset * 60, offset, zone)


_RECEIVED_KEYWORDS = {"from", "by", "via", "with", "id", "for"}
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
        low = token.lower()
        if low in _RECEIVED_KEYWORDS:
            current = low
            continue
        if current is not None and current not in clauses:
            clauses[current] = token
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
    addresses = parse_address_list(value)
    if not addresses:
        return None
    return addresses[0].domain or None


def _host_domain(host: str | None) -> str | None:
    if host is None:
        return None
    host = host.strip().strip("[]").lower()
    return host or None


def _shared(text: str | None) -> str | None:
    """One copy of a string that many headers repeat, such as a zone or
    a domain, so that facts kept for a whole corpus stay small."""
    return None if text is None else sys.intern(text)


def _agree(left: list, right: list) -> bool:
    """No pair differs; a pair with a missing host is skipped."""
    return all(a is None or b is None or a == b for a, b in zip(left, right))


def header_facts(header: EmailHeader) -> HeaderFacts:
    """The schema-free facts of one header (see HeaderFacts)."""
    values: dict[str, list[str]] = {}  # name -> its values, in field order
    for f in header.fields:
        values.setdefault(f.name, []).append(f.raw_value)

    def first(name: str) -> str | None:
        return values[name][0] if name in values else None

    from_lists = [parse_address_list(v) for v in values.get("from", ())]
    # as extract_domain reads it: the first From field's first address
    first_from = from_lists[0] if from_lists else []
    # only the from and by hosts: no hop's date or IP literals
    hops = [_received_clauses(v) for v in values.get("received", ())]
    froms = [_host_domain(hop.get("from")) for hop in hops]
    bys = [_host_domain(hop.get("by")) for hop in hops]
    date_value = first("date")
    stamp = parse_date(date_value) if date_value is not None else None
    ct = first("content-type")
    return HeaderFacts(
        hops=len(hops),
        to=sum(len(parse_address_list(v)) for v in values.get("to", ())),
        cc=sum(len(parse_address_list(v)) for v in values.get("cc", ())),
        from_addresses=sum(len(addresses) for addresses in from_lists),
        fields=len(header.fields),
        distinct_fields=len(values),
        date_zone=_shared(stamp.zone_token if stamp is not None else None),
        content_type=(2 if ct is None
                      else int(ct.strip().lower().startswith("text/html"))),
        from_domain=_shared((first_from[0].domain or None) if first_from
                            else None),
        return_path_domain=_shared(_domain(first("return-path"), "return-path")),
        reply_to_domain=_shared(_domain(first("reply-to"), "reply-to")),
        msgid_domain=_shared(_domain(first("message-id"), "message-id")),
        received_from_domain=_shared(froms[0] if froms else None),
        chain_by_then_from=_agree(bys, froms[1:]),
        chain_from_then_by=_agree(froms, bys[1:]),
    )

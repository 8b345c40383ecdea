"""Synthetic email corpus with planted header anomalies.

Builds raw RFC 5322 header blocks from scratch so the whole toolchain
(parsing, schema fitting, training, evaluation) can be exercised without
shipping real mail. Anomalous messages differ from ham in exactly three
ways: they drop Message-ID with probability 0.8, their Return-Path domain
disagrees with From with probability 0.7, and they travel 3-6 relay hops
where ham travels 1-4 (a +2 shift). Ham gets the same defects at a 1-2%
corruption rate so no single feature is a perfect separator.

Everything else is drawn from one distribution shared by both classes.
That gives feature importance an unambiguous ground truth: the names in
PLANTED_FEATURES carry all the signal, the names in NOISE_FEATURES carry
none, and the rest (field counts, Message-ID proxies) are correlated
bystanders that inherit signal from a planted cause.

Received lines are emitted oldest-first, so under the default
by-then-from chain direction every chain checks out consistent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .corpus import CorpusRecord, Label
from .headers import parse_headers

__all__ = [
    "SynthEmail",
    "PLANTED_FEATURES",
    "NOISE_FEATURES",
    "OPTIONAL_FIELDS",
    "generate_emails",
    "to_records",
    "write_trec",
    "write_labeled_dirs",
]

_DOMAINS = ("alpha.example", "beta.example", "gamma.example",
            "delta.example", "omega.example")
_RELAYS = ("mx1.hub.example", "mx2.hub.example", "edge.hub.example",
           "smtp.hub.example", "gw.hub.example", "relay.hub.example")

_ZONES = (("-0500", 0.85), ("+0000", 0.07), ("+0200", 0.05), ("-0800", 0.03))
_CONTENT_TYPES = (
    ("text/plain; charset=us-ascii", 0.80),
    ("text/html; charset=utf-8", 0.14),
    ('multipart/mixed; boundary="=_b{hex}"', 0.06),
)

_MAILERS = ("Outlook Express 6.00.2900.5512", "Thunderbird 78.8.1",
            "Apple Mail (2.3654)", "Zimbra 8.8.15 (ZimbraWebClient)")
_ORGS = ("Example Corp", "Northwind Trading", "Fabrikam Ltd",
         "Contoso Partners", "Wide World Importers")
_SUBJECTS = ("Weekly status update", "Invoice attached", "Meeting notes",
             "Your account summary", "Delivery confirmation",
             "Quarterly newsletter", "Schedule change", "Re: your request")

# Optional fields appear with the same probability in both classes, so
# every missing:<name> indicator below is pure noise by construction.
# Presence rates stay inside [0.15, 0.85]: after standardization a
# binary column contributes 1/(p(1-p)) squared units when two emails
# disagree on it, and capping that below the weakest planted gap keeps
# any single noise coordinate from outvoting a real signal.
OPTIONAL_FIELDS = (
    ("x-priority", 0.85),
    ("organization", 0.82),
    ("precedence", 0.16),
    ("x-originating-ip", 0.85),
    ("x-message-flag", 0.15),
    ("x-antivirus", 0.84),
    ("lines", 0.85),
    ("x-thread-index", 0.16),
    ("x-campaign-tag", 0.15),
    ("x-template-id", 0.14),
    ("x-list-profile", 0.16),
    ("x-feedback-hint", 0.15),
    ("x-ack-request", 0.18),
)

PLANTED_FEATURES = (
    "missing:message-id",
    "domain_match:from:return-path",
    "hop_count",
)

NOISE_FEATURES = (
    "timezone_mismatch",
    "content_type_html",
    "to_count",
    "cc_count",
    "recipient_count",
    "domain_match:from:received-from",
) + tuple(f"missing:{name}" for name, _p in OPTIONAL_FIELDS)


@dataclass(frozen=True)
class SynthEmail:
    id: str
    label: Label
    raw: bytes


_HEX_DIGITS = "0123456789abcdef"


def _pick(rng: np.random.Generator, weighted) -> str:
    r = rng.random()
    acc = 0.0
    for item, w in weighted:
        acc += w
        if r < acc:
            return item
    return weighted[-1][0]


def _hex(rng: np.random.Generator, n: int = 8) -> str:
    return "".join([_HEX_DIGITS[v] for v in rng.integers(0, 16, size=n).tolist()])


def _date_text(rng: np.random.Generator, zone: str) -> str:
    base = datetime(2021, 1, 1) + timedelta(
        days=int(rng.integers(0, 365)), seconds=int(rng.integers(0, 86400)))
    return base.strftime("%a, %d %b %Y %H:%M:%S") + " " + zone


def _one_email(i: int, anomalous: bool, rng: np.random.Generator,
               anomaly_label: Label) -> SynthEmail:
    from_domain = _DOMAINS[int(rng.integers(0, len(_DOMAINS)))]
    from_addr = f"user{int(rng.integers(100, 1000))}@{from_domain}"

    missing_msgid = rng.random() < (0.80 if anomalous else 0.01)
    rp_mismatch = rng.random() < (0.70 if anomalous else 0.015)
    # one hop-count shape for both classes, anomalous shifted by +2
    hops = int(_pick(rng, ((2, 0.10), (3, 0.45), (4, 0.45))))
    if anomalous:
        hops += 2

    if rp_mismatch:
        others = [d for d in _DOMAINS if d != from_domain]
        rp_domain = others[int(rng.integers(0, len(others)))]
    else:
        rp_domain = from_domain
    bounce = f"bounce-{_hex(rng, 6)}@{rp_domain}"

    zone = _pick(rng, _ZONES)
    # origin host usually matches the From domain, in both classes
    # alike, keeping domain_match:from:received-from class-independent
    origin = from_domain if rng.random() < 0.82 else \
        _RELAYS[int(rng.integers(0, len(_RELAYS)))]
    relays = [_RELAYS[int(rng.integers(0, len(_RELAYS)))] for _ in range(hops)]

    r = rng.random()
    n_to = 1 if r < 0.82 else (2 if r < 0.95 else 3)
    n_cc = 1 if rng.random() < 0.85 else 2
    rcpt_domain = _DOMAINS[int(rng.integers(0, len(_DOMAINS)))]
    to_addrs = [f"rcpt{int(rng.integers(10, 100))}.{j}@{rcpt_domain}"
                for j in range(n_to)]
    cc_addrs = [f"copy{int(rng.integers(10, 100))}.{j}@{rcpt_domain}"
                for j in range(n_cc)]

    ct = _pick(rng, _CONTENT_TYPES).replace("{hex}", _hex(rng, 10))

    lines: list[str] = []
    lines.append(f"Return-Path: <{bounce}>")
    lines.append(f"Delivered-To: {to_addrs[0]}")
    chain = [origin] + relays
    for j in range(hops):
        stamp = _date_text(rng, zone)
        lines.append(
            f"Received: from {chain[j]} ({chain[j]} "
            f"[192.0.2.{int(rng.integers(1, 255))}])\r\n"
            f"\tby {chain[j + 1]} with ESMTP id {_hex(rng, 10)};\r\n"
            f"\t{stamp}"
        )
    lines.append(f"Date: {_date_text(rng, zone)}")
    lines.append(f"From: Sender {int(rng.integers(1, 99))} <{from_addr}>")
    lines.append(f"Sender: {from_addr}")
    lines.append(f"Reply-To: {from_addr}")
    lines.append("To: " + ", ".join(to_addrs))
    lines.append("Cc: " + ", ".join(cc_addrs))
    if not missing_msgid:
        # one shared submission-MTA domain, never a member of _DOMAINS:
        # no domain comparison can fuse two planted signals, and every
        # Message-ID comparison collapses to a presence indicator
        lines.append(f"Message-ID: <{_hex(rng, 12)}.{_hex(rng, 6)}@mail.hub.example>")
    lines.append(f"Subject: {_SUBJECTS[int(rng.integers(0, len(_SUBJECTS)))]}")
    lines.append("MIME-Version: 1.0")
    lines.append(f"Content-Type: {ct}")
    lines.append("Content-Transfer-Encoding: " +
                 ("quoted-printable" if rng.random() < 0.3 else "7bit"))
    lines.append(f"X-Mailer: {_MAILERS[int(rng.integers(0, len(_MAILERS)))]}")
    lines.append(f"User-Agent: {_MAILERS[int(rng.integers(0, len(_MAILERS)))]}")
    lines.append("X-MSMail-Priority: " + ("High" if rng.random() < 0.2 else "Normal"))
    lines.append("X-MimeOLE: Produced By Microsoft MimeOLE V6.00.2900.5512")
    lines.append("Importance: " + ("high" if rng.random() < 0.2 else "normal"))
    lines.append("Content-Language: " + ("en-GB" if rng.random() < 0.3 else "en-US"))
    lines.append("Accept-Language: en-US, en-GB")
    lines.append(f"Errors-To: <{bounce}>")
    lines.append(f"X-Envelope-From: <{bounce}>")
    lines.append(f"X-Envelope-To: {to_addrs[0]}")
    lines.append("X-Delivery-Agent: " +
                 ("dovecot-lda" if rng.random() < 0.6 else "procmail"))
    lines.append(f"X-Queue-ID: {_hex(rng, 12)}")
    lines.append(f"X-Relay-Version: esmtp-gw {int(rng.integers(1, 4))}."
                 f"{int(rng.integers(0, 10))}")
    lines.append(f"X-Client-Host: {relays[0]}")
    lines.append(f"X-UIDL: {_hex(rng, 16)}")
    lines.append(f"X-Scan-Result: clean score=0.{int(rng.integers(0, 10))}")
    lines.append("X-Mail-Format: " + ("flowed" if rng.random() < 0.5 else "fixed"))
    lines.append(f"X-Account-Key: account{int(rng.integers(1, 30))}")
    lines.append(f"X-Store-Tag: {_hex(rng, 8)}")
    lines.append("X-Route-Class: " +
                 _pick(rng, (("standard", 0.7), ("expedited", 0.2), ("deferred", 0.1))))
    lines.append("X-Policy-Band: " + _pick(rng, (("a", 0.5), ("b", 0.3), ("c", 0.2))))
    lines.append(f"X-Original-Arrival: {_date_text(rng, zone)}")
    lines.append(f"X-Spam-Checker-Version: SpamAssassin 3.4."
                 f"{int(rng.integers(0, 7))} on {relays[-1]}")

    optional_values = {
        "x-priority": lambda: "1 (High)" if rng.random() < 0.2 else "3 (Normal)",
        "organization": lambda: _ORGS[int(rng.integers(0, len(_ORGS)))],
        "precedence": lambda: _pick(rng, (("bulk", 0.5), ("list", 0.3),
                                          ("first-class", 0.2))),
        "x-originating-ip": lambda: f"[198.51.100.{int(rng.integers(1, 255))}]",
        "x-message-flag": lambda: "Follow up" if rng.random() < 0.5 else "Review",
        "x-antivirus": lambda: f"scanned by avd 9.{int(rng.integers(0, 10))}",
        "lines": lambda: str(int(rng.integers(4, 400))),
        "x-thread-index": lambda: _hex(rng, 22),
        "x-campaign-tag": lambda: f"cmp-{_hex(rng, 6)}",
        "x-template-id": lambda: f"tpl-{int(rng.integers(100, 999))}",
        "x-list-profile": lambda: f"lp-{int(rng.integers(10, 99))}",
        "x-feedback-hint": lambda: f"fb-{_hex(rng, 4)}",
        "x-ack-request": lambda: "yes" if rng.random() < 0.5 else "no",
    }
    display = {
        "x-priority": "X-Priority", "organization": "Organization",
        "precedence": "Precedence", "x-originating-ip": "X-Originating-IP",
        "x-message-flag": "X-Message-Flag", "x-antivirus": "X-Antivirus",
        "lines": "Lines", "x-thread-index": "X-Thread-Index",
        "x-campaign-tag": "X-Campaign-Tag", "x-template-id": "X-Template-ID",
        "x-list-profile": "X-List-Profile", "x-feedback-hint": "X-Feedback-Hint",
        "x-ack-request": "X-Ack-Request",
    }
    # draw presence for every optional field even when absent, so both
    # classes consume the rng identically and stay distribution-matched
    for name, prob in OPTIONAL_FIELDS:
        present = rng.random() < prob
        value = optional_values[name]()
        if present:
            lines.append(f"{display[name]}: {value}")

    body = "This is an automatically generated test message.\r\n"
    raw = "\r\n".join(lines) + "\r\n\r\n" + body
    label = anomaly_label if anomalous else Label.HAM
    return SynthEmail(f"m{i:05d}", label, raw.encode("ascii"))


def generate_emails(n: int, anomaly_fraction: float = 0.5, seed: int = 0,
                    anomaly_label: Label = Label.SPAM) -> list[SynthEmail]:
    """n raw emails, a deterministic function of (n, fraction, seed)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= anomaly_fraction <= 1.0:
        raise ValueError("anomaly_fraction must be within [0, 1]")
    if anomaly_label is Label.HAM:
        raise ValueError("anomaly_label must be an anomalous label")
    rng = np.random.default_rng(seed)
    n_anom = int(round(n * anomaly_fraction))
    flags = np.zeros(n, dtype=bool)
    flags[:n_anom] = True
    rng.shuffle(flags)
    return [_one_email(i, bool(flags[i]), rng, anomaly_label) for i in range(n)]


def to_records(emails: list[SynthEmail], make=CorpusRecord) -> list:
    """Parse generated emails into corpus records, keeping ids, labels
    and order; each email becomes make(id, header, label)."""
    return [make(e.id, parse_headers(e.raw), e.label) for e in emails]


def write_trec(emails: list[SynthEmail], dest: str) -> tuple[str, str]:
    """Write a TREC-style corpus: dest/index plus dest/data/<id>.eml.

    Returns (index_path, root). The index format only knows ham and
    spam, so phishing-labeled corpora must use write_labeled_dirs.
    """
    data_dir = os.path.join(dest, "data")
    os.makedirs(data_dir, exist_ok=True)
    index_path = os.path.join(dest, "index")
    with open(index_path, "w", encoding="ascii") as fh:
        for e in emails:
            if e.label not in (Label.HAM, Label.SPAM):
                raise ValueError(
                    "TREC index format labels messages ham or spam only")
            rel = f"data/{e.id}.eml"
            with open(os.path.join(dest, rel), "wb") as mail:
                mail.write(e.raw)
            fh.write(f"{e.label.value} {rel}\n")
    return index_path, dest


def write_labeled_dirs(emails: list[SynthEmail], dest: str) -> tuple[str, str]:
    """Write ham/ and anomalous/ directories of one-message files."""
    ham_dir = os.path.join(dest, "ham")
    anom_dir = os.path.join(dest, "anomalous")
    os.makedirs(ham_dir, exist_ok=True)
    os.makedirs(anom_dir, exist_ok=True)
    for e in emails:
        where = ham_dir if e.label is Label.HAM else anom_dir
        with open(os.path.join(where, f"{e.id}.eml"), "wb") as fh:
            fh.write(e.raw)
    return ham_dir, anom_dir

"""Feature schema fitting, extraction, and standardization.

A schema is fitted on a training corpus and is the single source of truth
for how raw headers become numeric vectors: which top-K fields get
missing-indicators, which corpus modes (timezone, Message-ID domain) are
compared against, and how ordinal values are encoded.  Extraction against
a persisted schema is bit-identical at train and classify time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusRecord, header_frequencies, top_k_fields
from .headers import (
    EmailHeader,
    extract_domain,
    parse_address_list,
    parse_date,
    parse_received,
)

log = logging.getLogger(__name__)

__all__ = [
    "FeatureDescriptor",
    "FeatureSchema",
    "ScalerParams",
    "fit_schema",
    "extract",
    "extract_matrix",
    "fit_scaler",
    "apply_scaler",
    "prune_single_valued",
    "subset_schema",
    "schema_to_dict",
    "schema_from_dict",
    "scaler_to_dict",
    "scaler_from_dict",
    "FULL",
    "DOMAIN_MATCH_ONLY",
    "CHAIN_BY_THEN_FROM",
    "CHAIN_FROM_THEN_BY",
]

FULL = "full"
DOMAIN_MATCH_ONLY = "domain_match_only"

# Paper direction: hop i's 'by' host against hop i+1's 'from' host.  The
# transpose matches RFC trace semantics and is offered as a config switch.
CHAIN_BY_THEN_FROM = "by-then-from"
CHAIN_FROM_THEN_BY = "from-then-by"

_COMPARISON_PAIRS = [
    ("from", "message-id"),
    ("from", "return-path"),
    ("from", "reply-to"),
    ("from", "received-from"),
    ("return-path", "message-id"),
]


@dataclass(frozen=True)
class FeatureDescriptor:
    """One output coordinate: identity (kind/param), category, encoding."""

    name: str
    category: str  # missing_field | counting | header_value | comparison
    encoding: str  # binary01 | ordinal | onehot
    missing_code: float
    kind: str
    param: str | None = None
    onehot_value: int | None = None
    group_id: str | None = None


@dataclass(frozen=True)
class FeatureSchema:
    descriptors: tuple[FeatureDescriptor, ...]
    mode_timezone: str
    mode_msgid_domain: str
    top_fields: tuple[str, ...]
    feature_set: str
    chain_direction: str
    fingerprint: str

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.descriptors]


@dataclass(frozen=True)
class ScalerParams:
    mean: np.ndarray
    stddev: np.ndarray


def _content(schema: FeatureSchema) -> dict:
    """Everything a schema says, as persisted, except its fingerprint."""
    return {
        "descriptors": [dataclasses.asdict(d) for d in schema.descriptors],
        "mode_timezone": schema.mode_timezone,
        "mode_msgid_domain": schema.mode_msgid_domain,
        "top_fields": list(schema.top_fields),
        "feature_set": schema.feature_set,
        "chain_direction": schema.chain_direction,
    }


def _fingerprinted(schema: FeatureSchema) -> FeatureSchema:
    payload = json.dumps(_content(schema), sort_keys=True,
                         separators=(",", ":")).encode()
    return dataclasses.replace(
        schema, fingerprint=hashlib.sha256(payload).hexdigest()[:16])


def _keep(schema: FeatureSchema, indices) -> FeatureSchema:
    """The schema restricted to the given descriptor positions."""
    kept = tuple(schema.descriptors[i] for i in indices)
    return _fingerprinted(dataclasses.replace(schema, descriptors=kept))


def _mode(counter: Counter[str]) -> str:
    if not counter:
        return ""
    return min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _catalog(top_fields, one_hot: bool, feature_set: str) -> list[FeatureDescriptor]:
    out: list[FeatureDescriptor] = []

    def ordinal3(name, category, kind, param=None):
        """A {0,1,2}-valued ordinal, expanded to three binaries if one-hot."""
        if one_hot:
            for v in (0, 1, 2):
                out.append(FeatureDescriptor(
                    f"{name}={v}", category, "onehot", 0.0, kind, param,
                    onehot_value=v, group_id=name,
                ))
        else:
            out.append(FeatureDescriptor(name, category, "ordinal", 2.0, kind, param))

    if feature_set == FULL:
        for f in top_fields:
            out.append(FeatureDescriptor(
                f"missing:{f}", "missing_field", "binary01", 1.0, "missing", f,
            ))
        for name, param in [
            ("hop_count", "hops"),
            ("to_count", "to"),
            ("cc_count", "cc"),
            ("recipient_count", "recipients"),
            ("field_count", "fields"),
            ("distinct_field_count", "distinct"),
        ]:
            out.append(FeatureDescriptor(name, "counting", "ordinal", 0.0, "count", param))
        out.append(FeatureDescriptor(
            "timezone_mismatch", "header_value", "binary01", 1.0, "tz_mode"))
        ordinal3("content_type_html", "header_value", "ct_html")
        ordinal3("msgid_domain_mismatch", "header_value", "msgid_mode")
        out.append(FeatureDescriptor(
            "date_parses", "header_value", "binary01", 0.0, "date_parses"))
    for a, b in _COMPARISON_PAIRS:
        ordinal3(f"domain_match:{a}:{b}", "comparison", "domain_match", f"{a}:{b}")
    out.append(FeatureDescriptor(
        "received_chain_consistent", "comparison", "binary01", 1.0, "chain"))
    return out


def fit_schema(
    records: list[CorpusRecord],
    k: int = 50,
    feature_set: str = FULL,
    one_hot: bool = False,
    chain_direction: str = CHAIN_BY_THEN_FROM,
) -> FeatureSchema:
    """Fit a schema: top-K fields plus corpus modes, then the catalog."""
    if not records:
        raise ValueError("cannot fit a schema on an empty corpus")
    if feature_set not in (FULL, DOMAIN_MATCH_ONLY):
        raise ValueError(f"unknown feature set {feature_set!r}")
    if chain_direction not in (CHAIN_BY_THEN_FROM, CHAIN_FROM_THEN_BY):
        raise ValueError(f"unknown chain direction {chain_direction!r}")

    top = top_k_fields(header_frequencies(records), k) if feature_set == FULL else []

    tz_counts: Counter[str] = Counter()
    msgid_counts: Counter[str] = Counter()
    for rec in records:
        value = rec.header.get("date")
        if value is not None:
            stamp = parse_date(value)
            if stamp is not None:
                tz_counts[stamp.zone_token] += 1
        domain = extract_domain(rec.header, "message-id")
        if domain is not None:
            msgid_counts[domain] += 1

    return _fingerprinted(FeatureSchema(
        tuple(_catalog(top, one_hot, feature_set)), _mode(tz_counts),
        _mode(msgid_counts), tuple(top), feature_set, chain_direction, ""))


def _host_domain(host: str | None) -> str | None:
    if host is None:
        return None
    host = host.strip().strip("[]").lower()
    return host or None


def _base_values(header: EmailHeader, schema: FeatureSchema) -> dict[str, float]:
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
               "received-from": _host_domain(hops[0].from_host) if hops else None}

    for a, b in _COMPARISON_PAIRS:
        da, db = domains[a], domains[b]
        if da is None or db is None:
            values[f"domain_match:{a}:{b}"] = 2.0
        else:
            values[f"domain_match:{a}:{b}"] = 1.0 if da == db else 0.0

    consistent = 1.0
    for first, second in zip(hops, hops[1:]):
        if schema.chain_direction == CHAIN_BY_THEN_FROM:
            left, right = _host_domain(first.by_host), _host_domain(second.from_host)
        else:
            left, right = _host_domain(first.from_host), _host_domain(second.by_host)
        if left is None or right is None:
            continue  # incomparable pairs are skipped, not mismatches
        if left != right:
            consistent = 0.0
            break
    values["chain"] = consistent
    return values


def _descriptor_key(d: FeatureDescriptor) -> str:
    return d.kind if d.param is None else f"{d.kind}:{d.param}"


def extract(record: CorpusRecord | EmailHeader, schema: FeatureSchema) -> np.ndarray:
    """Numeric vector for one email, aligned to schema.descriptors."""
    header = record.header if isinstance(record, CorpusRecord) else record
    base = _base_values(header, schema)
    out = np.empty(len(schema.descriptors), dtype=np.float64)
    for i, d in enumerate(schema.descriptors):
        value = base[_descriptor_key(d)]
        if d.encoding == "onehot":
            out[i] = 1.0 if value == d.onehot_value else 0.0
        else:
            out[i] = value
    return out


def extract_matrix(records: list[CorpusRecord], schema: FeatureSchema) -> np.ndarray:
    matrix = np.empty((len(records), len(schema.descriptors)), dtype=np.float64)
    for i, rec in enumerate(records):
        matrix[i] = extract(rec, schema)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite feature value produced")
    return matrix


def fit_scaler(matrix: np.ndarray) -> ScalerParams:
    """Per-column mean and population stddev; zero stddev becomes 1."""
    if matrix.size == 0:
        raise ValueError("cannot fit a scaler on an empty matrix")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return ScalerParams(mean=mean, stddev=std)


def apply_scaler(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    if values.shape[-1] != params.mean.shape[0]:
        raise ValueError(
            f"length mismatch: {values.shape[-1]} values vs {params.mean.shape[0]} params"
        )
    return (values - params.mean) / params.stddev


def prune_single_valued(
    schema: FeatureSchema, matrix: np.ndarray
) -> tuple[FeatureSchema, np.ndarray, list[str]]:
    """Drop features that are constant on the training matrix."""
    varies = (matrix != matrix[:1]).any(axis=0)
    keep = np.flatnonzero(varies).tolist()
    dropped = [d.name for d, v in zip(schema.descriptors, varies) if not v]
    if dropped:
        log.info("dropping %d single-valued feature(s): %s",
                 len(dropped), ", ".join(dropped))
    return _keep(schema, keep), matrix[:, keep], dropped


def subset_schema(
    schema: FeatureSchema, names: list[str]
) -> tuple[FeatureSchema, list[int]]:
    """Schema restricted to the named features, in schema order."""
    wanted = set(names)
    unknown = wanted - set(schema.names)
    if unknown:
        raise KeyError(f"unknown feature names: {sorted(unknown)}")
    indices = [i for i, d in enumerate(schema.descriptors) if d.name in wanted]
    return _keep(schema, indices), indices


def subset_scaler(params: ScalerParams, indices: list[int]) -> ScalerParams:
    return ScalerParams(mean=params.mean[indices], stddev=params.stddev[indices])


# ------------------------------------------------------------ persistence

def schema_to_dict(schema: FeatureSchema) -> dict:
    return {**_content(schema), "fingerprint": schema.fingerprint}


def schema_from_dict(doc: dict) -> FeatureSchema:
    schema = _fingerprinted(FeatureSchema(
        tuple(FeatureDescriptor(**d) for d in doc["descriptors"]),
        doc["mode_timezone"], doc["mode_msgid_domain"],
        tuple(doc["top_fields"]), doc["feature_set"], doc["chain_direction"], ""))
    if schema.fingerprint != doc["fingerprint"]:
        raise ValueError("schema fingerprint mismatch: document corrupted")
    return schema


def scaler_to_dict(params: ScalerParams) -> dict:
    return {"mean": params.mean.tolist(), "stddev": params.stddev.tolist()}


def scaler_from_dict(doc: dict) -> ScalerParams:
    return ScalerParams(
        mean=np.asarray(doc["mean"], dtype=np.float64),
        stddev=np.asarray(doc["stddev"], dtype=np.float64),
    )

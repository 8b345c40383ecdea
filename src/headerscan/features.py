"""Feature schema fitting, extraction, and standardization.

A schema is fitted on a training corpus and is the single source of truth
for how raw headers become numeric vectors: which top-K fields get
missing-indicators, which corpus modes (timezone, Message-ID domain) are
compared against, and how ordinal values are encoded.  Extraction against
a persisted schema is bit-identical at train and classify time.

Extraction has two steps.  ``headers.header_facts`` parses what any
schema could need from a header (address and field counts, the Date
zone, the content-type class, the five comparison domains, Received
chain agreement in both directions); a corpus record computes its facts
once and keeps them, so schema fits and every phase share them.  The
projection then turns facts into the schema's row: missing flags for
its top fields, matches against its modes, its chain direction, and
one-hot expansion, through an index plan each schema builds once.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusRecord, header_frequencies, top_k_fields
from .headers import EmailHeader, HeaderFacts, header_facts

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

    @functools.cached_property
    def _projection(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Each descriptor's position in _values; which descriptors are
        one-hot (None when none is) and their one-hot values."""
        position = {f"missing:{f}": i for i, f in enumerate(self.top_fields)}
        position.update((key, len(self.top_fields) + i)
                        for i, key in enumerate(_FACT_KEYS))
        index = np.array([position[_descriptor_key(d)] for d in self.descriptors],
                         dtype=np.intp)
        is_onehot = np.array([d.encoding == "onehot" for d in self.descriptors],
                             dtype=bool)
        onehot = np.array([d.onehot_value if d.encoding == "onehot" else 0
                           for d in self.descriptors], dtype=np.float64)
        return index, (is_onehot if is_onehot.any() else None), onehot


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

    facts = [rec.facts for rec in records]
    tz_counts = Counter(f.date_zone for f in facts if f.date_zone is not None)
    msgid_counts = Counter(f.msgid_domain for f in facts
                           if f.msgid_domain is not None)

    return _fingerprinted(FeatureSchema(
        tuple(_catalog(top, one_hot, feature_set)), _mode(tz_counts),
        _mode(msgid_counts), tuple(top), feature_set, chain_direction, ""))


# The catalog quantities after the missing flags, in _values order.
_FACT_KEYS = (
    "count:hops", "count:to", "count:cc", "count:recipients", "count:fields",
    "count:distinct", "tz_mode", "ct_html", "msgid_mode", "date_parses",
    *(f"domain_match:{a}:{b}" for a, b in _COMPARISON_PAIRS), "chain",
)


# the HeaderFacts attribute holding each comparison field's domain
_DOMAIN_OF = {"from": "from_domain", "return-path": "return_path_domain",
              "reply-to": "reply_to_domain", "message-id": "msgid_domain",
              "received-from": "received_from_domain"}


def _match(a: str | None, b: str | None) -> float:
    if a is None or b is None:
        return 2.0
    return 1.0 if a == b else 0.0


def _values(facts: HeaderFacts, names: tuple[str, ...] | list[str],
            schema: FeatureSchema) -> list[float]:
    """Every catalog quantity for one email: a missing flag per top
    field (from its field names), then the _FACT_KEYS quantities."""
    present = set(names)
    values = [0.0 if f in present else 1.0 for f in schema.top_fields]
    zone = facts.date_zone
    msgid = facts.msgid_domain
    values += (
        float(facts.hops),
        float(facts.to),
        float(facts.cc),
        float(facts.to + facts.cc + facts.from_addresses),
        float(facts.fields),
        float(facts.distinct_fields),
        0.0 if zone is not None and zone == schema.mode_timezone else 1.0,
        float(facts.content_type),
        2.0 if msgid is None else float(msgid != schema.mode_msgid_domain),
        0.0 if zone is None else 1.0,
        *(_match(getattr(facts, _DOMAIN_OF[a]), getattr(facts, _DOMAIN_OF[b]))
          for a, b in _COMPARISON_PAIRS),
        float(facts.chain_by_then_from
              if schema.chain_direction == CHAIN_BY_THEN_FROM
              else facts.chain_from_then_by),
    )
    return values


def _descriptor_key(d: FeatureDescriptor) -> str:
    return d.kind if d.param is None else f"{d.kind}:{d.param}"


def extract(record: CorpusRecord | EmailHeader, schema: FeatureSchema) -> np.ndarray:
    """Numeric vector for one email, aligned to schema.descriptors.

    A record's facts and field names were kept on it when it was
    built; a bare header's are computed here.
    """
    if isinstance(record, CorpusRecord):
        names, facts = record.names, record.facts
    else:
        names, facts = record.names(), header_facts(record)
    index, is_onehot, onehot = schema._projection
    out = np.array(_values(facts, names, schema))[index]
    if is_onehot is None:
        return out
    return np.where(is_onehot, out == onehot, out)


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

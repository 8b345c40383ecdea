"""Model persistence: a versioned JSON envelope holding a model's spec,
convergence flag and schema fingerprint, its learned parameters, and
the feature schema and scaler it was trained against. Round-trips are
bit-exact.

This module is the only codec. A model's parameters are its dataclass
fields other than the envelope's and the training diagnostic
`loss_history`, each written by one rule: an ndarray as a base64
little-endian record (encode_array), a list item by item, a nested
model as a nested model document, any other dataclass as an object of
its fields, and a scalar as is. Decoding reverses each rule by the
field's type annotation; scalars are cast by theirs. A parameter key
the class does not declare raises ValueError.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import typing
from dataclasses import dataclass

import numpy as np

from ..features import (FeatureSchema, ScalerParams, scaler_from_dict,
                        scaler_to_dict, schema_from_dict, schema_to_dict)
from .base import Model, ModelSpec, check_hyperparameters
from .tree import TreeArrays, check_tree

__all__ = [
    "FORMAT_VERSION",
    "encode_array",
    "decode_array",
    "model_to_doc",
    "model_from_doc",
    "Bundle",
    "save_bundle",
    "load_bundle",
    "bundle_bytes",
]

FORMAT_VERSION = 2  # 2: decision trees and AdaBoost persist `trees`

_DTYPES = {"f8": "<f8", "i8": "<i8"}


def encode_array(a: np.ndarray) -> dict:
    if a.dtype == np.float64:
        kind = "f8"
    elif a.dtype == np.int64:
        kind = "i8"
    else:
        raise TypeError(f"unsupported array dtype {a.dtype}")
    little = np.ascontiguousarray(a.astype(_DTYPES[kind], copy=False))
    return {
        "dtype": kind,
        "shape": list(a.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    a = np.frombuffer(raw, dtype=_DTYPES[doc["dtype"]])
    if doc["dtype"] == "f8" and not np.isfinite(a).all():
        raise ValueError("array holds NaN or Inf")
    return a.reshape(doc["shape"]).copy()


def _registry() -> dict:
    """Each algorithm's model class: a view of the learner table."""
    from . import LEARNERS  # the package imports this module first

    return {algorithm: row.model for algorithm, row in LEARNERS.items()}


# envelope fields, written outside "parameters", and loss_history,
# which only describes training
_NOT_PARAMETERS = frozenset({"spec", "converged", "schema_fingerprint",
                             "loss_history"})


@functools.cache
def _parameter_fields(cls) -> tuple:
    """(name, annotation) of each persisted field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls)
                 if f.name not in _NOT_PARAMETERS)


def _encode_fields(obj) -> dict:
    return {name: _encode(getattr(obj, name))
            for name, _ in _parameter_fields(type(obj))}


def _encode(value):
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, Model):
        return model_to_doc(value)
    if dataclasses.is_dataclass(value):
        return _encode_fields(value)
    return value


def _decode_fields(cls, doc) -> dict:
    fields = _parameter_fields(cls)
    unknown = set(doc) - {name for name, _ in fields}
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown parameters {sorted(unknown)}")
    return {name: _decode(hint, doc[name]) for name, hint in fields}


def _decode(hint, doc):
    if hint is np.ndarray:
        return decode_array(doc)
    if typing.get_origin(hint) is list:
        if not isinstance(doc, list):
            raise TypeError(f"expected a list, got {type(doc).__name__}")
        (item,) = typing.get_args(hint)
        return [_decode(item, d) for d in doc]
    if hint is Model or "spec" in getattr(hint, "__dataclass_fields__", {}):
        model = model_from_doc(doc)
        if not isinstance(model, hint):
            raise TypeError(f"expected {hint.__name__}, got {doc['algorithm']}")
        return model
    if dataclasses.is_dataclass(hint):
        return hint(**_decode_fields(hint, doc))
    return hint(doc)


def model_to_doc(model) -> dict:
    return {
        "algorithm": model.spec.algorithm,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "schema_fingerprint": model.schema_fingerprint,
        "convergence_flag": bool(model.converged),
        "parameters": _encode_fields(model),
    }


def model_from_doc(doc: dict):
    """Decode a model document; a hyperparameter missing, unknown or
    outside its domain raises ValueError."""
    cls = _registry()[doc["algorithm"]]
    spec = ModelSpec(doc["algorithm"], doc["hyperparameters"], int(doc["seed"]))
    check_hyperparameters(spec)
    return cls(spec=spec, converged=bool(doc["convergence_flag"]),
               schema_fingerprint=doc.get("schema_fingerprint"),
               **_decode_fields(cls, doc["parameters"]))


def _nested(value):
    """value and everything persisted inside it, depth first."""
    yield value
    if isinstance(value, list):
        for item in value:
            yield from _nested(item)
    elif dataclasses.is_dataclass(value):
        for name, _ in _parameter_fields(type(value)):
            yield from _nested(getattr(value, name))


@dataclass
class Bundle:
    model: object
    schema: FeatureSchema
    scaler: ScalerParams
    positive_label: str


def bundle_bytes(model, schema: FeatureSchema, scaler: ScalerParams,
                 positive_label: str) -> bytes:
    if (model.schema_fingerprint is not None
            and model.schema_fingerprint != schema.fingerprint):
        raise ValueError("model was trained against a different feature schema")
    doc = model_to_doc(model)
    doc["format_version"] = FORMAT_VERSION
    doc["schema_fingerprint"] = schema.fingerprint
    doc["schema"] = schema_to_dict(schema)
    doc["scaler"] = scaler_to_dict(scaler)
    doc["positive_label"] = positive_label
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def save_bundle(path, model, schema: FeatureSchema, scaler: ScalerParams,
                positive_label: str) -> None:
    with open(path, "wb") as fh:
        fh.write(bundle_bytes(model, schema, scaler, positive_label))


# top-level keys of a bundle and their JSON types
_BUNDLE_KEYS = {
    "algorithm": str,
    "hyperparameters": dict,
    "seed": int,
    "schema_fingerprint": str,
    "convergence_flag": bool,
    "parameters": dict,
    "schema": dict,
    "scaler": dict,
    "positive_label": str,
}


def _check_scaler(path, scaler: ScalerParams, width: int) -> None:
    for name in ("mean", "stddev"):
        values = getattr(scaler, name)
        if values.shape != (width,):
            raise ValueError(f"{path}: scaler {name} has shape {values.shape}, "
                             f"the schema has {width} features")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: scaler {name} is not finite")
    if not (scaler.stddev > 0.0).all():
        raise ValueError(f"{path}: scaler stddev must be > 0")


def load_bundle(path) -> Bundle:
    """Read and validate a bundle; any malformed content raises
    ValueError."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: not a format_version {FORMAT_VERSION} model file")
    for key, kind in _BUNDLE_KEYS.items():
        if not isinstance(doc.get(key), kind):
            raise ValueError(f"{path}: {key!r} missing or not a {kind.__name__}")
    try:
        schema = schema_from_dict(doc["schema"])
        scaler = scaler_from_dict(doc["scaler"])
        model = model_from_doc(doc)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed model file: {exc!r}") from exc
    width = len(schema.descriptors)
    _check_scaler(path, scaler, width)
    # malformed trees fail here: the probe below could walk one forever.
    # Only a stack member may lack a fingerprint: the top-level one is a str.
    try:
        for part in _nested(model):
            if isinstance(part, TreeArrays):
                check_tree(part, width)
            elif (isinstance(part, Model)
                  and part.schema_fingerprint not in (None, schema.fingerprint)):
                raise ValueError(f"{part.spec.algorithm} model was trained "
                                 f"against a different feature schema")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # parameters that disagree with the schema fail here, not at scoring
    try:
        probe = model.decision_values(np.zeros((1, width)))
        if probe.shape != (1,) or not np.isfinite(probe).all():
            raise ValueError(f"got {probe!r}, not one finite value")
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: model cannot score a {width}-feature "
                         f"row: {exc}") from exc
    return Bundle(model, schema, scaler, doc["positive_label"])

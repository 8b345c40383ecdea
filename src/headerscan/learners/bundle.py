"""Model persistence: a versioned JSON envelope holding every learned
parameter as a base64 little-endian array, plus the feature schema and
scaler the model was trained against. Round-trips are bit-exact.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from ..features import (FeatureSchema, ScalerParams, scaler_from_dict,
                        scaler_to_dict, schema_from_dict, schema_to_dict)
from .base import ModelSpec

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

FORMAT_VERSION = 1

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
    from .bayes import GaussianNBModel
    from .boosting import AdaBoostModel, GradBoostModel
    from .forest import RandomForestModel
    from .linear import LinearSVMModel, LogRegModel
    from .mlp import MLPModel
    from .neighbors import KNNModel
    from .ocsvm import OneClassSVMModel
    from .stack import StackModel
    from .tree import DecisionTreeModel

    return {
        "logreg": LogRegModel,
        "linear_svm": LinearSVMModel,
        "decision_tree": DecisionTreeModel,
        "random_forest": RandomForestModel,
        "grad_boost": GradBoostModel,
        "gaussian_nb": GaussianNBModel,
        "knn": KNNModel,
        "mlp": MLPModel,
        "adaboost": AdaBoostModel,
        "stack": StackModel,
        "one_class_svm": OneClassSVMModel,
    }


def model_to_doc(model) -> dict:
    return {
        "algorithm": model.spec.algorithm,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "schema_fingerprint": model.schema_fingerprint,
        "convergence_flag": bool(model.converged),
        "parameters": model._params_doc(),
    }


def model_from_doc(doc: dict):
    cls = _registry()[doc["algorithm"]]
    spec = ModelSpec(doc["algorithm"], doc["hyperparameters"], int(doc["seed"]))
    return cls._from_params(doc["parameters"], spec, bool(doc["convergence_flag"]),
                            doc.get("schema_fingerprint"))


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
    doc = dict(model_to_doc(model))
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model file: {exc!r}") from exc
    width = len(schema.descriptors)
    _check_scaler(path, scaler, width)
    if model.schema_fingerprint != schema.fingerprint:
        raise ValueError("model fingerprint does not match the embedded schema")
    # parameters that disagree with the schema fail here, not at scoring
    try:
        probe = model.decision_values(np.zeros((1, width)))
        if probe.shape != (1,) or not np.isfinite(probe).all():
            raise ValueError(f"got {probe!r}, not one finite value")
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: model cannot score a {width}-feature "
                         f"row: {exc}") from exc
    return Bundle(model, schema, scaler, doc["positive_label"])

"""k-nearest-neighbor classifier with deterministic tie handling."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .base import ModelSpec

__all__ = ["KNNModel", "train_knn"]


@dataclass
class KNNModel:
    spec: ModelSpec
    X: np.ndarray
    y: np.ndarray
    converged: bool = True
    schema_fingerprint: str | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (len(self.X),):
            raise ValueError("kNN needs one label per stored row")

    @functools.cached_property
    def _sq(self) -> np.ndarray:  # built on first use, never persisted
        return np.sum(self.X * self.X, axis=1)

    def decision_values(self, Q: np.ndarray) -> np.ndarray:
        """Anomalous vote fraction among the k nearest minus 0.5.

        Euclidean distance; equal distances rank by lower training row
        index (stable sort keeps storage order)."""
        k = min(self.spec.hyperparameters["k"], len(self.y))
        out = np.empty(len(Q))
        # chunked so the distance matrix stays modest
        step = max(1, int(4_000_000 // max(len(self.y), 1)))
        for start in range(0, len(Q), step):
            q = Q[start:start + step]
            d2 = self._sq[None, :] - 2.0 * (q @ self.X.T) + np.sum(q * q, axis=1)[:, None]
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            votes = self.y[order].mean(axis=1)
            out[start:start + step] = votes - 0.5
        return out


def train_knn(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> KNNModel:
    return KNNModel(spec, X.copy(), y.astype(np.int64))

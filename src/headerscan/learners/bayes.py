"""Gaussian naive Bayes with a variance floor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec

__all__ = ["GaussianNBModel", "train_gaussian_nb", "VAR_FLOOR"]

VAR_FLOOR = 1e-9


@dataclass
class GaussianNBModel:
    spec: ModelSpec
    log_priors: np.ndarray  # [ham, anomalous]
    means: np.ndarray       # (2, d)
    variances: np.ndarray   # (2, d), floored
    converged: bool = True
    schema_fingerprint: str | None = None

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((len(X), 2))
        for c in range(2):
            var = self.variances[c]
            diff = X - self.means[c]
            out[:, c] = self.log_priors[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * var) + diff * diff / var, axis=1)
        return out

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        lj = self._log_joint(X)
        # P(anom | x) without leaving log space
        return 0.5 * (1.0 + np.tanh(0.5 * (lj[:, 1] - lj[:, 0])))

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5


def train_gaussian_nb(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> GaussianNBModel:
    d = X.shape[1]
    log_priors = np.empty(2)
    means = np.empty((2, d))
    variances = np.empty((2, d))
    for c in range(2):
        rows = X[y == c]
        log_priors[c] = np.log(len(rows) / len(X))
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), VAR_FLOOR)
    return GaussianNBModel(spec, log_priors, means, variances)

"""One-hidden-layer perceptron: ReLU hidden, sigmoid output, cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import ModelSpec, check_training_inputs, rng_for
from .linear import _TOL, sigmoid

__all__ = ["MLPModel", "train_mlp", "init_params", "loss_and_grad"]

_EPOCHS, _BATCH = 100, 32


def init_params(d: int, hidden: int, rng: np.random.Generator) -> dict:
    """Glorot uniform in +/- sqrt(6/(fan_in + fan_out)); zero biases."""
    lim1 = np.sqrt(6.0 / (d + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 1))
    return {
        "W1": rng.uniform(-lim1, lim1, size=(d, hidden)),
        "b1": np.zeros(hidden),
        "w2": rng.uniform(-lim2, lim2, size=hidden),
        "b2": 0.0,
    }


def _forward(params: dict, X: np.ndarray):
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["w2"] + params["b2"]
    return z1, a1, z2


def loss_and_grad(params: dict, X: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its exact gradient.

    Kept free of training-loop state so the analytic gradient can be
    checked against finite differences directly."""
    n = len(X)
    z1, a1, z2 = _forward(params, X)
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    dz2 = (sigmoid(z2) - y) / n
    gw2 = a1.T @ dz2
    gb2 = float(dz2.sum())
    dz1 = np.outer(dz2, params["w2"]) * (z1 > 0.0)
    gW1 = X.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, {"W1": gW1, "b1": gb1, "w2": gw2, "b2": gb2}


@dataclass
class MLPModel:
    spec: ModelSpec
    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    converged: bool
    loss_history: np.ndarray = field(default_factory=lambda: np.array([]))
    schema_fingerprint: str | None = None

    def _params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(_forward(self._params(), X)[2])

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5


def train_mlp(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
              schema_fingerprint: str | None = None) -> MLPModel:
    """_EPOCHS epochs of gradient descent in _BATCH-row batches, reshuffled
    each epoch from the spec seed. Records the full-batch loss once per
    epoch; converged is the final full-batch gradient test of linear._newton."""
    check_training_inputs(X, y)
    hp = spec.hyperparameters
    n, d = X.shape
    rng = rng_for(spec.seed, "mlp", "init")
    params = init_params(d, hp["hidden"], rng)
    shuffle_rng = rng_for(spec.seed, "mlp", "shuffle")
    yf = y.astype(np.float64)
    lr = hp["lr"]
    history = []
    for _ in range(_EPOCHS):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, _BATCH):
            rows = order[start:start + _BATCH]
            _, grads = loss_and_grad(params, X[rows], yf[rows])
            params["W1"] = params["W1"] - lr * grads["W1"]
            params["b1"] = params["b1"] - lr * grads["b1"]
            params["w2"] = params["w2"] - lr * grads["w2"]
            params["b2"] = params["b2"] - lr * grads["b2"]
        z2 = _forward(params, X)[2]
        history.append(float(np.mean(np.logaddexp(0.0, z2) - yf * z2)))
    grads = loss_and_grad(params, X, yf)[1].values()
    converged = max(float(np.max(np.abs(g))) for g in grads) < _TOL
    return MLPModel(spec, params["W1"], params["b1"], params["w2"],
                    float(params["b2"]), converged, np.array(history), schema_fingerprint)

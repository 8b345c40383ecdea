"""One-hidden-layer perceptron: ReLU hidden, sigmoid output, cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, rng_for
from .linear import _TOL, sigmoid

__all__ = ["MLPModel", "train_mlps", "init_params", "loss_and_grad"]

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
    """X is (rows, d), or (models, rows, d) with every parameter stacked
    on a leading models axis."""
    z1 = X @ params["W1"] + params["b1"][..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = (a1 @ params["w2"][..., None])[..., 0] + np.asarray(params["b2"])[..., None]
    return z1, a1, z2


def loss_and_grad(params: dict, X: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its exact gradient, per model when
    X, y and the parameters are stacked on a leading models axis.

    Stacked products are matmuls and sums run along one axis, never
    einsum, so each model gets the bits of its own 2-D call. Kept free
    of training-loop state so the analytic gradient can be checked
    against finite differences directly."""
    forward = _forward(params, X)
    z2 = forward[2]
    loss = np.mean(np.logaddexp(0.0, z2) - y * z2, axis=-1)
    return loss, _grad(params, X, y, forward)


def _grad(params: dict, X: np.ndarray, y: np.ndarray, forward=None) -> dict:
    """loss_and_grad's gradient alone, from its forward pass if given."""
    z1, a1, z2 = _forward(params, X) if forward is None else forward
    dz2 = (sigmoid(z2) - y) / X.shape[-2]
    gw2 = (np.swapaxes(a1, -1, -2) @ dz2[..., None])[..., 0]
    gb2 = dz2.sum(axis=-1)
    dz1 = dz2[..., None] * params["w2"][..., None, :] * (z1 > 0.0)
    gW1 = np.swapaxes(X, -1, -2) @ dz1
    gb1 = dz1.sum(axis=-2)
    return {"W1": gW1, "b1": gb1, "w2": gw2, "b2": gb2}


@dataclass
class MLPModel:
    spec: ModelSpec
    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    converged: bool
    schema_fingerprint: str | None = None

    def _params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(_forward(self._params(), X)[2])

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5


def train_mlps(specs: list[ModelSpec], X: np.ndarray, y: np.ndarray,
               row_sets: list) -> list[MLPModel]:
    """One model per (spec, rows), in order, each the model its spec
    gets alone on X[rows], y[rows]; the specs share their hyperparameters.

    _EPOCHS epochs of gradient descent in _BATCH-row batches, reshuffled
    each epoch from the spec seed; converged is the final full-batch
    gradient test of linear._newton. The models' parameters are
    stacked, and at each batch start the models whose batches have the
    same length take one stacked step: all of them but for an epoch's
    ragged last batch. These steps are planned once, as every epoch
    has the same; a step gathers its rows of X from a block of the
    epoch's (models, rows) index matrix and skips the loss."""
    hp = specs[0].hyperparameters
    lr = hp["lr"]
    yf = y.astype(np.float64)
    inits = [init_params(X.shape[1], hp["hidden"], rng_for(spec.seed, "mlp", "init"))
             for spec in specs]
    params = {key: np.array([p[key] for p in inits]) for key in inits[0]}
    shuffles = [rng_for(spec.seed, "mlp", "shuffle") for spec in specs]
    sizes = np.array([len(rows) for rows in row_sets])
    plan = []
    for start in range(0, sizes.max(), _BATCH):
        lengths = np.minimum(sizes - start, _BATCH)
        for length in np.unique(lengths[lengths > 0]).tolist():
            group = np.flatnonzero(lengths == length)
            # a full group's parameters are views: the update writes in place
            plan.append((slice(start, start + length),
                         slice(None) if len(group) == len(specs) else group))
    order = np.zeros((len(specs), sizes.max()), dtype=np.intp)
    for _ in range(_EPOCHS):
        for i, (rows, rng) in enumerate(zip(row_sets, shuffles)):
            order[i, :len(rows)] = rows[rng.permutation(len(rows))]
        labels = yf[order]
        for block, group in plan:
            grads = _grad({key: v[group] for key, v in params.items()},
                          X[order[group, block]], labels[group, block])
            for key, v in params.items():
                v[group] -= lr * grads[key]
    models = []
    for i, (spec, rows) in enumerate(zip(specs, row_sets)):
        own = {key: v[i].copy() for key, v in params.items()}
        converged = max(float(np.max(np.abs(g))) for g in _grad(own, X[rows], yf[rows]).values()) < _TOL
        models.append(MLPModel(spec, own["W1"], own["b1"], own["w2"], float(own["b2"]), converged))
    return models

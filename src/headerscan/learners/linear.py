"""Logistic regression by Newton's method, linear SVM by subgradient descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, check_training_inputs, rng_for

__all__ = ["LogRegModel", "LinearSVMModel", "train_logreg", "train_linear_svm"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass
class LinearModel:
    """Weights and bias of a linear scorer, and their bundle codec."""

    spec: ModelSpec
    weights: np.ndarray
    bias: float
    converged: bool
    loss_history: np.ndarray
    schema_fingerprint: str | None = None

    def _params_doc(self) -> dict:
        from .bundle import encode_array

        return {
            "weights": encode_array(self.weights),
            "bias": self.bias,
            "loss_final": float(self.loss_history[-1]) if len(self.loss_history) else 0.0,
        }

    @classmethod
    def _from_params(cls, doc, spec, converged, fingerprint):
        from .bundle import decode_array

        return cls(
            spec=spec,
            weights=decode_array(doc["weights"]),
            bias=float(doc["bias"]),
            converged=converged,
            loss_history=np.array([doc.get("loss_final", 0.0)]),
            schema_fingerprint=fingerprint,
        )


class LogRegModel(LinearModel):
    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)


def train_logreg(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                 schema_fingerprint: str | None = None) -> LogRegModel:
    """Newton's method on mean cross-entropy plus (lam/2)||w||^2, with
    the bias unpenalised.

    Each step solves the (d+1)x(d+1) Hessian system, whose 1e-12 ridge
    keeps it solvable when lam=0 meets separable data or collinear
    columns, and is halved until the objective does not rise: the
    objective after each accepted step, kept in loss_history, never
    increases. converged is True exactly when the gradient's infinity
    norm falls below tol; otherwise the solver stops after max_epochs
    steps, or when 50 halvings cannot keep the objective from rising.
    """
    check_training_inputs(X, y)
    hp = spec.hyperparameters
    lam, tol, max_epochs = hp["lam"], hp["tol"], hp["max_epochs"]
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    yf = y.astype(float)
    signs = 2.0 * yf - 1.0
    penalty = np.append(np.full(d, float(lam)), 0.0)

    def objective(theta: np.ndarray) -> float:
        # softplus(-sign*z) is the cross-entropy, stable for any |z|
        return (float(np.mean(np.logaddexp(0.0, -signs * (A @ theta))))
                + 0.5 * lam * float(theta[:d] @ theta[:d]))

    theta = np.zeros(d + 1)
    loss = objective(theta)
    history = []
    for step_no in range(max_epochs + 1):
        p = sigmoid(A @ theta)
        grad = A.T @ (p - yf) / n + penalty * theta
        converged = float(np.max(np.abs(grad))) < tol
        if converged or step_no == max_epochs:
            break
        hessian = (A.T * (p * (1.0 - p) / n)) @ A + np.diag(penalty + 1e-12)
        direction = np.linalg.solve(hessian, grad)
        t = 1.0
        for _ in range(50):
            trial = theta - t * direction
            trial_loss = objective(trial)
            if trial_loss <= loss:
                break
            t *= 0.5
        else:
            break
        theta, loss = trial, trial_loss
        history.append(loss)
    return LogRegModel(spec, theta[:d].copy(), float(theta[d]), converged,
                       np.array(history), schema_fingerprint)


class LinearSVMModel(LinearModel):
    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = (2.0 * y - 1.0) * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(np.mean(hinge) + (w @ w) / (2.0 * C))


def train_linear_svm(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                     schema_fingerprint: str | None = None) -> LinearSVMModel:
    """Per-sample subgradient descent on the hinge objective
    mean(hinge) + ||w||^2 / (2C) with step 1/(lam*t), lam = 1/C.

    Samples are visited in a freshly shuffled order each epoch; the
    recorded history holds the per-epoch average of the stochastic
    objective seen at each step.
    """
    check_training_inputs(X, y)
    hp = spec.hyperparameters
    C, epochs = hp["C"], hp["epochs"]
    lam = 1.0 / C
    n, d = X.shape
    ys = 2.0 * y.astype(float) - 1.0
    rng = rng_for(spec.seed, "linear_svm", "shuffle")

    w = np.zeros(d)
    b = 0.0
    t = 0
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for i in order:
            t += 1
            step = 1.0 / (lam * t)
            margin = ys[i] * (float(X[i] @ w) + b)
            epoch_sum += max(0.0, 1.0 - margin) + 0.5 * lam * float(w @ w)
            w *= 1.0 - step * lam
            if margin < 1.0:
                w += step * ys[i] * X[i]
                b += step * ys[i]
        history.append(epoch_sum / n)
    return LinearSVMModel(spec, w, b, True, np.array(history), schema_fingerprint)

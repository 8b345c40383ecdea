"""Logistic regression and the L2-loss linear SVM, fitted by one Newton
solver on mean(loss(sign*z)) + (lam/2)||w||^2 with z = Xw + b, the bias
unpenalised and sign +1 for anomalous rows, -1 for ham. The loss is the
cross-entropy for logistic regression and the squared hinge
max(0, 1 - m)^2 with lam = 1/C for the SVM (Keerthi & DeCoste, JMLR
2005). The steps follow Lin, Weng & Keerthi, "Trust region Newton method
for logistic regression" (JMLR 2008), halving in place of a trust region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, check_training_inputs

__all__ = ["LogRegModel", "LinearSVMModel", "train_logreg", "train_linear_svm"]

_TOL = 1e-6
_MAX_STEPS = 100


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


def _newton(X: np.ndarray, y: np.ndarray, lam: float, loss):
    """Minimise mean(loss(sign*z)) + (lam/2)||w||^2, bias unpenalised.

    loss(m) returns the per-row loss at margins m and its first and
    (generalized) second derivatives. Each step solves the (d+1)x(d+1)
    Hessian system, whose 1e-12 ridge keeps it solvable when lam=0
    meets separable data or collinear columns, and is halved until the
    objective does not rise: the objective after each accepted step,
    kept in the returned history, never increases. converged is True
    exactly when the gradient's infinity norm falls below _TOL;
    otherwise the solver stops after _MAX_STEPS steps, or when 50
    halvings cannot keep the objective from rising.
    """
    check_training_inputs(X, y)
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    signs = 2.0 * y.astype(float) - 1.0
    penalty = np.append(np.full(d, float(lam)), 0.0)

    def objective(theta: np.ndarray) -> float:
        return (float(np.mean(loss(signs * (A @ theta))[0]))
                + 0.5 * lam * float(theta[:d] @ theta[:d]))

    theta = np.zeros(d + 1)
    obj = objective(theta)
    history = []
    for step_no in range(_MAX_STEPS + 1):
        _, d1, d2 = loss(signs * (A @ theta))
        grad = A.T @ (signs * d1) / n + penalty * theta
        converged = float(np.max(np.abs(grad))) < _TOL
        if converged or step_no == _MAX_STEPS:
            break
        hessian = (A.T * (d2 / n)) @ A + np.diag(penalty + 1e-12)
        direction = np.linalg.solve(hessian, grad)
        t = 1.0
        for _ in range(50):
            trial = theta - t * direction
            trial_obj = objective(trial)
            if trial_obj <= obj:
                break
            t *= 0.5
        else:
            break
        theta, obj = trial, trial_obj
        history.append(obj)
    return theta[:d].copy(), float(theta[d]), converged, np.array(history)


def _cross_entropy(m: np.ndarray):
    # softplus(-m) is stable for any |m|; q = sigmoid(-m)
    q = sigmoid(-m)
    return np.logaddexp(0.0, -m), -q, q * (1.0 - q)


def _squared_hinge(m: np.ndarray):
    slack = np.maximum(0.0, 1.0 - m)
    return slack * slack, -2.0 * slack, 2.0 * (m < 1.0)


class LogRegModel(LinearModel):
    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)


def train_logreg(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                 schema_fingerprint: str | None = None) -> LogRegModel:
    """Logistic regression: _newton on the mean cross-entropy."""
    return LogRegModel(spec, *_newton(X, y, spec.hyperparameters["lam"],
                                      _cross_entropy),
                       schema_fingerprint)


class LinearSVMModel(LinearModel):
    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias


def train_linear_svm(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                     schema_fingerprint: str | None = None) -> LinearSVMModel:
    """L2-loss linear SVM: _newton on the mean squared hinge with
    lam = 1/C, using its generalized second derivative 2*[m < 1]."""
    return LinearSVMModel(spec, *_newton(X, y, 1.0 / spec.hyperparameters["C"],
                                         _squared_hinge),
                          schema_fingerprint)

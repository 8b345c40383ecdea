"""nu-one-class SVM: RBF kernel, SMO-style pairwise dual solver.

Solves  min 1/2 a' K a  s.t.  0 <= a_i <= 1/(nu*n),  sum a = 1.
The decision function is f(x) = sum_i a_i K(s_i, x) - rho with
Inlier iff f(x) >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ConvergenceError, ModelSpec, check_training_inputs

__all__ = ["OneClassSVMModel", "KKTAudit", "train_one_class_svm", "rbf_kernel"]

_FULL_KERNEL_MAX = 4096
_TOL = 1e-3  # KKT tolerance, LIBSVM's default (Fan, Chen & Lin, JMLR 2005)
_ITERS_PER_ROW = 200  # SMO iteration cap: _ITERS_PER_ROW * max(n, 1000)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (np.sum(A * A, axis=1)[:, None]
          - 2.0 * (A @ B.T)
          + np.sum(B * B, axis=1)[None, :])
    return np.exp(-gamma * np.maximum(d2, 0.0))


class _KernelRows:
    """Row access to the RBF kernel matrix; precomputed when small,
    otherwise computed on demand behind a bounded cache."""

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self.sq = np.sum(X * X, axis=1)
        n = len(X)
        if n <= _FULL_KERNEL_MAX:
            self.full = rbf_kernel(X, X, gamma)
        else:
            self.full = None
            self.cache: dict[int, np.ndarray] = {}
            self.cache_cap = max(64, int(2e8 // (8 * n)))

    def row(self, i: int) -> np.ndarray:
        if self.full is not None:
            return self.full[i]
        hit = self.cache.get(i)
        if hit is not None:
            return hit
        d2 = self.sq - 2.0 * (self.X @ self.X[i]) + self.sq[i]
        row = np.exp(-self.gamma * np.maximum(d2, 0.0))
        if len(self.cache) >= self.cache_cap:
            self.cache.pop(next(iter(self.cache)))
        self.cache[i] = row
        return row


@dataclass(frozen=True)
class KKTAudit:
    """Solver self-check captured at convergence.

    margin_error_fraction counts training points whose decision value
    is below -_TOL: at an exact optimum every free support vector sits
    at decision 0, so only violations beyond the solver's resolution
    count as errors. With that reading the nu-property bounds
    (margin errors <= nu <= SV fraction) hold structurally."""

    sum_alpha: float
    max_box_overshoot: float
    max_violation: float
    margin_error_fraction: float
    sv_fraction: float
    n_iterations: int


@dataclass
class OneClassSVMModel:
    spec: ModelSpec
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    audit: KKTAudit
    converged: bool = True
    schema_fingerprint: str | None = None

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        gamma = self.spec.hyperparameters["gamma"]
        out = np.empty(len(X))
        step = max(1, int(4_000_000 // max(len(self.support_vectors), 1)))
        for start in range(0, len(X), step):
            K = rbf_kernel(X[start:start + step], self.support_vectors, gamma)
            out[start:start + step] = K @ self.alphas - self.rho
        return out


def train_one_class_svm(spec: ModelSpec, X: np.ndarray,
                        schema_fingerprint: str | None = None) -> OneClassSVMModel:
    """SMO over the most-violating pair.

    Gradient g = K a is kept incrementally. The pair is i = argmin g
    over {a < C} (can grow) and j = argmax g over {a > 0} (can shrink);
    the gap g_j - g_i is the KKT violation and must fall below _TOL
    within the iteration cap, or ConvergenceError is raised. Starting
    point: the first floor(nu*n) coefficients at the box bound
    C = 1/(nu*n), the next one at the fractional remainder.
    """
    check_training_inputs(X)
    nu, gamma = spec.hyperparameters["nu"], spec.hyperparameters["gamma"]
    n = len(X)
    C = 1.0 / (nu * n)

    alpha = np.zeros(n)
    nb = int(np.floor(nu * n))
    alpha[:nb] = C
    if nb < n:
        alpha[nb] = 1.0 - nb * C

    kernel = _KernelRows(X, gamma)
    g = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        g += alpha[i] * kernel.row(i)

    violation = np.inf
    iterations = 0
    for iterations in range(1, _ITERS_PER_ROW * max(n, 1000) + 1):
        can_grow = alpha < C
        can_shrink = alpha > 0.0
        if not can_grow.any() or not can_shrink.any():
            violation = 0.0
            break
        i = int(np.argmin(np.where(can_grow, g, np.inf)))
        j = int(np.argmax(np.where(can_shrink, g, -np.inf)))
        violation = g[j] - g[i]
        if violation < _TOL:
            break
        ki = kernel.row(i)
        kj = kernel.row(j)
        q = ki[i] + kj[j] - 2.0 * ki[j]
        room = min(C - alpha[i], alpha[j])
        delta = room if q <= 1e-12 else min(violation / q, room)
        if delta == C - alpha[i]:
            alpha[i] = C
        else:
            alpha[i] += delta
        if delta == alpha[j]:
            alpha[j] = 0.0
        else:
            alpha[j] -= delta
        g += delta * (ki - kj)
    else:
        raise ConvergenceError("one-class SVM did not reach the KKT tolerance",
                               residual=float(violation))

    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        rho = float(np.mean(g[free]))
    else:
        at_bound = g[alpha >= C]
        at_zero = g[alpha <= 0.0]
        lo = float(np.max(at_bound)) if len(at_bound) else float(np.min(g))
        hi = float(np.min(at_zero)) if len(at_zero) else float(np.max(g))
        rho = 0.5 * (lo + hi)

    sv = alpha > 0.0
    audit = KKTAudit(
        sum_alpha=float(np.sum(alpha)),
        max_box_overshoot=float(max(np.max(-alpha), np.max(alpha - C), 0.0)),
        max_violation=float(violation),
        margin_error_fraction=float(np.mean(g - rho < -_TOL)),
        sv_fraction=float(np.mean(sv)),
        n_iterations=iterations,
    )
    return OneClassSVMModel(spec, X[sv].copy(), alpha[sv].copy(), rho, audit,
                            True, schema_fingerprint)

"""nu-one-class SVM: RBF kernel, SMO-style pairwise dual solver.

Solves  min 1/2 a' K a  s.t.  0 <= a_i <= 1/(nu*n),  sum a = 1.
The decision function is f(x) = sum_i a_i K(s_i, x) - rho with
Inlier iff f(x) >= 0.

train_one_class_svms fits a list of specs on one X: train_grid hands it
all of a grid's cells for one fold's rows. Specs that share a gamma
share its kernel, and up to _FULL_KERNEL_MAX rows all kernels come from
one distance matrix. Each model is bit for bit the one its spec gets
alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .base import ConvergenceError, ModelSpec

__all__ = ["OneClassSVMModel", "KKTAudit", "train_one_class_svms", "rbf_kernel"]

_FULL_KERNEL_MAX = 4096
_TOL = 1e-3  # KKT tolerance, LIBSVM's default (Fan, Chen & Lin, JMLR 2005)
_ITERS_PER_ROW = 200  # SMO iteration cap: _ITERS_PER_ROW * max(n, 1000)


def _sq_dists(A: np.ndarray, B: np.ndarray, b_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of A and B, clamped at 0; b_sq
    is B's squared row norms, if known."""
    d2 = A @ B.T
    d2 *= -2.0
    d2 += np.sum(A * A, axis=1)[:, None]
    d2 += (np.sum(B * B, axis=1) if b_sq is None else b_sq)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * _sq_dists(A, B))


class _KernelRows:
    """Rows of the RBF kernel matrix computed on demand behind a
    bounded cache, for training sets above _FULL_KERNEL_MAX rows."""

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self.sq = np.sum(X * X, axis=1)
        self.cache: dict[int, np.ndarray] = {}
        self.cache_cap = max(64, int(2e8 // (8 * len(X))))

    def row(self, i: int) -> np.ndarray:
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

    @functools.cached_property
    def _sv_sq(self) -> np.ndarray:  # built on first use, never persisted
        return np.sum(self.support_vectors * self.support_vectors, axis=1)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        gamma = self.spec.hyperparameters["gamma"]
        out = np.empty(len(X))
        step = max(1, int(4_000_000 // max(len(self.support_vectors), 1)))
        for start in range(0, len(X), step):
            K = np.exp(-gamma * _sq_dists(X[start:start + step], self.support_vectors, self._sv_sq))
            out[start:start + step] = K @ self.alphas - self.rho
        return out


def train_one_class_svms(specs: list[ModelSpec], X: np.ndarray) -> list[OneClassSVMModel]:
    """One model per spec, all trained on X, in spec order.

    Up to _FULL_KERNEL_MAX rows, each distinct gamma's kernel is built
    from one distance matrix with rbf_kernel's arithmetic, in place into
    one buffer, the last into the distances themselves; above it, each
    gamma gets one _KernelRows."""
    models: list = [None] * len(specs)
    gammas = list(dict.fromkeys(spec.hyperparameters["gamma"] for spec in specs))
    d2 = _sq_dists(X, X) if len(X) <= _FULL_KERNEL_MAX else None
    K = None
    for pos, gamma in enumerate(gammas):
        if d2 is None:
            row = _KernelRows(X, gamma).row
        else:
            out = d2 if pos == len(gammas) - 1 else K
            K = np.exp(np.multiply(d2, -gamma, out=out), out=out)
            row = K.__getitem__
        for s, spec in enumerate(specs):
            if spec.hyperparameters["gamma"] == gamma:
                models[s] = _smo(spec, X, row)
    return models


def _smo(spec: ModelSpec, X: np.ndarray, row) -> OneClassSVMModel:
    """SMO over the most-violating pair; row(i) is row i of the kernel.

    The pair is i = argmin g over {a < C} (can grow) and j = argmax g
    over {a > 0} (can shrink), with g = K a; the gap g_j - g_i is the KKT
    violation and must fall below _TOL within the iteration cap, or
    ConvergenceError is raised. Start: the first floor(nu*n) coefficients
    at the box bound C = 1/(nu*n), the next at the fractional remainder.

    H (2, n) holds g over the grow set and -g over the shrink set, +inf
    elsewhere, so one H.argmin(axis=1) gives (i, j) and an all-inf row an
    empty set. A step delta * (K_i - K_j) is formed in one buffer, added
    to g and H[0] and subtracted from H[1]; then only entries i and j of
    H are reset from g. The coefficients a are a list until the loop ends.
    """
    nu = spec.hyperparameters["nu"]
    n = len(X)
    C = 1.0 / (nu * n)
    inf = np.inf

    alpha = np.zeros(n)
    nb = int(np.floor(nu * n))
    alpha[:nb] = C
    if nb < n:
        alpha[nb] = 1.0 - nb * C

    g = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        g += alpha[i] * row(i)

    H = np.array([np.where(alpha < C, g, inf), np.where(alpha > 0.0, -g, inf)])
    grow, shrink = H
    step = np.empty(n)
    alpha = alpha.tolist()
    violation = inf
    iterations = 0
    for iterations in range(1, _ITERS_PER_ROW * max(n, 1000) + 1):
        i, j = H.argmin(axis=1).tolist()
        gi = grow.item(i)
        if gi == inf or shrink.item(j) == inf:
            violation = 0.0
            break
        violation = g.item(j) - gi
        if violation < _TOL:
            break
        ki, kj = row(i), row(j)
        q = ki.item(i) + kj.item(j) - 2.0 * ki.item(j)
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
        np.subtract(ki, kj, out=step)
        step *= delta
        g += step
        grow += step
        shrink -= step
        for t in (i, j):
            gt = g.item(t)
            grow[t] = gt if alpha[t] < C else inf
            shrink[t] = -gt if alpha[t] > 0.0 else inf
    else:
        raise ConvergenceError("one-class SVM did not reach the KKT tolerance",
                               residual=float(violation))

    alpha = np.array(alpha)
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
        max_box_overshoot=float(max(0.0, np.max(-alpha), np.max(alpha - C))),
        max_violation=float(violation),
        margin_error_fraction=float(np.mean(g - rho < -_TOL)),
        sv_fraction=float(np.mean(sv)),
        n_iterations=iterations,
    )
    return OneClassSVMModel(spec, X[sv].copy(), alpha[sv].copy(), rho, audit)

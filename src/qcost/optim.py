"""The one descent driver, seeded multi-start minimization, and manifold
parameterizations.

Every search runs through ``descend``: one scipy L-BFGS-B or TNC run that
returns the lowest point it evaluated.  The deficit search is nonconvex
but smooth away from eigenvalue crossings, with an analytic gradient, so
it is seeded multi-start L-BFGS-B.  Starts are independent; the reduction
over starts is min by value with ties broken by lowest start index, so
results do not depend on evaluation order.  Each parameterization comes
with its pullback: the map from dF/d conj(U) to dF/d params.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng
from .qmat import InputError

# L-BFGS-B stops when the relative decrease of one iteration or the largest
# gradient component falls to these.
_DECREASE_TOL = 1e-15
_GRADIENT_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """restarts seeded starts, each capped at max_evals_per_start
    evaluations (L-BFGS-B's maxfun)."""

    restarts: int = 3
    max_evals_per_start: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_evals_per_start < 1:
            raise InputError("restarts and max_evals_per_start must be >= 1")


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_params: np.ndarray
    evals_used: int
    per_start_values: tuple[float, ...] = field(repr=False)


def start_point(seed: int, j: int, dim: int) -> np.ndarray:
    """Deterministic start j of a run: counter-addressed standard normals."""
    return rng.normals(seed, j, dim, purpose=rng.PURPOSE_OPTIM)


def lbfgsb_options(max_evals: int) -> dict:
    """The deficit search's L-BFGS-B options, at most max_evals evaluations."""
    return {"maxfun": max_evals, "ftol": _DECREASE_TOL, "gtol": _GRADIENT_TOL}


def minimize(objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
             dim: int, cfg: OptimizerConfig,
             extra_starts: Sequence[np.ndarray] = ()) -> OptResult:
    """L-BFGS-B descent from cfg.restarts seeded starts (plus any
    caller-supplied candidate starts, tried first).

    The objective returns (value, gradient).  Each start is one
    ``descend``, so it never reports more than its start's value, and the
    reported value is the one the returned point achieves.
    """
    if dim < 1:
        raise InputError("dim must be >= 1")
    starts = [np.asarray(s, dtype=float).reshape(dim) for s in extra_starts]
    starts += [start_point(cfg.seed, j, dim) for j in range(cfg.restarts)]

    best_value = np.inf
    best_params = starts[0]
    evals = 0
    per_start = []
    for x0 in starts:
        value, x, used = descend(objective, x0, "L-BFGS-B",
                                 lbfgsb_options(cfg.max_evals_per_start))
        evals += used
        per_start.append(value)
        if value < best_value:
            best_value, best_params = value, x
    return OptResult(best_value, best_params, evals, tuple(per_start))


def descend(objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
            x0: np.ndarray, method: str, options: dict) -> tuple[float, np.ndarray, int]:
    """One scipy run of method ("L-BFGS-B" or "TNC") with its scipy options
    from x0: (value, point, evaluations used).

    The point is the lowest-valued one the run evaluated, so the value is
    never above x0's; it is evaluated once more, so the value is the one
    the point achieves.  The run keeps each point's value and gradient: a
    point that the line search evaluates again, and that last evaluation,
    read them instead of calling the objective.  The count of evaluations
    still counts them, as scipy's count plus one.
    """
    from scipy.optimize import minimize as scipy_minimize  # ~0.5 s, on first use

    seen = [np.inf, x0]
    memo = {}

    def tracked(x: np.ndarray):
        key = x.tobytes()
        if key in memo:
            value, grad = memo[key]
            return value, grad.copy()
        value, grad = objective(x)
        memo[key] = value, grad.copy()
        if value < seen[0]:
            seen[:] = value, x.copy()
        return value, grad

    res = scipy_minimize(tracked, x0, jac=True, method=method, options=options)
    x = seen[1]
    return float(tracked(x)[0]), x, int(res.nfev) + 1


def param_to_unitary(params: np.ndarray, d: int) -> np.ndarray:
    """U = exp(iH) from d*d real parameters.

    Layout: d diagonal entries of H, then the d(d-1)/2 real parts and the
    d(d-1)/2 imaginary parts of the strict upper triangle (row-major).
    """
    return unitary_with_pullback(params, d)[0]


def unitary_with_pullback(params: np.ndarray, d: int):
    """(exp(iH), pullback) for param_to_unitary's layout.

    With H = V diag(w) V^dag, dU = V (L o V^dag i dH V) V^dag, where
    L_jk = (e^{i w_j} - e^{i w_k}) / (i (w_j - w_k)), which is
    e^{i (w_j + w_k)/2} sinc((w_j - w_k)/2) and e^{i w_j} on the diagonal.
    pullback(G) turns G = dF/d conj(U) into dF/d params.
    """
    p = np.asarray(params, dtype=float).reshape(-1)
    if p.shape[0] != d * d:
        raise InputError(f"need {d * d} parameters for a {d}x{d} unitary, got {p.shape[0]}")
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = p[:d]
    iu = np.triu_indices(d, k=1)
    m = iu[0].shape[0]
    h[iu] = p[d:d + m] + 1j * p[d + m:d + 2 * m]
    h += np.tril(h.conj().T, k=-1)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T

    def pullback(grad_u: np.ndarray) -> np.ndarray:
        # dF = 2 Re Tr(G^dag dU) = 2 Re Tr(W dH), W = i V (conj(V^dag G V) o L)^T V^dag
        half = 0.5 * (w[:, None] + w[None, :])
        loewner = np.exp(1j * half) * np.sinc((w[:, None] - w[None, :]) / (2 * np.pi))
        core = (v.conj().T @ grad_u @ v).conj() * loewner
        wmat = 1j * (v @ core.T @ v.conj().T)
        # dH_jk = dH_kj^* for j < k: d/d Re = W_jk + W_kj, d/d Im = i (W_kj - W_jk)
        upper, lower = wmat[iu], wmat.T[iu]
        return 2.0 * np.concatenate([np.diag(wmat).real, (upper + lower).real,
                                     (1j * (lower - upper)).real])

    return u, pullback


def bloch_with_pullback(params: np.ndarray):
    """(U, pullback) for a qubit basis from Bloch angles (theta, phi): U's
    first column is the Bloch vector (sin theta cos phi, sin theta sin phi,
    cos theta), its second the antipode, and (0, 0) gives the identity.
    pullback(G) turns G = dF/d conj(U) into (dF/d theta, dF/d phi)."""
    p = np.asarray(params, dtype=float).reshape(-1)
    if p.shape[0] != 2:
        raise InputError(f"need 2 Bloch angles, got {p.shape[0]}")
    theta, phi = p
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    e = np.exp(1j * phi)
    u = np.array([[c, -s * e.conjugate()], [s * e, c]])

    def pullback(grad_u: np.ndarray) -> np.ndarray:
        d_theta = 0.5 * np.array([[-s, -c * e.conjugate()], [c * e, -s]])
        d_phi = np.array([[0.0, 1j * s * e.conjugate()], [1j * s * e, 0.0]])
        return 2.0 * np.array([np.vdot(grad_u, d_theta).real,
                               np.vdot(grad_u, d_phi).real])

    return u, pullback

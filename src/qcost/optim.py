"""Derivative-free multi-start minimization and manifold parameterizations.

The searches behind the entanglement and deficit measures are nonconvex
and their objectives involve eigendecompositions (nonsmooth at crossings),
so the workhorse is seeded multi-start Nelder-Mead.  Restarts are
independent; the reduction over restarts is min by value with ties broken
by lowest start index, so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import rng
from .qmat import InputError

# Nelder-Mead termination tolerances on the simplex and on its values.
XTOL = 1e-8
FTOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
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


def minimize(objective: Callable[[np.ndarray], float], dim: int,
             cfg: OptimizerConfig,
             extra_starts: Sequence[np.ndarray] = ()) -> OptResult:
    """Nelder-Mead descent from cfg.restarts seeded starts (plus any
    caller-supplied candidate starts, tried first).

    The objective must return a finite value or +inf; NaN is mapped to
    +inf so the simplex reflects away instead of propagating it.
    """
    if dim < 1:
        raise InputError("dim must be >= 1")

    def safe(x: np.ndarray) -> float:
        v = objective(x)
        return np.inf if np.isnan(v) else float(v)

    starts = [np.asarray(s, dtype=float).reshape(dim) for s in extra_starts]
    starts += [start_point(cfg.seed, j, dim) for j in range(cfg.restarts)]

    best_value = np.inf
    best_params = starts[0]
    evals = 0
    per_start = []
    for x0 in starts:
        res = _scipy_minimize(
            safe, x0, method="Nelder-Mead",
            options={
                "maxfev": cfg.max_evals_per_start,
                "xatol": XTOL,
                "fatol": FTOL,
            },
        )
        evals += int(res.nfev)
        value = float(res.fun)
        # Guard against pathological objectives: never report a value the
        # returned point does not achieve.
        achieved = safe(np.asarray(res.x, dtype=float))
        evals += 1
        if achieved < value:
            value = achieved
        per_start.append(value)
        if value < best_value:
            best_value = value
            best_params = np.asarray(res.x, dtype=float)
    return OptResult(best_value, best_params, evals, tuple(per_start))


def param_to_unitary(params: np.ndarray, d: int) -> np.ndarray:
    """U = exp(iH) from d*d real parameters.

    Layout: d diagonal entries of H, then the d(d-1)/2 real parts and the
    d(d-1)/2 imaginary parts of the strict upper triangle (row-major).
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
    return (v * np.exp(1j * w)) @ v.conj().T


def bloch_unitary(params: np.ndarray) -> np.ndarray:
    """Qubit unitary from Bloch angles (theta, phi): its first column is the
    Bloch vector (sin theta cos phi, sin theta sin phi, cos theta), its
    second the antipode.  (0, 0) gives the identity."""
    p = np.asarray(params, dtype=float).reshape(-1)
    if p.shape[0] != 2:
        raise InputError(f"need 2 Bloch angles, got {p.shape[0]}")
    theta, phi = p
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    e = np.exp(1j * phi)
    return np.array([[c, -s * e.conjugate()], [s * e, c]])


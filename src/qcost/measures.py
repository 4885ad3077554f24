"""Entropy and distance functionals on density matrices.

All entropic quantities use logarithm base 2 (bits).  The three distances
(relative entropy, trace, Bures) and their gradients have one
implementation, ``Objective``; every distance in the package, including
the deficit and entanglement searches, is computed through it.  The one
exception is the one-way deficit's relative-entropy kind, which uses the
dephasing identity S(rho') - S(rho) (see quantumness.deficit_for_basis).
Its dephased entropy S(rho') counts every positive eigenvalue, with no
``SUPPORT_CUTOFF`` (see quantumness._deficit_objective).  The trace
deficit's search also descends on a smoothed trace distance, but every
trace value it reports is computed here.

Cutoffs, each guarding one numerical hazard:

- ``SUPPORT_CUTOFF``: eigenvalues at or below it are exact zeros when
  taking logs.  Such eigenvalues of the first argument contribute nothing;
  such eigenvalues of the second argument force +infinity if the first
  argument has weight there.
- ``SUPPORT_LEAK_TOL``: weight of the state allowed outside the reference's
  support before the relative entropy is declared +infinity.
- ``FIDELITY_DUST``: eigenvalues of sqrt(rho) sigma sqrt(rho) below it are
  zeroed before the square root in the fidelity, which would amplify them.
- ``DEGENERACY_TOL``: eigenvalue gaps of sigma at or below it take the
  derivative of log2 instead of the divided difference in the
  relative-entropy gradient.
- ``BURES_NULL_TOL``: eigenvalues of sqrt(rho) sigma sqrt(rho) at or below
  it get no inverse square root in the Bures gradient.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qmat import DensityMatrix, InputError

SUPPORT_CUTOFF = 1e-12
# Pure numerical dust from 1e-9-validated states stays well below this.
SUPPORT_LEAK_TOL = 1e-10
FIDELITY_DUST = 1e-13
DEGENERACY_TOL = 1e-14
BURES_NULL_TOL = 1e-14

_LN2 = np.log(2.0)


class DistanceKind(Enum):
    RELATIVE_ENTROPY = "relative_entropy"
    TRACE = "trace"
    BURES = "bures"


def _check_same_dims(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.dims.dims != b.dims.dims:
        raise InputError(f"dimension mismatch: {a.dims.dims} vs {b.dims.dims}")


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam * log2 lam) in bits."""
    return entropy_of_spectrum(np.linalg.eigvalsh(rho.mat))


def entropy_of_spectrum(eigenvalues) -> float:
    w = np.asarray(eigenvalues, dtype=float)
    w = w[w > SUPPORT_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/d for maximally mixed."""
    return float(np.sum(np.abs(rho.mat) ** 2))


class Objective:
    """D(rho, sigma) and its gradient in sigma for one distance kind.

    The rho-dependent part is computed once: Tr[rho log2 rho] for the
    relative entropy, sqrt(rho) for Bures; the trace kind needs neither.
    rho is the state and sigma the reference, as in ``distance``.
    """

    def __init__(self, rho_mat: np.ndarray, kind: DistanceKind):
        self.kind = kind
        self.rho = rho_mat
        if kind is DistanceKind.RELATIVE_ENTROPY:
            self.neg_entropy = -entropy_of_spectrum(np.linalg.eigvalsh(rho_mat))
        elif kind is DistanceKind.BURES:
            w, v = np.linalg.eigh(rho_mat)
            self.sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        elif kind is not DistanceKind.TRACE:
            raise InputError(f"unknown distance kind {kind!r}")

    def value(self, sigma: np.ndarray) -> float:
        return self.evaluate(sigma, gradient=False)[0]

    def fidelity(self, sigma: np.ndarray) -> float:
        """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped
        to [0, 1]; Bures kind only."""
        return _fidelity_of_spectrum(
            np.linalg.eigvalsh(self.sqrt_rho @ sigma @ self.sqrt_rho))

    def evaluate(self, sigma: np.ndarray, gradient: bool = True):
        """(D(rho, sigma), its gradient in sigma) from one eigendecomposition
        of the matrix the kind reads.  With gradient=False the gradient is
        None, and the trace and Bures kinds take eigenvalues only."""
        if self.kind is DistanceKind.RELATIVE_ENTROPY:
            s, v = np.linalg.eigh(sigma)
            vr = v.conj().T @ self.rho
            weights = np.einsum("ij,ji->i", vr, v).real
            outside = s <= SUPPORT_CUTOFF
            if np.sum(np.clip(weights[outside], 0.0, None)) > SUPPORT_LEAK_TOL:
                value = np.inf
            else:
                keep = ~outside
                value = self.neg_entropy - float(np.sum(weights[keep]
                                                        * np.log2(s[keep])))
            if not gradient:
                return value, None
            s = np.clip(s, SUPPORT_CUTOFF, None)
            logs = np.log2(s)
            diff = s[:, None] - s[None, :]
            near = np.abs(diff) <= DEGENERACY_TOL
            safe_diff = np.where(near, 1.0, diff)
            core = np.where(near, 1.0 / (s[:, None] * _LN2),
                            (logs[:, None] - logs[None, :]) / safe_diff)
            grad_t = -(vr @ v) * core
            return value, v @ grad_t @ v.conj().T
        if self.kind is DistanceKind.TRACE:
            if not gradient:
                w = np.linalg.eigvalsh(self.rho - sigma)
                return float(0.5 * np.sum(np.abs(w))), None
            w, v = np.linalg.eigh(sigma - self.rho)
            return float(0.5 * np.sum(np.abs(w))), 0.5 * (v * np.sign(w)) @ v.conj().T
        if not gradient:
            return float(2.0 * (1.0 - np.sqrt(self.fidelity(sigma)))), None
        w, v = np.linalg.eigh(self.sqrt_rho @ sigma @ self.sqrt_rho)
        value = float(2.0 * (1.0 - np.sqrt(_fidelity_of_spectrum(w))))
        inv_sqrt = np.where(w > BURES_NULL_TOL,
                            1.0 / np.sqrt(np.clip(w, BURES_NULL_TOL, None)), 0.0)
        mid = (v * inv_sqrt) @ v.conj().T
        return value, -self.sqrt_rho @ mid @ self.sqrt_rho


def _fidelity_of_spectrum(w: np.ndarray) -> float:
    """(sum sqrt w)^2 over the eigenvalues of sqrt(rho) sigma sqrt(rho),
    dust zeroed, clipped to [0, 1]."""
    w = np.where(w < FIDELITY_DUST, 0.0, w)
    f = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(f, 0.0), 1.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho||sigma) in bits, +inf off support."""
    _check_same_dims(rho, sigma)
    return Objective(rho.mat, DistanceKind.RELATIVE_ENTROPY).value(sigma.mat)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """0.5 * tr|a - b|, in [0, 1]."""
    _check_same_dims(a, b)
    return Objective(a.mat, DistanceKind.TRACE).value(b.mat)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2, clipped to [0, 1]."""
    _check_same_dims(a, b)
    return Objective(a.mat, DistanceKind.BURES).fidelity(b.mat)


def bures_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """2 (1 - sqrt(F)), in [0, 2].

    This is the squared-free form used throughout the package; its triangle
    inequality is checked empirically, not assumed (see the audit module).
    """
    _check_same_dims(a, b)
    return Objective(a.mat, DistanceKind.BURES).value(b.mat)


def distance(kind: DistanceKind, a: DensityMatrix, b: DensityMatrix) -> float:
    """Dispatch D(a, b) for the chosen kind; a is the state, b the reference."""
    _check_same_dims(a, b)
    return Objective(a.mat, kind).value(b.mat)

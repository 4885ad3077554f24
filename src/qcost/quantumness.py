"""Local projective measurement channels and the one-way information deficit.

The deficit of a state across X|Y is the minimal distance between the
state and its dephased image under a rank-1 projective measurement on X,
minimized over measurement bases.  Only rank-1 (non-degenerate) projective
measurements are searched; this interpretation choice is documented in the
package README.  One kernel evaluates the deficit for both
``deficit_for_basis`` and the search, which parameterizes a qubit basis by
its Bloch angles and a qudit basis by U = exp(iH); for the relative-entropy
kind it reads the dephased spectrum off the d diagonal blocks of the state
in the measurement basis instead of building the dephased state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .measures import DistanceKind, Objective
from .qmat import (DensityMatrix, InputError, local_channel,
                   permute_subsystems)

_PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete set of rank-1 orthogonal projectors on one subsystem."""

    subsystem: str
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        d = projs[0].shape[0]
        acc = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (d, d):
                raise InputError("projectors must share one square shape")
            if abs(np.trace(p) - 1.0) > _PROJECTOR_TOL:
                raise InputError(f"projector {i} is not rank-1 (trace {np.trace(p)!r})")
            if np.max(np.abs(p @ p - p)) > _PROJECTOR_TOL:
                raise InputError(f"projector {i} is not idempotent")
            for q in projs[:i]:
                if np.max(np.abs(p @ q)) > _PROJECTOR_TOL:
                    raise InputError("projectors are not mutually orthogonal")
            acc += p
        if np.max(np.abs(acc - np.eye(d))) > _PROJECTOR_TOL:
            raise InputError("projectors do not sum to the identity")
        for p in projs:
            p.setflags(write=False)
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_unitary(cls, subsystem: str, unitary: np.ndarray) -> "MeasurementBasis":
        """Basis whose projectors are onto the unitary's columns."""
        return cls(subsystem, _column_projectors(np.asarray(unitary, dtype=complex)))

    @property
    def local_dim(self) -> int:
        return self.projectors[0].shape[0]


def computational_basis(subsystem: str, d: int) -> MeasurementBasis:
    """Projectors |i><i| for i = 0..d-1."""
    if d < 2:
        raise InputError("measurement needs local dimension >= 2")
    eye = np.eye(d, dtype=complex)
    return MeasurementBasis(subsystem, tuple(np.outer(eye[:, i], eye[:, i])
                                             for i in range(d)))


def measure_channel(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """sum_i Pi_i rho Pi_i, the projectors acting on the basis's subsystem."""
    return DensityMatrix.trusted(
        local_channel(rho.mat, rho.dims, (basis.subsystem,), basis.projectors),
        rho.dims)


def deficit_for_basis(rho: DensityMatrix, basis: MeasurementBasis,
                      kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY) -> float:
    """D(rho, measured rho) for one fixed measurement basis.

    For the relative-entropy kind this equals S(rho') - S(rho): the
    dephased state satisfies Tr[rho log rho'] = Tr[rho' log rho'].
    """
    d = rho.dims.dim_of(basis.subsystem)
    if basis.local_dim != d:
        raise InputError(f"basis dimension {basis.local_dim} != dimension {d} "
                         f"of {basis.subsystem}")
    return _deficit_objective(rho, basis.subsystem, kind)(np.array(basis.projectors))


def one_way_deficit(rho: DensityMatrix, subsystem: str,
                    kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
                    cfg: optim.OptimizerConfig | None = None,
                    ) -> tuple[float, MeasurementBasis]:
    """Upper bound on the one-way deficit across subsystem|rest.

    Minimizes deficit_for_basis's kernel over rank-1 projective bases:
    Bloch angles (theta, phi) for a qubit, U = exp(iH) from d*d parameters
    otherwise.  The value is exactly deficit_for_basis of the returned
    basis.  The computational basis (all-zero parameters, exactly the
    identity) is one of the starts, and Nelder-Mead never returns more than
    its start's value, so the result never exceeds that basis's deficit.
    """
    cfg = cfg or optim.OptimizerConfig()
    d = rho.dims.dim_of(subsystem)
    n_params = 2 if d == 2 else d * d
    objective = _deficit_objective(rho, subsystem, kind)

    def deficit(params: np.ndarray) -> float:
        return objective(np.array(_column_projectors(_basis_unitary(params, d))))
    res = optim.minimize(deficit, n_params, cfg, extra_starts=[np.zeros(n_params)])
    return res.best_value, MeasurementBasis.from_unitary(
        subsystem, _basis_unitary(res.best_params, d))


def _column_projectors(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rank-1 projectors onto the columns of u, one np.outer per column."""
    return tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(u.shape[1]))


def _basis_unitary(params: np.ndarray, d: int) -> np.ndarray:
    """Measurement basis as unitary columns: Bloch angles for a qubit,
    exp(iH) otherwise; all-zero parameters give the computational basis."""
    if d == 2:
        return optim.bloch_unitary(params)
    return optim.param_to_unitary(params, d)


def _deficit_objective(rho: DensityMatrix, subsystem: str, kind: DistanceKind):
    """P -> D(rho, sum_i P_i rho P_i) for a (d, d, d) stack of rank-1
    projectors P_i on subsystem: the one evaluator of the deficit.

    For the relative entropy this is S(rho') - S(rho).  In the measurement
    basis rho' is block-diagonal, so its spectrum is the union of the
    spectra of the d blocks Tr_X[P_i rho] (contracted on the measured
    factor): one einsum and one batched eigvalsh, no dephased matrix.
    Every positive eigenvalue counts in S(rho'): -w log w is continuous at
    0, so unlike a support cutoff it leaves no jump for the search to
    exploit by pushing eigenvalues just below the cutoff.
    """
    objective = Objective(rho.mat, kind)
    if kind is not DistanceKind.RELATIVE_ENTROPY:
        return lambda projectors: objective.value(
            local_channel(rho.mat, rho.dims, (subsystem,), projectors))

    d = rho.dims.dim_of(subsystem)
    r = rho.dims.total_dim // d
    rest = tuple(l for l in rho.labels if l != subsystem)
    t = permute_subsystems(rho, rest + (subsystem,)).mat.reshape(r, d, r, d)

    def entropy_gain(projectors: np.ndarray) -> float:
        w = np.linalg.eigvalsh(np.einsum("iyx,rxsy->irs", projectors, t))
        w = w[w > 0.0]
        return float(-np.sum(w * np.log2(w))) + objective.neg_entropy
    return entropy_gain

"""Local projective measurement channels and the one-way information deficit.

The deficit of a state across X|Y is the minimal distance between the
state and its dephased image under a rank-1 projective measurement on X,
minimized over measurement bases.  Only rank-1 (non-degenerate) projective
measurements are searched; this interpretation choice is documented in the
package README.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .measures import DistanceKind, Objective, distance, entropy_of_spectrum
from .qmat import DensityMatrix, InputError, SubsystemDims, embed_local

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
        u = np.asarray(unitary, dtype=complex)
        return cls(subsystem, tuple(np.outer(u[:, i], u[:, i].conj())
                                    for i in range(u.shape[1])))

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


def _embedded_projectors(basis: MeasurementBasis, dims: SubsystemDims):
    if basis.local_dim != dims.dim_of(basis.subsystem):
        raise InputError(
            f"basis on {basis.subsystem!r} has dimension {basis.local_dim}, "
            f"state has {dims.dim_of(basis.subsystem)}"
        )
    return [embed_local(p, basis.subsystem, dims) for p in basis.projectors]


def _dephase(mat: np.ndarray, embedded) -> np.ndarray:
    out = np.zeros_like(mat)
    for p in embedded:
        out += p @ mat @ p
    return out


def measure_channel(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """sum_i Pi_i rho Pi_i for the embedded local projectors."""
    embedded = _embedded_projectors(basis, rho.dims)
    return DensityMatrix.trusted(_dephase(rho.mat, embedded), rho.dims)


def deficit_for_basis(rho: DensityMatrix, basis: MeasurementBasis,
                      kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY) -> float:
    """D(rho, measured rho) for one fixed measurement basis.

    For the relative-entropy kind this equals S(rho') - S(rho): the
    dephased state satisfies Tr[rho log rho'] = Tr[rho' log rho'].
    """
    return distance(kind, rho, measure_channel(rho, basis))


def one_way_deficit(rho: DensityMatrix, subsystem: str,
                    kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
                    cfg: optim.OptimizerConfig | None = None,
                    ) -> tuple[float, MeasurementBasis]:
    """Upper bound on the one-way deficit across subsystem|rest.

    Minimizes deficit_for_basis over rank-1 projective bases parameterized
    by a local unitary; the computational basis is always one of the
    candidate starts, so the result never exceeds its deficit.
    """
    cfg = cfg or optim.OptimizerConfig()
    d = rho.dims.dim_of(subsystem)
    pos = rho.dims.index_of(subsystem)
    dims = rho.dims.dims
    before = int(np.prod(dims[:pos])) if pos else 1
    after = int(np.prod(dims[pos + 1:])) if pos + 1 < len(dims) else 1

    objective = Objective(rho.mat, kind)
    eye_b = np.eye(before)
    eye_a = np.eye(after)

    def value(params: np.ndarray) -> float:
        u = optim.param_to_unitary(params, d)
        embedded = [np.kron(np.kron(eye_b, np.outer(u[:, i], u[:, i].conj())), eye_a)
                    for i in range(d)]
        m = _dephase(rho.mat, embedded)
        if kind is DistanceKind.RELATIVE_ENTROPY:
            # S(m) - S(rho) by the identity in deficit_for_basis: one
            # eigvalsh instead of the full functional's eigh.
            return entropy_of_spectrum(np.linalg.eigvalsh(m)) + objective.neg_entropy
        return objective.value(m)

    res = optim.minimize(value, d * d, cfg, extra_starts=[np.zeros(d * d)])
    best_basis = MeasurementBasis.from_unitary(
        subsystem, optim.param_to_unitary(res.best_params, d))
    return deficit_for_basis(rho, best_basis, kind), best_basis

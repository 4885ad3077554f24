"""Local projective measurement channels and the one-way information deficit.

The deficit of a state across X|Y is the minimal distance between the
state and its dephased image under a rank-1 projective measurement on X,
minimized over measurement bases.  Only rank-1 (non-degenerate) projective
measurements are searched; this interpretation choice is documented in the
package README.  A measurement basis is the unitary whose columns are the
measured vectors.  One kernel, a function of the stack of projectors onto
those columns, evaluates the deficit for both ``deficit_for_basis`` and the
search, which parameterizes a qubit basis by its Bloch angles and a qudit
basis by U = exp(iH); for the relative-entropy kind it reads the dephased
spectrum off the d diagonal blocks of the state in the measurement basis
instead of building the dephased state.  The trace kind's search descends
on measures.Objective's smoothed trace distance but reports exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import optim
from .measures import DistanceKind, Objective, entropy_of_spectrum
from .qmat import (DensityMatrix, InputError, local_channel,
                   permute_subsystems)

_UNITARY_TOL = 1e-10
_LN2 = np.log(2.0)
# The trace deficit's optimum usually sits where an eigenvalue of the
# measured state minus the state crosses zero: a kink, on which L-BFGS-B
# stalls.  Its search runs on Objective's smoothed trace distance for each
# width w in turn, widest first, which is within n w / 2 of the exact one.
_TRACE_SMOOTHING = tuple(10.0 ** -k for k in range(3, 13))


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement on one subsystem, stored as the
    read-only unitary whose columns are the measured vectors.  Checking
    U^dag U = I makes the column projectors a complete orthogonal set;
    their read-only stack is built on first access."""

    subsystem: str
    unitary: np.ndarray

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InputError(f"basis unitary must be square, got shape {u.shape}")
        if u.shape[0] < 2:
            raise InputError("measurement needs local dimension >= 2")
        if not np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= _UNITARY_TOL:
            raise InputError("basis matrix is not unitary")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @property
    def local_dim(self) -> int:
        return self.unitary.shape[0]

    @cached_property
    def projectors(self) -> np.ndarray:
        """(d, d, d) stack of the projectors onto the unitary's columns."""
        p = _column_projectors(self.unitary)
        p.setflags(write=False)
        return p


@lru_cache(maxsize=256)
def computational_basis(subsystem: str, d: int) -> MeasurementBasis:
    """Projectors |i><i| for i = 0..d-1; one shared basis per (subsystem, d)."""
    return MeasurementBasis(subsystem, np.eye(d))


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
    return _deficit_objective(rho, basis.subsystem, kind)(basis.unitary)


def one_way_deficit(rho: DensityMatrix, subsystem: str,
                    kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
                    cfg: optim.OptimizerConfig | None = None,
                    ) -> tuple[float, MeasurementBasis]:
    """Upper bound on the one-way deficit across subsystem|rest.

    Minimizes deficit_for_basis's kernel over rank-1 projective bases with
    its analytic gradient: Bloch angles (theta, phi) for a qubit,
    U = exp(iH) from d*d parameters otherwise.  Every kind takes one path:
    a multi-start search whose starts include the computational basis
    (all-zero parameters, exactly the identity), then, for the trace kind
    only, one descent per narrower width of _TRACE_SMOOTHING from the last
    point, the search having run on the widest.  The result is the lowest
    exact deficit among the computational basis and the points the widths
    end at, so it is exactly deficit_for_basis of the returned basis and
    never exceeds the computational basis's deficit.
    """
    cfg = cfg or optim.OptimizerConfig()
    d = rho.dims.dim_of(subsystem)
    n_params = 2 if d == 2 else d * d
    start = np.zeros(n_params)
    exact = _deficit_objective(rho, subsystem, kind)
    kernels = ([_deficit_objective(rho, subsystem, kind, w) for w in _TRACE_SMOOTHING]
               if kind is DistanceKind.TRACE else [exact])
    widest, *narrower = [_in_parameters(k, d) for k in kernels]
    x = optim.minimize(widest, n_params, cfg, extra_starts=[start]).best_params
    points = [start, x]
    for smoothed in narrower:
        _, x, _ = optim.descend(smoothed, x, "L-BFGS-B",
                                optim.lbfgsb_options(cfg.max_evals_per_start))
        points.append(x)
    values = [exact(_basis_unitary(p, d)) for p in points]
    best = values.index(min(values))
    return values[best], MeasurementBasis(subsystem, _basis_unitary(points[best], d))


def _in_parameters(objective, d: int):
    """The kernel as a function of basis parameters: (value, gradient)."""
    def value_and_gradient(params: np.ndarray) -> tuple[float, np.ndarray]:
        u, pullback = _basis_with_pullback(params, d)
        value, grad_u = objective(u, gradient=True)
        return value, pullback(grad_u)
    return value_and_gradient


def _column_projectors(u: np.ndarray) -> np.ndarray:
    """(d, d, d) stack of the projectors onto the columns of u, contiguous
    so that einsum sums it in the same order as stacked np.outer products."""
    return np.ascontiguousarray(u.T[:, :, None] * u.T.conj()[:, None, :])


def _basis_with_pullback(params: np.ndarray, d: int):
    """Measurement basis as unitary columns, with the pullback of a
    gradient in conj(U) to the parameters: Bloch angles for a qubit,
    exp(iH) otherwise; all-zero parameters give the computational basis."""
    if d == 2:
        return optim.bloch_with_pullback(params)
    return optim.unitary_with_pullback(params, d)


def _basis_unitary(params: np.ndarray, d: int) -> np.ndarray:
    return _basis_with_pullback(params, d)[0]


def _deficit_objective(rho: DensityMatrix, subsystem: str, kind: DistanceKind,
                       smoothing: float = 0.0):
    """u -> D(rho, sum_i P_i rho P_i), with P_i the projector onto column
    u_i of the unitary u on subsystem: the one evaluator of the deficit.
    With gradient=True it returns (value, G), where column i of G is the
    derivative in conj(u_i).

    In the frame (rest, subsystem) the measured state is
    sum_i B_i (x) P_i with blocks B_i = <u_i| rho |u_i> (contracted on the
    measured factor).  For the relative entropy the value is
    S(rho') - S(rho), read off the spectra of the d blocks.  Every positive
    eigenvalue counts in S(rho'): -w log w is continuous at 0, so unlike a
    support cutoff it leaves no jump for the search to exploit by pushing
    eigenvalues just below the cutoff.  Its derivative in B_i is
    -(log2 B_i + I/ln 2) on B_i's support; the null eigenvalues of a
    rank-deficient rho stay at 0 to first order, so they contribute none.
    For trace and Bures the distance's gradient F in the measured state
    pulls back to F_i = <u_i| F |u_i> on the blocks and to B_i on P_i.
    Either way G's column i is M_i u_i, with
    M_i[x, y] = sum_rs Gamma_i[s, r] t[r, x, s, y] over the block gradient
    Gamma_i.  The eigendecompositions are the same with and without the
    gradient, so both return the same value.  The smoothing is
    ``Objective``'s, so it takes the trace kind only.
    """
    d = rho.dims.dim_of(subsystem)
    r = rho.dims.total_dim // d
    rest = tuple(l for l in rho.labels if l != subsystem)
    t = permute_subsystems(rho, rest + (subsystem,)).mat.reshape(r, d, r, d)

    def pull(gamma: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.einsum("isr,rxsy->ixy", gamma, m)

    if kind is DistanceKind.RELATIVE_ENTROPY:
        neg_entropy = -entropy_of_spectrum(rho.eigenvalues)

        def entropy_gain(u: np.ndarray, gradient: bool = False):
            projectors = _column_projectors(u)
            w, v = np.linalg.eigh(np.einsum("iyx,rxsy->irs", projectors, t))
            support = w > 0.0
            pos = w[support]
            value = float(-(pos * np.log2(pos)).sum()) + neg_entropy
            if not gradient:
                return value
            slope = np.zeros_like(w)
            slope[support] = -(np.log2(pos) + 1.0 / _LN2)
            gamma = np.einsum("irk,ik,isk->irs", v, slope, v.conj())
            return value, np.einsum("ixy,yi->xi", pull(gamma, t), u)
        return entropy_gain

    n = rho.dims.total_dim
    distance = Objective(t.reshape(n, n), kind, smoothing).evaluate

    def distance_gain(u: np.ndarray, gradient: bool = False):
        projectors = _column_projectors(u)
        blocks = np.einsum("iyx,rxsy->irs", projectors, t)
        measured = np.einsum("irs,ixy->rxsy", blocks, projectors)
        value, f = distance(measured.reshape(n, n))
        if not gradient:
            return value
        f = f.reshape(r, d, r, d)
        gamma = np.einsum("iyx,rxsy->irs", projectors, f)
        m = pull(gamma, t) + pull(blocks, f)
        return value, np.einsum("ixy,yi->xi", m, u)
    return distance_gain

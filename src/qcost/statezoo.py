"""Named states and seeded random-state ensembles.

Random families are counter-addressed: sample i of a run is a pure
function of (seed, i), so campaigns can be sharded or resumed without
replaying the stream.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .qmat import DensityMatrix, InputError, SubsystemDims, vector_state

TRIPARTITE_QUBITS = SubsystemDims(("A", "B", "C"), (2, 2, 2))


def ghz_vector() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return v


def ghz_state() -> DensityMatrix:
    """(|000> + |111>)/sqrt(2) on three qubits, as a projector."""
    return vector_state(ghz_vector(), TRIPARTITE_QUBITS)


def eta_state() -> DensityMatrix:
    """Three-qubit state mixing the GHZ projector (weight 1/3) with the
    computational projectors 001, 010, 101, 110 (weight 1/6 each).

    Spectrum {1/3, 1/6, 1/6, 1/6, 1/6, 0, 0, 0}; separable across both the
    AC|B and AB|C cuts yet quantum correlated across C|AB.
    """
    ghz = ghz_vector()
    mat = np.outer(ghz, ghz.conj()) / 3.0
    for i in (0b001, 0b010, 0b101, 0b110):
        mat[i, i] += 1.0 / 6.0
    return DensityMatrix.trusted(mat, TRIPARTITE_QUBITS)


def eta_separable_ensemble(cut_left: str = "AC"):
    """Exact six-term product decomposition of eta across AC|B or AB|C.

    Returns (weights, left, right) as stacked rows in the local basis of
    the cut: left (6, 4) on the grouped left factor, right (6, 2) on the
    qubit.  The four phase terms decompose the GHZ-subspace Bell-diagonal
    block, the two computational terms carry the remaining diagonal weight.
    """
    if cut_left not in ("AC", "AB"):
        raise InputError("eta is only separable across AC|B and AB|C")
    s2 = 1.0 / np.sqrt(2.0)
    left, right = [], []
    for phase, (r0, r1) in [
        (1.0, (s2, s2)),        # x+
        (-1.0, (s2, -s2)),      # x-
        (1j, (s2, -1j * s2)),   # y-
        (-1j, (s2, 1j * s2)),   # y+
    ]:
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = s2, s2 * phase
        left.append(v)
        right.append(np.array([r0, r1], dtype=complex))
    e0 = np.zeros(4, dtype=complex)
    e0[1] = 1.0
    e1 = np.zeros(4, dtype=complex)
    e1[2] = 1.0
    left += [e0, e1]
    right += [np.array([1.0, 0j]), np.array([0j, 1.0])]
    weights = np.full(6, 1.0 / 6.0)
    return weights, np.array(left), np.array(right)


def haar_pure(dims: SubsystemDims, seed: int, index: int) -> np.ndarray:
    """Haar-distributed unit vector, counter-addressed by (seed, index)."""
    z = rng.complex_normals(seed, index, dims.total_dim, purpose=rng.PURPOSE_HAAR)
    return z / np.linalg.norm(z)


def ginibre_mixed(dims: SubsystemDims, rank: int, seed: int, index: int) -> DensityMatrix:
    """G G^dag / tr(G G^dag) for a (dim x rank) complex Gaussian G."""
    d = dims.total_dim
    if not 1 <= rank <= d:
        raise InputError(f"rank {rank} outside [1, {d}]")
    g = rng.complex_normals(seed, index, d * rank, purpose=rng.PURPOSE_GINIBRE)
    g = g.reshape(d, rank)
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix.trusted(mat, dims)


def haar_unitary(d: int, seed: int, index: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    g = rng.complex_normals(seed, index, d * d, purpose=rng.PURPOSE_UNITARY).reshape(d, d)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph

"""Reference computations for the benchmark's output checks.

Nothing here calls qcost.  Partial traces are einsum contractions, the
dephasing zeroes off-diagonal blocks, the relative entropy uses
``scipy.linalg.logm``, the fidelity ``scipy.linalg.sqrtm`` and the trace
distance singular values, where the program uses eigendecompositions.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

_LETTERS = "abcdefghijklmnop"


def entropy(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


def reduced(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced state on the subsystem positions in ``keep`` (kept in order)."""
    n = len(dims)
    rows = list(_LETTERS[:n])
    cols = list(_LETTERS[n:2 * n])
    for i in range(n):
        if i not in keep:
            cols[i] = rows[i]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    d = int(np.prod([dims[i] for i in keep]))
    t = mat.reshape(tuple(dims) * 2)
    return np.einsum("".join(rows) + "".join(cols) + "->" + out, t).reshape(d, d)


def lower_bound_a_bc(mat: np.ndarray) -> float:
    """max(0, S_A - S, S_BC - S) of a (2,2,2) state: the certified lower
    bound on E(A|BC) that the central-bound audit uses."""
    s = entropy(mat)
    s_a = entropy(reduced(mat, (2, 2, 2), [0]))
    s_bc = entropy(reduced(mat, (2, 2, 2), [1, 2]))
    return max(0.0, s_a - s, s_bc - s)


def dephase(mat: np.ndarray, dims, pos: int, unitary=None) -> np.ndarray:
    """Measure subsystem ``pos`` in the basis of the unitary's columns
    (computational basis when None): rotate into that basis, zero the
    blocks that are off-diagonal in the subsystem, rotate back."""
    n = len(dims)
    d = dims[pos]
    m = np.asarray(mat, dtype=complex)
    if unitary is not None:
        full = _local(np.asarray(unitary).conj().T, dims, pos)
        m = full @ m @ full.conj().T
    shape = [1] * (2 * n)
    shape[pos] = shape[n + pos] = d
    mask = np.eye(d).reshape(shape)
    out = (m.reshape(tuple(dims) * 2) * mask).reshape(m.shape)
    if unitary is not None:
        out = full.conj().T @ out @ full
    return out


def _local(op: np.ndarray, dims, pos: int) -> np.ndarray:
    before = int(np.prod(dims[:pos]))
    after = int(np.prod(dims[pos + 1:]))
    return np.kron(np.kron(np.eye(before), op), np.eye(after))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[rho (log rho - log sigma)] in bits, both arguments full rank."""
    diff = sla.logm(rho) - sla.logm(sigma)
    return float(np.real(np.trace(rho @ diff)) / np.log(2.0))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.sum(sla.svdvals(a - b)))


def bures_distance(a: np.ndarray, b: np.ndarray) -> float:
    ra = sla.sqrtm(a)
    f = float(np.real(np.trace(sla.sqrtm(ra @ b @ ra)))) ** 2
    return 2.0 * (1.0 - np.sqrt(min(max(f, 0.0), 1.0)))


DISTANCES = {
    "relative_entropy": relative_entropy,
    "trace": trace_distance,
    "bures": bures_distance,
}


def schmidt_entropy(psi: np.ndarray, dims, pos) -> float:
    """Entropy of the reduced state on positions ``pos`` of a pure state,
    from the Schmidt coefficients of the state vector."""
    n = len(dims)
    rest = [i for i in range(n) if i not in pos]
    t = np.transpose(np.asarray(psi).reshape(dims), list(pos) + rest)
    d = int(np.prod([dims[i] for i in pos]))
    s = sla.svdvals(t.reshape(d, -1))
    return shannon(s ** 2)


def apply_local_unitary(psi: np.ndarray, dims, pos, unitary) -> np.ndarray:
    """Apply a unitary on the subsystem positions ``pos`` (in that order)."""
    n = len(dims)
    rest = [i for i in range(n) if i not in pos]
    order = list(pos) + rest
    t = np.transpose(np.asarray(psi).reshape(dims), order)
    d = int(np.prod([dims[i] for i in pos]))
    t = (np.asarray(unitary) @ t.reshape(d, -1)).reshape(t.shape)
    return np.transpose(t, np.argsort(order)).reshape(-1)


def partial_transpose_min(mat: np.ndarray, dims, pos) -> float:
    """Smallest eigenvalue of the partial transpose on positions ``pos``."""
    n = len(dims)
    axes = list(range(2 * n))
    for i in pos:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    pt = mat.reshape(tuple(dims) * 2).transpose(axes).reshape(mat.shape)
    return float(np.linalg.eigvalsh(pt)[0])


def eta_matrix() -> np.ndarray:
    """The worked example's three-qubit state: GHZ with weight 1/3 plus the
    computational projectors 001, 010, 101, 110 with weight 1/6 each."""
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    mat = np.outer(ghz, ghz) / 3.0
    for i in (0b001, 0b010, 0b101, 0b110):
        mat[i, i] += 1.0 / 6.0
    return mat.astype(complex)

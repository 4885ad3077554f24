"""Dense complex linear algebra for small composite quantum systems.

States live on a tensor product of labelled subsystems.  The global basis
index is row-major over the label order: for labels (A, B, C) with
dimensions (d_A, d_B, d_C), basis state |a b c> sits at index
``a * d_B * d_C + b * d_C + c``.  All file I/O and every operation in the
package uses this one convention.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Desk-scale guard: dense storage only, tripartite qudit systems.
MAX_TOTAL_DIM = 64

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_DUST = 1e-9


class InputError(ValueError):
    """Invalid argument to a public operation (CLI maps this to exit 2)."""


@dataclass(frozen=True)
class SubsystemDims:
    """Ordered subsystem labels with their local dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        try:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        except (TypeError, ValueError):
            raise InputError(f"dims must be integers, got {self.dims!r}") from None
        if len(self.labels) != len(self.dims):
            raise InputError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise InputError(f"labels must be unique, got {self.labels}")
        if any(d < 2 for d in self.dims):
            raise InputError(f"every subsystem dimension must be >= 2, got {self.dims}")
        if self.total_dim > MAX_TOTAL_DIM:
            raise InputError(
                f"total dimension {self.total_dim} exceeds MAX_TOTAL_DIM={MAX_TOTAL_DIM}"
            )

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown subsystem label {label!r}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def subset_dim(self, labels: Iterable[str]) -> int:
        return int(np.prod([self.dim_of(l) for l in labels])) if labels else 1


@dataclass(frozen=True)
class Bipartition:
    """A grouping X|Y of the subsystem labels (both sides nonempty)."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if not self.left or not self.right:
            raise InputError("both sides of a bipartition must be nonempty")
        labels = self.left + self.right
        if len(set(labels)) != len(labels):
            raise InputError(f"bipartition repeats a label: {labels}")

    def validate_against(self, dims: SubsystemDims) -> None:
        if set(self.left) | set(self.right) != set(dims.labels):
            raise InputError(
                f"bipartition {self} does not cover labels {dims.labels}"
            )

    @classmethod
    def parse(cls, text: str, labels: Sequence[str]) -> "Bipartition":
        """Parse a cut string like ``"AC|B"`` against the given labels."""
        parts = text.split("|")
        if len(parts) != 2:
            raise InputError(f"cut must contain exactly one '|', got {text!r}")
        left = tuple(ch for ch in parts[0])
        right = tuple(ch for ch in parts[1])
        for l in left + right:
            if l not in labels:
                raise InputError(f"cut {text!r} mentions unknown label {l!r}")
        cut = cls(left, right)
        if set(left) | set(right) != set(labels):
            raise InputError(f"cut {text!r} does not cover all labels {labels}")
        return cut

    def __str__(self):
        return "".join(self.left) + "|" + "".join(self.right)


def _as_complex_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, unit-trace, positive-semidefinite operator.

    Construction checks Hermiticity and trace to 1e-9.  Eigenvalues in
    [-1e-9, 0) are numerical dust: they are clipped to zero and the state
    renormalized.  Anything more negative is a hard error.  ``trusted``
    is the one unchecked path, for matrices valid by construction.

    Two states are equal when their dims and matrices are exactly equal.
    States are unhashable, like the numpy arrays they hold.
    """

    mat: np.ndarray
    dims: SubsystemDims

    def __post_init__(self):
        self._set_matrix(self.mat)
        m = self.mat
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise InputError(f"matrix is not Hermitian: residual {herm:.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InputError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL}")
        w, v = np.linalg.eigh(m)
        if w[0] < -EIGENVALUE_DUST:
            raise InputError(
                f"matrix has eigenvalue {w[0]:.3e} below -{EIGENVALUE_DUST}"
            )
        if w[0] < 0.0:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            self._set_matrix(m / np.trace(m).real)

    def _set_matrix(self, mat) -> None:
        m = _as_complex_matrix(mat)
        if m.shape[0] != self.dims.total_dim:
            raise InputError(
                f"matrix dimension {m.shape[0]} != product of dims {self.dims.total_dim}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.mat, other.mat))

    @classmethod
    def trusted(cls, mat: np.ndarray, dims: SubsystemDims) -> "DensityMatrix":
        """Wrap a matrix that is valid by construction: only its shape is
        checked, not Hermiticity, trace or eigenvalues."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        rho._set_matrix(mat)
        return rho

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dims.labels

    @property
    def dim(self) -> int:
        return self.dims.total_dim


def vector_state(psi, dims: SubsystemDims) -> DensityMatrix:
    """Projector |psi><psi| onto a unit vector, as a DensityMatrix."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != dims.total_dim:
        raise InputError(f"vector length {v.shape[0]} != total dim {dims.total_dim}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise InputError(f"vector norm {norm!r} differs from 1 by more than 1e-9")
    v = v / norm
    return DensityMatrix.trusted(np.outer(v, v.conj()), dims)


def partial_trace(rho: DensityMatrix, traced: Iterable[str]) -> DensityMatrix:
    """Reduced state after tracing out the given labels (order preserved)."""
    traced = list(traced)
    if not traced:
        raise InputError("must trace out at least one subsystem")
    idx = sorted(rho.dims.index_of(l) for l in traced)
    if len(idx) >= len(rho.labels):
        raise InputError("cannot trace out every subsystem")
    dims = rho.dims.dims
    n = len(dims)
    t = rho.mat.reshape(dims * 2)
    remaining = n
    for i in reversed(idx):  # high to low keeps lower axis positions stable
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    keep = [i for i in range(n) if i not in idx]
    new_dims = SubsystemDims(
        tuple(rho.labels[i] for i in keep), tuple(dims[i] for i in keep)
    )
    d = new_dims.total_dim
    return DensityMatrix.trusted(t.reshape(d, d), new_dims)


def partial_transpose_matrix(mat: np.ndarray, dims: Sequence[int],
                             parts: Sequence[int]) -> np.ndarray:
    """Transpose the given tensor factors of a square matrix."""
    if len(set(parts)) != len(parts):
        raise InputError(f"partial transpose repeats a factor: {list(parts)}")
    m = _as_complex_matrix(mat)
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    axes = list(range(2 * n))
    for i in parts:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


def partial_transpose(rho: DensityMatrix, part: Iterable[str]) -> np.ndarray:
    """Transpose on the designated factors; Hermitian but possibly not PSD."""
    part = list(part)
    if not part:
        raise InputError("partial transpose needs at least one label")
    idx = [rho.dims.index_of(l) for l in part]
    return partial_transpose_matrix(rho.mat, rho.dims.dims, idx)


def permute_matrix(mat: np.ndarray, dims: Sequence[int],
                   perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a square matrix; perm[k] = old position
    of the factor that ends up in slot k."""
    m = _as_complex_matrix(mat)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise InputError(f"{perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(tuple(dims) * 2)
    axes = list(perm) + [p + n for p in perm]
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(axes)).reshape(d, d)


def permute_subsystems(rho: DensityMatrix, new_order: Sequence[str]) -> DensityMatrix:
    """Same operator in a reordered tensor basis (pure entry reshuffling)."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(rho.labels):
        raise InputError(f"{new_order} is not a permutation of {rho.labels}")
    perm = [rho.dims.index_of(l) for l in new_order]
    mat = permute_matrix(rho.mat, rho.dims.dims, perm)
    dims = SubsystemDims(new_order, tuple(rho.dims.dims[p] for p in perm))
    return DensityMatrix.trusted(mat, dims)


def embed_local(op: np.ndarray, target: str, dims: SubsystemDims) -> np.ndarray:
    """Tensor ``op`` into its slot with identities on every other factor."""
    op = _as_complex_matrix(op)
    pos = dims.index_of(target)
    if op.shape[0] != dims.dims[pos]:
        raise InputError(
            f"operator dimension {op.shape[0]} != subsystem dimension {dims.dims[pos]}"
        )
    before = int(np.prod(dims.dims[:pos])) if pos else 1
    after = int(np.prod(dims.dims[pos + 1:])) if pos + 1 < len(dims.dims) else 1
    return np.kron(np.kron(np.eye(before), op), np.eye(after))


def local_channel(mat: np.ndarray, dims: SubsystemDims, held: Sequence[str],
                  ops) -> np.ndarray:
    """sum_k K mat K^dag, each K acting on the ``held`` factors (in the
    given order) and as the identity on every other factor.

    The held factors are permuted to the front, so the matrix splits as
    (held, rest, held, rest) and each K contracts one held index from the
    left and one from the right, without building kron(K, I).
    """
    held = tuple(held)
    if not held or len(set(held)) != len(held):
        raise InputError(f"held labels must be nonempty and distinct, got {held}")
    order = held + tuple(l for l in dims.labels if l not in held)
    perm = [dims.index_of(l) for l in order]
    dh = dims.subset_dim(held)
    dr = dims.total_dim // dh
    t = permute_matrix(mat, dims.dims, perm).reshape(dh, dr * dh * dr)
    out = np.zeros((dh, dr, dh, dr), dtype=complex)
    for k in ops:
        k = _as_complex_matrix(k)
        if k.shape[0] != dh:
            raise InputError(
                f"operator dimension {k.shape[0]} != dimension {dh} of {held}"
            )
        x = (k @ t).reshape(dh, dr, dh, dr)
        out += np.swapaxes(np.swapaxes(x, 2, 3) @ k.conj().T, 2, 3)
    inv = [order.index(l) for l in dims.labels]
    return permute_matrix(out.reshape(dh * dr, dh * dr),
                          [dims.dims[p] for p in perm], inv)


# ----------------------------------------------------------------------
# State file format: JSON with explicit [re, im] entry pairs, matrix rows
# in the global index convention above, reals at full round-trip precision.
# ----------------------------------------------------------------------

def matrix_to_json(mat: np.ndarray) -> list:
    m = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        return np.array([[complex(e[0], e[1]) for e in row] for row in data])
    except (TypeError, IndexError) as exc:
        raise InputError(f"malformed matrix entries: {exc}") from exc


def state_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "labels": list(rho.labels),
        "dims": list(rho.dims.dims),
        "matrix": matrix_to_json(rho.mat),
    }


def state_from_json_dict(data: dict) -> DensityMatrix:
    try:
        labels = data["labels"]
        dims = data["dims"]
        matrix = data["matrix"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"state file missing field: {exc}") from exc
    sd = SubsystemDims(tuple(labels), tuple(dims))
    return DensityMatrix(matrix_from_json(matrix), sd)


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json_dict(rho), fh)
        fh.write("\n")


def load_state(path) -> DensityMatrix:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    return state_from_json_dict(data)

"""Entanglement measures: closest-separable-state upper bounds, analytic
pure-state values, coherent-information lower bounds, and PPT checks.

A separable ensemble is stored as stacked rows: weights (k,), left (k, dx)
and right (k, dy), row j of left and right being the j-th product term.
The search's working set and the returned ensemble share that format, and
one kernel, sum_j w_j |v_j><v_j| over the stacked product rows v_j,
materializes every separable mixture.

The upper-bound search exploits that all three distance kinds are convex
in the separable argument.  It runs in two stages.  A short
conditional-gradient (Frank-Wolfe) warm start moves the candidate ensemble
toward the state, adding one product state per step (found by alternating
local eigenvector descent) and re-solving the convex weight subproblem
over the collected atoms.  One L-BFGS-B polish (Byrd, Lu, Nocedal and
Zhu, 1995) then moves every row and weight of that ensemble at once,
through unnormalised rows whose norms carry the weights.  The result is
always a certified member of the separable set together with its honestly
recomputed distance, i.e. a sound upper bound; no global-optimality claim
is made, and the search does not report why it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import rng
from .measures import (DistanceKind, Objective, distance, relative_entropy,
                       vn_entropy)
from .qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                   partial_trace, partial_transpose, permute_subsystems,
                   vector_state)
from .quantumness import MeasurementBasis, measure_channel

_MERGE_OVERLAP = 1.0 - 1e-10
_WEIGHT_FLOOR = 1e-12
# Frank-Wolfe duality gap at which the conditional-gradient search stops.
_GAP_TOL = 2e-4
# Most conditional-gradient iterations of the warm start before the polish.
# The warm start holds at most dx*dy + _WARM_START_ITERS atoms, within the
# Caratheodory cap (dx*dy)**2 for every cut (dx, dy >= 2) while this is at
# most 12.
_WARM_START_ITERS = 10


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture sum_j weights[j] |left[j]><left[j]| x |right[j]><right[j]|
    of product pure states across a bipartition.

    Read-only stacked rows in the cut-local bases: weights (k,), left (k, dx)
    on the grouped X factor, right (k, dy) on the grouped Y factor.
    """

    cut: Bipartition
    weights: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        left = np.array(self.left, dtype=complex)
        right = np.array(self.right, dtype=complex)
        if w.ndim != 1 or left.ndim != 2 or right.ndim != 2 \
                or not w.shape[0] == left.shape[0] == right.shape[0]:
            raise InputError("weights (k,), left (k, dx) and right (k, dy) "
                             "must have equal row counts")
        # negated comparisons, so that NaN entries fail
        if not (np.all(w >= 0.0) and abs(np.sum(w) - 1.0) <= 1e-12):
            raise InputError("weights must be nonnegative and sum to 1")
        for rows in (left, right):
            if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= 1e-10):
                raise InputError("ensemble rows must be unit norm")
        for name, arr in (("weights", w), ("left", left), ("right", right)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.weights.shape[0]


def _product_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row j is kron(left[j], right[j])."""
    return (left[:, :, None] * right[:, None, :]).reshape(left.shape[0], -1)


def _mixture(weights: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """sum_j weights[j] |prods[j]><prods[j]| over the stacked rows."""
    return (prods * weights[:, None]).T @ prods.conj()


def ensemble_to_state(e: SeparableEnsemble, dims: SubsystemDims) -> DensityMatrix:
    """Materialize sum_k p_k |a_k><a_k| x |b_k><b_k| in canonical label order."""
    e.cut.validate_against(dims)
    dx = dims.subset_dim(e.cut.left)
    dy = dims.subset_dim(e.cut.right)
    if e.left.shape[1] != dx:
        raise InputError(f"left row length {e.left.shape[1]} != cut dimension {dx}")
    if e.right.shape[1] != dy:
        raise InputError(f"right row length {e.right.shape[1]} != cut dimension {dy}")
    mat = _mixture(e.weights, _product_rows(e.left, e.right))
    cut_order = e.cut.left + e.cut.right
    cut_dims = SubsystemDims(cut_order, tuple(dims.dim_of(l) for l in cut_order))
    sigma = DensityMatrix.trusted(mat, cut_dims)
    return permute_subsystems(sigma, dims.labels)


def pure_state_entanglement(psi, cut: Bipartition, dims: SubsystemDims) -> float:
    """Exact entanglement of a pure state across the cut: entropy of the
    reduced state on either side (no optimization involved)."""
    rho = vector_state(psi, dims)
    cut.validate_against(dims)
    return vn_entropy(partial_trace(rho, cut.right))


def coherent_info_lower(rho: DensityMatrix, cut: Bipartition) -> float:
    """max(0, S(X) - S, S(Y) - S): hashing-type certified lower bound on
    the relative-entropy entanglement across the cut."""
    cut.validate_against(rho.dims)
    s = vn_entropy(rho)
    sx = vn_entropy(partial_trace(rho, cut.right))
    sy = vn_entropy(partial_trace(rho, cut.left))
    return max(0.0, sx - s, sy - s)


def ppt_min_eigenvalue(rho: DensityMatrix, cut: Bipartition) -> float:
    """Minimum eigenvalue of the partial transpose on the cut's left side.

    Values >= -1e-9 are consistent with separability; below -1e-6 the state
    is certified entangled across the cut.
    """
    cut.validate_against(rho.dims)
    return float(np.linalg.eigvalsh(partial_transpose(rho, cut.left))[0])


# ----------------------------------------------------------------------
# Closest-separable-state search.
# ----------------------------------------------------------------------

def _to_cut_order(rho: DensityMatrix, cut: Bipartition):
    cut.validate_against(rho.dims)
    order = cut.left + cut.right
    rc = permute_subsystems(rho, order)
    dx = rho.dims.subset_dim(cut.left)
    dy = rho.dims.subset_dim(cut.right)
    return rc, dx, dy


class _Atoms:
    """Working separable ensemble: stacked product rows left[j] x right[j],
    their Kronecker products prods[j], and weights.  Every update replaces
    an array instead of writing into it, so snapshots share them."""

    def __init__(self, left: np.ndarray, right: np.ndarray, weights: np.ndarray):
        self.left, self.right, self.weights = left, right, weights
        self.prods = _product_rows(left, right)

    def add(self, a: np.ndarray, b: np.ndarray, weight: float):
        v = np.kron(a, b)
        if len(self.weights):
            overlap = np.abs(self.prods.conj() @ v) ** 2
            k = int(np.argmax(overlap))
            if overlap[k] >= _MERGE_OVERLAP:
                self.weights = self.weights.copy()
                self.weights[k] += weight
                return
        self.left = np.vstack([self.left, a[None, :]])
        self.right = np.vstack([self.right, b[None, :]])
        self.prods = np.vstack([self.prods, v[None, :]])
        self.weights = np.append(self.weights, weight)

    def scale(self, factor: float):
        self.weights = self.weights * factor

    def sigma(self, weights=None) -> np.ndarray:
        return _mixture(self.weights if weights is None else weights, self.prods)

    def prune(self, floor: float = _WEIGHT_FLOOR):
        """Drop the atoms of weight at or below floor and renormalize."""
        keep = self.weights > floor
        self.left = self.left[keep]
        self.right = self.right[keep]
        self.prods = self.prods[keep]
        self.weights = self.weights[keep] / np.sum(self.weights[keep])

    def snapshot(self):
        return self.weights, self.left, self.right


def _reoptimize_weights(atoms: _Atoms, objective: Objective,
                        iters: int = 60) -> float:
    """Exponentiated-gradient descent on the convex weight subproblem."""
    p = atoms.weights / np.sum(atoms.weights)
    sigma = atoms.sigma(p)
    f = objective.value(sigma)
    step = 1.0
    prods = atoms.prods
    for _ in range(iters):
        grad = objective.gradient(sigma)
        g = np.einsum("ki,ij,kj->k", prods.conj(), grad, prods).real
        g -= np.min(g)
        improved = False
        while step > 1e-8:
            q = p * np.exp(-step * g)
            total = np.sum(q)
            if total <= 0 or not np.isfinite(total):
                step *= 0.5
                continue
            q /= total
            sigma_q = atoms.sigma(q)
            fq = objective.value(sigma_q)
            if fq < f - 1e-15:
                p, sigma, f = q, sigma_q, fq
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    atoms.weights = p
    return f


def _line_search(objective: Objective, sigma: np.ndarray,
                 atom_outer: np.ndarray, f_now: float):
    def fg(gamma: float) -> float:
        return objective.value((1.0 - gamma) * sigma + gamma * atom_outer)

    res = minimize_scalar(fg, bounds=(0.0, 1.0 - 1e-9), method="bounded",
                          options={"xatol": 1e-9, "maxiter": 25})
    gamma = float(res.x)
    f_new = float(res.fun)
    if f_new >= f_now:  # keep monotone descent even on nonsmooth kinds
        return 0.0, f_now
    return gamma, f_new


def ree_upper(rho: DensityMatrix, cut: Bipartition,
              kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
              seed: int = 0,
              max_iters: int = 200) -> tuple[float, SeparableEnsemble]:
    """Upper bound on the entanglement of rho across the cut.

    Returns the achieved distance together with the separable ensemble
    (stacked rows, see SeparableEnsemble) that achieves it.  The value is
    recomputed from the returned ensemble, so it is a sound upper bound by
    construction.  The seed addresses the product oracle's random starts;
    it is the only setting the search reads.

    The search has two stages.  A conditional-gradient warm start of at
    most min(max_iters, _WARM_START_ITERS) iterations (10 for every
    max_iters >= 10) collects product atoms; one L-BFGS-B polish of at
    most max_iters iterations then moves all of their rows and weights at
    once.  Of the two ensembles, the one with the lower recomputed
    distance is returned.

    The ensemble holds at most (dx*dy)**2 product terms: by Caratheodory's
    theorem that many reach every separable state of the cut, so the cap
    never shrinks the set searched.  The polish keeps the warm start's
    rows, so it never exceeds the cap either.
    """
    rc, dx, dy = _to_cut_order(rho, cut)
    objective = Objective(rc.mat, kind)
    warm = _conditional_gradient(objective, dx, dy, seed,
                                 min(max_iters, _WARM_START_ITERS))
    scored = []
    for rows in (warm, _polish(objective, *warm, max_iters)):
        ensemble = SeparableEnsemble(cut, *rows)
        value = distance(kind, rho, ensemble_to_state(ensemble, rho.dims))
        scored.append((float(value), ensemble))
    value, ensemble = min(scored, key=lambda pair: pair[0])  # warm on ties
    # every distance is nonnegative; on a separable state the relative
    # entropy can round to a few 1e-13 below 0
    return max(value, 0.0), ensemble


def _polish(objective: Objective, weights: np.ndarray, left: np.ndarray,
            right: np.ndarray, max_iters: int):
    """One L-BFGS-B run over all rows of a separable ensemble at once.

    The parameters are the real and imaginary parts of unnormalised rows
    a_j, b_j, which carry the weights in their norms (a_j starts at
    sqrt(w_j) left[j], b_j at right[j]): x_j = a_j (x) b_j,
    S = sum_j x_j x_j^dagger and sigma = S / Tr S.  With G the objective's
    gradient at sigma, the gradient in S is H = (G - <G, sigma> I) / Tr S,
    and df/d conj(a_j) is H x_j contracted with conj(b_j) on the right
    factor (df/d conj(b_j) with conj(a_j) on the left).  Returns
    (weights, left, right) rows, zero-norm rows dropped.
    """
    k, dx = left.shape
    dy = right.shape[1]
    z0 = np.concatenate([(left * np.sqrt(weights)[:, None]).ravel(),
                         right.ravel()])
    eye = np.eye(dx * dy)

    def rows(p):
        z = p[:z0.size] + 1j * p[z0.size:]
        return z[:k * dx].reshape(k, dx), z[k * dx:].reshape(k, dy)

    def value_and_grad(p):
        a, b = rows(p)
        x = _product_rows(a, b)
        s = x.T @ x.conj()
        tr = float(np.trace(s).real)
        sigma = s / tr
        f, g = objective.evaluate(sigma)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(p)
        h = (g - np.vdot(sigma, g).real * eye) / tr
        hx = (x @ h.T).reshape(k, dx, dy)
        da = np.einsum("kij,kj->ki", hx, b.conj())
        db = np.einsum("kij,ki->kj", hx, a.conj())
        dz = np.concatenate([da.ravel(), db.ravel()])
        return f, 2.0 * np.concatenate([dz.real, dz.imag])

    # no tolerance stops it early: it ends at max_iters or when its line
    # search can no longer decrease f
    res = minimize(value_and_grad, np.concatenate([z0.real, z0.imag]),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iters, "ftol": 0.0, "gtol": 0.0})
    a, b = rows(res.x)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    w = (na * nb) ** 2
    keep = w > 0.0
    return (w[keep] / np.sum(w[keep]), a[keep] / na[keep, None],
            b[keep] / nb[keep, None])


def _marginal_product_atoms(mat: np.ndarray, dx: int, dy: int) -> _Atoms:
    """Initial ensemble: eigen-decomposed product of marginals.  Its support
    always contains the state's support, so the search starts finite."""
    wx, vx = np.linalg.eigh(_trace_block(mat, dx, dy, keep="x"))
    wy, vy = np.linalg.eigh(_trace_block(mat, dx, dy, keep="y"))
    w = (wx[:, None] * wy[None, :]).reshape(-1)
    keep = np.flatnonzero(w > 1e-14)
    i, j = np.divmod(keep, dy)
    return _Atoms(vx.T[i], vy.T[j], w[keep] / np.sum(w[keep]))


def _trace_block(mat: np.ndarray, dx: int, dy: int, keep: str) -> np.ndarray:
    t = mat.reshape(dx, dy, dx, dy)
    if keep == "x":
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def _conditional_gradient(objective: Objective, dx: int, dy: int, seed: int,
                          iters: int):
    """The warm start: at most iters Frank-Wolfe iterations over separable
    ensembles; objective.rho is the cut-ordered state.  Starts from at
    most dx*dy atoms and adds at most one per iteration.  Returns
    (weights, left, right) rows of the best ensemble seen."""
    atoms = _marginal_product_atoms(objective.rho, dx, dy)
    atoms.prune()
    f = _reoptimize_weights(atoms, objective)
    best_f, best_snap = f, atoms.snapshot()

    eye_y = np.eye(dy, dtype=complex)
    comp_bs = [eye_y[:, j] for j in range(min(dy, 2))]

    for it in range(iters):
        sigma = atoms.sigma()
        grad = objective.gradient(sigma)
        b_starts = [atoms.right[int(np.argmax(atoms.weights))]] + comp_bs
        b_starts += [rng.complex_normals(seed, (it << 1) | r, dy,
                                         purpose=rng.PURPOSE_ORACLE)
                     for r in range(2)]
        e_min, a, b = _alternating_oracle(grad, dx, dy, b_starts)

        trace_term = float(np.vdot(sigma.reshape(-1), grad.reshape(-1)).real)
        gap = trace_term - e_min
        if gap <= _GAP_TOL and np.isfinite(f):
            break

        v = np.kron(a, b)
        outer = np.outer(v, v.conj())
        gamma, f_new = _line_search(objective, sigma, outer, f)
        if gamma > 0.0:
            atoms.scale(1.0 - gamma)
            atoms.add(a, b, gamma)
            f = f_new
        if (it + 1) % 8 == 0 or gamma == 0.0:
            atoms.prune(floor=1e-8)
            f = _reoptimize_weights(atoms, objective, iters=30)
        if f < best_f - 1e-15:
            best_f, best_snap = f, atoms.snapshot()

    atoms.prune()
    if _reoptimize_weights(atoms, objective, iters=200) < best_f:
        best_snap = atoms.snapshot()
    weights, left, right = best_snap
    return weights / np.sum(weights), left, right


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _alternating_oracle(grad, dx, dy, b_starts):
    """Minimize <a b|grad|a b> over product unit vectors by alternating
    bottom-eigenvector updates, keeping the best over all starts.

    The starts run stacked: each alternation is one einsum and one batched
    eigh per side over the starts still active.  A start freezes (its a, b
    and value stay fixed) once its value moves by less than 1e-13, or after
    25 alternations.  The first start reaching the minimum value wins.
    """
    gt = grad.reshape(dx, dy, dx, dy)
    b = np.array([b0 / np.linalg.norm(b0) for b0 in b_starts], dtype=complex)
    a = np.zeros((b.shape[0], dx), dtype=complex)
    val = np.full(b.shape[0], np.inf)
    active = np.arange(b.shape[0])
    for _ in range(25):
        bs = b[active]
        mb = _hermitian_part(np.einsum("nj,ijkl,nl->nik", bs.conj(), gt, bs))
        a_new = np.linalg.eigh(mb)[1][:, :, 0]
        ma = _hermitian_part(np.einsum("ni,ijkl,nk->njl", a_new.conj(), gt, a_new))
        wb, vb = np.linalg.eigh(ma)
        val_new = wb[:, 0].real
        moved = ~(np.abs(val[active] - val_new) < 1e-13)
        a[active], b[active], val[active] = a_new, vb[:, :, 0], val_new
        active = active[moved]
        if not active.size:
            break
    k = int(np.argmin(val))
    return float(val[k]), a[k], b[k]


def measured_separable_upper(rho: DensityMatrix, sigma: DensityMatrix,
                             basis: MeasurementBasis,
                             separable_cut: Bipartition) -> float:
    """S(rho || measured sigma): an upper bound on the entanglement of rho
    across the cut that groups the measured subsystem with sigma's
    separable side, since measuring that subsystem makes sigma fully
    separable.

    sigma's separability across separable_cut is the caller's claim; a PPT
    spot check rejects certified-entangled sigma (hard error below -1e-6).
    """
    if rho.dims.dims != sigma.dims.dims:
        raise InputError("rho and sigma must share dimensions")
    pt_min = ppt_min_eigenvalue(sigma, separable_cut)
    if pt_min < -1e-6:
        raise InputError(
            f"sigma is certified entangled across {separable_cut} "
            f"(PPT eigenvalue {pt_min:.3e}); the bound would be unsound"
        )
    return relative_entropy(rho, measure_channel(sigma, basis))

"""Entanglement measures: closest-separable-state upper bounds, analytic
pure-state values, coherent-information lower bounds, and PPT checks.

The upper-bound search exploits that all three distance kinds are convex
in the separable argument: a conditional-gradient loop moves the candidate
ensemble toward the state, adding one product state per step (found by
alternating local eigenvector descent) and periodically re-solving the
convex weight subproblem over the collected atoms.  The result is always
a certified member of the separable set together with its honestly
recomputed distance, i.e. a sound upper bound; no global-optimality claim
is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import optim, rng
from .measures import (DistanceKind, Objective, distance, relative_entropy,
                       vn_entropy)
from .qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                   partial_trace, partial_transpose, permute_subsystems,
                   vector_state)
from .quantumness import MeasurementBasis, measure_channel

_MERGE_OVERLAP = 1.0 - 1e-10
_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of product pure states across a bipartition.

    Vectors are stored in the cut-local bases: left_vectors on the grouped
    X factor, right_vectors on the grouped Y factor.
    """

    cut: Bipartition
    weights: np.ndarray
    left_vectors: tuple[np.ndarray, ...]
    right_vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(self.left_vectors) != w.shape[0] \
                or len(self.right_vectors) != w.shape[0]:
            raise InputError("weights and vector lists must have equal length")
        if np.any(w < 0.0) or abs(np.sum(w) - 1.0) > 1e-12:
            raise InputError("weights must be nonnegative and sum to 1")
        lv = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.left_vectors)
        rv = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.right_vectors)
        for v in lv + rv:
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise InputError("ensemble vectors must be unit norm")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "left_vectors", lv)
        object.__setattr__(self, "right_vectors", rv)

    def __len__(self):
        return self.weights.shape[0]


def ensemble_to_state(e: SeparableEnsemble, dims: SubsystemDims) -> DensityMatrix:
    """Materialize sum_k p_k |a_k><a_k| x |b_k><b_k| in canonical label order."""
    e.cut.validate_against(dims)
    dx = dims.subset_dim(e.cut.left)
    dy = dims.subset_dim(e.cut.right)
    for v in e.left_vectors:
        if v.shape[0] != dx:
            raise InputError(f"left vector length {v.shape[0]} != cut dimension {dx}")
    for v in e.right_vectors:
        if v.shape[0] != dy:
            raise InputError(f"right vector length {v.shape[0]} != cut dimension {dy}")
    mat = np.zeros((dx * dy, dx * dy), dtype=complex)
    for p, a, b in zip(e.weights, e.left_vectors, e.right_vectors):
        v = np.kron(a, b)
        mat += p * np.outer(v, v.conj())
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
    """Working separable ensemble: stacked product vectors with weights."""

    def __init__(self, dx: int, dy: int):
        self.dx, self.dy = dx, dy
        self.left: list[np.ndarray] = []
        self.right: list[np.ndarray] = []
        self.prods = np.zeros((0, dx * dy), dtype=complex)
        self.weights = np.zeros(0)

    def add(self, a: np.ndarray, b: np.ndarray, weight: float):
        v = np.kron(a, b)
        if len(self.weights):
            overlap = np.abs(self.prods.conj() @ v) ** 2
            k = int(np.argmax(overlap))
            if overlap[k] >= _MERGE_OVERLAP:
                self.weights = self.weights.copy()
                self.weights[k] += weight
                return
        self.left.append(a)
        self.right.append(b)
        self.prods = np.vstack([self.prods, v[None, :]])
        self.weights = np.append(self.weights, weight)

    def scale(self, factor: float):
        self.weights = self.weights * factor

    def sigma(self, weights=None) -> np.ndarray:
        w = self.weights if weights is None else weights
        return (self.prods * w[:, None]).T @ self.prods.conj()

    def drop(self, keep_mask):
        self.left = [v for v, k in zip(self.left, keep_mask) if k]
        self.right = [v for v, k in zip(self.right, keep_mask) if k]
        self.prods = self.prods[keep_mask]
        self.weights = self.weights[keep_mask]
        self.weights = self.weights / np.sum(self.weights)

    def prune(self, cap: int, floor: float = _WEIGHT_FLOOR):
        mask = self.weights > floor
        if np.sum(mask) < 1:
            mask = self.weights >= np.max(self.weights)
        self.drop(mask)
        if len(self.weights) > cap:
            order = np.argsort(self.weights)[::-1][:cap]
            mask = np.zeros(len(self.weights), dtype=bool)
            mask[order] = True
            self.drop(mask)

    def snapshot(self):
        return (self.weights.copy(), [v.copy() for v in self.left],
                [v.copy() for v in self.right])


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


def _default_terms(dx: int, dy: int) -> int:
    return (dx * dy) ** 2


def ree_upper(rho: DensityMatrix, cut: Bipartition,
              kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
              K: int | None = None,
              cfg: optim.OptimizerConfig | None = None,
              max_iters: int = 200, gap_tol: float = 2e-4,
              candidates: tuple[SeparableEnsemble, ...] = (),
              ) -> tuple[float, SeparableEnsemble]:
    """Upper bound on the entanglement of rho across the cut.

    Returns the achieved distance together with the separable ensemble
    that achieves it.  The value is recomputed from the returned ensemble,
    so it is a sound upper bound by construction.

    Any caller-supplied candidate ensembles (for the same cut, at most K
    terms each) are folded into the search and compared against its
    result, so the returned value never exceeds a candidate's value; this
    is how enlarging K is kept monotone.
    """
    cfg = cfg or optim.OptimizerConfig()
    if K is not None and K < 1:
        raise InputError("ensemble size K must be >= 1")
    rc, dx, dy = _to_cut_order(rho, cut)
    cap = K if K is not None else _default_terms(dx, dy)
    for cand in candidates:
        if len(cand) > cap:
            raise InputError(f"candidate ensemble has {len(cand)} > K={cap} terms")
    objective = Objective(rc.mat, kind)

    if cap == 1:
        _, a, b = _best_single_product(dx, dy, objective, cfg)
        ensemble = SeparableEnsemble(cut, np.array([1.0]), (a,), (b,))
    else:
        ensemble = _conditional_gradient(rc, dx, dy, objective, cut, cap, cfg,
                                         max_iters, gap_tol, candidates)
    best_value = distance(kind, rho, ensemble_to_state(ensemble, rho.dims))
    for cand in candidates:
        value = distance(kind, rho, ensemble_to_state(cand, rho.dims))
        if value < best_value:
            best_value, ensemble = value, cand
    return float(best_value), ensemble


def _best_single_product(dx, dy, objective, cfg):
    # The relative entropy to a rank-1 reference is infinite off a
    # measure-zero set, so for that kind the search maximizes overlap with
    # the state instead; the caller recomputes the honest distance.
    if objective.kind is DistanceKind.RELATIVE_ENTROPY:
        eye_y = np.eye(dy, dtype=complex)
        b_starts = [eye_y[:, j] for j in range(dy)]
        b_starts += [rng.complex_normals(cfg.seed, r, dy, purpose=rng.PURPOSE_ORACLE)
                     for r in range(4)]
        val, a, b = _alternating_oracle(-objective.rho, dx, dy, b_starts)
        return -val, a, b

    def unpack(params):
        a = optim.param_to_unit_vector(params[: 2 * dx], dx)
        b = optim.param_to_unit_vector(params[2 * dx:], dy)
        return a, b

    def value(params):
        try:
            a, b = unpack(params)
        except InputError:
            return np.inf
        v = np.kron(a, b)
        return objective.value(np.outer(v, v.conj()))

    res = optim.minimize(value, 2 * (dx + dy), cfg)
    a, b = unpack(res.best_params)
    return res.best_value, a, b


def _marginal_product_atoms(rc: DensityMatrix, dx: int, dy: int) -> _Atoms:
    """Initial ensemble: eigen-decomposed product of marginals.  Its support
    always contains the state's support, so the search starts finite."""
    rx = _trace_block(rc.mat, dx, dy, keep="x")
    ry = _trace_block(rc.mat, dx, dy, keep="y")
    wx, vx = np.linalg.eigh(rx)
    wy, vy = np.linalg.eigh(ry)
    atoms = _Atoms(dx, dy)
    for i in range(dx):
        for j in range(dy):
            w = float(wx[i] * wy[j])
            if w > 1e-14:
                atoms.add(vx[:, i], vy[:, j], w)
    atoms.weights = atoms.weights / np.sum(atoms.weights)
    return atoms


def _trace_block(mat: np.ndarray, dx: int, dy: int, keep: str) -> np.ndarray:
    t = mat.reshape(dx, dy, dx, dy)
    if keep == "x":
        return np.einsum("ijkj->ik", t)
    return np.einsum("ijil->jl", t)


def _conditional_gradient(rc, dx, dy, objective, cut, cap, cfg,
                          max_iters, gap_tol, candidates=()) -> SeparableEnsemble:
    atoms = _marginal_product_atoms(rc, dx, dy)
    for cand in candidates:
        if len(atoms.weights) + len(cand) > 2 * cap:
            continue
        atoms.scale(0.5)
        for w, a, b in zip(cand.weights, cand.left_vectors, cand.right_vectors):
            atoms.add(a, b, 0.5 * float(w))
    atoms.prune(cap)
    f = _reoptimize_weights(atoms, objective)
    best_f, best_snap = f, atoms.snapshot()

    eye_y = np.eye(dy, dtype=complex)
    comp_bs = [eye_y[:, j] for j in range(min(dy, 2))]
    stall = 0

    for it in range(max_iters):
        sigma = atoms.sigma()
        grad = objective.gradient(sigma)
        b_starts = [atoms.right[int(np.argmax(atoms.weights))]] + comp_bs
        b_starts += [rng.complex_normals(cfg.seed, (it << 1) | r, dy,
                                         purpose=rng.PURPOSE_ORACLE)
                     for r in range(2)]
        e_min, a, b = _alternating_oracle(grad, dx, dy, b_starts)

        trace_term = float(np.vdot(sigma.reshape(-1), grad.reshape(-1)).real)
        gap = trace_term - e_min
        if gap <= gap_tol and np.isfinite(f):
            break

        v = np.kron(a, b)
        outer = np.outer(v, v.conj())
        gamma, f_new = _line_search(objective, sigma, outer, f)
        if gamma > 0.0:
            atoms.scale(1.0 - gamma)
            atoms.add(a, b, gamma)
            f = f_new
        if len(atoms.weights) > cap:  # cheap drop; full reopt is periodic
            atoms.prune(cap, floor=1e-8)
            f = objective.value(atoms.sigma())
        if (it + 1) % 8 == 0 or gamma == 0.0:
            atoms.prune(cap, floor=1e-8)
            f = _reoptimize_weights(atoms, objective, iters=30)
        if f < best_f - max(1e-9, 5e-5 * abs(best_f)):
            stall = 0
        else:
            stall += 1
            if stall >= 40:
                break
        if f < best_f - 1e-15:
            best_f, best_snap = f, atoms.snapshot()

    atoms.prune(cap)
    f = _reoptimize_weights(atoms, objective, iters=200)
    if f < best_f:
        best_f, best_snap = f, atoms.snapshot()
    weights, left, right = best_snap
    return SeparableEnsemble(cut, weights / np.sum(weights),
                             tuple(left), tuple(right))


def _alternating_oracle(grad, dx, dy, b_starts):
    """Minimize <a b|grad|a b> over product unit vectors by alternating
    bottom-eigenvector updates, keeping the best over all starts."""
    gt = grad.reshape(dx, dy, dx, dy)
    best = (np.inf, None, None)
    for b0 in b_starts:
        b = b0 / np.linalg.norm(b0)
        val_prev = np.inf
        a = None
        for _ in range(25):
            mb = np.einsum("j,ijkl,l->ik", b.conj(), gt, b)
            mb = 0.5 * (mb + mb.conj().T)
            _, va = np.linalg.eigh(mb)
            a = va[:, 0]
            ma = np.einsum("i,ijkl,k->jl", a.conj(), gt, a)
            ma = 0.5 * (ma + ma.conj().T)
            wb, vb = np.linalg.eigh(ma)
            b = vb[:, 0]
            val = float(wb[0].real)
            if abs(val_prev - val) < 1e-13:
                break
            val_prev = val
        if val < best[0]:
            best = (val, a, b)
    return best


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

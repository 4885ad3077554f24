"""Entanglement measures: closest-separable-state upper bounds, analytic
pure-state values, coherent-information lower bounds, and PPT checks.

A separable ensemble is stored as stacked rows: weights (k,), left (k, dx)
and right (k, dy), row j of left and right being the j-th product term.
The search's polish moves the same rows, with the weights folded into
their norms.

The upper-bound search exploits that all three distance kinds are convex
in the separable argument.  It starts from the state dephased in the
product of its marginals' eigenbases, which is separable, has a finite
distance to the state, and for a pure state is already the closest
separable state in relative entropy.  Two polishes then move every row
and weight of that start, plus a few seeded random product rows, at once,
through unnormalised rows whose norms carry the weights: a short L-BFGS-B
run, then a truncated Newton (TNC) run, each an optim.descend that ends at
the lowest point it evaluated.  Between them the lightest row turns to the
product direction that lowers the distance fastest, a direction that a row
of small weight reaches too slowly by polishing.  The result is always a
certified member of the separable set together with its honestly
recomputed distance, i.e. a sound upper bound; no global-optimality claim
is made, and the search does not report why it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim, rng
from .measures import (DistanceKind, Objective, distance, relative_entropy,
                       vn_entropy)
from .qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                   partial_trace, partial_transpose, permute_subsystems,
                   vector_state)
from .quantumness import MeasurementBasis, measure_channel

# The polish's random product rows and the weight they share.  With them
# the ensemble holds at most dx*dy + 10 rows, within the Caratheodory cap
# (dx*dy)**2 for every cut with dx, dy >= 2.
_SEEDED_ROWS = 10
_SEEDED_WEIGHT = 1e-3
# L-BFGS-B iterations before the lightest row turns.
_FIRST_POLISH_ITERS = 100
# Conjugate-gradient steps per truncated-Newton iteration.
_TNC_CG_STEPS = 10
# Alternating eigenvector updates that turn the lightest row, and the
# weights tried for it.
_TURN_ALTERNATIONS = 10
_TURN_WEIGHTS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3)
# Relative-entropy gap to the hashing lower bound within which the start is
# returned as it is.
_CERTIFIED_GAP = 1e-12


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
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
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


def ensemble_to_state(e: SeparableEnsemble, dims: SubsystemDims) -> DensityMatrix:
    """Materialize sum_k p_k |a_k><a_k| x |b_k><b_k| in canonical label order."""
    e.cut.validate_against(dims)
    dx = dims.subset_dim(e.cut.left)
    dy = dims.subset_dim(e.cut.right)
    if e.left.shape[1] != dx:
        raise InputError(f"left row length {e.left.shape[1]} != cut dimension {dx}")
    if e.right.shape[1] != dy:
        raise InputError(f"right row length {e.right.shape[1]} != cut dimension {dy}")
    prods = _product_rows(e.left, e.right)
    mat = (prods * e.weights[:, None]).T @ prods.conj()
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

def ree_upper(rho: DensityMatrix, cut: Bipartition,
              kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
              seed: int = 0,
              max_iters: int = 250) -> tuple[float, SeparableEnsemble]:
    """Upper bound on the entanglement of rho across the cut.

    Returns the achieved distance together with the separable ensemble
    (stacked rows, see SeparableEnsemble) that achieves it.  The value is
    recomputed from the returned ensemble, so it is a sound upper bound by
    construction.  The seed addresses the start's random product rows; it
    is the only setting the search reads.

    The search starts from rho dephased in the product of its marginals'
    eigenbases, at most dx*dy product rows, plus _SEEDED_ROWS random
    product rows of total weight _SEEDED_WEIGHT.  Two polishes then move
    every row and weight at once:

    - L-BFGS-B for at most min(_FIRST_POLISH_ITERS, max_iters) iterations;
    - the lightest row turns to the product direction that lowers the
      distance fastest (see _turn_lightest_row);
    - TNC, a truncated Newton method, for at most max_iters evaluations.

    Of the dephased start and the polished ensemble, the one with the
    lower recomputed distance is returned.  No polish runs when the
    hashing bound certifies the start: a relative-entropy start within
    _CERTIFIED_GAP of coherent_info_lower, as on every pure state with
    distinct Schmidt coefficients.

    The ensemble holds at most dx*dy + _SEEDED_ROWS product terms, within
    the (dx*dy)**2 that reach every separable state of the cut
    (Caratheodory's theorem) for every cut with dx, dy >= 2.
    """
    cut.validate_against(rho.dims)
    rc = permute_subsystems(rho, cut.left + cut.right)
    start = _dephased_start(rc.mat, rho.dims.subset_dim(cut.left),
                            rho.dims.subset_dim(cut.right))

    def scored(rows):
        ensemble = SeparableEnsemble(cut, *rows)
        return distance(kind, rho, ensemble_to_state(ensemble, rho.dims)), ensemble

    value, ensemble = scored(start)
    if not (kind is DistanceKind.RELATIVE_ENTROPY
            and value <= coherent_info_lower(rho, cut) + _CERTIFIED_GAP):
        objective = Objective(rc.mat, kind)
        rows = _with_seeded_rows(start, seed)
        seeded = rows[1][-_SEEDED_ROWS:], rows[2][-_SEEDED_ROWS:]
        # each ends at its budget or when its line search can no longer
        # decrease f; TNC also on its default tests of step and gradient
        rows = _polish(objective, *rows, "L-BFGS-B", {
            "maxiter": min(_FIRST_POLISH_ITERS, max_iters), "ftol": 0.0, "gtol": 0.0})
        rows = _turn_lightest_row(objective, *rows, *seeded)
        polished = scored(_polish(objective, *rows, "TNC",
                                  {"maxfun": max_iters, "maxCGit": _TNC_CG_STEPS}))
        if polished[0] < value:  # the start on ties
            value, ensemble = polished
    # every distance is nonnegative; on a separable state the relative
    # entropy can round to a few 1e-13 below 0
    return max(float(value), 0.0), ensemble


def _dephased_start(mat: np.ndarray, dx: int, dy: int):
    """rho dephased in the product basis x_i (x) y_j of its marginals'
    eigenvectors: weights <x_i y_j|rho|x_i y_j>, zero-weight rows dropped.

    By the pinching inequality its support contains rho's, so every
    distance to it is finite.  For a pure state with distinct Schmidt
    coefficients the basis is the Schmidt basis, and the start is the
    closest separable state in relative entropy.  Returns (weights, left,
    right) rows.
    """
    t = mat.reshape(dx, dy, dx, dy)
    _, vx = np.linalg.eigh(np.einsum("ijkj->ik", t))
    _, vy = np.linalg.eigh(np.einsum("ijil->jl", t))
    left = np.repeat(vx.T, dy, axis=0)
    right = np.tile(vy.T, (dx, 1))
    prods = _product_rows(left, right)
    w = np.einsum("ki,ij,kj->k", prods.conj(), mat, prods).real
    keep = w > 1e-14
    return w[keep] / w[keep].sum(), left[keep], right[keep]


def _with_seeded_rows(rows, seed: int):
    """The rows with _SEEDED_ROWS random product rows appended, sharing
    weight _SEEDED_WEIGHT; they give the polish directions that the
    dephased start's basis rows lack."""
    weights, left, right = rows
    dx, dy = left.shape[1], right.shape[1]
    z = rng.complex_normals(seed, 0, _SEEDED_ROWS * (dx + dy),
                            purpose=rng.PURPOSE_SEEDED_ROWS)
    z = z.reshape(_SEEDED_ROWS, dx + dy)
    a, b = z[:, :dx], z[:, dx:]
    return (np.concatenate([(1.0 - _SEEDED_WEIGHT) * weights,
                            np.full(_SEEDED_ROWS, _SEEDED_WEIGHT / _SEEDED_ROWS)]),
            np.vstack([left, a / np.linalg.norm(a, axis=1)[:, None]]),
            np.vstack([right, b / np.linalg.norm(b, axis=1)[:, None]]))


def _polish(objective: Objective, weights: np.ndarray, left: np.ndarray,
            right: np.ndarray, method: str, options: dict):
    """One optim.descend run of method with its scipy options over all rows
    of a separable ensemble at once, ending at the lowest point it evaluated.

    The parameters are the real and imaginary parts of unnormalised rows
    a_j, b_j, which carry the weights in their norms: x_j = a_j (x) b_j,
    S = sum_j x_j x_j^dagger and sigma = S / Tr S.  With G the objective's
    gradient at sigma, the gradient in S is H = (G - <G, sigma> I) / Tr S,
    and df/d conj(a_j) is H x_j contracted with conj(b_j) on the right
    factor (df/d conj(b_j) with conj(a_j) on the left).  Returns
    (weights, left, right) rows, zero-norm rows dropped.

    The factor of larger dimension starts with norm sqrt(w_j), the other
    with norm 1.  A factor's direction has curvature proportional to the
    other factor's squared norm, so on a row of small weight only the
    factor that carries the weight turns at the pace of the other rows;
    that way it is the one with more directions to explore.

    L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995) is cheap per iteration.
    TNC (Nash, 1984) builds each Newton step from Hessian-vector products,
    differences of gradients, so it keeps converging where the curvature
    spans many orders of magnitude, as it does once sigma has small
    eigenvalues; there L-BFGS-B's ten stored pairs crawl.
    """
    k, dx = left.shape
    dy = right.shape[1]
    scale = np.sqrt(weights)[:, None]
    a0, b0 = (left * scale, right) if dx >= dy else (left, right * scale)
    z0 = np.concatenate([a0.ravel(), b0.ravel()])
    n_a, n_z = k * dx, z0.size
    eye = np.eye(dx * dy)

    def rows(p):
        z = p[:n_z] + 1j * p[n_z:]
        return z[:n_a].reshape(k, dx), z[n_a:].reshape(k, dy)

    def value_and_grad(p):
        a, b = rows(p)
        x = _product_rows(a, b)
        s = x.T @ x.conj()
        tr = float(s.trace().real)
        sigma = s / tr
        f, g = objective.evaluate(sigma)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(p)
        h = (g - np.vdot(sigma, g).real * eye) / tr
        hx = (x @ h.T).reshape(k, dx, dy)
        dz = np.empty(n_z, dtype=complex)
        np.einsum("kij,kj->ki", hx, b.conj(), out=dz[:n_a].reshape(k, dx))
        np.einsum("kij,ki->kj", hx, a.conj(), out=dz[n_a:].reshape(k, dy))
        grad = np.empty(2 * n_z)
        np.multiply(dz.real, 2.0, out=grad[:n_z])
        np.multiply(dz.imag, 2.0, out=grad[n_z:])
        return f, grad

    _, p, _ = optim.descend(value_and_grad, np.concatenate([z0.real, z0.imag]),
                            method, options)
    a, b = rows(p)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    w = (na * nb) ** 2
    keep = w > 0.0
    return (w[keep] / w[keep].sum(), a[keep] / na[keep, None],
            b[keep] / nb[keep, None])


def _turn_lightest_row(objective: Objective, weights: np.ndarray,
                       left: np.ndarray, right: np.ndarray,
                       seeded_left: np.ndarray, seeded_right: np.ndarray):
    """The rows with the lightest one turned to the product direction that
    lowers the distance fastest, at the best weight of _TURN_WEIGHTS.

    A row of small weight turns slowly in a polish, so a direction that
    no row points near stays out of reach.  With G the objective's gradient
    at sigma and H = G - <G, sigma> I, moving weight to the product state
    x lowers the distance at rate -<x|H|x>.  Alternating bottom-eigenvector
    updates of a and b minimize <a b|H|a b> from every row and every
    seeded direction at once; the lowest minimum, if negative, replaces
    the lightest row.  Its weight gamma is the best of _TURN_WEIGHTS for
    (1 - gamma) sigma' + gamma |x><x|, sigma' being the other rows.
    Returns (weights, left, right) rows.
    """
    dx, dy = left.shape[1], right.shape[1]
    x = _product_rows(left, right)
    sigma = (x * weights[:, None]).T @ x.conj()
    _, g = objective.evaluate(sigma)
    h = (g - np.vdot(sigma, g).real * np.eye(dx * dy)).reshape(dx, dy, dx, dy)
    a = np.vstack([left, seeded_left])
    b = np.vstack([right, seeded_right])
    for _ in range(_TURN_ALTERNATIONS):
        a = np.linalg.eigh(np.einsum("ijml,kj,kl->kim", h, b.conj(), b))[1][:, :, 0]
        lows, vb = np.linalg.eigh(np.einsum("ijml,ki,km->kjl", h, a.conj(), a))
        b = vb[:, :, 0]
    best = int(np.argmin(lows[:, 0]))
    if not lows[best, 0] < 0.0:
        return weights, left, right
    j = int(np.argmin(weights))
    weights, left, right = weights.copy(), left.copy(), right.copy()
    left[j], right[j], weights[j] = a[best], b[best], 0.0
    weights /= weights.sum()
    x = _product_rows(left, right)
    rest = (x * weights[:, None]).T @ x.conj()
    turned = np.outer(x[j], x[j].conj())
    gamma = min(_TURN_WEIGHTS,
                key=lambda t: objective.value((1.0 - t) * rest + t * turned))
    weights *= 1.0 - gamma
    weights[j] = gamma
    return weights, left, right


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

"""Auditors for the cost inequalities, with sound falsification semantics.

Every check emits an AuditReport whose quantities carry a soundness tag
(exact, upper_bound, lower_bound).  Slack formulas are arranged so that a
negative slack beyond tolerance is meaningful: inequalities audited with
optimizer-produced numbers always place upper bounds on the large side
and certified lower bounds on the small side, so a violation can never be
an artifact of a lazy optimizer.

Fixed tolerances separate the numerical noise floors: TOL_IDENTITY for
exact identities, TOL_ANALYTIC for analytic inequalities, TOL_OPTIMIZER
for optimizer-mediated checks; each report records the one it used.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .entanglement import coherent_info_lower, ree_upper
from .measures import DistanceKind, distance, relative_entropy, vn_entropy
from .optim import OptimizerConfig
from .qmat import Bipartition, DensityMatrix, InputError, SubsystemDims, \
    partial_trace, vector_state
from .quantumness import MeasurementBasis, computational_basis, \
    deficit_for_basis, measure_channel, one_way_deficit
from .statezoo import ginibre_mixed, haar_pure, haar_unitary

TAG_EXACT = "exact"
TAG_UPPER = "upper_bound"
TAG_LOWER = "lower_bound"

TOL_IDENTITY = 1e-8
TOL_ANALYTIC = 1e-9
TOL_OPTIMIZER = 1e-6


@dataclass(frozen=True)
class Quantity:
    value: float
    tag: str


@dataclass
class AuditReport:
    check_name: str
    state_id: str
    quantities: dict[str, Quantity]
    slack: float
    violated: bool
    tolerance: float
    extra: dict = field(default_factory=dict)

    @property
    def powered(self) -> bool:
        """Whether the sample could have failed: every certified lower
        bound its slack subtracts is positive, or, for an exact check, the
        check is asserted."""
        lowers = [q.value for q in self.quantities.values() if q.tag == TAG_LOWER]
        if lowers:
            return all(v > 0.0 for v in lowers)
        return self.extra.get("asserted", True)

    def to_json_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "state_id": self.state_id,
            "quantities": {k: {"value": q.value, "tag": q.tag}
                           for k, q in self.quantities.items()},
            "slack": self.slack,
            "violated": self.violated,
            "tolerance": self.tolerance,
        }
        out.update(self.extra)
        return out


def collinearity_check(rho: DensityMatrix, sigma: DensityMatrix,
                       basis: MeasurementBasis, state_id: str = "") -> AuditReport:
    """Exact identity: measuring both states with one local basis puts the
    state, its dephasing, and the dephased reference on a straight line,
    S(rho||sigma') = S(rho||rho') + S(rho'||sigma').

    This is an equality check: the report is violated when |slack| exceeds
    TOL_IDENTITY, not only on the negative side.
    """
    rho_p = measure_channel(rho, basis)
    sigma_p = measure_channel(sigma, basis)
    whole = relative_entropy(rho, sigma_p)
    leg_one = relative_entropy(rho, rho_p)
    leg_two = relative_entropy(rho_p, sigma_p)
    finite = all(np.isfinite(x) for x in (whole, leg_one, leg_two))
    if finite:
        slack = whole - leg_one - leg_two
        violated = bool(abs(slack) > TOL_IDENTITY)
    elif whole == np.inf and (leg_one == np.inf or leg_two == np.inf):
        slack, violated = 0.0, False  # consistently infinite on both sides
    else:
        slack, violated = -np.inf, True
    return AuditReport(
        "collinearity", state_id,
        {
            "S(rho||sigma_meas)": Quantity(whole, TAG_EXACT),
            "S(rho||rho_meas)": Quantity(leg_one, TAG_EXACT),
            "S(rho_meas||sigma_meas)": Quantity(leg_two, TAG_EXACT),
        },
        float(slack), violated, TOL_IDENTITY,
    )


def dpi_check(rho: DensityMatrix, sigma: DensityMatrix, basis: MeasurementBasis,
              kind: DistanceKind = DistanceKind.RELATIVE_ENTROPY,
              state_id: str = "") -> AuditReport:
    """Data processing: the distance must not grow under the measurement
    channel; slack = D(rho, sigma) - D(rho', sigma') >= 0."""
    before = distance(kind, rho, sigma)
    after = distance(kind, measure_channel(rho, basis), measure_channel(sigma, basis))
    if before == np.inf:
        slack = 0.0 if after == np.inf else np.inf
    else:
        slack = before - after
    return AuditReport(
        f"dpi-{kind.value}", state_id,
        {
            "D(rho,sigma)": Quantity(before, TAG_EXACT),
            "D(rho_meas,sigma_meas)": Quantity(after, TAG_EXACT),
        },
        float(slack), bool(slack < -TOL_ANALYTIC), TOL_ANALYTIC,
    )


def main_inequality_audit(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
                          state_id: str = "") -> AuditReport:
    """Central cost bound on (A, B, C): the deficit of the sent particle
    plus the initial-cut entanglement must cover the final-cut
    entanglement.

    slack = upper(delta C|AB) + upper(E AC|B) - lower(E A|BC); the single
    lower bound sits on the entanglement being explained, so slack <
    -TOL_OPTIMIZER falsifies the inequality rather than the optimizers.

    When that lower bound is not positive the slack is a sum of two
    nonnegative upper bounds and cannot fail, so neither search runs and
    the report carries ``"vacuous": True`` (exactly when it is not
    ``powered``).  The uppers are then in closed form: the
    computational-basis deficit on C, the deficit search's zero start, and
    the mutual information S(AC) + S(B) - S = S(rho || rho_AC (x) rho_B),
    the relative entropy to a product state.  That product state is not
    the REE search's dephased start and can be farther: 0.560 against
    0.489 on ginibre_mixed((2,2,2), 8, 42, 0).  Both uppers are looser than
    the searched values, so the slack of a vacuous sample is no measure of
    tightness.
    """
    cfg = cfg or OptimizerConfig()
    if tuple(rho.labels) != ("A", "B", "C"):
        raise InputError(f"audit expects labels (A, B, C), got {rho.labels}")
    lower_e_final = coherent_info_lower(rho, Bipartition(("A",), ("B", "C")))
    if lower_e_final > 0.0:
        upper_e_init, _ = ree_upper(rho, Bipartition(("A", "C"), ("B",)),
                                    seed=cfg.seed)
        upper_delta, _ = one_way_deficit(rho, "C", DistanceKind.RELATIVE_ENTROPY,
                                         cfg)
        extra = {}
    else:
        upper_e_init = (vn_entropy(partial_trace(rho, ("B",)))
                        + vn_entropy(partial_trace(rho, ("A", "C")))
                        - vn_entropy(rho))
        upper_delta = deficit_for_basis(
            rho, computational_basis("C", rho.dims.dim_of("C")))
        extra = {"vacuous": True}
    slack = upper_delta + upper_e_init - lower_e_final
    return AuditReport(
        "main", state_id,
        {
            "E_A|BC_lower": Quantity(float(lower_e_final), TAG_LOWER),
            "E_AC|B_upper": Quantity(float(upper_e_init), TAG_UPPER),
            "delta_C|AB_upper": Quantity(float(upper_delta), TAG_UPPER),
        },
        float(slack), bool(slack < -TOL_OPTIMIZER), TOL_OPTIMIZER, extra=extra,
    )


def pure_chain_check(psi, dims: SubsystemDims, state_id: str = "") -> AuditReport:
    """Two-sided sandwich specialized to pure states, where deficit equals
    entanglement and everything reduces to exact reduced entropies:
    |S_B - S_C| <= S_A <= S_B + S_C."""
    if len(dims.labels) != 3:
        raise InputError("pure chain check needs a tripartite state")
    rho = vector_state(psi, dims)
    la, lb, lc = dims.labels
    s_a = vn_entropy(partial_trace(rho, (lb, lc)))
    s_b = vn_entropy(partial_trace(rho, (la, lc)))
    s_c = vn_entropy(partial_trace(rho, (la, lb)))
    slack_lo = s_a - abs(s_b - s_c)
    slack_hi = s_b + s_c - s_a
    slack = min(slack_lo, slack_hi)
    return AuditReport(
        "pure-chain", state_id,
        {
            "S_A": Quantity(s_a, TAG_EXACT),
            "S_B": Quantity(s_b, TAG_EXACT),
            "S_C": Quantity(s_c, TAG_EXACT),
            "slack_lo": Quantity(slack_lo, TAG_EXACT),
            "slack_hi": Quantity(slack_hi, TAG_EXACT),
        },
        float(slack), bool(slack < -TOL_ANALYTIC), TOL_ANALYTIC,
    )


def distance_chain_check(rho: DensityMatrix, sigma: DensityMatrix,
                         basis: MeasurementBasis, kind: DistanceKind,
                         state_id: str = "") -> AuditReport:
    """Generalized-distance triangle chain through the dephased state:
    D(rho, sigma') <= D(rho, rho') + D(rho', sigma').

    Asserted for the trace distance.  For the Bures form used here the
    triangle inequality is an open question, so Bures reports carry the
    slack as a statistic and never set the violated flag.
    """
    if kind not in (DistanceKind.TRACE, DistanceKind.BURES):
        raise InputError("distance chain applies to the trace and Bures kinds")
    rho_p = measure_channel(rho, basis)
    sigma_p = measure_channel(sigma, basis)
    whole = distance(kind, rho, sigma_p)
    leg_one = distance(kind, rho, rho_p)
    leg_two = distance(kind, rho_p, sigma_p)
    slack = leg_one + leg_two - whole
    asserted = kind is DistanceKind.TRACE
    return AuditReport(
        f"distance-chain-{kind.value}", state_id,
        {
            "D(rho,sigma_meas)": Quantity(whole, TAG_EXACT),
            "D(rho,rho_meas)": Quantity(leg_one, TAG_EXACT),
            "D(rho_meas,sigma_meas)": Quantity(leg_two, TAG_EXACT),
        },
        float(slack), bool(asserted and slack < -TOL_ANALYTIC), TOL_ANALYTIC,
        extra={"asserted": asserted},
    )


# ----------------------------------------------------------------------
# Randomized campaigns.
# ----------------------------------------------------------------------

# The distance kinds each campaign check audits, its default first.
_RE_ONLY = (DistanceKind.RELATIVE_ENTROPY,)
_CHECK_KINDS = {"collinearity": _RE_ONLY, "dpi": tuple(DistanceKind),
                "main": _RE_ONLY, "pure-chain": _RE_ONLY,
                "distance-chain": (DistanceKind.TRACE, DistanceKind.BURES),
                "protocol": _RE_ONLY}
CAMPAIGN_CHECKS = tuple(_CHECK_KINDS)


def _campaign_kind(check: str, dims: SubsystemDims,
                   kind: DistanceKind | None) -> DistanceKind:
    """The kind `check` audits: `kind`, or the check's default when None.
    A kind or dims the check would not audit is an input error, so no
    campaign reports a pass on a claim it never tested."""
    if check not in _CHECK_KINDS:
        raise InputError(f"unknown campaign check {check!r}; one of {CAMPAIGN_CHECKS}")
    kinds = _CHECK_KINDS[check]
    kind = kinds[0] if kind is None else kind
    if kind not in kinds:
        raise InputError(f"campaign check {check!r} audits only "
                         f"{', '.join(k.value for k in kinds)}, not {kind.value}")
    if check == "protocol" and dims.dims != (2, 2, 2):
        raise InputError(f"the protocol check runs (2, 2, 2) scripts, not {dims.dims}")
    return kind


def campaign_sample(check: str, dims: SubsystemDims, seed: int, index: int,
                    kind: DistanceKind | None = None) -> AuditReport:
    """Audit one counter-addressed random sample of a campaign; the
    measured subsystem is the last label."""
    kind = _campaign_kind(check, dims, kind)
    state_id = f"{check}-{seed}-{index}"

    def pair():
        rho = ginibre_mixed(dims, dims.total_dim, seed, 2 * index)
        sigma = ginibre_mixed(dims, dims.total_dim, seed, 2 * index + 1)
        basis = MeasurementBasis(dims.labels[-1],
                                 haar_unitary(dims.dims[-1], seed, index))
        return rho, sigma, basis

    if check == "collinearity":
        return collinearity_check(*pair(), state_id=state_id)
    if check == "dpi":
        rho, sigma, basis = pair()
        return dpi_check(rho, sigma, basis, kind, state_id=state_id)
    if check == "main":
        rho = ginibre_mixed(dims, dims.total_dim, seed, index)
        return main_inequality_audit(rho, OptimizerConfig(seed=seed),
                                     state_id=state_id)
    if check == "pure-chain":
        return pure_chain_check(haar_pure(dims, seed, index), dims,
                                state_id=state_id)
    if check == "distance-chain":
        return distance_chain_check(*pair(), kind, state_id=state_id)
    from .protocol import random_script, run_protocol
    ledger = run_protocol(random_script(seed, index), OptimizerConfig(seed=seed))
    return AuditReport(
        "protocol", state_id,
        {
            "sum_deltas": Quantity(float(sum(ledger.deltas)), TAG_UPPER),
            "E_initial_upper": Quantity(ledger.e_initial_upper, TAG_UPPER),
            "E_final_lower": Quantity(ledger.e_final_lower, TAG_LOWER),
        },
        ledger.budget_slack, ledger.failed, TOL_OPTIMIZER,
        extra={"n_sends": len(ledger.deltas), "locc_ok": ledger.locc_ok},
    )


def run_campaign(check: str, dims: SubsystemDims, samples: int, seed: int,
                 kind: DistanceKind | None = None,
                 workers: int = 1) -> tuple[list[AuditReport], dict]:
    """Audit `samples` counter-addressed cases; reports come back ordered
    by sample index regardless of execution order.  One worker runs them
    in this process; more run them in a pool of that many processes."""
    kind = _campaign_kind(check, dims, kind)
    if samples < 1:
        raise InputError("samples must be >= 1")
    workers = max(1, min(workers, samples))
    sample = partial(campaign_sample, check, dims, seed, kind=kind)
    if workers == 1:
        reports = list(map(sample, range(samples)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(sample, range(samples)))
    slacks = [r.slack for r in reports]
    summary = {
        "check": check,
        "samples": samples,
        "violations": int(sum(r.violated for r in reports)),
        "powered": int(sum(r.powered for r in reports)),
        "min_slack": float(min(slacks)),
        "max_abs_slack": float(max(abs(s) for s in slacks)),
        "seed": seed,
    }
    return reports, summary

"""Multi-round entanglement-distribution ledger.

A protocol script is a sequence of sends of the ancilla C between Alice
(who holds A) and Bob (who holds B), interleaved with local channels on
whichever subsystems a party currently holds.  The ledger audits the
budget: the entanglement gained between the two labs can never exceed the
summed quantum-correlation cost of the sends.  Bound directions are
chosen so a negative budget slack is a sound falsification signal:
per-send costs and the initial entanglement are upper bounds, the final
entanglement is a certified lower bound.

Classical communication is modeled implicitly: scripts are deterministic
state trajectories, with LOCC rounds expressed as local channels whose
Kraus sets the script author fixed in advance.  Outcome-adaptive LOCC
trees are out of scope.  Only C is transmissible and the channel is
noiseless.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .entanglement import coherent_info_lower, ree_upper
from .inequality import TOL_OPTIMIZER
from .measures import DistanceKind
from .optim import OptimizerConfig
from .qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                   load_state, local_channel, matrix_from_json, matrix_to_json,
                   state_from_json_dict, state_to_json_dict, vector_state)
from .quantumness import one_way_deficit
from .statezoo import haar_pure, haar_unitary

ALICE = "Alice"
BOB = "Bob"

SEND_C = "SEND_C"
LOCAL_CHANNEL = "LOCAL_CHANNEL"

_KRAUS_TOL = 1e-9


@dataclass(frozen=True)
class Step:
    kind: str
    party: str | None = None
    kraus: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.kind not in (SEND_C, LOCAL_CHANNEL):
            raise InputError(f"unknown step kind {self.kind!r}")
        if self.kind == LOCAL_CHANNEL:
            if self.party not in (ALICE, BOB):
                raise InputError(f"local channel needs party Alice or Bob, got {self.party!r}")
            if not self.kraus:
                raise InputError("local channel needs at least one Kraus operator")
            ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
            d = ops[0].shape[0]
            acc = np.zeros((d, d), dtype=complex)
            for k in ops:
                if k.ndim != 2 or k.shape != (d, d):
                    raise InputError("Kraus operators must be square and equally sized")
                acc += k.conj().T @ k
            if np.max(np.abs(acc - np.eye(d))) > _KRAUS_TOL:
                raise InputError("Kraus operators do not satisfy sum K^dag K = I")
            object.__setattr__(self, "kraus", ops)
        elif self.party is not None and self.party not in (ALICE, BOB):
            raise InputError(f"unknown party {self.party!r}")


@dataclass(frozen=True)
class ProtocolScript:
    initial_state: DensityMatrix
    initial_owner_of_c: str
    steps: tuple[Step, ...]

    def __post_init__(self):
        if self.initial_owner_of_c not in (ALICE, BOB):
            raise InputError(f"owner of C must be Alice or Bob, got {self.initial_owner_of_c!r}")
        if set(self.initial_state.labels) != {"A", "B", "C"}:
            raise InputError("protocol states live on labels A, B, C")
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass
class LedgerReport:
    """Bounds and verdict of one protocol run.  The verdict uses only the
    sound side of each bound, budget_slack = sum(deltas) - (e_final_lower -
    e_initial_upper); e_initial_lower and e_final_upper are report-only
    and never enter it."""

    e_initial_lower: float
    e_initial_upper: float
    e_final_lower: float
    e_final_upper: float
    deltas: list[float]
    budget_slack: float
    violated: bool
    initial_cut: str
    final_cut: str
    locc_checks: list[dict] = field(default_factory=list)
    owner_trajectory: list[str] = field(default_factory=list)

    @property
    def locc_ok(self) -> bool:
        return all(not c["violated"] for c in self.locc_checks)

    @property
    def failed(self) -> bool:
        """The run's verdict: the budget is violated or a local step
        raised the entanglement across the lab cut."""
        return self.violated or not self.locc_ok

    def to_json_dict(self) -> dict:
        return {
            "E_initial": {"lower": self.e_initial_lower, "upper": self.e_initial_upper},
            "E_final": {"lower": self.e_final_lower, "upper": self.e_final_upper},
            "deltas": list(self.deltas),
            "budget_slack": self.budget_slack,
            "violated": self.violated,
            "initial_cut": self.initial_cut,
            "final_cut": self.final_cut,
            "locc_checks": self.locc_checks,
            "locc_ok": self.locc_ok,
            "owner_trajectory": self.owner_trajectory,
        }


def held_labels(party: str, owner_of_c: str) -> tuple[str, ...]:
    base = ("A",) if party == ALICE else ("B",)
    return base + ("C",) if owner_of_c == party else base


def ownership_cut(owner_of_c: str) -> Bipartition:
    """The lab cut: AC|B while Alice holds C, A|BC once Bob does."""
    if owner_of_c == ALICE:
        return Bipartition(("A", "C"), ("B",))
    return Bipartition(("A",), ("B", "C"))


def apply_local_channel(rho: DensityMatrix, party: str, kraus,
                        owner_of_c: str) -> DensityMatrix:
    """sum_k K rho K^dag with the Kraus operators acting on the party's
    currently held subsystems, identity elsewhere."""
    step = Step(LOCAL_CHANNEL, party=party, kraus=tuple(kraus))
    held = held_labels(party, owner_of_c)
    return DensityMatrix.trusted(
        local_channel(rho.mat, rho.dims, held, step.kraus), rho.dims)


def run_protocol(script: ProtocolScript,
                 cfg: OptimizerConfig | None = None) -> LedgerReport:
    """Execute the script, recording the per-send cost upper bounds and the
    ledger inequality check."""
    cfg = cfg or OptimizerConfig()
    rho = script.initial_state
    owner = script.initial_owner_of_c

    initial_cut = ownership_cut(owner)
    e_init_upper, _ = ree_upper(rho, initial_cut, seed=cfg.seed)
    e_init_lower = coherent_info_lower(rho, initial_cut)

    deltas: list[float] = []
    locc_checks: list[dict] = []
    trajectory = [owner]
    for i, step in enumerate(script.steps):
        if step.kind == SEND_C:
            if step.party is not None and step.party != owner:
                raise InputError(
                    f"step {i}: {step.party} cannot send C, {owner} holds it"
                )
            delta, _ = one_way_deficit(rho, "C", DistanceKind.RELATIVE_ENTROPY, cfg)
            deltas.append(float(delta))
            owner = BOB if owner == ALICE else ALICE
        else:
            # local channels cannot raise entanglement across the lab cut:
            # the post-step lower bound must stay under the pre-step upper
            cut = ownership_cut(owner)
            pre_upper, _ = ree_upper(rho, cut, seed=cfg.seed)
            rho = apply_local_channel(rho, step.party, step.kraus, owner)
            post_lower = coherent_info_lower(rho, cut)
            slack = float(pre_upper - post_lower)
            locc_checks.append({
                "step": i,
                "cut": str(cut),
                "pre_upper": float(pre_upper),
                "post_lower": float(post_lower),
                "slack": slack,
                "violated": slack < -TOL_OPTIMIZER,
            })
        trajectory.append(owner)

    final_cut = ownership_cut(owner)
    e_final_lower = coherent_info_lower(rho, final_cut)
    e_final_upper, _ = ree_upper(rho, final_cut, seed=cfg.seed)

    budget_slack = float(sum(deltas) - (e_final_lower - e_init_upper))
    return LedgerReport(
        e_initial_lower=float(e_init_lower),
        e_initial_upper=float(e_init_upper),
        e_final_lower=float(e_final_lower),
        e_final_upper=float(e_final_upper),
        deltas=deltas,
        budget_slack=budget_slack,
        violated=budget_slack < -TOL_OPTIMIZER,
        initial_cut=str(initial_cut),
        final_cut=str(final_cut),
        locc_checks=locc_checks,
        owner_trajectory=trajectory,
    )


# ----------------------------------------------------------------------
# Script file format and shipped example scripts.
# ----------------------------------------------------------------------

def script_from_json_dict(data: dict, base_dir: str) -> ProtocolScript:
    try:
        initial = data["initial_state"]
        owner = data["owner_of_C"]
        steps_raw = data["steps"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"script missing field: {exc}") from exc
    if not isinstance(steps_raw, list) or not all(isinstance(raw, dict)
                                                  for raw in steps_raw):
        raise InputError("script steps must be a list of objects")
    if isinstance(initial, str):
        state = load_state(os.path.join(base_dir, initial))
    else:
        state = state_from_json_dict(initial)
    steps = []
    for raw in steps_raw:
        kind = raw.get("kind")
        if kind == SEND_C:
            steps.append(Step(SEND_C, party=raw.get("party")))
        elif kind == LOCAL_CHANNEL:
            steps.append(Step(LOCAL_CHANNEL, party=raw.get("party"),
                              kraus=tuple(matrix_from_json(k) for k in raw.get("kraus", []))))
        else:
            raise InputError(f"unknown step kind {kind!r}")
    return ProtocolScript(state, owner, tuple(steps))


def script_to_json_dict(script: ProtocolScript) -> dict:
    steps = []
    for s in script.steps:
        if s.kind == SEND_C:
            steps.append({"kind": SEND_C} if s.party is None
                         else {"kind": SEND_C, "party": s.party})
        else:
            steps.append({"kind": LOCAL_CHANNEL, "party": s.party,
                          "kraus": [matrix_to_json(k) for k in s.kraus]})
    return {
        "initial_state": state_to_json_dict(script.initial_state),
        "owner_of_C": script.initial_owner_of_c,
        "steps": steps,
    }


def load_script(path) -> ProtocolScript:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    return script_from_json_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def trivial_distribution_script() -> ProtocolScript:
    """Alice locally prepares a pure state on A and C with Schmidt angle
    pi/5, then sends C to Bob: the cost of the single send matches the
    entanglement it establishes."""
    dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
    amp0, amp1 = np.cos(np.pi / 5), np.sin(np.pi / 5)
    psi = np.zeros(8, dtype=complex)
    psi[0b000] = amp0  # |0_A 0_B 0_C>
    psi[0b101] = amp1  # |1_A 0_B 1_C>
    state = vector_state(psi, dims)
    return ProtocolScript(state, ALICE, (Step(SEND_C),))


def round_trip_script(seed: int = 5) -> ProtocolScript:
    """Two channel uses: send C to Bob, let Bob act unitarily on BC, send
    C back.  On pure inputs every audited quantity is an exact entropy."""
    dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
    psi = haar_pure(dims, seed, 0)
    state = vector_state(psi, dims)
    u = haar_unitary(4, seed, 1)
    return ProtocolScript(state, ALICE, (
        Step(SEND_C),
        Step(LOCAL_CHANNEL, party=BOB, kraus=(u,)),
        Step(SEND_C),
    ))


def random_script(seed: int, index: int) -> ProtocolScript:
    """Random pure-state script with unitary-only LOCC, for campaigns."""
    dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
    psi = haar_pure(dims, seed, index)
    state = vector_state(psi, dims)
    gen = rng.stream(seed, index, purpose=rng.PURPOSE_SCRIPT)
    n_sends = int(gen.integers(1, 4))
    owner = ALICE
    steps: list[Step] = []
    sub_index = 0
    for _ in range(n_sends):
        if gen.random() < 0.5:
            party = ALICE if gen.random() < 0.5 else BOB
            d = 4 if owner == party else 2
            u = haar_unitary(d, seed * 2654435761 % (2**63), index * 8 + sub_index)
            sub_index += 1
            steps.append(Step(LOCAL_CHANNEL, party=party, kraus=(u,)))
        steps.append(Step(SEND_C))
        owner = BOB if owner == ALICE else ALICE
    return ProtocolScript(state, ALICE, tuple(steps))

"""Acceptance gate: every shipped claim, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The campaign criteria are sized for a single core and,
like the CLI's default, run their samples in this process.
"""

import json
import time

import numpy as np
import pytest

import qcost.cli as cli
from qcost.entanglement import ree_upper
from qcost.inequality import run_campaign
from qcost.measures import DistanceKind, bures_distance, trace_distance
from qcost.optim import OptimizerConfig
from qcost.protocol import (round_trip_script, run_protocol,
                            trivial_distribution_script)
from qcost.qmat import Bipartition, SubsystemDims, vector_state
from qcost.quantumness import MeasurementBasis, deficit_for_basis, \
    one_way_deficit
from qcost.statezoo import TRIPARTITE_QUBITS, ginibre_mixed, haar_pure

SEED = 42
CFG = OptimizerConfig(seed=SEED)
TWOQ = SubsystemDims(("A", "B"), (2, 2))


def report(number: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {verdict}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_eta_reproduction(capsys):
    start = time.monotonic()
    code = cli.main(["eta", "--seed", str(SEED)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    data = json.JSONDecoder().raw_decode(out)[0]
    third = 1.0 / 3.0
    with capsys.disabled():
        ok_a = abs(data["deficit_computational"] - third) <= 1e-9
        ok_b = third - 1e-9 <= data["deficit_optimized_upper"] <= third + 1e-4
        ok_c = data["ree_upper_AC|B"] <= 1e-3 and data["ree_upper_AB|C"] <= 1e-3
        ok_d = abs(data["measured_separable_upper"] - third) <= 1e-8
        ok_time = elapsed <= 60.0
        report(1, "eta reproduction (deficit 1/3, separable cuts, "
                  "measured-separable bound)",
               code == 0 and ok_a and ok_b and ok_c and ok_d and ok_time,
               f"{elapsed:.1f}s")


def test_criterion_2_collinearity_identity(capsys):
    start = time.monotonic()
    _, summary = run_campaign("collinearity", TRIPARTITE_QUBITS, 100, SEED)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(2, "collinearity identity on 100 random triples",
               summary["violations"] == 0 and summary["max_abs_slack"] <= 1e-8
               and elapsed <= 10.0,
               f"max |slack| {summary['max_abs_slack']:.2e}, {elapsed:.1f}s")


def test_criterion_3_dpi(capsys):
    start = time.monotonic()
    ok = True
    details = []
    for kind in (DistanceKind.RELATIVE_ENTROPY, DistanceKind.TRACE):
        _, summary = run_campaign("dpi", TRIPARTITE_QUBITS, 100, SEED, kind=kind)
        ok = ok and summary["violations"] == 0 and summary["min_slack"] >= -1e-9
        details.append(f"{kind.value} min slack {summary['min_slack']:.2e}")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(3, "data-processing inequality, 100 triples per kind",
               ok and elapsed <= 10.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_pure_chain(capsys):
    start = time.monotonic()
    reports, summary = run_campaign("pure-chain", TRIPARTITE_QUBITS, 1000, SEED)
    elapsed = time.monotonic() - start
    both_ok = all(r.quantities["slack_lo"].value >= -1e-9
                  and r.quantities["slack_hi"].value >= -1e-9 for r in reports)
    with capsys.disabled():
        report(4, "pure-state sandwich chain on 1000 Haar samples",
               summary["violations"] == 0 and both_ok and elapsed <= 10.0,
               f"min slack {summary['min_slack']:.2e}, {elapsed:.1f}s")


def test_criterion_5_main_inequality_campaign(capsys):
    start = time.monotonic()
    _, summary = run_campaign("main", TRIPARTITE_QUBITS, 200, SEED)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(5, "central cost bound on 200 Ginibre states, sound directions",
               summary["violations"] == 0 and summary["min_slack"] >= -1e-6
               and elapsed <= 1800.0,
               f"min slack {summary['min_slack']:.3e}, "
               f"powered {summary['powered']}/200, {elapsed:.0f}s")


def _schmidt_entropy_oracle(psi: np.ndarray) -> float:
    """Independent oracle: entanglement entropy from singular values of the
    reshaped amplitude matrix."""
    s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    p = s ** 2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def _bloch_basis(theta: float, phi: float) -> MeasurementBasis:
    u0 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    u1 = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    return MeasurementBasis("A", np.column_stack([u0, u1]))


def test_criterion_6_optimizer_calibration(capsys):
    start = time.monotonic()
    cut = Bipartition(("A",), ("B",))

    worst_ree = -np.inf
    ree_ok = True
    for i in range(20):
        psi = haar_pure(TWOQ, SEED, i)
        exact = _schmidt_entropy_oracle(psi)
        value, _ = ree_upper(vector_state(psi, TWOQ), cut, seed=SEED)
        err = value - exact
        worst_ree = max(worst_ree, err)
        ree_ok = ree_ok and (-1e-9 <= err <= 2e-3)

    thetas = np.linspace(0.0, np.pi, 31)
    phis = np.linspace(0.0, 2 * np.pi, 61, endpoint=False)
    worst_grid = 0.0
    grid_ok = True
    for i in range(20):
        rho = ginibre_mixed(TWOQ, 4, SEED, i)
        grid = min(deficit_for_basis(rho, _bloch_basis(t, p))
                   for t in thetas for p in phis)
        value, _ = one_way_deficit(rho, "A", cfg=CFG)
        diff = abs(value - grid)
        worst_grid = max(worst_grid, diff)
        # the search may land between grid points, never above the grid
        grid_ok = grid_ok and diff <= 1e-3 and value <= grid + 1e-12

    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(6, "optimizer calibration against pure-state and grid oracles",
               ree_ok and grid_ok and elapsed <= 600.0,
               f"worst ree err {worst_ree:.2e}, worst grid diff "
               f"{worst_grid:.2e}, {elapsed:.0f}s")


def test_criterion_7_protocol_ledger(capsys):
    start = time.monotonic()
    trivial = run_protocol(trivial_distribution_script(), CFG)
    round_trip = run_protocol(round_trip_script(), CFG)
    elapsed = time.monotonic() - start
    trivial_ok = -1e-6 <= trivial.budget_slack <= 5e-3
    round_ok = round_trip.budget_slack >= -1e-6
    with capsys.disabled():
        report(7, "protocol ledgers: economic single send and round trip",
               trivial_ok and round_ok and elapsed <= 300.0,
               f"trivial slack {trivial.budget_slack:.2e}, round-trip slack "
               f"{round_trip.budget_slack:.2e}, {elapsed:.0f}s")


def test_criterion_8_property_suites(capsys):
    # The module-level invariants live in the per-module test files; this
    # criterion additionally pins the 500-triple distance checks.
    start = time.monotonic()
    violations_trace = 0
    bures_violations = 0
    bures_worst = 0.0
    for i in range(500):
        a = ginibre_mixed(TWOQ, 4, SEED, 3 * i)
        b = ginibre_mixed(TWOQ, 4, SEED, 3 * i + 1)
        c = ginibre_mixed(TWOQ, 4, SEED, 3 * i + 2)
        if trace_distance(a, c) > trace_distance(a, b) + trace_distance(b, c) + 1e-9:
            violations_trace += 1
        slack = bures_distance(a, b) + bures_distance(b, c) - bures_distance(a, c)
        if slack < -1e-9:
            bures_violations += 1
            bures_worst = min(bures_worst, slack)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"criterion 8 note: bures-form triangle statistics: "
              f"{bures_violations}/500 violations, worst slack {bures_worst:.3e} "
              f"(reported, not asserted)")
        report(8, "property suites incl. 500-triple trace triangle",
               violations_trace == 0 and elapsed <= 120.0,
               f"trace violations {violations_trace}, {elapsed:.0f}s")

import json

import numpy as np
import pytest

from qcost.inequality import (AuditReport, Quantity, TAG_EXACT, TAG_LOWER,
                              TAG_UPPER, collinearity_check, dpi_check,
                              distance_chain_check, main_inequality_audit,
                              pure_chain_check, run_campaign)
from qcost.measures import DistanceKind, relative_entropy
from qcost.optim import OptimizerConfig
from qcost.qmat import (DensityMatrix, InputError, SubsystemDims, embed_local,
                        partial_trace, permute_subsystems, vector_state)
from qcost.quantumness import MeasurementBasis, computational_basis, \
    measure_channel
from qcost.statezoo import (TRIPARTITE_QUBITS, eta_state, ghz_state,
                            ginibre_mixed, haar_pure, haar_unitary)

CFG = OptimizerConfig(seed=4)
TWOQ = SubsystemDims(("A", "B"), (2, 2))


class TestCollinearity:
    def test_sigma_equals_rho(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 40, 0)
        report = collinearity_check(rho, rho, computational_basis("C", 2))
        assert abs(report.slack) <= 1e-10
        assert not report.violated

    def test_eta_case(self):
        eta = eta_state()
        basis = computational_basis("C", 2)
        etap = measure_channel(eta, basis)
        report = collinearity_check(eta, etap, basis)
        assert not report.violated
        assert report.quantities["S(rho||sigma_meas)"].value == \
            pytest.approx(1 / 3, abs=1e-10)
        assert report.quantities["S(rho_meas||sigma_meas)"].value == \
            pytest.approx(0.0, abs=1e-10)

    def test_random_triples(self):
        worst = 0.0
        for i in range(30):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 41, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 41, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 41, i))
            report = collinearity_check(rho, sigma, basis)
            worst = max(worst, abs(report.slack))
            assert not report.violated
        assert worst <= 1e-8

    def test_consistent_infinities(self):
        # sigma pure in the measured basis: both sides are infinite together
        rho = ginibre_mixed(TWOQ, 4, 42, 0)
        sigma = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), TWOQ)
        report = collinearity_check(rho, sigma, computational_basis("B", 2))
        assert not report.violated
        assert report.slack == 0.0

    def test_invariance_under_local_conjugation(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 43, 0)
        sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 43, 1)
        u = haar_unitary(2, 43, 2)
        basis = MeasurementBasis("C", haar_unitary(2, 43, 3))
        emb = embed_local(u, "C", TRIPARTITE_QUBITS)
        rho_u = DensityMatrix(emb @ rho.mat @ emb.conj().T, TRIPARTITE_QUBITS)
        sigma_u = DensityMatrix(emb @ sigma.mat @ emb.conj().T, TRIPARTITE_QUBITS)
        basis_u = MeasurementBasis("C", u @ basis.unitary)
        r1 = collinearity_check(rho, sigma, basis)
        r2 = collinearity_check(rho_u, sigma_u, basis_u)
        assert r1.slack == pytest.approx(r2.slack, abs=1e-8)


class TestDpi:
    def test_fixed_point_slack_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), TWOQ)
        sigma = DensityMatrix(np.diag([0.25, 0.25, 0.3, 0.2]).astype(complex), TWOQ)
        report = dpi_check(rho, sigma, computational_basis("A", 2))
        assert report.slack == pytest.approx(0.0, abs=1e-10)

    def test_strict_contraction_for_orthogonal_pures(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        qubit = SubsystemDims(("A",), (2,))
        rho = vector_state(np.asarray(plus, complex), qubit)
        sigma = vector_state(np.asarray(minus, complex), qubit)
        report = dpi_check(rho, sigma, computational_basis("A", 2),
                           DistanceKind.TRACE)
        assert report.slack > 0.5  # measured states coincide, distance was 1

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_random_triples(self, kind):
        for i in range(20):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 44, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 44, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 44, i))
            report = dpi_check(rho, sigma, basis, kind)
            assert report.slack >= -1e-9
            assert not report.violated


class TestMainInequality:
    def test_pure_product_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rho = vector_state(psi, TRIPARTITE_QUBITS)
        report = main_inequality_audit(rho, CFG)
        for q in report.quantities.values():
            assert abs(q.value) <= 1e-6
        assert abs(report.slack) <= 2e-6

    def test_ghz(self):
        report = main_inequality_audit(ghz_state(), CFG)
        assert report.quantities["E_A|BC_lower"].value == pytest.approx(1.0, abs=1e-9)
        assert report.quantities["delta_C|AB_upper"].value == pytest.approx(1.0, abs=1e-3)
        assert report.quantities["E_AC|B_upper"].value == pytest.approx(1.0, abs=1e-2)
        assert report.slack == pytest.approx(1.0, abs=2e-2)
        assert not report.violated

    def test_soundness_tags(self):
        report = main_inequality_audit(ghz_state(), CFG)
        tags = [q.tag for q in report.quantities.values()]
        assert tags.count(TAG_LOWER) == 1
        assert tags.count(TAG_UPPER) == 2

    def test_wrong_arity(self):
        with pytest.raises(InputError):
            main_inequality_audit(ginibre_mixed(TWOQ, 4, 45, 0), CFG)

    def test_small_campaign_clean(self):
        reports, summary = run_campaign("main", TRIPARTITE_QUBITS, 5, 46,
                                        workers=1)
        assert summary["violations"] == 0
        assert summary["min_slack"] >= -1e-6

    def test_vacuous_audits_run_no_search(self, monkeypatch):
        # full rank: the coherent-information lower bound is 0, so the
        # slack cannot fail and neither search may run
        import qcost.inequality as inequality

        def no_search(*args, **kwargs):
            raise AssertionError("a vacuous audit ran a search")
        monkeypatch.setattr(inequality, "ree_upper", no_search)
        monkeypatch.setattr(inequality, "one_way_deficit", no_search)
        seed = 62
        reports, summary = run_campaign("main", TRIPARTITE_QUBITS, 3, seed,
                                        workers=1)
        assert summary["violations"] == 0
        assert summary["powered"] == 0
        for i, report in enumerate(reports):
            assert report.extra == {"vacuous": True}
            assert report.to_json_dict()["vacuous"] is True
            assert not report.violated
            q = {k: v.value for k, v in report.quantities.items()}
            assert q["E_A|BC_lower"] == 0.0
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, seed, i)
            product = DensityMatrix(
                np.kron(partial_trace(rho, ("B",)).mat,
                        partial_trace(rho, ("A", "C")).mat),
                SubsystemDims(("A", "C", "B"), (2, 2, 2)))
            product = permute_subsystems(product, ("A", "B", "C"))
            assert q["E_AC|B_upper"] == pytest.approx(
                relative_entropy(rho, product), abs=1e-12)
            dephased = measure_channel(rho, computational_basis("C", 2))
            assert q["delta_C|AB_upper"] == pytest.approx(
                relative_entropy(rho, dephased), abs=1e-12)
            assert report.slack == q["delta_C|AB_upper"] + q["E_AC|B_upper"]

    @pytest.mark.parametrize("state", ["ghz", "rank-2"])
    def test_powered_audits_search_once(self, monkeypatch, state):
        import qcost.inequality as inequality
        calls = {"ree_upper": 0, "one_way_deficit": 0}

        def counted(name):
            search = getattr(inequality, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return search(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(inequality, name, counted(name))
        rho = ghz_state() if state == "ghz" \
            else ginibre_mixed(TRIPARTITE_QUBITS, 2, 63, 0)
        report = main_inequality_audit(rho, CFG)
        assert report.powered
        assert calls == {"ree_upper": 1, "one_way_deficit": 1}
        assert "vacuous" not in report.to_json_dict()


class TestPureChain:
    def test_ghz_slacks(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        report = pure_chain_check(ghz, TRIPARTITE_QUBITS)
        assert report.quantities["slack_lo"].value == pytest.approx(1.0, abs=1e-9)
        assert report.quantities["slack_hi"].value == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zeros(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        report = pure_chain_check(psi, TRIPARTITE_QUBITS)
        assert abs(report.quantities["slack_lo"].value) <= 1e-12
        assert abs(report.quantities["slack_hi"].value) <= 1e-12

    def test_random_samples(self):
        for i in range(100):
            report = pure_chain_check(haar_pure(TRIPARTITE_QUBITS, 47, i),
                                      TRIPARTITE_QUBITS)
            assert report.slack >= -1e-9
            assert not report.violated

    def test_needs_three_parties(self):
        with pytest.raises(InputError):
            pure_chain_check(np.array([1, 0, 0, 0.0]), TWOQ)


class TestDistanceChain:
    def test_sigma_equals_rho(self):
        rho = ginibre_mixed(TWOQ, 4, 48, 0)
        basis = MeasurementBasis("B", haar_unitary(2, 48, 0))
        report = distance_chain_check(rho, rho, basis, DistanceKind.TRACE)
        assert report.slack >= -1e-12

    def test_trace_random(self):
        for i in range(20):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 49, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 49, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 49, i))
            report = distance_chain_check(rho, sigma, basis, DistanceKind.TRACE)
            assert report.slack >= -1e-9
            assert report.extra["asserted"] is True

    def test_bures_reported_not_asserted(self):
        slacks = []
        for i in range(20):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 50, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 50, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 50, i))
            report = distance_chain_check(rho, sigma, basis, DistanceKind.BURES)
            slacks.append(report.slack)
            assert report.extra["asserted"] is False
            assert not report.violated  # statistics only, never a hard verdict
        print(f"bures chain: min slack {min(slacks):.4f} over 20 samples")

    def test_relative_entropy_kind_rejected(self):
        rho = ginibre_mixed(TWOQ, 4, 51, 0)
        basis = MeasurementBasis("B", haar_unitary(2, 51, 0))
        with pytest.raises(InputError):
            distance_chain_check(rho, rho, basis, DistanceKind.RELATIVE_ENTROPY)


class TestReports:
    def test_json_fields(self):
        report = AuditReport("demo", "s-0",
                             {"x": Quantity(1.25, TAG_EXACT)}, 0.5, False, 1e-9)
        data = report.to_json_dict()
        assert set(data) == {"check_name", "state_id", "quantities", "slack",
                             "violated", "tolerance"}
        assert data["quantities"]["x"] == {"value": 1.25, "tag": "exact"}
        json.dumps(data)  # serializable

    def test_violated_flag_matches_slack_for_inequalities(self):
        for i in range(10):
            rho = ginibre_mixed(TWOQ, 4, 52, 2 * i)
            sigma = ginibre_mixed(TWOQ, 4, 52, 2 * i + 1)
            basis = MeasurementBasis("A", haar_unitary(2, 52, i))
            report = dpi_check(rho, sigma, basis)
            assert report.violated == (report.slack < -report.tolerance)

    def test_determinism(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 53, 0)
        r1 = main_inequality_audit(rho, CFG)
        r2 = main_inequality_audit(rho, CFG)
        assert r1.to_json_dict() == r2.to_json_dict()


class TestCampaign:
    def test_summary_schema(self):
        _, summary = run_campaign("pure-chain", TRIPARTITE_QUBITS, 10, 54,
                                  workers=1)
        assert set(summary) == {"check", "samples", "violations", "powered",
                                "min_slack", "max_abs_slack", "seed"}
        assert summary["samples"] == 10
        assert summary["seed"] == 54

    def test_reports_ordered_by_index(self):
        reports, _ = run_campaign("collinearity", TRIPARTITE_QUBITS, 6, 55,
                                  workers=1)
        assert [r.state_id for r in reports] == \
            [f"collinearity-55-{i}" for i in range(6)]

    def test_parallel_matches_serial(self):
        serial, s1 = run_campaign("pure-chain", TRIPARTITE_QUBITS, 6, 56,
                                  workers=1)
        parallel, s2 = run_campaign("pure-chain", TRIPARTITE_QUBITS, 6, 56,
                                    workers=2)
        assert s1 == s2
        for a, b in zip(serial, parallel):
            assert a.to_json_dict() == b.to_json_dict()

    def test_vacuous_main_parallel_matches_serial(self):
        serial, s1 = run_campaign("main", TRIPARTITE_QUBITS, 4, 64, workers=1)
        parallel, s2 = run_campaign("main", TRIPARTITE_QUBITS, 4, 64,
                                    workers=2)
        assert s1 == s2
        assert all(r.extra == {"vacuous": True} for r in serial)
        assert [json.dumps(r.to_json_dict()) for r in serial] == \
            [json.dumps(r.to_json_dict()) for r in parallel]

    def test_repeat_runs_bit_identical(self):
        import json
        first, _ = run_campaign("collinearity", TRIPARTITE_QUBITS, 8, 59,
                                workers=1)
        second, _ = run_campaign("collinearity", TRIPARTITE_QUBITS, 8, 59,
                                 workers=1)
        a = "\n".join(json.dumps(r.to_json_dict()) for r in first)
        b = "\n".join(json.dumps(r.to_json_dict()) for r in second)
        assert a == b

    def test_unknown_check(self):
        with pytest.raises(InputError):
            run_campaign("nonsense", TRIPARTITE_QUBITS, 1, 0, workers=1)

    def test_each_check_audits_its_own_kind(self):
        from qcost.inequality import campaign_sample
        assert campaign_sample("distance-chain", TRIPARTITE_QUBITS, 63,
                               0).check_name == "distance-chain-trace"
        assert campaign_sample("dpi", TRIPARTITE_QUBITS, 63,
                               0).check_name == "dpi-relative_entropy"
        # refused before any worker starts, not remapped or ignored
        with pytest.raises(InputError):
            run_campaign("main", TRIPARTITE_QUBITS, 2, 63,
                         kind=DistanceKind.TRACE, workers=2)
        with pytest.raises(InputError):
            campaign_sample("distance-chain", TRIPARTITE_QUBITS, 63, 0,
                            DistanceKind.RELATIVE_ENTROPY)

    def test_default_runs_in_process(self, monkeypatch):
        import qcost.inequality as inequality

        def no_pool(*args, **kwargs):
            raise AssertionError("the campaign started worker processes")
        monkeypatch.setattr(inequality, "ProcessPoolExecutor", no_pool)
        reports, _ = run_campaign("main", TRIPARTITE_QUBITS, 3, 64)
        assert [r.state_id for r in reports] == [f"main-64-{i}" for i in range(3)]

    def test_protocol_campaign_small(self):
        reports, summary = run_campaign("protocol", TRIPARTITE_QUBITS, 2, 57,
                                        workers=1)
        assert summary["violations"] == 0
        for r in reports:
            assert r.slack >= -1e-6

    def test_protocol_locc_violation_fails_sample(self, monkeypatch):
        # raising every certified lower bound by 1 fails the LOCC check of
        # sample 3 (one local channel) while its budget slack stays positive
        from qcost.inequality import campaign_sample
        import qcost.protocol as protocol
        lower = protocol.coherent_info_lower
        monkeypatch.setattr(protocol, "coherent_info_lower",
                            lambda rho, cut: lower(rho, cut) + 1.0)
        report = campaign_sample("protocol", TRIPARTITE_QUBITS, 57, 3)
        assert report.slack > 0
        assert report.violated
        assert report.extra["locc_ok"] is False

    def test_exact_identity_always_powered(self):
        _, summary = run_campaign("collinearity", TRIPARTITE_QUBITS, 4, 60,
                                  workers=1)
        assert summary["powered"] == summary["samples"] == 4

    def test_bures_distance_chain_never_powered(self):
        _, summary = run_campaign("distance-chain", TRIPARTITE_QUBITS, 4, 60,
                                  kind=DistanceKind.BURES, workers=1)
        assert summary["powered"] == 0

    def test_main_full_rank_not_powered(self):
        # the coherent-information lower bound is 0 at full rank
        reports, summary = run_campaign("main", TRIPARTITE_QUBITS, 2, 61,
                                        workers=1)
        assert summary["powered"] == 0
        assert all(r.quantities["E_A|BC_lower"].value == 0.0 for r in reports)

    def test_bipartite_dims_supported(self):
        _, summary = run_campaign("collinearity", TWOQ, 10, 58, workers=1)
        assert summary["violations"] == 0
        assert summary["max_abs_slack"] <= 1e-8

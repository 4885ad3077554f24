import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.measures import vn_entropy
from qcost.optim import OptimizerConfig
from qcost.protocol import (ALICE, BOB, LOCAL_CHANNEL, SEND_C, ProtocolScript,
                            Step, apply_local_channel, held_labels,
                            load_script, ownership_cut, round_trip_script,
                            run_protocol, script_to_json_dict,
                            trivial_distribution_script)
from qcost.qmat import InputError, partial_trace, vector_state
from qcost.statezoo import TRIPARTITE_QUBITS, ginibre_mixed, haar_pure, \
    haar_unitary

CFG = OptimizerConfig(seed=6)


class TestSteps:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            Step("TELEPORT")

    def test_kraus_completeness_enforced(self):
        with pytest.raises(InputError):
            Step(LOCAL_CHANNEL, party=ALICE, kraus=(np.eye(2) * 0.5,))

    def test_nan_kraus_entry_rejected(self):
        k = np.eye(2, dtype=complex)
        k[0, 1] = np.nan
        with pytest.raises(InputError):
            Step(LOCAL_CHANNEL, party=ALICE, kraus=(k,))

    def test_dephasing_kraus_accepted(self):
        k0 = np.diag([1.0, 0.0])
        k1 = np.diag([0.0, 1.0])
        step = Step(LOCAL_CHANNEL, party=BOB, kraus=(k0, k1))
        assert len(step.kraus) == 2

    def test_channel_needs_party(self):
        with pytest.raises(InputError):
            Step(LOCAL_CHANNEL, kraus=(np.eye(2),))


class TestHeldLabels:
    def test_ownership(self):
        assert held_labels(ALICE, ALICE) == ("A", "C")
        assert held_labels(ALICE, BOB) == ("A",)
        assert held_labels(BOB, BOB) == ("B", "C")
        assert str(ownership_cut(ALICE)) == "AC|B"
        assert str(ownership_cut(BOB)) == "A|BC"


class TestApplyLocalChannel:
    def test_identity_channel(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 60, 0)
        out = apply_local_channel(rho, BOB, (np.eye(2),), owner_of_c=ALICE)
        assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_full_dephasing_diagonalizes_factor(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 60, 1)
        k0 = np.diag([1.0, 0j])
        k1 = np.diag([0j, 1.0])
        out = apply_local_channel(rho, BOB, (k0, k1), owner_of_c=ALICE)
        # B is the middle factor: coherences between b=0 and b=1 vanish
        t = out.mat.reshape(2, 2, 2, 2, 2, 2)
        assert np.max(np.abs(t[:, 0, :, :, 1, :])) <= 1e-12
        assert np.max(np.abs(t[:, 1, :, :, 0, :])) <= 1e-12

    def test_unitary_preserves_entropies(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 60, 2)
        u = haar_unitary(4, 60, 3)
        out = apply_local_channel(rho, ALICE, (u,), owner_of_c=ALICE)
        assert vn_entropy(out) == pytest.approx(vn_entropy(rho), abs=1e-9)
        assert vn_entropy(partial_trace(out, ("A", "C"))) == pytest.approx(
            vn_entropy(partial_trace(rho, ("A", "C"))), abs=1e-9)

    def test_wrong_kraus_dimension(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 60, 4)
        with pytest.raises(InputError):
            apply_local_channel(rho, ALICE, (np.eye(2),), owner_of_c=ALICE)


class TestRunProtocol:
    def test_empty_steps(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 61, 0)
        ledger = run_protocol(ProtocolScript(rho, ALICE, ()), CFG)
        assert ledger.deltas == []
        assert ledger.budget_slack >= -1e-9
        assert not ledger.violated
        assert ledger.initial_cut == ledger.final_cut == "AC|B"

    def test_trivial_distribution_is_economic(self):
        script = trivial_distribution_script()
        ledger = run_protocol(script, CFG)
        theta = np.pi / 5
        p = np.cos(theta) ** 2
        schmidt_entropy = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        assert len(ledger.deltas) == 1
        assert ledger.deltas[0] == pytest.approx(schmidt_entropy, abs=1e-6)
        assert ledger.e_final_lower == pytest.approx(schmidt_entropy, abs=1e-9)
        assert -1e-6 <= ledger.budget_slack <= 5e-3
        assert not ledger.violated

    def test_round_trip_budget_holds(self):
        ledger = run_protocol(round_trip_script(), CFG)
        assert len(ledger.deltas) == 2
        assert all(d >= -1e-9 for d in ledger.deltas)
        assert ledger.budget_slack >= -1e-6
        assert not ledger.violated
        assert ledger.owner_trajectory[0] == ALICE
        assert ledger.owner_trajectory[-1] == ALICE
        assert len(ledger.locc_checks) == 1
        assert ledger.locc_checks[0]["slack"] >= -1e-6
        assert ledger.locc_ok

    def test_ownership_parity(self):
        psi = haar_pure(TRIPARTITE_QUBITS, 62, 0)
        rho = vector_state(psi, TRIPARTITE_QUBITS)
        script = ProtocolScript(rho, ALICE, (Step(SEND_C), Step(SEND_C),
                                             Step(SEND_C)))
        ledger = run_protocol(script, CFG)
        assert ledger.owner_trajectory == [ALICE, BOB, ALICE, BOB]
        assert ledger.final_cut == "A|BC"

    def test_illegal_send_rejected(self):
        psi = haar_pure(TRIPARTITE_QUBITS, 62, 1)
        rho = vector_state(psi, TRIPARTITE_QUBITS)
        script = ProtocolScript(rho, ALICE, (Step(SEND_C, party=BOB),))
        with pytest.raises(InputError):
            run_protocol(script, CFG)

    def test_channel_on_wrong_holding_rejected(self):
        psi = haar_pure(TRIPARTITE_QUBITS, 62, 2)
        rho = vector_state(psi, TRIPARTITE_QUBITS)
        # Bob holds only B before any send: a 4-dim Kraus cannot apply
        script = ProtocolScript(
            rho, ALICE, (Step(LOCAL_CHANNEL, party=BOB, kraus=(np.eye(4),)),))
        with pytest.raises(InputError):
            run_protocol(script, CFG)

    def test_locc_before_first_send_allowed(self):
        psi = haar_pure(TRIPARTITE_QUBITS, 62, 3)
        rho = vector_state(psi, TRIPARTITE_QUBITS)
        u = haar_unitary(4, 62, 4)
        script = ProtocolScript(rho, ALICE, (
            Step(LOCAL_CHANNEL, party=ALICE, kraus=(u,)),
            Step(SEND_C),
        ))
        ledger = run_protocol(script, CFG)
        assert ledger.budget_slack >= -1e-6
        assert len(ledger.locc_checks) == 1


class TestScriptFiles:
    def test_roundtrip(self, tmp_path):
        script = round_trip_script()
        data = script_to_json_dict(script)
        path = tmp_path / "script.json"
        path.write_text(json.dumps(data))
        back = load_script(path)
        assert back.initial_owner_of_c == script.initial_owner_of_c
        assert len(back.steps) == len(script.steps)
        assert np.max(np.abs(back.initial_state.mat
                             - script.initial_state.mat)) <= 1e-15

    def test_roundtrip_keeps_sender(self, tmp_path):
        rho = vector_state(haar_pure(TRIPARTITE_QUBITS, 62, 1), TRIPARTITE_QUBITS)
        script = ProtocolScript(rho, ALICE, (Step(SEND_C, party=BOB),))
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script_to_json_dict(script)))
        with pytest.raises(InputError):
            run_protocol(load_script(path), CFG)

    def test_state_by_reference(self, tmp_path):
        from qcost.qmat import save_state
        rho = vector_state(haar_pure(TRIPARTITE_QUBITS, 63, 0), TRIPARTITE_QUBITS)
        save_state(rho, tmp_path / "init.json")
        data = {"initial_state": "init.json", "owner_of_C": "Alice",
                "steps": [{"kind": "SEND_C"}]}
        (tmp_path / "script.json").write_text(json.dumps(data))
        script = load_script(tmp_path / "script.json")
        assert np.max(np.abs(script.initial_state.mat - rho.mat)) <= 1e-15

    def test_malformed_script(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(InputError):
            load_script(path)
        path.write_text(json.dumps({"owner_of_C": "Alice", "steps": []}))
        with pytest.raises(InputError):
            load_script(path)
        path.write_text(json.dumps({
            "initial_state": {"labels": ["A", "B", "C"], "dims": [2, 2, 2],
                              "matrix": [[[1.0, 0.0]]]},
            "owner_of_C": "Alice", "steps": []}))
        with pytest.raises(InputError):
            load_script(path)

    @pytest.mark.parametrize("kraus", [None, 5])
    def test_kraus_not_a_list(self, tmp_path, kraus):
        data = script_to_json_dict(round_trip_script())
        step = next(s for s in data["steps"] if s["kind"] == LOCAL_CHANNEL)
        step["kraus"] = kraus
        path = tmp_path / "script.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError):
            load_script(path)

import hashlib
import json

import numpy as np
import pytest

import qcost.cli as cli
from qcost.protocol import (round_trip_script, script_to_json_dict,
                            trivial_distribution_script)
from qcost.qmat import (DensityMatrix, save_state, state_to_json_dict,
                        vector_state)
from qcost.statezoo import TRIPARTITE_QUBITS

from conftest import bell_vector


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_line(out):
    return out.strip().splitlines()[-1]


def parse_json_head(out):
    """Parse the JSON object at the start of the output."""
    dec = json.JSONDecoder()
    obj, _ = dec.raw_decode(out)
    return obj


class TestGenAndMeasure:
    def test_ghz_entropy_and_purity(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        code, _ = run_cli(capsys, "gen", "--family", "ghz", "--out", path)
        assert code == 0
        code, out = run_cli(capsys, "measure", path, "--what", "entropy")
        assert code == 0
        assert float(last_line(out)) == pytest.approx(0.0, abs=1e-9)
        code, out = run_cli(capsys, "measure", path, "--what", "purity")
        assert float(last_line(out)) == pytest.approx(1.0, abs=1e-9)

    def test_eta_entropy(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, out = run_cli(capsys, "measure", path)
        assert code == 0
        assert float(last_line(out)) == pytest.approx(2.251629167, abs=1e-8)

    def test_maximally_mixed_entropy(self, tmp_path, capsys):
        path = str(tmp_path / "mixed.json")
        rho = DensityMatrix(np.eye(8, dtype=complex) / 8, TRIPARTITE_QUBITS)
        save_state(rho, path)
        _, out = run_cli(capsys, "measure", path)
        assert float(last_line(out)) == pytest.approx(3.0, abs=1e-10)

    def test_gen_determinism(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(capsys, "gen", "--family", "ginibre", "--seed", "9",
                "--index", "4", "--out", p1)
        run_cli(capsys, "gen", "--family", "ginibre", "--seed", "9",
                "--index", "4", "--out", p2)
        assert open(p1).read() == open(p2).read()

    def test_malformed_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _ = run_cli(capsys, "measure", str(path))
        assert code == 2

    def test_non_integer_dims(self, tmp_path, capsys):
        data = state_to_json_dict(DensityMatrix(np.eye(8, dtype=complex) / 8,
                                                TRIPARTITE_QUBITS))
        data["dims"] = [2, "x", 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for argv in (["measure", str(path)], ["ree", str(path), "--cut", "A|BC"]):
            code, _ = run_cli(capsys, *argv)
            assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "measure", "/does/not/exist.json")
        assert code == 2

    def test_options_only_where_read(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        run_cli(capsys, "gen", "--family", "ghz", "--out", path)
        # measure runs no optimizer and samples nothing
        for extra in (["--format", "tsv"], ["--restarts", "1"], ["--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["measure", path, *extra])
            assert exc.value.code == 2
        # gen writes to --out and runs no optimizer
        for extra in (["--output", path], ["--restarts", "3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["gen", "--family", "ghz", "--out", path, *extra])
            assert exc.value.code == 2
        # the REE ensemble cap is fixed at (dx*dy)**2
        with pytest.raises(SystemExit) as exc:
            cli.main(["ree", path, "--cut", "A|BC", "--terms", "1"])
        assert exc.value.code == 2
        # the REE search reads only the seed of the optimizer settings
        with pytest.raises(SystemExit) as exc:
            cli.main(["ree", path, "--cut", "A|BC", "--restarts", "1"])
        assert exc.value.code == 2
        # every campaign check samples its own states
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", "--check", "dpi", "--samples", "1",
                      "--ensemble", "ginibre"])
        assert exc.value.code == 2


class TestDeficitCommand:
    def test_eta_computational(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, out = run_cli(capsys, "deficit", path, "--subsystem", "C",
                            "--basis", "computational")
        assert code == 0
        assert last_line(out) == "0.333333333333"

    def test_ghz_computational(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        run_cli(capsys, "gen", "--family", "ghz", "--out", path)
        _, out = run_cli(capsys, "deficit", path, "--subsystem", "C",
                         "--basis", "computational")
        assert float(last_line(out)) == pytest.approx(1.0, abs=1e-9)

    def test_optimized_emits_basis_unitary(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, out = run_cli(capsys, "deficit", path, "--subsystem", "C",
                            "--basis", "optimize", "--restarts", "4")
        assert code == 0
        report = parse_json_head(out)
        u = np.array([[complex(e[0], e[1]) for e in row]
                      for row in report["basis_unitary"]])
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9
        assert report["value"] == pytest.approx(1 / 3, abs=1e-4)

    def test_product_state_optimized_deficit_vanishes(self, tmp_path, capsys):
        mat = np.kron(np.diag([0.6, 0.4]), np.kron(np.diag([0.5, 0.5]),
                                                   np.diag([0.9, 0.1])))
        path = str(tmp_path / "prod.json")
        save_state(DensityMatrix(mat.astype(complex), TRIPARTITE_QUBITS), path)
        code, out = run_cli(capsys, "deficit", path, "--subsystem", "C",
                            "--basis", "optimize", "--restarts", "6")
        assert code == 0
        assert float(last_line(out)) <= 1e-6

    def test_bad_label(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, _ = run_cli(capsys, "deficit", path, "--subsystem", "Q")
        assert code == 2


class TestReeCommand:
    def test_bell_with_ancilla(self, tmp_path, capsys):
        psi = np.kron(bell_vector(), [1.0, 0.0])  # Bell on A,B; ancilla C
        psi_abc = psi.reshape(2, 2, 2).transpose(0, 2, 1).reshape(8)  # A,C,B -> A,B,C
        rho = vector_state(psi_abc, TRIPARTITE_QUBITS)
        # entangled across A|BC with Schmidt entropy 1 (Bell pair A-B)
        path = str(tmp_path / "bell3.json")
        save_state(rho, path)
        code, out = run_cli(capsys, "ree", path, "--cut", "A|BC")
        assert code == 0
        report = parse_json_head(out)
        assert 1.0 - 1e-9 <= report["upper_bound"] <= 1.0 + 2e-3
        assert report["coherent_info_lower"] == pytest.approx(1.0, abs=1e-9)
        assert report["ppt_min_eigenvalue"] < -1e-6
        weights = report["ensemble"]["weights"]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_eta_separable_cut(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, out = run_cli(capsys, "ree", path, "--cut", "AC|B")
        report = parse_json_head(out)
        assert report["upper_bound"] <= 1e-3
        assert code == 0

    def test_product_state_any_cut(self, tmp_path, capsys):
        mat = np.kron(np.diag([0.6, 0.4]), np.kron(np.diag([0.5, 0.5]),
                                                   np.diag([0.9, 0.1])))
        path = str(tmp_path / "prod.json")
        save_state(DensityMatrix(mat.astype(complex), TRIPARTITE_QUBITS), path)
        code, out = run_cli(capsys, "ree", path, "--cut", "AB|C")
        assert code == 0
        assert parse_json_head(out)["upper_bound"] <= 1e-4

    def test_malformed_cut(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, _ = run_cli(capsys, "ree", path, "--cut", "A|B")
        assert code == 2


class TestEtaCommand:
    def test_reproduction_report(self, capsys):
        code, out = run_cli(capsys, "eta")
        assert code == 0
        report = parse_json_head(out)
        assert report["all_ok"] is True
        assert report["deficit_computational"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["measured_separable_upper"] == pytest.approx(1 / 3, abs=1e-8)
        assert report["ree_upper_AC|B"] <= 1e-3
        assert report["ree_upper_AB|C"] <= 1e-3
        assert report["ppt_min_AC|B"] >= -1e-9
        assert report["ppt_min_AB|C"] >= -1e-9


class TestCampaignCommand:
    def test_pure_chain_clean_exit(self, tmp_path, capsys):
        out_path = str(tmp_path / "reports.jsonl")
        code, out = run_cli(capsys, "campaign", "--check", "pure-chain",
                            "--samples", "25", "--output", out_path)
        assert code == 0
        lines = open(out_path).read().strip().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert set(first) == {"check_name", "state_id", "quantities", "slack",
                              "violated", "tolerance"}
        summary = parse_json_head(out)
        assert summary["summary"]["violations"] == 0

    def test_tsv_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.jsonl")
        code, out = run_cli(capsys, "campaign", "--check", "collinearity",
                            "--samples", "5", "--format", "tsv",
                            "--output", out_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["check", "samples", "violations",
                                        "min_slack", "max_abs_slack", "seed"]
        assert lines[1].split("\t")[1] == "5"

    def test_violation_exit_code(self, capsys, monkeypatch):
        from qcost.inequality import AuditReport

        def fake_campaign(*args, **kwargs):
            report = AuditReport("fake", "fake-0", {}, -1.0, True, 1e-9)
            summary = {"check": "fake", "samples": 1, "violations": 1,
                       "min_slack": -1.0, "max_abs_slack": 1.0, "seed": 0}
            return [report], summary

        monkeypatch.setattr(cli, "run_campaign", fake_campaign)
        code, _ = run_cli(capsys, "campaign", "--check", "pure-chain",
                          "--samples", "1")
        assert code == 1

    def test_bad_dims(self, capsys):
        code, _ = run_cli(capsys, "campaign", "--check", "pure-chain",
                          "--dims", "2,x")
        assert code == 2


class TestProtocolCommand:
    def test_trivial_script(self, tmp_path, capsys):
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(script_to_json_dict(
            trivial_distribution_script())))
        code, out = run_cli(capsys, "protocol", str(path))
        assert code == 0
        report = parse_json_head(out)
        assert -1e-6 <= report["budget_slack"] <= 5e-3
        assert report["violated"] is False

    def test_malformed_script(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1,2,3]")
        code, _ = run_cli(capsys, "protocol", str(path))
        assert code == 2

    def test_steps_not_objects(self, tmp_path, capsys):
        data = script_to_json_dict(trivial_distribution_script())
        data["steps"] = ["SEND_C"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _ = run_cli(capsys, "protocol", str(path))
        assert code == 2

    def test_locc_violation_fails_run(self, tmp_path, capsys, monkeypatch):
        # raising every certified lower bound by 1 drives the LOCC slack
        # to about -1 while the budget slack stays positive
        import qcost.protocol as protocol
        lower = protocol.coherent_info_lower
        monkeypatch.setattr(protocol, "coherent_info_lower",
                            lambda rho, cut: lower(rho, cut) + 1.0)
        path = tmp_path / "round_trip.json"
        path.write_text(json.dumps(script_to_json_dict(round_trip_script())))
        code, out = run_cli(capsys, "protocol", str(path))
        report = parse_json_head(out)
        assert code == 1
        assert report["locc_ok"] is False
        assert report["violated"] is False
        assert report["budget_slack"] > 0


class TestReportHeaders:
    def test_reproducibility_fields(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        run_cli(capsys, "gen", "--family", "ghz", "--out", path)
        _, out = run_cli(capsys, "deficit", path, "--basis", "optimize",
                         "--restarts", "1", "--seed", "123")
        report = parse_json_head(out)
        assert report["tool"] == "qcost"
        assert report["version"]
        assert report["config"]["seed"] == 123
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert report["inputs"][path] == digest

    def test_twelve_significant_digits(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        _, out = run_cli(capsys, "measure", path)
        assert last_line(out) == "2.25162916739"

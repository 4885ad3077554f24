import hashlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import qcost
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
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()

    def test_malformed_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _ = run_cli(capsys, "measure", str(path))
        assert code == 2

    def test_nan_entry_is_an_input_error(self, tmp_path, capsys):
        data = state_to_json_dict(DensityMatrix(np.eye(8, dtype=complex) / 8,
                                                TRIPARTITE_QUBITS))
        data["matrix"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        for argv in (["measure", str(path)],
                     ["deficit", str(path), "--basis", "computational"],
                     ["deficit", str(path)]):
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error:"), argv
            assert captured.out == "", argv

    def test_non_integer_dims(self, tmp_path, capsys):
        data = state_to_json_dict(DensityMatrix(np.eye(8, dtype=complex) / 8,
                                                TRIPARTITE_QUBITS))
        path = tmp_path / "bad.json"
        # a float or a string would otherwise be coerced to (2, 2, 2)
        for dims in ([2, "x", 2], [2.7, 2, 2], "222"):
            data["dims"] = dims
            path.write_text(json.dumps(data))
            for argv in (["measure", str(path)],
                         ["ree", str(path), "--cut", "A|BC"]):
                code, _ = run_cli(capsys, *argv)
                assert code == 2, (dims, argv)

    def test_ragged_state_matrix(self, tmp_path, capsys):
        data = state_to_json_dict(DensityMatrix(np.eye(8, dtype=complex) / 8,
                                                TRIPARTITE_QUBITS))
        data["matrix"][3] = data["matrix"][3][:-1]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        assert cli.main(["measure", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gen_rank_zero(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _ = run_cli(capsys, "gen", "--family", "ginibre", "--rank", "0",
                          "--out", str(path))
        assert code == 2
        assert not path.exists()

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
        # the search tolerances are fixed constants
        with pytest.raises(SystemExit) as exc:
            cli.main(["deficit", path, "--xtol", "1e-6"])
        assert exc.value.code == 2
        # every campaign check samples its own states
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", "--check", "dpi", "--samples", "1",
                      "--ensemble", "ginibre"])
        assert exc.value.code == 2
        # the seed is the only optimizer setting; a campaign always
        # measures the last subsystem
        script = tmp_path / "trivial.json"
        script.write_text(json.dumps(script_to_json_dict(
            trivial_distribution_script())))
        commands = (["deficit", path], ["eta"],
                    ["campaign", "--check", "main", "--samples", "1"],
                    ["protocol", str(script)])
        for argv in commands:
            for extra in (["--restarts", "1"], ["--max-evals", "10"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main([*argv, *extra])
                assert exc.value.code == 2, (argv, extra)
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", "--check", "main", "--samples", "1",
                      "--subsystem", "A"])
        assert exc.value.code == 2


    def test_gen_refuses_unread_options(self, tmp_path, capsys):
        # ghz and eta are fixed states, and haar-pure has no rank: each
        # option would otherwise be accepted and ignored
        path = tmp_path / "g.json"
        for argv in (["--family", "ghz", "--dims", "3,3,3", "--rank", "5"],
                     ["--family", "ghz", "--index", "7"],
                     ["--family", "eta", "--seed", "1"],
                     ["--family", "haar-pure", "--rank", "2"]):
            code = cli.main(["gen", *argv, "--out", str(path)])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.err.startswith("error:"), argv
            assert not path.exists(), argv
        code, _ = run_cli(capsys, "gen", "--family", "haar-pure", "--dims",
                          "2,3", "--index", "1", "--seed", "5", "--out", str(path))
        assert code == 0


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

    def test_computational_refuses_seed(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code = cli.main(["deficit", path, "--basis", "computational",
                         "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""
        # without a seed nothing echoes one; the search still defaults to 42
        _, out = run_cli(capsys, "deficit", path, "--basis", "computational")
        assert "seed" not in parse_json_head(out)["config"]
        _, out = run_cli(capsys, "deficit", path, "--basis", "optimize")
        assert parse_json_head(out)["config"]["seed"] == 42

    def test_optimized_emits_basis_unitary(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        code, out = run_cli(capsys, "deficit", path, "--subsystem", "C",
                            "--basis", "optimize")
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
                            "--basis", "optimize")
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

    def test_coherent_info_lower_only_for_relative_entropy(self, tmp_path, capsys):
        # on GHZ A|BC the hashing bound is 1, above the trace-kind upper 1/2:
        # it bounds the relative-entropy kind only
        path = str(tmp_path / "ghz.json")
        run_cli(capsys, "gen", "--family", "ghz", "--out", path)
        code, out = run_cli(capsys, "ree", path, "--cut", "A|BC")
        assert code == 0
        report = parse_json_head(out)
        assert report["coherent_info_lower"] == pytest.approx(1.0, abs=1e-9)
        assert report["coherent_info_lower"] <= report["upper_bound"] + 1e-9
        for kind in ("trace", "bures"):
            code, out = run_cli(capsys, "ree", path, "--cut", "A|BC", "--kind", kind)
            assert code == 0
            report = parse_json_head(out)
            assert "coherent_info_lower" not in report
            assert report["upper_bound"] < 1.0


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
        with open(out_path) as fh:
            lines = fh.read().strip().splitlines()
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
                                        "powered", "min_slack",
                                        "max_abs_slack", "seed"]
        assert lines[1].split("\t")[1] == "5"
        assert lines[1].split("\t")[3] == "5"  # an exact identity can always fail

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

    def test_inflated_lower_bound_fails_main_campaign(self, capsys,
                                                      monkeypatch):
        # negative control: raising the certified lower bound by 1 powers
        # every full-rank sample, so the searches run and the bound fails;
        # one worker keeps the patch in this process
        import qcost.inequality as inequality
        lower = inequality.coherent_info_lower
        monkeypatch.setattr(inequality, "coherent_info_lower",
                            lambda rho, cut: lower(rho, cut) + 1.0)
        code, out = run_cli(capsys, "campaign", "--check", "main",
                            "--samples", "2", "--workers", "1")
        assert code == 1
        lines = out.strip().splitlines()
        reports = [json.loads(line) for line in lines[:2]]
        summary = json.loads("\n".join(lines[2:]))["summary"]
        assert summary["violations"] == 2
        assert summary["powered"] == 2
        assert all(r["violated"] and "vacuous" not in r for r in reports)
        assert "vacuous" not in out

    def test_default_runs_in_process(self, capsys, monkeypatch):
        import qcost.inequality as inequality

        def no_pool(*args, **kwargs):
            raise AssertionError("the campaign started worker processes")
        monkeypatch.setattr(inequality, "ProcessPoolExecutor", no_pool)
        code, out = run_cli(capsys, "campaign", "--check", "collinearity",
                            "--samples", "3")
        assert code == 0
        assert json.loads("\n".join(out.strip().splitlines()[3:]))[
            "summary"]["samples"] == 3

    def test_bad_dims(self, capsys):
        code, _ = run_cli(capsys, "campaign", "--check", "pure-chain",
                          "--dims", "2,x")
        assert code == 2

    def test_unaudited_kind_or_dims_refused(self, capsys):
        # each would otherwise report a pass on a claim it never tested
        for extra in (["--check", "main", "--kind", "trace"],
                      ["--check", "collinearity", "--kind", "bures"],
                      ["--check", "pure-chain", "--kind", "trace"],
                      ["--check", "protocol", "--kind", "trace"],
                      ["--check", "distance-chain", "--kind",
                       "relative-entropy"],
                      ["--check", "protocol", "--dims", "3,3,3"]):
            code = cli.main(["campaign", "--samples", "1", "--workers", "1",
                             *extra])
            captured = capsys.readouterr()
            assert code == 2, extra
            assert captured.err.startswith("error:"), extra
            assert captured.out == "", extra


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

    def test_ragged_kraus_operator(self, tmp_path, capsys):
        data = script_to_json_dict(round_trip_script())
        step = next(s for s in data["steps"] if s["kind"] == "LOCAL_CHANNEL")
        step["kraus"][0][1] = step["kraus"][0][1][:-1]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        assert cli.main(["protocol", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_kraus_entry_is_an_input_error(self, tmp_path, capsys):
        data = script_to_json_dict(round_trip_script())
        step = next(s for s in data["steps"] if s["kind"] == "LOCAL_CHANNEL")
        step["kraus"][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["protocol", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
                         "--seed", "123")
        report = parse_json_head(out)
        assert report["tool"] == "qcost"
        assert report["version"]
        assert report["config"] == {"seed": 123, "output": "stdout",
                                    "format": "json"}
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert report["inputs"][path] == digest

    def test_twelve_significant_digits(self, tmp_path, capsys):
        path = str(tmp_path / "eta.json")
        run_cli(capsys, "gen", "--family", "eta", "--out", path)
        _, out = run_cli(capsys, "measure", path)
        assert last_line(out) == "2.25162916739"


class TestBlasThreads:
    """Importing qcost sets OPENBLAS_NUM_THREADS to 1 unless the user set
    it; forked campaign workers inherit the environment.  These check the
    variable only: OpenBLAS reads it when numpy loads, so a process that
    loaded numpy first, such as this test session, keeps its threads."""

    @staticmethod
    def threads_after_import(value):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qcost.__file__))
        code = "import os, qcost; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_unset_gives_one(self):
        assert self.threads_after_import(None) == "1"

    def test_user_value_kept(self):
        assert self.threads_after_import("3") == "3"


class TestPackageExports:
    def test_star_import_exports_no_module(self):
        namespace = {}
        exec("from qcost import *", namespace)
        exported = {k: v for k, v in namespace.items() if k != "__builtins__"}
        assert set(exported) == set(qcost.__all__)
        assert not [k for k, v in exported.items()
                    if isinstance(v, types.ModuleType)]

"""End-to-end CLI runs: gen, solve, verify, report and exit codes."""

import json
import os

import numpy as np
import pytest

from subeig.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGen:
    def test_gen_1d(self, in_tmp, capsys):
        assert main(["gen", "1d", "--n", "31", "--out", "prob"]) == EXIT_OK
        manifest = json.loads((in_tmp / "prob" / "manifest.json").read_text())
        assert manifest["model"] == "1d"
        assert manifest["n"] == 31
        assert manifest["mass"] == "M.mtx"
        assert abs(manifest["exact_values"][0] - np.pi ** 2) < 0.05
        assert (in_tmp / "prob" / "A.mtx").exists()
        assert (in_tmp / "prob" / "M.mtx").exists()

    def test_gen_diag(self, in_tmp):
        assert main(["gen", "diag", "--values", "1..10", "--out", "d"]) == EXIT_OK
        manifest = json.loads((in_tmp / "d" / "manifest.json").read_text())
        assert manifest["n"] == 10
        assert manifest["exact_values"][:3] == [1.0, 2.0, 3.0]

    def test_gen_2d_size(self, in_tmp):
        assert main(["gen", "2d", "--n0", "1", "--levels", "4",
                     "--out", "sq"]) == EXIT_OK
        manifest = json.loads((in_tmp / "sq" / "manifest.json").read_text())
        assert manifest["n"] == 225  # 15x15 interior at level 4

    def test_gen_bad_values(self, in_tmp):
        assert main(["gen", "diag", "--values", "0,1", "--out", "d"]) == EXIT_CONFIG


class TestSolve:
    def test_alg1_gmg_coarse(self, in_tmp):
        main(["gen", "1d", "--n", "63", "--out", "prob"])
        code = main(["solve", "--problem", "prob", "--alg", "alg1",
                     "--coarse", "gmg", "--k", "3", "--out", "run"])
        assert code == EXIT_OK
        payload = json.loads((in_tmp / "run.json").read_text())
        assert payload["status"] == "converged"
        manifest = json.loads((in_tmp / "prob" / "manifest.json").read_text())
        final = payload["iterations"][-1]["lambda"]
        assert np.allclose(final, manifest["exact_values"][:3], rtol=1e-8)
        # CSV report alongside the JSON one
        header = (in_tmp / "run.csv").read_text().splitlines()[0]
        assert header == ("ell,lambda_1,lambda_2,lambda_3,"
                          "res_1,res_2,res_3,energy_err,measured_rate,theo_rate")

    def test_alg2_targets_second_pair(self, in_tmp):
        main(["gen", "1d", "--n", "31", "--out", "prob"])
        code = main(["solve", "--problem", "prob", "--alg", "alg2",
                     "--coarse", "ideal", "--target-index", "2",
                     "--out", "run2"])
        assert code == EXIT_OK
        payload = json.loads((in_tmp / "run2.json").read_text())
        manifest = json.loads((in_tmp / "prob" / "manifest.json").read_text())
        lam = payload["iterations"][-1]["lambda"][0]
        assert lam == pytest.approx(manifest["exact_values"][1], rel=1e-8)

    def test_alg2_target_out_of_range_exits_2(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "31", "--out", "prob"])
        code = main(["solve", "--problem", "prob", "--alg", "alg2",
                     "--coarse", "ideal", "--target-index", "40"])
        assert code == EXIT_CONFIG
        assert "--target-index" in capsys.readouterr().err

    def test_alg1_amg_coarse(self, in_tmp):
        main(["gen", "2d", "--levels", "3", "--out", "sq"])
        code = main(["solve", "--problem", "sq", "--coarse", "amg", "--k", "3",
                     "--out", "run"])
        assert code == EXIT_OK
        payload = json.loads((in_tmp / "run.json").read_text())
        assert payload["status"] == "converged"

    def test_solve_diag_ideal(self, in_tmp):
        main(["gen", "diag", "--values", "1..10", "--out", "d"])
        code = main(["solve", "--problem", "d", "--alg", "alg1",
                     "--coarse", "ideal", "--k", "2", "--nc", "4",
                     "--out", "rd"])
        assert code == EXIT_OK
        payload = json.loads((in_tmp / "rd.json").read_text())
        assert payload["iterations"][-1]["lambda"] == [1.0, 2.0]

    def test_nonsymmetric_input_exits_2(self, in_tmp, capsys):
        bad = in_tmp / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 3\n1 1 2.0\n1 2 1.0\n2 2 2.0\n")
        code = main(["solve", "--matrix", str(bad), "--coarse", "ideal"])
        assert code == EXIT_CONFIG
        assert "asymmetry" in capsys.readouterr().err

    def test_missing_problem_exits_2(self, in_tmp):
        assert main(["solve", "--alg", "alg1"]) == EXIT_CONFIG
        assert main(["solve", "--problem", "does-not-exist"]) == EXIT_CONFIG

    def test_config_file_defaults(self, in_tmp):
        main(["gen", "diag", "--values", "1..8", "--out", "d"])
        (in_tmp / "cfg.json").write_text(json.dumps(
            {"problem": "d", "coarse": "ideal", "k": 2, "out": "cfgrun"}))
        assert main(["solve", "--config", "cfg.json"]) == EXIT_OK
        assert (in_tmp / "cfgrun.json").exists()


class TestVerify:
    def test_projection_suite(self, in_tmp, capsys):
        code = main(["verify", "projection", "--trials", "5",
                     "--report", "rep.json"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        payload = json.loads((in_tmp / "rep.json").read_text())
        assert payload["passed"] is True

    def test_determinism_same_seed(self, in_tmp):
        main(["verify", "projection", "--trials", "4", "--seed", "9",
              "--report", "a.json"])
        main(["verify", "projection", "--trials", "4", "--seed", "9",
              "--report", "b.json"])
        assert (in_tmp / "a.json").read_bytes() == (in_tmp / "b.json").read_bytes()

    def test_amg_ideal_sweep(self, in_tmp):
        code = main(["verify", "amg", "--ideal", "--n", "60",
                     "--nc-sweep", "4,8"])
        assert code == EXIT_OK


class TestReport:
    def test_pretty_print_verify(self, in_tmp, capsys):
        main(["verify", "projection", "--trials", "3", "--report", "rep.json"])
        capsys.readouterr()
        assert main(["report", "rep.json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "ok" in out

    def test_pretty_print_iterations(self, in_tmp, capsys):
        main(["gen", "diag", "--values", "1..8", "--out", "d"])
        main(["solve", "--problem", "d", "--coarse", "ideal", "--k", "2",
              "--out", "run"])
        capsys.readouterr()
        assert main(["report", "run.json"]) == EXIT_OK
        assert "status = converged" in capsys.readouterr().out

    def test_unrecognized_file(self, in_tmp, capsys):
        (in_tmp / "junk.json").write_text('{"hello": 1}')
        assert main(["report", "junk.json"]) == EXIT_CONFIG

    def test_missing_file(self, in_tmp):
        assert main(["report", "absent.json"]) == EXIT_CONFIG


def test_verify_failure_writes_replay(in_tmp, monkeypatch, capsys):
    # force a failing check to exercise the replay path
    import subeig.cli as cli
    from subeig.verify import VerifyReport, make_check

    fake = VerifyReport(suite="projection", seed=0, trials=1,
                        checks=[make_check("forced", 2.0, 1.0)])
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    code = main(["verify", "projection", "--replay", "rp.json"])
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL forced" in capsys.readouterr().out
    payload = json.loads((in_tmp / "rp.json").read_text())
    assert payload["failures"][0]["name"] == "forced"

"""End-to-end CLI runs: gen, solve, verify, report and exit codes."""

import json
import os
import sys

import numpy as np
import pytest

from subeig import gmg, io
from subeig.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _stall_cause,
    main,
)
from subeig.core import SparseSymMatrix
from subeig.inverse_power import STALL_RTOL, STALL_WINDOW, IterationRecord, IterationReport

from .conftest import tridiag


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

    @pytest.mark.parametrize("values", ["0.5..3", "1,abc"])
    def test_gen_malformed_values_exits_2(self, in_tmp, values):
        assert main(["gen", "diag", "--values", values, "--out", "d"]) == EXIT_CONFIG


    def test_gen_diag_values_list_from_config(self, in_tmp):
        (in_tmp / "c.json").write_text(json.dumps({"values": [3, 1.5, 2]}))
        assert main(["gen", "diag", "--config", "c.json", "--out", "d"]) == EXIT_OK
        manifest = json.loads((in_tmp / "d" / "manifest.json").read_text())
        assert manifest["n"] == 3
        assert manifest["exact_values"] == [1.5, 2.0, 3.0]

    @pytest.mark.parametrize("values", [5, {"lo": 1}, [1, "2"], [1, True], [[1, 2]]])
    def test_gen_diag_bad_config_values_exit_2(self, in_tmp, values):
        (in_tmp / "c.json").write_text(json.dumps({"values": values}))
        assert main(["gen", "diag", "--config", "c.json", "--out", "d"]) == EXIT_CONFIG


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

    def test_alg2_gmg_starts_without_the_oracle(self, in_tmp, monkeypatch, capsys):
        # Algorithm 2 starts from the target's coarse Ritz vector, so it runs
        # without the dense oracle (as above the dense limit)
        from subeig import cli

        main(["gen", "2d", "--levels", "4", "--out", "sq"])
        manifest = json.loads((in_tmp / "sq" / "manifest.json").read_text())

        def no_oracle(*args, **kwargs):
            raise AssertionError("dense oracle called")

        monkeypatch.setattr(cli, "exact_eigenset", no_oracle)
        code = main(["solve", "--problem", "sq", "--alg", "alg2", "--coarse", "gmg",
                     "--target-index", "2", "--out", "r"])
        assert code == EXIT_OK
        lam = json.loads((in_tmp / "r.json").read_text())["iterations"][-1]["lambda"][0]
        assert lam == pytest.approx(manifest["exact_values"][1], rel=1e-8)
        # the coarse space (level 1 of 4, 9 unknowns) holds no 10th pair
        code = main(["solve", "--problem", "sq", "--alg", "alg2", "--coarse", "gmg",
                     "--target-index", "10"])
        assert code == EXIT_CONFIG
        assert "coarse-space dimension 9" in capsys.readouterr().err

    def test_alg2_target_out_of_range_exits_2(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "31", "--out", "prob"])
        code = main(["solve", "--problem", "prob", "--alg", "alg2",
                     "--coarse", "ideal", "--target-index", "40"])
        assert code == EXIT_CONFIG
        assert "--target-index" in capsys.readouterr().err

    def test_max_outer_zero_exits_2(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "31", "--out", "prob"])
        code = main(["solve", "--problem", "prob", "--max-outer", "0"])
        assert code == EXIT_CONFIG
        assert "max_outer" in capsys.readouterr().err

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

    @pytest.mark.parametrize("diag, coarse, fragment", [
        # tridiag(-1, 2, -1) of n = 400 shifted to lambda_1 = -1.486e-4
        (np.full(400, 2.0 - 2.1e-4), [],
         "A is not positive definite: its lowest Ritz value is -1.442e-04"),
        (np.full(400, 2.0 - 2.1e-4), ["--coarse", "ideal"],
         "A is not positive definite: its smallest eigenvalue is -1.486e-04"),
        (np.r_[2.0, 2.0, 2.0, -2.0, np.full(36, 2.0)], [],
         "the matrix is not SPD: row 3 has the nonpositive diagonal entry -2"),
    ], ids=["indefinite", "indefinite-ideal", "negative-diagonal"])
    def test_non_spd_matrix_exits_4(self, in_tmp, capsys, diag, coarse, fragment):
        S = tridiag(diag.size).to_dense() + np.diag(diag - 2.0)
        io.write_matrix("X.mtx", SparseSymMatrix.from_dense(S))
        code = main(["solve", "--matrix", "X.mtx", "--k", "2", *coarse])
        assert code == EXIT_DEGENERATE
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("coarse", ["gmg", "amg"])
    def test_only_tracked_runs_solve_to_inner_tol(self, in_tmp, monkeypatch, coarse):
        # untracked runs call the solver with one argument and take its
        # inexact default stop; a tracked run passes one tolerance per
        # column, inner_tol ||lam M u_j|| / ||r_j||, and certifies its rates
        # against the exact inner step
        tols = []
        solve = gmg.VCycleSolver.solve

        def recorded(self, b, *args, **kwargs):
            assert args == ()
            tols.append(kwargs.get("tol", "default"))
            return solve(self, b, **kwargs)

        monkeypatch.setattr(gmg.VCycleSolver, "solve", recorded)
        main(["gen", "1d", "--n", "63", "--out", "p"])
        for track in ([], ["--track-exact"]):
            tols.clear()
            assert main(["solve", "--problem", "p", "--coarse", coarse, "--k", "2",
                         *track, "--out", "run"]) == EXIT_OK
            assert tols
            if track:
                assert all(np.shape(t) == (2,) and np.all(t > 0.0) for t in tols)
            else:
                assert set(tols) == {"default"}

    @pytest.mark.parametrize("coarse, nc", [
        ("ideal", "-2"), ("ideal", "0"), ("amg", "0"), ("amg", "-3"), ("gmg", "0"),
    ])
    def test_nc_below_one_exits_2(self, in_tmp, capsys, coarse, nc):
        # on the 225-unknown square --coarse ideal --nc -2 used to run with
        # 223 coarse columns, and --nc 0 to exit 4 after dropping them all
        main(["gen", "2d", "--levels", "4", "--out", "sq"])
        code = main(["solve", "--problem", "sq", "--coarse", coarse, "--nc", nc])
        assert code == EXIT_CONFIG
        assert "--nc must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ["alg1", "alg2"])
    def test_negative_seed_exits_2(self, in_tmp, capsys, alg):
        main(["gen", "1d", "--n", "31", "--out", "p"])
        code = main(["solve", "--problem", "p", "--alg", alg, "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["-1", "-2"])
    def test_negative_coarse_level_exits_2(self, in_tmp, capsys, level):
        main(["gen", "2d", "--levels", "5", "--out", "sq"])
        code = main(["solve", "--problem", "sq", "--coarse", "gmg",
                     "--coarse-level", level])
        assert code == EXIT_CONFIG
        assert f"--coarse-level must be in 0..3, got {level}" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["4", "9"])
    def test_coarse_level_at_or_above_the_finest_exits_2(self, in_tmp, capsys, level):
        # five levels 0..4: the coarse space comes from a level below the finest
        main(["gen", "2d", "--levels", "5", "--out", "sq"])
        code = main(["solve", "--problem", "sq", "--coarse", "gmg",
                     "--coarse-level", level])
        assert code == EXIT_CONFIG
        assert f"--coarse-level must be in 0..3, got {level}" in capsys.readouterr().err

    def test_missing_problem_exits_2(self, in_tmp):
        assert main(["solve", "--alg", "alg1"]) == EXIT_CONFIG
        assert main(["solve", "--problem", "does-not-exist"]) == EXIT_CONFIG

    def test_default_coarse_above_dense_limit(self, in_tmp, capsys):
        # n = 3969 exceeds the dense limit: with no --coarse the generated
        # square gets GMG there as at every size
        main(["gen", "2d", "--levels", "6", "--out", "sq6"])
        code = main(["solve", "--problem", "sq6", "--k", "3", "--out", "r6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "coarse: gmg, m = 225\n" in out and "status: converged " in out
        payload = json.loads((in_tmp / "r6.json").read_text())
        assert payload["status"] == "converged"

    def test_unconverged_run_names_the_cause(self, in_tmp, capsys):
        # lambda_2 ~ lambda_3: the k = 2 block needs more than 6 steps
        main(["gen", "2d", "--levels", "5", "--out", "sq5"])
        capsys.readouterr()
        code = main(["solve", "--problem", "sq5", "--coarse", "gmg", "--k", "2",
                     "--max-outer", "6", "--out", "r5"])
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cause: column 2 has the worst last residual")
        payload = json.loads((in_tmp / "r5.json").read_text())
        assert payload["status"] == "max_iter"
        res = [rec["res"][1] for rec in payload["iterations"]]
        best = min(range(len(res)), key=res.__getitem__)
        assert f"its best was {res[best]:.3e} at step {best + 1};" in err[0]
        # whether a Ritz value fell in the last window, by the stagnation
        # rule's tolerance, read from the run's own records
        lam = np.array([rec["lambda"] for rec in payload["iterations"]])
        split = len(lam) - STALL_WINDOW
        fell = np.any(lam[split:].min(axis=0) < lam[:split].min(axis=0) * (1.0 - STALL_RTOL))
        clause = "a Ritz value" if fell else "no Ritz value"
        assert err[0].endswith(f"{clause} fell in the last {STALL_WINDOW} steps")

    def test_stall_cause_without_falling_values(self):
        report = IterationReport(k=2, seed=0, status="stagnation", records=[
            IterationRecord(ell=ell, lambdas=[1.0, 2.0], residuals=[1e-9, r])
            for ell, r in enumerate([3e-6, 1e-6, 2e-6, 2e-6, 3e-6, 2e-6, 4e-6], 1)])
        assert _stall_cause(report) == (
            "cause: column 2 has the worst last residual 4.000e-06; its best was "
            "1.000e-06 at step 2; no Ritz value fell in the last 5 steps")

    def test_config_file_defaults(self, in_tmp):
        main(["gen", "diag", "--values", "1..8", "--out", "d"])
        (in_tmp / "cfg.json").write_text(json.dumps(
            {"problem": "d", "coarse": "ideal", "k": 2, "out": "cfgrun"}))
        assert main(["solve", "--config", "cfg.json"]) == EXIT_OK
        assert (in_tmp / "cfgrun.json").exists()


# --config rows: the command line, the config object, and either the key
# that the exit-2 message names or the flags of the same run without a
# config file.  The first rows are the inputs that once went wrong: a
# string switch turned tracking on, --ideal and JSON lists were ignored or
# crashed, verify all recorded an --n it did not use, and a bad or
# fractional number crashed or was cut.
_SWEEP = ["--ideal", "--n", "60", "--nc-sweep", "4,8"]
CONFIG_ROWS = [
    (["solve"], {"track_exact": "false"}, "'track_exact'"),
    (["verify", "amg"], {"ideal": True, "n": 60, "nc_sweep": "4,8"}, ["amg", *_SWEEP]),
    (["verify", "all", "--n", "63"], {}, "'n'"),
    (["verify", "all"], {"n": 63}, "'n'"),
    (["solve"], {"k": "two"}, "'k'"),
    (["verify", "amg"], {"ideal": True, "n": 60, "nc_sweep": [4, 8]}, ["amg", *_SWEEP]),
    (["solve"], {"k": 2.7}, "'k'"),
    (["solve"], {"bogus": 1}, "'bogus'"),
    # the rules: an option's dest names it, its type and choices apply,
    # a list only where the flag takes a comma list
    (["solve"], {"target-index": 2}, "'target-index'"),
    (["solve"], {"config": "c.json"}, "'config'"),
    (["solve"], {"alg": "alg3"}, "'alg'"),
    (["solve"], {"k": True}, "'k'"),
    (["solve"], {"seed": [1]}, "'seed'"),
    (["solve"], {"out": 5}, "'out'"),
    (["verify", "amg"], {"nc_sweep": [4.5]}, "'nc_sweep'"),
    (["verify", "amg"], {"nc_sweep": []}, "'nc_sweep'"),
    (["verify"], {"suite": "none"}, "'suite'"),
    # valid configs, and a flag beats a key
    (["solve"], {"k": 2, "tol": 1e-9, "track_exact": False}, ["--k", "2", "--tol", "1e-9"]),
    (["solve"], {"k": "2", "max_outer": 20, "seed": 3}, ["--k", "2", "--max-outer", "20",
                                                         "--seed", "3"]),
    (["solve"], {"track_exact": True}, ["--track-exact"]),
    (["solve", "--k", "2"], {"k": 3, "alg": "alg1"}, ["--k", "2"]),
    (["verify"], {"suite": "amg", "ideal": True, "n": 60, "nc_sweep": [4, 8]},
     ["amg", *_SWEEP]),
    (["verify", "amg", "--n", "60"], {"ideal": True, "n": 70, "nc_sweep": [4, 8]},
     ["amg", *_SWEEP]),
]


@pytest.mark.parametrize("argv, config, expected", CONFIG_ROWS)
def test_config_file(in_tmp, capsys, argv, config, expected):
    main(["gen", "diag", "--values", "1..8", "--out", "d"])
    (in_tmp / "c.json").write_text(json.dumps(config))

    def run(*args, out):
        if args[0] == "solve":
            return main([*args, "--problem", "d", "--coarse", "ideal", "--out", out])
        return main([*args, "--report", out + ".json"])

    capsys.readouterr()
    code = run(*argv, "--config", "c.json", out="a")
    err = capsys.readouterr().err
    if isinstance(expected, str):
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ") and expected in err
        assert "Traceback" not in err
        return
    assert code == EXIT_OK
    assert run(argv[0], *expected, out="b") == EXIT_OK
    assert (in_tmp / "a.json").read_bytes() == (in_tmp / "b.json").read_bytes()
    if argv[0] == "verify":
        assert json.loads((in_tmp / "a.json").read_text())["n_checks"] == 4


class TestDefaultCoarse:
    """Without --coarse, solve runs the method at every size: GMG when gmg
    can rebuild the manifest's hierarchy, else AMG; the oracle's ideal
    space only when named."""

    @staticmethod
    def _solve(capsys, *args):
        capsys.readouterr()
        code = main(["solve", *args, "--out", "run"])
        out, err = capsys.readouterr()
        return code, out.splitlines(), err

    def test_square_gets_gmg_with_the_oracles_eigenvalues(self, in_tmp, capsys):
        main(["gen", "2d", "--levels", "5", "--out", "sq5"])  # n = 961
        code, out, _ = self._solve(capsys, "--problem", "sq5", "--k", "4")
        assert code == EXIT_OK
        assert out[0] == "coarse: gmg, m = 49"
        assert out[1].startswith("status: converged ")
        assert out[1] != "status: converged after 1 iterations"
        code, ideal, _ = self._solve(capsys, "--problem", "sq5", "--k", "4",
                                     "--coarse", "ideal")
        assert code == EXIT_OK
        assert ideal[0] == "coarse: ideal, m = 8"
        assert ideal[1] == "status: converged after 1 iterations"
        assert ideal[2] == out[2]  # the eigenvalues line

    def test_interval_on_the_refinement_ladder_gets_gmg(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "63", "--out", "p"])
        code, out, _ = self._solve(capsys, "--problem", "p", "--k", "3")
        assert code == EXIT_OK
        assert out[0] == "coarse: gmg, m = 15"

    def test_interval_off_the_refinement_ladder_gets_amg(self, in_tmp, capsys):
        # n = 100 is not 2^p * 4 - 1, so gmg cannot rebuild its hierarchy
        main(["gen", "1d", "--n", "100", "--out", "p"])
        code, out, _ = self._solve(capsys, "--problem", "p", "--k", "2")
        assert code == EXIT_OK
        assert out[0].startswith("coarse: amg, m = ")
        assert out[1].startswith("status: converged ")

    def test_matrix_without_manifest_gets_amg(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "63", "--out", "p"])
        code, out, _ = self._solve(capsys, "--matrix", "p/A.mtx", "--mass", "p/M.mtx",
                                   "--k", "2")
        assert code == EXIT_OK
        assert out[0].startswith("coarse: amg, m = ")
        # the same matrices through the manifest give the same run
        for source, out_prefix in ((["--problem", "p"], "via-problem"),
                                   (["--matrix", "p/A.mtx", "--mass", "p/M.mtx"],
                                    "via-matrix")):
            assert main(["solve", *source, "--coarse", "amg", "--k", "2",
                         "--out", out_prefix]) == EXIT_OK
        with open("via-problem.json", "rb") as a, open("via-matrix.json", "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("values", ["1..10", "1..100"])
    def test_no_coarse_space_names_the_oracle(self, in_tmp, capsys, values):
        # 1..10 is one AMG level; 1..100 has no strong connections, so
        # coarsening stalls at the first level
        main(["gen", "diag", "--values", values, "--out", "d"])
        for coarse in ([], ["--coarse", "amg"]):
            code, out, err = self._solve(capsys, "--problem", "d", "--k", "2", *coarse)
            assert code == EXIT_CONFIG
            assert out == [] and "--coarse ideal" in err

    def test_interval_without_a_coarser_level_names_the_oracle(self, in_tmp, capsys):
        main(["gen", "1d", "--n", "3", "--out", "p"])
        code, _, err = self._solve(capsys, "--problem", "p")
        assert code == EXIT_CONFIG
        assert "no gmg coarse space" in err and "--coarse ideal" in err


class TestVerify:
    @pytest.mark.parametrize("suite", ["projection", "all"])
    def test_negative_seed_exits_2(self, in_tmp, capsys, suite):
        assert main(["verify", suite, "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

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


def _drop(key):
    """A manifest edit that deletes key."""
    return lambda manifest: {k: v for k, v in manifest.items() if k != key}


# Malformed input rows: the generated problem to edit (or None), the edit of
# its manifest or the report file's content, the command, and the fragment
# of the exit-2 message, which names the file and the missing key.  The
# first five once ended in a traceback and exit 1.
MALFORMED_ROWS = [
    ("diag", _drop("matrix"), ["solve", "--problem", "p", "--coarse", "ideal"],
     "manifest p/manifest.json has no 'matrix'"),
    ("2d", _drop("levels"), ["solve", "--problem", "p"],
     "manifest p/manifest.json has no 'levels'"),
    ("diag", lambda manifest: list(manifest), ["solve", "--problem", "p"],
     "manifest p/manifest.json must contain a JSON object"),
    (None, {"checks": []}, ["report", "r.json"], "report r.json has no 'suite'"),
    (None, {"iterations": [{"ell": 1}]}, ["report", "r.json"], "report r.json has no 'k'"),
    (None, {"k": 1, "seed": 0, "status": "converged", "iterations": [{"ell": 1}]},
     ["report", "r.json"], "entry 0 of 'iterations' in report r.json has no 'lambda'"),
    (None, {"suite": "all", "seed": 7, "trials": 1, "passed": True, "checks": {}},
     ["report", "r.json"], "report r.json: 'checks' must be a list"),
    (None, [1], ["report", "r.json"], "report r.json must contain a JSON object"),
    (None, "{", ["report", "r.json"], "report r.json is not valid JSON"),
]
MALFORMED_IDS = ["manifest-without-matrix", "2d-manifest-without-levels", "manifest-list",
                 "report-without-suite", "report-without-k", "record-without-lambda",
                 "checks-not-a-list", "report-list", "report-not-json"]


@pytest.mark.parametrize("model, content, argv, fragment", MALFORMED_ROWS,
                         ids=MALFORMED_IDS)
def test_malformed_input_exits_2_by_name(in_tmp, capsys, model, content, argv, fragment):
    if model is None:
        (in_tmp / "r.json").write_text(content if isinstance(content, str)
                                       else json.dumps(content))
    else:
        assert main(["gen", model, "--levels", "2", "--out", "p"]) == EXIT_OK
        path = in_tmp / "p" / "manifest.json"
        path.write_text(json.dumps(content(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and fragment in err
    assert "Traceback" not in err


def test_closed_stdout_exits_141_quietly(in_tmp, monkeypatch, capsys):
    # `subeig ... | head -0`: the reader has closed the pipe, so the first
    # write to stdout raises BrokenPipeError
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "diag", "--values", "1..3", "--out", "d"]) == EXIT_BROKEN_PIPE == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""
    assert (in_tmp / "d" / "manifest.json").exists()


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

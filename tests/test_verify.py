"""Verification harness: pass rule, deterministic serialization, suites
and replay files."""

import json
import math
import re

import numpy as np
import pytest

from subeig import gmg, inverse_power, projection, verify
from subeig.cli import EXIT_CONFIG, main
from subeig.core import inner, norm, orthonormalize
from subeig.exceptions import ConfigError
from subeig.projection import exact_eigenset, ritz
from subeig.verify import (
    VerifyReport,
    _projection_trial,
    deterministic_json,
    make_check,
    random_pencil,
    random_spd,
    replay,
    run_suite,
    suite_amg,
    suite_inverse,
    suite_projection,
    trial_seeds,
)


class TestMakeCheck:
    def test_pass_rule(self):
        assert make_check("x", 1.0, 1.0).passed
        assert make_check("x", 1.0, 1.0 - 1e-12).passed  # absolute slack
        assert make_check("x", 1.0 + 1e-8, 1.0).passed is False
        assert make_check("x", 0.0, 0.0).passed
        assert make_check("x", 1e-13, 0.0).passed  # below atol

    def test_margin_sign(self):
        assert make_check("x", 0.5, 1.0).margin > 0
        assert make_check("x", 2.0, 1.0).margin < 0


class TestDeterministicJson:
    def test_sorted_keys_and_17g_floats(self):
        s = deterministic_json({"b": 1.0 / 3.0, "a": 1, "c": [True, None]})
        assert s == '{"a":1,"b":0.33333333333333331,"c":[true,null]}'

    def test_non_finite_becomes_null(self):
        assert deterministic_json({"x": float("nan")}) == '{"x":null}'
        assert deterministic_json({"x": float("inf")}) == '{"x":null}'

    def test_numpy_scalars(self):
        s = deterministic_json({"i": np.int64(3), "f": np.float64(0.5)})
        assert s == '{"f":0.5,"i":3}'


def test_trial_seeds_deterministic_and_distinct():
    a = trial_seeds(7, 20)
    b = trial_seeds(7, 20)
    assert a == b
    assert len(set(a)) == 20
    assert trial_seeds(8, 20) != a


class TestSuites:
    def test_projection_suite_passes(self):
        checks = run_suite("projection", seed=0, trials=10).checks
        assert checks and all(c.passed for c in checks)

    def test_amg_ideal_only(self):
        checks = suite_amg(seed=0, n=60, nc_sweep=(4, 8), ideal_only=True)
        names = [c.name for c in checks]
        assert all(c.passed for c in checks)
        assert any("ideal_eta" in n for n in names)
        assert not any("vcycle" in n for n in names)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite("nonsense")

    def test_report_round_trip(self):
        report = run_suite("projection", seed=3, trials=4)
        payload = json.loads(report.to_json())
        assert payload["suite"] == "projection"
        assert payload["n_checks"] == len(report.checks)
        assert payload["passed"] is True

    def test_reports_are_byte_identical(self):
        a = run_suite("projection", seed=11, trials=6).to_json()
        b = run_suite("projection", seed=11, trials=6).to_json()
        assert a == b

    def test_all_suites_repeat_in_one_process(self):
        # the caches (one assembly per hierarchy, one oracle per pencil, the
        # coarse-space coordinates of a tracked run) carry nothing between runs
        a = run_suite("all", seed=7, trials=20)
        b = run_suite("all", seed=7, trials=20)
        assert len(a.checks) == 285 and a.passed
        assert a.to_json() == b.to_json()  # both serialized by deterministic_json

    def test_seed_changes_results(self):
        a = run_suite("projection", seed=1, trials=3).to_json()
        b = run_suite("projection", seed=2, trials=3).to_json()
        assert a != b


@pytest.mark.parametrize("seed", [3, 9, 10])
def test_single_vector_iteration_reaches_its_target(seed):
    # the start u_2 + 0.2 N(0, I) carries more noise than signal at n = 63;
    # Algorithm 2 must still end on the second pair
    checks = run_suite("inverse", seed=seed, trials=20).checks
    target = [c for c in checks if c.name == "inverse/single_i2/targeted_eigenvalue"]
    assert len(target) == 1 and target[0].passed
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("seed", range(5))
def test_projected_identity_selection_matches_pairwise_loop(seed):
    # reference: one residual per (exact pair, Ritz pair), keeping the
    # strictly largest excess over the round-off scale in loop order
    n_max, m_max = 24, 8
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, n_max + 1))
    m = int(rng.integers(3, min(m_max, n - 2) + 1))
    A, M = random_pencil(rng, n)
    K = orthonormalize(rng.standard_normal((n, m)), weight=M)
    rs = ritz(A, M, K)
    exact = exact_eigenset(A, M)
    Ka = orthonormalize(K.columns, weight=A)
    res_worst, scale_worst, combo = -1.0, 1.0, (0, 0)
    for i in range(n):
        lam, u = float(exact.values[i]), exact.vectors[:, i]
        Pu = Ka.columns @ (Ka.columns.T @ A.matvec(u))
        for j in range(rs.m):
            uj = rs.vectors[:, j]
            r = abs((float(rs.values[j]) - lam) * inner(Pu, uj, M)
                    - lam * inner(u - Pu, uj, M))
            scale = 1e-10 * (abs(float(rs.values[j])) + abs(lam)) * norm(u)
            if r - scale > res_worst - scale_worst:
                res_worst, scale_worst, combo = r, scale, (i, j)

    checks = [c for c in _projection_trial(0, seed, n_max, m_max)
              if "/projected_identity[" in c.name]
    assert len(checks) == 1
    check = checks[0]
    assert check.name == f"projection/t000/projected_identity[{combo[0]},{combo[1]}]"
    assert check.lhs == pytest.approx(res_worst, rel=0.0, abs=1e-14)
    assert check.rhs == pytest.approx(scale_worst, rel=1e-12)


def test_replay_reproduces_run(tmp_path):
    report = run_suite("projection", seed=5, trials=3)
    path = tmp_path / "replay.json"
    path.write_text(report.replay_json() + "\n")
    again = replay(str(path))
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("suite, params", [
    ("all", {"n": 63}),  # every suite runs at its own size
    ("projection", {"model": "1d"}),  # a parameter no suite takes
    ("gmg", {"m": 8}),  # a parameter of another suite
], ids=["all-n", "unknown", "other-suite"])
def test_parameter_a_suite_does_not_take_is_refused(tmp_path, suite, params):
    key = next(iter(params))
    with pytest.raises(ConfigError, match=f"suite {suite} takes no parameter '{key}'"):
        run_suite(suite, trials=1, **params)
    # a replay file that holds one, and the CLI's exit 2 for it
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"suite": suite, "seed": 0, "trials": 1,
                                "params": params, "failures": []}))
    with pytest.raises(ConfigError, match=f"takes no parameter '{key}'"):
        replay(str(path))
    assert main(["verify", "--from-replay", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_is_refused(capsys, trials):
    # 0 ran no check yet printed "all checks passed"; -1 overflowed
    message = f"trials must be >= 1 (--trials), got {trials}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_suite("projection", trials=trials)
    assert main(["verify", "projection", "--trials", str(trials)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("key", ["suite", "seed", "trials"])
def test_replay_file_without_a_key_is_refused(tmp_path, capsys, key):
    payload = {"suite": "projection", "seed": 0, "trials": 1}
    del payload[key]
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=f"has no '{key}'"):
        replay(str(path))
    assert main(["verify", "--from-replay", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: replay file {path} has no '{key}'\n"


def test_replay_file_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(["projection", 0, 1]))
    with pytest.raises(ConfigError, match="must contain a JSON object"):
        replay(str(path))
    assert main(["verify", "--from-replay", str(path)]) == EXIT_CONFIG


def test_failed_report_lists_failures():
    report = VerifyReport(suite="projection", seed=0, trials=1,
                          checks=[make_check("good", 0.0, 1.0),
                                  make_check("bad", 2.0, 1.0)])
    assert not report.passed
    assert [c.name for c in report.failures()] == ["bad"]
    payload = json.loads(report.replay_json())
    assert payload["failures"][0]["name"] == "bad"


def test_suite_gmg_runs_share_one_vcycle(monkeypatch):
    # both coarse levels run on one hierarchy, whose solver is built once
    built = []

    class CountedVCycleSolver(gmg.VCycleSolver):
        def __init__(self, matrices, prolongations):
            built.append([A.n for A in matrices])
            super().__init__(matrices, prolongations)

    solvers = []
    hierarchy_solver = gmg.hierarchy_solver

    def recorded(hier):
        solvers.append(hierarchy_solver(hier))
        return solvers[-1]

    monkeypatch.setattr(gmg, "VCycleSolver", CountedVCycleSolver)
    monkeypatch.setattr(gmg, "hierarchy_solver", recorded)
    checks = verify.suite_gmg(seed=7)
    assert checks and all(c.passed for c in checks)
    assert built == [[3, 7, 15, 31, 63, 127]]
    assert len(solvers) == 2 and solvers[0] is solvers[1]


def test_suite_inverse_shares_one_coarse_space_and_one_vcycle(monkeypatch):
    built = {"coarse_space": 0, "VCycleSolver": 0}
    coarse_space = gmg.coarse_space

    def counted_coarse_space(*args, **kwargs):
        built["coarse_space"] += 1
        return coarse_space(*args, **kwargs)

    sizes = []

    class CountedVCycleSolver(gmg.VCycleSolver):
        def __init__(self, matrices, prolongations):
            built["VCycleSolver"] += 1
            sizes.append([A.n for A in matrices])
            super().__init__(matrices, prolongations)

    preconditioners = []

    def recorded(cg_solve):
        def cg(*args, preconditioner=None, **kwargs):
            preconditioners.append(preconditioner)
            return cg_solve(*args, preconditioner=preconditioner, **kwargs)
        return cg

    runs = []
    ipm_run = inverse_power.ipm_run

    def counted_run(*args, **kwargs):
        runs.append(1)
        return ipm_run(*args, **kwargs)

    monkeypatch.setattr(gmg, "coarse_space", counted_coarse_space)
    monkeypatch.setattr(gmg, "VCycleSolver", CountedVCycleSolver)
    monkeypatch.setattr(gmg, "cg_solve", recorded(gmg.cg_solve))
    monkeypatch.setattr(inverse_power, "cg_solve", recorded(inverse_power.cg_solve))
    monkeypatch.setattr(inverse_power, "ipm_run", counted_run)
    checks = suite_inverse(seed=7)
    assert checks and all(c.passed for c in checks)
    assert built == {"coarse_space": 1, "VCycleSolver": 1}
    # the one cycle spans every level of the n = 63 hierarchy, not only
    # those from the coarse space's level up
    assert sizes == [[3, 7, 15, 31, 63]]
    # block k = 1, 2, 3 and Algorithm 2 at targets 1 and 2, each resolved
    # through inverse_power.ipm_run at call time
    assert len(runs) == 5
    assert preconditioners and all(p is not None for p in preconditioners)


def test_projection_trials_a_orthonormalize_k_once(monkeypatch):
    stiffness = []  # the A of every trial's pencil
    draw = verify.random_pencil

    def recorded_pencil(*args):
        A, M = draw(*args)
        stiffness.append(A)
        return A, M

    calls = []

    def counted(orthonormalize):
        def wrapped(W, weight=None, *args, **kwargs):
            if any(weight is A for A in stiffness):
                calls.append(W.shape)
            return orthonormalize(W, weight, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify, "random_pencil", recorded_pencil)
    monkeypatch.setattr(verify, "orthonormalize", counted(verify.orthonormalize))
    monkeypatch.setattr(projection, "orthonormalize", counted(projection.orthonormalize))
    checks = suite_projection(seed=7, trials=20)
    assert checks and all(c.passed for c in checks)
    assert len(stiffness) == 20 and len(calls) == 20


@pytest.mark.parametrize("n", [1, 5, 24])
def test_random_spd_is_the_gram_schmidt_draw(n):
    # the Householder Q with diag(R) > 0 is Gram-Schmidt's Q of the same
    # Gaussian draw up to round-off, so the matrix is the one that draw
    # made with orthonormalize
    A = random_spd(np.random.default_rng(n), n)
    rng = np.random.default_rng(n)
    Q = orthonormalize(rng.standard_normal((n, n))).columns
    S = (Q * np.sort(rng.uniform(0.5, 10.0, size=n))[None, :]) @ Q.T
    assert np.abs(A.to_dense() - 0.5 * (S + S.T)).max() <= 1e-12

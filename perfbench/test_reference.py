"""Tests of the benchmark's own parts: the independent references match the
problems subeig solves, every check rejects a perturbed result, and the
tracer's span arithmetic accounts for the traced time.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def gmg2d_reference():
    return reference.smallest_eigenvalues(*reference.unit_square_pencil(31), 4)


def failures(results):
    return [msg for _, msg in results if msg]


def test_unit_square_pencil_is_subeigs_problem():
    from subeig import gmg

    hier = gmg.build_hierarchy("unit-square", 1, 3)
    pencil = gmg.assemble_p1(hier.levels[-1])
    A, M = reference.unit_square_pencil(7)
    assert np.allclose(pencil.A.to_dense(), A.toarray(), rtol=0, atol=1e-13)
    assert np.allclose(pencil.M.to_dense(), M.toarray(), rtol=0, atol=1e-15)


def test_interval_pencil_is_subeigs_problem():
    from subeig import gmg

    pencil = gmg.assemble_p1(gmg.build_hierarchy("interval", 80, 1).levels[0])
    A, M = reference.interval_pencil(80)
    assert np.allclose(pencil.A.to_dense(), A, rtol=0, atol=1e-10)
    assert np.allclose(pencil.M.to_dense(), M, rtol=0, atol=1e-15)


def test_reference_eigenvalues_bracket_the_continuous_ones(gmg2d_reference):
    # lambda_1 = 2 pi^2, lambda_2 = lambda_3 = 5 pi^2, lambda_4 = 8 pi^2
    continuous = math.pi ** 2 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.all(gmg2d_reference > continuous)
    assert np.all(gmg2d_reference < 1.02 * continuous)


def test_eigen_check_accepts_the_reference(gmg2d_reference):
    results = reference.check_eigen_result("converged", gmg2d_reference * (1 + 1e-13),
                                           gmg2d_reference)
    assert failures(results) == []
    assert len(results) == 2 * 4 + 2


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_eigen_check_rejects_a_perturbed_eigenvalue(gmg2d_reference, index, shift):
    values = gmg2d_reference.copy()
    values[index] *= 1.0 + shift
    names = {name for name, msg in
             reference.check_eigen_result("converged", values, gmg2d_reference) if msg}
    assert f"match[{index + 1}]" in names
    assert (f"minimax[{index + 1}]" in names) == (shift < 0)


def test_eigen_check_rejects_a_ritz_value_below_its_reference(gmg2d_reference):
    values = gmg2d_reference.copy()
    values[2] *= 1.0 - 1e-10  # within the match tolerance, below the minimax slack
    assert [n for n, m in reference.check_eigen_result("converged", values,
                                                       gmg2d_reference) if m] == ["minimax[3]"]


def test_eigen_check_rejects_an_unconverged_status(gmg2d_reference):
    results = reference.check_eigen_result("max_iter", gmg2d_reference, gmg2d_reference)
    assert [n for n, m in results if m] == ["status"]


@pytest.mark.parametrize("lam1", [2 * math.pi ** 2 - 1e-6, 2 * math.pi ** 2 * 1.011])
def test_eigen_check_rejects_lambda1_outside_its_bracket(lam1):
    values = np.array([lam1, 50.0])
    results = reference.check_eigen_result("converged", values, values)
    assert [n for n, m in results if m] == ["lambda1"]


def test_eigen_check_rejects_a_missing_eigenvalue(gmg2d_reference):
    assert failures(reference.check_eigen_result("converged", gmg2d_reference[:3],
                                                 gmg2d_reference))


@pytest.fixture(scope="module")
def oracle_reference():
    return {str(n): reference.interval_eigenvalues(n) for n in (63, 80)}


def passing_verify(oracle_reference):
    return dict(passed=True,
                suite_checks={"projection": 5, "inverse": 3, "gmg": 2, "amg": 4},
                oracle_values={n: list(v * (1 + 1e-13)) for n, v in oracle_reference.items()},
                oracle_reference=oracle_reference)


def test_verify_check_accepts_a_passing_report(oracle_reference):
    assert failures(reference.check_verify_result(**passing_verify(oracle_reference))) == []


def test_verify_check_rejects_a_failing_report(oracle_reference):
    args = passing_verify(oracle_reference)
    args["passed"] = False
    assert [n for n, m in reference.check_verify_result(**args) if m] == ["passed"]


@pytest.mark.parametrize("suite", reference.VERIFY_SUITES)
def test_verify_check_rejects_a_suite_without_checks(oracle_reference, suite):
    args = passing_verify(oracle_reference)
    del args["suite_checks"][suite]
    assert [n for n, m in reference.check_verify_result(**args) if m] == [f"suite[{suite}]"]


def test_verify_check_rejects_a_perturbed_oracle_eigenvalue(oracle_reference):
    args = passing_verify(oracle_reference)
    args["oracle_values"]["80"][5] *= 1.0 + 1e-6
    assert [n for n, m in reference.check_verify_result(**args) if m] == ["oracle[80]"]


def test_span_summary_self_and_total_times():
    spans = [
        ["a.f", 0.0, 10.0, -1, None],
        ["a.g", 1.0, 4.0, 0, None],
        ["a.g", 2.0, 3.0, 1, None],  # recursive call of a.g
        ["b.h", 5.0, 9.0, 0, None],
    ]
    s = tracing.SpanSummary(spans)
    assert s.calls["a.g"] == 2
    assert s.total("a.g") == 3.0
    assert s.self_s["a.g"] == 3.0
    assert s.self_s["a.f"] == 3.0
    assert s.total("a.g", "b.h") == 7.0
    assert s.self_by_layer_under("a.f") == {"a": 3.0, "b": 4.0}


TRACED_RUN = """
import json, sys
import tracing
tracer = tracing.Tracer()
tracer.install()
from subeig import gmg
gmg.gmg_eigensolve(gmg.build_hierarchy("interval", 3, 4), 2, 1)
s = tracer.summary()
below = sum(s.self_by_layer_under("inverse_power.ipm_run").values())
print(json.dumps({"ipm_total": s.total("inverse_power.ipm_run"),
                  "ipm_self": s.self_s["inverse_power.ipm_run"], "below": below,
                  "calls": dict(s.calls)}))
"""


def test_tracer_sees_every_binding_and_accounts_for_ipm_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    calls = out["calls"]
    # gmg_eigensolve reaches ipm_run through gmg's own binding of it
    assert calls["inverse_power.ipm_run"] == 1
    assert calls["gmg.VCycleSolver.solve"] > 0
    assert calls["gmg.VCycleSolver.cycle"] > calls["gmg.VCycleSolver.solve"]
    assert calls["core.SparseSymMatrix.matvec"] > 0
    assert calls["projection.ritz"] > 0 and calls["dense.sym_eig"] > 0
    assert out["below"] + out["ipm_self"] == pytest.approx(out["ipm_total"], rel=1e-9)

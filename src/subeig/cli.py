"""Command-line front end: problem generation, solver runs, verification
suites and report display.  solve runs GMG or AMG at every size unless
--coarse names the source (the dense oracle's ideal space is one), and
prints the coarse space it used; each multigrid inner solve corrects the
current Ritz vectors and stops at a 100-fold cut of their residual, and
solves to inner_tol only with --track-exact.  Exit codes: 0
success/converged, 1 failed verification, 2 configuration error (also
when no coarse space exists), 3 non-convergence, 4 numerical
degeneracy."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import amg, gmg, io
from .core import SparseSymMatrix
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateGapError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from .inverse_power import STALL_RTOL, STALL_WINDOW, IpmConfig, ipm_run
from .projection import exact_eigenset, ritz_space
from .verify import SUITES, deterministic_json, replay, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4

_CONFIG_ERRORS = (ConfigError, NotSymmetricError, DimensionMismatchError)
_DEGENERATE_ERRORS = (NotPositiveDefiniteError, DegenerateGapError, EmptyBasisError)


def _load_config(args: argparse.Namespace) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("--config file must contain a JSON object")
    return cfg


def _opt(args: argparse.Namespace, cfg: dict, key: str, default):
    """CLI flag beats config file beats hard default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _parse_values(spec) -> np.ndarray:
    """Either 'a..b' for an integer range or a comma list of floats; a
    config file may also give a JSON list of numbers."""
    if isinstance(spec, list):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in spec):
            raise ConfigError(f"values list must hold only numbers, got {spec!r}")
        return np.array(spec, dtype=float)
    if not isinstance(spec, str):
        raise ConfigError(f"values must be a string or a list of numbers, got {spec!r}")
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return np.arange(int(lo), int(hi) + 1, dtype=float)
        return np.array([float(tok) for tok in spec.split(",") if tok], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"malformed --values {spec!r}: {exc}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _opt(args, cfg, "out", ".")
    os.makedirs(out, exist_ok=True)
    manifest: dict = {"model": args.model}

    if args.model == "diag":
        values = _parse_values(_opt(args, cfg, "values", "1..10"))
        if values.size == 0 or np.any(values <= 0):
            raise ConfigError("diag model needs positive --values")
        A = SparseSymMatrix.from_dense(np.diag(values))
        M = None
        manifest["n"] = A.n
    elif args.model == "1d":
        n = int(_opt(args, cfg, "n", 31))
        mesh = gmg._interval_level(n)
        pencil = gmg.assemble_p1(mesh)
        A, M = pencil.A, pencil.M
        manifest.update(domain="interval", n=A.n, h=mesh.h)
    elif args.model == "2d":
        n0 = int(_opt(args, cfg, "n0", 1))
        levels = int(_opt(args, cfg, "levels", 4))
        hier = gmg.build_hierarchy("unit-square", n0, levels)
        pencil = gmg.assemble_p1(hier.levels[-1])
        A, M = pencil.A, pencil.M
        manifest.update(domain="unit-square", n=A.n, h=hier.levels[-1].h,
                        n0=n0, levels=levels)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown model {args.model!r}")

    a_path = os.path.join(out, "A.mtx")
    io.write_matrix(a_path, A)
    manifest["matrix"] = "A.mtx"
    if M is not None:
        io.write_matrix(os.path.join(out, "M.mtx"), M)
        manifest["mass"] = "M.mtx"
    if A.n <= 400:
        exact = exact_eigenset(A, M)
        count = min(10, A.n)
        manifest["exact_values"] = [float(v) for v in exact.values[:count]]
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        fh.write(deterministic_json(manifest) + "\n")
    print(f"wrote {a_path} (n = {A.n})"
          + (" with mass matrix" if M is not None else ""))
    return EXIT_OK


def _load_problem(args: argparse.Namespace, cfg: dict):
    """Returns (A, M, manifest|None)."""
    problem = _opt(args, cfg, "problem", None)
    matrix = _opt(args, cfg, "matrix", None)
    if problem:
        with open(os.path.join(problem, "manifest.json")) as fh:
            manifest = json.load(fh)
        A = io.read_matrix(os.path.join(problem, manifest["matrix"]))
        M = (io.read_matrix(os.path.join(problem, manifest["mass"]))
             if "mass" in manifest else None)
        return A, M, manifest
    if matrix:
        A = io.read_matrix(matrix)
        mass = _opt(args, cfg, "mass", None)
        M = io.read_matrix(mass) if mass else None
        return A, M, None
    raise ConfigError("need --problem DIR or --matrix FILE")


def _no_coarse_space(source: str, why: str) -> ConfigError:
    return ConfigError(f"no {source} coarse space: {why}; --coarse ideal takes "
                       "the oracle's eigenvectors instead")


def _coarse_basis(args, cfg, A, M, manifest, k: int):
    """Build the coarse space and optionally a multigrid V-cycle solver;
    returns them with the name of their source.

    Without a configured source, the method chooses at every size: GMG
    when gmg can rebuild the manifest's mesh hierarchy (the unit square, or
    an interval with n = 2^p * 4 - 1 interior unknowns), else AMG.  The
    GMG V-cycle spans the whole hierarchy; --coarse-level (default: two
    levels below the finest, or the coarsest) picks the level of K only.
    The ideal space (the dense oracle's eigenvectors) is taken only when
    named.  When the chosen method has no coarse space (AMG builds a
    single level or stalls at the first, GMG has no coarser level), the
    ConfigError names --coarse ideal; there is no fallback."""
    source = _opt(args, cfg, "coarse", None)
    if source is None:
        domain = (manifest or {}).get("domain")
        on_ladder = domain == "interval" and A.n >= 3 and A.n & (A.n + 1) == 0
        source = "gmg" if domain == "unit-square" or on_ladder else "amg"
    nc = int(_opt(args, cfg, "nc", max(2 * k, k + 4)))
    if nc < 1:
        raise ConfigError(f"--nc must be >= 1, got {nc}")
    solver = None
    if source == "ideal":
        K = amg.ideal_coarse_space(A, M, nc)
    elif source == "amg":
        try:
            hier = amg.amg_setup(A, M)
        except ConvergenceError as exc:
            raise _no_coarse_space("amg", str(exc)) from exc
        if hier.n_levels == 1:
            raise _no_coarse_space("amg", f"its hierarchy of n = {A.n} has one level")
        depth = hier.n_levels - 1
        while depth > 1 and hier.levels[depth].A.n < max(nc, k + 2):
            depth -= 1
        K = amg.amg_coarse_space(hier, depth)
        solver = amg.AmgVCycleSolver(hier)
    elif source == "gmg":
        if not manifest or "domain" not in manifest:
            raise ConfigError("--coarse gmg needs a generated FEM problem "
                              "(gen 1d / gen 2d with its manifest)")
        if manifest["domain"] == "interval":
            hier = gmg.interval_hierarchy(manifest["n"])
        else:
            hier = gmg.build_hierarchy(manifest["domain"], manifest["n0"],
                                       manifest["levels"])
        levels = hier.n_levels
        if levels == 1:
            raise _no_coarse_space("gmg", f"its hierarchy of n = {A.n} has one level")
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        coarse_level = int(_opt(args, cfg, "coarse_level", max(0, levels - 3)))
        K = gmg.coarse_space(pencils, prolongations, levels - 1, coarse_level)
        solver = gmg.hierarchy_solver(hier)
    else:
        raise ConfigError(f"unknown coarse-space source {source!r}")
    return K, solver, source


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    A, M, manifest = _load_problem(args, cfg)
    alg = _opt(args, cfg, "alg", "alg1")
    if alg not in ("alg1", "alg2"):
        raise ConfigError(f"unknown algorithm {alg!r}")
    k = int(_opt(args, cfg, "k", 1))
    target = int(_opt(args, cfg, "target_index", 1))
    if not 1 <= target <= A.n:
        raise ConfigError(f"--target-index is 1-based and must be in 1..{A.n}")
    K, solver, source = _coarse_basis(args, cfg, A, M, manifest, k)

    ipm_cfg = IpmConfig(
        k=k,
        mode="block" if alg == "alg1" else "single",
        target_index=target - 1,
        residual_tol=float(_opt(args, cfg, "tol", 1e-10)),
        max_outer=int(_opt(args, cfg, "max_outer", 50)),
        seed=int(_opt(args, cfg, "seed", 0)),
        track_exact=bool(_opt(args, cfg, "track_exact", False)),
    )
    if solver is not None:
        # ipm_run passes inner_tol only in tracked runs
        ipm_cfg.inner_solve = solver.solve
    K = ritz_space(A, M, K)
    print(f"coarse: {source}, m = {K.dim}")
    U0 = None
    if alg == "alg2":
        # start from the target's coarse Ritz vector; the step follows the
        # Ritz pair at the target's position
        if target > K.dim:
            raise ConfigError(f"--target-index {target} exceeds the coarse-space "
                              f"dimension {K.dim}")
        U0 = K.prolong(np.eye(K.dim)[:, [target - 1]])
    report = ipm_run(A, M, K, U0, ipm_cfg)

    prefix = _opt(args, cfg, "out", "run")
    with open(prefix + ".json", "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(report.to_csv())
    values = ", ".join(f"{v:.12g}" for v in report.final_values)
    print(f"status: {report.status} after {len(report.records)} iterations")
    print(f"eigenvalues: {values}")
    print(f"reports: {prefix}.json {prefix}.csv")
    if report.status != "converged":
        print(_stall_cause(report), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _stall_cause(report) -> str:
    """One line on why a run stopped unconverged: the column with the worst
    last residual, its best residual and the step that reached it, its last
    residual, and whether any Ritz value fell in the last STALL_WINDOW
    steps, by the stagnation rule's relative tolerance STALL_RTOL."""
    res = np.array([r.residuals for r in report.records])
    lam = np.array([r.lambdas for r in report.records])
    col = int(np.argmax(res[-1]))
    at = int(np.argmin(res[:, col]))
    split = max(1, len(lam) - STALL_WINDOW)
    fell = bool(np.any(lam[split:].min(axis=0, initial=np.inf)
                       < lam[:split].min(axis=0) * (1.0 - STALL_RTOL)))
    return (f"cause: column {col + 1} has the worst last residual "
            f"{res[-1, col]:.3e}; its best was {res[at, col]:.3e} at step "
            f"{report.records[at].ell}; "
            + ("a Ritz value" if fell else "no Ritz value")
            + f" fell in the last {STALL_WINDOW} steps")


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if getattr(args, "from_replay", None):
        report = replay(args.from_replay)
    else:
        suite = _opt(args, cfg, "suite", "all")
        params = {}
        if _opt(args, cfg, "n", None) is not None:
            params["n"] = int(_opt(args, cfg, "n", 0))
        if _opt(args, cfg, "m", None) is not None:
            params["m"] = int(_opt(args, cfg, "m", 0))
        if _opt(args, cfg, "model", None) is not None:
            params["model"] = _opt(args, cfg, "model", "1d")
        if _opt(args, cfg, "nc_sweep", None) is not None:
            params["nc_sweep"] = tuple(
                int(tok) for tok in str(_opt(args, cfg, "nc_sweep", "")).split(",") if tok)
        if getattr(args, "ideal", False):
            params["ideal_only"] = True
        report = run_suite(suite, seed=int(_opt(args, cfg, "seed", 0)),
                           trials=int(_opt(args, cfg, "trials", 100)), **params)

    report_path = _opt(args, cfg, "report", None)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(report.to_json() + "\n")
    failures = report.failures()
    print(f"suite {report.suite}: {len(report.checks)} checks, "
          f"{len(failures)} failed")
    for c in failures:
        print(f"  FAIL {c.name}: lhs = {c.lhs:.17g}, rhs = {c.rhs:.17g}")
    if failures:
        replay_path = _opt(args, cfg, "replay", "replay.json")
        with open(replay_path, "w") as fh:
            fh.write(report.replay_json() + "\n")
        print(f"replay file written to {replay_path}")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.file) as fh:
        payload = json.load(fh)
    if "checks" in payload:
        print(f"verification suite {payload['suite']} "
              f"(seed {payload['seed']}, {payload['trials']} trials): "
              + ("PASS" if payload["passed"] else "FAIL"))
        for c in payload["checks"]:
            flag = "ok  " if c["pass"] else "FAIL"
            print(f"  [{flag}] {c['name']}: lhs = {c['lhs']:.6g} "
                  f"<= rhs = {c['rhs']:.6g} (margin {c['margin']:.3g})")
    elif "iterations" in payload:
        print(f"iteration report: k = {payload['k']}, seed = {payload['seed']}, "
              f"status = {payload['status']}")
        for rec in payload["iterations"]:
            lams = ", ".join(f"{v:.10g}" for v in rec["lambda"])
            res = max(rec["res"])
            line = f"  ell = {rec['ell']:3d}  lambda = [{lams}]  max res = {res:.3e}"
            if rec.get("measured_rate") is not None:
                line += f"  rate = {rec['measured_rate']:.3e}"
            if rec.get("theo_rate") is not None:
                line += f" (bound {rec['theo_rate']:.3e})"
            print(line)
    else:
        raise ConfigError(f"{args.file} is not a recognized report")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subeig",
        description="Sparse symmetric eigensolver with certified subspace "
                    "projection error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a model problem")
    p_gen.add_argument("model", choices=("1d", "2d", "diag"))
    p_gen.add_argument("--n", type=int, help="interior unknowns (1d)")
    p_gen.add_argument("--n0", type=int, help="coarsest interior points per side (2d)")
    p_gen.add_argument("--levels", type=int, help="refinement levels (2d)")
    p_gen.add_argument("--values", help="diagonal entries: 'a..b' or comma list")
    p_gen.add_argument("--out", help="output directory")
    p_gen.add_argument("--config", help="JSON file with defaults")
    p_gen.set_defaults(fn=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the subspace eigensolver")
    p_solve.add_argument("--problem", help="directory from 'gen'")
    p_solve.add_argument("--matrix", help="stiffness Matrix Market file")
    p_solve.add_argument("--mass", help="mass Matrix Market file")
    p_solve.add_argument("--alg", choices=("alg1", "alg2"))
    p_solve.add_argument("--coarse", choices=("gmg", "amg", "ideal"))
    p_solve.add_argument("--coarse-level", dest="coarse_level", type=int)
    p_solve.add_argument("--k", type=int)
    p_solve.add_argument("--nc", type=int, help="coarse-space dimension")
    p_solve.add_argument("--target-index", dest="target_index", type=int,
                         help="1-based eigenpair index for alg2")
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-outer", dest="max_outer", type=int)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--track-exact", dest="track_exact",
                         action="store_const", const=True,
                         help="record exact errors and rates (dense oracle; "
                              "warns and is ignored above the dense limit), "
                              "solving every multigrid inner system to 1e-12 "
                              "of its right-hand side instead of stopping it "
                              "at a 100-fold cut of the Ritz residual")
    p_solve.add_argument("--out", help="report path prefix")
    p_solve.add_argument("--config", help="JSON file with defaults")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", choices=SUITES)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--model", choices=("1d",))
    p_verify.add_argument("--nc-sweep", dest="nc_sweep")
    p_verify.add_argument("--ideal", action="store_true",
                          help="restrict the amg suite to ideal-space checks")
    p_verify.add_argument("--report", help="write the report JSON here")
    p_verify.add_argument("--replay", help="replay-file path on failure")
    p_verify.add_argument("--from-replay", dest="from_replay",
                          help="re-run the suite recorded in a replay file")
    p_verify.add_argument("--config", help="JSON file with defaults")
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="pretty-print a report file")
    p_report.add_argument("file")
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except _DEGENERATE_ERRORS as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())

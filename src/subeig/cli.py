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
from .verify import SUITES, replay, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

_CONFIG_ERRORS = (ConfigError, NotSymmetricError, DimensionMismatchError)
_DEGENERATE_ERRORS = (NotPositiveDefiniteError, DegenerateGapError, EmptyBasisError)


def _values(spec: str) -> np.ndarray:
    """--values: either 'a..b' for an integer range or a comma list of floats."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return np.arange(int(lo), int(hi) + 1, dtype=float)
        return np.array([float(tok) for tok in spec.split(",") if tok], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed {spec!r}: {exc}") from exc


def _int_list(spec: str) -> list[int]:
    """--nc-sweep: a nonempty comma list of integers."""
    try:
        out = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed {spec!r}: {exc}") from exc
    if not out:
        raise argparse.ArgumentTypeError(f"empty list {spec!r}")
    return out


def _config_value(command: argparse.ArgumentParser, action: argparse.Action,
                  key: str, value):
    """A --config value as the command line would give it: a switch takes
    true or false; a string, a number for a numeric option or a list of
    numbers for a comma-list option goes as text through its flag's parser."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"--config key {key!r} is a switch: true or false, "
                          f"not {json.dumps(value)}")
    # JSON numbers load as int or float; true and false as bool
    if isinstance(value, str) or (type(value) in (int, float) and action.type in (int, float)):
        text = str(value)
    elif isinstance(value, list) and action.type in (_values, _int_list) \
            and all(type(v) in (int, float) for v in value):
        text = ",".join(map(str, value))
    else:
        raise ConfigError(f"--config key {key!r} cannot take {json.dumps(value)}")
    try:
        return command._get_values(action, [text])
    except argparse.ArgumentError as exc:
        raise ConfigError(f"--config key {key!r}: {exc}") from exc


def _with_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse argv again with the --config file's keys, each an option's dest
    (max_outer for --max-outer), as the subcommand's defaults: a flag beats
    a key, which beats the option's own default, or else the library's."""
    if not getattr(args, "config", None):
        return args
    cfg = io.read_json_object(args.config, "--config file")
    command = next(action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))[args.command]
    options = {action.dest: action for action in command._actions
               if not action.required and action.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise ConfigError(f"--config key {unknown[0]!r} is not an option of "
                          f"{args.command}; its keys are {', '.join(sorted(options))}")
    command.set_defaults(**{key: _config_value(command, options[key], key, value)
                            for key, value in cfg.items()})
    return parser.parse_args(argv)


def _given(args: argparse.Namespace, *dests: str, **renamed: str) -> dict:
    """The options given as a flag or a --config key, keyed by the library's
    names for them: dests as they are, and renamed maps a name to a dest."""
    names = {dest: dest for dest in dests} | renamed
    return {name: getattr(args, dest) for name, dest in names.items()
            if getattr(args, dest) is not None}


def cmd_gen(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    manifest: dict = {"model": args.model}

    if args.model == "diag":
        if args.values.size == 0 or np.any(args.values <= 0):
            raise ConfigError("diag model needs positive --values")
        A = SparseSymMatrix.from_dense(np.diag(args.values))
        M = None
        manifest["n"] = A.n
    elif args.model == "1d":
        mesh = gmg._interval_level(args.n)
        pencil = gmg.assemble_p1(mesh)
        A, M = pencil.A, pencil.M
        manifest.update(domain="interval", n=A.n, h=mesh.h)
    else:  # 2d
        hier = gmg.build_hierarchy("unit-square", args.n0, args.levels)
        pencil = gmg.assemble_p1(hier.levels[-1])
        A, M = pencil.A, pencil.M
        manifest.update(domain="unit-square", n=A.n, h=hier.levels[-1].h,
                        n0=args.n0, levels=args.levels)

    a_path = os.path.join(args.out, "A.mtx")
    io.write_matrix(a_path, A)
    manifest["matrix"] = "A.mtx"
    if M is not None:
        io.write_matrix(os.path.join(args.out, "M.mtx"), M)
        manifest["mass"] = "M.mtx"
    if A.n <= 400:
        exact = exact_eigenset(A, M)
        count = min(10, A.n)
        manifest["exact_values"] = [float(v) for v in exact.values[:count]]
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        fh.write(io.deterministic_json(manifest) + "\n")
    print(f"wrote {a_path} (n = {A.n})"
          + (" with mass matrix" if M is not None else ""))
    return EXIT_OK


def _load_problem(args: argparse.Namespace):
    """Returns (A, M, manifest|None)."""
    if args.problem:
        manifest = io.read_json_object(os.path.join(args.problem, "manifest.json"),
                                       "manifest", ("matrix",))
        A = io.read_matrix(os.path.join(args.problem, manifest["matrix"]))
        M = (io.read_matrix(os.path.join(args.problem, manifest["mass"]))
             if "mass" in manifest else None)
        return A, M, manifest
    if args.matrix:
        A = io.read_matrix(args.matrix)
        M = io.read_matrix(args.mass) if args.mass else None
        return A, M, None
    raise ConfigError("need --problem DIR or --matrix FILE")


def _no_coarse_space(source: str, why: str) -> ConfigError:
    return ConfigError(f"no {source} coarse space: {why}; --coarse ideal takes "
                       "the oracle's eigenvectors instead")


def _coarse_basis(args, A, M, manifest, k: int):
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
    source = args.coarse
    if source is None:
        domain = (manifest or {}).get("domain")
        on_ladder = domain == "interval" and A.n >= 3 and A.n & (A.n + 1) == 0
        source = "gmg" if domain == "unit-square" or on_ladder else "amg"
    nc = max(2 * k, k + 4) if args.nc is None else args.nc
    if nc < 1:
        raise ConfigError(f"--nc must be >= 1, got {nc}")
    if source == "ideal":
        return amg.ideal_coarse_space(A, M, nc), None, source
    if source == "amg":
        try:
            hier = amg.amg_setup(A, M)
        except ConvergenceError as exc:
            raise _no_coarse_space("amg", str(exc)) from exc
        if hier.n_levels == 1:
            raise _no_coarse_space("amg", f"its hierarchy of n = {A.n} has one level")
        depth = hier.n_levels - 1
        while depth > 1 and hier.levels[depth].A.n < max(nc, k + 2):
            depth -= 1
    else:  # gmg
        if not manifest or "domain" not in manifest:
            raise ConfigError("--coarse gmg needs a generated FEM problem "
                              "(gen 1d / gen 2d with its manifest)")
        interval = manifest["domain"] == "interval"
        io.require_keys(manifest, f"manifest {os.path.join(args.problem, 'manifest.json')}",
                        ("n",) if interval else ("n0", "levels"))
        if interval:
            mesh = gmg.interval_hierarchy(manifest["n"])
        else:
            mesh = gmg.build_hierarchy(manifest["domain"], manifest["n0"],
                                       manifest["levels"])
        levels = mesh.n_levels
        if levels == 1:
            raise _no_coarse_space("gmg", f"its hierarchy of n = {A.n} has one level")
        coarse_level = max(0, levels - 3) if args.coarse_level is None else args.coarse_level
        if not 0 <= coarse_level < levels - 1:
            raise ConfigError(f"--coarse-level must be in 0..{levels - 2}, got {coarse_level}")
        hier, depth = mesh.multigrid, levels - 1 - coarse_level
    return hier.coarse_space(depth), hier.vcycle, source


def cmd_solve(args: argparse.Namespace) -> int:
    A, M, manifest = _load_problem(args)
    target = args.target_index
    if not 1 <= target <= A.n:
        raise ConfigError(f"--target-index is 1-based and must be in 1..{A.n}")
    ipm_cfg = IpmConfig(mode="block" if args.alg == "alg1" else "single",
                        target_index=target - 1,
                        **_given(args, "k", "max_outer", "seed", "track_exact",
                                 residual_tol="tol"))
    K, solver, source = _coarse_basis(args, A, M, manifest, ipm_cfg.k)
    if solver is not None:
        # ipm_run passes inner_tol only in tracked runs
        ipm_cfg.inner_solve = solver.solve
    K = ritz_space(A, M, K)
    print(f"coarse: {source}, m = {K.dim}")
    U0 = None
    if args.alg == "alg2":
        # start from the target's coarse Ritz vector; the step follows the
        # Ritz pair at the target's position
        if target > K.dim:
            raise ConfigError(f"--target-index {target} exceeds the coarse-space "
                              f"dimension {K.dim}")
        U0 = K.prolong(np.eye(K.dim)[:, [target - 1]])
    report = ipm_run(A, M, K, U0, ipm_cfg)

    with open(args.out + ".json", "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(args.out + ".csv", "w") as fh:
        fh.write(report.to_csv())
    values = ", ".join(f"{v:.12g}" for v in report.final_values)
    print(f"status: {report.status} after {len(report.records)} iterations")
    print(f"eigenvalues: {values}")
    print(f"reports: {args.out}.json {args.out}.csv")
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
    if args.from_replay:
        report = replay(args.from_replay)
    else:
        report = run_suite(args.suite, **_given(args, "seed", "trials", "n", "m",
                                                "nc_sweep", ideal_only="ideal"))

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    failures = report.failures()
    print(f"suite {report.suite}: {len(report.checks)} checks, "
          f"{len(failures)} failed")
    for c in failures:
        print(f"  FAIL {c.name}: lhs = {c.lhs:.17g}, rhs = {c.rhs:.17g}")
    if failures:
        with open(args.replay, "w") as fh:
            fh.write(report.replay_json() + "\n")
        print(f"replay file written to {args.replay}")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    what = f"report {args.file}"
    payload = io.read_json_object(args.file, "report")

    def entries(key: str, head: tuple[str, ...], keys: tuple[str, ...]) -> list[dict]:
        """The list of objects under key, each holding keys, once the report
        holds the keys of its head line."""
        io.require_keys(payload, what, head)
        if not isinstance(payload[key], list):
            raise ConfigError(f"{what}: {key!r} must be a list")
        return [io.require_keys(entry, f"entry {i} of {key!r} in {what}", keys)
                for i, entry in enumerate(payload[key])]

    if "checks" in payload:
        checks = entries("checks", ("suite", "seed", "trials", "passed"),
                         ("name", "lhs", "rhs", "margin", "pass"))
        print(f"verification suite {payload['suite']} "
              f"(seed {payload['seed']}, {payload['trials']} trials): "
              + ("PASS" if payload["passed"] else "FAIL"))
        for c in checks:
            flag = "ok  " if c["pass"] else "FAIL"
            print(f"  [{flag}] {c['name']}: lhs = {c['lhs']:.6g} "
                  f"<= rhs = {c['rhs']:.6g} (margin {c['margin']:.3g})")
    elif "iterations" in payload:
        records = entries("iterations", ("k", "seed", "status"), ("ell", "lambda", "res"))
        print(f"iteration report: k = {payload['k']}, seed = {payload['seed']}, "
              f"status = {payload['status']}")
        for rec in records:
            lams = ", ".join(f"{v:.10g}" for v in rec["lambda"])
            res = max(rec["res"])
            line = f"  ell = {rec['ell']:3d}  lambda = [{lams}]  max res = {res:.3e}"
            if rec.get("measured_rate") is not None:
                line += f"  rate = {rec['measured_rate']:.3e}"
            if rec.get("theo_rate") is not None:
                line += f" (bound {rec['theo_rate']:.3e})"
            print(line)
    else:
        raise ConfigError(f"{what} is not a recognized report")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subeig",
        description="Sparse symmetric eigensolver with certified subspace "
                    "projection error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a model problem")
    p_gen.add_argument("model", choices=("1d", "2d", "diag"))
    p_gen.add_argument("--n", type=int, default=31, help="interior unknowns (1d)")
    p_gen.add_argument("--n0", type=int, default=1,
                       help="coarsest interior points per side (2d)")
    p_gen.add_argument("--levels", type=int, default=4, help="refinement levels (2d)")
    p_gen.add_argument("--values", type=_values, default="1..10",
                       help="diagonal entries: 'a..b' or comma list")
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--config", help="JSON file of option values")
    p_gen.set_defaults(fn=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the subspace eigensolver")
    p_solve.add_argument("--problem", help="directory from 'gen'")
    p_solve.add_argument("--matrix", help="stiffness Matrix Market file")
    p_solve.add_argument("--mass", help="mass Matrix Market file")
    p_solve.add_argument("--alg", choices=("alg1", "alg2"), default="alg1")
    p_solve.add_argument("--coarse", choices=("gmg", "amg", "ideal"))
    p_solve.add_argument("--coarse-level", dest="coarse_level", type=int)
    p_solve.add_argument("--k", type=int)
    p_solve.add_argument("--nc", type=int, help="coarse-space dimension")
    p_solve.add_argument("--target-index", dest="target_index", type=int, default=1,
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
    p_solve.add_argument("--out", default="run", help="report path prefix")
    p_solve.add_argument("--config", help="JSON file of option values")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", choices=SUITES, default="all")
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--n", type=int, help="problem size of the one suite named")
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--nc-sweep", dest="nc_sweep", type=_int_list,
                          help="comma list of ideal coarse-space dimensions (amg)")
    p_verify.add_argument("--ideal", action="store_true", default=None,
                          help="restrict the amg suite to ideal-space checks")
    p_verify.add_argument("--report", help="write the report JSON here")
    p_verify.add_argument("--replay", default="replay.json",
                          help="replay-file path on failure")
    p_verify.add_argument("--from-replay", dest="from_replay",
                          help="re-run the suite recorded in a replay file")
    p_verify.add_argument("--config", help="JSON file of option values")
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="pretty-print a report file")
    p_report.add_argument("file")
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _with_config(parser, parser.parse_args(argv), argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except SystemExit as exc:  # argparse printed a usage error (2) or the help (0)
        return exc.code
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): print nothing more, and
        # send whatever stdout still holds to devnull
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except (*_CONFIG_ERRORS, json.JSONDecodeError, OSError) as exc:
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

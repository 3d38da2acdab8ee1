"""Benchmark of subeig: three workloads, timed from outside through the
public API, each round in a fresh single-threaded process.

    python3 perfbench/run.py --workload {gmg2d,amg2d,verify-all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
`src/`). A run first starts SETUP_PROBES processes that only set up, then
starts rounds (set-up plus one timed call) until S seconds have passed.
With --trace 1 each round is a pair: one plain round and one with
subeig's public functions wrapped by tracing.Tracer. Every result is
checked against references computed apart from subeig (reference.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The details of the run
(every sample, the thread settings read back by the processes, the
versions) go to perfbench/out/<workload>.result.json and, for traced runs,
the spans to perfbench/out/<workload>.trace.json.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy is imported, here and (through the
# inherited environment) in every workload process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SUBEIG_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("gmg2d", "amg2d", "verify-all")
SETUP_PROBES = 2
# A run must end within 180 s: no round starts if the longest round so far
# would end past RUN_DEADLINE_S, and every process is killed at RUN_LIMIT_S.
RUN_DEADLINE_S = 150.0
RUN_LIMIT_S = 175.0

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "outer_steps": "count", "checks": "count"}


class RoundFailed(Exception):
    pass


def run_round(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Start one workload process; return its report plus setup_s, the time
    from just before the process was started to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed), mode]
    if mode == "traced":
        cmd.append(str(OUT / f"{workload}.trace.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{mode} round timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"{mode} round exited {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RoundFailed(f"{mode} round printed no result") from exc
    rec["setup_s"] = rec["ready"] - start
    return rec


class References:
    """The reference values the rounds are checked against, computed once
    per run and outside every timed region."""

    def __init__(self, workload: str):
        import reference

        self.ref = reference
        if workload == "gmg2d":
            self.values = reference.smallest_eigenvalues(*reference.unit_square_pencil(31), 4)
        elif workload == "amg2d":
            self.values = reference.smallest_eigenvalues(*reference.unit_square_pencil(15), 3)
        else:
            from workload import VERIFY_ORACLE_SIZES

            self.oracle = {str(n): reference.interval_eigenvalues(n)
                           for n in VERIFY_ORACLE_SIZES}
        self.workload = workload

    def check(self, rec: dict) -> list[tuple[str, str | None]]:
        if self.workload == "verify-all":
            return self.ref.check_verify_result(rec["passed"], rec["suite_checks"],
                                                rec["oracle_values"], self.oracle)
        return self.ref.check_eigen_result(rec["status"], rec["values"], self.values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="start-block seed of gmg2d and amg2d; "
                             "verify-all runs its fixed suite seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subeig" / "__init__.py").is_file():
        print(f"error: no subeig sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    began = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    attempted = failed = 0
    errors: list[str] = []
    rounds: list[dict] = []
    setups: list[dict] = []

    def attempt(mode: str):
        nonlocal attempted, failed
        attempted += 1
        try:
            return run_round(args.workload, args.seed, mode, timeout=max(remaining(), 1.0))
        except RoundFailed as exc:
            failed += 1
            errors.append(str(exc))
            return None

    for _ in range(SETUP_PROBES):
        rec = attempt("setup")
        if rec is not None:
            setups.append(rec)
    t0 = time.monotonic()
    longest = 0.0
    while True:
        started = time.monotonic()
        pair = {"solve": attempt("solve")}
        if args.trace:
            pair["traced"] = attempt("traced")
        rounds.append(pair)
        longest = max(longest, time.monotonic() - started)
        elapsed = time.monotonic() - began
        if time.monotonic() - t0 >= args.seconds or elapsed + longest > RUN_DEADLINE_S:
            break

    refs = References(args.workload)
    wrong: list[str] = []
    done = [r for pair in rounds for r in pair.values() if r is not None]
    for rec in done:
        results = refs.check(rec)
        wrong += [msg for _, msg in results if msg]
        # verify-all counts the report's checks; the solves count the
        # reference checks made on their result
        rec.setdefault("checks", len(results))
    solved = [p["solve"] for p in rounds if p["solve"] is not None]
    for key in ("outer_steps", "checks"):
        if len({r[key] for r in done if key in r}) > 1:
            wrong.append(f"{key} differs between rounds of one run")

    metrics = {}
    if args.trace == 0 and solved:
        values = {
            "solve_s": statistics.median(r["solve_s"] for r in solved),
            "setup_s": statistics.median(r["setup_s"] for r in setups + solved),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solved),
            "outer_steps": solved[0]["outer_steps"],
            "checks": solved[0]["checks"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    elif args.trace == 1:
        traced = [p["traced"] for p in rounds if p.get("traced") and p.get("solve")]
        if traced:
            layers = {k: statistics.median(t["layers"][k] for t in traced)
                      for k in traced[0]["layers"]}
            layers["trace.overhead_s"] = statistics.median(
                p["traced"]["solve_s"] - p["solve"]["solve_s"]
                for p in rounds if p.get("traced") and p.get("solve"))
            layers["trace.spans"] = statistics.median(t["spans"] for t in traced)
            metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                       for k, v in layers.items()}

    first = next(iter(done), None)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "read_back": first and first.get("read_back"),
               "setups": [r["setup_s"] for r in setups],
               "rounds": [{m: {k: v for k, v in r.items()
                               if k not in ("read_back", "oracle_values")}
                           for m, r in p.items() if r is not None} for p in rounds],
               "errors": errors, "wrong": wrong}
    with open(OUT / f"{args.workload}.result.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if first is not None:
        print("read back:", json.dumps(first["read_back"], sort_keys=True))
    for msg in errors:
        print("failed:", msg)
    for msg in wrong:
        print("wrong:", msg)
    print(json.dumps({"correct": not wrong and bool(done), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

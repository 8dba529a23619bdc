#!/usr/bin/env python3
"""permcheck benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src/``.  Each iteration of the workload runs
in a fresh ``worker.py`` process, one at a time, until ``--seconds`` have
passed and at least three iterations (one traced pair) are done.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is the result object;
the lines before it record the machine, the bounds, the seed, the run
length and the sample counts, and list every metric with its unit.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sampled-2222", "exhaustive-1111", "mutants-2222")
END_TO_END = {"wall_s": "s", "states_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "statespace.unrank.calls": "count",
    "statespace.unrank.self_s": "s",
    "statespace.targeted_states.calls": "count",
    "statespace.targeted_states.self_s": "s",
    "statespace.space_build_s": "s",
    "invariants.eval.calls": "count",
    "invariants.allMapsCorrect.self_s": "s",
    "invariants.notDupPerm.self_s": "s",
    "invariants.hypothesis_held_ratio": "ratio",
    "kernel.forall_in.calls": "count",
    "kernel.forall_in.self_s": "s",
    "operations.candidates.calls": "count",
    "operations.candidates.self_s": "s",
    "operations.apply.calls": "count",
    "operations.apply.self_s": "s",
    "operations.apply.ok_ratio": "ratio",
    "verifier.check_query.self_s": "s",
    "verifier.query_s.p50": "s",
    "verifier.query_s.p70": "s",
    "verifier.recheck.calls": "count",
    "verifier.recheck.self_s": "s",
    "verifier.exhaustive_share": "ratio",
    "model.state_to_doc.calls": "count",
    "model.emit.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
SETUP_PROBES = 9      # set-up-only processes per untraced run
MIN_ITERATIONS = 3    # per untraced run, so one slow iteration cannot move the median
HARD_LIMIT_S = 170.0  # no worker is left running past this


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float,
          tamper: str | None = None) -> tuple[dict, float]:
    """Run one worker to completion; return its result and spawn time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(seed % 2**32))
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            workload, str(seed), mode] + ([tamper] if tamper else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{workload} {mode}: no result within the time limit") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload} {mode}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def iteration(workload, seed, mode, deadline, tamper=None) -> dict:
    out, spawned = spawn(workload, seed, mode, deadline, tamper)
    out["wall_s"] = out["t_report"] - spawned
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for ``seconds``; return metrics, counts and context."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups = [] if trace else [spawn(workload, seed, "setup", deadline)[0]["setup_s"]
                               for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    least = 1 if trace else MIN_ITERATIONS
    while len(plain) < least or time.monotonic() - start < seconds:
        plain.append(iteration(workload, seed, "plain", deadline))
        if trace:
            traced.append(iteration(workload, seed, "traced", deadline))
    runs = plain + traced

    if trace:
        metrics = {k: median_low(t["layers"][k] for t in traced)
                   for k in PER_LAYER if k in traced[0]["layers"]}
        pooled = [q for t in traced for q in t["query_s"]]
        deciles = quantiles(pooled, n=10, method="inclusive")
        metrics["verifier.query_s.p50"] = deciles[4]
        metrics["verifier.query_s.p70"] = deciles[6]
        metrics["trace.overhead_s"] = (median(t["wall_s"] for t in traced)
                                       - median(p["wall_s"] for p in plain))
        units = PER_LAYER
    else:
        setups += [p["setup_s"] for p in plain]
        metrics = {
            "wall_s": median(p["wall_s"] for p in plain),
            "states_per_s": median(p["states"] / p["suite_s"] for p in plain),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["rss_mb"] for p in plain),
        }
        units = END_TO_END
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    samples = {"iterations": len(plain), "traced_iterations": len(traced),
               "setup_samples": len(setups),
               "query_samples": sum(len(t["query_s"]) for t in traced)}
    return {
        "context": {
            "workload": workload, "seed": seed, "run_seconds": seconds,
            "trace": int(trace), "bounds": plain[0]["bounds"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "samples": samples,
            "measured_s": round(time.monotonic() - start, 3),
            "failed_share": failed / attempted,
            "failures": [f for r in runs for f in r["failures"]][:20],
        },
        "result": {
            "correct": failed == 0 and not any(r["errors"] for r in runs),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def print_run(run: dict) -> None:
    print("context " + json.dumps(run["context"], sort_keys=True))
    for name, m in run["result"]["metrics"].items():
        print(f"  {name:40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(run["result"]))


def self_check() -> int:
    """Show that the correctness gate is not vacuous and that the emitted
    metric names are those of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + HARD_LIMIT_S
    results = []

    def check(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}: {label}")

    w = "mutants-2222"
    clean = iteration(w, 0, "plain", deadline)
    check(f"{w}: the expected table passes ({clean['failed']} of "
          f"{clean['attempted']} failed)", clean["failed"] == 0)
    wrong = iteration(w, 0, "plain", deadline, tamper="table")
    check(f"{w}: a wrong expected table trips the gate ({wrong['failed']} of "
          f"{wrong['attempted']} failed)", wrong["failed"] > 0)
    hits = iteration(w, 0, "plain", deadline, tamper="hits")
    check(f"{w}: corrupted counterexamples and witnesses fail re-evaluation "
          f"({hits['failed']} failed)", hits["failed"] > 0)

    check("workload names match BENCHMARK.json",
          [x["name"] for x in spec["workloads"]] == list(WORKLOADS))
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        emitted = measure(w, 0, 0, trace)["result"]["metrics"]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(f"emitted {key} metrics match BENCHMARK.json by name and unit",
              {k: m["unit"] for k, m in emitted.items()} == declared)
    return 0 if all(results) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the correctness gate and the metric names")
    args = ap.parse_args()
    if not (ROOT / "src" / "permcheck" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'permcheck'}",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        print_run(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

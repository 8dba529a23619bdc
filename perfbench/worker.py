"""One iteration of one workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED MODE [TAMPER]

MODE is ``setup`` (import, space construction and query generation only),
``plain`` (the workload, untimed by any span) or ``traced`` (the workload
with every layer wrapped in spans).  TAMPER, used only by ``run.py
--self-check``, is ``table`` (check against a deliberately wrong expected
table) or ``hits`` (corrupt every emitted counterexample and witness before
re-evaluating it).  Prints one JSON line; times are CLOCK_MONOTONIC
readings, so the parent can subtract its own spawn time.
"""

import contextlib
import io
import resource
import sys
import time
import traceback
from pathlib import Path

T0 = time.monotonic()  # before the program and its own imports

import json  # noqa: E402

import permcheck  # noqa: E402
import permcheck.cli  # noqa: E402
from permcheck.invariants import standard_clauses  # noqa: E402
from permcheck.operations import default_operations  # noqa: E402
from permcheck.statespace import SystemSpace  # noqa: E402
from permcheck.verifier import (  # noqa: E402
    gen_invariance_queries,
    gen_security_queries,
    run_suite,
)

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import CEX, HOLDS, WITNESS, WORKLOADS, Suite  # noqa: E402

WRONG = {HOLDS: CEX, CEX: HOLDS, WITNESS: "no-witness-at-bounds"}


def setup(workload, bounds) -> tuple:
    suites = workload.suites()
    SystemSpace(bounds)
    for s in suites:
        gen_invariance_queries(s.operations, s.clauses)
        gen_security_queries(s.operations, s.clauses)
    return suites


def run_workload(workload, suites, seed, bounds, tracer) -> tuple:
    """Run every suite; return (emitted texts, CLI exit codes, errors,
    seconds inside run_suite)."""
    inside = [0.0]

    def timed_run_suite(name, b, operations=None, clauses=None):
        if tracer is not None:
            operations = tracer.operations(operations or default_operations())
            clauses = tracer.clauses(clauses or standard_clauses())
        start = time.perf_counter()
        try:
            return run_suite(name, b, operations, clauses)
        finally:
            inside[0] += time.perf_counter() - start

    def verify(suite):
        # what `permcheck verify --format json` does, with the registries
        # the command line cannot pass
        report = run("all", bounds, suite.operations, suite.clauses)
        return dumps(report.to_doc(), indent=2) + "\n"

    run, dumps, main = timed_run_suite, json.dumps, permcheck.cli.main
    if tracer is not None:
        spans.install(tracer)
        run = tracer.wrap("verifier.run_suite", run)
        dumps = tracer.wrap("model.emit", dumps)
        main = tracer.wrap("cli.main", main)
        verify = tracer.wrap("cli.main", verify)
    permcheck.cli.run_suite = run

    texts, codes, errors = [], [], []
    for suite in suites:
        try:
            if workload.via_cli:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(main(workload.cli_argv(seed)))
                texts.append(buf.getvalue())
            else:
                texts.append(verify(suite))
        except Exception:
            traceback.print_exc()
            texts.append(None)
            codes.append(None)
            errors.append(suite.label)
    return texts, codes, errors, inside[0]


def tamper_hits(doc: dict) -> None:
    for v in doc["verdicts"]:
        if "action" in v:
            v["action"]["app"] = "app-absent"


def main() -> int:
    workload_name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tamper = sys.argv[4] if len(sys.argv) > 4 else None
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(permcheck.__file__).resolve().parents:
        print(f"permcheck imported from {permcheck.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    bounds = workload.bounds(seed)
    suites = setup(workload, bounds)
    out = {"setup_s": time.monotonic() - T0, "bounds": bounds.to_doc()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = spans.Tracer() if mode == "traced" else None
    texts, codes, errors, inside = run_workload(workload, suites, seed, bounds, tracer)
    out["t_report"] = time.monotonic()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["suite_s"] = inside

    if tamper == "table":
        suites = [Suite(s.label, {q: WRONG[k] for q, k in s.expected.items()},
                        s.steps, s.operations, s.clauses) for s in suites]
    attempted, failures, states, verdicts = 0, [], 0, []
    for i, (suite, text) in enumerate(zip(suites, texts)):
        attempted += len(suite.expected)
        if text is None:
            failures += [f"{suite.label}: raised"] * len(suite.expected)
            continue
        doc = json.loads(text)
        if tamper == "hits":
            tamper_hits(doc)
        failures += [f"{suite.label}: {m}"
                     for m in checks.check_report(doc, suite, workload)]
        states += sum(v["statesExamined"] for v in doc["verdicts"])
        verdicts += doc["verdicts"]
        if workload.via_cli:
            attempted += 1  # the exit code: no counterexample, nothing inconclusive
            if codes[i] != 0:
                failures.append(f"{suite.label}: exit code {codes[i]}")
    out.update(attempted=attempted, failed=len(failures), failures=failures[:20],
               states=states, errors=errors)
    if tracer is not None:
        out["layers"] = spans.layer_values(tracer, verdicts)
        out["query_s"] = spans.query_seconds(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

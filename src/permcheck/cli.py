"""Command-line front end.

Commands: ``run`` a scenario file, ``check`` a state against the validity
clauses, ``verify`` a query suite at bounds, ``witness`` search for an
existential property.  Exit codes: 0 success / all hold / witness found;
1 action blocked, clause failed, counterexample found or no witness;
2 usage or parse error (bounds too large included); 3 budget exhausted
(inconclusive); 4 internal error (any exception raised by the search or
its recheck, such as a failed soundness guard or running out of memory).
Bounds and inputs are checked, and ``--out`` opened, before the search
starts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys as _sys

from .invariants import check_clauses, standard_clauses
from .model import emit_state, parse_state
from .operations import parse_scenario, step
from .statespace import Bounds, SystemSpace
from .verifier import (
    SUITES,
    check_query,
    gen_security_queries,
    run_suite,
    verdict_to_doc,
)


def _add_bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--apps", type=int, default=2, help="app pool size")
    p.add_argument("--perms", type=int, default=2, help="permission id pool size")
    p.add_argument("--grps", type=int, default=2, help="group pool size")
    p.add_argument("--maxcard", type=int, default=2,
                   help="max cardinality of generated sets")
    p.add_argument("--budget", type=int, default=100_000,
                   help="max states examined per query")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out_flag(p)


def _bounds(args) -> Bounds:
    return Bounds(apps=args.apps, perms=args.perms, grps=args.grps,
                  max_card=args.maxcard, budget=args.budget, seed=args.seed)


def _output(args):
    """The output stream, ``--out`` opened (and truncated) or stdout.  Each
    command opens it once its inputs are read and before its work starts,
    as a shell redirect is, so a bad path costs no search."""
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(_sys.stdout)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def cmd_run(args) -> int:
    scenario = parse_scenario(_read(args.scenario))
    current = scenario.initial
    with _output(args) as f:
        for i, action in enumerate(scenario.actions, 1):
            out = step(scenario.system_perms, current, action)
            if not out.ok:
                print(f"action {i}: {action.op} blocked "
                      f"(conjunct {out.failed_conjunct})", file=_sys.stderr)
                return 1
            if action.op == "hasPermission":
                print(f"action {i}: hasPermission -> "
                      f"{'true' if out.result else 'false'}", file=_sys.stderr)
            current = out.system
        f.write(emit_state(current))
    return 0


def cmd_check(args) -> int:
    system = parse_state(_read(args.state))
    with _output(args) as f:
        failing = set(check_clauses(system))
        if args.format == "json":
            doc = {"valid": not failing,
                   "clauses": [{"id": c.id, "ok": c.id not in failing}
                               for c in standard_clauses()]}
            f.write(json.dumps(doc, indent=2) + "\n")
        else:
            lines = [f"{c.id}: {'FAIL' if c.id in failing else 'ok'}"
                     for c in standard_clauses()]
            f.write("\n".join(lines) + "\n")
    return 1 if failing else 0


class _SearchFailed(Exception):
    """An exception raised inside the search or its recheck; ``main``
    reports its cause as an internal error, never as a usage error."""


def _search(fn, *args):
    """``fn(*args)``, with any exception it raises wrapped in
    ``_SearchFailed``.  Callers build their bounds and parse their inputs
    first, so those errors keep their own exit code."""
    try:
        return fn(*args)
    except Exception as e:
        raise _SearchFailed from e


def _exit_code(verdicts) -> int:
    """1 on a counterexample or no witness, else 3 when out of budget, else 0."""
    kinds = {v.kind for v in verdicts}
    if kinds & {"counterexample", "no-witness-at-bounds"}:
        return 1
    return 3 if "budget-exhausted" in kinds else 0


def cmd_verify(args) -> int:
    bounds = _bounds(args)
    with _output(args) as f:
        report = _search(run_suite, args.suite, bounds)
        if args.format == "json":
            f.write(json.dumps(report.to_doc(), indent=2) + "\n")
        else:
            f.write(report.text())
    return _exit_code(report.verdicts)


def cmd_witness(args) -> int:
    name = args.property.removeprefix("sec/")
    queries = {q.lemma: q for q in gen_security_queries()
               if q.kind == "existential"}
    if name not in queries:
        print(f"unknown existential property: {args.property!r} "
              f"(expected one of {sorted(queries)})", file=_sys.stderr)
        return 2
    bounds = _bounds(args)
    with _output(args) as f:
        (verdict,) = _search(check_query, [queries[name]], SystemSpace(bounds))
        doc = {"property": name, "bounds": bounds.to_doc(),
               **verdict_to_doc(verdict)}
        if args.format == "json":
            f.write(json.dumps(doc, indent=2) + "\n")
        else:
            lines = [f"property: {name}",
                     f"verdict: {verdict.kind} ({verdict.states_examined} states, "
                     f"{verdict.mode})"]
            if verdict.kind == "witness":
                lines.append("bindings: " + json.dumps(doc["bindings"]))
                lines.append("state:")
                lines.append(json.dumps(doc["state"], indent=2))
            f.write("\n".join(lines) + "\n")
    return _exit_code([verdict])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcheck",
        description="Executable Android-style permission model with a bounded verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="fold a scenario's actions over its initial state")
    p.add_argument("scenario", help="scenario JSON file")
    _add_out_flag(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("check", help="evaluate every validity clause on a state")
    p.add_argument("state", help="state JSON file")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("verify", help="run a verification suite at bounds")
    p.add_argument("--suite", choices=SUITES, default="all")
    _add_bounds_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("witness", help="search a witness for an existential property")
    p.add_argument("property")
    _add_bounds_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_witness)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as e:  # ParseError and JSONDecodeError among them
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:
        if isinstance(e, _SearchFailed):
            e = e.__cause__
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

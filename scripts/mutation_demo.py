#!/usr/bin/env python3
"""Demonstrate counterexample detection on a deliberately broken grantAuto.

Deletes the group-membership conjunct from grantAuto's enabling condition,
then checks cannotAutoGrantWithoutGroup: the verifier must produce a
concrete state where the broken operation grants a dangerous permission
whose group the user never authorized, and the counterexample must survive
independent re-evaluation.
"""

import argparse
import json

from permcheck.operations import default_operations, grant_auto_operation
from permcheck.statespace import Bounds, SystemSpace
from permcheck.verifier import check_query, gen_security_queries, recheck, verdict_to_doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ops = default_operations()
    ops["grantAuto"] = grant_auto_operation(skip=(5,))
    query = gen_security_queries(operations=ops)[0]

    bounds = Bounds(2, 2, 2, 2, budget=args.budget, seed=args.seed)
    (verdict,) = check_query([query], SystemSpace(bounds))
    print(f"query: {query.id} (against grantAuto without the group conjunct)")
    print(f"verdict: {verdict.kind} after {verdict.states_examined} states")
    if verdict.kind != "counterexample":
        return 1
    print(f"recheck: {recheck(verdict)}")
    print(json.dumps(verdict_to_doc(verdict), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

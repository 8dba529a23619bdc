"""Correctness gate: verdict kinds against the expected table, and an
independent re-evaluation of every emitted counterexample and witness.

The re-evaluation starts from the JSON report, not from the verifier's
objects: it parses ``state``/``next`` back with ``state_from_doc`` and
recomputes the hypothesis, the step and the conclusion from the clause, the
suite's transition and the property's definition.
"""

from __future__ import annotations

from permcheck.invariants import standard_clauses, valid_state
from permcheck.model import DANGEROUS, perm_from_doc, state_from_doc, system_perms_from_doc
from permcheck.operations import Action, action_from_doc

from workloads import CEX, EXISTENTIAL, UNIVERSAL, WITNESS

REPORT_KEYS = {"suite", "bounds", "rows", "verdicts"}
CONCLUSIVE_CLEAN = ("holds-at-bounds", "no-witness-at-bounds")


def _group_authorized(sys, app, group) -> bool:
    return any(k == app and group in gs for k, gs in sys.state.grantedPermGroups)


def reevaluate(vdoc: dict, steps: dict, clauses_by_id: dict) -> str | None:
    """Why an emitted counterexample/witness does not hold, or None."""
    qid = vdoc["query"]
    sys = state_from_doc(vdoc["state"])
    sp = system_perms_from_doc({"systemPerms": vdoc["systemPerms"]})
    action = action_from_doc(vdoc["action"])

    if qid.startswith("inv/"):
        _, clause_id, op_id = qid.split("/")
        clause = clauses_by_id[clause_id]
        nxt = state_from_doc(vdoc["next"])
        if action.op != op_id:
            return f"action {action.op} is not {op_id}"
        if not clause.eval(sys):
            return "hypothesis does not hold"
        out = steps[op_id](sp, sys, action)
        if not out.ok or out.system != nxt:
            return "step does not reach the emitted next state"
        if clause.eval(nxt):
            return "conclusion is not broken"
        return None

    b = vdoc["bindings"]
    p, app, group = perm_from_doc(b["perm"]), b["app"], b["group"]
    if p.level != DANGEROUS or p.group != group:
        return "bound permission is not a dangerous permission of the group"
    if action != Action("grantAuto", perm=p, app=app):
        return "action is not grantAuto of the bound permission and app"
    out = steps["grantAuto"](sp, sys, action)
    if not out.ok:
        return "grantAuto is not enabled"

    if qid == UNIVERSAL and vdoc["verdict"] == CEX:
        if _group_authorized(sys, app, group):
            return "group is authorized for the app"
        if out.system != state_from_doc(vdoc["next"]):
            return "step does not reach the emitted next state"
        return None
    if qid == EXISTENTIAL and vdoc["verdict"] == WITNESS:
        images = [v for k, v in sys.state.perms if k == app]
        if len(images) != 1 or any(q.group == group for q in images[0]):
            return "app holds a permission of the group"
        if not valid_state(sys, tuple(clauses_by_id.values())):
            return "state is not valid"
        return None
    return f"unexpected {vdoc['verdict']} for {qid}"


def check_report(doc: dict, suite, workload) -> list[str]:
    """One message per query that fails the gate; empty when all pass."""
    if set(doc) != REPORT_KEYS:
        return [f"report keys {sorted(doc)}"]
    clauses_by_id = {c.id: c for c in standard_clauses()}
    failures = []
    seen = set()
    for v in doc["verdicts"]:
        qid, kind = v["query"], v["verdict"]
        seen.add(qid)
        want = suite.expected.get(qid)
        if kind != want:
            failures.append(f"{qid}: {kind}, expected {want}")
        elif kind in CONCLUSIVE_CLEAN:
            if (v["statesExamined"] != workload.holds_states()
                    or v["exhaustive"] != workload.exhaustive):
                failures.append(f"{qid}: examined {v['statesExamined']} states, "
                                f"exhaustive={v['exhaustive']}")
        else:
            try:
                why = reevaluate(v, suite.steps, clauses_by_id)
            except (KeyError, ValueError) as e:
                why = f"unreadable: {e!r}"
            if why is not None:
                failures.append(f"{qid}: {kind} fails re-evaluation: {why}")
    failures += [f"{qid}: missing" for qid in suite.expected if qid not in seen]
    return failures

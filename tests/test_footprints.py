"""Declared reads, and the enumeration of each footprint's representatives.

Every registry callable declares the components it reads.  An enumerated
pass reads, for each footprint (what a query and its operation read),
only the lowest-rank state of each projection on it, and of those only
the ones at which the operation has a candidate action.  These tests
check the declarations by poisoning every other component, check that
reading only the representatives leaves every verdict byte-identical, and
check that a run reads them where it should and nowhere else.
"""

import collections
import dataclasses
import json
from itertools import islice

import pytest

import permcheck.operations as operations
import permcheck.verifier as verifier
from permcheck.invariants import standard_clauses
from permcheck.model import (COMPONENTS, ENV_FIELDS, STATE_FIELDS, Environment, State,
                             System, get_component, reading)
from permcheck.operations import default_operations, grant_auto_operation
from permcheck.statespace import Bounds, SystemSpace, state_stream
from permcheck.verifier import (gen_invariance_queries,
                                gen_security_queries, run_suite, verdict_to_doc)
from conftest import sp_variants
from test_verifier import keep_stale, stale_perms_from

TINY = Bounds(1, 1, 1, 1, budget=98_304)  # exactly the whole space
SLICE = ("allMapsCorrect.perms", "notDupPerm.3")  # perfbench's exhaustive slice


class PoisonRead(Exception):
    pass


class Poison:
    """A component value that raises on any use."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<poison {self.name}>"

    def _use(self, *args, **kwargs):
        raise PoisonRead(self.name)

    __iter__ = __len__ = __bool__ = __contains__ = __hash__ = _use
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _use
    __or__ = __ror__ = __and__ = __rand__ = __sub__ = __rsub__ = __getitem__ = _use


POISON = {n: Poison(n) for n in COMPONENTS}


def poisoned(sys, reads):
    """``sys`` with every component outside ``reads`` replaced by a poison."""
    value = {n: get_component(sys, n) if n in reads else POISON[n] for n in COMPONENTS}
    return System(State(*(value[n] for n in STATE_FIELDS)),
                  Environment(*(value[n] for n in ENV_FIELDS)))


def slice_clauses():
    by_id = {c.id: c for c in standard_clauses()}
    return tuple(by_id[c] for c in SLICE)


def sections(report):
    return json.dumps([verdict_to_doc(v) for v in report.verdicts], indent=2)


# -- the declarations -----------------------------------------------------------

def check_reads(ops, queries, states):
    """Each callable, given ``sys`` with the components outside its reads
    poisoned, gives what it gives on ``sys``: the same candidates, the same
    guard result, a successor equal on what the operation reads or writes
    and the poison itself elsewhere, and the same hypothesis, filter and
    conclusion.  Returns how many enabled steps were checked."""
    by_op = collections.defaultdict(list)
    for q in queries:
        by_op[q.op].append(q)
    assert set(by_op) <= set(ops.values())
    hypotheses = {q.hypothesis for q in queries}
    steps = 0
    for sys in states:
        poisoned_for = {}

        def cut(fn):
            reads = frozenset(fn.reads)
            if reads not in poisoned_for:
                poisoned_for[reads] = poisoned(sys, reads)
            return poisoned_for[reads]

        for h in hypotheses:
            assert h(cut(h)) == h(sys)
        for op in ops.values():
            actions = op.candidates(sys)
            assert op.candidates(cut(op.candidates)) == actions, op.id
            for action in actions:
                for q in by_op[op]:
                    assert q.covers(cut(q.covers), action) == q.covers(sys, action), q.id
                for sp in sp_variants(action):
                    out = op.apply(sp, sys, action)
                    cut_out = op.apply(sp, cut(op.apply), action)
                    assert (cut_out.ok, cut_out.failed_conjunct) == \
                        (out.ok, out.failed_conjunct), (op.id, action)
                    if not out.ok:
                        continue
                    steps += 1
                    nxt, cut_nxt = out.system, cut_out.system
                    for n in COMPONENTS:
                        value = get_component(cut_nxt, n)
                        if n in op.apply.reads or get_component(nxt, n) is not \
                                get_component(sys, n):
                            assert value == get_component(nxt, n), (op.id, n)
                        else:
                            assert value is POISON[n], (op.id, n)
                    for q in by_op[op]:
                        c = q.concludes
                        assert c(cut(c), poisoned(nxt, c.reads)) == c(sys, nxt), q.id
                    break
    return steps


def suite_queries(ops):
    return gen_invariance_queries(ops) + gen_security_queries(ops)


@pytest.mark.parametrize("source", ["rank-order-1111", "samples-2222"])
def test_declared_reads_cover_what_each_callable_reads(source):
    # the rank-order states are the first 24 States of (1,1,1,1), each with
    # all 1,024 environments: every value of every component an operation
    # or a query reads, in every combination with the environment
    if source == "rank-order-1111":
        states = islice(SystemSpace(Bounds(1, 1, 1, 1)), 24 * 1024)
    else:
        b = Bounds(2, 2, 2, 2, budget=1000, seed=0)
        states = state_stream(SystemSpace(b))
    ops = default_operations()
    queries = suite_queries(ops)
    for fn in [f for op in ops.values() for f in (op.apply, op.candidates)] + [
            f for q in queries for f in (q.hypothesis, q.covers, q.concludes)]:
        assert fn.reads is not None and set(fn.reads) <= set(COMPONENTS)
    assert check_reads(ops, queries, states) > 1000


def test_poisoned_component_raises():
    sys = next(islice(SystemSpace(Bounds(1, 1, 1, 1)), 5000, None))
    ops = default_operations()
    cut = poisoned(sys, ())
    with pytest.raises(PoisonRead):
        ops["revoke"].candidates(cut)
    with pytest.raises(PoisonRead):
        standard_clauses()[0].eval(cut)


# -- exactness -----------------------------------------------------------------

def bare(fn, wrapped):
    """A wrapper of ``fn`` that declares no reads, one per callable."""
    if fn not in wrapped:
        wrapped[fn] = lambda *args: fn(*args)
    return wrapped[fn]


def without_reads(monkeypatch):
    """Make every query that the suites generate, and its operation, carry
    callables that declare no reads, so that every query reads the whole
    space in rank order."""
    wrapped = {}

    def bare_op(op):
        if op not in wrapped:
            wrapped[op] = dataclasses.replace(op, apply=bare(op.apply, wrapped),
                                              candidates=bare(op.candidates, wrapped))
        return wrapped[op]

    def bare_queries(real):
        def generate(*args):
            return [dataclasses.replace(
                q, op=bare_op(q.op), hypothesis=bare(q.hypothesis, wrapped),
                covers=bare(q.covers, wrapped), concludes=bare(q.concludes, wrapped))
                for q in real(*args)]
        return generate

    for name in ("gen_invariance_queries", "gen_security_queries"):
        monkeypatch.setattr(verifier, name, bare_queries(getattr(verifier, name)))


def perfbench_mutants():
    """The three mutants of perfbench's mutants workload in one registry,
    rebuilt so that each declares what it reads: grantAuto without its
    group conjunct, revoke keeping the app's old granted set, and
    revokeGroup keeping the app's old group set.  Each breaks queries of
    its own operation only, so each gets the verdicts it gets alone."""
    ops = default_operations()
    ops["grantAuto"] = grant_auto_operation(skip=(5,))
    for op_id, component in (("revoke", "perms"), ("revokeGroup", "grantedPermGroups")):
        ops[op_id] = dataclasses.replace(
            ops[op_id], apply=keep_stale(component, ops[op_id].apply))
    return ops


EXACT_CASES = {
    "all": (default_operations, None),
    "slice": (default_operations, slice_clauses),
    "perfbench-mutants": (perfbench_mutants, None),
}


@pytest.mark.parametrize("case", EXACT_CASES)
def test_representatives_leave_every_verdict_section_unchanged(monkeypatch, case):
    operations_, clauses = EXACT_CASES[case]
    representatives = run_suite("all", TINY, operations_(), clauses and clauses())
    with monkeypatch.context() as m:
        without_reads(m)
        searched = run_suite("all", TINY, operations_(), clauses and clauses())
    assert sections(representatives) == sections(searched)
    hits = {v.query_id for v in representatives.verdicts if v.system is not None}
    assert "sec/execAutoGrantWithoutIndividualPerms" in hits
    if case == "perfbench-mutants":
        assert {"sec/cannotAutoGrantWithoutGroup", "inv/allMapsCorrect.perms/revoke",
                "inv/allMapsCorrect.grantedPermGroups/revokeGroup"} < hits


def test_an_apply_reading_undeclared_components_is_never_skipped(monkeypatch):
    # stale_perms_from's apply reads the whole state.  It breaks the perms
    # map only from states with installed and verified apps, the last
    # quarter of rank order, which no representative of a declared
    # footprint is: none reads apps or alreadyVerified
    space = list(SystemSpace(TINY))
    late = {s for s in space if s.state.apps and s.state.alreadyVerified}

    def stale_ops(declared):
        ops = default_operations()
        for k, op in ops.items():
            apply = stale_perms_from(late, op.apply)
            ops[k] = dataclasses.replace(
                op, apply=reading(op.apply.reads, apply) if declared else apply)
        return ops

    clauses = slice_clauses()[:1]  # allMapsCorrect.perms
    replaced = run_suite("invariance", TINY, stale_ops(False), clauses)
    with monkeypatch.context() as m:
        without_reads(m)
        searched = run_suite("invariance", TINY, stale_ops(False), clauses)
    assert sections(replaced) == sections(searched)
    hits = [v for v in replaced.verdicts if v.kind == "counterexample"]
    assert hits and all(v.system in late for v in hits)
    assert all(v.states_examined == space.index(v.system) + 1 for v in hits)
    # the same mutant declaring the reads of the apply it replaced reads no
    # late state: the declaration is what the representatives trust
    wrongly_declared = run_suite("invariance", TINY, stale_ops(True), clauses)
    assert not any(v.kind == "counterexample" for v in wrongly_declared.verdicts)


# -- the representatives -------------------------------------------------------

def grant_auto_guarded_states(monkeypatch, row):
    """The states grantAuto's guard ran for in one row of the exhaustive
    slice, once each, in order; the replay of a hit is not counted."""
    guard, *rest = operations._OPERATIONS["grantAuto"]
    guarded, rechecking = {}, [False]

    def counting_guard(sp, sys, action):
        if not rechecking[0]:
            guarded[id(sys)] = sys
        return guard(sp, sys, action)

    def marking_recheck(v, real=verifier.recheck):
        rechecking[0] = True
        try:
            return real(v)
        finally:
            rechecking[0] = False

    with monkeypatch.context() as m:
        m.setitem(operations._OPERATIONS, "grantAuto", (counting_guard, *rest))
        m.setattr(verifier, "recheck", marking_recheck)
        report = run_suite(row, TINY, None, slice_clauses())
    assert all(v.kind in ("holds-at-bounds", "witness") for v in report.verdicts)
    return list(guarded.values())


@pytest.mark.parametrize("row", ["invariance", "security"])
def test_grant_auto_runs_once_per_new_projection_on_the_slice(monkeypatch, row):
    # the footprint of every grantAuto query in both rows: what the
    # operation reads and the slice's clauses; the security filters read
    # nothing else.  It has 3 x 8 x 8 x 8 x 8 = 12,288 values among the
    # 98,304 states.  The pass is gated on the manifest, 2 of whose 8
    # values list a dangerous permission, so it reads 3,072
    # representatives, whose other components take their rank-0 values
    reads = operations._OPERATIONS["grantAuto"][2]
    footprint = sorted(set(reads) | {"perms", "defPerms", "systemImage"})
    unread = ("apps", "alreadyVerified", "cert")
    assert not set(footprint) & set(unread)
    lowest = SystemSpace(TINY).unrank(0)
    states = grant_auto_guarded_states(monkeypatch, row)
    projections = {tuple(get_component(s, n) for n in footprint) for s in states}
    assert 1000 < len(projections) == len(states) <= 3_072
    for s in states:
        assert all(get_component(s, n) == get_component(lowest, n) for n in unread)


def test_a_sampled_run_reads_no_representatives(monkeypatch):
    # a sampled run reads its families and samples, never representatives
    def no_representatives(self, footprint, gate=None):
        raise AssertionError("representatives read by a sampled run")

    monkeypatch.setattr(SystemSpace, "representatives", no_representatives)
    report = run_suite("all", Bounds(2, 2, 2, 2, budget=1000))
    assert {v.kind for v in report.verdicts} == {"holds-at-bounds", "witness"}

"""Declared reads, and the enumeration of each footprint's representatives.

Every registry callable declares the components it reads.  An enumerated
pass reads, for each footprint (what a query and its operation read),
only the lowest-rank state of each projection on it, and of those only
the ones at which the operation has a candidate action.  These tests
check the declarations by poisoning every other component, check that
an ``apply`` that declares no reads is never skipped, check that a run
reads the representatives where it should and nowhere else, and check
that a factored pass runs each staged part once per State or Environment
and finds the first step from each component value that a pass taking one
step at a time finds.
"""

import collections
import dataclasses
import json
from functools import partial
from itertools import islice

import pytest

import permcheck.operations as operations
import permcheck.verifier as verifier
from permcheck.invariants import standard_clauses
from permcheck.kernel import EMPTY
from permcheck.model import (COMPONENTS, ENV_FIELDS, STATE_FIELDS, Environment, State,
                             System, get_component, reading)
from permcheck.operations import default_operations
from permcheck.statespace import Bounds, SystemSpace, state_stream
from permcheck.verifier import (check_query, gen_invariance_queries,
                                gen_security_queries, run_suite, verdict_to_doc)
from conftest import slice_clauses, sp_variants
from mutants import FAULTS, bare_registry, per_step, registry, stale_perms_from

TINY = Bounds(1, 1, 1, 1, budget=98_304)  # exactly the whole space


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
                env_part, state_part = op.apply.staged
                if env_part is not None:
                    assert env_part(cut(env_part), action) == env_part(sys, action)
                nxt, cut_nxt = state_part(sys, action), state_part(cut(state_part), action)
                assert (cut_nxt is None) == (nxt is None), (op.id, action)
                if nxt is not None:
                    assert all(getattr(cut_nxt, n) == getattr(nxt, n)
                               for n in state_part.reads), (op.id, action)
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
    for fn in [f for op in ops.values()
               for f in (op.apply, op.candidates, *op.apply.staged) if f is not None] + [
            f for q in queries for f in (q.hypothesis, q.covers, q.concludes)]:
        assert fn.reads is not None and set(fn.reads) <= set(COMPONENTS)
    for op in ops.values():
        env_part, state_part = op.apply.staged
        assert set(state_part.reads) <= set(STATE_FIELDS)
        assert env_part is None or set(env_part.reads) <= set(ENV_FIELDS)
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

def test_an_apply_reading_undeclared_components_is_never_skipped():
    # stale_perms_from's apply reads the whole state.  It breaks the perms
    # map only from states with installed and verified apps, the last
    # quarter of rank order, which no representative of a declared
    # footprint is: none reads apps or alreadyVerified
    space = list(SystemSpace(TINY))
    late = {s for s in space if s.state.apps and s.state.alreadyVerified}
    clauses = slice_clauses()[:1]  # allMapsCorrect.perms
    replaced = run_suite("invariance", TINY, stale_perms_from(late), clauses)
    searched = run_suite("invariance", TINY, bare_registry(stale_perms_from(late)), clauses)
    assert sections(replaced) == sections(searched)
    hits = [v for v in replaced.verdicts if v.kind == "counterexample"]
    assert hits and all(v.system in late for v in hits)
    assert all(v.states_examined == space.index(v.system) + 1 for v in hits)
    # the same mutant declaring the reads of the apply it replaced reads no
    # late state: the declaration is what the representatives trust
    wrongly_declared = run_suite("invariance", TINY, stale_perms_from(late, True), clauses)
    assert not any(v.kind == "counterexample" for v in wrongly_declared.verdicts)


# -- the representatives -------------------------------------------------------

def grant_auto_staged_calls(monkeypatch, row):
    """The (Environment, action) pairs grantAuto's Environment part ran for
    and the (State, action) pairs its State guard ran for in one row of the
    exhaustive slice, in order, and how often its whole guard ran."""
    guard, effect, reads, read, actions, env_part, state_guard = \
        operations._OPERATIONS["grantAuto"]
    env_calls, state_calls, guard_calls = [], [], []

    def counting_env(sys, action):
        env_calls.append((sys.environment, action))
        return env_part(sys, action)

    def counting_state(sp, sys, action):
        state_calls.append((sys.state, action))
        return state_guard(sp, sys, action)

    def counting_guard(sp, sys, action):
        guard_calls.append(action)
        return guard(sp, sys, action)

    with monkeypatch.context() as m:
        m.setitem(operations._OPERATIONS, "grantAuto",
                  (counting_guard, effect, reads, read, actions, counting_env, counting_state))
        report = run_suite(row, TINY, None, slice_clauses())
    assert all(v.kind in ("holds-at-bounds", "witness") for v in report.verdicts)
    hits = [v for v in report.verdicts if v.action is not None]
    return env_calls, state_calls, len(guard_calls), hits


@pytest.mark.parametrize("row", ["invariance", "security"])
def test_grant_auto_runs_each_part_once_per_state_or_environment(monkeypatch, row):
    # the footprint of every grantAuto query in both rows is what the
    # operation reads: the slice's clauses and the security filters read
    # nothing else.  Gated on the 2 of 8 manifests that list a dangerous
    # permission, each with one candidate action, its pass is 3 x 8 = 24
    # States (grantedPermGroups x perms) by 2 x 8 x 8 = 128 Environments
    # (manifest x defPerms x systemImage), 3,072 representatives
    env_calls, state_calls, guard_calls, hits = grant_auto_staged_calls(monkeypatch, row)
    lowest = SystemSpace(TINY).unrank(0)
    envs = {id(env): env for env, _ in env_calls}
    assert len(envs) == len(env_calls) == 128
    assert all(env.cert == lowest.environment.cert for env in envs.values())
    actions = {action for _, action in env_calls}
    assert len(actions) == 2
    # the State part runs at most once per (State, action), and in the
    # invariance row, whose queries cover every action, exactly once
    pairs = {(id(st), action) for st, action in state_calls}
    assert len(pairs) == len(state_calls) <= 24 * 2
    assert {action for _, action in state_calls} <= actions
    assert len({id(st) for st, _ in state_calls}) <= 24
    # what no query of the pass reads takes its rank-0 value
    assert all((st.apps, st.alreadyVerified) == (lowest.state.apps,
                                                 lowest.state.alreadyVerified)
               for st, _ in state_calls)
    if row == "invariance":
        assert len(state_calls) == 24 * 2
    # the whole guard runs only to recheck a hit of grantAuto
    assert guard_calls == sum(v.action.op == "grantAuto" for v in hits)
    assert (row == "security") == bool(guard_calls)


def pass_sizes(monkeypatch, row, bounds):
    """The number of representatives of each pass of ``row`` at
    ``bounds``: its States times its Environments."""
    sizes, real = [], SystemSpace.factors

    def counting(self, footprint, gate=None):
        states, envs = real(self, footprint, gate)
        states = list(states)
        sizes.append(len(states) * len(envs))
        return iter(states), envs

    with monkeypatch.context() as m:
        m.setattr(SystemSpace, "factors", counting)
        run_suite(row, bounds)
    return sizes


@pytest.mark.parametrize("bounds, invariance, security", [
    (TINY, 10_226, [3_072, 6_144]),
    (Bounds(2, 1, 1, 1, budget=6_834_375), 279_894, [67_500, 202_500])],
    ids=["1111", "2111"])
def test_each_pass_reads_its_gated_representatives(monkeypatch, bounds, invariance,
                                                   security):
    # 15 passes of the invariance row, one per footprint and gate; the
    # largest without cert is grantAuto's and grant's, 3,072 at (1,1,1,1).
    # The security row's two passes: the universal property's, which
    # reads what grantAuto reads, and the existential's, which reads cert
    sizes = pass_sizes(monkeypatch, "invariance", bounds)
    assert len(sizes) == 15 and sum(sizes) == invariance
    assert sizes[0] == security[0] and max(sizes) == security[1]
    assert pass_sizes(monkeypatch, "security", bounds) == security


def probes(op):
    """One query of ``op`` per value at TINY of each component ``op``
    reads: its hypothesis holds where the component takes that value, it
    covers every action, and every step is a hit.  So its verdict is the
    first enabled step in rank order from a state with that value: the
    state, the system-permission set, the action and the successor."""
    out = []
    for name, values in SystemSpace(TINY).components:
        if name not in op.apply.reads:
            continue
        for d in range(values.size):
            at = reading((name,), lambda sys, name=name, v=values.unrank(d):
                         get_component(sys, name) == v)
            out.append(verifier.Query(f"probe/{op.id}/{name}/{d}", "invariance", op,
                                      "probe", op.id, at, verifier._always,
                                      verifier._always))
    return out


PROBED = {"registry": default_operations,
          **{f"grantAuto-skip{c}": lambda c=c: {"grantAuto": FAULTS[f"grantAuto-skip{c}"].entry()}
             for c in (2, 3, 5)}}


@pytest.mark.parametrize("case", PROBED)
def test_a_factored_pass_finds_the_first_step_from_every_component_value(case):
    # the same probes through the registry's staged split and through an
    # ``apply`` that runs per step.  A memo of the factored pass keyed on
    # too few components (an Environment's actions reused across a changed
    # defPerms, a State's steps across a changed grantedPermGroups) moves
    # the first step from some value: its variant, its action or whether
    # there is one
    ops = PROBED[case]()
    staged = [q for op in ops.values() for q in probes(op)]
    twins = [dataclasses.replace(q, op=per_step(
        q.op, reading(q.op.apply.reads, partial(q.op.apply)))) for q in staged]
    assert verifier._staged_plan(staged) is not None
    assert verifier._staged_plan(twins) is None
    got = check_query(staged, SystemSpace(TINY))
    assert [verdict_to_doc(v) for v in got] == [
        verdict_to_doc(v) for v in check_query(twins, SystemSpace(TINY))]
    hits = [v for v in got if v.kind == "counterexample"]
    assert len(hits) > len(got) // 2
    if case != "grantAuto-skip2":
        # both variants: a hit of each kind checks the Environment records
        variants = {v.system_perms for v in hits if v.query.op.id == "grantAuto"}
        assert EMPTY in variants and len(variants) > 1


@pytest.mark.parametrize("clauses", [standard_clauses, slice_clauses],
                         ids=["standard", "exhaustive-1111"])
def test_no_shipped_callable_is_per_step(clauses):
    # every hypothesis conjunct, filter and conclusion of a shipped query
    # runs once per State or once per Environment, so every pass of an
    # enumerated run is factored, on the registry and on every catalogue
    # fault: a fault keeps its row's staged split
    for ops in [None] + [registry(name) for name in FAULTS]:
        for queries in (gen_invariance_queries(ops, clauses()),
                        gen_security_queries(ops, clauses())):
            callables = [(fn, 1) for q in queries
                         for fn in (q.hypothesis, q.covers, q.concludes)]
            assert verifier._by_level(callables)[None] == ()
            for group in verifier._passes(queries).values():
                assert verifier._staged_plan(group) is not None


@pytest.mark.parametrize("clauses", [standard_clauses, slice_clauses],
                         ids=["standard", "exhaustive-1111"])
def test_the_existential_hypothesis_is_its_conjuncts(clauses):
    # a factored pass runs the conjuncts in place of the conjunction, and
    # recheck runs the conjunction: both must agree on every state.  A
    # conjunct left out, such as notDupPerm.3, moves no verdict at the CI
    # bounds (at (1,1,1,1) the first step it alone blocks comes after the
    # witness), so it is caught here
    hypothesis = gen_security_queries(None, clauses())[1].hypothesis
    parts = hypothesis.conjuncts
    assert set(hypothesis.reads) == {n for fn in parts for n in fn.reads}
    seen = collections.Counter()
    for sys in islice(SystemSpace(TINY), 0, None, 37):
        held = hypothesis(sys)
        assert held == all(fn(sys) for fn in parts)
        seen[held, sum(not fn(sys) for fn in parts)] += 1
    assert seen[False, 1] > 10 and seen[True, 0] > 10, seen


def test_a_sampled_run_reads_no_representatives(monkeypatch):
    # a sampled run reads its families and samples, never representatives
    def no_representatives(self, footprint, gate=None):
        raise AssertionError("representatives read by a sampled run")

    monkeypatch.setattr(SystemSpace, "representatives", no_representatives)
    report = run_suite("all", Bounds(2, 2, 2, 2, budget=1000))
    assert {v.kind for v in report.verdicts} == {"holds-at-bounds", "witness"}

import collections
import dataclasses
import functools
import hashlib
import json
from functools import partial
from itertools import islice

import pytest

import permcheck.invariants as invariants
import permcheck.verifier as verifier
from permcheck.invariants import standard_clauses, valid_state
from permcheck.kernel import EMPTY, foplus
from permcheck.model import DANGEROUS, ENV_FIELDS, Perm, reading, with_component
from permcheck.operations import Action, Outcome, default_operations, pre_grant_auto, step
from permcheck.statespace import Bounds, SystemSpace, state_stream, targeted_states
from permcheck.verifier import (
    VerifierError,
    check_query,
    gen_invariance_queries,
    gen_security_queries,
    recheck,
    run_suite,
    verdict_to_doc,
)
from conftest import slice_clauses
from mutants import (FAULTS, bare_registry, per_step, registry, stale_perms_from,
                     stale_revoke, stale_revoke_of_system_perm)

TINY = Bounds(1, 1, 1, 1)           # exhaustive at default budget (98304 states)
SAMPLED = Bounds(1, 1, 1, 1, budget=3000, seed=5)


def check_one(q, bounds):
    """The verdict of ``check_query`` on the one query ``q`` at ``bounds``."""
    (v,) = check_query([q], SystemSpace(bounds))
    return v


def revoke_query(ops):
    (q,) = [q for q in gen_invariance_queries(ops)
            if q.id == "inv/allMapsCorrect.perms/revoke"]
    return q


def revoke_probe(apply):
    """The perms query of revoke, its ``apply`` the per-step probe ``apply``."""
    ops = default_operations()
    return revoke_query({**ops, "revoke": per_step(ops["revoke"], apply)})


def all_queries(operations=None):
    return gen_invariance_queries(operations) + gen_security_queries(operations)


class TestQueryGeneration:
    def test_cross_product_of_clauses_and_mutating_ops(self):
        qs = gen_invariance_queries()
        assert len(qs) == 8 * 4
        assert qs[0].id == "inv/allMapsCorrect.manifest/grantAuto"
        assert all(q.id.startswith("inv/") for q in qs)
        assert {q.op.id for q in qs} == {"grantAuto", "grant", "revoke",
                                         "revokeGroup"}

    def test_empty_registry_gives_no_queries(self):
        assert gen_invariance_queries(operations={}) == []

    def test_security_queries(self):
        qs = gen_security_queries()
        assert [q.id for q in qs] == ["sec/cannotAutoGrantWithoutGroup",
                                      "sec/execAutoGrantWithoutIndividualPerms"]
        assert [q.kind for q in qs] == ["universal", "existential"]


class TestUniversalProperty:
    def test_holds_exhaustively_at_tiny_bounds(self):
        q = gen_security_queries()[0]
        v = check_one(q, TINY)
        assert v.kind == "holds-at-bounds"
        assert v.exhaustive
        assert v.states_examined == SystemSpace(TINY).size

    def test_mutant_yields_counterexample(self):
        q = gen_security_queries(operations=registry("grantAuto-skip5"))[0]
        v = check_one(q, Bounds(2, 2, 2, 2, budget=10_000))
        assert v.kind == "counterexample"
        assert recheck(v)
        # the state indeed lacks the group authorization
        b = v.bindings
        assert not any(k == b["app"] and b["group"] in gs
                       for k, gs in v.system.state.grantedPermGroups)

    def test_tampered_counterexample_fails_recheck(self):
        q = gen_security_queries(operations=registry("grantAuto-skip5"))[0]
        v = check_one(q, Bounds(2, 2, 2, 2, budget=10_000))
        mg = v.system.state.grantedPermGroups
        authorized = foplus(mg, v.bindings["app"],
                            frozenset((v.bindings["group"],)))
        tampered_state = dataclasses.replace(v.system.state,
                                             grantedPermGroups=authorized)
        tampered = dataclasses.replace(
            v, system=dataclasses.replace(v.system, state=tampered_state))
        assert not recheck(tampered)


class TestInvarianceCounterexample:
    def test_stale_revoke_breaks_perms_map(self):
        v = check_one(revoke_query(registry("revoke-stale-perms")), SAMPLED)
        assert v.kind == "counterexample" and v.bindings is None
        assert recheck(v)

    @pytest.mark.parametrize("tamper", ["hypothesis", "next"])
    def test_tampered_counterexample_fails_recheck(self, tamper):
        v = check_one(revoke_query(registry("revoke-stale-perms")), SAMPLED)
        if tamper == "hypothesis":
            # a second perms pair for the app: the clause fails before the step
            extra = (v.action.app, frozenset())
            perms = v.system.state.perms | {extra}
            v = dataclasses.replace(
                v, system=with_component(v.system, "perms", perms))
        else:
            # the successor of the correct revoke, which keeps the clause
            honest = default_operations()["revoke"].apply(
                v.system_perms, v.system, v.action)
            v = dataclasses.replace(v, next_system=honest.system)
        assert not recheck(v)


class TestSystemPermVariants:
    def test_step_enabled_only_by_a_system_permission_is_searched(self):
        v = check_one(revoke_probe(stale_revoke_of_system_perm), SAMPLED)
        assert v.query_id == "inv/allMapsCorrect.perms/revoke"
        assert v.kind == "counterexample"
        assert v.system_perms == frozenset((v.action.perm,))
        assert recheck(v)


class TestExistentialProperty:
    def test_witness_at_tiny_bounds(self):
        q = gen_security_queries()[1]
        v = check_one(q, TINY)
        assert v.kind == "witness"
        assert recheck(v)
        p, a, g = v.bindings["perm"], v.bindings["app"], v.bindings["group"]
        assert valid_state(v.system)
        assert any(k == a and g in gs
                   for k, gs in v.system.state.grantedPermGroups)
        (image,) = [img for k, img in v.system.state.perms if k == a]
        assert not any(q2.group == g for q2 in image)
        assert p.level == DANGEROUS and p.group == g
        assert pre_grant_auto(v.system_perms, v.system,
                              Action("grantAuto", perm=p, app=a)) is None

    @pytest.mark.parametrize("tamper", ["authorize-nothing", "hold-group-perm"])
    def test_tampered_witness_fails_recheck(self, tamper):
        v = check_one(gen_security_queries()[1], TINY)
        st, a, g = v.system.state, v.bindings["app"], v.bindings["group"]
        if tamper == "authorize-nothing":
            st = dataclasses.replace(st, grantedPermGroups=EMPTY)
        else:
            held = Perm("held", g, "normal")
            (image,) = [img for k, img in st.perms if k == a]
            st = dataclasses.replace(st, perms=foplus(st.perms, a, image | {held}))
        tampered = dataclasses.replace(
            v, system=dataclasses.replace(v.system, state=st))
        assert not recheck(tampered)

    def test_bindings_disagreeing_with_action_fail_recheck(self):
        v = check_one(gen_security_queries()[1], TINY)
        assert recheck(v)
        tampered = dataclasses.replace(v, bindings={**v.bindings, "app": "other"})
        assert not recheck(tampered)

    def test_no_witness_at_max_card_zero(self):
        q = gen_security_queries()[1]
        v = check_one(q, Bounds(1, 1, 1, 0))
        assert v.kind == "no-witness-at-bounds"
        assert v.exhaustive and v.states_examined == 1


class TestBudget:
    def test_budget_smaller_than_targeted_family_is_inconclusive(self):
        q = gen_invariance_queries()[0]
        v = check_one(q, Bounds(1, 1, 1, 1, budget=1))
        assert v.kind == "budget-exhausted"
        assert v.states_examined == 1

    def test_exhaustive_fit_is_conclusive_even_at_budget_one(self):
        q = gen_invariance_queries()[0]
        v = check_one(q, Bounds(1, 1, 1, 0, budget=1))
        assert v.kind == "holds-at-bounds" and v.exhaustive

    def test_sampled_run_examines_exactly_the_budget(self):
        q = gen_invariance_queries()[0]
        v = check_one(q, SAMPLED)
        assert v.kind == "holds-at-bounds"
        assert not v.exhaustive
        assert v.states_examined == 3000

    def test_holds_is_monotone_safe_under_sampling(self):
        # exhaustively true at these bounds, so any sampled subset also holds
        q = gen_security_queries()[0]
        v = check_one(q, Bounds(1, 1, 1, 1, budget=2500, seed=11))
        assert v.kind == "holds-at-bounds"


def recording(q, seen):
    """q with a hypothesis that appends each state to ``seen[q.id]`` and
    never holds, so no step is tried and q reads its whole stream."""
    return dataclasses.replace(
        q, hypothesis=lambda sys: seen.setdefault(q.id, []).append(sys))


def assert_family_then_samples(seen, bounds):
    samples = list(state_stream(SystemSpace(bounds)))
    for q in all_queries():
        family = list(targeted_states(bounds, q.tag))[:bounds.budget]
        assert seen[q.id] == family + samples[:bounds.budget - len(family)]


# at budget 90 grant's family does not fit, and its queries read no sample
STREAM_BOUNDS = [Bounds(2, 2, 2, 2, budget=200, seed=3), SAMPLED,
                 Bounds(2, 2, 2, 2, budget=90, seed=0)]


class TestSharedStream:
    @pytest.mark.parametrize("bounds", STREAM_BOUNDS)
    def test_queries_examine_their_family_then_the_enumerated_states(
            self, bounds):
        seen = {}
        for q in all_queries():
            check_one(recording(q, seen), bounds)
        assert_family_then_samples(seen, bounds)

    @pytest.mark.parametrize("bounds", STREAM_BOUNDS)
    def test_queries_in_a_suite_examine_their_family_then_the_enumerated_states(
            self, monkeypatch, bounds):
        seen = {}
        for name in ("gen_invariance_queries", "gen_security_queries"):
            real = getattr(verifier, name)
            monkeypatch.setattr(verifier, name, lambda *args, real=real: [
                recording(q, seen) for q in real(*args)])
        run_suite("all", bounds)
        assert_family_then_samples(seen, bounds)

    def test_queries_of_an_enumerated_suite_read_the_space_in_rank_order(
            self, monkeypatch):
        # the space fits the budget: no family is built and no sample
        # drawn, and each query reads every state once, in rank order
        def no_family(bounds, tag):
            raise AssertionError(f"family {tag} built for an enumerated run")

        def no_samples(space):
            raise AssertionError("samples drawn for an enumerated run")

        monkeypatch.setattr(verifier, "targeted_states", no_family)
        monkeypatch.setattr(verifier, "state_stream", no_samples)
        # the gated passes of the default registry read neither
        verdicts = run_suite("all", TINY).verdicts
        assert {v.kind for v in verdicts} == {"holds-at-bounds", "witness"}
        assert all(v.enumerated for v in verdicts)
        seen = {}
        real = verifier.gen_security_queries
        monkeypatch.setattr(verifier, "gen_security_queries", lambda *args: [
            recording(q, seen) for q in real(*args)])
        report = run_suite("security", TINY)
        space = list(SystemSpace(TINY))
        assert len(space) == 98_304
        assert set(seen) == {q.id for q in gen_security_queries()}
        for states in seen.values():
            assert states == space
        assert {v.states_examined for v in report.verdicts} == {98_304}
        assert all(v.exhaustive for v in report.verdicts)

    @pytest.mark.parametrize("operations", [
        default_operations, partial(registry, "grantAuto-skip5"),
        partial(registry, "revoke-stale-perms")],
        ids=["default", "grantAuto-skip-group", "revoke-stale-perms"])
    def test_query_alone_gets_its_verdict_in_the_suite(self, monkeypatch,
                                                       operations):
        # with no targeted family every hit comes from the shared samples
        monkeypatch.setattr(verifier, "targeted_states", lambda bounds, tag: ())
        bounds = Bounds(1, 1, 1, 1, budget=300, seed=0)
        ops = operations()
        in_suite = [verdict_to_doc(v)
                    for v in run_suite("all", bounds, ops).verdicts]
        alone = [verdict_to_doc(check_one(q, bounds))
                 for q in reversed(all_queries(ops))]
        assert in_suite == alone[::-1]
        assert any(v["statesExamined"] > 1 for v in in_suite
                   if v["verdict"] in ("counterexample", "witness"))

    def test_stream_mates_hit_at_their_own_states(self):
        # with targeted families: the two hitting queries read one stream
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=0)
        ops = registry("revokeGroup-stale")
        in_suite = [verdict_to_doc(v)
                    for v in run_suite("all", bounds, ops).verdicts]
        alone = [verdict_to_doc(check_one(q, bounds)) for q in all_queries(ops)]
        assert in_suite == alone
        mates = {v["query"]: v for v in in_suite
                 if v["query"].endswith("/revokeGroup")}
        groups_hit = mates.pop("inv/allMapsCorrect.grantedPermGroups/revokeGroup")
        perms_hit = mates.pop("inv/allMapsCorrect.perms/revokeGroup")
        assert {v["verdict"] for v in mates.values()} == {"holds-at-bounds"}
        family = targeted_states(bounds, "revokeGroup")
        assert perms_hit["statesExamined"] <= len(family)
        assert groups_hit["statesExamined"] > len(family)
        app = groups_hit["action"]["app"]
        (groups,) = [gs for k, gs in groups_hit["state"]["state"]["grantedPermGroups"]
                     if k == app]
        assert len(groups) > 1  # a later step of the state hits too

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hits_among_the_samples_after_families_of_each_length(self, seed):
        # no targeted state has a system image, so each operation's perms
        # query hits among the samples, after a family of its own length
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=seed)
        samples = list(state_stream(SystemSpace(bounds)))
        ops = stale_perms_from({s for s in samples if s.environment.systemImage})
        in_suite = run_suite("all", bounds, ops).verdicts
        alone = [check_one(q, bounds) for q in all_queries(ops)]
        assert ([verdict_to_doc(v) for v in in_suite]
                == [verdict_to_doc(v) for v in alone])
        offsets = set()
        for op_id in ops:
            (v,) = [v for v in in_suite
                    if v.query_id == f"inv/allMapsCorrect.perms/{op_id}"]
            family = len(targeted_states(bounds, op_id))
            assert v.kind == "counterexample"
            assert v.states_examined == family + samples.index(v.system) + 1
            offsets.add(family)
        assert len(offsets) == 4

    def test_a_hit_past_a_cut_point_is_seen_only_by_queries_reading_it(self):
        # the invariance row's quotas of samples: grant 104, grantAuto 152,
        # revoke 176, revokeGroup 184.  Steps break the perms map only from
        # samples 152 on, which only revoke and revokeGroup read
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=0)
        samples = list(state_stream(SystemSpace(bounds)))
        ops = stale_perms_from(set(samples[152:]))
        in_suite = run_suite("invariance", bounds, ops).verdicts
        alone = [check_one(q, bounds) for q in gen_invariance_queries(ops)]
        assert ([verdict_to_doc(v) for v in in_suite]
                == [verdict_to_doc(v) for v in alone])
        hits = {v.query_id.rsplit("/", 1)[1]: v for v in in_suite
                if v.kind == "counterexample"}
        assert set(hits) == {"revoke", "revokeGroup"}
        for op_id, v in hits.items():
            family = len(targeted_states(bounds, op_id))
            assert 152 <= samples.index(v.system) < bounds.budget - family
            assert v.states_examined == family + samples.index(v.system) + 1

    def test_a_family_over_the_budget_exhausts_only_its_own_queries(self):
        # grant's family of 96 states does not fit 90: its queries read no
        # sample, and every other query reads its own share of them
        bounds = Bounds(2, 2, 2, 2, budget=90, seed=0)
        assert len(targeted_states(bounds, "grant")) > 90
        in_suite = run_suite("all", bounds).verdicts
        alone = [check_one(q, bounds) for q in all_queries()]
        assert ([verdict_to_doc(v) for v in in_suite]
                == [verdict_to_doc(v) for v in alone])
        for v in in_suite:
            assert v.states_examined == 90 or v.kind == "witness"
            if v.query_id.endswith("/grant"):
                assert v.kind == "budget-exhausted"
            elif v.query_id.startswith("inv/"):
                assert v.kind == "holds-at-bounds"


# runs whose verdicts at TINY must not depend on the gated passes, as (the
# catalogue fault in place, or None, and the clauses, or None for the
# standard ones).  grantAuto-skip-group, whose counterexample is at state
# 641, comes first
SHORTCUT_CASES = {
    "grantAuto-skip-group": ("grantAuto-skip5", None),
    "standard": (None, None),
    "slice": (None, slice_clauses),
    "grantAuto-skip-level": ("grantAuto-skip4", None),
    "grantAuto-skip-defined": ("grantAuto-skip2", None),
    "revoke-stale-perms": ("revoke-stale-perms", None),
    "revokeGroup-stale": ("revokeGroup-stale", None),
}


def verdict_sections(suite, bounds, operations, clauses=None) -> str:
    """The verdict sections of a run, as the recorded digests hash them."""
    report = run_suite(suite, bounds, operations, clauses)
    return json.dumps([verdict_to_doc(v) for v in report.verdicts], indent=2)


def case_sections(case, whole_space=False) -> str:
    """The verdict sections of ``case``'s run of the suite at TINY; with
    ``whole_space``, on its registry made bare (``mutants.bare_registry``)."""
    fault, clauses = SHORTCUT_CASES[case]
    ops = default_operations() if fault is None else registry(fault)
    return verdict_sections("all", TINY, bare_registry(ops) if whole_space else ops,
                            clauses and clauses())


@functools.lru_cache(maxsize=None)
def reference_sections(case) -> str:
    return case_sections(case, whole_space=True)


class TestGatedPasses:
    @pytest.mark.parametrize("case", SHORTCUT_CASES)
    def test_the_verdicts_are_those_of_the_whole_space(self, case):
        sections = case_sections(case)
        assert sections == reference_sections(case)
        # the witness, and a counterexample of each query that kills the fault
        fault = SHORTCUT_CASES[case][0]
        hits = {v["query"] for v in json.loads(sections) if "state" in v}
        assert hits == {"sec/execAutoGrantWithoutIndividualPerms"} | (
            FAULTS[fault].kills if fault else frozenset())

    def test_a_gate_dropping_a_value_with_a_candidate_moves_a_verdict(
            self, monkeypatch):
        # the gate also drops the highest-rank value of its component at
        # which an operation of the pass has a candidate action: for
        # grantAuto, the manifest listing the grouped dangerous permission
        real = verifier._acting

        def leaky(name, ops):
            keep = real(name, ops)
            values = dict(SystemSpace(TINY).components)[name]
            dropped = [v for v in map(values.unrank, range(values.size)) if keep(v)][-1]
            return lambda value: value != dropped and keep(value)

        monkeypatch.setattr(verifier, "_acting", leaky)
        assert any(case_sections(case) != reference_sections(case)
                   for case in SHORTCUT_CASES)


class TestSharedSamples:
    def test_a_run_enumerates_candidates_once_per_state_of_each_stream(self):
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=0)
        calls = collections.Counter()

        def counting(op):
            def candidates(sys):
                calls[op.id] += 1
                return op.candidates(sys)
            return dataclasses.replace(op, candidates=candidates)

        ops = {k: counting(op) for k, op in default_operations().items()}
        run_suite("all", bounds, ops)
        # each row sweeps each of its tags' families, then the samples once:
        # as many as the query with the shortest family reads
        bound = collections.Counter()
        for queries in (gen_invariance_queries(ops), gen_security_queries(ops)):
            families = collections.defaultdict(dict)
            for q in queries:
                families[q.op.id][q.tag] = len(targeted_states(bounds, q.tag))
            for op_id, lengths in families.items():
                bound[op_id] += (sum(lengths.values())
                                 + bounds.budget - min(lengths.values()))
        assert set(calls) == set(bound)
        for op_id, n in calls.items():
            assert n <= bound[op_id], op_id

    def test_a_row_evaluates_each_clause_once_per_sample(self, monkeypatch):
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=0)
        spaces, decoded, seen = [], [], collections.defaultdict(list)

        def keeping_space(b):
            spaces.append(SystemSpace(b))
            real = spaces[-1].unrank
            spaces[-1].unrank = lambda r: decoded.append(real(r)) or decoded[-1]
            return spaces[-1]

        def recording(c):
            def eval(sys):
                seen[c.id].append(sys)
                return c.eval(sys)
            return dataclasses.replace(c, eval=eval)

        monkeypatch.setattr(verifier, "SystemSpace", keeping_space)
        clauses = standard_clauses()
        run_suite("invariance", bounds, None, [recording(c) for c in clauses])
        (space,) = spaces
        # the row decodes the samples it reads; the rest are never reached
        samples = list(decoded)
        samples += list(state_stream(space))[len(samples):]
        read = bounds.budget - min(len(targeted_states(bounds, op_id))
                                   for op_id in default_operations())
        for c in clauses:
            evals = collections.Counter(map(id, seen[c.id]))
            assert [evals[id(s)] for s in samples] == (
                [1] * read + [0] * (bounds.budget - read)), c.id

    def test_a_row_decodes_each_sample_once(self, monkeypatch):
        bounds = Bounds(2, 2, 2, 2, budget=200, seed=0)
        decoded = []

        def counting_space(b):
            space = SystemSpace(b)
            real = space.unrank
            space.unrank = lambda r: decoded.append(r) or real(r)
            return space

        monkeypatch.setattr(verifier, "SystemSpace", counting_space)
        for suite, queries in (("invariance", gen_invariance_queries()),
                               ("security", gen_security_queries())):
            decoded.clear()
            run_suite(suite, bounds)
            # a query reads the samples left over after its targeted family,
            # so a row decodes at most as many as its longest-reading query
            read = max(bounds.budget - len(targeted_states(bounds, q.tag))
                       for q in queries)
            assert 0 < len(decoded) <= read, suite

    @pytest.mark.parametrize("operations", [
        partial(registry, "grantAuto-skip5"), partial(registry, "revoke-stale-perms")],
        ids=["grantAuto-skip-group", "revoke-stale-perms"])
    def test_each_seed_reads_its_own_samples(self, monkeypatch, operations):
        monkeypatch.setattr(verifier, "targeted_states", lambda bounds, tag: ())
        queries = all_queries(operations())
        docs = {}
        for seed in (0, 1):
            bounds = Bounds(2, 2, 2, 2, budget=100, seed=seed)
            runs = [[verdict_to_doc(v)
                     for v in check_query(queries, SystemSpace(bounds))]
                    for _ in range(2)]
            assert runs[0] == runs[1]
            docs[seed] = runs[0]
        hits = [(a, b) for a, b in zip(docs[0], docs[1])
                if "state" in a or "state" in b]
        assert hits and any(a != b for a, b in hits)


def with_covers(queries, covers):
    """``queries`` with each ``covers`` replaced by ``covers()``, a fresh
    callable per query."""
    return [dataclasses.replace(q, covers=covers()) for q in queries]


def counting_registry(calls, blocked=()):
    """The registry with each ``apply`` appending (op id, state, system
    perms, action, enabled) to ``calls``; the operations in ``blocked``
    block every step.  Each declares what the apply it wraps reads."""
    def counting(op):
        def apply(sp, sys, action):
            out = (Outcome(ok=False, failed_conjunct=1) if op.id in blocked
                   else op.apply(sp, sys, action))
            calls.append((op.id, sys, sp, action, out.ok))
            return out
        return per_step(op, reading(op.apply.reads, apply))
    return {k: counting(op) for k, op in default_operations().items()}


class TestPlan:
    """The shortcuts of the search loop: no ``covers`` call for a group
    that does not filter, the second system-permission variant only when
    the empty set blocks, and no query searching past its hit."""

    @pytest.mark.parametrize("reads", [(), ("manifest",), ("manifest", "perms")],
                             ids=["no-reads", "environment", "per-step"])
    @pytest.mark.parametrize("bounds", [TINY, SAMPLED], ids=["enumerated", "sampled"])
    @pytest.mark.parametrize("operations", [
        default_operations, partial(registry, "revoke-stale-perms"),
        partial(registry, "revokeGroup-stale-groups")],
        ids=["standard", "revoke-stale-perms", "revokeGroup-stale-groups"])
    def test_always_true_filters_keep_the_verdicts(self, monkeypatch, bounds,
                                                   operations, reads):
        # each invariance query gets a filter of its own that keeps every
        # action, so its group is searched as a filtering one.  A filter
        # that reads the Environment, or both kinds of component, is not
        # factored: its passes take one step at a time
        expected = verdict_sections("all", bounds, operations())
        real = verifier.gen_invariance_queries
        monkeypatch.setattr(verifier, "gen_invariance_queries", lambda *args: with_covers(
            real(*args), lambda: reading(reads, lambda sys, action: True)))
        if reads:
            passes = verifier._passes(verifier.gen_invariance_queries(operations()))
            assert all(verifier._staged_plan(group) is None for group in passes.values())
        assert verdict_sections("all", bounds, operations()) == expected

    @pytest.mark.parametrize("bounds", [TINY, SAMPLED], ids=["enumerated", "sampled"])
    def test_a_filter_rejecting_every_action_takes_no_step(self, bounds):
        calls = []
        ops = counting_registry(calls)
        queries = with_covers(all_queries(ops),
                              lambda: reading((), lambda sys, action: False))
        verdicts = check_query(queries, SystemSpace(bounds))
        assert calls == []
        assert {v.kind for v in verdicts} == {"holds-at-bounds",
                                              "no-witness-at-bounds"}

    def test_each_covered_step_is_taken_once_per_variant_it_needs(self):
        # grant and grantAuto steps blocked without a system permission are
        # retried with the action's permission; revokeGroup actions name no
        # permission, so a blocked one is tried once
        calls = []
        ops = counting_registry(calls, blocked=("revokeGroup",))
        queries = all_queries(ops)
        states = list(islice(SystemSpace(TINY), 0, None, 97))
        states += targeted_states(TINY, "grantAuto")
        seen = collections.Counter()
        for sys in states:
            calls.clear()
            verifier._first_hits(verifier._plan(queries), sys)
            steps = collections.defaultdict(list)
            for op_id, pre, sp, action, ok in calls:
                assert pre is sys
                steps[op_id, action].append((sp, ok))
            covered = {(q.op.id, action) for q in queries if q.hypothesis(sys)
                       for action in q.op.candidates(sys) if q.covers(sys, action)}
            assert set(steps) == covered
            for (op_id, action), tried in steps.items():
                sps = [sp for sp, _ in tried]
                if tried[0][1]:
                    assert sps == [EMPTY]
                    seen["enabled"] += 1
                elif action.perm is None:
                    assert sps == [EMPTY]
                    seen["blocked, no permission"] += 1
                else:
                    assert sps == [EMPTY, frozenset((action.perm,))]
                    seen["blocked, retried"] += 1
        assert len(seen) == 3 and min(seen.values()) > 10, seen

    def test_first_hits_edits_nothing_it_is_given(self):
        # the stale revoke and the existential witness both hit in the
        # targeted families; a plan edited at a hit would find none again
        queries = all_queries(registry("revoke-stale-perms"))
        plan = verifier._plan(queries)
        states = (targeted_states(TINY, "revoke")
                  + targeted_states(TINY, "execAutoGrantWithoutIndividualPerms"))
        kinds = set()
        for sys in states:
            first = verifier._first_hits(plan, sys)
            assert verifier._first_hits(plan, sys) == first
            assert plan == verifier._plan(queries)
            kinds.update(q.kind for q, *_ in first)
        assert kinds == {"invariance", "existential"}

    def test_sweep_returns_its_verdicts_and_edits_nothing_it_is_given(self):
        queries = all_queries(registry("revoke-stale-perms"))
        given = list(queries)
        before = dict.fromkeys(queries, 0)
        states = targeted_states(TINY, "execAutoGrantWithoutIndividualPerms")
        verdicts = verifier._sweep(queries, enumerate(states, 1), before,
                                   len(states), False)
        assert {v.kind for v in verdicts.values()} == {"witness", "counterexample"}
        assert all(v.query is p for p, v in verdicts.items())
        assert queries == given and before == dict.fromkeys(queries, 0)

    def test_a_pass_reads_no_state_past_the_quotas_of_its_queries(self):
        # quotas of 10 and 4: the query with the longer quota hits at the
        # first state, and the pass stops at the end of the other's, before
        # it draws a state that no query would read
        states = (targeted_states(TINY, "revoke")
                  + tuple(islice(SystemSpace(TINY), 7)))
        seen, drawn = {}, []

        def stream():
            for i, sys in enumerate(states, 1):
                drawn.append(i)
                yield i, sys

        hitter = revoke_query(registry("revoke-stale-perms"))
        reader = recording(gen_security_queries()[0], seen)
        verdicts = verifier._sweep([hitter, reader], stream(),
                                   {hitter: 0, reader: 6}, 10, False)
        assert {p.id: v.states_examined for p, v in verdicts.items()} == {hitter.id: 1}
        assert drawn == [1, 2, 3, 4]
        assert seen[reader.id] == list(states[:4])

    @pytest.mark.parametrize("bounds", [TINY, SAMPLED], ids=["enumerated", "sampled"])
    def test_an_empty_row_gets_no_verdicts_and_reads_nothing(self, bounds):
        space = SystemSpace(bounds)
        space.unrank = lambda r: pytest.fail("decoded a state for no query")
        assert check_query([], space) == []

    @pytest.mark.parametrize("bounds", [TINY, SAMPLED], ids=["enumerated", "sampled"])
    def test_a_query_tests_no_step_after_its_hit(self, monkeypatch, bounds):
        # the stale revoke breaks the perms map on every enabled revoke of
        # a state with one perms pair, so a query kept searching past its
        # hit would hit again, at another step
        hits = collections.defaultdict(list)

        def recording_hits(q):
            def concludes(sys, nxt):
                hit = q.concludes(sys, nxt)
                if hit:
                    hits[q.id].append((sys, nxt))
                return hit
            return dataclasses.replace(q, concludes=reading(q.concludes.reads, concludes))

        real = verifier.gen_invariance_queries
        monkeypatch.setattr(verifier, "gen_invariance_queries",
                            lambda *args: [recording_hits(q) for q in real(*args)])
        report = run_suite("invariance", bounds, registry("revoke-stale-perms"))
        (v,) = report.counterexamples
        assert v.query_id == "inv/allMapsCorrect.perms/revoke"
        # the search's hit, then the recheck's replay of it
        assert hits == {v.query_id: [(v.system, v.next_system)] * 2}


class TestSuiteCalls:
    @pytest.mark.parametrize("suite, rows", [("all", [32, 2]), ("invariance", [32])])
    def test_each_row_is_one_check_query_call(self, monkeypatch, suite, rows):
        # perfbench times each row by wrapping this module attribute
        calls, real = [], verifier.check_query

        def counting(queries, *args):
            calls.append(len(queries))
            return real(queries, *args)

        monkeypatch.setattr(verifier, "check_query", counting)
        run_suite(suite, Bounds(1, 1, 1, 1, budget=50))
        assert calls == rows


def bounds_read(monkeypatch):
    """The bounds of each targeted family built and each sample stream
    drawn by the search, in the order it asks for them."""
    read = []
    real_family, real_stream = verifier.targeted_states, verifier.state_stream

    def family(bounds, tag):
        read.append(bounds)
        return real_family(bounds, tag)

    def stream(space):
        read.append(space.bounds)
        return real_stream(space)

    monkeypatch.setattr(verifier, "targeted_states", family)
    monkeypatch.setattr(verifier, "state_stream", stream)
    return read


class TestSpaceBounds:
    @pytest.mark.parametrize("field", ["apps", "perms", "grps", "max_card"])
    @pytest.mark.parametrize("step", [1, -1], ids=["larger", "smaller"])
    def test_a_space_for_other_sizes_is_searched_at_its_own(
            self, monkeypatch, field, step):
        base = Bounds(1, 1, 1, 1, budget=98_304) if step > 0 else Bounds(2, 2, 2, 2)
        other = dataclasses.replace(base, **{field: getattr(base, field) + step})
        read = bounds_read(monkeypatch)
        q = gen_security_queries()[1]
        space = SystemSpace(other)
        (v,) = check_query([q], space)
        # the base run at 1111 enumerates; every run here samples its space,
        # and its witness is the first state of that space's family
        assert (v.kind, v.states_examined, v.enumerated) == ("witness", 1, False)
        assert set(read) == {other}
        assert v.system == targeted_states(other, q.tag)[0]
        st = v.system.state
        assert st.apps <= set(space.pools.apps)
        assert all(gs <= set(space.pools.groups) for _, gs in st.grantedPermGroups)

    def test_a_2222_space_at_the_1111_budget_is_sampled(self):
        # the exhaustive witness of (1,1,1,1) is at state 18,049; the
        # (2,2,2,2) space is too large for the budget, and its family holds
        # a witness at its first state
        q = gen_security_queries()[1]
        v = check_one(q, Bounds(1, 1, 1, 1, budget=98_304))
        assert (v.kind, v.states_examined, v.enumerated) == ("witness", 18_049, True)
        v = check_one(q, Bounds(2, 2, 2, 2, budget=98_304))
        assert (v.kind, v.states_examined, v.enumerated) == ("witness", 1, False)

    def test_a_space_is_searched_at_its_own_budget_and_seed(self, monkeypatch):
        read = bounds_read(monkeypatch)
        queries = gen_security_queries()
        for bounds in (TINY, SAMPLED, Bounds(1, 1, 1, 1, budget=7, seed=9)):
            read.clear()
            space = SystemSpace(bounds)
            verdicts = check_query(queries, space)
            sampled = space.size > bounds.budget
            assert set(read) == ({bounds} if sampled else set())
            for v in verdicts:
                assert v.enumerated is not sampled
                assert v.states_examined <= min(space.size, bounds.budget)


class TestRecheck:
    def test_rejects_conclusive_verdicts(self):
        q = gen_invariance_queries()[0]
        v = check_one(q, Bounds(1, 1, 1, 0))
        with pytest.raises(ValueError):
            recheck(v)

    def test_hit_that_does_not_recheck_raises(self):
        calls = []

        def first_call_only(sp, sys, action):
            calls.append(action)
            if len(calls) == 1:
                return stale_revoke(sp, sys, action)
            return Outcome(ok=False, failed_conjunct=1)

        with pytest.raises(VerifierError):
            check_one(revoke_probe(first_call_only), SAMPLED)
        assert len(calls) == 2  # the search's step, then the recheck's replay

    def test_replay_does_not_reuse_the_searched_objects(self):
        # a revoke that is right the first time it sees a State object and
        # keeps the stale perms pair on every later call with it, as a memo
        # keyed by identity that went stale would: the replay must run on
        # copies, which it has never seen, so the hit fails to recheck
        seen = {}

        def stale_on_seen_states(sp, sys, action):
            st = sys.state
            if seen.get(id(st)) is st:
                return stale_revoke(sp, sys, action)
            seen[id(st)] = st
            return step(sp, sys, action)

        with pytest.raises(VerifierError):
            check_one(revoke_probe(stale_on_seen_states), TINY)


class TestReuse:
    def test_env_only_clauses_are_not_rerun_on_successors(self, monkeypatch):
        # every verified operation keeps the environment, so a clause that
        # reads only environment components gets its conclusion on a
        # successor from the result it gave on the pre-state
        runs, on_successor, last = collections.Counter(), [False], {}
        real_clause = invariants.clause

        def counting_clause(id, reads, body):
            def counted(*values):
                runs[id, on_successor[0]] += 1
                return body(*values)
            return real_clause(id, reads, counted)

        def tracking(op):
            def apply(sp, sys, action):
                out = op.apply(sp, sys, action)
                if out.ok:
                    last.update(pre=sys, post=out.system)
                return out
            return per_step(op, apply)

        def flagging(c):
            def eval(sys):
                on_successor[0] = (sys is last.get("post")
                                   and sys.environment is last["pre"].environment)
                try:
                    return c.eval(sys)
                finally:
                    on_successor[0] = False
            return dataclasses.replace(c, eval=eval)

        monkeypatch.setattr(invariants, "clause", counting_clause)
        clauses = standard_clauses()
        ops = {k: tracking(op) for k, op in default_operations().items()}
        run_suite("all", Bounds(2, 2, 2, 2, budget=1000),
                  ops, [flagging(c) for c in clauses])
        env_only = [c.id for c in clauses if set(c.eval.reads) <= set(ENV_FIELDS)]
        assert len(env_only) == 6
        assert [runs[cid, True] for cid in env_only] == [0] * 6
        assert all(runs[cid, False] > 0 for cid in env_only)
        # the clauses on the state's mappings do run on successors
        assert runs["allMapsCorrect.perms", True] > 1000


class TestRunSuite:
    def test_security_suite_shape(self):
        report = run_suite("security", TINY)
        assert len(report.verdicts) == 2
        (row, total) = report.rows
        assert row["name"] == "Security properties"
        assert row["lemmas"] == 2 and row["queries"] == 2
        assert row["counterexamples"] == 0
        assert total["name"] == "total"

    def test_all_suite_at_sampled_tiny_bounds(self):
        report = run_suite("all", SAMPLED)
        assert len(report.verdicts) == 34
        assert report.counterexamples == []
        names = [r["name"] for r in report.rows]
        assert names == ["Valid-state invariance lemmas", "Security properties",
                         "total"]
        assert report.rows[0]["lemmas"] == 8
        assert report.rows[0]["queries"] == 32

    def test_verdicts_are_deterministic_across_runs(self):
        a = run_suite("all", SAMPLED)
        b = run_suite("all", SAMPLED)
        va = json.dumps([verdict_to_doc(v) for v in a.verdicts])
        vb = json.dumps([verdict_to_doc(v) for v in b.verdicts])
        assert va == vb

    def test_mutant_counterexample_counted_in_rows(self):
        report = run_suite("security", Bounds(2, 2, 2, 2, budget=10_000),
                           operations=registry("grantAuto-skip5"))
        assert report.rows[0]["counterexamples"] >= 1
        assert report.counterexamples

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("everything", TINY)

    def test_report_doc_shape(self):
        report = run_suite("security", SAMPLED)
        doc = report.to_doc()
        assert set(doc) == {"suite", "bounds", "rows", "verdicts"}
        assert doc["bounds"]["maxcard"] == 1
        for v in doc["verdicts"]:
            assert v["verdict"] in ("holds-at-bounds", "counterexample", "witness",
                                    "no-witness-at-bounds", "budget-exhausted")

    def test_text_report_mentions_each_query(self):
        report = run_suite("security", SAMPLED)
        text = report.text()
        assert "Security properties" in text
        for v in report.verdicts:
            assert v.query_id in text


# SHA-256 of the verdict sections (verdict_to_doc JSON, indent=2) from a
# known-good run.  A change that keeps behaviour keeps them byte-identical;
# a change that moves a verdict must say why it updates a digest here.
RECORDED_VERDICTS = {
    "all-2222": ("all", Bounds(2, 2, 2, 2, budget=1000, seed=0), None,
                 "90234e6179c3640a32e36ae2c752a3ebc0e36471079b0f717e3e015414fd674a"),
    "security-1111": ("security", TINY, None,
                      "2773eaae977708ac20d8b6b9274461cfca0c5e6f8cbbfe88c0ecb31458a3aaed"),
    # an enumerated run with hits: a counterexample at state 641 and a
    # witness at state 1,665 of the rank order
    "grantAuto-skip-group-1111": (
        "security", TINY, partial(registry, "grantAuto-skip5"),
        "28e5dd082b948859519f31c8682196565438e42452e4b692294ef995a2947fb8"),
    # enumerated runs with invariance hits, both from gated passes: revoke's
    # mutant hits at state 2,049, revokeGroup's at state 16,385
    "revoke-stale-perms-1111": (
        "all", TINY, partial(registry, "revoke-stale-perms"),
        "6ddaab618092119ad658d93fef2826ca33ede4d1adcc4cab2ec7dc77ab059a5c"),
    "revokeGroup-stale-groups-1111": (
        "all", TINY, partial(registry, "revokeGroup-stale-groups"),
        "7aeb8415a4e95c586a1ec22524e5451a9b9a83d6ff2b44867f1e60b96d66d97a"),
    # the exhaustive frontier: all 6,834,375 states, with the witness at
    # state 317,251
    "security-2111": ("security", Bounds(2, 1, 1, 1, budget=6_834_375), None,
                      "157a253f2930784be6c2f609f5730340f3a62c90502dd24380714979b33155f4"),
    "grantAuto-skip-group": (
        "all", Bounds(2, 2, 2, 2, budget=200, seed=0), partial(registry, "grantAuto-skip5"),
        "a2fd950e01c9222db387d06f113de8c78ac42b3ae20986d291692b191ae34cf9"),
    "revoke-stale-perms": (
        "all", SAMPLED, partial(registry, "revoke-stale-perms"),
        "e7bc9d847ac7960d9b23d714c9ff2db5b99de664a3b933d50273dbb209fb449e"),
    # every query holds here, so these three share the digest of all-2222:
    # they pin that other seeds' samples give no spurious hit
    "all-2222-seed1": ("all", Bounds(2, 2, 2, 2, budget=1000, seed=1), None,
                       "90234e6179c3640a32e36ae2c752a3ebc0e36471079b0f717e3e015414fd674a"),
    "all-2222-seed2": ("all", Bounds(2, 2, 2, 2, budget=1000, seed=2), None,
                       "90234e6179c3640a32e36ae2c752a3ebc0e36471079b0f717e3e015414fd674a"),
    "all-1111-sampled": ("all", SAMPLED, None,
                         "9b06bfcd520fa94a8a0775ce0cd87754ca054b92fc19ead669291ffd9c426f24"),
    "grantAuto-skip-level": (
        "all", Bounds(2, 1, 2, 2, budget=2000, seed=3), partial(registry, "grantAuto-skip4"),
        "665a030c77fe7ac19a5336c0c4e2b285194fbd93b07891fe4e2aabe02f4a65c3"),
    "grantAuto-skip-defined": (
        "all", Bounds(2, 1, 2, 2, budget=2000, seed=3), partial(registry, "grantAuto-skip2"),
        "e816d1652c0da32cb54c1d87d21902c4a16ea8981ea0fb395044cf91c307f46f"),
}


# Runs with the targeted families left out, so that every hit comes from the
# seeded samples, at a different state for each seed: a change that read
# another seed's samples, or the same sample over and over, moves these.
RECORDED_SAMPLED_HITS = {
    "grantAuto-skip-group-nofamily-seed0": (
        Bounds(2, 2, 2, 2, budget=100, seed=0), partial(registry, "grantAuto-skip5"),
        "faf92c5190cccebb2ffb61522dd057238b01356c81ae8f4fb402de9fff5f4aef"),
    "grantAuto-skip-group-nofamily-seed1": (
        Bounds(2, 2, 2, 2, budget=100, seed=1), partial(registry, "grantAuto-skip5"),
        "2d0d32d7e8398e063fd65a9215fab9fa24c6c0d6a4d77fd46cf8eaf3bbc1f313"),
    "revoke-stale-perms-nofamily-seed0": (
        Bounds(2, 2, 2, 2, budget=100, seed=0),
        partial(registry, "revoke-stale-perms"),
        "ddcbb49d116f4ff123d23e3abbeef0435a7c527fd8ce985f00a70f5d1d974f53"),
    "revoke-stale-perms-nofamily-seed1": (
        Bounds(2, 2, 2, 2, budget=100, seed=1),
        partial(registry, "revoke-stale-perms"),
        "68f798afc62f059fc879e7b55cbcb628092d1c9c20cb674512f84b6e4ee88c20"),
}


def verdicts_digest(suite, bounds, operations) -> str:
    text = verdict_sections(suite, bounds, operations)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", RECORDED_VERDICTS)
def test_verdict_sections_match_recorded_digests(name):
    suite, bounds, operations, digest = RECORDED_VERDICTS[name]
    assert verdicts_digest(suite, bounds, operations and operations()) == digest


@pytest.mark.parametrize("name", RECORDED_SAMPLED_HITS)
def test_sampled_hit_sections_match_recorded_digests(monkeypatch, name):
    monkeypatch.setattr(verifier, "targeted_states", lambda bounds, tag: ())
    bounds, operations, digest = RECORDED_SAMPLED_HITS[name]
    assert verdicts_digest("all", bounds, operations()) == digest

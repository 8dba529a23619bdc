import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import brute
import permcheck.invariants as invariants
from conftest import NET, READ, WRITE, make_system, rank_order_states, sp_variants
from permcheck.model import Manifest, Perm, SysImgApp, System
from permcheck.invariants import (
    check_clauses,
    not_dup_perm_clauses,
    standard_clauses,
    valid_state,
)
from permcheck.operations import default_operations
from permcheck.statespace import Bounds, SystemSpace, state_stream

CLAUSES = {c.id: c for c in standard_clauses()}
SPACE = SystemSpace(Bounds(2, 2, 2, 2))


def test_registry_shape():
    ids = [c.id for c in standard_clauses()]
    assert ids == ["allMapsCorrect.manifest", "allMapsCorrect.cert",
                   "allMapsCorrect.defPerms", "allMapsCorrect.grantedPermGroups",
                   "allMapsCorrect.perms", "notDupPerm.1", "notDupPerm.2",
                   "notDupPerm.3"]


def test_a_clause_reads_what_its_eval_declares():
    c = CLAUSES["notDupPerm.3"]
    assert c.eval.reads == ("defPerms", "systemImage")


class TestMapClauses:
    def test_duplicate_key_fails(self):
        sys = make_system(mg=frozenset((("a1", frozenset(("g1",))),
                                        ("a1", frozenset(("g2",))))))
        assert not CLAUSES["allMapsCorrect.grantedPermGroups"].eval(sys)

    def test_all_empty_maps_pass(self):
        sys = System()
        assert all(CLAUSES[f"allMapsCorrect.{n}"].eval(sys)
                   for n in ("manifest", "cert", "defPerms",
                             "grantedPermGroups", "perms"))

    def test_distinct_keys_shared_image_pass(self):
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),
                                           ("a2", frozenset((READ,))))))
        assert CLAUSES["allMapsCorrect.perms"].eval(sys)


class TestNotDupPerm:
    def test_same_id_different_perm_across_apps_fails_clause_1(self):
        p1 = Perm("x", None, "normal")
        p2 = Perm("x", None, "dangerous")
        sys = make_system(def_perms=frozenset((("a1", frozenset((p1,))),
                                               ("a2", frozenset((p2,))))))
        assert not CLAUSES["notDupPerm.1"].eval(sys)

    def test_empty_sources_pass_all_three(self):
        sys = System()
        assert all(c.eval(sys) for c in not_dup_perm_clauses())

    def test_identical_perm_both_sources_passes_clause_3(self):
        sys = make_system(def_perms=frozenset((("a1", frozenset((READ,))),)),
                          system_image=frozenset((SysImgApp("a1", frozenset((READ,))),)))
        assert CLAUSES["notDupPerm.3"].eval(sys)

    def test_same_id_across_sources_fails_clause_3(self):
        other = Perm("read", "contacts", "normal")
        sys = make_system(def_perms=frozenset((("a1", frozenset((READ,))),)),
                          system_image=frozenset((SysImgApp("a2", frozenset((other,))),)))
        assert not CLAUSES["notDupPerm.3"].eval(sys)

    def test_duplicate_id_within_system_image_fails_clause_2(self):
        sys = make_system(system_image=frozenset((
            SysImgApp("a1", frozenset((READ,))),
            SysImgApp("a2", frozenset((Perm("read", None, "signature"),))))))
        assert not CLAUSES["notDupPerm.2"].eval(sys)

    def test_same_app_same_perm_twice_passes(self):
        # the same (app, perm) reachable through both quantified copies
        sys = make_system(def_perms=frozenset((("a1", frozenset((READ, NET))),)))
        assert CLAUSES["notDupPerm.1"].eval(sys)


class TestValidState:
    def test_empty_system_is_valid(self):
        assert valid_state(System())
        assert check_clauses(System()) == []

    def test_duplicate_key_perms_reports_exact_clause(self):
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),
                                           ("a1", frozenset((WRITE,))))))
        assert check_clauses(sys) == ["allMapsCorrect.perms"]
        assert not valid_state(sys)

    def test_two_violations_both_reported(self):
        p1 = Perm("x", None, "normal")
        p2 = Perm("x", None, "dangerous")
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),
                                           ("a1", frozenset((WRITE,))))),
                          def_perms=frozenset((("a1", frozenset((p1,))),
                                               ("a2", frozenset((p2,))))))
        assert set(check_clauses(sys)) == {"allMapsCorrect.perms", "notDupPerm.1"}

    def test_evaluation_does_not_mutate(self, f1):
        sys = f1["sys"]
        before = sys
        check_clauses(sys)
        assert sys == before

    def test_custom_registry(self):
        sub = [c for c in standard_clauses() if c.id.startswith("notDupPerm")]
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),
                                           ("a1", frozenset((WRITE,))))))
        assert valid_state(sys, sub)  # perms clause not registered


# the quantifier forms that the shipped notDupPerm clauses evaluate through
# an id index, kept as the index's oracle
QUANTIFIER_FORMS = {
    "notDupPerm.1": lambda env: invariants._not_dup_perm_1(env.defPerms),
    "notDupPerm.2": lambda env: invariants._not_dup_perm_2(env.systemImage),
    "notDupPerm.3": lambda env: invariants._not_dup_perm_3(env.defPerms,
                                                           env.systemImage),
}


@pytest.mark.parametrize("states, held", [
    # the first 1,024 states in rank order: one State, every environment.
    # At maxcard 1 a source defines one permission, so only clause 3 fails
    (lambda: islice(SystemSpace(Bounds(1, 1, 1, 1)), 1024), [1024, 1024, 544]),
    (lambda b=Bounds(2, 2, 2, 2, budget=10_000, seed=0): state_stream(SystemSpace(b)),
     [190, 199, 107]),
], ids=["1111-environments", "2222-samples"])
def test_not_dup_perm_index_equals_quantifier_form_and_brute_force(states, held):
    counts = {cid: 0 for cid in QUANTIFIER_FORMS}
    for sys in states():
        for c in not_dup_perm_clauses():
            index = c.eval(sys)
            assert index == QUANTIFIER_FORMS[c.id](sys.environment), c.id
            assert index == brute.o_valid_clause(sys, c.id), c.id
            counts[c.id] += index
    assert list(counts.values()) == held


@given(st.integers(0, SPACE.size - 1))
@settings(max_examples=200, deadline=None)
def test_clauses_agree_with_brute_force_on_generated_states(rank):
    sys = SPACE.unrank(rank)
    for c in standard_clauses():
        assert c.eval(sys) == brute.o_valid_clause(sys, c.id), c.id


def test_clauses_agree_with_brute_force_on_seeded_samples():
    # a notDupPerm clause holds on only 1-2% of (2,2,2,2) states, too few for
    # the 200 examples above to check the holding branch; 10,000 seeded
    # states over two bounds see each outcome of each clause 50+ times
    outcomes = {c.id: [0, 0] for c in not_dup_perm_clauses()}
    for bounds in ((2, 2, 2, 2), (2, 1, 1, 2)):
        space = SystemSpace(Bounds(*bounds))
        rng = random.Random(0)
        for _ in range(5000):
            sys = space.unrank(rng.randrange(space.size))
            for c in standard_clauses():
                held = c.eval(sys)
                assert held == brute.o_valid_clause(sys, c.id), (bounds, c.id)
                if c.id in outcomes:
                    outcomes[c.id][held] += 1
    for cid, (failed, held) in outcomes.items():
        assert failed >= 50 and held >= 50, (cid, failed, held)


@pytest.mark.parametrize("sys", [
    make_system(def_perms=frozenset((("a1", frozenset((Perm("x", None, "normal"),))),
                                     ("a2", frozenset((Perm("x", "g", "normal"),)))))),
    make_system(manifest=frozenset((("a1", Manifest(frozenset((READ,)))),
                                    ("a1", Manifest(frozenset((WRITE,))))))),
    make_system(system_image=frozenset((SysImgApp("a1", frozenset((READ,))),
                                        SysImgApp("a1", frozenset((WRITE,)))))),
    make_system(cert=frozenset((("a1", "c1"), ("a1", "c2")))),
])
def test_clauses_agree_with_brute_force_on_adversarial_states(sys):
    # states outside the generator's space: non-functional maps, clashing ids
    for c in standard_clauses():
        assert c.eval(sys) == brute.o_valid_clause(sys, c.id), c.id


def test_one_clause_tuple_agrees_with_brute_force_in_rank_order():
    # one clause tuple for the whole stream, each state followed by its
    # successors, as a sweep evaluates them: each clause reuses its last
    # result while the components it reads are the same objects.  The first
    # 24 States of (1,1,1,1) take every value of the components any clause
    # or operation reads, each State with all 1,024 environments.
    clauses = standard_clauses()
    ops = default_operations()
    outcomes = {c.id: set() for c in clauses}
    for sys in rank_order_states(24 * 1024):
        successors = []
        for op in ops.values():
            for action in op.candidates(sys):
                for sp in sp_variants(action):
                    out = op.apply(sp, sys, action)
                    if out.ok:
                        successors.append(out.system)
                        break
        for s in [sys] + successors:
            for c in clauses:
                held = c.eval(s)
                assert held == brute.o_valid_clause(s, c.id), c.id
                outcomes[c.id].add(held)
    assert all(outcomes[f"notDupPerm.{i}"] == {False, True} for i in (1, 2, 3))

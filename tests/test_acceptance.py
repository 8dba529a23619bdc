"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The model-level
criteria pin exhaustive equivalence against the brute-force oracles on a
small universe; the verifier-level criteria pin the expected verdicts,
determinism, and the soundness guard at fixed bounds, budgets and seeds.
"""

import json
import random
import subprocess
import sys
import time

import pytest

import brute
from conftest import random_grant_auto_state, src_env
from permcheck.kernel import (
    AmbiguousApplication,
    comp,
    dom,
    exists_in,
    forall_in,
    foplus,
    is_pfun,
    not_in_dom,
    rel_apply,
)
from permcheck.model import DANGEROUS, emit_state, parse_state
from permcheck.operations import (
    Action,
    default_operations,
    grant_auto,
    grant_auto_operation,
    pre_grant_auto,
)
from permcheck.statespace import Bounds, SystemSpace
from permcheck.invariants import valid_state
from permcheck.verifier import (
    check_query,
    gen_security_queries,
    recheck,
    run_suite,
)

KEYS = ("k1", "k2")
VALUES = ("v1", "v2", "v3")
RELS_KV = brute.relations_upto([(k, v) for k in KEYS for v in VALUES], 3)
RELS_VK = brute.relations_upto([(v, k) for v in VALUES for k in KEYS], 3)

ACCEPTANCE_BOUNDS = Bounds(2, 2, 2, 2, budget=100_000, seed=0)


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def report_2222():
    return run_suite("all", ACCEPTANCE_BOUNDS)


@pytest.fixture(scope="module")
def mutation_verdict():
    ops = default_operations()
    ops["grantAuto"] = grant_auto_operation(skip=(5,))
    query = gen_security_queries(operations=ops)[0]
    (verdict,) = check_query([query], SystemSpace(Bounds(2, 2, 2, 2, budget=10_000)))
    return verdict


@pytest.fixture(scope="module")
def witness_verdict():
    query = gen_security_queries()[1]
    (verdict,) = check_query([query], SystemSpace(Bounds(1, 1, 1, 1)))
    return verdict


def test_criterion_1_kernel_oracle_equivalence():
    started = time.perf_counter()
    bodies = [lambda kv: kv[0] == "k1", lambda kv: kv[1] != "v2",
              lambda kv: kv in RELS_KV[7], lambda kv: False, lambda kv: True]
    for r in RELS_KV:
        assert is_pfun(r) == brute.o_is_pfun(r)
        assert dom(r) == brute.o_dom(r, KEYS)
        for x in KEYS:
            assert not_in_dom(r, x) == brute.o_not_in_dom(r, x)
            expected = brute.o_rel_apply(r, x)
            if expected == brute.AMBIGUOUS:
                with pytest.raises(AmbiguousApplication):
                    rel_apply(r, x)
            else:
                assert rel_apply(r, x) == expected
            for y in VALUES:
                assert foplus(r, x, y) == brute.o_foplus(r, x, y)
        for body in bodies:
            assert forall_in(r, body) == brute.o_forall(r, body)
            assert exists_in(r, body) == brute.o_exists(r, body)
            assert forall_in(r, body) == (exists_in(r, lambda e: not body(e)) is None)
    for r in RELS_KV:
        for s in RELS_VK:
            assert comp(r, s) == brute.o_comp(r, s)
    elapsed = time.perf_counter() - started
    ok(1, f"kernel ops match brute-force oracles exhaustively "
          f"({len(RELS_KV)}x{len(RELS_VK)} relations, {elapsed:.1f}s)")


def test_criterion_2_foplus_laws():
    for f in RELS_KV:
        for x in KEYS:
            for y in VALUES:
                out = foplus(f, x, y)
                assert dom(out) == dom(f) | {x}
                if is_pfun(f):
                    assert rel_apply(out, x) == y
                    assert is_pfun(out)
    ok(2, "foplus laws (domain extension, point update, pfun preservation) "
          "hold exhaustively")


def test_criterion_3_invariance_suite(report_2222):
    invariance = [v for v in report_2222.verdicts if v.query_id.startswith("inv/")]
    assert len(invariance) == 32
    assert all(v.kind == "holds-at-bounds" for v in invariance)
    assert all(v.states_examined == 100_000 for v in invariance)
    row = report_2222.rows[0]
    assert row["name"] == "Valid-state invariance lemmas"
    assert row["counterexamples"] == 0
    assert row["seconds"] < 300
    ok(3, f"all 32 invariance queries hold at bounds(2,2,2,2), "
          f"budget 10^5, in {row['seconds']:.0f}s")


def test_criterion_4_universal_property(report_2222, mutation_verdict):
    (universal,) = [v for v in report_2222.verdicts
                    if v.query_id == "sec/cannotAutoGrantWithoutGroup"]
    assert universal.kind == "holds-at-bounds"
    assert mutation_verdict.kind == "counterexample"
    assert mutation_verdict.states_examined <= 10_000
    assert recheck(mutation_verdict)
    ok(4, "cannotAutoGrantWithoutGroup holds at bounds(2,2,2,2); the "
          "group-conjunct mutant yields a rechecked counterexample within 10^4")


def test_criterion_5_existential_witness(witness_verdict):
    v = witness_verdict
    assert v.kind == "witness"
    p, a, g = v.bindings["perm"], v.bindings["app"], v.bindings["group"]
    # direct re-evaluation of every part of the claimed witness
    assert valid_state(v.system)
    assert any(k == a and g in gs for k, gs in v.system.state.grantedPermGroups)
    (image,) = [img for k, img in v.system.state.perms if k == a]
    assert not any(q.group == g for q in image)
    assert p.level == DANGEROUS and p.group == g
    assert pre_grant_auto(v.system_perms, v.system,
                          Action("grantAuto", perm=p, app=a)) is None
    # shape: the granting perm is in the app's manifest and system perms
    (manifest,) = [m for k, m in v.system.environment.manifest if k == a]
    assert p in manifest.use
    ok(5, "execAutoGrantWithoutIndividualPerms yields a valid, directly "
          "re-evaluated witness at bounds(1,1,1,1)")


def test_criterion_6_soundness_guard(report_2222, mutation_verdict,
                                     witness_verdict):
    emitted = [v for v in report_2222.verdicts
               if v.kind in ("counterexample", "witness")]
    emitted += [mutation_verdict, witness_verdict]
    assert emitted, "expected at least the mutation counterexample and witness"
    assert all(recheck(v) for v in emitted)
    ok(6, f"{len(emitted)}/{len(emitted)} emitted counterexamples/witnesses "
          f"pass recheck")


def test_criterion_7_determinism(tmp_path):
    args = [sys.executable, "-m", "permcheck", "verify", "--suite", "all",
            "--apps", "1", "--perms", "1", "--grps", "1", "--maxcard", "1",
            "--budget", "2000", "--seed", "7", "--format", "json"]
    first = subprocess.run(args, capture_output=True, text=True, env=src_env())
    second = subprocess.run(args, capture_output=True, text=True, env=src_env())
    assert first.returncode == second.returncode
    va = json.loads(first.stdout)["verdicts"]
    vb = json.loads(second.stdout)["verdicts"]
    assert json.dumps(va) == json.dumps(vb)
    ok(7, "two verify runs with identical flags and seed produce "
          "byte-identical verdict sections")


def test_criterion_8_serialization_round_trip(f1):
    assert parse_state(emit_state(f1["sys"])) == f1["sys"]
    count = 0
    for state in SystemSpace(Bounds(1, 1, 1, 1)):
        assert parse_state(emit_state(state)) == state
        count += 1
    assert count == SystemSpace(Bounds(1, 1, 1, 1)).size
    ok(8, f"parse-emit identity on the fixture and all {count} states "
          f"enumerated at bounds(1,1,1,1)")


def test_criterion_9_grant_auto_contracts():
    space = SystemSpace(Bounds(2, 2, 2, 2))
    rng = random.Random(2024)
    for _ in range(10_000):
        sys_, p, a, sp = random_grant_auto_state(space, rng)
        action = Action("grantAuto", perm=p, app=a)
        assert pre_grant_auto(sp, sys_, action) is None
        out = grant_auto(sp, sys_, p, a)
        assert out.ok
        # frame: everything except the granted-permission mapping is untouched
        assert out.system.environment == sys_.environment
        st0, st1 = sys_.state, out.system.state
        assert (st0.apps, st0.alreadyVerified, st0.grantedPermGroups) == \
            (st1.apps, st1.alreadyVerified, st1.grantedPermGroups)
        # monotonicity: every app's image survives, and p lands at a
        old, new = dict(st0.perms), dict(st1.perms)
        assert all(image <= new[app] for app, image in old.items())
        assert p in new[a]
        # the same grant is not re-enabled
        assert pre_grant_auto(sp, out.system, action) == 3
    ok(9, "grantAuto frame/monotonicity/non-re-enabling hold on 10^4 seeded "
          "pre-satisfying states")

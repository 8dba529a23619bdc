import random

import pytest
from hypothesis import given, strategies as st

from permcheck.kernel import (
    EMPTY,
    AmbiguousApplication,
    canonical_order,
    comp,
    dom,
    exists_in,
    forall_in,
    foplus,
    is_pfun,
    not_in_dom,
    order_by_key,
    rel_apply,
    value_key,
)
from permcheck.model import Manifest, Perm, SysImgApp
from permcheck.statespace import Bounds, SystemSpace

import brute

A1, A2 = "a1", "a2"
G1 = frozenset(("g1",))
G2 = frozenset(("g2",))
P, Q = frozenset(("p",)), frozenset(("q",))


def rel(*pairs):
    return frozenset(pairs)


class TestRelations:
    def test_dom_empty(self):
        assert dom(EMPTY) == EMPTY

    def test_dom_collects_firsts(self):
        assert dom(rel((A1, G1), (A2, G1))) == frozenset((A1, A2))

    def test_dom_duplicate_keys(self):
        assert dom(rel((A1, EMPTY), (A1, G1))) == frozenset((A1,))

    def test_not_in_dom(self):
        assert not_in_dom(EMPTY, A1)
        assert not not_in_dom(rel((A1, P)), A1)
        assert not_in_dom(rel((A2, P)), A1)

    def test_comp(self):
        assert comp(EMPTY, rel((A1, P))) == EMPTY
        assert comp(rel((A1, A1)), rel((A1, P))) == rel((A1, P))
        assert comp(rel((A1, A1)), rel((A2, P))) == EMPTY

    def test_is_pfun(self):
        assert is_pfun(EMPTY)
        assert not is_pfun(rel((A1, G1), (A1, G2)))
        assert is_pfun(rel((A1, G1), (A2, G1)))

    def test_rel_apply(self):
        assert rel_apply(rel((A1, P)), A1) == P
        assert rel_apply(EMPTY, A1) is None
        with pytest.raises(AmbiguousApplication):
            rel_apply(rel((A1, P), (A1, Q)), A1)

    def test_foplus_insert(self):
        assert foplus(EMPTY, A1, P) == rel((A1, P))

    def test_foplus_override(self):
        assert foplus(rel((A1, P)), A1, Q) == rel((A1, Q))

    def test_foplus_preserves_other_keys(self):
        f = rel((A1, P), (A2, Q))
        assert foplus(f, A2, P | Q) == rel((A1, P), (A2, P | Q))


class TestQuantifiers:
    def test_forall_empty_domain(self):
        assert forall_in(EMPTY, lambda x: False)

    def test_forall_ints(self):
        assert forall_in(frozenset((1, 2, 3)), lambda x: x <= 3)
        assert not forall_in(frozenset((1, 2, 3)), lambda x: x <= 2)

    def test_exists_empty(self):
        assert exists_in(EMPTY, lambda x: True) is None

    def test_exists_returns_canonical_first(self):
        assert exists_in(frozenset(("p", "q")), lambda x: x == "q") == "q"
        # both satisfy: canonically-first one wins
        assert exists_in(frozenset(("p", "q")), lambda x: True) == "p"


class TestCanonicalOrder:
    def test_kind_ranks(self):
        vals = [frozenset(("z",)), 5, "a", ("b", 1)]
        assert canonical_order(vals) == ["a", 5, ("b", 1), frozenset(("z",))]

    def test_sets_by_sorted_elements(self):
        assert canonical_order([frozenset(("b",)), frozenset(("a", "b"))]) == \
            [frozenset(("a", "b")), frozenset(("b",))]

    def test_total_on_records(self):
        p1 = Perm("a", None, "normal")
        p2 = Perm("a", "g", "normal")
        assert canonical_order([p2, p1]) == [p1, p2]  # ungrouped sorts first

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            value_key(object())
        with pytest.raises(TypeError):
            value_key(True)

    def test_records_sort_by_their_field_tuples(self):
        space = SystemSpace(Bounds(2, 2, 2, 2))
        rng = random.Random(0)
        manifests, sysimgs = [], []
        for _ in range(500):
            env = space.unrank(rng.randrange(space.size)).environment
            manifests += [m for _, m in env.manifest]
            sysimgs += env.systemImage
        assert manifests and sysimgs
        for values, oracle in ((list(space.pools.all_perms), _perm_tuple),
                               (manifests, _manifest_tuple),
                               (sysimgs, _sysimg_tuple)):
            expected = sorted(values, key=oracle)
            fresh = [_rebuilt(v) for v in values]
            assert all(v._vkey is None for v in fresh)
            assert canonical_order(fresh) == expected  # keys computed here
            assert canonical_order(fresh) == expected  # keys cached
            assert canonical_order(values) == expected


class TestOrderByKey:
    def test_equals_canonical_order_on_sampled_relations(self):
        space = SystemSpace(Bounds(2, 2, 2, 2))
        rng = random.Random(0)
        multi = 0
        for _ in range(5000):
            sys = space.unrank(rng.randrange(space.size))
            st, env = sys.state, sys.environment
            for r in (st.grantedPermGroups, st.perms, env.manifest, env.cert,
                      env.defPerms):
                multi += len(r) >= 2
                assert order_by_key(r) == canonical_order(r)
        assert multi > 1000  # the key sort decides the order, not the sizes

    def test_multiply_keyed_relations_fall_back(self):
        # int pairs hash alike in every process, so the order a frozenset
        # iterates them in is fixed; over eight images of one key it is
        # not the canonical order
        ints = frozenset((1, v) for v in range(8)) | {(0, 5), (2, 0)}
        assert list(ints) != canonical_order(ints)
        read, net = Perm("read", "g", "dangerous"), Perm("net", None, "normal")
        hand = [
            ints,
            rel((A1, P), (A1, Q)),
            rel((A2, P), (A1, Q), (A1, P | Q), (A1, EMPTY)),
            rel((A1, frozenset((read,))), (A1, frozenset((net,))),
                (A2, frozenset((read, net)))),
            rel((A1, Manifest(frozenset((read,)))), (A1, Manifest(EMPTY))),
        ]
        for r in hand:
            assert not is_pfun(r)
            assert order_by_key(r) == canonical_order(r)


# field-tuple order oracles that do not go through value_key: None sorts
# before every group, a set by its sorted members

def _perm_tuple(p):
    return (p.id, p.group is not None, p.group or "", p.level)


def _perm_set_tuple(ps):
    return tuple(sorted(map(_perm_tuple, ps)))


def _manifest_tuple(m):
    return (_perm_set_tuple(m.use), m.extra)


def _sysimg_tuple(s):
    return (s.idSI, _perm_set_tuple(s.defPermsSI))


def _rebuilt(v):
    """An equal record built afresh, down to its permissions."""
    if isinstance(v, Perm):
        return Perm(v.id, v.group, v.level)
    if isinstance(v, Manifest):
        return Manifest(frozenset(map(_rebuilt, v.use)), v.extra)
    return SysImgApp(v.idSI, frozenset(map(_rebuilt, v.defPermsSI)))


# -- randomized agreement with the brute-force oracles -------------------------

atoms = st.sampled_from(["a", "b", "c", "d"])
values = st.one_of(atoms, st.integers(0, 3), st.frozensets(atoms, max_size=2))
pairs = st.tuples(atoms, values)
rels = st.frozensets(pairs, max_size=5)


@given(rels, atoms)
def test_not_in_dom_agrees_with_comp_encoding_and_dom(r, x):
    direct = all(k != x for k, _ in r)
    assert not_in_dom(r, x) == direct
    assert (comp(frozenset(((x, x),)), r) == EMPTY) == direct
    assert (x not in dom(r)) == direct


def test_not_in_dom_equivalences_exhaustive_on_small_universe():
    # every relation of <= 4 pairs over a 2-key x 3-value universe
    keys, values = ("k1", "k2"), ("v1", "v2", "v3")
    for r in brute.relations_upto([(k, v) for k in keys for v in values], 4):
        for x in keys:
            direct = x not in dom(r)
            assert not_in_dom(r, x) == direct
            assert (comp(frozenset(((x, x),)), r) == EMPTY) == direct


@given(rels, atoms, values)
def test_foplus_laws(r, x, y):
    out = foplus(r, x, y)
    assert dom(out) == dom(r) | {x}
    assert rel_apply(out, x) == y
    if is_pfun(r):
        assert is_pfun(out)
    assert out == brute.o_foplus(r, x, y)


@given(rels)
def test_order_by_key_is_canonical_order(r):
    assert order_by_key(r) == canonical_order(r)


@given(rels, rels)
def test_comp_agrees_with_oracle(r, s):
    assert comp(r, s) == brute.o_comp(r, s)


@given(rels, atoms)
def test_rel_apply_agrees_with_oracle(r, x):
    expected = brute.o_rel_apply(r, x)
    if expected == brute.AMBIGUOUS:
        with pytest.raises(AmbiguousApplication):
            rel_apply(r, x)
    else:
        assert rel_apply(r, x) == expected


@given(st.frozensets(st.integers(-5, 5), max_size=6), st.integers(-5, 5))
def test_forall_exists_duality(s, n):
    body = lambda x: x <= n
    assert forall_in(s, body) == (exists_in(s, lambda x: not body(x)) is None)


@given(rels, atoms, values)
def test_operations_are_pure(r, x, y):
    before = set(r)
    foplus(r, x, y)
    dom(r)
    is_pfun(r)
    comp(r, r)
    assert set(r) == before

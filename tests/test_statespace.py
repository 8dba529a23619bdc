import hashlib
import itertools
import random
import tracemalloc
from functools import lru_cache
from math import comb

import pytest

from conftest import random_grant_auto_state, sp_variants
from permcheck.invariants import valid_state
from permcheck.model import COMPONENTS, DANGEROUS, System, emit_state, get_component
import permcheck.operations as operations
from permcheck.operations import Action, default_operations, pre_grant_auto
import permcheck.statespace as statespace
from permcheck.statespace import (
    MAX_CARD,
    Bounds,
    SystemSpace,
    _unrank_combination,
    make_pools,
    state_stream,
    targeted_states,
)
from permcheck.verifier import run_suite


def subsets_upto(n, k):
    return sum(comb(n, j) for j in range(min(n, k) + 1))


def mapping_space(n_keys, n_values, k):
    return sum(comb(n_keys, j) * n_values ** j for j in range(min(n_keys, k) + 1))


def component_sizes(space):
    return {name: s.size for name, s in space.components}


def expected_component_sizes(apps, perms, grps, mc):
    n_perms = perms * (grps + 1) * 3
    perm_sets = subsets_upto(n_perms, mc)
    group_sets = subsets_upto(grps, mc)
    return {
        "apps": subsets_upto(apps, mc),
        "alreadyVerified": subsets_upto(apps, mc),
        "grantedPermGroups": mapping_space(apps, group_sets, mc),
        "perms": mapping_space(apps, perm_sets, mc),
        "manifest": mapping_space(apps, perm_sets, mc),
        "cert": mapping_space(apps, 1, mc),
        "defPerms": mapping_space(apps, perm_sets, mc),
        "systemImage": subsets_upto(apps * perm_sets, mc),
    }


class TestBounds:
    def test_defaults(self):
        b = Bounds()
        assert (b.apps, b.perms, b.grps, b.max_card) == (2, 2, 2, 2)
        assert b.budget == 100_000 and b.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"apps": 0}, {"perms": 0}, {"grps": -1}, {"max_card": -1}, {"budget": 0},
        # more (app, permission triple) pairs than MAX_APP_PERM_PAIRS
        {"apps": 2, "perms": 1500, "grps": 1500}, {"apps": 20000},
        # a cold decode above MAX_CARD can take minutes
        {"max_card": MAX_CARD + 1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Bounds(**kwargs)

    def test_an_enumerated_run_decoding_a_component_past_the_caches_is_rejected(self):
        # an enumerated pass decodes whole each component it reads: at
        # (1,3,3,3) systemImage has 7.9e10 values; a sampled run decodes only
        # its samples.  (2,2,2,2)'s largest component, 59,341 values, fits
        size = SystemSpace(Bounds(1, 3, 3, 3)).size
        with pytest.raises(ValueError, match="systemImage"):
            Bounds(1, 3, 3, 3, budget=size)
        assert Bounds(1, 3, 3, 3, budget=size - 1)
        assert Bounds(budget=SystemSpace(Bounds()).size)

    @pytest.mark.parametrize("bounds", [
        (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 1, 1, 1), (1, 1, 1, 2),
        (3, 2, 1, 1), (2, 2, 3, 1), (3, 2, 2, 1), (4, 1, 1, 1), (3, 2, 3, 1),
        (1, 1, 2, 2)])
    def test_the_frontier_bounds_enumerate(self, bounds):
        space = SystemSpace(Bounds(*bounds))
        sizes = component_sizes(space)
        assert sizes == expected_component_sizes(*bounds)
        assert max(sizes.values()) <= statespace.CACHE_LIMIT
        assert Bounds(*bounds, budget=space.size)


class TestPools:
    def test_perm_pool_is_every_triple(self):
        pools = make_pools(Bounds(1, 1, 1, 1))
        assert len(pools.all_perms) == 1 * 2 * 3
        assert len({p.group for p in pools.all_perms}) == 2  # None and grp1

    def test_pools_are_sorted(self):
        from permcheck.kernel import value_key
        pools = make_pools(Bounds(2, 2, 2, 2))
        assert pools.apps == ("app1", "app2")
        assert list(pools.all_perms) == sorted(pools.all_perms, key=value_key)
        # from ten ids on, string order ("perm10" < "perm2") is not numeric
        pools = make_pools(Bounds(1, 12, 11, 1))
        assert pools.perm_ids[:3] == ("perm1", "perm10", "perm11")
        assert list(pools.groups) == sorted(pools.groups)
        assert list(pools.all_perms) == sorted(pools.all_perms, key=value_key)


    def test_pools_are_built_once_per_run(self, monkeypatch):
        # every SystemSpace and targeted family of a run shares one Pools
        builds, real = [], statespace.Pools
        statespace._pools.cache_clear()
        statespace._cut_family.cache_clear()
        monkeypatch.setattr(statespace, "Pools",
                            lambda *fields: builds.append(fields) or real(*fields))
        run_suite("all", Bounds(2, 2, 2, 2, budget=30, seed=0))
        assert len(builds) == 1


class TestSpace:
    @pytest.mark.parametrize("bounds", [
        (1, 1, 1, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 1, 1), (1, 1, 1, 3)])
    def test_rank_zero_is_the_empty_system(self, bounds):
        # every component's rank-0 value is its empty default, which a
        # factored pass and a gate take for the components they do not read;
        # at max_card 0 it is the only system
        space = SystemSpace(Bounds(*bounds))
        assert space.unrank(0) == System()
        assert (space.size == 1) == (bounds[3] == 0)

    def test_component_counts_match_hand_formulas_1111(self):
        space = SystemSpace(Bounds(1, 1, 1, 1))
        assert component_sizes(space) == expected_component_sizes(1, 1, 1, 1)
        assert space.size == 98304

    def test_component_counts_match_hand_formulas_2222(self):
        space = SystemSpace(Bounds(2, 2, 2, 2))
        assert component_sizes(space) == expected_component_sizes(2, 2, 2, 2)

    @pytest.mark.parametrize("bounds", [
        (1, 1, 1, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 1, 1), (1, 1, 1, 3)])
    def test_component_sizes_count_the_space_without_decoding(self, bounds):
        space = SystemSpace(Bounds(*bounds))
        assert component_sizes(space) == expected_component_sizes(*bounds)
        assert not any(s._cache for _, s in space.components)

    def test_like_components_share_one_space_and_its_values(self):
        space = SystemSpace(Bounds(2, 2, 2, 2))
        spaces = dict(space.components)
        assert spaces["apps"] is spaces["alreadyVerified"]
        assert spaces["perms"] is spaces["defPerms"]
        assert len({id(s) for _, s in space.components}) == 6
        # the same digit in both components of a kind: one decoded object
        digits = {"apps": 3, "alreadyVerified": 3, "perms": 7, "defPerms": 7}
        rank = 0
        for name, s in space.components:
            rank = rank * s.size + digits.get(name, 0)
        sys = space.unrank(rank)
        assert sys.state.apps and sys.state.perms
        assert sys.state.apps is sys.state.alreadyVerified
        assert sys.state.perms is sys.environment.defPerms

    def test_building_a_space_allocates_nothing_per_value(self):
        # the decode caches fill on demand; a slot per value would take
        # about 1.2 MB per component at (2,2,2,2)
        bounds = Bounds(2, 2, 2, 2)
        tracemalloc.start()
        try:
            SystemSpace(bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_unrank_is_injective_on_prefix(self):
        space = SystemSpace(Bounds(1, 1, 1, 1))
        seen = {space.unrank(i) for i in range(4096)}
        assert len(seen) == 4096

    @pytest.mark.parametrize("bounds", [(1, 1, 1, 0), (1, 1, 1, 1)])
    def test_iteration_is_rank_order(self, bounds):
        space = SystemSpace(Bounds(*bounds))
        count = 0
        for r, sys in enumerate(space):
            assert sys == space.unrank(r)
            count += 1
        assert count == space.size

    def test_iteration_is_rank_order_with_two_apps(self):
        # (2,1,1,1) has 6,834,375 states and components of unequal sizes:
        # walk it whole and compare a seeded spread of ranks
        space = SystemSpace(Bounds(2, 1, 1, 1))
        rng = random.Random(0)
        picks = sorted({0, space.size - 1,
                        *(rng.randrange(space.size) for _ in range(2000))})
        it, pos = iter(space), 0
        for r in picks:
            assert next(itertools.islice(it, r - pos, None)) == space.unrank(r)
            pos = r + 1
        assert next(it, None) is None

    def test_unrank_covers_small_space_exactly(self):
        space = SystemSpace(Bounds(1, 1, 1, 0))
        assert len({space.unrank(i) for i in range(space.size)}) == space.size

    def test_generated_sets_respect_max_card(self):
        space = SystemSpace(Bounds(2, 2, 2, 1))
        rng = random.Random(0)
        for _ in range(200):
            sys = space.unrank(rng.randrange(space.size))
            assert len(sys.state.apps) <= 1
            assert len(sys.state.perms) <= 1
            for _, image in sys.state.perms:
                assert len(image) <= 1
            assert len(sys.environment.systemImage) <= 1

    def test_generated_relations_are_keyed_by_distinct_apps(self):
        space = SystemSpace(Bounds(2, 2, 2, 2))
        rng = random.Random(1)
        for _ in range(200):
            sys = space.unrank(rng.randrange(space.size))
            for name in ("grantedPermGroups", "perms"):
                rel = getattr(sys.state, name)
                assert len({k for k, _ in rel}) == len(rel)


TINY = Bounds(1, 1, 1, 1)
GRANT_AUTO_SLICE = tuple(sorted(
    set(operations._OPERATIONS["grantAuto"][2]) | {"perms", "defPerms", "systemImage"}))
FOOTPRINTS = {
    "empty": (),
    "perms": ("perms",),
    "grantAuto-slice": GRANT_AUTO_SLICE,
    "every-component": tuple(COMPONENTS),
    "none": None,
}


@lru_cache(maxsize=1)
def tiny_space():
    return list(SystemSpace(TINY))


def brute_representatives(footprint):
    """(rank, system) of the lowest-rank system of each projection on
    ``footprint`` (every component when None), found by walking the space."""
    names = COMPONENTS if footprint is None else footprint
    first = {}
    for r, sys in enumerate(tiny_space()):
        first.setdefault(tuple(get_component(sys, n) for n in names), (r, sys))
    return sorted(first.values(), key=lambda pair: pair[0])


class TestRepresentatives:
    @pytest.mark.parametrize("name", FOOTPRINTS)
    def test_the_lowest_rank_system_of_each_projection_in_rank_order(self, name):
        space = SystemSpace(TINY)
        got = list(space.representatives(FOOTPRINTS[name]))
        assert got == brute_representatives(FOOTPRINTS[name])
        ranks = [r for r, _ in got]
        assert ranks == sorted(set(ranks))
        assert all(sys == space.unrank(r) for r, sys in got)

    @pytest.mark.parametrize("gated", ["manifest", "perms", "grantedPermGroups"])
    @pytest.mark.parametrize("name", FOOTPRINTS)
    def test_a_gate_drops_the_systems_it_rejects_and_keeps_the_ranks(self, name, gated):
        space, footprint = SystemSpace(TINY), FOOTPRINTS[name]
        values = dict(space.components)[gated]
        # rejects the values of rank 1, 4, 7, ...; keeps rank 0
        dropped = {values.unrank(d) for d in range(1, values.size, 3)}
        keep = lambda value: value not in dropped
        got = list(space.representatives(footprint, (gated, keep)))
        every = brute_representatives(footprint)
        assert got == [(r, sys) for r, sys in every if keep(get_component(sys, gated))]
        assert (len(got) < len(every)) == (footprint is None or gated in footprint)

    def test_a_field_that_does_not_vary_selects_nothing(self):
        space = SystemSpace(TINY)
        for footprint in ((), ("perms",), GRANT_AUTO_SLICE):
            assert (list(space.representatives(footprint + ("opaque5",)))
                    == list(space.representatives(footprint)))

    @pytest.mark.parametrize("gate", [None, ("manifest", bool)], ids=["ungated", "gated"])
    def test_the_environments_are_a_one_shot_stream(self, gate):
        # a factored pass reads them once and keeps one per distinct record
        _, envs = SystemSpace(TINY).factors(GRANT_AUTO_SLICE, gate)
        assert iter(envs) is envs
        assert list(envs) and list(envs) == []

    def test_systems_share_states_and_environments(self):
        space = SystemSpace(TINY)
        got = [sys for _, sys in space.representatives(GRANT_AUTO_SLICE)]
        assert len({id(s.state) for s in got}) == 3 * 8  # grantedPermGroups x perms
        assert len({id(s.environment) for s in got}) == len(got) // (3 * 8)


@pytest.mark.parametrize("m", range(9))
def test_unrank_combination_is_lexicographic(m):
    for k in range(m + 1):
        assert ([_unrank_combination(m, k, r) for r in range(comb(m, k))]
                == list(itertools.combinations(range(m), k)))


@pytest.mark.parametrize("bounds, size, digest", [
    ((1, 1, 1, 1), 98_304,
     "f6c746ea4f3c180a6082fbb5e1b6bd5a8527f28f846b0e32f5c7a6e6a363d67f"),
    ((2, 2, 2, 2), 2_545_373_170_367_189_358_400,
     "c20e19cee59fd70930fbaf01ef1886d95a9c429485962b48f5e9c99d5dce5ddf"),
    ((3, 2, 1, 3), 32_730_587_347_534_848_000_000_000_000_000_000,
     "2aef02191d2fdb3ed41740605e933eb1e5933985dba030ee54547a0429fc8ffd"),
])
def test_rank_to_state_digest(bounds, size, digest):
    # pins the rank order: 2000 seeded ranks must decode to the same states
    space = SystemSpace(Bounds(*bounds))
    assert space.size == size
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(2000):
        h.update(emit_state(space.unrank(rng.randrange(space.size))).encode())
    assert h.hexdigest() == digest


class TestEnumerateStates:
    def test_exhaustive_when_budget_covers_space(self):
        assert list(SystemSpace(Bounds(1, 1, 1, 0, budget=10))) == [System()]

    def test_sampling_is_deterministic(self):
        b = Bounds(2, 2, 2, 2, budget=50, seed=9)
        assert list(state_stream(SystemSpace(b))) == list(state_stream(SystemSpace(b)))

    def test_different_seeds_differ(self):
        a, c = (Bounds(2, 2, 2, 2, budget=50, seed=seed) for seed in (1, 2))
        assert list(state_stream(SystemSpace(a))) != list(state_stream(SystemSpace(c)))

    def test_sampled_stream_has_budget_length(self):
        b = Bounds(2, 2, 2, 2, budget=40, seed=4)
        assert len(list(state_stream(SystemSpace(b)))) == 40


def reference_samples(space, seed, n):
    rng = random.Random(f"{seed}:enumerate")
    return [space.unrank(rng.randrange(space.size)) for _ in range(n)]


class TestSamples:
    def test_each_stream_of_a_space_is_the_reference_stream(self):
        for seed in (3, 4, 3):
            space = SystemSpace(Bounds(2, 2, 2, 2, budget=40, seed=seed))
            assert list(state_stream(space)) == reference_samples(space, seed, 40)

    def test_interleaved_streams_read_the_same_samples(self):
        space = SystemSpace(Bounds(2, 2, 2, 2, budget=8, seed=5))
        a, c = state_stream(space), state_stream(space)
        got_a = [next(a) for _ in range(3)]
        got_c = [next(c) for _ in range(6)]
        got_a += [next(a) for _ in range(5)]
        assert got_a == reference_samples(space, 5, 8)
        assert got_c == got_a[:6]

    def test_stream_of_a_reused_space_is_the_enumerated_stream(self):
        # a space whose decode caches earlier calls filled, in another
        # order, streams what a fresh space at the same bounds streams
        for seed in (0, 1, 0):
            b = Bounds(2, 2, 2, 2, budget=30, seed=seed)
            space = SystemSpace(b)
            for r in range(space.size - 1, space.size - 200, -7):
                space.unrank(r)
            first = list(state_stream(space))
            assert first == list(state_stream(SystemSpace(b)))
            assert list(state_stream(space)) == first


TAGS = ("grantAuto", "grant", "revoke", "revokeGroup",
        "cannotAutoGrantWithoutGroup", "execAutoGrantWithoutIndividualPerms")


class TestTargeted:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("bounds", [Bounds(1, 1, 1, 1), Bounds(2, 2, 2, 2)])
    def test_families_are_nonempty_and_deterministic(self, tag, bounds):
        fam = targeted_states(bounds, tag)
        assert len(fam) >= 2
        assert fam == targeted_states(bounds, tag)

    def test_empty_at_max_card_zero(self):
        assert targeted_states(Bounds(1, 1, 1, 0), "grantAuto") == ()

    def test_family_is_shared_across_budgets_and_seeds(self):
        fam = targeted_states(Bounds(2, 2, 2, 2, budget=99, seed=1), "revoke")
        assert isinstance(fam, tuple)
        assert targeted_states(Bounds(2, 2, 2, 2, budget=99, seed=7), "revoke") is fam
        assert targeted_states(Bounds(2, 2, 2, 1), "revoke") != fam
        # one state past the budget shows that the family did not fit
        assert len(fam) < 99
        for budget in (1, 3, len(fam) - 1):
            cut = targeted_states(Bounds(2, 2, 2, 2, budget=budget), "revoke")
            assert cut == fam[:budget + 1]
        assert targeted_states(Bounds(2, 2, 2, 2, budget=len(fam)), "revoke") == fam

    @pytest.mark.parametrize("tag", TAGS)
    def test_families_have_no_duplicates(self, tag):
        for a, p, g, mc in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3),
                                             (0, 1, 2, 3)):
            fam = targeted_states(Bounds(a, p, g, mc), tag)
            assert len(set(fam)) == len(fam), (a, p, g, mc)

    def test_grant_auto_family_contains_enabled_states(self):
        b = Bounds(1, 1, 1, 1)
        ops = default_operations()
        enabled = 0
        for sys in targeted_states(b, "grantAuto"):
            for action in ops["grantAuto"].candidates(sys):
                for sp in sp_variants(action):
                    if pre_grant_auto(sp, sys, action) is None:
                        enabled += 1
        assert enabled > 0

    def test_witness_family_states_are_valid(self):
        for sys in targeted_states(Bounds(1, 1, 1, 1),
                                   "execAutoGrantWithoutIndividualPerms"):
            assert valid_state(sys)


def test_random_grant_auto_state_is_enabled():
    space = SystemSpace(Bounds(2, 2, 2, 2))
    rng = random.Random(7)
    for _ in range(100):
        sys, p, a, sp = random_grant_auto_state(space, rng)
        assert p.level == DANGEROUS and p.group is not None
        assert pre_grant_auto(sp, sys, Action("grantAuto", perm=p, app=a)) is None

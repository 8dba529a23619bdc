"""Bounded state-space generation for the verifier.

Systems are drawn from finite pools: app ids ``app1..appN``, permission ids
``perm1..permN``, group ids ``grp1..grpN``, one certificate atom, and every
permission triple over (id pool x {ungrouped, each group} x the three
protection levels).  Every generated set -- including relations, which are
sets of pairs -- has cardinality at most ``max_card``; relations are keyed
by distinct apps.  Opaque slots stay fixed.

The whole space is a product of per-component indexed spaces, so it can be
enumerated exhaustively in a fixed order or sampled uniformly by drawing
integer ranks.  When the space exceeds the budget the stream switches to
seeded uniform sampling (with replacement) and the run counts as
non-exhaustive.

Alongside the raw product space there are *targeted* generators that wire
manifests, groups and granted sets so that a chosen operation's enabling
condition holds (or almost holds); bounded search at tiny budgets would
rarely stumble into such states by luck.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Callable, Iterator, Optional

from .kernel import EMPTY, foplus, value_key
from .model import (
    DANGEROUS,
    Environment,
    Manifest,
    Perm,
    PROTECTION_LEVELS,
    State,
    SysImgApp,
    System,
)
from .operations import _image_union


@dataclass(frozen=True)
class Bounds:
    """Search bounds: pool sizes, set cardinality cap, budget and seed."""

    apps: int = 2
    perms: int = 2
    grps: int = 2
    max_card: int = 2
    budget: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if min(self.apps, self.perms, self.grps) < 1:
            raise ValueError("pool sizes must be positive")
        if self.max_card < 0:
            raise ValueError("max_card must be >= 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    def to_doc(self) -> dict:
        return {"apps": self.apps, "perms": self.perms, "grps": self.grps,
                "maxcard": self.max_card, "budget": self.budget, "seed": self.seed}


@dataclass(frozen=True)
class Pools:
    apps: tuple
    perm_ids: tuple
    groups: tuple
    certs: tuple
    all_perms: tuple  # every Perm triple over the pools


def make_pools(bounds: Bounds) -> Pools:
    apps = tuple(sorted((f"app{i + 1}" for i in range(bounds.apps)), key=value_key))
    perm_ids = tuple(sorted((f"perm{i + 1}" for i in range(bounds.perms)), key=value_key))
    groups = tuple(sorted((f"grp{i + 1}" for i in range(bounds.grps)), key=value_key))
    all_perms = tuple(sorted(
        (Perm(pid, g, lvl)
         for pid in perm_ids
         for g in (None,) + groups
         for lvl in PROTECTION_LEVELS),
        key=value_key))
    return Pools(apps, perm_ids, groups, ("cert1",), all_perms)


# -- indexed component spaces --------------------------------------------------

CACHE_LIMIT = 120_000  # spaces up to this size keep every decoded value


class _CachedSpace:
    """A space of ``size`` values decoded by ``_decode``; ``unrank`` keeps
    each decoded value when the space has at most CACHE_LIMIT of them."""

    size: int

    def _init_cache(self) -> None:
        self._cache = [None] * self.size if self.size <= CACHE_LIMIT else None

    def unrank(self, r: int):
        cache = self._cache
        if cache is None:
            return self._decode(r)
        value = cache[r]
        if value is None:
            value = cache[r] = self._decode(r)
        return value


class _CombUnranker:
    """Lexicographic unranking of k-combinations of range(m), via prefix sums."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        # prefix[t][j] = number of combinations whose element at position t
        # is < j, given free choice; used with an offset for the current floor
        self.prefix = []
        for t in range(k):
            remaining = k - t - 1
            acc, row = 0, [0]
            for j in range(m):
                acc += comb(m - 1 - j, remaining)
                row.append(acc)
            self.prefix.append(row)

    def unrank(self, r: int) -> tuple:
        out, prev = [], -1
        for t in range(self.k):
            row = self.prefix[t]
            target = r + row[prev + 1]
            j = bisect_right(row, target) - 1
            r = target - row[j]
            out.append(j)
            prev = j
        return tuple(out)


class SubsetSpace(_CachedSpace):
    """All subsets of an indexable pool with cardinality <= max_card."""

    def __init__(self, pool_size: int, elem: Callable[[int], object],
                 max_card: int):
        self.pool_size = pool_size
        self.elem = elem
        self.cards = list(range(min(max_card, pool_size) + 1))
        self.block_sizes = [comb(pool_size, k) for k in self.cards]
        self.size = sum(self.block_sizes)
        self._unrankers: dict = {}
        self._init_cache()

    def _decode(self, r: int) -> frozenset:
        i = r
        for k, block in zip(self.cards, self.block_sizes):
            if i < block:
                if k not in self._unrankers:
                    self._unrankers[k] = _CombUnranker(self.pool_size, k)
                combo = self._unrankers[k].unrank(i)
                return frozenset(self.elem(j) for j in combo)
            i -= block
        raise IndexError(r)


class AtomSpace:
    def __init__(self, pool: tuple):
        self.pool = pool
        self.size = len(pool)

    def unrank(self, r: int):
        return self.pool[r]


class MappedSpace(_CachedSpace):
    """A space whose values are a function of another space's values."""

    def __init__(self, base, fn: Callable):
        self.base, self.fn = base, fn
        self.size = base.size
        self._init_cache()

    def _decode(self, r: int):
        return self.fn(self.base.unrank(r))


class MappingSpace(_CachedSpace):
    """Relations keyed by distinct pool apps with images from a value space."""

    def __init__(self, keys: tuple, value_space, max_card: int):
        self.keys = keys
        self.value_space = value_space
        n = len(keys)
        self.combos = [tuple(combinations(range(n), k))
                       for k in range(min(max_card, n) + 1)]
        v = value_space.size
        self.block_sizes = [len(c) * v ** k for k, c in enumerate(self.combos)]
        self.size = sum(self.block_sizes)
        self._init_cache()

    def _decode(self, r: int) -> frozenset:
        i = r
        v = self.value_space.size
        for k, block in enumerate(self.block_sizes):
            if i < block:
                combo_idx, digits_rank = divmod(i, v ** k)
                combo = self.combos[k][combo_idx]
                digits = []
                for _ in range(k):
                    digits_rank, d = divmod(digits_rank, v)
                    digits.append(d)
                digits.reverse()
                return frozenset((self.keys[j], self.value_space.unrank(d))
                                 for j, d in zip(combo, digits))
            i -= block
        raise IndexError(r)


class SystemSpace:
    """The full product space of systems at given bounds."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.pools = make_pools(bounds)
        p, mc = self.pools, bounds.max_card

        perm_sets = SubsetSpace(len(p.all_perms), p.all_perms.__getitem__, mc)
        group_sets = SubsetSpace(len(p.groups), p.groups.__getitem__, mc)
        manifests = MappedSpace(perm_sets, Manifest)
        sysimg_pool_size = len(p.apps) * perm_sets.size

        def sysimg_elem(i: int) -> SysImgApp:
            ai, si = divmod(i, perm_sets.size)
            return SysImgApp(p.apps[ai], perm_sets.unrank(si))

        self.components = (
            ("apps", SubsetSpace(len(p.apps), p.apps.__getitem__, mc)),
            ("alreadyVerified", SubsetSpace(len(p.apps), p.apps.__getitem__, mc)),
            ("grantedPermGroups", MappingSpace(p.apps, group_sets, mc)),
            ("perms", MappingSpace(p.apps, perm_sets, mc)),
            ("manifest", MappingSpace(p.apps, manifests, mc)),
            ("cert", MappingSpace(p.apps, AtomSpace(p.certs), mc)),
            ("defPerms", MappingSpace(p.apps, perm_sets, mc)),
            ("systemImage", SubsetSpace(sysimg_pool_size, sysimg_elem, mc)),
        )
        self._sizes = [s.size for _, s in self.components]
        self.size = prod(self._sizes)

    def component_sizes(self) -> dict:
        return {name: space.size for name, space in self.components}

    def unrank(self, r: int) -> System:
        # component order matches self.components: the four varying state
        # slots then the four environment slots, most significant first
        digits = []
        for size in reversed(self._sizes):
            r, d = divmod(r, size)
            digits.append(d)
        spaces = self.components
        return System(
            State(apps=spaces[0][1].unrank(digits[7]),
                  alreadyVerified=spaces[1][1].unrank(digits[6]),
                  grantedPermGroups=spaces[2][1].unrank(digits[5]),
                  perms=spaces[3][1].unrank(digits[4])),
            Environment(manifest=spaces[4][1].unrank(digits[3]),
                        cert=spaces[5][1].unrank(digits[2]),
                        defPerms=spaces[6][1].unrank(digits[1]),
                        systemImage=spaces[7][1].unrank(digits[0])),
        )


def enumerate_states(bounds: Bounds,
                     predicate: Optional[Callable[[System], bool]] = None
                     ) -> Iterator[System]:
    """Stream systems at the given bounds, optionally filtered.

    Exhaustive (in rank order) when the space fits the budget; otherwise
    seeded uniform sampling of ``budget`` systems.  The same bounds always
    produce the same stream.
    """
    space = SystemSpace(bounds)
    if space.size <= bounds.budget:
        ranks: Iterator[int] = iter(range(space.size))
    else:
        rng = random.Random(f"{bounds.seed}:enumerate")
        ranks = (rng.randrange(space.size) for _ in range(bounds.budget))
    for r in ranks:
        sys = space.unrank(r)
        if predicate is None or predicate(sys):
            yield sys


# -- targeted generation --------------------------------------------------------

def _mk_system(a: str, manifest: frozenset, mg: frozenset, perms: frozenset,
               def_perms: frozenset) -> System:
    return System(
        State(apps=frozenset((a,)), grantedPermGroups=mg, perms=perms),
        Environment(manifest=manifest, defPerms=def_perms),
    )


def targeted_states(bounds: Bounds, tag: str) -> list[System]:
    """Deterministic family of states aimed at one operation or property.

    Tags are operation ids plus the two security property names.  States
    wire the manifest/group/granted-set plumbing the tag's enabling
    condition needs; the remaining components are left empty, which keeps
    every state well within bounds and valid.
    """
    if bounds.max_card < 1:
        return []
    pools = make_pools(bounds)
    dangerous_grouped = [p for p in pools.all_perms
                         if p.level == DANGEROUS and p.group is not None]
    ungrouped = [p for p in pools.all_perms if p.group is None]
    out: list[System] = []

    if tag in ("grantAuto", "grant", "cannotAutoGrantWithoutGroup",
               "execAutoGrantWithoutIndividualPerms"):
        for a in pools.apps:
            for p in dangerous_grouped:
                manifest = frozenset(((a, Manifest(frozenset((p,)))),))
                wired_mg = frozenset(((a, frozenset((p.group,))),))
                if tag == "cannotAutoGrantWithoutGroup":
                    other = [g for g in pools.groups if g != p.group]
                    mg_variants = [EMPTY, frozenset(((a, EMPTY),))]
                    mg_variants += [frozenset(((a, frozenset((g,))),)) for g in other[:1]]
                elif tag == "grant":
                    mg_variants = [EMPTY, wired_mg]
                else:
                    mg_variants = [wired_mg]
                if tag == "execAutoGrantWithoutIndividualPerms":
                    prior_variants = [frozenset(((a, EMPTY),))]
                    prior_variants += [frozenset(((a, frozenset((u,))),))
                                       for u in ungrouped[:2]]
                else:
                    prior_variants = [EMPTY, frozenset(((a, EMPTY),))]
                    prior_variants += [frozenset(((a, frozenset((u,))),))
                                       for u in ungrouped[:1]]
                for def_perms in (EMPTY, frozenset(((a, frozenset((p,))),))):
                    for mg in mg_variants:
                        for perms in prior_variants:
                            out.append(_mk_system(a, manifest, mg, perms, def_perms))

    elif tag == "revoke":
        for a in pools.apps:
            for p in ungrouped:
                images = [frozenset((p,))]
                if bounds.max_card >= 2 and dangerous_grouped:
                    images.append(frozenset((p, dangerous_grouped[0])))
                for img in images:
                    out.append(_mk_system(a, EMPTY, EMPTY,
                                          frozenset(((a, img),)), EMPTY))

    elif tag == "revokeGroup":
        for a in pools.apps:
            for g in pools.groups:
                mg = frozenset(((a, frozenset((g,))),))
                grouped = [p for p in dangerous_grouped if p.group == g]
                perm_variants = [EMPTY, frozenset(((a, EMPTY),))]
                perm_variants += [frozenset(((a, frozenset((p,))),)) for p in grouped[:1]]
                if bounds.max_card >= 2 and grouped and ungrouped:
                    perm_variants.append(
                        frozenset(((a, frozenset((grouped[0], ungrouped[0]))),)))
                for perms in perm_variants:
                    out.append(_mk_system(a, EMPTY, mg, perms, EMPTY))

    return list(dict.fromkeys(out))


def random_grant_auto_state(space: SystemSpace, rng: random.Random
                            ) -> tuple[System, Perm, str, frozenset]:
    """A seeded random system rewired so grantAuto's condition holds.

    Returns the system plus the (perm, app, system-permission set) to grant.
    Used by the operation contract tests, which need many varied enabled
    states rather than the small deterministic targeted family.
    """
    pools = space.pools
    base = space.unrank(rng.randrange(space.size))
    a = rng.choice(pools.apps)
    p = rng.choice([q for q in pools.all_perms
                    if q.level == DANGEROUS and q.group is not None])
    st, env = base.state, base.environment

    manifest = foplus(env.manifest, a, Manifest(frozenset((p,))))
    mg = foplus(st.grantedPermGroups, a,
                _image_union(st.grantedPermGroups, a) | {p.group})
    perms = st.perms
    if any(k == a for k, _ in perms):
        perms = foplus(perms, a, _image_union(perms, a) - {p})
    def_perms = env.defPerms
    if rng.random() < 0.5:
        sp: frozenset = frozenset((p,))
    else:
        sp = EMPTY
        def_perms = foplus(def_perms, a, frozenset((p,)))
    return (System(State(st.apps | {a}, st.alreadyVerified, mg, perms),
                   Environment(manifest, env.cert, def_perms, env.systemImage)),
            p, a, sp)

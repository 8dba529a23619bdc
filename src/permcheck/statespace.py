"""Bounded state-space generation for the verifier.

Systems are drawn from finite pools: app ids ``app1..appN``, permission ids
``perm1..permN``, group ids ``grp1..grpN``, one certificate atom, and every
permission triple over (id pool x {ungrouped, each group} x the three
protection levels).  Every generated set -- including relations, which are
sets of pairs -- has cardinality at most ``max_card``; relations are keyed
by distinct apps.  Opaque slots stay fixed.

Every component, a subset of a pool or a relation keyed by distinct apps,
is one kind of indexed space, a ``SetSpace``: a set of pool indices, each
carrying a value rank, unranked straight from binomial coefficients with no
table.  ``SystemSpace`` alone declares the layout: the whole space is the
product of the eight component spaces, so it can be enumerated exhaustively
in a fixed order or sampled uniformly by drawing integer ranks, and
``Bounds`` counts its limits through it.  A space keeps its bounds, and
a search reads its states, budget and seed from the space alone, through
three readers: ``representatives``, the lowest-rank system of each
projection on some components, in rank order, which is every State of the
projection with every Environment (``factors``); ``state_stream(space)``,
uniform samples drawn with replacement, a pure function of the bounds,
each decoded when the stream reaches it and kept by none; and
``targeted_states``, below.  The first two build systems from the
component values in the decode caches, one per kind of value, each filled
on demand.  ``verifier.check_query`` alone decides which of them each
query reads.

Alongside the raw product space there are *targeted* generators that wire
manifests, groups and granted sets so that a chosen operation's enabling
condition holds (or almost holds); bounded search at tiny budgets would
rarely stumble into such states by luck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from math import comb, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .kernel import EMPTY, canonical_order
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


# The permission pool and the targeted families grow with the number of
# (app, permission triple) pairs; bounds with more are rejected up front,
# since building their pools alone can exhaust memory.
MAX_APP_PERM_PAIRS = 100_000
# One cold decode bisects over binomials that grow with max_card.  At the
# pair limit with one app (a pool of 99,996 permission triples) it takes
# about 0.7 s at 32, 5.5 s at 48 and 23 s at 64 (2-vCPU VM, Python 3.11),
# so larger caps are rejected.
MAX_CARD = 32


@dataclass(frozen=True)
class Bounds:
    """Search bounds: pool sizes, set cardinality cap, budget and seed.
    An enumerated run (the whole space fits the budget) decodes whole each
    component it reads, so it is rejected if a component has more values
    than ``CACHE_LIMIT``, the most a decode cache keeps."""

    apps: int = 2
    perms: int = 2
    grps: int = 2
    max_card: int = 2
    budget: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if min(self.apps, self.perms, self.grps) < 1:
            raise ValueError("pool sizes must be positive")
        if not 0 <= self.max_card <= MAX_CARD:
            raise ValueError(f"max_card must be between 0 and {MAX_CARD}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        pairs = self.apps * self.perms * (self.grps + 1) * len(PROTECTION_LEVELS)
        if pairs > MAX_APP_PERM_PAIRS:
            raise ValueError(f"bounds give {pairs:,} (app, permission triple) "
                             f"pairs; the limit is {MAX_APP_PERM_PAIRS:,}")
        space = SystemSpace(self)  # decodes nothing
        for name, component in space.components:
            if space.size <= self.budget and component.size > CACHE_LIMIT:
                raise ValueError(f"an enumerated run decodes {component.size:,} "
                                 f"values of {name}; the limit is {CACHE_LIMIT:,}")

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
    """The pools at the bounds' sizes, built once per sizes and shared:
    ``Pools`` is immutable."""
    return _pools(bounds.apps, bounds.perms, bounds.grps)


@lru_cache(maxsize=8)
def _pools(n_apps: int, n_perms: int, n_grps: int) -> Pools:
    apps = tuple(canonical_order(f"app{i + 1}" for i in range(n_apps)))
    perm_ids = tuple(canonical_order(f"perm{i + 1}" for i in range(n_perms)))
    groups = tuple(canonical_order(f"grp{i + 1}" for i in range(n_grps)))
    # built in canonical order: by id, then group (None first), then level
    all_perms = tuple(Perm(pid, g, lvl)
                      for pid in perm_ids
                      for g in (None,) + groups
                      for lvl in sorted(PROTECTION_LEVELS))
    return Pools(apps, perm_ids, groups, ("cert1",), all_perms)


# -- indexed spaces ------------------------------------------------------------

# The one decode cache: a SetSpace of at most this many values keeps each
# value it decodes, as it decodes it, so every stream of a space and every
# component of the same kind share their values.
CACHE_LIMIT = 120_000


def _unrank_combination(m: int, k: int, r: int) -> tuple:
    """The r-th k-combination of range(m) in lexicographic order.

    With ``rest`` elements still to choose, all from [lo, m), the
    combinations whose next element lies in [lo, j) number
    ``comb(m - lo, rest) - comb(m - j, rest)``; the next element is the
    largest j whose count does not exceed r, found by binary search.
    """
    out, lo = [], 0
    for rest in range(k, 1, -1):
        top = comb(m - lo, rest)
        a, b = lo, m - rest
        while a < b:
            j = (a + b + 1) // 2
            if top - comb(m - j, rest) <= r:
                a = j
            else:
                b = j - 1
        r -= top - comb(m - a, rest)
        out.append(a)
        lo = a + 1
    if k:
        out.append(lo + r)  # one left to choose: the count is j - lo
    return tuple(out)


class SetSpace:
    """Sets of at most ``max_card`` distinct indices drawn from range(n).

    Each chosen index j carries a value rank d in range(values) and stands
    for the element ``item(j, d)`` (a mapping carries its images this way,
    a plain subset the one value 0); ``make`` builds the set.  Rank order:
    cardinality, then the lexicographic combination, then the value ranks
    as digits, most significant first.  ``unrank`` keeps each value it
    decodes, in a dict that fills on demand, when the space has at most
    CACHE_LIMIT of them, so building a space allocates nothing per value.
    """

    def __init__(self, n: int, max_card: int, item: Callable[[int, int], object],
                 values: int = 1, make: Callable = frozenset):
        self.n, self.values, self.item, self.make = n, values, item, make
        self.blocks = [(k, comb(n, k) * values ** k, values ** k)
                       for k in range(min(max_card, n) + 1)]
        self.size = sum(size for _, size, _ in self.blocks)
        self._cache = {} if self.size <= CACHE_LIMIT else None

    def unrank(self, r: int):
        cache = self._cache
        if cache is None:
            return self._decode(r)
        value = cache.get(r)
        if value is None:
            value = cache[r] = self._decode(r)
        return value

    def _decode(self, r: int):
        for k, size, width in self.blocks:
            if r < size:
                c, d = divmod(r, width)
                digits = []
                for _ in range(k):
                    d, x = divmod(d, self.values)
                    digits.append(x)
                combo = _unrank_combination(self.n, k, c)
                return self.make(self.item(j, x)
                                 for j, x in zip(combo, reversed(digits)))
            r -= size
        raise IndexError(r)


class SystemSpace:
    """The full product space of systems at given bounds.  A rank's digits,
    most significant first, are the eight varying components in State then
    Environment field order.  Components holding the same kind of value
    (``apps`` and ``alreadyVerified``, ``perms`` and ``defPerms``) share one
    ``SetSpace``, so there is one decode cache per kind of value.  The space
    holds no systems, only those caches.
    """

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.pools = p = make_pools(bounds)
        mc, n_apps, n_perms = bounds.max_card, len(p.apps), len(p.all_perms)

        def pick(pool):
            return lambda j, d: pool[j]

        def mapping(size: int, value: Callable[[int], object]) -> SetSpace:
            return SetSpace(n_apps, mc, lambda j, d: (p.apps[j], value(d)), size)

        app_sets = SetSpace(n_apps, mc, pick(p.apps))
        perm_sets = SetSpace(n_perms, mc, pick(p.all_perms))
        # one Manifest per perm-set rank, shared by every mapping holding it
        manifests = SetSpace(n_perms, mc, pick(p.all_perms),
                             make=lambda items: Manifest(frozenset(items)))
        group_sets = SetSpace(len(p.groups), mc, pick(p.groups))
        n_sets = perm_sets.size
        perm_maps = mapping(n_sets, perm_sets.unrank)
        self.components = (
            ("apps", app_sets),
            ("alreadyVerified", app_sets),
            ("grantedPermGroups", mapping(group_sets.size, group_sets.unrank)),
            ("perms", perm_maps),
            ("manifest", mapping(n_sets, manifests.unrank)),
            ("cert", mapping(len(p.certs), p.certs.__getitem__)),
            ("defPerms", perm_maps),
            ("systemImage", SetSpace(
                n_apps * n_sets, mc, lambda j, d: SysImgApp(
                    p.apps[j // n_sets], perm_sets.unrank(j % n_sets)))),
        )
        self._digits = [(s, s.size) for _, s in reversed(self.components)]
        self.size = prod(size for _, size in self._digits)

    def unrank(self, r: int) -> System:
        v = []
        for space, size in self._digits:  # least significant first
            r, d = divmod(r, size)
            v.append(space.unrank(d))
        v.reverse()
        return System(State(*v[:4]), Environment(*v[4:]))

    def __iter__(self) -> Iterator[System]:
        """Every system in rank order, equal to ``unrank(0)``, ``unrank(1)``,
        ...: the systems of ``representatives(None)``."""
        return map(itemgetter(1), self.representatives(None))

    def representatives(self, footprint: Optional[Iterable[str]],
                        gate: Optional[tuple[str, Callable[[object], bool]]] = None
                        ) -> Iterator[tuple[int, System]]:
        """``(rank, system)`` for every point of the product of the
        components named in ``footprint``, in rank order, with every other
        component at its rank-0 value: the lowest-rank system of each
        projection on the footprint.  Names of fields that do not vary (the
        opaque slots) select nothing, and a footprint of None names every
        component, so it yields ``enumerate(self)``.

        ``gate``, a ``(component, keep)`` pair, drops the systems whose
        value of that component ``keep`` rejects; the ranks of the others
        are unchanged.

        Each component value is decoded once, each State built once per
        state prefix and each Environment once per pass.  The Environments
        are listed and held for the pass, so iterate only footprints swept
        whole.  Only a per-step pass reads this (an ``apply`` replaced
        through the Python API, never the CLI's); past 10^6 Environments
        it takes over 10^10 steps, so time, not memory, bounds it, and
        yielding them per State made whole-space iteration 2.5-3.5x slower.
        """
        states, envs = self.factors(footprint, gate)
        envs = list(envs)
        for rank, state in states:
            for r, env in envs:
                yield rank + r, System(state, env)

    def factors(self, footprint: Optional[Iterable[str]],
                gate: Optional[tuple[str, Callable[[object], bool]]] = None
                ) -> tuple[Iterator[tuple[int, State]], Iterator[tuple[int, Environment]]]:
        """The two factors of ``representatives(footprint, gate)``: its
        States and its Environments, each as ``(rank, value)`` in rank
        order, each value built as its iterator reaches it.  The
        representatives are every State with every Environment, States
        outer, each ranked by the sum of its two parts' ranks."""
        axes, weight = [], 1
        for name, space in reversed(self.components):  # least significant first
            picked = space.size if footprint is None or name in footprint else 1
            axis = [(d * weight, space.unrank(d)) for d in range(picked)]
            if gate is not None and name == gate[0]:
                axis = [(r, v) for r, v in axis if gate[1](v)]
            axes.append(axis)
            weight *= space.size
        axes.reverse()
        envs = ((sum(r for r, _ in e), Environment(*(v for _, v in e)))
                for e in product(*axes[4:]))
        states = ((sum(r for r, _ in st), State(*(v for _, v in st)))
                  for st in product(*axes[:4]))
        return states, envs


def state_stream(space: SystemSpace) -> Iterator[System]:
    """``budget`` uniform samples of ``space``, at its bounds: ranks drawn
    with replacement from one generator seeded ``f"{seed}:enumerate"``,
    each decoded by ``space.unrank`` when the stream reaches it.  The seed
    alone fixes the ranks, so every stream at the same bounds yields the
    same states, however streams of one space interleave."""
    bounds = space.bounds
    rng = random.Random(f"{bounds.seed}:enumerate")
    return (space.unrank(rng.randrange(space.size)) for _ in range(bounds.budget))


# -- targeted generation --------------------------------------------------------

def _mk_system(a: str, manifest: frozenset, mg: frozenset, perms: frozenset,
               def_perms: frozenset) -> System:
    return System(
        State(apps=frozenset((a,)), grantedPermGroups=mg, perms=perms),
        Environment(manifest=manifest, defPerms=def_perms),
    )


def targeted_states(bounds: Bounds, tag: str) -> tuple[System, ...]:
    """Deterministic family of states aimed at one operation or property.

    Tags are operation ids plus the two security property names.  States
    wire the manifest/group/granted-set plumbing the tag's enabling
    condition needs; the remaining components are left empty, which keeps
    every state well within bounds and valid.  A family longer than the
    budget is cut after ``budget + 1`` states, one more than a search
    examines, so a caller can tell that it did not fit.  The seed does not
    enter, so each family is built once per pool sizes, budget and tag and
    shared, as an immutable tuple, by every caller.
    """
    return _cut_family(Bounds(bounds.apps, bounds.perms, bounds.grps,
                              bounds.max_card, bounds.budget), tag)


@lru_cache(maxsize=64)
def _cut_family(bounds: Bounds, tag: str) -> tuple[System, ...]:
    return tuple(islice(_targeted_family(bounds, tag), bounds.budget + 1))


def _targeted_family(bounds: Bounds, tag: str) -> Iterator[System]:
    if bounds.max_card < 1:
        return
    pools = make_pools(bounds)
    dangerous_grouped = [p for p in pools.all_perms
                         if p.level == DANGEROUS and p.group is not None]
    ungrouped = [p for p in pools.all_perms if p.group is None]

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
                            yield _mk_system(a, manifest, mg, perms, def_perms)

    elif tag == "revoke":
        for a in pools.apps:
            for p in ungrouped:
                images = [frozenset((p,))]
                if bounds.max_card >= 2 and dangerous_grouped:
                    images.append(frozenset((p, dangerous_grouped[0])))
                for img in images:
                    yield _mk_system(a, EMPTY, EMPTY, frozenset(((a, img),)), EMPTY)

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
                    yield _mk_system(a, EMPTY, mg, perms, EMPTY)

"""Bounded verification of the permission model.

Every proof obligation is a ``Query`` record on one operation, made of
three plain callables: a *hypothesis* on a state S (always true for the
security kinds), checked once before any step; an *action filter* on the
operation's candidate actions, applied before any step is tried; and a
*conclusion* on S and the successor S' of an enabled step S -a-> S', which
says whether the step is a hit.  One search loop runs every query.

* *invariance*: the hypothesis is one validity clause I, the filter keeps
  every action, and a step is a counterexample when not I(S').  One query
  per (clause, operation) pair, so a failure names exactly the clause an
  operation breaks.
* *universal* (``cannotAutoGrantWithoutGroup``): the filter keeps grantAuto
  of a dangerous grouped permission whose group the user never authorized
  for the app; every enabled such step is a counterexample.
* *existential* (``execAutoGrantWithoutIndividualPerms``): the filter keeps
  grantAuto of a dangerous permission of a group the app holds no
  permission of; an enabled such step from a valid state is a witness.

An operation reads the system-permission set only through membership of
the action's permission, so the loop tries the empty set, then that one
permission if the step was blocked, and stops at the first enabled variant:
no conclusion reads the set except through the step being enabled.

Search is enumeration at small scope, never symbolic proof, so a clean
sweep reports ``holds-at-bounds`` (or ``no-witness-at-bounds``) -- a
deliberately weaker claim than "proved".  Every query reads one stream:
its tag's targeted pre-satisfying family, then
``statespace.state_stream``, up to the budget.  When the space fits the
budget the family is empty and the stream is the whole space in rank
order; otherwise the tail is seeded uniform samples, and if the budget
cannot even cover the targeted family the verdict is ``budget-exhausted``
(inconclusive).  Every emitted counterexample or witness is re-evaluated,
on copies of its concrete values rebuilt from its document, before being
returned; an unsound hit raises instead of reporting.

Queries are independent and deterministic for a fixed seed.  The queries
of a suite row are checked together: each tag's family is swept with that
tag's queries, and then one pass over the shared tail checks every query,
each on the states its budget leaves after its family.  The i-th state of
the tail is the same for every query, so the pass runs in segments
between the points where a query's share ends, each with a fixed set of
queries.  In every pass each state is decoded once, each distinct
hypothesis is evaluated at most once on it, and each operation's
candidates are enumerated and each covered step is taken once for all of
its queries.  A query leaves the pass at its first hit, so its verdict,
down to ``statesExamined`` and the hit, is the one it gets alone: no
verdict depends on which other queries run.  The samples are held by the
shared space, up to ``statespace.CACHE_LIMIT``, and decoded once for every
query.

A pass over the tail skips work it has done already.  Each callable of a
query or an operation may declare the components it reads as its
``reads`` (``model.reading``); the registry's, the shipped clauses' and
this module's all do.  The *footprint* of an operation's group of queries
is what its ``apply`` and ``candidates`` read, with every hypothesis,
filter and conclusion of its queries.  The group's result on a state
depends only on the state's projection on that footprint: a conclusion
reads the successor, which the operation builds from what it reads and
from the pre-state's other components, unchanged.  So a group is skipped
at a state whose projection already came out clean in the pass, with no
hit for any of its queries; hypotheses are evaluated only for the groups
that are not skipped.  A hit rebuilds the plan of the pass, and the
record of clean projections with it, so a projection counts as clean only
under the same live queries.  Verdicts, ``statesExamined`` and hits are
the ones the unskipped pass gives.  The skip is on only where it pays and
is exact: every footprint component's values are kept by the
``SystemSpace``, so a value's identity gives its rank, and the footprint
has no more values than the pass has states.  At (1,1,1,1) both hold;
at (2,2,2,2) the standard suites' footprints have more than 10^18 values,
so their sampled passes are not skipped, and targeted families never are.  A
callable that declares no ``reads``, as a ``dataclasses.replace``d
``apply``, ``eval`` or ``candidates`` does, turns the skip off for its
group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from math import prod
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .invariants import InvariantClause, standard_clauses, valid_state
from .kernel import EMPTY
from .model import (DANGEROUS, PERM_SET, STATE_FIELDS, Perm, System, group_authorized,
                    perm_to_doc, reading, state_from_doc, state_to_doc)
from .operations import (Action, Operation, action_from_doc, action_to_doc,
                         default_operations)
from .statespace import Bounds, SystemSpace, state_stream, targeted_states


class VerifierError(Exception):
    """Internal soundness failure: an emitted hit did not re-evaluate."""


# -- queries and verdicts --------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One proof obligation: ``lemma`` names the clause or property checked,
    ``tag`` selects the targeted family, and the last three fields are the
    hypothesis, the action filter and the conclusion."""

    id: str
    kind: str  # "invariance" | "universal" | "existential"
    op: Operation
    lemma: str
    tag: str
    hypothesis: Callable[[System], bool]
    covers: Callable[[System, Action], bool]
    concludes: Callable[[System, System], bool]


@dataclass(frozen=True)
class Verdict:
    """The outcome of one query.  ``enumerated`` is the stream mode: the
    whole space in rank order, rather than a targeted family and samples."""

    query_id: str
    kind: str  # holds-at-bounds | counterexample | witness |
               # no-witness-at-bounds | budget-exhausted
    states_examined: int
    enumerated: bool = False
    system: Optional[System] = None
    system_perms: Optional[frozenset] = None
    action: Optional[Action] = None
    next_system: Optional[System] = None
    bindings: Optional[dict] = None
    query: Optional[Query] = field(default=None, compare=False, repr=False)

    @property
    def exhaustive(self) -> bool:
        """Every state of the space was examined: an enumerated stream that
        no hit cut short."""
        return self.enumerated and self.system is None

    @property
    def mode(self) -> str:
        """The stream mode, as the text reports label it."""
        return "exhaustive" if self.enumerated else "sampled"


def verdict_to_doc(v: Verdict) -> dict:
    doc = {"query": v.query_id, "verdict": v.kind,
           "statesExamined": v.states_examined, "exhaustive": v.exhaustive}
    if v.system is not None:
        doc["state"] = state_to_doc(v.system)
    if v.system_perms is not None:
        doc["systemPerms"] = PERM_SET.emit(v.system_perms)
    if v.action is not None:
        doc["action"] = action_to_doc(v.action)
    if v.next_system is not None:
        doc["next"] = state_to_doc(v.next_system)
    if v.bindings is not None:
        b = v.bindings
        doc["bindings"] = {"perm": perm_to_doc(b["perm"]), "app": b["app"],
                           "group": b["group"]}
    return doc


def _reads(fns: Iterable[Callable]) -> Optional[frozenset]:
    """The components ``fns`` read, from what each declares as its
    ``reads``; None when one of them declares nothing, and so may read
    any component."""
    out = set()
    for fn in fns:
        reads = getattr(fn, "reads", None)
        if reads is None:
            return None
        out.update(reads)
    return frozenset(out)


def _reading_as(fns: Sequence[Callable], fn: Callable) -> Callable:
    """``fn``, which reads what ``fns`` read together, tagged with that when
    each of them declares its reads, and untagged otherwise."""
    reads = _reads(fns)
    return fn if reads is None else reading(tuple(sorted(reads)), fn)


def _always(*_) -> bool:
    return True


_always = reading((), _always)


def gen_invariance_queries(operations: Optional[dict] = None,
                           clauses: Optional[Sequence[InvariantClause]] = None
                           ) -> list[Query]:
    """One query per (validity clause, operation).  The conclusion reads
    the successor's components that the clause reads."""
    ops = operations if operations is not None else default_operations()
    cls = tuple(clauses) if clauses is not None else standard_clauses()
    return [Query(f"inv/{c.id}/{op.id}", "invariance", op, c.id, op.id, c.eval,
                  _always, _reading_as((c.eval,), lambda sys, nxt, ev=c.eval: not ev(nxt)))
            for c in cls for op in ops.values()]


def _dangerous_grouped(p: Perm) -> bool:
    return p.level == DANGEROUS and p.group is not None


def _group_unauthorized(sys: System, action: Action) -> bool:
    p = action.perm
    return _dangerous_grouped(p) and not group_authorized(sys, action.app, p.group)


_group_unauthorized = reading(("grantedPermGroups",), _group_unauthorized)


def _holds_none_of_group(sys: System, action: Action) -> bool:
    # the app's granted set (present, single image) holds no permission of
    # the group.  grantAuto can still fire from a valid state, because
    # withdrawing the permissions of a group does not necessarily withdraw
    # the group authorization itself.
    p, a = action.perm, action.app
    if not _dangerous_grouped(p):
        return False
    images = [v for k, v in sys.state.perms if k == a]
    return len(images) == 1 and not any(q.group == p.group for q in images[0])


_holds_none_of_group = reading(("perms",), _holds_none_of_group)


def gen_security_queries(operations: Optional[dict] = None,
                         clauses: Optional[Sequence[InvariantClause]] = None
                         ) -> list[Query]:
    """The two security properties, both about one grantAuto step."""
    ops = operations if operations is not None else default_operations()
    cls = tuple(clauses) if clauses is not None else standard_clauses()

    def query(name, kind, covers, concludes) -> Query:
        return Query(f"sec/{name}", kind, ops["grantAuto"], name, name,
                     _always, covers, concludes)

    return [
        query("cannotAutoGrantWithoutGroup", "universal",
              _group_unauthorized, _always),
        query("execAutoGrantWithoutIndividualPerms", "existential",
              _holds_none_of_group,
              _reading_as([c.eval for c in cls],
                          lambda sys, nxt: valid_state(sys, cls))),
    ]


def _sp_variants(action: Action) -> tuple:
    # two variants cover every system-permission set (see the module docstring)
    return (EMPTY,) if action.perm is None else (EMPTY, frozenset((action.perm,)))


# query kind -> (verdict on a hit, verdict on a conclusive clean sweep)
VERDICT_KINDS = {"invariance": ("counterexample", "holds-at-bounds"),
                 "universal": ("counterexample", "holds-at-bounds"),
                 "existential": ("witness", "no-witness-at-bounds")}


def _hit_fields(q: Query, action: Action, nxt: System) -> dict:
    # security hits bind the action's perm, app and group; a witness is a
    # state, not a step, so it carries no successor
    witness = VERDICT_KINDS[q.kind][0] == "witness"
    bindings = None if q.kind == "invariance" else {
        "perm": action.perm, "app": action.app, "group": action.perm.group}
    return {"next_system": None if witness else nxt, "bindings": bindings}


class _Projection:
    """A state's projection on a footprint, as a key, and the record of
    the keys on which the operation groups reading that footprint came
    out clean.

    The key is a mixed-radix number whose digits are the ranks of the
    footprint's components' values.  Each value is found by identity among
    the values its component's space keeps, so a key costs a few dict
    lookups and hashes no value.  The part from the dynamic State is kept
    while the State object is the same, as it is for long runs of a stream
    in rank order."""

    def __init__(self, components: list):
        state_parts, env_parts, weight = [], [], 1
        for name, values in components:
            ranks = {id(v): r * weight for r, v in enumerate(values)}
            parts = state_parts if name in STATE_FIELDS else env_parts
            parts.append((attrgetter(name), ranks))
            weight *= len(values)
        self.clean = bytearray(weight)
        last_state, state_key = None, 0

        def key(sys: System) -> int:
            nonlocal last_state, state_key
            st = sys.state
            if st is not last_state:
                state_key = sum(ranks[id(get(st))] for get, ranks in state_parts)
                last_state = st
            k, env = state_key, sys.environment
            for get, ranks in env_parts:
                k += ranks[id(get(env))]
            return k
        self.key = key


def _projection(space: SystemSpace, footprint: Optional[frozenset],
                length: int) -> Optional[_Projection]:
    """The projection on ``footprint`` for a pass over ``length`` states of
    ``space``, or None where the skip would not pay or not be exact: when
    the footprint is unknown, when it has more values than the pass has
    states, or when a component's space keeps no decoded values, so that a
    value's identity does not give its rank."""
    if footprint is None:
        return None
    spaces = dict(space.components)
    if (not footprint.issubset(spaces)
            or prod(spaces[n].size for n in footprint) > length):
        return None
    components = [(n, s.decoded()) for n, s in space.components if n in footprint]
    if any(values is None for _, values in components):
        return None
    return _Projection(components)


def _first_hits(plan: list, sys: System) -> list:
    """The first hit in one state of each query of ``plan``, as (query,
    system perms, action, successor).

    ``plan`` holds sections, each a projection (or None) with the operation
    groups reading its footprint, and each group is an operation with its
    queries and their distinct hypotheses.  A section whose state's
    projection already came out clean is skipped; otherwise each group's
    hypotheses are evaluated, each distinct one once per state, and only
    then are the operation's candidates enumerated, once.  A step is taken
    only when some query still searching the state covers it; each of
    those tests its conclusion on that one successor and stops searching
    at its first hit, so it finds the hit it would find alone.
    """
    hits, held = [], {}
    for projection, groups in plan:
        if projection is not None:
            key = projection.key(sys)
            if projection.clean[key]:
                continue
        found = len(hits)
        for op, queries, hypotheses in groups:
            for h in hypotheses:
                if h not in held:
                    held[h] = h(sys)
            live = [q for q in queries if held[q.hypothesis]]
            if not live:
                continue
            for action in op.candidates(sys):
                covered = [q for q in live if q.covers(sys, action)]
                if not covered:
                    continue
                for sp in _sp_variants(action):
                    out = op.apply(sp, sys, action)
                    if out.ok:  # every other variant reaches the same successor
                        break
                else:
                    continue
                for q in covered:
                    if q.concludes(sys, out.system):
                        live.remove(q)
                        hits.append((q, sp, action, out.system))
                if not live:
                    break
        if projection is not None and len(hits) == found:
            projection.clean[key] = 1
    return hits


def _plan(queries: Sequence[Query], space: Optional[SystemSpace] = None,
          length: int = 0) -> list:
    """The queries grouped by operation, with their distinct hypotheses,
    and the groups in sections by the projection of their footprint on
    ``space`` (see ``_first_hits``).  A group's footprint is every
    component its operation's ``apply`` and ``candidates`` read, and its
    queries' hypotheses, filters and conclusions; a group without
    ``space``, or whose footprint gets no projection, is in the section
    without one."""
    by_op: dict[Operation, list] = {}
    for q in queries:
        by_op.setdefault(q.op, []).append(q)
    projections, sections = {}, {}
    for op, group in by_op.items():
        footprint = None if space is None else _reads([op.apply, op.candidates] + [
            f for q in group for f in (q.hypothesis, q.covers, q.concludes)])
        if footprint not in projections:
            projections[footprint] = _projection(space, footprint, length)
        sections.setdefault(projections[footprint], []).append(
            (op, group, tuple(dict.fromkeys(q.hypothesis for q in group))))
    return list(sections.items())


def recheck(v: Verdict) -> bool:
    """Re-evaluate a counterexample/witness from its embedded concrete values.

    Independent of the search that produced the verdict: the path the
    search took -- hypothesis, filter, step and conclusion -- is replayed on
    copies of the state, system permissions and action rebuilt from the
    verdict's own document.  No memo keyed by object identity can therefore
    answer both for the search and for the replay.  The step must reach the
    stored successor, and the bindings must name the perm, app and group of
    the stored action.
    """
    if v.kind not in ("counterexample", "witness"):
        raise ValueError("recheck applies to counterexample/witness verdicts only")
    doc = verdict_to_doc(v)
    q, sys = v.query, state_from_doc(doc["state"])
    sp = PERM_SET.parse(doc["systemPerms"], "systemPerms")
    action = action_from_doc(doc["action"])
    if not (q.hypothesis(sys) and q.covers(sys, action)):
        return False
    out = q.op.apply(sp, sys, action)
    return (out.ok and q.concludes(sys, out.system)
            and _hit_fields(q, action, out.system)
            == {"next_system": v.next_system, "bindings": v.bindings})


def _sweep(queries: Sequence[Query], states: Iterable[System], before: dict,
           enumerated: bool, verdicts: dict,
           space: Optional[SystemSpace] = None, length: int = 0) -> None:
    """Check ``queries`` in one pass over ``states``, writing each query's
    first hit, rechecked, into ``verdicts``.  A hit at the i-th state (from
    1) examined ``before[p] + i`` states.  The pass ends when every query
    has hit.  When ``states`` are ``length`` states of ``space``, groups may
    skip states by their projections (see ``_first_hits``); a hit rebuilds
    the plan, and the records of clean projections with it."""
    live = list(queries)
    plan = _plan(live, space, length)
    for i, sys in enumerate(states, 1):
        hits = _first_hits(plan, sys)
        if not hits:
            continue
        for p, sp, action, nxt in hits:
            v = Verdict(p.id, VERDICT_KINDS[p.kind][0], before[p] + i, enumerated,
                        system=sys, system_perms=sp, action=action, query=p,
                        **_hit_fields(p, action, nxt))
            if not recheck(v):
                raise VerifierError(f"unsound {v.kind} emitted for {p.id}")
            verdicts[p] = v
            live.remove(p)
        if not live:
            return
        plan = _plan(live, space, length)


def check_query(q: Query, bounds: Bounds,
                space: Optional[SystemSpace] = None,
                peers: Optional[dict] = None) -> Verdict:
    """Discharge one query at the given bounds.

    The examined stream is the targeted family for the query's tag, then
    ``state_stream(space, bounds)``, up to the budget.  When the space fits
    the budget the family is empty and the tail is the whole space in rank
    order; otherwise the tail is the run's seeded uniform samples.  The
    tail depends on the bounds alone, not on the query: every query reads
    the same one, the states ``enumerate_states(bounds)`` yields.  A
    sampled sweep that could not fit the whole targeted family is
    inconclusive.

    ``space`` may carry a prebuilt space for the same pool sizes and
    ``max_card``; it never changes the verdict, only the decoding cost.  A
    space holds the samples a query decodes, so a later query given the
    same space and seed reuses them (up to ``statespace.CACHE_LIMIT``); a
    space last read at another seed decodes this seed's samples afresh.

    ``peers`` may map other queries at the same bounds to their verdicts,
    ``None`` while undecided.  Every undecided peer, whatever its tag, is
    checked with ``q``, and the verdicts are written back into ``peers``.
    Each tag's family is swept, cut to the budget, with that tag's queries;
    then one pass over the tail checks every query on the states left in
    its budget after its family.  Each verdict is the one its query gets
    alone.
    """
    if space is None:
        space = SystemSpace(bounds)
    queries = [q] + [p for p, v in (peers or {}).items() if v is None and p is not q]
    budget, verdicts = bounds.budget, {}
    enumerated = space.size <= budget
    by_tag: dict[str, list] = {}
    for p in queries:
        by_tag.setdefault(p.tag, []).append(p)
    before, conclusive = {}, set()
    for tag, tagged in by_tag.items():
        family = () if enumerated else targeted_states(bounds, tag)
        _sweep(tagged, family[:budget], dict.fromkeys(tagged, 0), enumerated, verdicts)
        before.update(dict.fromkeys(tagged, min(len(family), budget)))
        if len(family) <= budget:
            conclusive.update(tagged)
    # query p reads the first budget - before[p] states of the tail: cut the
    # pass where a quota ends, so each segment has a fixed set of queries
    tail, start = state_stream(space, bounds), 0
    for end in sorted({budget - n for n in before.values()}):
        live = [p for p in queries if p not in verdicts and budget - before[p] >= end]
        if not live:
            break
        segment = islice(tail, end - start)
        _sweep(live, segment, {p: before[p] + start for p in live}, enumerated,
               verdicts, space, min(end - start, space.size))
        start = end

    for p in queries:
        if p not in verdicts:
            kind = VERDICT_KINDS[p.kind][1] if p in conclusive else "budget-exhausted"
            verdicts[p] = Verdict(p.id, kind, min(budget, space.size), enumerated, query=p)
    if peers is not None:
        peers.update(verdicts)
    return verdicts[q]


# -- suites and reports -----------------------------------------------------------

SUITES = ("invariance", "security", "all")

INVARIANCE_ROW = "Valid-state invariance lemmas"
SECURITY_ROW = "Security properties"


@dataclass
class Report:
    suite: str
    bounds: Bounds
    rows: list[dict]
    verdicts: list[Verdict]

    @property
    def counterexamples(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.kind == "counterexample"]

    @property
    def inconclusive(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.kind == "budget-exhausted"]

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "bounds": self.bounds.to_doc(),
            "rows": self.rows,
            "verdicts": [verdict_to_doc(v) for v in self.verdicts],
        }

    def text(self) -> str:
        lines = [f"suite: {self.suite}",
                 "bounds: " + " ".join(f"{k}={v}" for k, v in self.bounds.to_doc().items()),
                 "",
                 f"{'':40}{'lemmas':>8}{'queries':>9}{'cex':>6}{'seconds':>10}"]
        for row in self.rows:
            lines.append(f"{row['name']:40}{row['lemmas']:>8}{row['queries']:>9}"
                         f"{row['counterexamples']:>6}{row['seconds']:>10.2f}")
        lines.append("")
        for v in self.verdicts:
            lines.append(f"{v.query_id}: {v.kind} "
                         f"({v.states_examined} states, {v.mode})")
        return "\n".join(lines) + "\n"


def run_suite(suite: str, bounds: Bounds,
              operations: Optional[dict] = None,
              clauses: Optional[Sequence[InvariantClause]] = None) -> Report:
    """Run a verification suite and aggregate per-row counts and wall time.

    The first query of a row is checked with the whole row as its peers
    (see ``check_query``), so one call decides the row and its time is the
    row's; every verdict is still the one its query gets alone."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    groups = []
    if suite in ("invariance", "all"):
        groups.append((INVARIANCE_ROW, gen_invariance_queries(operations, clauses)))
    if suite in ("security", "all"):
        groups.append((SECURITY_ROW, gen_security_queries(operations, clauses)))

    space = SystemSpace(bounds)  # decodes each sample once for every query
    rows, verdicts = [], []
    for name, queries in groups:
        start = time.perf_counter()
        peers = dict.fromkeys(queries)
        vs = [peers[q] or check_query(q, bounds, space, peers) for q in queries]
        elapsed = time.perf_counter() - start
        lemmas = len({q.lemma for q in queries})
        rows.append({"name": name, "lemmas": lemmas, "queries": len(queries),
                     "counterexamples": sum(v.kind == "counterexample" for v in vs),
                     "seconds": round(elapsed, 3)})
        verdicts.extend(vs)
    rows.append({"name": "total",
                 "lemmas": sum(r["lemmas"] for r in rows),
                 "queries": sum(r["queries"] for r in rows),
                 "counterexamples": sum(r["counterexamples"] for r in rows),
                 "seconds": round(sum(r["seconds"] for r in rows), 3)})
    return Report(suite, bounds, rows, verdicts)

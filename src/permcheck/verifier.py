"""Bounded verification of the permission model.

Every proof obligation is a ``Query`` record on one operation, made of
three plain callables: a *hypothesis* on a state S, checked once before
any step; an *action filter* on the operation's candidate actions, applied
before any step is tried; and a *conclusion* on S and the successor S' of
an enabled step S -a-> S', which says whether the step is a hit (always,
for the security kinds).  One search loop runs every query.

* *invariance*: the hypothesis is one validity clause I, the filter keeps
  every action, and a step is a counterexample when not I(S').  One query
  per (clause, operation) pair, so a failure names exactly the clause an
  operation breaks.
* *universal* (``cannotAutoGrantWithoutGroup``): the hypothesis always
  holds, and the filter keeps grantAuto of a dangerous grouped permission
  whose group the user never authorized for the app; every enabled such
  step is a counterexample.
* *existential* (``execAutoGrantWithoutIndividualPerms``): the hypothesis
  is validity, the conjunction of every clause, and the filter keeps
  grantAuto of a dangerous permission of a group the app holds no
  permission of; an enabled such step is a witness.

An operation reads the system-permission set only through membership of
the action's permission, so the loop tries the empty set, then that one
permission if the step was blocked, and stops at the first enabled variant:
no conclusion reads the set except through the step being enabled.  An
action that names no permission, as a ``revokeGroup`` does, has only the
first variant.

Search is enumeration at small scope, never symbolic proof, so a clean
sweep reports ``holds-at-bounds`` (or ``no-witness-at-bounds``) -- a
deliberately weaker claim than "proved".  What a query reads is decided
here, in ``check_query(queries, space)``, and nowhere else; the budget
and seed are those of the bounds the space was built for.  When the space
fits the budget the run is *enumerated*: each query reads the gated
representatives of its footprint (below), and a clean sweep is
exhaustive.  Otherwise the run is *sampled*: each query reads its tag's
targeted pre-satisfying family (``statespace.targeted_states``), then the
run's seeded uniform samples (``statespace.state_stream``), up to the
budget, and if the budget cannot even cover the family the verdict is
``budget-exhausted`` (inconclusive).  Every emitted counterexample or
witness is re-evaluated, on copies of its concrete values rebuilt from
its document, before being returned; an unsound hit raises instead of
reporting.

Queries are independent and deterministic for a fixed seed.  The queries
of a suite row are checked together, in one ``check_query`` call.  In a
sampled run each tag's family is swept with that tag's queries, and then
one pass over the samples checks every query, each on the samples its
budget leaves after its family, its *quota*: the i-th sample is the same
for every query.  A pass (``_sweep``) decodes each state once, from the
shared space's decode caches, and takes each step once for all of an
operation's queries (``_first_hits``), as its *plan* (``_plan``) groups
them.  A plan is never edited: a pass builds one for its queries, and a
new one, of the queries still searching, after each state with a hit or
at which a quota ends.  A query leaves the pass at its first hit or at
the end of its quota, so its verdict, down to ``statesExamined`` and the
hit, is the one it gets alone: no verdict depends on which other queries
run.

An enumerated run reads only the states that can decide a verdict.  Each
callable of a query or an operation may declare the components it reads
as its ``reads`` (``model.reading``); the registry's, the shipped
clauses' and this module's all do.  The *footprint* of a query is what
its operation's ``apply`` and ``candidates`` read, with its hypothesis,
filter and conclusion.  The query's result on a state depends only on the
state's projection on that footprint: a conclusion reads the successor,
which the operation builds from what it reads and from the pre-state's
other components, unchanged.  The *representative* of a projection is
its lowest-rank state, in which every component outside the footprint
takes its rank-0 value.  A hit at a state is a hit at its representative
too, which comes no later in rank order, so a query's first hit among
the representatives is its first hit in the whole space.  A state at
which the operation has no candidate action has no step, and so no hit.
When the operation's ``candidates`` read one component, the query's
*gate*, its pass keeps only the representatives whose value of the gate
gives some operation of the pass a candidate action.  So an enumerated
run is split into passes, one per footprint and gate: each checks its
queries over its gated representatives (``SystemSpace.representatives``),
and a hit at rank r examined r + 1 states.  Verdicts, ``statesExamined``
and hits are the ones a pass over every state gives.  A sampled run reads
every state of its families and samples.  A callable that declares no
``reads``, as a ``dataclasses.replace``d ``apply``, ``eval`` or
``candidates`` does, leaves its query without a footprint, and the query
reads the whole space in rank order, with no gate.

A pass's representatives are every State of its footprint with every
Environment, States outer (``SystemSpace.factors``), so an enumerated pass
is *factored* (``_factored_sweep``): each callable runs once at the loop
where everything it reads is fixed.  What reads only State components runs
once per State, and what reads only Environment components once per
Environment of the pass; a conjunction, as the existential's validity
hypothesis is, runs each of its conjuncts at its own loop.  An operation
steps through its *staged split* (``operations``): its Environment part
runs once per (Environment, candidate action) and gives the
system-permission variant, and its State part once per (State, action)
and gives the successor's State.  A pass with a callable that reads both
or declares no reads, or with a filter that reads the Environment, or one
of whose operations carries no staged split, as a replaced ``apply`` does,
takes ``_sweep`` instead, one step at a time, so a replaced ``apply`` is
never bypassed.  Both give the same verdicts, ``statesExamined``, hits and
variants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .invariants import InvariantClause, standard_clauses
from .kernel import EMPTY
from .model import (DANGEROUS, ENV_FIELDS, PERM_SET, STATE_FIELDS, Environment, Perm,
                    State, System, group_authorized, perm_to_doc, reading,
                    state_from_doc, state_to_doc, with_component)
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
    gated representatives of the query's footprint, which stand for the
    whole space and count it in rank order, rather than a targeted family
    and samples."""

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


def _all_of(fns: Sequence[Callable]) -> Callable[[System], bool]:
    """The conjunction of the predicates ``fns``, declaring them as its
    ``conjuncts``, for a factored pass to run each at its own loop, and what
    they read together as its ``reads``."""
    fns = tuple(fns)
    holds = _reading_as(fns, lambda sys: all(fn(sys) for fn in fns))
    holds.conjuncts = fns
    return holds


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

    def query(name, kind, hypothesis, covers) -> Query:
        return Query(f"sec/{name}", kind, ops["grantAuto"], name, name,
                     hypothesis, covers, _always)

    return [
        query("cannotAutoGrantWithoutGroup", "universal", _always, _group_unauthorized),
        query("execAutoGrantWithoutIndividualPerms", "existential",
              _all_of([c.eval for c in cls]), _holds_none_of_group),
    ]


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


def _plan(queries: Sequence[Query]) -> tuple:
    """The plan of a sweep over ``queries``: one entry per operation, in
    order of first appearance, as the tuple (its ``candidates``, its
    ``apply``, its queries, whether one of them filters actions)."""
    by_op: dict[Operation, list] = {}
    for q in queries:
        by_op.setdefault(q.op, []).append(q)
    return tuple((op.candidates, op.apply, tuple(group),
                  any(q.covers is not _always for q in group))
                 for op, group in by_op.items())


def _first_hits(plan: tuple, sys: System) -> list:
    """The first hit in one state of each query of ``plan``, as (query,
    system perms, action, successor): the step of a sampled pass, and of an
    enumerated one that is not factored.

    Each distinct hypothesis is evaluated at most once on the state, and
    each operation's candidates are enumerated once.  When no query of an
    entry filters, every action is covered by all of its live queries and
    no ``covers`` is called.  A covered step is taken with the empty
    system-permission set, and again with the action's own permission only
    when that was blocked (see the module docstring).  Each covered query
    tests its conclusion on that one successor and leaves the state at its
    first hit, so it finds the hit it would find alone.
    """
    hits, held = [], {}
    for candidates, apply, queries, filtered in plan:
        live = []
        for q in queries:
            h = q.hypothesis
            if h not in held:
                held[h] = h(sys)
            if held[h]:
                live.append(q)
        if not live:
            continue
        for action in candidates(sys):
            if filtered:
                covered = [q for q in live if q.covers(sys, action)]
                if not covered:
                    continue
            else:
                covered = live
            sp, out = EMPTY, apply(EMPTY, sys, action)
            if not out.ok:
                if action.perm is None:
                    continue
                sp = frozenset((action.perm,))
                out = apply(sp, sys, action)
                if not out.ok:
                    continue
            nxt = out.system
            hit = [q for q in covered if q.concludes(sys, nxt)]
            if not hit:
                continue
            for q in hit:
                live.remove(q)
                hits.append((q, sp, action, nxt))
            if not live:
                break
    return hits


def _passes(queries: Sequence[Query]) -> dict:
    """The queries by pass of an enumerated run, keyed (footprint, gate).
    A query's footprint is every component its operation's ``apply`` and
    ``candidates`` read and its hypothesis, filter and conclusion read;
    None when one of them declares no reads.  Its gate is the one component
    its operation's ``candidates`` declare, if they declare exactly one and
    the footprint is not None; otherwise None."""
    out: dict[tuple, list] = {}
    for q in queries:
        footprint = _reads((q.op.apply, q.op.candidates, q.hypothesis, q.covers,
                            q.concludes))
        gate = getattr(q.op.candidates, "reads", ())
        gate = gate[0] if footprint is not None and len(gate) == 1 else None
        out.setdefault((footprint, gate), []).append(q)
    return out


def _acting(space: SystemSpace, name: str, ops: Iterable[Operation]) -> Callable:
    """The test of a gate on component ``name``: whether some operation of
    ``ops``, whose candidates read only that component, has a candidate
    action at a given value of it."""
    lowest = space.unrank(0)

    def keep(value) -> bool:
        sys = with_component(lowest, name, value)
        return any(True for op in ops for _ in op.candidates(sys))
    return keep


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


def _verdict(p: Query, sp: frozenset, action: Action, sys: System, nxt: System,
             examined: int, enumerated: bool) -> Verdict:
    """The verdict of a hit of ``p``, rechecked."""
    v = Verdict(p.id, VERDICT_KINDS[p.kind][0], examined, enumerated, system=sys,
                system_perms=sp, action=action, query=p, **_hit_fields(p, action, nxt))
    if not recheck(v):
        raise VerifierError(f"unsound {v.kind} emitted for {p.id}")
    return v


def _sweep(queries: Sequence[Query], states: Iterable[tuple[int, System]],
           before: dict, budget: int, enumerated: bool) -> dict:
    """Check ``queries`` in one pass over ``states``, (position, state)
    pairs, and return each query's first hit, rechecked, as its verdict.  A
    hit at position i examined ``before[p] + i`` states, and query p reads
    no position past its quota, ``budget - before[p]``.  A query leaves the
    pass at its first hit or at the end of its quota, and the pass ends
    when none is left, before it reads a state that no query would."""
    if not queries:
        return {}
    verdicts, searching = {}, queries
    plan, stop = _plan(searching), min(budget - before[p] for p in searching)
    for i, sys in states:
        hits = _first_hits(plan, sys)
        for p, sp, action, nxt in hits:
            verdicts[p] = _verdict(p, sp, action, sys, nxt, before[p] + i, enumerated)
        if hits or i >= stop:
            # a new plan, of the queries still searching after position i
            searching = [p for p in searching if p not in verdicts and budget - before[p] > i]
            if not searching:
                break
            plan, stop = _plan(searching), min(budget - before[p] for p in searching)
    return verdicts


# -- factored passes --------------------------------------------------------------

_STATE_FIELDS, _ENV_FIELDS = frozenset(STATE_FIELDS), frozenset(ENV_FIELDS)


def _level(fn: Callable) -> Optional[str]:
    """The loop of a factored pass that evaluates ``fn``: "state" when it
    declares reads of State components only (or of none), "env" when of
    Environment components only, and None, the step, otherwise."""
    reads = getattr(fn, "reads", None)
    if reads is None:
        return None
    if _STATE_FIELDS.issuperset(reads):
        return "state"
    return "env" if _ENV_FIELDS.issuperset(reads) else None


def _by_level(pairs: Iterable[tuple[Callable, int]]) -> dict:
    """The distinct callables of ``pairs``, (callable, query bit), by
    level, each with the bits of the queries it serves, a conjunction
    (``_all_of``) standing for its conjuncts:
    ``{level: ((callable, bits), ...)}``."""
    out: dict = {"state": {}, "env": {}, None: {}}
    for fn, bit in pairs:
        for part in getattr(fn, "conjuncts", (fn,)):
            group = out[_level(part)]
            group[part] = group.get(part, 0) | bit
    return {level: tuple(group.items()) for level, group in out.items()}


def _staged_plan(queries: Sequence[Query]) -> Optional[tuple]:
    """The plan of a factored pass over ``queries``, each query standing
    for its bit, ``1 << position``; None when a hypothesis or conclusion is
    per step, or a filter is not per State, or an operation has no staged
    split (``operations``), or its candidates are per step, or they are per
    State while its guard has an Environment part.

    The plan is (the hypotheses by level, one entry per operation, in order
    of first appearance).  An entry is the tuple (the bits of its queries,
    its queries with their bits, its candidates, their level, its
    Environment part, its State part, its filters, which are per State,
    and its conclusions by level)."""
    bits = {q: 1 << i for i, q in enumerate(queries)}
    by_op: dict[Operation, list] = {}
    for q in queries:
        by_op.setdefault(q.op, []).append(q)
    entries = []
    for op, group in by_op.items():
        staged, level = getattr(op.apply, "staged", None), _level(op.candidates)
        if staged is None or level is None:
            return None
        env_part, state_part = staged
        covers = _by_level((q.covers, bits[q]) for q in group)
        concludes = _by_level((q.concludes, bits[q]) for q in group)
        if (_level(state_part) != "state" or covers["env"] or covers[None]
                or concludes[None] or env_part is not None
                and (level == "state" or _level(env_part) is None)):
            return None
        entries.append((sum(bits[q] for q in group), tuple((q, bits[q]) for q in group),
                        op.candidates, level, env_part, state_part, covers["state"],
                        concludes))
    hypotheses = _by_level((q.hypothesis, bits[q]) for q in queries)
    return None if hypotheses[None] else (hypotheses, tuple(entries))


def _factored_sweep(queries: Sequence[Query], plan: tuple,
                    states: Iterable[tuple[int, State]],
                    envs: Sequence[tuple[int, Environment]]) -> dict:
    """Check ``queries`` over every State of ``states`` with every
    Environment of ``envs``, each a (rank, value) pair in rank order, States
    outer, and return the verdicts ``_sweep`` gives over those
    representatives.  ``plan`` is ``_staged_plan(queries)``.

    Every callable runs at one of two levels.  What reads only the
    Environment runs once per Environment of the pass, on it and the first
    State, and its results are kept beside ``envs`` as records shared by
    the Environments that give equal ones; a conclusion there takes that
    system as both pre-state and successor, since a staged step keeps the
    Environment.  What reads only the State runs once per State, on it and
    the first Environment, and the filters, State part and State-level
    conclusions once per (State, action).  A step then only combines the
    two: query sets are bit masks, and a query hits at a step when its bit
    survives both the State's and the Environment's results, so a State at
    which none can is skipped whole."""
    hypotheses, entries = plan
    states = iter(states)
    first = next(states, None)
    if first is None or not envs:
        return {}
    searching = (1 << len(queries)) - 1
    # per entry, its candidate actions of the pass, by value, to positions
    pools: list[dict] = [{} for _ in entries]
    records: dict = {}  # each Environment record once, by value

    def env_record(env: Environment) -> tuple:
        # (the bits of the queries whose Environment-level hypothesis and
        # conclusion hold, and per entry, for each candidate action that
        # passes its Environment part, (its position in the pool, its
        # system-permission set); None for an entry whose candidates read
        # the State)
        sys = System(first[1], env)
        may = searching
        for h, b in hypotheses["env"]:
            if not h(sys):
                may &= ~b
        kept = []
        for (mask, _, candidates, level, env_part, _, _, concludes), pool in zip(
                entries, pools):
            for c, b in concludes["env"]:
                if may & b and not c(sys, sys):
                    may &= ~b
            if level != "env":
                kept.append(None)
                continue
            steps = []
            for action in candidates(sys) if mask & may else ():
                sp = EMPTY if env_part is None else env_part(sys, action)
                if sp is not None:
                    steps.append((pool.setdefault(action, len(pool)), sp))
            kept.append(tuple(steps))
        record = (may, tuple(kept))
        return records.setdefault(record, record)

    def state_records(sys: System, want: int, actions: Iterable[Action],
                      state_part: Callable, covers: tuple, concludes: tuple) -> list:
        # per action, (the action, its successor's State or None when it is
        # blocked, the bits of the queries of ``want`` that cover it and
        # whose State-level conclusion holds on its successor)
        out = []
        for action in actions:
            ok = want
            for c, b in covers:
                if ok & b and not c(sys, action):
                    ok &= ~b
            nxt = state_part(sys, action) if ok else None
            if nxt is None:
                ok = 0
            else:
                successor = System(nxt, sys.environment)
                for c, b in concludes:
                    if ok & b and not c(sys, successor):
                        ok &= ~b
            out.append((action, nxt, ok))
        return out

    env_records = [env_record(env) for _, env in envs]
    anywhere = 0
    for may, _ in records:
        anywhere |= may
    verdicts = {}
    for rank, st in chain((first,), states):
        sys = System(st, envs[0][1])
        live_here = searching & anywhere
        for h, b in hypotheses["state"]:
            if live_here & b and not h(sys):
                live_here &= ~b
        if not live_here:
            continue
        at_state, per_state, reachable = [], [], 0
        for (mask, _, candidates, level, _, state_part, covers, concludes), pool in zip(
                entries, pools):
            recs = state_records(sys, mask & live_here,
                                 candidates(sys) if level == "state" else pool,
                                 state_part, covers, concludes["state"])
            for *_, ok in recs:
                reachable |= ok
            at_state.append(recs)
            per_state.append(tuple((i, EMPTY) for i in range(len(recs)))
                             if level == "state" else None)
        live_here &= reachable
        if not live_here:
            continue
        for (r, env), (may, kept) in zip(envs, env_records):
            live = live_here & may & searching
            if not live:
                continue
            found, hits = 0, []
            for (mask, members, *_), recs, steps, kept_here in zip(
                    entries, at_state, per_state, kept):
                todo = live & mask
                if not todo:
                    continue
                for i, sp in steps if kept_here is None else kept_here:
                    action, nxt, ok = recs[i]
                    hit = todo & ok
                    if hit:
                        hits += [(p, sp, action, nxt) for p, b in members if hit & b]
                        found |= hit
                        todo &= ~hit
                        if not todo:
                            break
            if not hits:
                continue
            system = System(st, env)
            for p, sp, action, nxt in hits:
                verdicts[p] = _verdict(p, sp, action, system, System(nxt, env),
                                       rank + r + 1, True)
            searching &= ~found
            if not searching:
                return verdicts
    return verdicts


def check_query(queries: Sequence[Query], space: SystemSpace) -> list[Verdict]:
    """Discharge ``queries`` together in ``space``, at its bounds, and
    return their verdicts in the same order.  Each verdict is the one its
    query gets alone.

    What each query reads follows the rule in the module docstring.  The
    samples of ``state_stream(space)`` depend on the bounds alone, not on
    the query: every query of a sampled run reads the same ones.  A sampled
    sweep that could not fit the whole targeted family is inconclusive.
    The space's decode caches serve every call given it: a later call
    reuses the component values decoded before it.
    """
    budget, verdicts = space.bounds.budget, {}
    enumerated = space.size <= budget
    if enumerated:
        # no family: each pass reads the representatives of its footprint at
        # which its operations have a candidate action, and a hit at rank r
        # examined r + 1 states (see the module docstring)
        for (footprint, name), group in _passes(queries).items():
            gate = None if name is None else (
                name, _acting(space, name, {p.op for p in group}))
            plan = _staged_plan(group)
            if plan is None:
                verdicts.update(_sweep(group, space.representatives(footprint, gate),
                                       dict.fromkeys(group, 1), budget, True))
            else:
                verdicts.update(_factored_sweep(group, plan,
                                                *space.factors(footprint, gate)))
        conclusive = set(queries)
    else:
        by_tag: dict[str, list] = {}
        for p in queries:
            by_tag.setdefault(p.tag, []).append(p)
        before, conclusive = {}, set()
        for tag, tagged in by_tag.items():
            family = targeted_states(space.bounds, tag)
            verdicts.update(_sweep(tagged, enumerate(family, 1),
                                   dict.fromkeys(tagged, 0), budget, False))
            before.update(dict.fromkeys(tagged, min(len(family), budget)))
            if len(family) <= budget:
                conclusive.update(tagged)
        # one pass over the samples, in which query p reads the first
        # budget - before[p]: a query with none left takes no part
        live = [p for p in queries if p not in verdicts and before[p] < budget]
        verdicts.update(_sweep(live, enumerate(state_stream(space), 1),
                               before, budget, False))
    return [verdicts[p] if p in verdicts else
            Verdict(p.id, VERDICT_KINDS[p.kind][1] if p in conclusive else "budget-exhausted",
                    min(budget, space.size), enumerated, query=p)
            for p in queries]


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

    Each row is one ``check_query`` call, so its time is the row's; every
    verdict is still the one its query gets alone."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    groups = []
    if suite in ("invariance", "all"):
        groups.append((INVARIANCE_ROW, gen_invariance_queries(operations, clauses)))
    if suite in ("security", "all"):
        groups.append((SECURITY_ROW, gen_security_queries(operations, clauses)))

    space = SystemSpace(bounds)  # its decode caches serve every row
    rows, verdicts = [], []
    for name, queries in groups:
        start = time.perf_counter()
        vs = check_query(queries, space)
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

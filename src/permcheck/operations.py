"""State transitions of the permission model, as pre/post operations.

``grantAuto`` grants a dangerous permission without user interaction when
the user previously authorized the permission's group.  Its enabling
condition is five conjuncts, numbered in a fixed order so a failed
precondition always reports the first conjunct that broke:

1. the app's manifest lists the permission;
2. the permission is a system permission or is defined by some app;
3. the permission is not already granted to the app (and the app's entry
   in the granted-permissions mapping, if any, can be overridden, i.e. is
   not multiply keyed);
4. the protection level is dangerous;
5. the permission belongs to a group the user authorized for the app.

On success the only change is the granted-permissions mapping: the app's
image gains the permission (function override); every other state slot and
the whole environment stay untouched.

``grant``/``revoke``/``revokeGroup``/``hasPermission`` are named
counterparts whose behavior is only sketched by the platform description;
their exact semantics here is a design decision, flagged DESIGN DECISION on
the guard or effect that implements it so it can be re-aligned later.

Each of the four operations that change state is a *guard* and an
*effect*.  Every guard is ``guard(sp, sys, action)`` and returns the first
failed conjunct, numbered as above, or None.  ``effect(State, action) ->
State`` reads and writes only the dynamic ``State``, in one constructor
call; the successor pairs it with the pre-state's ``Environment`` object.
Each is declared once, in the table ``_OPERATIONS``, with the components
its guard and effect read, the one component its candidate actions come
from and its guard split into the conjuncts that read the Environment and
those that read the State; ``OP_NAMES``, ``step`` and the registry of
``default_operations`` all derive from that table, and every one of them
runs the whole guard and the effect through ``_transition``.  ``step``,
and ``grant_auto`` for grantAuto's ``skip`` variants, are the reference.

Operations are total: preconditions that fail yield an error outcome
carrying the conjunct id, never an exception.  On relations that are not
partial functions at the relevant key, lookups read the union of images
(grantAuto's conjunct 3 instead blocks, because a multiply-keyed entry has
no functional override).  Valid states never hit these cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from .kernel import EMPTY, canonical_order, foplus, order_by_key
from .model import (
    ATOM,
    DANGEROUS,
    ENV_FIELDS,
    PERM,
    PERM_SET,
    Codec,
    ParseError,
    Perm,
    STATE_FIELDS,
    State,
    System,
    _list,
    _loads,
    _need,
    group_authorized,
    reading,
    record,
    reusing,
    state_from_doc,
    usr_def_perm,
)

@dataclass(frozen=True, slots=True)
class Action:
    """One requested transition, as it appears in scenario files."""

    op: str
    perm: Optional[Perm] = None
    app: Optional[str] = None
    group: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Outcome:
    """Result of attempting an action: the next system, or the failed conjunct."""

    ok: bool
    system: Optional[System] = None
    failed_conjunct: Optional[int] = None
    result: Optional[bool] = None  # hasPermission answer


# one blocked outcome per conjunct, shared by every step it blocks: an
# Outcome is frozen
_BLOCKED = {c: Outcome(ok=False, failed_conjunct=c) for c in range(1, 6)}


def _images(rel, key) -> list:
    return [v for k, v in rel if k == key]


def _image_union(rel, key) -> frozenset:
    u = EMPTY
    for v in _images(rel, key):
        u = u | v
    return u


def _state(st: State, mg, perms) -> State:
    """``st`` with its grantedPermGroups and perms replaced: the one State
    constructor call of an effect."""
    return State(st.apps, st.alreadyVerified, mg, perms, st.opaque5,
                 st.opaque6, st.opaque7, st.opaque8, st.opaque9)


def _transition(guard: Callable, effect: Callable, sp: frozenset, sys: System,
                action: Action) -> Outcome:
    failed = guard(sp, sys, action)
    if failed is not None:
        return _BLOCKED[failed]
    return Outcome(ok=True, system=System(effect(sys.state, action), sys.environment))


# -- grantAuto ----------------------------------------------------------------

def pre_grant_auto(sp: frozenset, sys: System, action: Action,
                   skip: tuple = ()) -> Optional[int]:
    """First failed conjunct id of grantAuto's enabling condition, or None.

    ``skip`` disables conjuncts by id: grant's guard skips conjunct 5, and
    fault-injection experiments against the verifier skip others.
    """
    p, a = action.perm, action.app
    st, env = sys.state, sys.environment
    if 1 not in skip:
        for k, m in env.manifest:
            if k == a and p in m.use:
                break
        else:
            return 1
    if 2 not in skip:
        if p not in sp and not usr_def_perm(sys, p):
            return 2
    if 3 not in skip:
        granted = None
        for k, v in st.perms:
            if k == a:
                if granted is not None:  # multiply keyed: no functional override
                    return 3
                granted = v
        if granted is not None and p in granted:
            return 3
    if 4 not in skip:
        if p.level != DANGEROUS:
            return 4
    if 5 not in skip:
        if p.group is None or not group_authorized(sys, a, p.group):
            return 5
    return None


# grantAuto's conjuncts split by what they read, for the registry's staged
# split (below).  pre_grant_auto stays whole: it is the reference, and
# ``step`` and ``grant_auto`` run it.

def _grant_auto_env(sys: System, action: Action, skip: tuple = ()) -> Optional[frozenset]:
    """Conjuncts 1, 2 and 4, which read only the Environment: the
    system-permission set of the first variant that passes them, the empty
    set when the permission is defined and the permission alone otherwise,
    or None when they block both."""
    p, a = action.perm, action.app
    if 1 not in skip and not any(k == a and p in m.use for k, m in sys.environment.manifest):
        return None
    if 4 not in skip and p.level != DANGEROUS:
        return None
    return EMPTY if 2 in skip or usr_def_perm(sys, p) else frozenset((p,))


def _grant_auto_state(sp: frozenset, sys: System, action: Action,
                      skip: tuple = ()) -> Optional[int]:
    """Conjuncts 3 and 5, which read only the State: the first that fails,
    or None."""
    p, a = action.perm, action.app
    if 3 not in skip:
        images = _images(sys.state.perms, a)
        if len(images) > 1 or images and p in images[0]:
            return 3
    if 5 not in skip and (p.group is None or not group_authorized(sys, a, p.group)):
        return 5
    return None


def _grant_auto_effect(st: State, action: Action) -> State:
    p, a = action.perm, action.app
    return _state(st, st.grantedPermGroups,
                  foplus(st.perms, a, _image_union(st.perms, a) | {p}))


def _manifest_actions(op: str, manifest, dangerous_only: bool = True
                      ) -> tuple[Action, ...]:
    # conjunct 1 restricts (p, a) to manifest-listed pairs; conjunct 4
    # additionally blocks everything non-dangerous, so those pairs can be
    # pruned whenever conjunct 4 is active
    return tuple(Action(op, perm=p, app=a)
                 for a, m in order_by_key(manifest)
                 for p in canonical_order(m.use)
                 if not dangerous_only or p.level == DANGEROUS)


def grant_auto(sp: frozenset, sys: System, p: Perm, a: str,
               skip: tuple = ()) -> Outcome:
    return _transition(partial(pre_grant_auto, skip=skip), _grant_auto_effect,
                       sp, sys, Action("grantAuto", perm=p, app=a))


# -- grant --------------------------------------------------------------------

def _grant_effect(st: State, action: Action) -> State:
    """Grant with explicit user consent.

    DESIGN DECISION: grant's guard is conjuncts 1-4 of grantAuto only
    (``_OPERATIONS`` skips conjunct 5).  On success the permission is added
    to the app's granted set and, when grouped, the group is recorded as
    authorized so later requests from the same group auto-grant.
    """
    p, a = action.perm, action.app
    mg = st.grantedPermGroups
    if p.group is not None:
        mg = foplus(mg, a, _image_union(mg, a) | {p.group})
    return _state(st, mg, foplus(st.perms, a, _image_union(st.perms, a) | {p}))


# -- revoke -------------------------------------------------------------------

def _revoke_guard(sp: frozenset, sys: System, action: Action) -> Optional[int]:
    """DESIGN DECISION: conjunct 1 = the permission is ungrouped, conjunct 2
    = it is currently granted to the app.  Grouped permissions can only be
    withdrawn through revokeGroup."""
    if action.perm.group is not None:
        return 1
    if action.perm not in _image_union(sys.state.perms, action.app):
        return 2
    return None


def _revoke_effect(st: State, action: Action) -> State:
    p, a = action.perm, action.app
    return _state(st, st.grantedPermGroups,
                  foplus(st.perms, a, _image_union(st.perms, a) - {p}))


def _revoke_actions(perms) -> tuple[Action, ...]:
    return tuple(Action("revoke", perm=p, app=a)
                 for a, granted in order_by_key(perms)
                 for p in canonical_order(granted) if p.group is None)


# -- revokeGroup --------------------------------------------------------------

def _revoke_group_guard(sp: frozenset, sys: System, action: Action) -> Optional[int]:
    """DESIGN DECISION: conjunct 1 = the group is currently authorized for
    the app."""
    return None if group_authorized(sys, action.app, action.group) else 1


def _revoke_group_effect(st: State, action: Action) -> State:
    """Withdraw a group authorization and all granted permissions of the
    group.

    DESIGN DECISION: the app's granted set is rewritten only when it
    exists; revoking a group an app holds no permissions of leaves the
    mapping's keys alone.
    """
    g, a = action.group, action.app
    mg = st.grantedPermGroups
    perms = st.perms
    if _images(perms, a):
        kept = frozenset(q for q in _image_union(perms, a) if q.group != g)
        perms = foplus(perms, a, kept)
    return _state(st, foplus(mg, a, _image_union(mg, a) - {g}), perms)


def _revoke_group_actions(mg) -> tuple[Action, ...]:
    return tuple(Action("revokeGroup", group=g, app=a)
                 for a, groups in order_by_key(mg) for g in canonical_order(groups))


# -- hasPermission ------------------------------------------------------------

def has_permission(sys: System, p: Perm, a: str) -> bool:
    """DESIGN DECISION: membership in the app's granted set; read-only, a
    scenario action served by ``step``, not a verified operation."""
    return p in _image_union(sys.state.perms, a)


# -- the operations -------------------------------------------------------------
#
# The verifier works against Operation records rather than the functions
# above so externally defined operations (or deliberately broken variants)
# can be checked with the same machinery.  The registry holds the four
# operations that change state.  ``apply`` reads the system-permission set
# only through membership of the action's permission; ``candidates``
# gives, for a concrete system, every action parameterization that could
# possibly succeed; anything it omits is provably blocked.

# op id -> (guard, effect, the components the guard and the effect read,
# the component its candidates read, its candidate actions given that
# component, its Environment part, its State guard), for each operation that
# changes state.  An effect writes only grantedPermGroups and perms, and
# keeps every other component as the same object.  The last two columns
# split the guard by what it reads.  The Environment part takes (system,
# action) and gives the system-permission set of the first variant the
# search tries (the empty set, then the action's permission) that passes
# the guard's Environment conjuncts, or None when they block both; None in
# the column means the guard has no Environment conjunct, so the empty set
# always.  The State guard is a guard of the remaining conjuncts, which read
# only the State and not the system-permission set.  The action is enabled
# exactly when both pass, with that set.
_OPERATIONS = {
    "grantAuto": (pre_grant_auto, _grant_auto_effect,
                  ("grantedPermGroups", "perms", "manifest", "defPerms",
                   "systemImage"),
                  "manifest", partial(_manifest_actions, "grantAuto"),
                  _grant_auto_env, _grant_auto_state),
    "grant": (partial(pre_grant_auto, skip=(5,)), _grant_effect,
              ("grantedPermGroups", "perms", "manifest", "defPerms", "systemImage"),
              "manifest", partial(_manifest_actions, "grant"),
              _grant_auto_env, partial(_grant_auto_state, skip=(5,))),
    "revoke": (_revoke_guard, _revoke_effect, ("perms",), "perms", _revoke_actions,
               None, _revoke_guard),
    "revokeGroup": (_revoke_group_guard, _revoke_group_effect,
                    ("grantedPermGroups", "perms"), "grantedPermGroups",
                    _revoke_group_actions, None, _revoke_group_guard),
}

OP_NAMES = (*_OPERATIONS, "hasPermission")


def step(sp: frozenset, sys: System, action: Action) -> Outcome:
    """Run one action against a system."""
    if action.op == "hasPermission":
        return Outcome(ok=True, system=sys,
                       result=has_permission(sys, action.perm, action.app))
    if action.op not in _OPERATIONS:
        raise ValueError(f"unknown operation: {action.op!r}")
    guard, effect, *_ = _OPERATIONS[action.op]
    return _transition(guard, effect, sp, sys, action)


@dataclass(frozen=True)
class Operation:
    id: str
    apply: Callable[[frozenset, System, Action], Outcome]
    candidates: Callable[[System], Iterable[Action]]


# Each registry entry's ``apply`` runs the guard and the effect on every
# call, and carries the components it reads as ``reads``
# (``model.reading``), from which the verifier picks each footprint's
# representatives; its ``candidates`` is ``model.reusing`` on the one
# component it reads, on which the verifier gates them.  The ``apply`` also carries its
# *staged split* as ``staged``: the pair (Environment part, State part), each
# declaring its reads.  The State part gives the successor's State, from the
# State guard and the effect, or None when the State guard blocks.  An
# enumerated pass runs the Environment part once per (Environment, action)
# and the State part once per (State, action) instead of ``apply`` once per
# step.  ``dataclasses.replace(op, apply=...)`` drops the split with the
# callable, so a replaced ``apply`` is always the one that runs.

def _state_part(guard: Callable, effect: Callable, sys: System,
                action: Action) -> Optional[State]:
    return effect(sys.state, action) if guard(EMPTY, sys, action) is None else None


def _operation(id: str, guard: Callable, effect: Callable, reads: tuple,
               candidates_read: str, actions: Callable, env_part: Optional[Callable],
               state_guard: Callable) -> Operation:
    apply = reading(reads, partial(_transition, guard, effect))
    apply.staged = (
        env_part and reading(tuple(n for n in reads if n in ENV_FIELDS), partial(env_part)),
        reading(tuple(n for n in reads if n in STATE_FIELDS),
                partial(_state_part, state_guard, effect)))
    return Operation(id, apply, reusing((candidates_read,), actions))


def grant_auto_operation(skip: tuple = ()) -> Operation:
    """The grantAuto registry entry; ``skip`` builds broken variants, which
    read no more than the entry does."""
    guard, effect, reads, candidates_read, actions, env_part, state_guard = \
        _OPERATIONS["grantAuto"]
    return _operation("grantAuto", partial(guard, skip=skip), effect, reads,
                      candidates_read, partial(actions, dangerous_only=4 not in skip),
                      partial(env_part, skip=skip), partial(state_guard, skip=skip))


def default_operations() -> dict[str, Operation]:
    """A fresh registry: its entries' memos are its own."""
    return {id: _operation(id, *entry) for id, entry in _OPERATIONS.items()}


# -- scenario documents ---------------------------------------------------------

# A revokeGroup names a group; every other action names a permission.
_GROUP_ACTION = record(Action, op=ATOM, app=ATOM, group=ATOM)
_PERM_ACTION = record(Action, op=ATOM, perm=PERM, app=ATOM)


def _action_codec(op: str) -> Codec:
    return _GROUP_ACTION if op == "revokeGroup" else _PERM_ACTION


def action_to_doc(action: Action) -> dict:
    return _action_codec(action.op).emit(action)


def action_from_doc(doc, path="action") -> Action:
    if not isinstance(doc, dict) or "op" not in doc:
        raise ParseError("expected an action object with an 'op' field", path)
    if doc["op"] not in OP_NAMES:
        raise ParseError(f"op must be one of {OP_NAMES}", f"{path}.op")
    return _action_codec(doc["op"]).parse(doc, path)


@dataclass(frozen=True)
class Scenario:
    system_perms: frozenset
    initial: System
    actions: tuple[Action, ...]


def scenario_from_doc(doc) -> Scenario:
    _need(doc, ("systemPerms", "initial", "actions"), "")
    sp = PERM_SET.parse(doc["systemPerms"], "systemPerms")
    initial = state_from_doc(doc["initial"])
    actions = tuple(action_from_doc(x, f"actions[{i}]")
                    for i, x in enumerate(_list(doc["actions"], "actions")))
    return Scenario(sp, initial, actions)


def parse_scenario(text: str) -> Scenario:
    return scenario_from_doc(_loads(text))

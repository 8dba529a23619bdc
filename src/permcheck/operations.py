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
their exact semantics here is a design decision, flagged DESIGN DECISION in
each docstring so they can be re-aligned later:

* ``grant`` = conjuncts 1-4 (explicit user consent replaces the group
  authorization), and additionally records the permission's group, if any,
  as authorized for the app.
* ``revoke`` removes one *ungrouped* granted permission.
* ``revokeGroup`` withdraws a group authorization and removes every granted
  permission of that group.
* ``hasPermission`` is a read-only membership check: a scenario action
  served by ``step``, not a verified operation.

Operations are total: preconditions that fail yield an error outcome
carrying the conjunct id, never an exception.  On relations that are not
partial functions at the relevant key, lookups read the union of images
(grantAuto's conjunct 3 instead blocks, because a multiply-keyed entry has
no functional override).  Valid states never hit these cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .kernel import EMPTY, canonical_order, foplus, order_by_key
from .model import (
    ATOM,
    DANGEROUS,
    PERM,
    PERM_SET,
    Codec,
    Manifest,
    ParseError,
    Perm,
    System,
    _list,
    _loads,
    _need,
    group_authorized,
    record,
    state_from_doc,
    usr_def_perm,
    with_component,
)

OP_NAMES = ("grantAuto", "grant", "revoke", "revokeGroup", "hasPermission")


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


def _blocked(conjunct: int) -> Outcome:
    return Outcome(ok=False, failed_conjunct=conjunct)


def _images(rel, key) -> list:
    return [v for k, v in rel if k == key]


def _image_union(rel, key) -> frozenset:
    u = EMPTY
    for v in _images(rel, key):
        u = u | v
    return u


# -- grantAuto ----------------------------------------------------------------

def pre_grant_auto(sp: frozenset, sys: System, p: Perm, a: str,
                   skip: tuple = ()) -> Optional[int]:
    """First failed conjunct id of grantAuto's enabling condition, or None.

    ``skip`` disables conjuncts by id; it exists for fault-injection
    experiments against the verifier and is never set in normal use.
    """
    st, env = sys.state, sys.environment
    if 1 not in skip:
        if not any(k == a and p in m.use for k, m in env.manifest):
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


def _grant_perm(sys: System, p: Perm, a: str) -> System:
    new_image = _image_union(sys.state.perms, a) | {p}
    return with_component(sys, "perms", foplus(sys.state.perms, a, new_image))


def grant_auto(sp: frozenset, sys: System, p: Perm, a: str,
               skip: tuple = ()) -> Outcome:
    failed = pre_grant_auto(sp, sys, p, a, skip)
    if failed is not None:
        return _blocked(failed)
    return Outcome(ok=True, system=_grant_perm(sys, p, a))


# -- grant --------------------------------------------------------------------

def grant(sp: frozenset, sys: System, p: Perm, a: str) -> Outcome:
    """Grant with explicit user consent.

    DESIGN DECISION: grant requires conjuncts 1-4 of grantAuto only.  On
    success the permission is added to the app's granted set and, when
    grouped, the group is recorded as authorized so later requests from the
    same group auto-grant.
    """
    failed = pre_grant_auto(sp, sys, p, a, skip=(5,))
    if failed is not None:
        return _blocked(failed)
    nxt = _grant_perm(sys, p, a)
    if p.group is not None:
        mg = nxt.state.grantedPermGroups
        groups = _image_union(mg, a) | {p.group}
        nxt = with_component(nxt, "grantedPermGroups", foplus(mg, a, groups))
    return Outcome(ok=True, system=nxt)


# -- revoke -------------------------------------------------------------------

def revoke(sys: System, p: Perm, a: str) -> Outcome:
    """Remove one ungrouped granted permission.

    DESIGN DECISION: conjunct 1 = the permission is ungrouped, conjunct 2 =
    it is currently granted to the app.  Grouped permissions can only be
    withdrawn through revokeGroup.
    """
    if p.group is not None:
        return _blocked(1)
    granted = _image_union(sys.state.perms, a)
    if p not in granted:
        return _blocked(2)
    nxt = with_component(sys, "perms", foplus(sys.state.perms, a, granted - {p}))
    return Outcome(ok=True, system=nxt)


# -- revokeGroup --------------------------------------------------------------

def revoke_group(sys: System, g: str, a: str) -> Outcome:
    """Withdraw a group authorization and all granted permissions of the group.

    DESIGN DECISION: conjunct 1 = the group is currently authorized for the
    app.  The app's granted set is rewritten only when it exists; revoking
    a group an app holds no permissions of leaves the mapping's keys alone.
    """
    if not group_authorized(sys, a, g):
        return _blocked(1)
    mg = sys.state.grantedPermGroups
    groups = _image_union(mg, a) - {g}
    nxt = with_component(sys, "grantedPermGroups", foplus(mg, a, groups))
    granted = _images(sys.state.perms, a)
    if granted:
        kept = frozenset(q for q in _image_union(sys.state.perms, a) if q.group != g)
        nxt = with_component(nxt, "perms", foplus(nxt.state.perms, a, kept))
    return Outcome(ok=True, system=nxt)


# -- hasPermission ------------------------------------------------------------

def has_permission(sys: System, p: Perm, a: str) -> bool:
    """DESIGN DECISION: membership in the app's granted set; read-only."""
    return p in _image_union(sys.state.perms, a)


# -- dispatch -----------------------------------------------------------------

def step(sp: frozenset, sys: System, action: Action) -> Outcome:
    """Run one action against a system."""
    if action.op == "grantAuto":
        return grant_auto(sp, sys, action.perm, action.app)
    if action.op == "grant":
        return grant(sp, sys, action.perm, action.app)
    if action.op == "revoke":
        return revoke(sys, action.perm, action.app)
    if action.op == "revokeGroup":
        return revoke_group(sys, action.group, action.app)
    if action.op == "hasPermission":
        return Outcome(ok=True, system=sys,
                       result=has_permission(sys, action.perm, action.app))
    raise ValueError(f"unknown operation: {action.op!r}")


# -- operation registry --------------------------------------------------------
#
# The verifier works against Operation records rather than the functions
# above so externally defined operations (or deliberately broken variants)
# can be checked with the same machinery.  The registry holds the four
# operations that change state.  ``apply`` reads the system-permission set
# only through membership of the action's permission; ``candidates``
# enumerates, from a concrete system, every action parameterization that
# could possibly succeed; anything it omits is provably blocked.

@dataclass(frozen=True)
class Operation:
    id: str
    apply: Callable[[frozenset, System, Action], Outcome]
    candidates: Callable[[System], Iterator[Action]]


def _manifest_candidates(op: str, sys: System,
                         dangerous_only: bool = True) -> Iterator[Action]:
    # conjunct 1 restricts (p, a) to manifest-listed pairs; conjunct 4
    # additionally blocks everything non-dangerous, so those pairs can be
    # pruned whenever conjunct 4 is active
    for a, m in order_by_key(sys.environment.manifest):
        if isinstance(m, Manifest):
            for p in canonical_order(m.use):
                if dangerous_only and p.level != DANGEROUS:
                    continue
                yield Action(op, perm=p, app=a)


def _revoke_candidates(sys: System) -> Iterator[Action]:
    for a, granted in order_by_key(sys.state.perms):
        for p in canonical_order(granted):
            if p.group is None:
                yield Action("revoke", perm=p, app=a)


def _revoke_group_candidates(sys: System) -> Iterator[Action]:
    for a, groups in order_by_key(sys.state.grantedPermGroups):
        for g in canonical_order(groups):
            yield Action("revokeGroup", group=g, app=a)


def grant_auto_operation(skip: tuple = ()) -> Operation:
    """The grantAuto registry entry; ``skip`` builds broken variants."""
    dangerous_only = 4 not in skip
    return Operation(
        id="grantAuto",
        apply=lambda sp, sys, act: grant_auto(sp, sys, act.perm, act.app, skip),
        candidates=lambda sys: _manifest_candidates("grantAuto", sys, dangerous_only),
    )


def default_operations() -> dict[str, Operation]:
    return {
        "grantAuto": grant_auto_operation(),
        "grant": Operation(
            "grant", step, lambda sys: _manifest_candidates("grant", sys)),
        "revoke": Operation("revoke", step, _revoke_candidates),
        "revokeGroup": Operation("revokeGroup", step, _revoke_group_candidates),
    }


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

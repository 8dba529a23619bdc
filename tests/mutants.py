"""The model faults the tests plant, each named once, and the queries that
kill each.

A fault is the registry entry that ``operations._operation`` builds from
one row of ``operations._OPERATIONS`` with its guard or its effect
replaced.  grantAuto's guard faults are ``grant_auto_operation(skip)``,
and grant's take the same skip partials.  So a fault keeps the row's
declared reads and its staged split, and an enumerated run of it takes the
factored pass that the default registry takes.

``FAULTS[name].kills`` is the fault's row of the kill matrix: the ids of
the queries of ``run_suite("all")`` whose verdict kind differs from the
default registry's, at (1,1,1,1) and at (2,1,1,1), both exhaustive.  A
fault whose guard skips a conjunct that its operation's candidates already
enforce is *equivalent*: every verdict section of a run on it is the
default registry's.  A fault that changes some enabled step and that no
query kills is *open*: it names the planned check meant to kill it, and
its empty row is a gap in the suite, not a pass.

A *per-step probe* (``per_step``) is an entry with its ``apply`` replaced
instead.  The staged split goes with the callable it replaces, so an
enumerated run of a probe takes one step at a time (``verifier._sweep``).
Only the tests whose subject is that path or the recheck use one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import permcheck.operations as operations
from permcheck.kernel import foplus
from permcheck.model import State, reading, with_component
from permcheck.operations import (Operation, _grant_auto_effect, _grant_auto_env,
                                  _grant_auto_state, _grant_effect, _image_union,
                                  _revoke_effect, _revoke_group_effect, default_operations,
                                  grant_auto_operation, pre_grant_auto)

# the columns of an ``_OPERATIONS`` row, in order
_ROW = ("guard", "effect", "reads", "candidates_read", "actions", "env_part",
        "state_guard")


def _replaced(op_id: str, **parts) -> Callable[[], Operation]:
    """A builder of ``op_id``'s registry entry with ``parts`` of its row
    replaced."""
    assert set(parts) <= set(_ROW), parts

    def entry() -> Operation:
        row = dict(zip(_ROW, operations._OPERATIONS[op_id]))
        return operations._operation(op_id, *{**row, **parts}.values())
    return entry


def _guard(op_id: str, guard: Callable) -> Callable[[], Operation]:
    """``op_id``, which has no Environment part, with ``guard`` in place of
    its guard and of its State guard."""
    return _replaced(op_id, guard=guard, state_guard=guard)


def _grant_skipping(skip: tuple) -> Callable[[], Operation]:
    """grant with the conjuncts ``skip`` of grantAuto's condition disabled,
    in place of conjunct 5 alone."""
    return _replaced("grant", guard=partial(pre_grant_auto, skip=skip),
                     env_part=partial(_grant_auto_env, skip=skip),
                     state_guard=partial(_grant_auto_state, skip=skip))


def _stale(component: str, effect: Callable) -> Callable:
    """``effect`` adding its new pairs of ``component`` beside the
    pre-state's instead of overriding them."""
    def stale(st: State, action) -> State:
        nxt = effect(st, action)
        return dataclasses.replace(
            nxt, **{component: getattr(st, component) | getattr(nxt, component)})
    return stale


def _keeping(component: str, effect: Callable) -> Callable:
    """``effect`` leaving ``component`` as the pre-state has it."""
    def keep(st: State, action) -> State:
        return dataclasses.replace(effect(st, action), **{component: getattr(st, component)})
    return keep


def _stale_revoke_group(st: State, action) -> State:
    # an app authorized for several groups keeps its old grantedPermGroups
    # pair, any other its old perms pair
    groups = [g for k, gs in st.grantedPermGroups if k == action.app for g in gs]
    component = "grantedPermGroups" if len(groups) > 1 else "perms"
    return _stale(component, _revoke_group_effect)(st, action)


def _grant_group_for_every_app(st: State, action) -> State:
    # every app keyed in either mapping gets the group, not the grantee
    # alone; at one app that is the grantee
    nxt, g = _grant_effect(st, action), action.perm.group
    if g is None:
        return nxt
    mg = nxt.grantedPermGroups
    for k in {k for k, _ in st.perms} | {k for k, _ in st.grantedPermGroups}:
        mg = foplus(mg, k, _image_union(mg, k) | {g})
    return dataclasses.replace(nxt, grantedPermGroups=mg)


def _revoke_granted_only(sp, sys, action) -> Optional[int]:
    return None if action.perm in _image_union(sys.state.perms, action.app) else 2


def _revoke_ungrouped_only(sp, sys, action) -> Optional[int]:
    return 1 if action.perm.group is not None else None


def _never_blocks(sp, sys, action) -> Optional[int]:
    return None


@dataclass(frozen=True)
class Fault:
    """One model fault: ``entry()`` builds the broken registry entry of
    operation ``op``, whose guard or effect (``replaces``) differs from the
    row's.  ``kills`` is its row of the kill matrix; ``open`` names the
    planned check meant to kill a fault that nothing kills."""

    op: str
    replaces: str  # "guard" | "effect"
    entry: Callable[[], Operation]
    kills: frozenset = frozenset()
    equivalent: bool = False
    open: Optional[str] = None


# the check meant to kill the survivors: a second, declarative statement of
# each operation's guard and effect (ROADMAP, "Operation contracts")
_CONTRACTS = "operation contracts"


# A guard fault ``<op>-skip<c>`` skips conjunct c, numbered as the
# operation's guard numbers it (grant also skips conjunct 5, as grant does)
FAULTS = {
    **{f"grantAuto-skip{c}": Fault("grantAuto", "guard",
                                   partial(grant_auto_operation, skip=(c,)), **row)
       for c, row in ((1, dict(equivalent=True)),
                      (2, dict(open=_CONTRACTS)),
                      (3, dict(open=_CONTRACTS)),
                      (4, dict(open=_CONTRACTS)),
                      (5, dict(kills=frozenset({"sec/cannotAutoGrantWithoutGroup"}))))},
    "grantAuto-stale-perms": Fault(
        "grantAuto", "effect",
        _replaced("grantAuto", effect=_stale("perms", _grant_auto_effect)),
        kills=frozenset({"inv/allMapsCorrect.perms/grantAuto"})),
    **{f"grant-skip{c}": Fault("grant", "guard", _grant_skipping((c, 5)), **row)
       for c, row in ((1, dict(equivalent=True)),
                      (2, dict(open=_CONTRACTS)),
                      (3, dict(open=_CONTRACTS)),
                      (4, dict(equivalent=True)))},
    "grant-needs-group": Fault("grant", "guard", _grant_skipping(()), open=_CONTRACTS),
    "grant-forgets-group": Fault(
        "grant", "effect", _replaced("grant", effect=_grant_auto_effect), open=_CONTRACTS),
    "grant-group-for-every-app": Fault(
        "grant", "effect", _replaced("grant", effect=_grant_group_for_every_app),
        open=_CONTRACTS),
    "revoke-skip1": Fault("revoke", "guard", _guard("revoke", _revoke_granted_only),
                          equivalent=True),
    "revoke-skip2": Fault("revoke", "guard", _guard("revoke", _revoke_ungrouped_only),
                          equivalent=True),
    "revoke-no-op": Fault(
        "revoke", "effect", _replaced("revoke", effect=lambda st, action: st),
        open=_CONTRACTS),
    "revoke-stale-perms": Fault(
        "revoke", "effect", _replaced("revoke", effect=_stale("perms", _revoke_effect)),
        kills=frozenset({"inv/allMapsCorrect.perms/revoke"})),
    "revokeGroup-skip1": Fault("revokeGroup", "guard", _guard("revokeGroup", _never_blocks),
                               equivalent=True),
    "revokeGroup-keeps-perms": Fault(
        "revokeGroup", "effect",
        _replaced("revokeGroup", effect=_keeping("perms", _revoke_group_effect)),
        open=_CONTRACTS),
    "revokeGroup-keeps-group": Fault(
        "revokeGroup", "effect",
        _replaced("revokeGroup", effect=_keeping("grantedPermGroups", _revoke_group_effect)),
        open=_CONTRACTS),
    "revokeGroup-stale-groups": Fault(
        "revokeGroup", "effect",
        _replaced("revokeGroup", effect=_stale("grantedPermGroups", _revoke_group_effect)),
        kills=frozenset({"inv/allMapsCorrect.grantedPermGroups/revokeGroup"})),
    # in a sampled run two queries of revokeGroup hit, at different states:
    # the perms one within the targeted family, whose states authorize one
    # group, and the grantedPermGroups one only among the samples, at a
    # state where every group of the app gives a hitting step.  The
    # matrix's bounds have one group, so only the perms one hits there
    "revokeGroup-stale": Fault(
        "revokeGroup", "effect", _replaced("revokeGroup", effect=_stale_revoke_group),
        kills=frozenset({"inv/allMapsCorrect.perms/revokeGroup"})),
}


def registry(name: str) -> dict[str, Operation]:
    """A fresh default registry with fault ``name`` in place."""
    fault = FAULTS[name]
    return {**default_operations(), fault.op: fault.entry()}


# -- per-step probes ---------------------------------------------------------------

def per_step(op: Operation, apply: Callable) -> Operation:
    """A per-step probe: ``op`` with ``apply`` in place of its own."""
    return dataclasses.replace(op, apply=apply)


def bare_registry(ops: dict) -> dict:
    """``ops`` with each ``apply`` and ``candidates`` wrapped to declare no
    reads, so that every query of a run on it reads the whole space in rank
    order, with no gate."""
    return {k: dataclasses.replace(per_step(op, lambda *args, f=op.apply: f(*args)),
                                   candidates=lambda sys, f=op.candidates: f(sys))
            for k, op in ops.items()}


stale_revoke = FAULTS["revoke-stale-perms"].entry().apply


def stale_revoke_of_system_perm(sp, sys, action):
    """revoke-stale-perms, enabled only when the revoked permission is a
    system permission: the search must try the variant holding it."""
    if action.perm not in sp:
        return operations.Outcome(ok=False, failed_conjunct=1)
    return stale_revoke(sp, sys, action)


def stale_perms_from(states, declared: bool = False) -> dict[str, Operation]:
    """The default registry with each ``apply`` a probe whose successor
    keeps the app's old perms pair beside the new one when the pre-state is
    in ``states``.  It reads the whole state, so it declares no reads,
    unless ``declared``, when it declares, wrongly, those of the ``apply``
    it replaces."""
    def probe(op: Operation) -> Operation:
        def run(sp, sys, action):
            out = op.apply(sp, sys, action)
            if not out.ok or sys not in states:
                return out
            stale = sys.state.perms | out.system.state.perms
            return dataclasses.replace(out, system=with_component(out.system, "perms", stale))
        return per_step(op, reading(op.apply.reads, run) if declared else run)
    return {k: probe(op) for k, op in default_operations().items()}

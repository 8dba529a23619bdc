"""Validity of a system as named, individually checkable clauses.

The well-formedness condition on states is a conjunction of clauses; each
clause is registered separately so the verifier can check exactly one
hypothesis per proof obligation instead of dragging the full conjunction
around.  The shipped registry carries two families:

* ``allMapsCorrect.<mapping>`` -- each of the five mapping components is a
  partial function;
* ``notDupPerm.{1,2,3}`` -- app-defined permissions are uniquely
  identified: two defined permissions with the same id are the same
  permission defined by the same app.  Split by defining source: both from
  the defPerms mapping (1), both from the system image (2), one from each (3).
  They are evaluated through an index from each permission id to its
  definitions; the quantifier forms stay beside them as the index's oracle.

Each clause's ``eval`` declares the components it ``reads``.  The shipped
clauses are built by ``clause``, which passes the body only those
components, so the declaration cannot be wrong.  Its ``eval`` comes from
``model.reusing``, the one helper that keeps a result while the
components it was computed from are the same objects; the operation
registry's candidates use it too.
A verified operation keeps the environment, so an environment-only
clause's conclusion on a successor is the result it gave on the pre-state,
without running the body again.

The registry is open: callers may check any sequence of clauses, so models
extending this one can register more without touching this module.  A
clause whose ``eval`` declares no ``reads`` may read any component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .kernel import forall_in, is_pfun
from .model import System, reusing


@dataclass(frozen=True)
class InvariantClause:
    """A named validity clause."""

    id: str
    eval: Callable[[System], bool]


def clause(id: str, reads: tuple[str, ...], body: Callable[..., bool]
           ) -> InvariantClause:
    """The clause whose ``eval`` passes ``body`` the components named in
    ``reads``, in that order, and nothing else, so its read set is right by
    construction.  ``eval`` is ``model.reusing(reads, body)``: a successor
    that keeps those components, as every verified operation keeps the
    environment, gets the pre-state's result without running ``body``.
    """
    return InvariantClause(id, reusing(reads, body))


MAPPING_COMPONENTS = ("manifest", "cert", "defPerms", "grantedPermGroups", "perms")


def all_maps_correct_clauses() -> tuple[InvariantClause, ...]:
    """One partial-function clause per mapping component."""
    return tuple(clause(f"allMapsCorrect.{n}", (n,), is_pfun)
                 for n in MAPPING_COMPONENTS)


# The quantifier forms of the notDupPerm clauses, nesting exactly as the
# per-source split reads: quantify the (app, perm-set) pairs over each
# source, then the permissions over the bound sets; the innermost body
# compares ids and defining apps.  The shipped clauses evaluate the same
# formulas through an id index (below); these stay as its oracle.

def _not_dup_perm_1(dp) -> bool:
    return forall_in(dp, lambda e1: forall_in(dp, lambda e2: forall_in(
        e1[1], lambda p1: forall_in(
            e2[1], lambda p2: p1.id != p2.id or (p1 == p2 and e1[0] == e2[0])))))


def _not_dup_perm_2(si) -> bool:
    return forall_in(si, lambda s1: forall_in(si, lambda s2: forall_in(
        s1.defPermsSI, lambda p1: forall_in(
            s2.defPermsSI,
            lambda p2: p1.id != p2.id or (p1 == p2 and s1.idSI == s2.idSI)))))


def _not_dup_perm_3(dp, si) -> bool:
    return forall_in(dp, lambda e1: forall_in(si, lambda s2: forall_in(
        e1[1], lambda p1: forall_in(
            s2.defPermsSI,
            lambda p2: p1.id != p2.id or (p1 == p2 and e1[0] == s2.idSI)))))


# By an index from each permission id to its definitions, each a
# (permission, defining app) pair: two definitions with one id must be
# equal, so a source has unique ids when each id keeps one definition
# (clauses 1 and 2), and clause 3 holds when every system-image definition
# equals each defPerms definition of its id.  Keyed by id alone, no
# permission is hashed.

def _unique_ids(pairs) -> bool:
    index = {}
    for app, perms in pairs:
        for p in perms:
            if index.setdefault(p.id, (p, app)) != (p, app):
                return False
    return True


def _unique_system_image_ids(si) -> bool:
    return not si or _unique_ids((s.idSI, s.defPermsSI) for s in si)


def _ids_agree_across_sources(dp, si) -> bool:
    if not (dp and si):
        return True
    index = {}
    for app, perms in dp:
        for p in perms:
            index.setdefault(p.id, []).append((p, app))
    return all(d == (p, s.idSI) for s in si for p in s.defPermsSI
               for d in index.get(p.id, ()))


def not_dup_perm_clauses() -> tuple[InvariantClause, ...]:
    return (
        clause("notDupPerm.1", ("defPerms",), _unique_ids),
        clause("notDupPerm.2", ("systemImage",), _unique_system_image_ids),
        clause("notDupPerm.3", ("defPerms", "systemImage"), _ids_agree_across_sources),
    )


def standard_clauses() -> tuple[InvariantClause, ...]:
    return all_maps_correct_clauses() + not_dup_perm_clauses()


def check_clauses(sys: System,
                  clauses: Optional[Sequence[InvariantClause]] = None) -> list[str]:
    """Ids of every registered clause that fails on sys."""
    if clauses is None:
        clauses = standard_clauses()
    return [c.id for c in clauses if not c.eval(sys)]


def valid_state(sys: System,
                clauses: Optional[Sequence[InvariantClause]] = None) -> bool:
    """Conjunction of all registered clauses."""
    return not check_clauses(sys, clauses)

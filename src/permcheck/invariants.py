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

The registry is open: callers may check any sequence of clauses, so models
extending this one can register more without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .kernel import forall_in, is_pfun
from .model import System, get_component


@dataclass(frozen=True)
class InvariantClause:
    id: str
    eval: Callable[[System], bool]


MAPPING_COMPONENTS = ("manifest", "cert", "defPerms", "grantedPermGroups", "perms")


def all_maps_correct_clauses() -> tuple[InvariantClause, ...]:
    """One partial-function clause per mapping component."""
    def make(name: str) -> InvariantClause:
        return InvariantClause(
            id=f"allMapsCorrect.{name}",
            eval=lambda sys, _n=name: is_pfun(get_component(sys, _n)),
        )
    return tuple(make(n) for n in MAPPING_COMPONENTS)


# The notDupPerm clauses are written with the kernel's restricted
# quantifiers, nesting exactly as the per-source split reads: quantify the
# (app, perm-set) pairs over each source, then the permissions over the
# bound sets; the innermost body compares ids and defining apps.

def _not_dup_perm_1(sys: System) -> bool:
    dp = sys.environment.defPerms
    return forall_in(dp, lambda e1: forall_in(dp, lambda e2: forall_in(
        e1[1], lambda p1: forall_in(
            e2[1], lambda p2: p1.id != p2.id or (p1 == p2 and e1[0] == e2[0])))))


def _not_dup_perm_2(sys: System) -> bool:
    si = sys.environment.systemImage
    return forall_in(si, lambda s1: forall_in(si, lambda s2: forall_in(
        s1.defPermsSI, lambda p1: forall_in(
            s2.defPermsSI,
            lambda p2: p1.id != p2.id or (p1 == p2 and s1.idSI == s2.idSI)))))


def _not_dup_perm_3(sys: System) -> bool:
    dp = sys.environment.defPerms
    si = sys.environment.systemImage
    return forall_in(dp, lambda e1: forall_in(si, lambda s2: forall_in(
        e1[1], lambda p1: forall_in(
            s2.defPermsSI,
            lambda p2: p1.id != p2.id or (p1 == p2 and e1[0] == s2.idSI)))))


def not_dup_perm_clauses() -> tuple[InvariantClause, ...]:
    return (
        InvariantClause("notDupPerm.1", _not_dup_perm_1),
        InvariantClause("notDupPerm.2", _not_dup_perm_2),
        InvariantClause("notDupPerm.3", _not_dup_perm_3),
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

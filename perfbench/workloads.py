"""Workload definitions: bounds, registries, mutants and expected verdicts.

Each workload is a list of suites; each suite is one ``run_suite("all", ...)``
call (or, for ``sampled-2222``, one ``permcheck verify`` command) plus the
verdict kind every query must get.  The expected tables are written by hand
from the paper's known answers and from the design of each mutant; none of
them comes from a run of the verifier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from permcheck.invariants import InvariantClause, standard_clauses
from permcheck.model import get_component, with_component
from permcheck.operations import (
    Action,
    Outcome,
    default_operations,
    grant_auto,
    step,
)
from permcheck.statespace import Bounds

HOLDS = "holds-at-bounds"
CEX = "counterexample"
WITNESS = "witness"

# Query ids, written out rather than taken from the verifier's generators.
CLAUSES = ("allMapsCorrect.manifest", "allMapsCorrect.cert",
           "allMapsCorrect.defPerms", "allMapsCorrect.grantedPermGroups",
           "allMapsCorrect.perms", "notDupPerm.1", "notDupPerm.2",
           "notDupPerm.3")
MUTATING = ("grantAuto", "grant", "revoke", "revokeGroup")
UNIVERSAL = "sec/cannotAutoGrantWithoutGroup"
EXISTENTIAL = "sec/execAutoGrantWithoutIndividualPerms"

# The exhaustive slice.  At maxcard 1 every mapping holds at most one pair
# and every defined-permission set at most one permission, so the only
# clause a state of (1,1,1,1) can break is notDupPerm.3: with it in the
# slice, validity under the slice equals validity under all eight clauses,
# and the existential query looks for the same witness.
EXHAUSTIVE_SLICE = ("allMapsCorrect.perms", "notDupPerm.3")

# Size of the (1,1,1,1) space, by hand: apps 2 x alreadyVerified 2 x
# grantedPermGroups 3 x perms 8 x manifest 8 x cert 2 x defPerms 8 x
# systemImage 8.
EXHAUSTIVE_SIZE = 98_304

SAMPLED_BUDGET = 1_000
MUTANT_BUDGET = 200  # covers the largest targeted family (144 states)


def paper_table(clauses=CLAUSES) -> dict:
    """The paper's answers: every invariance lemma holds, the universal
    property holds, and the existential property has a witness (group
    authorization outlives the group's individual permissions)."""
    table = {f"inv/{c}/{op}": HOLDS for c in clauses for op in MUTATING}
    table[UNIVERSAL] = HOLDS
    table[EXISTENTIAL] = WITNESS
    return table


# -- mutants --------------------------------------------------------------------

def _keep_stale(component: str, transition: Callable) -> Callable:
    """A transition whose successor also keeps the pre-state's pairs of one
    mapping component.  Whenever the step rewrites an app's image there, the
    successor holds two pairs keyed by that app."""
    def apply(sp, sys, action):
        out = transition(sp, sys, action)
        if not out.ok:
            return out
        stale = get_component(sys, component) | get_component(out.system, component)
        return dataclasses.replace(
            out, system=with_component(out.system, component, stale))
    return apply


def _grant_auto_skip_group(sp, sys, action: Action) -> Outcome:
    return grant_auto(sp, sys, action.perm, action.app, skip=(5,))


@dataclass(frozen=True)
class Suite:
    label: str
    expected: dict                   # query id -> verdict kind
    steps: dict                      # op id -> (sp, sys, action) -> Outcome
    operations: Optional[dict] = None
    clauses: Optional[tuple[InvariantClause, ...]] = None


def _default_steps() -> dict:
    return {op: step for op in MUTATING}


def _mutant(label: str, op_id: str, transition: Callable, broken: str) -> Suite:
    ops = default_operations()
    ops[op_id] = dataclasses.replace(ops[op_id], apply=transition)
    steps = _default_steps()
    steps[op_id] = transition
    expected = paper_table()
    expected[broken] = CEX
    return Suite(label, expected, steps, operations=ops)


def mutant_suites() -> tuple[Suite, ...]:
    """Three fixed mutants, each breaking exactly one query by design.

    * grantAuto without its group conjunct grants a dangerous permission of
      a group the user never authorized: the universal property fails.
      The conjunct never guarded a mapping's shape, so every invariance
      query still holds, and the existential witness survives.
    * revoke keeping the app's old granted set: every enabled revoke
      shrinks that set, so the successor has two perms pairs for the app.
    * revokeGroup keeping the app's old group set: every enabled
      revokeGroup shrinks it, so grantedPermGroups gets a second pair.
    """
    return (
        _mutant("grantAuto-skip-group", "grantAuto", _grant_auto_skip_group,
                UNIVERSAL),
        _mutant("revoke-stale-perms", "revoke", _keep_stale("perms", step),
                "inv/allMapsCorrect.perms/revoke"),
        _mutant("revokeGroup-stale-groups", "revokeGroup",
                _keep_stale("grantedPermGroups", step),
                "inv/allMapsCorrect.grantedPermGroups/revokeGroup"),
    )


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    apps_perms_grps_maxcard: tuple
    budget: int
    exhaustive: bool                 # every holds verdict enumerates the space
    via_cli: bool                    # run through permcheck.cli.main
    suites: Callable[[], tuple[Suite, ...]]

    def bounds(self, seed: int) -> Bounds:
        a, p, g, mc = self.apps_perms_grps_maxcard
        return Bounds(a, p, g, mc, budget=self.budget, seed=seed)

    def cli_argv(self, seed: int) -> list[str]:
        a, p, g, mc = self.apps_perms_grps_maxcard
        return ["verify", "--suite", "all", "--apps", str(a), "--perms", str(p),
                "--grps", str(g), "--maxcard", str(mc),
                "--budget", str(self.budget), "--seed", str(seed),
                "--format", "json"]

    def holds_states(self) -> int:
        """statesExamined of every conclusive clean sweep."""
        return EXHAUSTIVE_SIZE if self.exhaustive else self.budget


def _sampled_suites():
    return (Suite("verify", paper_table(), _default_steps()),)


def _exhaustive_suites():
    by_id = {c.id: c for c in standard_clauses()}
    return (Suite("slice", paper_table(EXHAUSTIVE_SLICE), _default_steps(),
                  clauses=tuple(by_id[c] for c in EXHAUSTIVE_SLICE)),)


WORKLOADS = {
    w.name: w for w in (
        # The CLI verify sweep at the acceptance bounds.  The space is
        # sampled, so per-query decode and clause evaluation dominate.
        Workload("sampled-2222", (2, 2, 2, 2), SAMPLED_BUDGET,
                 exhaustive=False, via_cli=True, suites=_sampled_suites),
        # Every query enumerates the whole space; decode hits its caches,
        # so clauses, kernel and operations dominate.
        Workload("exhaustive-1111", (1, 1, 1, 1), EXHAUSTIVE_SIZE,
                 exhaustive=True, via_cli=False, suites=_exhaustive_suites),
        # Counterexamples within a few states at a small budget, so
        # per-query setup, recheck and emission carry weight.
        Workload("mutants-2222", (2, 2, 2, 2), MUTANT_BUDGET,
                 exhaustive=False, via_cli=False, suites=mutant_suites),
    )
}

"""Executable Android-style permission model with a bounded verifier.

The package splits into a ground set/relation kernel (:mod:`~permcheck.kernel`),
the model's domain types and serialization (:mod:`~permcheck.model`), the
validity clauses (:mod:`~permcheck.invariants`), the state transitions
(:mod:`~permcheck.operations`), bounded state generation
(:mod:`~permcheck.statespace`) and the query engine
(:mod:`~permcheck.verifier`).  ``permcheck.cli`` is the command-line front end.
"""

from .invariants import check_clauses, standard_clauses, valid_state
from .model import (
    Environment,
    Manifest,
    Perm,
    State,
    SysImgApp,
    System,
    emit_state,
    parse_state,
)
from .operations import Action, Outcome, default_operations, grant_auto, step
from .statespace import Bounds
from .verifier import Report, Verdict, check_query, recheck, run_suite

__version__ = "0.1.0"

__all__ = [
    "Action", "Bounds", "Environment", "Manifest", "Outcome", "Perm",
    "Report", "State", "SysImgApp", "System", "Verdict", "check_clauses",
    "check_query", "default_operations", "emit_state", "grant_auto",
    "parse_state", "recheck", "run_suite", "standard_clauses", "step",
    "valid_state", "__version__",
]

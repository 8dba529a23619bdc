"""The kill matrix: every model fault of the catalogue (``mutants``) through
``run_suite("all")`` at two bounds, both exhaustive.  A fault that gains or
loses a killer fails it, and so does an equivalent fault whose verdicts
move at all."""

import json

import pytest

from mutants import FAULTS, registry
from permcheck.statespace import Bounds
from permcheck.verifier import run_suite, verdict_to_doc

MATRIX_BOUNDS = {"1111": Bounds(1, 1, 1, 1), "2111": Bounds(2, 1, 1, 1, budget=6_834_375)}


def sections(verdicts) -> str:
    return json.dumps([verdict_to_doc(v) for v in verdicts], indent=2)


def test_every_fault_is_killed_equivalent_or_open():
    rows = [(bool(f.kills), f.equivalent, f.open is not None) for f in FAULTS.values()]
    assert all(sum(row) == 1 for row in rows)
    assert [sum(column) for column in zip(*rows)] == [5, 6, 11]


@pytest.mark.parametrize("bounds", MATRIX_BOUNDS.values(), ids=MATRIX_BOUNDS)
def test_each_fault_is_killed_by_its_recorded_queries(bounds):
    # a query kills a fault when its verdict kind differs from the one it
    # gets on the registry
    default = run_suite("all", bounds).verdicts
    killed = {}
    for name, fault in FAULTS.items():
        verdicts = run_suite("all", bounds, registry(name)).verdicts
        assert all(v.enumerated for v in verdicts), name
        killed[name] = {v.query_id for v, d in zip(verdicts, default) if v.kind != d.kind}
        if fault.equivalent:
            assert sections(verdicts) == sections(default), name
    assert killed == {name: fault.kills for name, fault in FAULTS.items()}

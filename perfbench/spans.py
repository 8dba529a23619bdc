"""Spans recorded from outside the program, around calls into each layer.

A span has a name, a start, an end and a parent (the span open when it
began).  Fine-grained spans (millions per run) are folded into per-name
counters as they close: calls, total time, and self time, which is the
span's duration minus the time its child spans cover.  Spans named in
``KEPT`` are also kept whole, in memory, for per-query percentiles.

Every wrapper returns the real function's result.  They get in through
``run_suite``'s ``operations=``/``clauses=`` parameters and through module
attributes; ``install`` must run before the workload and the process ends
after it, so nothing is ever restored.
"""

from __future__ import annotations

import dataclasses
import json
import types
from time import perf_counter

import permcheck.cli
import permcheck.invariants
import permcheck.verifier

KEPT = ("verifier.check_query",)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, start, child_s]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.kept: list[tuple] = []   # (name, start, end, parent name)
        self.counts: dict[str, int] = {}
        self.last_successor = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, calls: int = 1) -> None:
        end = perf_counter()
        name, start, child = frame
        dur = end - start
        self.stack.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += dur
        st[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if name in KEPT:
            self.kept.append((name, start, end, parent[0] if parent else None))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
        return traced

    def wrap_iter(self, name: str, fn):
        """Candidate generators do their work lazily, so each ``next`` is a
        span; one call of ``fn`` counts once."""
        def traced(*args):
            it = iter(fn(*args))
            self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1
            while True:
                frame = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, calls=0)
                yield item
        return traced

    # -- registries passed to run_suite -------------------------------------

    def operations(self, ops: dict) -> dict:
        def traced_apply(apply):
            apply = self.wrap("operations.apply", apply)

            def run(sp, sys, action):
                out = apply(sp, sys, action)
                if out.ok:
                    self.count("apply.ok")
                    self.last_successor = out.system
                return out
            return run
        return {k: dataclasses.replace(
                    op, apply=traced_apply(op.apply),
                    candidates=self.wrap_iter("operations.candidates", op.candidates))
                for k, op in ops.items()}

    def clauses(self, clauses) -> tuple:
        def traced_eval(c):
            family = c.id.split(".")[0]
            ev = self.wrap(f"invariants.{family}", c.eval)

            def run(sys):
                held = ev(sys)
                # a state that is not the last successor is a hypothesis
                if sys is not self.last_successor:
                    self.count("hypothesis.evals")
                    self.count("hypothesis.held", bool(held))
                return held
            return run
        return tuple(dataclasses.replace(c, eval=traced_eval(c)) for c in clauses)


def install(tracer: Tracer) -> None:
    """Wrap the module attributes through which the verifier reaches each
    layer.  ``run_suite`` callers pass traced registries themselves."""
    v = permcheck.verifier
    real_space = v.SystemSpace

    def traced_space(bounds):
        space = tracer.wrap("statespace.space_build", real_space)(bounds)
        space.unrank = tracer.wrap("statespace.unrank", space.unrank)
        return space

    v.SystemSpace = traced_space
    v.targeted_states = tracer.wrap("statespace.targeted_states", v.targeted_states)
    v.recheck = tracer.wrap("verifier.recheck", v.recheck)
    v.check_query = tracer.wrap("verifier.check_query", v.check_query)
    v.state_to_doc = tracer.wrap("model.state_to_doc", v.state_to_doc)
    v.Report.to_doc = tracer.wrap("model.emit", v.Report.to_doc)
    permcheck.invariants.forall_in = tracer.wrap(
        "kernel.forall_in", permcheck.invariants.forall_in)
    permcheck.cli.json = types.SimpleNamespace(
        dumps=tracer.wrap("model.emit", json.dumps),
        loads=json.loads, JSONDecodeError=json.JSONDecodeError)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, verdicts: list) -> dict:
    """Per-iteration per-layer values from one traced run of a workload."""
    def st(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    c = tracer.counts
    evals = st("invariants.allMapsCorrect")[0] + st("invariants.notDupPerm")[0]
    return {
        "statespace.unrank.calls": st("statespace.unrank")[0],
        "statespace.unrank.self_s": st("statespace.unrank")[2],
        "statespace.targeted_states.calls": st("statespace.targeted_states")[0],
        "statespace.targeted_states.self_s": st("statespace.targeted_states")[2],
        "statespace.space_build_s": st("statespace.space_build")[1],
        "invariants.eval.calls": evals,
        "invariants.allMapsCorrect.self_s": st("invariants.allMapsCorrect")[2],
        "invariants.notDupPerm.self_s": st("invariants.notDupPerm")[2],
        "invariants.hypothesis_held_ratio": _ratio(c.get("hypothesis.held", 0),
                                                   c.get("hypothesis.evals", 0)),
        "kernel.forall_in.calls": st("kernel.forall_in")[0],
        "kernel.forall_in.self_s": st("kernel.forall_in")[2],
        "operations.candidates.calls": st("operations.candidates")[0],
        "operations.candidates.self_s": st("operations.candidates")[2],
        "operations.apply.calls": st("operations.apply")[0],
        "operations.apply.self_s": st("operations.apply")[2],
        "operations.apply.ok_ratio": _ratio(c.get("apply.ok", 0),
                                            st("operations.apply")[0]),
        "verifier.check_query.self_s": st("verifier.check_query")[2],
        "verifier.recheck.calls": st("verifier.recheck")[0],
        "verifier.recheck.self_s": st("verifier.recheck")[2],
        "verifier.exhaustive_share": _ratio(sum(v["exhaustive"] for v in verdicts),
                                            len(verdicts)),
        "model.state_to_doc.calls": st("model.state_to_doc")[0],
        "model.emit.self_s": st("model.emit")[2],
        "cli.main.self_s": st("cli.main")[2],
    }


def query_seconds(tracer: Tracer) -> list[float]:
    return [end - start for name, start, end, _ in tracer.kept
            if name == "verifier.check_query"]


"""Layer spans and solver counters, recorded from outside the program.

``Tracer.installed()`` replaces each layer's public function at the name
its calling module imported it under (``trimarket.scenarios.solve_qp``,
``trimarket.qp.splu``, ...) with a wrapper that records a span, and
restores the originals on exit.  Untraced runs never call it, so they
run the program unmodified.

A span is (id, name, start, end, parent id, thread id, run id).  Spans
stay in memory until ``write``.  Worker threads start with an empty
stack; their top-level spans take the main thread's innermost open span
as parent, so work a call hands to a thread pool hangs under that call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

#: bytes per stored LU entry: one float64 value plus one int32 row index
#: (an estimate from the fill count, not a measurement)
LU_ENTRY_BYTES = 12


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int


class _TracedFactor:
    """A SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("qp.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _problem_key(p) -> str:
    h = hashlib.sha1()
    for arr in (p.h_diag, p.f, p.a_eq.data, p.a_eq.indices, p.a_eq.indptr, p.b_eq, p.lb, p.ub,
                p.coup.data, p.coup.indices, p.coup.indptr, p.coup_rhs):
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._counts: Counter = Counter()
        self._problems: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        tail = (stack or self._main_stack)[-1:]  # one atomic read of the innermost span
        parent = tail[0] if tail else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), self.run))

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self._counts[key] += amount

    def start_run(self, run: int) -> None:
        """Begin a new round: later spans carry ``run`` and counters restart."""
        self.run = run
        self._counts = Counter()
        self._problems = set()

    # -- wrappers ----------------------------------------------------------

    @contextmanager
    def installed(self):
        import trimarket.analysis as analysis
        import trimarket.cli as cli
        import trimarket.qp as qp
        import trimarket.scenarios as scenarios

        saved = []

        def wrap(module, attr, before=None, after=None):
            orig = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if before:
                    before(args)
                with self.span(name):
                    result = orig(*args, **kwargs)
                return after(args, result) if after else result

            saved.append((module, attr, orig))
            setattr(module, attr, wrapper)

        def written(args, result):
            self.count("bytes_written", os.path.getsize(args[0]))
            return result

        def solved(args, result):
            self.count("iterations", result.iterations)
            self.count(f"status.{result.status}")
            return result

        def problem_seen(args):
            key = _problem_key(args[0])
            with self._lock:
                self._problems.add(key)

        def factored(args, lu):
            # entries of the L and U matrices; SuperLU's own ``nnz`` also counts
            # the padding inside its supernodes
            self.count("lu_fill_nnz", lu.L.nnz + lu.U.nnz)
            return _TracedFactor(lu, self)

        wrap(cli, "main")
        for attr in ("load_config", "load_market_csv", "run_charts", "save_charts",
                     "run_scenario"):
            wrap(cli, attr)
        for attr in ("save_plan_csv", "save_duals_csv", "save_json"):
            wrap(cli, attr, after=written)
        for module in (scenarios, analysis):
            wrap(module, "validate_config")
            wrap(module, "assemble_qp")
            wrap(module, "solve_qp", before=problem_seen, after=solved)
        for attr in ("recover_plan", "core_reports", "envelope_check", "rps_priority_check"):
            wrap(scenarios, attr)
        wrap(qp, "splu", after=factored)
        wrap(qp, "linprog")
        try:
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    # -- per-round metrics -------------------------------------------------

    def run_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current round (see ``metrics.PER_LAYER``)."""
        spans = [s for s in self.spans if s.run == self.run]
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append(s)

        def total(*names):
            return sum(s.end - s.start for n in names for s in by_name[n])

        def calls(*names):
            return sum(len(by_name[n]) for n in names)

        def self_time(s):
            covered = sum(c.end - c.start for c in children[s.id] if c.thread == s.thread)
            return (s.end - s.start) - covered

        solves = ("scenarios.solve_qp", "analysis.solve_qp")
        n_solves = calls(*solves)
        solve_s = total(*solves)
        factor_s, lu_solve_s, probe_s = total("qp.splu"), total("qp.lu_solve"), total("qp.linprog")
        n_factor = calls("qp.splu")
        c = self._counts
        return {
            "config_io.read_s": total("cli.load_config", "cli.load_market_csv"),
            "config_io.write_s": total("cli.save_plan_csv", "cli.save_duals_csv", "cli.save_json"),
            "config_io.bytes_written": c["bytes_written"],
            "svg.render_s": total("cli.run_charts"),
            "svg.write_s": total("cli.save_charts"),
            "model.validate_s": total("scenarios.validate_config", "analysis.validate_config"),
            "model.assemble_s": total("scenarios.assemble_qp", "analysis.assemble_qp"),
            "model.assemble_calls": calls("scenarios.assemble_qp", "analysis.assemble_qp"),
            "model.recover_s": total("scenarios.recover_plan"),
            "qp.solve_calls": n_solves,
            "qp.solve_s": solve_s,
            "qp.distinct_problems": len(self._problems),
            "qp.useful_ratio": len(self._problems) / n_solves if n_solves else 0.0,
            "qp.iterations": c["iterations"],
            "qp.status.optimal": c["status.optimal"],
            "qp.status.infeasible": c["status.infeasible"],
            "qp.status.iteration_limit": c["status.iteration_limit"],
            "qp.factorizations": n_factor,
            "qp.factor_s": factor_s,
            "qp.lu_fill_nnz": c["lu_fill_nnz"],
            "qp.lu_fill_nnz_per_factorization": c["lu_fill_nnz"] / n_factor if n_factor else 0.0,
            "qp.lu_bytes": c["lu_fill_nnz"] * LU_ENTRY_BYTES,
            "qp.lu_solves": calls("qp.lu_solve"),
            "qp.lu_solve_s": lu_solve_s,
            "qp.probe_calls": calls("qp.linprog"),
            "qp.probe_s": probe_s,
            "qp.other_s": solve_s - factor_s - lu_solve_s - probe_s,
            "analysis.core_s": total("scenarios.core_reports"),
            "analysis.envelope_s": total("scenarios.envelope_check"),
            "analysis.priority_s": total("scenarios.rps_priority_check"),
            "analysis.solve_calls": calls("analysis.solve_qp"),
            "scenarios.run_scenario_s": total("cli.run_scenario"),
            "cli.self_s": sum(self_time(s) for s in by_name["cli.main"]),
        }

    def write(self, path) -> None:
        """Write every recorded span as JSON, one list per field."""
        fields = Span._fields
        payload = {f: [getattr(s, f) for s in self.spans] for f in fields}
        with open(path, "w") as fh:
            json.dump(payload, fh)

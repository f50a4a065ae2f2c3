"""Every metric the benchmark reports, with the claim each one supports.

``END_TO_END`` come from untraced runs (``--trace 0``); ``PER_LAYER``
from traced runs (``--trace 1``).  For each per-layer metric, ``moves``
names the end-to-end metric it should move and ``on`` the workloads
where it should; later changes cite a claim by these names.
``BENCHMARK.json`` lists the same names, units and directions.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fresh interpreter: import trimarket.cli, load config and CSV (median of 5 starts)"),
    EndToEnd("wall_norm_s", "s", "lower", 0.25,
             "one round of main([...]) calls after an untimed warm-up, divided by the "
             "reference block timed right after it, times REF_NOMINAL_S: median over rounds, "
             "averaged over the run's input sets (raw median and tail printed beside it)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "peak resident memory of the workload process (ru_maxrss)"),
)

_ALL = "all"
_WRITERS = "week_full, month_solve"

PER_LAYER = (
    PerLayer("config_io.read_s", "s", "lower", "setup_s", _ALL),
    PerLayer("config_io.write_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("config_io.bytes_written", "B", "lower", "wall_norm_s", _WRITERS),
    PerLayer("svg.render_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("svg.write_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("model.validate_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("model.assemble_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("model.assemble_calls", "count", "lower", "wall_norm_s", _WRITERS),
    PerLayer("model.recover_s", "s", "lower", "wall_norm_s", _WRITERS),
    PerLayer("qp.solve_calls", "count", "lower", "wall_norm_s", _ALL),
    PerLayer("qp.solve_s", "s", "lower", "wall_norm_s", _ALL),
    PerLayer("qp.distinct_problems", "count", "lower", "wall_norm_s", "week_full"),
    PerLayer("qp.useful_ratio", "ratio", "higher", "wall_norm_s", "week_full"),
    PerLayer("qp.iterations", "count", "lower", "wall_norm_s", "week_infeasible"),
    PerLayer("qp.status.optimal", "count", "higher", "fail_ratio", _ALL),
    PerLayer("qp.status.infeasible", "count", "lower", "fail_ratio", _ALL),
    PerLayer("qp.status.iteration_limit", "count", "lower", "fail_ratio", _ALL),
    PerLayer("qp.factorizations", "count", "lower", "wall_norm_s, peak_rss_mb", "month_solve"),
    PerLayer("qp.factor_s", "s", "lower", "wall_norm_s, peak_rss_mb", "month_solve"),
    PerLayer("qp.lu_fill_nnz", "count", "lower", "wall_norm_s, peak_rss_mb", "month_solve"),
    PerLayer("qp.lu_fill_nnz_per_factorization", "count", "lower", "wall_norm_s, peak_rss_mb",
             "month_solve"),
    PerLayer("qp.lu_bytes", "B", "lower", "wall_norm_s, peak_rss_mb", "month_solve"),
    PerLayer("qp.lu_solves", "count", "lower", "wall_norm_s", "month_solve"),
    PerLayer("qp.lu_solve_s", "s", "lower", "wall_norm_s", "month_solve"),
    PerLayer("qp.probe_calls", "count", "lower", "wall_norm_s", "week_infeasible"),
    PerLayer("qp.probe_s", "s", "lower", "wall_norm_s", "week_infeasible"),
    PerLayer("qp.other_s", "s", "lower", "wall_norm_s", "week_full"),
    PerLayer("analysis.core_s", "s", "lower", "wall_norm_s", "week_full"),
    PerLayer("analysis.envelope_s", "s", "lower", "wall_norm_s", "week_full"),
    PerLayer("analysis.priority_s", "s", "lower", "wall_norm_s", "week_full"),
    PerLayer("analysis.solve_calls", "count", "lower", "wall_norm_s", "week_full"),
    PerLayer("scenarios.run_scenario_s", "s", "lower", "wall_norm_s", _ALL),
    PerLayer("cli.self_s", "s", "lower", "wall_norm_s", _ALL),
    PerLayer("proc.cpu_s", "s", "lower", "wall_norm_s", _ALL),
    PerLayer("trace.wall_s", "s", "lower", "wall_norm_s (raw round time, traced)", _ALL),
)

#: counts that must repeat exactly between two traced runs of one workload
EXACT_COUNTS = ("qp.solve_calls", "qp.iterations", "qp.factorizations", "qp.lu_fill_nnz",
                "qp.lu_solves", "qp.probe_calls")

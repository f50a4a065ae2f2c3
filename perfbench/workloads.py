"""The three benchmark workloads and the inputs each one writes.

Every input comes from ``synth_data`` with the benchmark's seed and is
written as a config file plus a market CSV, so the program under test
sees only files, as a command-line user's program would.

Each workload runs in one thread, as the host-speed reference in
``run.py`` does: on two shared cores a thread pool's round does not
follow a one-thread reference, so the 21-point sweep and the inventory
matrix are not benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

INFEASIBLE_DIAGNOSIS = "REC retirement floor"

#: input sets per untraced run.  A solve's time depends on its data (at
#: T=672 the LU fill under partial pivoting, and with it the solve time,
#: varies by up to a half between seeds), so the end-to-end time is taken
#: over rounds on several seeded inputs, not one.
INPUT_SETS = 5


def input_seeds(seed: int) -> list[int]:
    """The seeds of one run's input sets; the first is the run's own seed."""
    return [seed + 1000 * i for i in range(INPUT_SETS)]


@dataclass(frozen=True)
class Call:
    """One ``trimarket.cli.main`` invocation and what it must produce."""

    argv: tuple[str, ...]
    exit_code: int
    out_dir: Path | None           # removed before each call
    result_files: tuple[str, ...]  # must be byte-identical on every call
    stderr_has: str = ""           # text the call must print to stderr


@dataclass(frozen=True)
class Inputs:
    config: Path
    data: Path
    calls: tuple[Call, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    horizon: int

    def config(self):
        from trimarket.model import default_config

        cfg = default_config(self.horizon)
        if self.name == "week_infeasible":
            cfg = cfg.with_inventories(rec=False, cer=True).with_caps(r_cap=0.0).with_policy(r=1.0)
        return cfg

    def prepare(self, work: Path, seed: int) -> Inputs:
        """Write this workload's config and CSV under ``work``; return the calls."""
        from trimarket.config_io import save_config, save_market_csv
        from trimarket.scenarios import SynthSpec, synth_data

        work.mkdir(parents=True)
        spec = SynthSpec(seed=seed, horizon=self.horizon)
        cfg_path, data_path = work / "model.cfg", work / "market.csv"
        save_config(cfg_path, self.config(), spec)
        save_market_csv(data_path, synth_data(spec))
        io = ("--config", str(cfg_path), "--data", str(data_path))
        out = work / "out"
        run_files = ("plan.csv", "duals.csv", "breakdown.json", "manifest.json")
        if self.name == "week_full":
            calls = (Call(("solve", *io, "--out", str(out), "--properties", "full"), 0, out,
                          run_files + ("properties.json",)),)
        elif self.name == "month_solve":
            calls = (Call(("solve", *io, "--out", str(out), "--properties", "none"), 0, out,
                          run_files),)
        else:
            calls = (Call(("solve", *io, "--out", str(out)), 2, out, (), INFEASIBLE_DIAGNOSIS),)
        return Inputs(cfg_path, data_path, calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "week_full",
            "T=168 solve --properties full with charts: 7 solves of 3 distinct problems; "
            "KKT rebuilds, analysis, writers and SVG are a visible share",
            168,
        ),
        Workload(
            "month_solve",
            "T=672 solve --properties none: one solve where sparse LU dominates; "
            "bypasses the analysis layer",
            672,
        ),
        Workload(
            "week_infeasible",
            "T=168 REC floor unmeetable: 200 IPM iterations, 201 KKT factorizations, then HiGHS "
            "probes, exit 2; "
            "polish, analysis and writers never run",
            168,
        ),
    )
}

"""Correctness checks on what each round of a workload wrote.

Every call's exit code and stderr are checked.  The first round on each
input set is also checked in full (``verify``), untimed: every problem
the round solved is re-solved in process and compared.  Later rounds on
that input set only have to reproduce its bytes.  Tolerances are the
acceptance suite's: residuals within the c01 scaled 1e-6 bounds, and
values within 1e-6 relative.  The pins hold the values the package wrote
for seed 7 when the benchmark was defined.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from workloads import Call, Inputs

RTOL = 1e-6

#: objective, mu and delta for seed 7
PINS_PATH = Path(__file__).with_name("pins_seed7.json")
PINNED_SEED = 7


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def _kkt_ok(problem, sol) -> bool:
    from trimarket.qp import OPTIMAL, kkt_residuals

    if sol.status != OPTIMAL:
        return False
    res = kkt_residuals(problem, sol)
    scale_p = 1.0 + max(float(np.max(np.abs(problem.b_eq))), float(np.max(np.abs(sol.x))))
    scale_d = 1.0 + float(np.max(np.abs(problem.f)))
    return (
        res.primal_inf <= RTOL * scale_p
        and res.dual_inf <= RTOL * scale_d
        and res.comp_gap <= RTOL * (1.0 + abs(sol.objective))
    )


def _resolve(cfg, data):
    """Solve ``cfg`` directly through the library; return (objective, mu, delta) or None."""
    from trimarket.analysis import named_duals
    from trimarket.model import ModelWarning, assemble_qp, validate_config
    from trimarket.qp import solve_qp

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelWarning)
        model = validate_config(cfg, data)
    problem = assemble_qp(model)
    sol = solve_qp(problem)
    if not _kkt_ok(problem, sol):
        return None
    duals = named_duals(problem, sol)
    return sol.objective, duals.mu, duals.delta


def _compare(label: str, got: dict, want: dict, problems: list[str]) -> None:
    for key, value in want.items():
        if not _close(got[key], value):
            problems.append(f"{label} {key} = {got[key]!r}, expected {value!r}")


def _check_solve(name, cfg, data, out: Path, pins, problems) -> None:
    breakdown = json.loads((out / "breakdown.json").read_text())["solver"]
    with open(out / "duals.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    written = {"objective": breakdown["objective"], "mu": float(first["mu"]),
               "delta": float(first["delta"])}
    if breakdown["status"] != "optimal":
        problems.append(f"breakdown.json status {breakdown['status']!r}")
    if (out / "properties.json").exists():
        failing = json.loads((out / "properties.json").read_text())["failing"]
        if failing:
            problems.append(f"properties.json failing: {failing}")
    fresh = _resolve(cfg, data)
    if fresh is None:
        problems.append("re-solve is not optimal within the c01 residual bounds")
    else:
        _compare("re-solve", written, dict(zip(("objective", "mu", "delta"), fresh)), problems)
    if pins is not None:
        _compare("pinned", written, pins[name], problems)


def call_problems(call: Call, code: int, stderr: str) -> list[str]:
    """What is wrong with one call's exit code and stderr (empty if nothing)."""
    problems = []
    if code != call.exit_code:
        problems.append(f"{call.argv[0]} exited {code}, expected {call.exit_code}: {stderr!r}")
    if call.stderr_has not in stderr:
        problems.append(f"{call.argv[0]} stderr lacks {call.stderr_has!r}: {stderr!r}")
    return problems


def verify(workload, inputs: Inputs, seed: int) -> list[str]:
    """Check the files a successful round wrote, in full; return the problems found."""
    from trimarket.config_io import load_config, load_market_csv

    if workload.name == "week_infeasible":
        return []  # writes nothing; exit code and diagnosis are checked per call
    cfg, _ = load_config(inputs.config)
    data = load_market_csv(inputs.data)
    pins = json.loads(PINS_PATH.read_text()) if seed == PINNED_SEED else None
    problems: list[str] = []
    _check_solve(workload.name, cfg, data, inputs.config.parent / "out", pins, problems)
    return problems


def digests(inputs: Inputs) -> list[dict[str, str | None]]:
    """SHA-256 of each call's result files (None for a missing file)."""
    out = []
    for call in inputs.calls:
        files = {}
        for name in call.result_files:
            path = call.out_dir / name
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        out.append(files)
    return out


class Ledger:
    """Counts attempted and failed calls, and keeps what went wrong."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference: dict[Path, tuple[list, bool]] = {}  # config -> (digests, checked ok)

    def _note(self, problems: list[str]) -> None:
        self.problems += [p for p in problems if p not in self.problems]

    def record(self, inputs: Inputs, seed: int, results: list[tuple[int, str]]) -> None:
        """Check one round's results; the first round on ``inputs`` is checked in full."""
        per_call = [call_problems(call, code, err) for call, (code, err) in zip(inputs.calls, results)]
        for problems in per_call:
            self._note(problems)
        got = digests(inputs)
        if inputs.config not in self._reference:
            deep = [] if any(per_call) else verify(self.workload, inputs, seed)
            self._note([f"seed {seed}: {p}" for p in deep])
            self._reference[inputs.config] = (got, not deep and not any(per_call))
        want, ok = self._reference[inputs.config]
        for call, problems, g, w in zip(inputs.calls, per_call, got, want):
            if g != w:
                self._note([f"seed {seed}: {call.argv[0]} output differs from its first round"])
            self.attempted += 1
            self.failed += not ok or bool(problems) or g != w

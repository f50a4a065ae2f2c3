"""Synthetic market scenarios and batch experiments.

Provides (i) a seeded generator for forecast and price series with the
shapes the scheduling problem cares about: diurnal PV, noisy wind,
double-peaked load, three-level time-of-use electricity prices, and
certificate prices that move once per day; (ii) a one-call scenario
runner bundling solve, plan recovery, named duals, revenue breakdown and
the structural check suite; (iii) the four-way inventory enable/disable
comparison; and (iv) policy-parameter sweeps with per-point revenue
decomposition.

The default shape parameters are tuned so the stock configuration
exercises the interesting regimes: the retirement floor binds (the VPP
must buy certificates on the cheapest day), the carbon quota is always
exhausted, the thermal unit pins at either bound under every coverage
cost, and both inventories earn strictly positive arbitrage profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    CaseTable,
    NamedDuals,
    PropertyReport,
    core_reports,
    envelope_check,
    named_duals,
    rps_priority_check,
    slope_changes,
    solve_for_param,
    solve_grid,
    trade_at_cap,
)
from .model import (
    DispatchPlan,
    MarketData,
    QpProblem,
    ValidatedModel,
    ValidationError,
    VppConfig,
    assemble_qp,
    recover_plan,
    validate_config,
)
from .qp import INFEASIBLE, OPTIMAL, SolverSettings, Solution, kkt_pattern_scope, solve_qp


class SolveFailure(RuntimeError):
    """A scenario sub-solve did not reach optimality."""

    def __init__(self, status: str, message: str):
        super().__init__(message or status)
        self.status = status
        self.message = message


class InfeasibleError(SolveFailure):
    """The model has no feasible schedule; the message names the conflict."""


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the seeded series generator.

    Same seed and knobs give bit-identical series.  Electricity prices
    are a deterministic three-level time-of-use pattern; REC and CER
    prices take one uniform draw per day, repeated over the day's hours.
    Setting a noise level to zero makes the corresponding forecast series
    a clean 24h-periodic shape.
    """

    seed: int = 7
    horizon: int = 168
    wind_base: float = 25.0
    wind_amplitude: float = 10.0
    wind_phase: float = 3.0
    wind_noise: float = 3.0
    pv_peak: float = 20.0
    pv_noise: float = 1.5
    load_base: float = 30.0
    load_morning: float = 12.0
    load_evening: float = 18.0
    load_noise: float = 2.0
    price_offpeak: float = 40.0
    price_mid: float = 70.0
    price_peak: float = 300.0
    rec_price_lo: float = 12.0
    rec_price_hi: float = 30.0
    cer_price_lo: float = 18.0
    cer_price_hi: float = 42.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("wind_noise", "pv_noise", "load_noise", "price_offpeak", "price_mid", "price_peak"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0 <= self.rec_price_lo <= self.rec_price_hi):
            raise ValueError("REC price range must satisfy 0 <= lo <= hi")
        if not (0 <= self.cer_price_lo <= self.cer_price_hi):
            raise ValueError("CER price range must satisfy 0 <= lo <= hi")


# hour-of-day bands for the three TOU levels
PEAK_HOURS = frozenset(range(10, 14)) | frozenset(range(18, 22))
MID_HOURS = frozenset(range(7, 10)) | frozenset(range(14, 18)) | {22}


def synth_data(spec: SynthSpec) -> MarketData:
    """Generate market series from a spec; reproducible per seed."""
    rng = np.random.default_rng(spec.seed)
    T = spec.horizon
    t = np.arange(T)
    h = t % 24

    wind = (
        spec.wind_base
        + spec.wind_amplitude * np.sin(2.0 * np.pi * (t + spec.wind_phase) / 24.0)
        + spec.wind_noise * rng.standard_normal(T)
    )
    daylight = (h >= 6) & (h <= 18)
    pv = np.where(daylight, spec.pv_peak * np.sin(np.pi * (h - 6) / 12.0), 0.0)
    pv = pv + np.where(daylight, spec.pv_noise * rng.standard_normal(T), 0.0)
    load = (
        spec.load_base
        + spec.load_morning * np.exp(-0.5 * ((h - 8.0) / 1.5) ** 2)
        + spec.load_evening * np.exp(-0.5 * ((h - 19.0) / 2.0) ** 2)
        + spec.load_noise * rng.standard_normal(T)
    )

    pi_g = np.full(T, spec.price_offpeak)
    pi_g[np.isin(h, list(MID_HOURS))] = spec.price_mid
    pi_g[np.isin(h, list(PEAK_HOURS))] = spec.price_peak

    days = (T + 23) // 24
    rec_daily = rng.uniform(spec.rec_price_lo, spec.rec_price_hi, days)
    cer_daily = rng.uniform(spec.cer_price_lo, spec.cer_price_hi, days)
    pi_r = np.repeat(rec_daily, 24)[:T]
    pi_c = np.repeat(cer_daily, 24)[:T]

    return MarketData(
        pi_g=pi_g,
        pi_r=pi_r,
        pi_c=pi_c,
        e=np.maximum(wind, 0.0) + np.maximum(pv, 0.0),
        l=np.maximum(load, 0.0),
    )


# ---------------------------------------------------------------------------
# Revenue decomposition


@dataclass(frozen=True)
class RevenueBreakdown:
    """Profit split by market: trade revenues minus generation cost."""

    rev_g: float
    rev_r: float
    rev_c: float
    cost_g: float

    @property
    def profit(self) -> float:
        return self.rev_g + self.rev_r + self.rev_c - self.cost_g

    @classmethod
    def from_plan(cls, plan: DispatchPlan, data: MarketData, cfg: VppConfig) -> "RevenueBreakdown":
        return cls(
            rev_g=float(np.dot(data.pi_g, plan.G)),
            rev_r=float(np.dot(data.pi_r, plan.R)),
            rev_c=float(np.dot(data.pi_c, plan.C)),
            cost_g=float(np.sum(cfg.tg.a * plan.g**2 + cfg.tg.b * plan.g)),
        )

    def to_dict(self) -> dict:
        return {
            "rev_g": self.rev_g,
            "rev_r": self.rev_r,
            "rev_c": self.rev_c,
            "cost_g": self.cost_g,
            "profit": self.profit,
        }


# ---------------------------------------------------------------------------
# Scenario runner


@dataclass(frozen=True)
class ScenarioResult:
    model: ValidatedModel
    problem: QpProblem
    solution: Solution
    plan: DispatchPlan
    duals: NamedDuals
    breakdown: RevenueBreakdown
    case_tables: dict[str, CaseTable]
    reports: list[PropertyReport]

    @property
    def profit(self) -> float:
        return self.solution.objective


def _solved(cfg: VppConfig, data: MarketData, settings: SolverSettings,
            start: Solution | None = None):
    model = validate_config(cfg, data)
    problem = assemble_qp(model)
    sol = solve_qp(problem, settings, start=start)
    if sol.status == INFEASIBLE:
        raise InfeasibleError(sol.status, sol.message)
    if sol.status != OPTIMAL:
        raise SolveFailure(sol.status, sol.message)
    plan = recover_plan(sol.x, problem.layout, eta_c=cfg.ess.eta_c, eta_d=cfg.ess.eta_d)
    return model, problem, sol, plan


@kkt_pattern_scope()
def run_scenario(
    cfg: VppConfig,
    data: MarketData,
    *,
    settings: SolverSettings | None = None,
    properties: str = "core",
) -> ScenarioResult:
    """Solve one configuration and bundle plan, duals, revenue and checks.

    properties: "none" skips the check suite, "core" runs every check
    that needs no extra solve, "full" adds the envelope slopes and the
    RPS increment priority check.  Full mode solves two more problems,
    quota + 1 and r + 0.01, once each; the RPS slope and the priority
    check share the r + 0.01 solution, and every check reuses the base.
    Both are warm-started from the base solution: its active set, polished
    on the shifted problem, answers when it meets the solver tolerances,
    and otherwise the shifted problem is solved cold.
    """
    if properties not in ("none", "core", "full"):
        raise ValueError(f"unknown properties mode {properties!r}")
    settings = settings or SolverSettings()
    model, problem, sol, plan = _solved(cfg, data, settings)
    duals = named_duals(problem, sol)
    breakdown = RevenueBreakdown.from_plan(plan, data, cfg)

    tables: dict[str, CaseTable] = {}
    reports: list[PropertyReport] = []
    if properties in ("core", "full"):
        tables, reports = core_reports(problem, sol, plan, model)
    if properties == "full":
        quota = solve_for_param(model, "quota", model.quota + 1.0, settings, start=sol)
        reports.append(envelope_check(model, (problem, sol), quota, 1.0, "quota"))
        if cfg.policy.r + 0.01 <= 1.0:
            rps = solve_for_param(model, "r", cfg.policy.r + 0.01, settings, start=sol)
            reports.append(envelope_check(model, (problem, sol), rps, 0.01, "rps"))
            reports.append(rps_priority_check(model, (problem, sol), rps, 0.01))
        else:
            note = "no headroom above the RPS level"
            for prop_id in ("rps_envelope_slope", "rps_increment_priority"):
                reports.append(PropertyReport(prop_id, True, skipped=True, note=note))

    return ScenarioResult(model, problem, sol, plan, duals, breakdown, tables, reports)


# ---------------------------------------------------------------------------
# Inventory matrix

MATRIX_CELLS = ("none", "cer_only", "rec_only", "both")


@dataclass(frozen=True)
class InventoryMatrixResult:
    """Four-way comparison of inventory enablement.

    improvements_pct is measured against the all-disabled cell.  The
    consistency flags record whether electricity revenue and generation
    cost came out identical (1e-6 relative) across the four cells, which
    is expected when no trade cap binds.
    """

    breakdowns: dict[str, RevenueBreakdown]
    improvements_pct: dict[str, float]
    rev_g_consistent: bool
    cost_g_consistent: bool
    caps_slack: bool

    def to_dict(self) -> dict:
        return {
            "breakdowns": {k: v.to_dict() for k, v in self.breakdowns.items()},
            "improvements_pct": dict(self.improvements_pct),
            "rev_g_consistent": self.rev_g_consistent,
            "cost_g_consistent": self.cost_g_consistent,
            "caps_slack": self.caps_slack,
        }


def _cap_slack(plan: DispatchPlan, cfg: VppConfig) -> bool:
    caps = ((plan.G, cfg.caps.g_cap), (plan.R, cfg.caps.r_cap), (plan.C, cfg.caps.c_cap))
    return not any(np.any(trade_at_cap(series, cap)) for series, cap in caps)


def _consistent(values: list[float]) -> bool:
    lo, hi = min(values), max(values)
    return hi - lo <= 1e-6 * (1.0 + max(abs(lo), abs(hi)))


def inventory_matrix(
    cfg: VppConfig, data: MarketData, settings: SolverSettings | None = None
) -> InventoryMatrixResult:
    """Solve the four inventory on/off combinations and compare profits.

    The both-enabled cell is solved first, and its solution starts the
    other three: each differs from it only in the inventory bounds, so its
    active set, polished on the cell, usually answers it (see solve_qp).
    """
    if not (cfg.rec_inventory.enabled and cfg.cer_inventory.enabled):
        raise ValidationError(
            "inventory matrix starts from a configuration with both inventories enabled")
    settings = settings or SolverSettings()
    toggles = {
        "none": (False, False),
        "cer_only": (False, True),
        "rec_only": (True, False),
        "both": (True, True),
    }
    cfgs = {cell: cfg.with_inventories(rec=rec_on, cer=cer_on)
            for cell, (rec_on, cer_on) in toggles.items()}
    _, _, both, plan = _solved(cfgs["both"], data, settings)
    plans = {"both": plan}
    for cell in MATRIX_CELLS:
        if cell != "both":
            plans[cell] = _solved(cfgs[cell], data, settings, start=both)[3]
    breakdowns = {cell: RevenueBreakdown.from_plan(plans[cell], data, cfgs[cell])
                  for cell in MATRIX_CELLS}
    slack = all(_cap_slack(plans[cell], cfgs[cell]) for cell in MATRIX_CELLS)

    base = breakdowns["none"].profit
    denom = max(abs(base), 1e-12)
    improvements = {cell: 100.0 * (breakdowns[cell].profit - base) / denom for cell in MATRIX_CELLS}
    return InventoryMatrixResult(
        breakdowns=breakdowns,
        improvements_pct=improvements,
        rev_g_consistent=_consistent([b.rev_g for b in breakdowns.values()]),
        cost_g_consistent=_consistent([b.cost_g for b in breakdowns.values()]),
        caps_slack=slack,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    """One grid point; a failed point carries no revenue and no multipliers."""

    value: float
    status: str
    breakdown: RevenueBreakdown | None
    mu: float | None
    delta: float | None
    message: str = ""

    def to_dict(self) -> dict:
        d = {"value": self.value, "status": self.status}
        if self.breakdown:
            d.update(mu=self.mu, delta=self.delta, **self.breakdown.to_dict())
        if self.message:
            d["message"] = self.message
        return d


@dataclass(frozen=True)
class SweepResult:
    param: str
    points: list[SweepPoint]
    breakpoints: dict[str, list[int]]

    CSV_FIELDS = ("value", "status", "rev_g", "rev_r", "rev_c", "cost_g", "profit", "mu", "delta")

    def profits(self) -> np.ndarray:
        return np.array([p.breakdown.profit if p.breakdown else np.nan for p in self.points])

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "points": [p.to_dict() for p in self.points],
            "breakpoints": {k: list(v) for k, v in self.breakpoints.items()},
        }


def parameter_sweep(
    cfg: VppConfig,
    data: MarketData,
    param: str,
    grid,
    settings: SolverSettings | None = None,
) -> SweepResult:
    """Re-solve along a policy-parameter grid; one row per grid value.

    Failed points are recorded with their status and the sweep moves on.
    The points are solved, and the grid checked, by ``solve_grid``.
    """
    grid = [float(v) for v in np.asarray(grid, dtype=float).ravel()]
    model = validate_config(cfg, data)

    points = []
    for v, (problem, sol) in zip(grid, solve_grid(model, param, grid, settings)):
        if sol.status != OPTIMAL:
            points.append(SweepPoint(v, sol.status, None, None, None, message=sol.message or sol.status))
            continue
        plan = recover_plan(sol.x, problem.layout, eta_c=cfg.ess.eta_c, eta_d=cfg.ess.eta_d)
        breakdown = RevenueBreakdown.from_plan(plan, data, cfg)
        duals = named_duals(problem, sol)
        points.append(SweepPoint(v, OPTIMAL, breakdown, duals.mu, duals.delta))
    return SweepResult(param=param, points=points, breakpoints=_trend_breaks(grid, points))


def _trend_breaks(grid: list[float], points: list[SweepPoint]) -> dict[str, list[int]]:
    """Grid indices where a revenue component's slope changes materially."""
    comps = ("rev_g", "rev_r", "rev_c", "cost_g", "profit")
    ok = [i for i, p in enumerate(points) if p.breakdown is not None]
    rows = [[getattr(points[i].breakdown, comp) for comp in comps] for i in ok]
    slopes, changes = slope_changes([grid[i] for i in ok], np.reshape(rows, (len(ok), len(comps))))
    scale = 1.0 + np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))
    marked = np.abs(changes) > 1e-6 * scale
    return {comp: [ok[k + 1] for k in np.flatnonzero(marked[:, j])] for j, comp in enumerate(comps)}

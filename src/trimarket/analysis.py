"""Structural checks on solved schedules.

The solver returns anonymous row/column multipliers; here they get their
market names (hourly balance shadow prices, the RPS and quota shadow
prices, per-bound congestion terms) and the schedule is put through a
battery of consistency checks:

* hourly trading-regime classification for the REC and CER markets, with
  the shadow-price/price identity evaluated per hour,
* biconditional links between a positive coupling multiplier and slack
  trading hours,
* shadow-price extremal identities under uncapped trading (quota price =
  dearest CER day, RPS price = cheapest REC day, purchases only on
  cheapest days),
* affine response of the schedule to the policy parameters inside an
  unchanged active set, with breakpoint detection,
* finite-difference envelope slopes against the multipliers,
* the retirement-before-recharging priority under a small RPS increment.

Every check returns a ``PropertyReport`` that serializes to JSON with
stable field names, so report bundles can be written next to the plan
files and re-read by the CLI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    EQ_KINDS,
    ROLES,
    DispatchPlan,
    ModelWarning,
    QpProblem,
    ValidatedModel,
    ValidationError,
    assemble_qp,
    validate_config,
)
from .qp import OPTIMAL, SolverSettings, Solution, kkt_pattern_scope, solve_qp

#: threshold below which a coupling multiplier counts as zero
MULT_EPS = 1e-6

#: relative tolerance for shadow-price/price identities
IDENT_RTOL = 1e-6

#: binding-slack tolerance factor for active-set fingerprints
FINGERPRINT_RTOL = 1e-7


# ---------------------------------------------------------------------------
# Named multipliers


@dataclass(frozen=True)
class NamedDuals:
    """Solution multipliers keyed by what they price.

    All equality duals are marginal profits per unit increase of the row's
    right-hand side.  ``mu`` prices the RPS retirement floor, ``delta`` the
    carbon quota ceiling; both are nonnegative.  ``lower``/``upper`` hold
    the per-hour bound multipliers for every decision role.
    """

    mu: float
    delta: float
    lambda_g: np.ndarray
    lambda_r: np.ndarray
    lambda_c: np.ndarray
    omega: np.ndarray
    lower: dict[str, np.ndarray]
    upper: dict[str, np.ndarray]


def named_duals(problem: QpProblem, sol: Solution) -> NamedDuals:
    """Extract named multipliers from an optimal solution.

    The extraction is a bijection on the solver's dual vectors: each
    equality-row kind maps to one series, the two coupling rows map to
    (mu, delta), and the box duals are regrouped per decision role.
    """
    if sol.status != OPTIMAL:
        raise ValueError(f"named duals need an optimal solution, got status {sol.status!r}")
    T = problem.horizon
    eq = np.asarray(sol.eq_duals, dtype=float)
    if eq.shape != (problem.m_eq,):
        raise ValueError("equality dual vector does not match the problem")

    hours = np.arange(T)
    series = {kind: eq[problem.eq_row_index(kind, hours)] for kind in EQ_KINDS}
    lower = {role: problem.layout.gather(sol.ineq_duals.lower, role) for role in ROLES}
    upper = {role: problem.layout.gather(sol.ineq_duals.upper, role) for role in ROLES}
    return NamedDuals(
        mu=max(float(sol.ineq_duals.coupling[0]), 0.0),
        delta=max(float(sol.ineq_duals.coupling[1]), 0.0),
        lambda_g=series["elec_bal"],
        lambda_r=series["rec_bal"],
        lambda_c=series["cer_bal"],
        omega=series["ess_dyn"],
        lower=lower,
        upper=upper,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one structural check.

    ``holds`` refers to the asserted claim; a ``skipped`` report carries
    ``holds=True`` vacuously and explains itself in ``note``.  A failed
    check always names a witness.
    """

    prop_id: str
    holds: bool
    residual: float = 0.0
    witness: str | None = None
    note: str = ""
    skipped: bool = False

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError(f"failing report {self.prop_id!r} must name a witness")

    def to_dict(self) -> dict:
        return {
            "property": self.prop_id,
            "holds": bool(self.holds),
            "residual": float(self.residual),
            "witness": self.witness,
            "note": self.note,
            "skipped": bool(self.skipped),
        }


@dataclass(frozen=True)
class CaseTable:
    """Hourly trading-regime classification for one certificate market.

    Cases cross trade-at-cap against a positive coupling multiplier:
    1 = slack trade, zero multiplier (never rational at an optimum),
    2 = slack trade, positive multiplier, 3 = capped trade, zero
    multiplier, 4 = capped trade, positive multiplier.  The identity
    residual is the gap between the market price and its multiplier
    expression for the classified case.
    """

    market: str
    cases: np.ndarray
    at_cap: np.ndarray
    multiplier_positive: bool
    identity_residual: np.ndarray

    def counts(self) -> dict[int, int]:
        return {k: int(np.count_nonzero(self.cases == k)) for k in (1, 2, 3, 4)}

    def to_dict(self) -> dict:
        return {
            "market": self.market,
            "cases": self.cases.tolist(),
            "at_cap": self.at_cap.tolist(),
            "multiplier_positive": bool(self.multiplier_positive),
            "identity_residual": self.identity_residual.tolist(),
            "counts": {str(k): v for k, v in self.counts().items()},
        }


def trade_at_cap(trade: np.ndarray, cap: float) -> np.ndarray:
    """Hours whose |trade| reaches a finite cap, to IDENT_RTOL of the cap (1e-12 at 0)."""
    if not np.isfinite(cap):
        return np.zeros(len(trade), dtype=bool)
    tol = IDENT_RTOL * cap if cap > 0 else 1e-12
    return np.abs(trade) >= cap - tol


def _classify(trade: np.ndarray, cap: float, mult: float) -> tuple[np.ndarray, np.ndarray]:
    at_cap = trade_at_cap(trade, cap)
    pos = mult > MULT_EPS
    cases = np.where(at_cap, 3, 1) + (1 if pos else 0)
    return cases, at_cap


def _biconditional_report(
    prop_id: str, mult: float, trade: np.ndarray, cap: float, mult_name: str
) -> PropertyReport:
    # positive multiplier <=> at least one hour trades strictly inside the cap
    if not np.isfinite(cap):
        return PropertyReport(
            prop_id, True, skipped=True, note="trade cap unbounded; biconditional not applicable"
        )
    if cap == 0.0:
        # no hour can trade strictly inside a zero cap, yet the multiplier
        # may still be positive through the other certificate sources
        return PropertyReport(
            prop_id, True, skipped=True, note="trade cap is 0; biconditional not applicable"
        )
    has_slack = not bool(np.all(trade_at_cap(trade, cap)))
    positive = mult > MULT_EPS
    if positive == has_slack:
        return PropertyReport(prop_id, True, residual=float(mult))
    side = "positive multiplier but no slack hour" if positive else "slack hour but zero multiplier"
    slack = cap - np.abs(trade)
    t = int(np.argmax(slack))
    return PropertyReport(
        prop_id,
        False,
        residual=float(mult),
        witness=f"{side}; {mult_name}={mult:.6g}, max slack {slack[t]:.6g} at hour {t + 1}",
    )


def _no_case1_report(prop_id: str, cases: np.ndarray) -> PropertyReport:
    bad = np.nonzero(cases == 1)[0]
    if len(bad) == 0:
        return PropertyReport(prop_id, True)
    return PropertyReport(
        prop_id,
        False,
        residual=float(len(bad)),
        witness=f"slack trade with zero multiplier at hour {bad[0] + 1} ({len(bad)} hours total)",
    )


def _market_reports(
    market: str, ids: tuple[str, str, str], trade: np.ndarray, cap: float, mult: float,
    mult_name: str, prices: np.ndarray, predicted: np.ndarray,
) -> tuple[CaseTable, list[PropertyReport]]:
    """One market's case table and its shared reports: the price identity
    prices = predicted, the multiplier/slack biconditional and no case 1."""
    cases, at_cap = _classify(trade, cap, mult)
    resid = prices - predicted
    reports = [
        _identity_report(ids[0], resid, prices),
        _biconditional_report(ids[1], mult, trade, cap, mult_name),
        _no_case1_report(ids[2], cases),
    ]
    return CaseTable(market, cases, at_cap, mult > MULT_EPS, resid), reports


def _extremal_report(
    prop_id: str, cap: float, mult: float, mult_name: str, side: str, extreme: float, note: str
) -> PropertyReport:
    """Under uncapped trading a positive multiplier equals the `side`
    ("max" or "min") price `extreme`; otherwise skipped with `note`."""
    if not np.isfinite(cap) and mult > MULT_EPS:
        gap = abs(mult - extreme)
        ok = gap <= IDENT_RTOL * (1.0 + extreme)
        return PropertyReport(
            prop_id,
            ok,
            residual=gap,
            witness=None if ok else f"{mult_name}={mult:.9g} vs {side} price {extreme:.9g}",
        )
    return PropertyReport(prop_id, True, skipped=True, note=note)


def classify_cer_trading(
    plan: DispatchPlan, duals: NamedDuals, model: ValidatedModel
) -> tuple[CaseTable, list[PropertyReport]]:
    """Classify CER trading hours and check the quota-side properties.

    Checks performed: the per-hour price identity
    pi_C = delta - gl(c0) + gu(C) - gl(C), the multiplier/slack
    biconditional under a finite cap, absence of case 1, the
    cap-saturated-everywhere quota cover condition, and the uncapped
    extremal identity delta = max pi_C.
    """
    cap = model.config.caps.c_cap
    pi_c = model.data.pi_c
    delta = duals.delta
    table, reports = _market_reports(
        "cer",
        ("cer_price_identity", "cer_multiplier_iff_trade_slack",
         "cer_no_slack_trade_with_zero_multiplier"),
        plan.C, cap, delta, "delta", pi_c,
        delta - duals.lower["c0"] + duals.upper["C"] - duals.lower["C"],
    )

    # every hour capped with zero multiplier is only sustainable when the
    # quota can cover cap-level sales for the whole horizon
    if np.isfinite(cap) and bool(np.all(table.cases == 3)):
        total = cap * plan.horizon
        ok = total <= model.quota + IDENT_RTOL * (1.0 + model.quota)
        reports.append(
            PropertyReport(
                "cer_always_capped_needs_quota_cover",
                ok,
                residual=float(total - model.quota),
                witness=None if ok else f"cap*T={total:.6g} exceeds quota {model.quota:.6g}",
            )
        )
    else:
        reports.append(
            PropertyReport(
                "cer_always_capped_needs_quota_cover",
                True,
                skipped=True,
                note="not all hours are cap-saturated with zero multiplier",
            )
        )

    reports.append(_extremal_report(
        "cer_shadow_price_is_max_price", cap, delta, "delta", "max", float(np.max(pi_c)),
        "needs uncapped CER trading and a positive quota multiplier"))
    return table, reports


def classify_rec_trading(
    plan: DispatchPlan, duals: NamedDuals, model: ValidatedModel
) -> tuple[CaseTable, list[PropertyReport]]:
    """Classify REC trading hours and check the RPS-side properties.

    The per-hour identity is pi_R = mu + gl(r0) + gu(R) - gl(R); under
    uncapped trading with a positive RPS multiplier the extremal identity
    mu = min pi_R must hold.  Purchases land only on cheapest-price hours
    when the certificate inventory is off; with an inventory, buying above
    the floor to resell later is legitimate, so that check steps aside.
    """
    cap = model.config.caps.r_cap
    pi_r = model.data.pi_r
    mu = duals.mu
    floor = float(np.min(pi_r))
    table, reports = _market_reports(
        "rec",
        ("rec_price_identity", "rps_multiplier_iff_rec_trade_slack",
         "rec_no_slack_trade_with_zero_multiplier"),
        plan.R, cap, mu, "mu", pi_r,
        mu + duals.lower["r0"] + duals.upper["R"] - duals.lower["R"],
    )
    extremal = _extremal_report(
        "rps_shadow_price_is_min_rec_price", cap, mu, "mu", "min", floor,
        "needs uncapped REC trading and a positive RPS multiplier")
    reports.append(extremal)

    if extremal.skipped or model.config.rec_inventory.i_max > 0:
        # a live inventory buys above the floor whenever a pricier day
        # is still ahead, so only the floor-driven case is decidable
        note = extremal.note if extremal.skipped else (
            "certificate arbitrage through the inventory can buy above the floor")
        reports.append(PropertyReport("rec_purchases_at_min_price", True, skipped=True, note=note))
    else:
        buy_tol = IDENT_RTOL * (1.0 + float(np.max(np.abs(plan.R))))
        buying = np.nonzero(plan.R < -buy_tol)[0]
        off_floor = buying[pi_r[buying] > floor + IDENT_RTOL * (1.0 + floor)]
        ok = len(off_floor) == 0
        reports.append(
            PropertyReport(
                "rec_purchases_at_min_price",
                ok,
                residual=0.0 if ok else float(pi_r[off_floor[0]] - floor),
                witness=None
                if ok
                else f"bought {-plan.R[off_floor[0]]:.6g} at hour {off_floor[0] + 1} "
                f"price {pi_r[off_floor[0]]:.6g} > floor {floor:.6g}",
            )
        )
    return table, reports


def _identity_report(prop_id: str, resid: np.ndarray, prices: np.ndarray) -> PropertyReport:
    scale = 1.0 + float(np.max(prices, initial=0.0))
    worst = int(np.argmax(np.abs(resid)))
    gap = float(abs(resid[worst]))
    ok = gap <= IDENT_RTOL * scale
    return PropertyReport(
        prop_id,
        ok,
        residual=gap,
        witness=None if ok else f"identity off by {gap:.3e} at hour {worst + 1}",
    )


# ---------------------------------------------------------------------------
# Storage complementarity


def check_no_simultaneous_flow(plan: DispatchPlan, duals: NamedDuals, r: float) -> PropertyReport:
    """No hour may charge and discharge at once when the RPS floor binds.

    Uses the pre-netting overlap recorded on the plan.  With a zero RPS
    multiplier the claim says nothing; netting already repairs the
    schedule there, so the report is informational.
    """
    overlap = plan.simultaneous_flow
    worst = int(np.argmax(overlap))
    peak = float(overlap[worst])
    if duals.mu <= MULT_EPS or r <= 0.0:
        return PropertyReport(
            "ess_no_simultaneous_flow",
            True,
            residual=peak,
            skipped=True,
            note="RPS multiplier is zero; overlap removed by netting instead",
        )
    ok = peak <= 1e-7
    return PropertyReport(
        "ess_no_simultaneous_flow",
        ok,
        residual=peak,
        witness=None if ok else f"charge and discharge overlap {peak:.3e} at hour {worst + 1}",
    )


# ---------------------------------------------------------------------------
# Parametric behavior


@dataclass(frozen=True)
class AffineReport:
    """Affine-response check of the schedule along a policy-parameter grid.

    ``fingerprints`` interns each grid point's active set to a small id;
    runs of equal ids are the segments, and inside each checked segment
    the max second difference of the whole primal vector must vanish.
    ``breakpoints`` are grid indices whose fingerprint differs from the
    previous point.
    """

    param: str
    grid: np.ndarray
    multipliers: np.ndarray
    fingerprints: list[int]
    breakpoints: list[int]
    segments: list[dict]
    holds: bool

    def to_report(self) -> PropertyReport:
        checked = [s for s in self.segments if s["checked"]]
        prop_id = f"affine_in_{self.param}"
        if not checked:
            return PropertyReport(
                prop_id, True, skipped=True, note="no segment with 3+ points and a positive multiplier"
            )
        worst = max(s["max_second_diff_all"] for s in checked)
        bad = [s for s in checked if not s["holds"]]
        return PropertyReport(
            prop_id,
            not bad,
            residual=float(worst),
            witness=None if not bad else f"second difference {bad[0]['max_second_diff_all']:.3e} "
            f"in segment starting at {self.param}={self.grid[bad[0]['start']]:.6g}",
            note=f"{len(self.breakpoints)} breakpoint(s) on the grid",
        )


def _active_fingerprint(p: QpProblem, x: np.ndarray) -> bytes:
    scale = 1.0 + np.abs(x)
    lo = np.isfinite(p.lb) & (x - p.lb <= FINGERPRINT_RTOL * scale)
    up = np.isfinite(p.ub) & (p.ub - x <= FINGERPRINT_RTOL * scale)
    cslack = p.coup_rhs - p.coup @ x
    cact = cslack <= FINGERPRINT_RTOL * (1.0 + np.abs(p.coup_rhs))
    return np.packbits(np.concatenate([lo, up, cact])).tobytes()


def _moved(model: ValidatedModel, param: str, value: float) -> tuple[ValidatedModel, float | None]:
    """The model with ``param`` moved to ``value``, and its quota override."""
    if param == "quota":
        return model, float(value)
    if param not in ("r", "alpha"):
        raise ValueError(f"unknown parameter {param!r}; expected 'alpha', 'r' or 'quota'")
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{param}={value:.6g} outside [0, 1]")
    cfg = model.config.with_policy(**{param: float(value)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelWarning)
        return validate_config(cfg, model.data), None


def _solve_moved(moved: tuple[ValidatedModel, float | None], settings: SolverSettings | None,
                 start: Solution | None = None) -> tuple[QpProblem, Solution]:
    model, quota = moved
    problem = assemble_qp(model, quota_override=quota)
    return problem, solve_qp(problem, settings or SolverSettings(), start=start)


def solve_for_param(
    model: ValidatedModel, param: str, value: float, settings: SolverSettings | None = None,
    start: Solution | None = None,
) -> tuple[QpProblem, Solution]:
    """Solve the model with ``param`` ("r", "alpha" or "quota") moved to ``value``.

    r and alpha must stay in [0, 1]; the solution is returned whatever its
    status.  ``start``, an optimal solution of a neighbouring problem such
    as the unmoved model, warm-starts the solve (see ``solve_qp``).
    """
    return _solve_moved(_moved(model, param, value), settings, start)


@kkt_pattern_scope()
def solve_grid(
    model: ValidatedModel, param: str, grid, settings: SolverSettings | None = None
) -> list[tuple[QpProblem, Solution]]:
    """``solve_for_param`` at every grid value, in grid order.

    ``param`` is "r" or "alpha".  The grid is checked, and every value
    moved and validated, before the first solve, so a bad grid fails
    fast.  A grid that repeats a value, or is otherwise not strictly
    increasing, raises ValidationError: slopes are taken between
    neighbouring points (see ``slope_changes``).
    """
    if param not in ("r", "alpha"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    grid = [float(v) for v in np.asarray(grid, dtype=float).ravel()]
    if not grid:
        raise ValueError("sweep grid is empty")
    repeated = [v for i, v in enumerate(grid) if v in grid[:i]]
    if repeated:  # two points at one value leave no slope between them
        raise ValidationError(f"sweep grid repeats {param}={repeated[0]:.6g}")
    behind = [b for a, b in zip(grid, grid[1:]) if b < a]
    if behind:
        raise ValidationError(f"sweep grid must be strictly increasing: "
                              f"{param}={behind[0]:.6g} is out of order")
    moved = [_moved(model, param, v) for v in grid]
    return [_solve_moved(m, settings) for m in moved]


def affine_sensitivity(
    model: ValidatedModel,
    param: str,
    grid,
    settings: SolverSettings | None = None,
) -> AffineReport:
    """Solve along a parameter grid and test piecewise-affine response.

    Within each maximal run of identical active-set fingerprints (and a
    coupling multiplier above threshold throughout) the interior second
    differences of the entire primal vector must be zero to 1e-6 of the
    segment's value scale.
    Runs shorter than three points carry no interior point and are
    recorded unchecked.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")

    xs, prints, mults = [], [], []
    intern: dict[bytes, int] = {}
    for v, (problem, sol) in zip(grid, solve_grid(model, param, grid, settings)):
        if sol.status != OPTIMAL:
            raise RuntimeError(f"solve at {param}={v:.6g} failed: {sol.status}; {sol.message}")
        xs.append(sol.x)
        key = _active_fingerprint(problem, sol.x)
        prints.append(intern.setdefault(key, len(intern)))
        duals = named_duals(problem, sol)
        mults.append(duals.delta if param == "alpha" else duals.mu)
    xs = np.asarray(xs)
    mults = np.asarray(mults)

    breakpoints = [i for i in range(1, len(grid)) if prints[i] != prints[i - 1]]

    segments = []
    holds = True
    start = 0
    for stop in [*breakpoints, len(grid)]:
        seg = {"start": start, "stop": stop - 1, "checked": False, "holds": True, "note": ""}
        length = stop - start
        seg_mult_ok = bool(np.all(mults[start:stop] > MULT_EPS))
        if length < 3:
            seg["note"] = "fewer than 3 grid points"
        elif not seg_mult_ok:
            seg["note"] = "multiplier not positive throughout"
        else:
            seg["checked"] = True
            scale = 1.0 + float(np.max(np.abs(xs[start:stop])))
            d2_all = _max_second_diff(grid[start:stop], xs[start:stop])
            seg["max_second_diff_all"] = d2_all
            seg["scale"] = scale
            bad = d2_all > 1e-6 * scale
            seg["holds"] = not bad
            holds = holds and not bad
        segments.append(seg)
        start = stop

    return AffineReport(
        param=param,
        grid=grid,
        multipliers=mults,
        fingerprints=prints,
        breakpoints=breakpoints,
        segments=segments,
        holds=holds,
    )


def slope_changes(v, rows) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of ``rows`` between neighbouring grid values ``v``, and their changes.

    ``rows`` holds one row per grid value.  slopes[i] is
    (rows[i+1] - rows[i]) / (v[i+1] - v[i]), and changes[i] is
    slopes[i+1] - slopes[i], the change at grid point i + 1.
    """
    rows = np.asarray(rows, dtype=float)
    slopes = np.diff(rows, axis=0) / np.diff(np.asarray(v, dtype=float))[:, None]
    return slopes, np.diff(slopes, axis=0)


def _max_second_diff(v: np.ndarray, rows: np.ndarray) -> float:
    # second divided difference scaled back to plain-second-difference units
    h = np.diff(v)
    d2 = np.max(np.abs(slope_changes(v, rows)[1]), axis=1) * 0.5 * (h[:-1] + h[1:])
    return float(np.max(d2, initial=0.0))


# ---------------------------------------------------------------------------
# Envelope slopes


def envelope_check(
    model: ValidatedModel,
    base: tuple[QpProblem, Solution],
    shifted: tuple[QpProblem, Solution],
    step: float,
    target: str,
) -> PropertyReport:
    """Finite-difference profit slope against the coupling multiplier.

    ``base`` is the solved model and ``shifted`` the same model solved
    with the target moved up by `step` (see ``solve_for_param``).
    target="quota": raising the quota ceiling by `step` must raise optimal
    profit by delta per unit.  target="rps": raising the requirement level
    by `step` must change profit by -mu * sum(P_c + L) per unit.  When the
    shifted solve is not optimal, or the active set changes across the
    step so that the slope spans two regions, the check is reported as
    skipped rather than asserted.
    """
    if not 0 < step < np.inf:  # a NaN step fails both
        raise ValueError(f"step must be positive and finite, got {step!r}")
    base_problem, base_sol = base
    shifted_problem, shifted_sol = shifted
    duals = named_duals(base_problem, base_sol)

    if target == "quota":
        prop_id = "quota_envelope_slope"
        expected = duals.delta
    elif target == "rps":
        prop_id = "rps_envelope_slope"
        p_c = base_problem.layout.gather(base_sol.x, "p_c")
        expected = -duals.mu * float(np.sum(p_c) + np.sum(model.data.l))
    else:
        raise ValueError(f"unknown envelope target {target!r}; expected 'quota' or 'rps'")

    if shifted_sol.status != OPTIMAL:
        note = f"shifted solve status {shifted_sol.status} ({shifted_sol.message})"
        return PropertyReport(prop_id, True, skipped=True, note=note)
    if _active_fingerprint(base_problem, base_sol.x) != _active_fingerprint(
        shifted_problem, shifted_sol.x
    ):
        return PropertyReport(
            prop_id,
            True,
            skipped=True,
            note=f"active set changed across the step ({target} step {step:.6g}); slope spans regions",
        )

    slope = (shifted_sol.objective - base_sol.objective) / step
    gap = abs(slope - expected)
    ok = gap <= 1e-4 * (1.0 + abs(expected))
    return PropertyReport(
        prop_id,
        ok,
        residual=float(gap),
        witness=None if ok else f"slope {slope:.9g} vs multiplier prediction {expected:.9g}",
        note=f"step {step:.6g}",
    )


# ---------------------------------------------------------------------------
# RPS increment priority


def rps_priority_check(
    model: ValidatedModel,
    base: tuple[QpProblem, Solution],
    shifted: tuple[QpProblem, Solution],
    dr: float,
) -> PropertyReport:
    """A small RPS increase must be met by retiring more, not charging less.

    ``base`` is the solved model, ``shifted`` the same model solved at
    r + dr.  Applies when both storage efficiencies are 1, the RPS floor
    binds (mu above threshold), and at every hour the price geometry
    favors retirement: (pi_G - min pi_G) + r * min pi_R > (pi_R - min pi_R).
    The claim is asserted on horizon aggregates: total retirement grows by
    at least dr * sum(P_c + L) while total charging does not shrink.  A
    shifted solve that is not optimal makes the report skipped.
    """
    if not 0 < dr < np.inf:  # a NaN dr fails both
        raise ValueError(f"dr must be positive and finite, got {dr!r}")
    ess = model.config.ess
    if not (ess.eta_c == 1.0 and ess.eta_d == 1.0):
        return PropertyReport(
            "rps_increment_priority", True, skipped=True, note="needs unit charge/discharge efficiencies"
        )
    r = model.config.policy.r
    base_problem, base_sol = base
    duals = named_duals(base_problem, base_sol)
    if duals.mu <= MULT_EPS:
        return PropertyReport(
            "rps_increment_priority", True, skipped=True, note="RPS multiplier is zero at the base point"
        )

    pi_g, pi_r = model.data.pi_g, model.data.pi_r
    gain = (pi_g - pi_g.min()) + r * float(pi_r.min())
    cost = pi_r - pi_r.min()
    favored = gain > cost
    if not bool(np.all(favored)):
        k = int(np.count_nonzero(favored))
        return PropertyReport(
            "rps_increment_priority",
            True,
            skipped=True,
            note=f"retirement favored at only {k}/{len(favored)} hours; aggregate claim not asserted",
        )

    shifted_sol = shifted[1]
    if shifted_sol.status != OPTIMAL:
        note = f"shifted solve status {shifted_sol.status} ({shifted_sol.message})"
        return PropertyReport("rps_increment_priority", True, skipped=True, note=note)
    lay = base_problem.layout
    pc1, pc2 = lay.gather(base_sol.x, "p_c"), lay.gather(shifted_sol.x, "p_c")
    r01, r02 = lay.gather(base_sol.x, "r0"), lay.gather(shifted_sol.x, "r0")
    d_pc = float(np.sum(pc2) - np.sum(pc1))
    d_r0 = float(np.sum(r02) - np.sum(r01))
    need = dr * float(np.sum(pc1) + np.sum(model.data.l))
    tol = 1e-6 * (1.0 + need + float(np.sum(pc1)))

    ok = d_pc >= -tol and d_r0 >= need - tol
    if ok:
        return PropertyReport("rps_increment_priority", True, residual=float(max(need - d_r0, 0.0)))
    witness = (
        f"charging shrank by {-d_pc:.6g}"
        if d_pc < -tol
        else f"retirement grew {d_r0:.6g} < required {need:.6g}"
    )
    return PropertyReport(
        "rps_increment_priority", False, residual=float(max(need - d_r0, -d_pc)), witness=witness
    )


# ---------------------------------------------------------------------------
# Bundles


def core_reports(
    problem: QpProblem, sol: Solution, plan: DispatchPlan, model: ValidatedModel
) -> tuple[dict[str, CaseTable], list[PropertyReport]]:
    """Run every check that needs no extra solve; return tables and reports."""
    duals = named_duals(problem, sol)
    reports = [check_no_simultaneous_flow(plan, duals, model.config.policy.r)]
    cer_table, cer_reports = classify_cer_trading(plan, duals, model)
    rec_table, rec_reports = classify_rec_trading(plan, duals, model)
    reports.extend(cer_reports)
    reports.extend(rec_reports)
    return {"cer": cer_table, "rec": rec_table}, reports

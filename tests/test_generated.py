"""Generated tests: the assembled rows, and solve_qp against the oracle.

The assembly test draws horizons up to 30 hours with lossy storage,
assorted CE factors and trade caps, disabled inventories and quota
overrides, and evaluates every row of the assembled program at a random
point against the model's equations written out per role series.

The differential test draws tiny degenerate instances (T <= 3):
certificate prices tied across hours, zero trade caps, a unit with
g_max = 0, alpha = 0, r in {0, 0.5, 1}, lossy or zero-size storage and
disabled inventories.  The draws lean toward feasible instances, since
those exercise the solver's optimal path; infeasible ones still come up
often.

The warm-start test nudges the coupling right-hand sides of a small
random instance and solves it from the unnudged solution, which is how
`run_scenario` solves its neighbouring problems; most draws are answered
from the start's active set, and the rest fall back to the cold solve.

The scaling test multiplies every price and the generator's cost
coefficients by c > 0: the feasible set stays and the objective scales,
so the set of optimal plans stays and its multipliers scale by c.

The rotation test rolls every hourly series of synthetic data by whole
days; the objective and the two coupling multipliers stay.

The storage test solves the assembly test's draws with every market
open: over a cycle the storage level returns to its start, so every
optimal answer with lossy storage stores what it discharges, eta_c sum
p_c = sum p_d / eta_d.

The pinning test solves the assembly test's draws, pins a drawn subset
of the variables at their optimal values (lb = ub = x*) and solves
again.  Presolve substitutes those variables out of every row, kept
coupling rows included, so this covers nonzero pins, which the synthetic
model never makes; the optimum stays.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from trimarket.model import (  # noqa: E402
    EQ_KINDS,
    ROLES,
    EssParams,
    InventoryParams,
    MarketData,
    PolicyParams,
    TgParams,
    TradeCaps,
    VppConfig,
    assemble_qp,
    default_config,
    recover_plan,
)
from trimarket.analysis import named_duals  # noqa: E402
from trimarket.scenarios import SynthSpec, synth_data  # noqa: E402
from trimarket.qp import (  # noqa: E402
    INFEASIBLE,
    OPTIMAL,
    IneqDuals,
    Solution,
    SolverSettings,
    _presolve,
    kkt_residuals,
    solve_qp,
)

from _instances import build, no_supply_case, random_instance  # noqa: E402
from _oracle import oracle_solve  # noqa: E402


# a trade cap of inf or 50 leaves the market open, which keeps most draws
# feasible; 0 closes it
_caps = st.sampled_from([math.inf, math.inf, 50.0, 0.0])
_inventory = st.sampled_from([InventoryParams.disabled(), InventoryParams(100.0, 100.0, 100.0)])


@st.composite
def degenerate_instances(draw):
    T = draw(st.integers(1, 3))
    hourly = lambda values: np.array(draw(st.lists(st.sampled_from(values), min_size=T, max_size=T)))
    cfg = VppConfig(
        horizon=T,
        tg=TgParams(a=1.0, b=draw(st.sampled_from([0.0, 40.0, 80.0])), g_min=0.0,
                    g_max=draw(st.sampled_from([0.0, 0.0, 60.0])), k=0.9),
        ess=draw(st.sampled_from([EssParams(0.0, 0.0, 0.0),
                                  EssParams(20.0, 20.0, 40.0, eta_c=0.9, eta_d=0.9)])),
        rec_inventory=draw(_inventory),
        cer_inventory=draw(_inventory),
        policy=PolicyParams(r=draw(st.sampled_from([0.0, 0.5, 1.0])),
                            alpha=draw(st.sampled_from([0.0, 0.0, 0.2]))),
        caps=TradeCaps(g_cap=draw(_caps), r_cap=draw(_caps), c_cap=draw(_caps)),
    )
    data = MarketData(
        pi_g=hourly([0.0, 50.0, 100.0]),
        # certificate prices tie across the hours of a day
        pi_r=np.full(T, draw(st.sampled_from([0.0, 20.0]))),
        pi_c=np.full(T, draw(st.sampled_from([0.0, 30.0]))),
        e=hourly([0.0, 10.0, 40.0]),
        l=hourly([0.0, 5.0, 20.0]),
    )
    return cfg, data


# the solver must not warn: an overflow or 0/0 in an iteration is a defect
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(degenerate_instances())
@example(no_supply_case())
def test_agrees_with_oracle(case):
    _, p = build(*case)
    sol = solve_qp(p)
    ref = oracle_solve(p)
    assert sol.status == ref.status
    if sol.status == OPTIMAL:
        assert abs(sol.objective - ref.objective) <= 1e-8 * max(1.0, abs(ref.objective))
    if sol.status == INFEASIBLE:
        assert sol.message.startswith("infeasible:"), sol.message


_nudge = st.sampled_from([-5.0, -0.5, 0.0, 0.5, 5.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 599), st.sampled_from([0.0, 0.95]), _nudge, _nudge)
def test_warm_start_from_unnudged_solution_agrees_with_oracle(seed, r_min, rps, quota):
    _, p = build(*random_instance(seed, r_min=r_min))
    base = solve_qp(p)
    assume(base.status == OPTIMAL)
    nudged = dataclasses.replace(p, coup_rhs=p.coup_rhs + np.array([rps, quota]))
    sol = solve_qp(nudged, start=base)
    ref = oracle_solve(nudged)
    assert sol.status == ref.status
    if sol.status == OPTIMAL:
        assert abs(sol.objective - ref.objective) <= 1e-8 * max(1.0, abs(ref.objective))


def _scaled(cfg, data, c):
    """The instance with every price and the cost coefficients a, b times c."""
    tg = dataclasses.replace(cfg.tg, a=c * cfg.tg.a, b=c * cfg.tg.b)
    return dataclasses.replace(cfg, tg=tg), dataclasses.replace(
        data, pi_g=c * data.pi_g, pi_r=c * data.pi_r, pi_c=c * data.pi_c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 599), st.sampled_from([0.0, 0.95]),
       st.sampled_from([1e-3, 0.25, 7.0, 1e3]))
def test_scaling_prices_and_costs_scales_the_answer(seed, r_min, c):
    cfg, data = random_instance(seed, r_min=r_min)
    _, p = build(cfg, data)
    _, pc = build(*_scaled(cfg, data, c))
    base, sol = solve_qp(p), solve_qp(pc)
    assert sol.status == base.status
    assume(base.status == OPTIMAL)
    assert abs(sol.objective - c * base.objective) <= 1e-8 * max(1.0, abs(c * base.objective))
    # the dispatch and the market positions are unique on these draws;
    # storage levels, inventories and the hour of each retirement may
    # sit on an optimal face, where the solve may end anywhere
    plan, plan_c = recover_plan(base.x, p.layout), recover_plan(sol.x, pc.layout)
    for role in ("g", "G", "R", "C", "p_c", "p_d"):
        want = getattr(plan, role)
        np.testing.assert_allclose(getattr(plan_c, role), want, rtol=0,
                                   atol=1e-6 * (1.0 + np.max(np.abs(want))), err_msg=role)
    mu = named_duals(p, base).mu
    assert named_duals(pc, sol).mu == pytest.approx(c * mu, rel=1e-6, abs=1e-6 * c)
    # the scaled answer, every dual divided by c, answers the unscaled
    # problem: at the scaled solve's tolerances, which are at most
    # max(1, 1 / c) times the unscaled ones there
    d = sol.ineq_duals
    back = Solution(OPTIMAL, sol.x, p.objective(sol.x), sol.eq_duals / c,
                    IneqDuals(d.lower / c, d.upper / c, d.coupling / c))
    res = kkt_residuals(p, back)
    pre, tol = _presolve(p), SolverSettings().tol * max(1.0, 1.0 / c)
    assert res.primal_inf <= tol * pre.scale_p and res.dual_inf <= tol * pre.scale_d
    assert res.comp_gap <= tol * (1.0 + abs(back.objective))


@st.composite
def day_rotations(draw):
    T = draw(st.sampled_from([48, 72, 168]))
    return draw(st.integers(0, 11)), T, draw(st.integers(1, T // 24 - 1))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(day_rotations())
def test_rolling_the_series_by_whole_days_keeps_the_answer(case):
    # the model has no first or last hour: every storage state, the
    # ESS's and both inventories', has hour T as hour 1's predecessor, and
    # the two coupling rows sum over the horizon
    seed, T, days = case
    data = synth_data(SynthSpec(seed=seed, horizon=T))
    rolled = dataclasses.replace(data, **{f.name: np.roll(getattr(data, f.name), 24 * days)
                                          for f in dataclasses.fields(MarketData)})
    _, p = build(default_config(T), data)
    _, pr = build(default_config(T), rolled)
    base, sol = solve_qp(p), solve_qp(pr)
    assert base.status == sol.status == OPTIMAL
    assert sol.objective == pytest.approx(base.objective, rel=1e-9)
    want, got = named_duals(p, base), named_duals(pr, sol)
    assert got.mu == pytest.approx(want.mu, rel=1e-6, abs=1e-6)
    assert got.delta == pytest.approx(want.delta, rel=1e-6, abs=1e-6)


_three_caps = st.sampled_from([0.0, 50.0, math.inf])


@st.composite
def assembly_cases(draw):
    T = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def inventory():
        caps = [float(v) for v in rng.uniform(0, 300, 3)]
        return InventoryParams(*caps, enabled=draw(st.booleans()))

    g_max = float(rng.uniform(0, 100))
    cfg = VppConfig(
        horizon=T,
        tg=TgParams(a=float(rng.uniform(0.1, 3)), b=float(rng.uniform(0, 100)),
                    g_min=float(rng.uniform(0, g_max)), g_max=g_max,
                    k=draw(st.sampled_from([0.0, 0.5, 0.85, 1.2]))),
        ess=EssParams(*(float(v) for v in rng.uniform(0, 80, 3)),
                      eta_c=draw(st.sampled_from([1.0, 0.9])),
                      eta_d=draw(st.sampled_from([1.0, 0.8]))),
        rec_inventory=inventory(),
        cer_inventory=inventory(),
        policy=PolicyParams(r=float(rng.uniform(0, 1)), alpha=float(rng.uniform(0, 1))),
        caps=TradeCaps(g_cap=draw(_three_caps), r_cap=draw(_three_caps), c_cap=draw(_three_caps)),
    )
    data = MarketData(*(rng.uniform(0, 150, T) for _ in range(5)))
    quota = draw(st.sampled_from([None, 0.0, 123.5]))
    x = rng.normal(0, 50, 13 * T)
    return cfg, data, quota, x


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(assembly_cases())
def test_assembled_rows_are_the_model_equations(case):
    cfg, data, quota, x = case
    model, _ = build(cfg, data)
    p = assemble_qp(model, quota_override=quota)
    T, tg, ess = cfg.horizon, cfg.tg, cfg.ess
    v = dict(zip(ROLES, x.reshape(T, 13).T))
    prev = {role: np.roll(v[role], 1) for role in ("q", "i_r", "i_c")}  # cyclic hour t-1
    l, e = data.l, data.e

    rows = {
        "ess_dyn": ess.eta_c * v["p_c"] - v["p_d"] / ess.eta_d - v["q"] + prev["q"],
        "rec_inv": -v["x_r"] - v["i_r"] + prev["i_r"],
        "cer_inv": -v["x_c"] - v["i_c"] + prev["i_c"],
        "elec_bal": v["g"] + v["p_d"] - v["p_c"] - v["G"] - (l - e),
        "rec_bal": v["x_r"] - v["R"] - v["r0"] + e,
        "cer_bal": v["C"] + tg.k * v["g"] - v["x_c"] - v["c0"],
    }
    got = (p.a_eq @ x - p.b_eq).reshape(T, 6)
    for pos, kind in enumerate(EQ_KINDS):
        np.testing.assert_allclose(got[:, pos], rows[kind], rtol=0, atol=1e-9, err_msg=kind)

    r = cfg.policy.r
    cap = tg.g_max * tg.k * T * cfg.policy.alpha if quota is None else quota
    np.testing.assert_allclose(
        p.coup @ x - p.coup_rhs,
        [r * v["p_c"].sum() - v["r0"].sum() + r * l.sum(), v["c0"].sum() - cap],
        rtol=1e-12, atol=1e-9,
    )

    profit = (data.pi_g @ v["G"] + data.pi_r @ v["R"] + data.pi_c @ v["C"]
              - tg.a * v["g"] @ v["g"] - tg.b * v["g"].sum())
    assert p.objective(x) == pytest.approx(profit, rel=1e-12, abs=1e-9)

    rec = cfg.rec_inventory if cfg.rec_inventory.enabled else InventoryParams.disabled()
    cer = cfg.cer_inventory if cfg.cer_inventory.enabled else InventoryParams.disabled()
    caps = cfg.caps
    box = {
        "g": (tg.g_min, tg.g_max),
        "G": (-caps.g_cap, caps.g_cap),
        "R": (-caps.r_cap, caps.r_cap),
        "C": (-caps.c_cap, caps.c_cap),
        "p_c": (0.0, ess.p_c_max),
        "p_d": (0.0, ess.p_d_max),
        "q": (0.0, ess.q_max),
        "x_r": (-rec.d_max, rec.w_max),
        "i_r": (0.0, rec.i_max),
        "r0": (0.0, math.inf),
        "x_c": (-cer.d_max, cer.w_max),
        "i_c": (0.0, cer.i_max),
        "c0": (0.0, math.inf),
    }
    lb, ub = p.lb.reshape(T, 13), p.ub.reshape(T, 13)
    for pos, role in enumerate(ROLES):
        assert (lb[:, pos] == box[role][0]).all() and (ub[:, pos] == box[role][1]).all(), role


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(assembly_cases())
def test_lossy_cyclic_storage_stores_what_it_discharges(case):
    # the T storage rows sum to eta_c sum p_c - sum p_d / eta_d, the
    # level terms cancelling around the cycle, and each row holds to the
    # primal tolerance.  Open markets keep the draws feasible.
    cfg, data, quota, _ = case
    cfg = cfg.with_caps(g_cap=math.inf, r_cap=math.inf, c_cap=math.inf)
    ess = cfg.ess
    assume(ess.eta_c < 1.0 or ess.eta_d < 1.0)
    model, _ = build(cfg, data)
    p = assemble_qp(model, quota_override=quota)
    sol = solve_qp(p)
    assume(sol.status == OPTIMAL)
    p_c, p_d = sol.x[p.layout.indices("p_c")], sol.x[p.layout.indices("p_d")]
    tol = SolverSettings().tol * _presolve(p).scale_p
    assert abs(ess.eta_c * p_c.sum() - p_d.sum() / ess.eta_d) <= cfg.horizon * tol


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(assembly_cases(), st.integers(0, 2**32 - 1))
def test_pinning_variables_at_their_optimum_keeps_the_answer(case, seed):
    cfg, data, quota, _ = case
    model, _ = build(cfg, data)
    p = assemble_qp(model, quota_override=quota)
    sol = solve_qp(p)
    assume(sol.status == OPTIMAL)
    pin = np.random.default_rng(seed).random(p.n) < 0.3
    lb, ub = p.lb.copy(), p.ub.copy()
    lb[pin] = ub[pin] = sol.x[pin]
    pinned = dataclasses.replace(p, lb=lb, ub=ub)
    res = solve_qp(pinned)
    assert res.status == OPTIMAL
    assert res.x[pin].tobytes() == sol.x[pin].tobytes()
    assert abs(res.objective - sol.objective) <= SolverSettings().tol * (1.0 + abs(sol.objective))

import dataclasses
import gc
import json
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import trimarket.qp as qp
from trimarket.model import (
    EssParams,
    InventoryParams,
    TradeCaps,
    assemble_qp,
    default_config,
    recover_plan,
)
from trimarket.qp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    SolverSettings,
    _presolve,
    diagnose_infeasibility,
    kkt_residuals,
    solve_qp,
)
from trimarket.analysis import solve_for_param
from trimarket.scenarios import SynthSpec, parameter_sweep, run_scenario, synth_data

from _instances import build, hand_case, no_supply_case, random_instance, solve
from _oracle import oracle_diagnosis, oracle_solve


@pytest.fixture(scope="module")
def solved():
    cfg, data = hand_case()
    _, p, sol = solve(cfg, data)
    return p, sol


class TestHandInstance:
    def test_optimal_objective(self, solved):
        _, sol = solved
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2810.0, abs=1e-6)

    def test_primal_point(self, solved):
        p, sol = solved
        plan = recover_plan(sol.x, p.layout)
        # coverage costs 0.9 * 30 = 27 per MWh, so the unit is under water
        # (100 < 80 + 27) and stays off
        assert plan.g[0] == pytest.approx(0.0, abs=1e-7)
        assert plan.G[0] == pytest.approx(5.0, abs=1e-7)
        # retire half the load, sell the rest of the RES output
        assert plan.r0[0] == pytest.approx(2.5, abs=1e-7)
        assert plan.R[0] == pytest.approx(7.5, abs=1e-7)
        # with no emissions the full 72-unit quota is drawn and sold
        assert plan.c0[0] == pytest.approx(72.0, abs=1e-7)
        assert plan.C[0] == pytest.approx(72.0, abs=1e-7)

    def test_balance_prices(self, solved):
        p, sol = solved
        lam = {p.eq_row_name(i): sol.eq_duals[i] for i in range(p.m_eq)}
        assert lam["elec_bal[1]"] == pytest.approx(-100.0, abs=1e-6)
        assert lam["rec_bal[1]"] == pytest.approx(-20.0, abs=1e-6)
        assert lam["cer_bal[1]"] == pytest.approx(30.0, abs=1e-6)
        # the storage row price is only pinned to a range here: the ESS is
        # idle and degenerate, any value in [-110, -100] closes the KKT system
        assert -110.0 - 1e-6 <= lam["ess_dyn[1]"] <= -100.0 + 1e-6

    def test_coupling_multipliers(self, solved):
        _, sol = solved
        mu, delta = sol.ineq_duals.coupling
        assert mu == pytest.approx(20.0, abs=1e-6)
        assert delta == pytest.approx(30.0, abs=1e-6)

    def test_reported_residuals_match_recomputation(self, solved):
        p, sol = solved
        res = kkt_residuals(p, sol)
        assert res.primal_inf <= 1e-8
        assert res.dual_inf <= 1e-6
        assert res.comp_gap <= 1e-6

    @pytest.mark.parametrize("entries", ["all", "one"])
    def test_non_finite_point_fails_every_tolerance(self, solved, entries):
        # a NaN must not vanish from the primal residual (max(0.0, nan) is 0.0)
        p, sol = solved
        x = sol.x.copy()
        if entries == "all":
            x[:] = np.nan
        else:
            x[p.layout.indices("G")[0]] = np.nan
        res = kkt_residuals(p, dataclasses.replace(sol, x=x))
        assert not res.primal_inf <= np.finfo(float).max
        assert not res.dual_inf <= np.finfo(float).max

    def test_residuals_reject_mismatched_dimensions(self, solved):
        p, sol = solved
        d = sol.ineq_duals
        for wrong, message in (
            (dict(x=sol.x[:-1]), "primal/bound-dual vectors do not match problem size"),
            (dict(ineq_duals=dataclasses.replace(d, upper=np.zeros(p.n + 1))),
             "primal/bound-dual vectors do not match problem size"),
            (dict(eq_duals=np.zeros(p.m_eq + 1)),
             rf"expected {p.m_eq} equality duals, got shape \({p.m_eq + 1},\)"),
            (dict(ineq_duals=dataclasses.replace(d, coupling=np.zeros(3))),
             "expected one coupling dual per coupling row"),
        ):
            with pytest.raises(ValueError, match=message):
                kkt_residuals(p, dataclasses.replace(sol, **wrong))


class TestSolverBehaviour:
    def test_deterministic_repeat(self):
        cfg, data = random_instance(21, horizon=3)
        _, p = build(cfg, data)
        a = solve_qp(p)
        b = solve_qp(p)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.eq_duals, b.eq_duals)

    def test_iteration_limit_status(self):
        cfg, data = random_instance(5, horizon=3)
        _, p = build(cfg, data)
        sol = solve_qp(p, SolverSettings(max_iter=1))
        assert sol.status == ITERATION_LIMIT

    @pytest.mark.parametrize("value", [1e20, 1e308])
    @pytest.mark.parametrize("group, key", [("ess", k) for k in ("p_c_max", "p_d_max", "q_max")] + [
        (inv, k) for inv in ("rec_inventory", "cer_inventory") for k in ("w_max", "d_max", "i_max")
    ] + [("caps", k) for k in ("g_cap", "r_cap", "c_cap")], ids=lambda v: v)
    def test_bound_of_1e20_or_more_is_no_bound(self, group, key, value):
        # HiGHS reads a bound of 1e20 or more in magnitude as infinite, and
        # so does presolve: each bound parameter of the T=24 default set
        # that large is answered as inf is, byte for byte.  Read as finite
        # bounds, 1e20, 1e100 and 1e308 ended 33 of these 36 solves as an
        # iteration limit, and 1e308 overflowed in the band solve
        cfg, data = default_config(24), synth_data(SynthSpec(horizon=24))

        def solved(v):
            part = dataclasses.replace(getattr(cfg, group), **{key: v})
            return solve_qp(build(dataclasses.replace(cfg, **{group: part}), data)[1])

        inf = solved(np.inf)
        assert inf.status == OPTIMAL and _same_answer(solved(value), inf)

    @pytest.mark.parametrize("max_iter", [3, 200])
    def test_lost_finiteness_polishes_nothing(self, monkeypatch, max_iter):
        # every band solve from the 7th on (iteration 3's) answers NaN: the
        # next iterate is not finite, so nothing is polished, also when it
        # is the last step, which an iteration cap of 3 leaves untested
        _, p = build(default_config(24), synth_data(SynthSpec(horizon=24)))
        calls, real = [], qp._Kkt.solve

        def nan_from_7th(kkt, *args, **kwargs):
            calls.append(1)
            step = real(kkt, *args, **kwargs)
            return np.full_like(step, np.nan) if len(calls) >= 7 else step

        monkeypatch.setattr(qp._Kkt, "solve", nan_from_7th)
        monkeypatch.setattr(qp, "_polish", lambda *a: pytest.fail("polished"))
        sol = solve_qp(p, SolverSettings(max_iter=max_iter))
        assert sol.status == ITERATION_LIMIT and sol.message == "iterates lost finiteness"
        assert sol.iterations == min(max_iter, 4)

    @pytest.mark.parametrize("seed, max_iter", [(511, 8), (5, 5), (16, 3)])
    def test_capped_solve_answers_from_its_final_iterate(self, seed, max_iter):
        # stopped at the cap, the final iterate's polish passes the gate
        _, p = build(*random_instance(seed))
        sol = solve_qp(p, SolverSettings(max_iter=max_iter))
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(solve_qp(p).objective, rel=1e-9)

    def test_capped_optimal_answers_match_the_uncapped(self):
        for seed in range(60):
            _, p = build(*random_instance(seed))
            full = solve_qp(p)
            for max_iter in (3, 5):
                sol = solve_qp(p, SolverSettings(max_iter=max_iter))
                if sol.status == OPTIMAL:
                    assert sol.objective == pytest.approx(full.objective, rel=1e-9), seed

    def test_unbounded_problem_ends_diverging(self):
        # retiring a certificate pays more than buying one costs, and no
        # cap limits the trade, so the objective grows without bound
        cfg = default_config(24).with_caps(g_cap=np.inf, r_cap=np.inf, c_cap=np.inf)
        _, p = build(cfg, synth_data(SynthSpec(horizon=24)))
        f = p.f.copy()
        f[p.layout.indices("r0")] = 1000.0
        sol = solve_qp(dataclasses.replace(p, f=f))
        assert sol.status == ITERATION_LIMIT
        assert sol.message == "diverging iterates"

    def test_settings_validated(self):
        with pytest.raises(ValueError, match="tol"):
            SolverSettings(tol=0.0)
        # a tolerance no residual can miss lets any point out as "optimal"
        for tol in (float("inf"), 1e300, 1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be finite and below 1"):
                SolverSettings(tol=tol)
        with pytest.raises(ValueError, match="max_iter"):
            SolverSettings(max_iter=0)

    def test_multipliers_signed_correctly(self):
        for seed in range(12):
            cfg, data = random_instance(seed)
            _, p, sol = solve(cfg, data)
            if sol.status != OPTIMAL:
                continue
            assert np.all(sol.ineq_duals.lower >= -1e-9)
            assert np.all(sol.ineq_duals.upper >= -1e-9)
            assert np.all(sol.ineq_duals.coupling >= -1e-9)

    def test_pinned_variables_respected(self):
        # zero-size ESS pins three roles per hour via lb == ub
        cfg, data = hand_case()
        cfg = type(cfg)(**{**cfg.__dict__, "ess": type(cfg.ess)(0.0, 0.0, 0.0)})
        _, p, sol = solve(cfg, data)
        assert sol.status == OPTIMAL
        for role in ("p_c", "p_d", "q"):
            np.testing.assert_allclose(p.layout.gather(sol.x, role), 0.0, atol=1e-12)

    @pytest.mark.parametrize("max_iter", [3, 5, 8, 200])
    def test_optimal_means_verified(self, max_iter):
        # every return path of solve_qp: an "optimal" point passes the KKT
        # check at the tolerances scaled as the stopping test scales them,
        # anything else is a certified failure status
        s = SolverSettings(max_iter=max_iter)
        for seed in range(50):
            cfg, data = random_instance(seed)
            _, p, sol = solve(cfg, data, s)
            if sol.status != OPTIMAL:
                assert sol.status in (INFEASIBLE, ITERATION_LIMIT)
                continue
            pre = _presolve(p)
            # x_pin holds the pinned values, and 0 elsewhere
            scale_p = 1.0 + max(np.max(np.abs(p.b_eq), initial=0.0),
                                np.max(np.abs(pre.x_pin), initial=0.0),
                                np.max(np.abs(p.coup_rhs[pre.keep_rows]), initial=0.0))
            scale_d = 1.0 + np.max(np.abs(p.f), initial=0.0)
            res = kkt_residuals(p, sol)
            assert res.primal_inf <= s.tol * scale_p, seed
            assert res.dual_inf <= s.tol * scale_d, seed
            assert res.comp_gap <= s.tol * (1.0 + abs(sol.objective)), seed

    def test_every_variable_pinned(self):
        # presolve pins everything, so no inequality reaches the solver: the
        # gate's polish is the whole solve, and its point is verified too
        _, p, sol = solve(*hand_case())
        x = sol.x
        pinned = dataclasses.replace(p, lb=x.copy(), ub=x.copy(), coup_rhs=p.coup @ x)
        res = solve_qp(pinned)
        assert res.status == OPTIMAL and res.iterations == 0
        np.testing.assert_allclose(res.x, x, atol=1e-12)
        off = dataclasses.replace(pinned, lb=x + 1.0, ub=x + 1.0, coup_rhs=p.coup @ (x + 1.0))
        res = solve_qp(off)
        assert res.status == INFEASIBLE
        assert res.message == "infeasible: balance equations conflict with variable bounds"

    def test_zero_coefficient_not_pinned_by_dropped_row(self):
        # r = 0 writes an explicit zero for p_c in the retirement row; with
        # r0 capped at 0 presolve drops that row, which must pin r0 alone
        # and leave p_c free
        cfg, data = hand_case()
        cfg = cfg.with_policy(r=0.0, alpha=0.0)
        _, p = build(cfg, data)
        ub = p.ub.copy()
        ub[p.layout.indices("r0")] = 0.0
        p = dataclasses.replace(p, ub=ub)
        sol = solve_qp(p)
        ref = oracle_solve(p)
        assert sol.status == ref.status == OPTIMAL
        assert sol.objective == pytest.approx(700.0, abs=1e-6)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)

    @pytest.mark.parametrize("lo, hi", [(np.inf, -np.inf), (np.inf, np.inf), (-np.inf, -np.inf)])
    def test_infinite_empty_box_is_infeasible(self, lo, hi):
        # a box with lb = +inf or ub = -inf holds no point, although the
        # tolerance of the lb > ub test is inf - inf there.  Presolve names
        # the box; the diagnosis, whose LPs presolve the same box, names
        # the balances
        _, p = build(*hand_case())
        lb, ub = p.lb.copy(), p.ub.copy()
        lb[p.layout.indices("G")], ub[p.layout.indices("G")] = lo, hi
        p = dataclasses.replace(p, lb=lb, ub=ub)
        sol = solve_qp(p)
        assert sol.status == INFEASIBLE
        assert "empty bound interval" in sol.message
        assert diagnose_infeasibility(p) == (
            "infeasible: balance equations conflict with variable bounds")

    def test_presolve_rejects_unmeetable_coupling_rows(self):
        # a quota below its row's box minimum, then two rows that each hold
        # only at one end of the TG output's box [0, 80].  Presolve names
        # the row; the diagnosis names the requirement
        _, p = build(*hand_case())
        below = dataclasses.replace(p, coup_rhs=np.array([p.coup_rhs[0], -1.0]))
        sol = solve_qp(below)
        assert sol.status == INFEASIBLE
        assert sol.message == (
            "infeasible: coupling row 1 requires value below its box minimum (-1.0 < 0.0)"
        )
        assert diagnose_infeasibility(below) == (
            "infeasible: CER quota ceiling conflicts with emission needs and caps")
        # the same quota row with c0's coefficient 1 stored as two
        # entries, 2 and -1, which presolve sums before it takes the box
        # minimum
        coup = p.coup.tocsr()
        c0 = p.layout.indices("c0")[0]
        assert coup.indptr[1:].tolist() == [2, 3] and coup.indices[2] == c0
        twice = sp.csr_matrix((np.concatenate([coup.data[:2], [2.0, -1.0]]),
                               np.concatenate([coup.indices[:2], [c0, c0]]), [0, 2, 4]),
                              shape=coup.shape)
        assert not twice.has_canonical_format
        sol = solve_qp(dataclasses.replace(p, coup=twice, coup_rhs=np.array([p.coup_rhs[0], -1.0])))
        assert sol.status == INFEASIBLE and sol.iterations == 0
        assert sol.message == (
            "infeasible: coupling row 1 requires value below its box minimum (-1.0 < 0.0)"
        )
        g = p.layout.indices("g")[0]
        coup = sp.csr_matrix(([1.0, -1.0], ([0, 1], [g, g])), shape=(2, p.n))
        pins = dataclasses.replace(p, coup=coup, coup_rhs=np.array([0.0, -80.0]))
        sol = solve_qp(pins)
        assert sol.status == INFEASIBLE
        assert sol.message == f"infeasible: conflicting pins on variable {g}"
        assert diagnose_infeasibility(pins) == (
            "infeasible: REC retirement floor conflicts with certificate supply and caps")

    def test_degenerate_coupling_rows(self):
        # r = 0 and alpha = 0 zero out both coupling rows
        cfg, data = hand_case()
        _, p, sol = solve(cfg.with_policy(r=0.0, alpha=0.0), data)
        assert sol.status == OPTIMAL
        res = kkt_residuals(p, sol)
        assert max(res.primal_inf, res.dual_inf, res.comp_gap) <= 1e-6


class TestInfeasibility:
    def _rec_starved(self):
        # full retirement demanded, certificate market closed, no inventory
        cfg, data = hand_case()
        cfg = type(cfg)(
            **{
                **cfg.__dict__,
                "rec_inventory": InventoryParams.disabled(),
                "caps": TradeCaps(r_cap=0.0),
            }
        )
        cfg = cfg.with_policy(r=1.0)
        data = type(data)(**{**data.__dict__, "e": np.array([1.0])})
        return cfg, data

    def _quota_starved(self):
        # forced emissions, no quota, certificate market closed
        cfg, data = hand_case()
        cfg = type(cfg)(
            **{
                **cfg.__dict__,
                "tg": type(cfg.tg)(a=1.0, b=80.0, g_min=50.0, g_max=80.0, k=0.9),
                "cer_inventory": InventoryParams.disabled(),
                "caps": TradeCaps(c_cap=0.0),
            }
        ).with_policy(alpha=0.0)
        return cfg, data

    def _jointly_starved(self):
        # full retirement and a zero quota with no inventories and every
        # market capped at 0: dropping either coupling row still leaves the
        # other unmeetable, and only dropping both restores feasibility
        cfg = default_config(24).with_inventories(rec=False, cer=False)
        cfg = cfg.with_caps(g_cap=0.0, r_cap=0.0, c_cap=0.0).with_policy(r=1.0, alpha=0.0)
        return cfg, synth_data(SynthSpec(seed=7, horizon=24))

    def _problem(self, case):
        """The problem of a named case: a TestInfeasibility model, the
        infeasible week, the hand case with an empty box or a quota below
        its box minimum, which presolve finds infeasible, or
        random_instance's "seed/r_min"."""
        cases = {"rec": self._rec_starved, "quota": self._quota_starved,
                 "joint": self._jointly_starved, "no_supply": no_supply_case,
                 "feasible": hand_case}
        if case == "week":
            return _infeasible_week()
        if case == "empty_box":
            p = build(*hand_case())[1]
            return dataclasses.replace(p, lb=np.where(np.arange(p.n) == 0, p.ub[0] + 5.0, p.lb))
        if case == "quota_below_box":
            p = build(*hand_case())[1]
            return dataclasses.replace(p, coup_rhs=np.array([p.coup_rhs[0], -100.0]))
        if case in cases:
            return build(*cases[case]())[1]
        seed, r_min = case.split("/")
        return build(*random_instance(int(seed), r_min=float(r_min)))[1]

    def test_rec_floor_infeasible(self):
        cfg, data = self._rec_starved()
        _, p, sol = solve(cfg, data)
        assert sol.status == INFEASIBLE
        assert "retirement floor" in sol.message

    def test_quota_infeasible(self):
        cfg, data = self._quota_starved()
        _, p, sol = solve(cfg, data)
        assert sol.status == INFEASIBLE
        assert "quota" in sol.message

    def test_floor_and_quota_jointly_infeasible(self):
        _, p, sol = solve(*self._jointly_starved())
        assert (sol.status, sol.iterations) == (INFEASIBLE, 12)
        assert sol.message == "infeasible: retirement floor and quota ceiling jointly conflict"

    def test_infeasible_solve_probes_full_problem_once(self, monkeypatch):
        coupling_rows = []
        real = qp.linprog

        def counting(lp):
            # a dropped coupling row is an empty one
            coupling_rows.append(int(np.count_nonzero(np.diff(lp.coup.tocsr().indptr))))
            return real(lp)

        monkeypatch.setattr(qp, "linprog", counting)
        cfg, data = self._rec_starved()
        _, p, sol = solve(cfg, data)
        assert sol.message == (
            "infeasible: REC retirement floor conflicts with certificate supply and caps"
        )
        # one LP, with both coupling rows: the floor's shortfall is positive
        # with the quota kept hard
        assert coupling_rows == [2]

    def test_stalled_infeasible_week_ends_early(self, monkeypatch):
        # the primal residual freezes within a few iterations, so the stall
        # probe settles the status long before the 200-iteration limit
        sites = _Sites(monkeypatch)
        sol = solve_qp(_infeasible_week())
        assert sol.status == INFEASIBLE
        assert sol.message == (
            "infeasible: REC retirement floor conflicts with certificate supply and caps"
        )
        assert sol.iterations <= 15
        # every factorization of the solve is an interior-point one: no
        # polish runs.  The floor's one elastic LP makes 9, its interior
        # point's 8 and its polish's one
        own = sites.factors(exclude=(PROBE,))
        assert len(own) <= 20 and POLISH not in own
        assert sites.factors().count(PROBE) == 9

    def test_stall_with_collapsing_mu_ends_early(self):
        # here mu falls toward zero instead of growing; the primal residual
        # stalls all the same
        _, p = build(*no_supply_case())
        sol = solve_qp(p)
        assert sol.status == INFEASIBLE
        assert sol.message == "infeasible: balance equations conflict with variable bounds"
        assert sol.iterations <= 15

    def test_feasible_stall_verdict_keeps_iterating(self, monkeypatch):
        # a stall diagnosis that does not answer "infeasible" leaves the
        # iteration to run on; it runs once per solve, and the exit after
        # the iteration limit reads its verdict instead of diagnosing again
        calls = []

        def says_feasible(p):
            calls.append(p)
            return "feasible", "problem is feasible"

        monkeypatch.setattr(qp, "_diagnose", says_feasible)
        sol = solve_qp(_infeasible_week(), SolverSettings(max_iter=30))
        assert sol.status == ITERATION_LIMIT and sol.iterations == 30
        assert sol.message == "tolerances not reached"
        assert len(calls) == 1

    @pytest.mark.parametrize("horizon", [168, 672])
    def test_feasible_solve_runs_no_probe(self, monkeypatch, horizon):
        monkeypatch.setattr(qp, "linprog", lambda *a, **k: pytest.fail("probe on a feasible solve"))
        _, p = build(default_config(horizon), synth_data(SynthSpec(horizon=horizon)))
        assert solve_qp(p).status == OPTIMAL

    def test_diagnose_on_feasible_problem(self):
        cfg, data = hand_case()
        _, p = build(cfg, data)
        assert diagnose_infeasibility(p) == "problem is feasible"

    @staticmethod
    def _non_finite(field):
        """The hand case with one infinite coefficient of a_eq, an infinite
        quota or a NaN lower bound."""
        _, p = build(*hand_case())
        if field == "a_eq":
            a_eq = p.a_eq.copy()
            a_eq.data[0] = np.inf
            return dataclasses.replace(p, a_eq=a_eq)
        if field == "coup_rhs":
            return dataclasses.replace(p, coup_rhs=np.array([p.coup_rhs[0], np.inf]))
        return dataclasses.replace(p, lb=np.where(np.arange(p.n) == 0, np.nan, p.lb))

    @pytest.mark.parametrize("field", ["a_eq", "coup_rhs", "lb"])
    def test_probe_never_hands_highs_non_finite_data(self, monkeypatch, field):
        # a problem holding an infinite coefficient or right-hand side, or
        # a NaN bound, runs no elastic LP, and its feasibility is undecided
        monkeypatch.setattr(qp, "linprog", lambda lp: pytest.fail("elastic LP run"))
        assert diagnose_infeasibility(self._non_finite(field)) == (
            "feasibility could not be decided")

    @pytest.mark.parametrize("field", ["a_eq", "coup_rhs", "lb"])
    def test_non_finite_data_is_not_solved(self, monkeypatch, field):
        # the same problems are answered before presolve, with no
        # iteration and no factor: a NaN bound would otherwise read as no
        # bound, and the hand case would come out optimal
        sites = _Sites(monkeypatch)
        sol = solve_qp(self._non_finite(field))
        assert (sol.status, sol.message, sol.iterations) == (
            ITERATION_LIMIT, "problem data is not finite", 0)
        assert sites.calls == []

    def test_coefficients_that_overflow_the_polish_are_not_solved(self):
        # the polish weighs each product of two coefficients in one column
        # by up to 1 / 1e-6, so tg.k of the T=24 default is solvable up to
        # sqrt(float max * 1e-6) ~ 1.34e151: just below it the solve runs
        # and diverges, just above it the data is refused before presolve
        # and its feasibility is undecided (pyproject turns any overflow
        # RuntimeWarning into an error)
        cfg = default_config(24)
        data = synth_data(SynthSpec(seed=7, horizon=24))

        def scaled(k):
            return build(dataclasses.replace(cfg, tg=dataclasses.replace(cfg.tg, k=k)), data)[1]

        sol = solve_qp(scaled(1.34e151))
        assert (sol.status, sol.message, sol.iterations) == (
            ITERATION_LIMIT, "diverging iterates", 1)
        p = scaled(1.5e151)
        sol = solve_qp(p)
        assert (sol.status, sol.message, sol.iterations) == (
            ITERATION_LIMIT, "problem coefficients overflow the KKT system", 0)
        assert diagnose_infeasibility(p) == "feasibility could not be decided"

    def test_huge_load_leaves_feasibility_undecided(self):
        # with the load at hour 6 of the uncapped T=24 default at 1e13 or
        # more, the interior point's iterates diverge, and so do the
        # elastic LPs': none is optimal, feasibility is undecided, and the
        # solve ends as an iteration limit on the diverging iterates.  At
        # 1e12 the floor's LP is optimal and finds the model feasible
        cfg = default_config(24).with_caps(g_cap=np.inf, r_cap=np.inf, c_cap=np.inf)
        data = synth_data(SynthSpec(seed=7, horizon=24))

        def loaded(value):
            l = data.l.copy()
            l[5] = value
            return build(cfg, dataclasses.replace(data, l=l))[1]

        assert diagnose_infeasibility(loaded(1e12)) == "problem is feasible"
        for value in (1e13, 1e19):
            p = loaded(value)
            assert diagnose_infeasibility(p) == "feasibility could not be decided"
            sol = solve_qp(p)
            assert (sol.status, sol.message) == (ITERATION_LIMIT, "diverging iterates")

    @pytest.mark.parametrize("answers, lps", [([None] * 3, 3), ([None, 0.0], 2),
                                              ([None, None, 0.0], 3)],
                             ids=["none_optimal", "quota_met", "balances_met"])
    def test_diagnose_when_no_lp_decides(self, monkeypatch, answers, lps):
        # the rule reads a verdict off optimal LPs alone: with none
        # optimal, with the quota met once the floor is dropped although
        # the floor's LP had no optimum, or with the balances met by the
        # fully elastic LP, the verdict is undecided
        calls = []
        monkeypatch.setattr(qp, "linprog", lambda lp: calls.append(lp) or answers[len(calls) - 1])
        _, p = build(*hand_case())
        assert diagnose_infeasibility(p) == "feasibility could not be decided"
        assert len(calls) == lps

    @pytest.mark.parametrize("status", [1, 4])
    def test_diagnose_when_the_probe_cannot_decide(self, monkeypatch, status):
        # each elastic LP stops without an optimum, by scipy's linprog
        # status codes: at a limit with no point (1), or on numerical
        # trouble, a point the gate does not let out (4).  linprog answers
        # None for each, and the three LPs leave feasibility undecided
        calls, real = [], qp.linprog
        monkeypatch.setattr(qp, "linprog", lambda lp: calls.append(lp) or real(lp))
        if status == 1:
            monkeypatch.setattr(qp, "_interior_point", lambda *a, **k: (
                None, None, 200, False, "iteration limit", None))
        else:
            monkeypatch.setattr(qp, "_verified", lambda *a, **k: None)
        _, p = build(*hand_case())
        assert diagnose_infeasibility(p) == "feasibility could not be decided"
        assert len(calls) == 3

    def test_undecided_relaxation_names_no_conflict(self, monkeypatch):
        # the floor's LP with the quota hard has no optimum, the quota's
        # shortfall with the floor dropped is positive, and the floor's
        # LP with the quota dropped has no optimum either: the model is
        # infeasible, but no LP showed which requirement it fails
        calls = []
        monkeypatch.setattr(qp, "linprog", lambda lp: calls.append(lp) or
                            [None, 1.0, None][len(calls) - 1])
        _, p = build(default_config(24), synth_data(SynthSpec(horizon=24)))
        assert diagnose_infeasibility(p) == (
            "infeasible: the conflicting requirement could not be named"
        )
        assert len(calls) == 3

    @pytest.mark.parametrize("case, lps", [("rec", 1), ("quota", 3), ("joint", 3),
                                           ("no_supply", 3), ("feasible", 1)])
    def test_diagnosis_solves_one_lp_or_three(self, monkeypatch, case, lps):
        # the floor's elastic LP with the quota hard decides feasibility
        # and names a floor conflict; any other conflict takes two more:
        # the quota's with the floor dropped and the floor's with the
        # quota dropped, or the fully elastic one
        calls, real = [], qp.linprog
        monkeypatch.setattr(qp, "linprog", lambda lp: calls.append(lp) or real(lp))
        want = {"rec": "REC retirement floor", "quota": "CER quota ceiling",
                "joint": "jointly conflict", "no_supply": "balance equations",
                "feasible": "problem is feasible"}[case]
        assert want in diagnose_infeasibility(self._problem(case))
        assert len(calls) == lps

    @pytest.mark.parametrize("case", ["rec", "quota", "joint", "no_supply", "week", "empty_box",
                                      "quota_below_box"]
                             + [f"{seed}/{r_min}" for seed in (2, 29, 34, 210, 227)
                                for r_min in (0.0, 0.95)] + ["74/0.95"])
    def test_diagnosis_matches_the_four_probe_rule(self, case):
        # the elastic LPs name the conflict that dropping one coupling row,
        # then the other, then both would: the oracle's four probes.  An
        # LP that presolve finds without a point has an infinite least
        # sum: an empty box names the balances and bounds, and a quota
        # below its box minimum the quota
        p = self._problem(case)
        want = oracle_diagnosis(p)
        assert want.startswith("infeasible:")
        assert diagnose_infeasibility(p) == want


# the factor sites: the interior point's band factor of the reduced
# system and the active-set polish, each named by the method that makes
# its factors, and every factor an elastic LP of the diagnosis makes
BAND, POLISH, PROBE = "factor", "_polish", "probe"
# the band Cholesky, by the LAPACK routine that makes it, and the ordering
DPBTRF, RCM = "dpbtrf", "reverse_cuthill_mckee"


class _Sites:
    """Record each factor (a call of qp.dpbtrf) and call of module.<attr>, by site.

    The site of a call is PROBE whenever qp.linprog is running (an
    elastic LP's interior point and polish factor as a solve's do), else
    qp._polish whenever it is running (the polish factors through
    _Kkt.factor too), else _Kkt.factor if that is, else None.  `calls`
    holds one (site, attr) per call; clearing it starts a new solve.
    """

    def __init__(self, monkeypatch, *attrs, module=qp):
        self.calls, self.stack = [], []
        for owner, name, site in ((qp._Kkt, "factor", BAND), (qp, "_polish", POLISH),
                                  (qp, "linprog", PROBE)):
            monkeypatch.setattr(owner, name, self._entered(site, getattr(owner, name)))
        for owner, attr in [(qp, DPBTRF)] + [(module, attr) for attr in attrs]:
            monkeypatch.setattr(owner, attr, self._recorded(attr, getattr(owner, attr)))

    @property
    def site(self):
        for site in (PROBE, POLISH):
            if site in self.stack:
                return site
        return self.stack[-1] if self.stack else None

    def factors(self, exclude=()):
        """The site of each factor, in order, those at the sites in `exclude` left out."""
        return [site for site, attr in self.calls if attr == DPBTRF and site not in exclude]

    def _entered(self, site, real):
        def entered(*args, **kwargs):
            self.stack.append(site)
            try:
                return real(*args, **kwargs)
            finally:
                self.stack.pop()
        return entered

    def _recorded(self, attr, real):
        def recorded(*args, **kwargs):
            self.calls.append((self.site, attr))
            return real(*args, **kwargs)
        return recorded


def _synth_week():
    _, p = build(default_config(168), synth_data(SynthSpec(horizon=168)))
    return p


def _uncapped_week():
    """Synth T=168 with every trade uncapped: the trades are free columns,
    which the interior point eliminates as it does the bounded ones, its
    D being q plus the shift."""
    cfg = default_config(168).with_caps(g_cap=np.inf, r_cap=np.inf, c_cap=np.inf)
    _, p = build(cfg, synth_data(SynthSpec(horizon=168)))
    return p


def _infeasible_week():
    """Synth T=168, seed 7, with the REC floor unmeetable: full retirement,
    no REC inventory and the certificate market closed."""
    cfg = default_config(168).with_inventories(rec=False, cer=True)
    cfg = cfg.with_caps(r_cap=0.0).with_policy(r=1.0)
    _, p = build(cfg, synth_data(SynthSpec(seed=7, horizon=168)))
    return p


class TestKktFactorization:
    def test_interior_point_uses_band_factor(self, monkeypatch):
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert sol.status == OPTIMAL and sol.iterations == 8
        # one band factor for the start and one per iteration that takes
        # a step, then the polish's one factor
        assert sites.factors() == [BAND] * 8 + [POLISH]

    def test_refinement_miss_keeps_solve_optimal(self, monkeypatch):
        # the barrier diagonal spans so many orders of magnitude that, when
        # the interior point kept this instance's free columns and took a
        # band LU, the 7th iteration's three directions missed their
        # refinement tolerances, the two correctors by 1e15 and more, and
        # the solve took 8 iterations.  With every column eliminated and
        # the band Cholesky, no solve misses its tolerance by more than
        # 1e3 times, and the solve is optimal in 7
        misses, real = [], qp._Kkt.solve

        def recorded(kkt, vec, rtol, rhs0=None):
            out = real(kkt, vec, rtol, rhs0)
            norm = float(np.max(np.abs(vec - kkt.matvec(out)), initial=0.0))
            tol = rtol * (1.0 + float(np.max(np.abs(vec), initial=0.0)))
            if sites.site != POLISH and not norm <= tol:
                misses.append((rtol, norm / tol))
            return out

        monkeypatch.setattr(qp._Kkt, "solve", recorded)
        sites = _Sites(monkeypatch)
        _, p = build(*random_instance(222))
        sol = solve_qp(p)
        assert sol.status == OPTIMAL and sol.iterations == 7
        assert all(miss <= 1e3 for _, miss in misses), misses
        assert sites.factors() == [BAND] * 7 + [POLISH]

    def test_directions_are_refined_as_far_as_mu_asks(self, monkeypatch):
        # each predictor, and each corrector while mu is above _TIGHT_MU
        # times its start, is refined to _LOOSE_RTOL, which the first band
        # solve meets: the default week's interior point makes 19 band
        # solves in its 8 iterations, and the polish 2.  The start's two
        # solves and the last iteration's directions still meet _KKT_RTOL
        sites = _Sites(monkeypatch, "shifted_solve", module=qp._Kkt)
        residuals, real = [], qp._Kkt.solve

        def recorded(kkt, vec, rtol, rhs0=None):
            out = real(kkt, vec, rtol, rhs0)
            norm = float(np.max(np.abs(vec - kkt.matvec(out)), initial=0.0))
            if sites.site != POLISH:  # by the factor each solve uses
                residuals.append((len(sites.factors()), rtol,
                                  norm / (1.0 + float(np.max(np.abs(vec), initial=0.0)))))
            return out

        monkeypatch.setattr(qp._Kkt, "solve", recorded)
        sol = solve_qp(_synth_week())
        assert (sol.status, sol.iterations) == (OPTIMAL, 8)
        band = [site for site, attr in sites.calls if attr == "shifted_solve"]
        assert (band.count(None), band.count(POLISH)) == (19, 2)
        # the start's factor is the 1st, the 7th and last step's the 8th
        assert [rtol for f, rtol, _ in residuals if f in (1, 8)] == (
            [qp._KKT_RTOL] * 2 + [qp._LOOSE_RTOL, qp._KKT_RTOL])
        assert all(err <= qp._KKT_RTOL for f, _, err in residuals if f in (1, 8))
        assert all(err <= rtol for _, rtol, err in residuals)

    # the SciPy constructors that stack or assemble block matrices
    BLOCK_CONSTRUCTORS = ("bmat", "vstack", "hstack", "diags")

    def test_solve_builds_no_block_matrix(self, monkeypatch):
        # both KKT systems, the interior point's and the polish's, are
        # written from index arrays: no block constructor runs anywhere in
        # a cold solve, in a warm neighbour's or in an infeasible one
        sites = _Sites(monkeypatch, *self.BLOCK_CONSTRUCTORS, module=qp.sp)
        model, p = build(default_config(168), synth_data(SynthSpec(horizon=168)))
        base = solve_qp(p)
        _, warm = solve_for_param(model, "quota", model.quota + 1.0, start=base)
        infeasible = solve_qp(_infeasible_week())
        assert (base.status, warm.status, warm.iterations) == (OPTIMAL, OPTIMAL, 0)
        assert infeasible.status == INFEASIBLE
        assert sites.factors(exclude=(PROBE,)) == [BAND] * 8 + [POLISH, POLISH] + [BAND] * 11
        assert sites.factors().count(PROBE) == 9  # the floor's elastic LP
        assert [attr for _, attr in sites.calls if attr != DPBTRF] == []

    def test_presolve_builds_no_block_matrix(self, monkeypatch):
        # presolve writes a_ext and g from index arrays, and they are the
        # stacked blocks array for array, in the unpinned columns: the
        # equalities, and the negated and plain selector rows of the
        # bounds over the kept coupling rows; the right-hand sides absorb
        # the pinned values
        def forbidden(name):
            return lambda *args, **kwargs: pytest.fail(f"sp.{name} called in presolve")

        def selector(idx, n):
            return sp.csr_matrix((np.ones(len(idx)), (np.arange(len(idx)), idx)),
                                 shape=(len(idx), n))

        cfg, data = hand_case()
        no_quota = build(cfg.with_policy(alpha=0.0), data)[1]  # presolve drops the quota row
        seen = []
        for p in (_synth_week(), _infeasible_week(), no_quota):
            with monkeypatch.context() as patched:
                for name in self.BLOCK_CONSTRUCTORS:
                    patched.setattr(qp.sp, name, forbidden(name))
                pre = _presolve(p)
            seen.append((len(pre.pin_idx), pre.keep_rows))
            assert (pre.a_ext is p.a_eq) == (len(pre.pin_idx) == 0)  # handed through unpinned
            cols, n = pre.unpinned, len(pre.unpinned)
            assert np.array_equal(np.sort(np.concatenate([cols, pre.pin_idx])), np.arange(p.n))
            a_ext = p.a_eq.tocsr()[:, cols]
            g = sp.vstack([-selector(pre.lo_idx, n), selector(pre.up_idx, n),
                           p.coup.tocsr()[pre.keep_rows][:, cols]]).tocsr()
            for got, want in ((pre.a_ext, a_ext), (pre.g, g)):
                assert got.shape == want.shape and got.has_canonical_format
                for part in ("data", "indices", "indptr"):
                    assert getattr(got, part).dtype == getattr(want, part).dtype
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
            np.testing.assert_array_equal(pre.b_ext, p.b_eq - p.a_eq @ pre.x_pin)
            h_coup = p.coup_rhs[pre.keep_rows] - (p.coup @ pre.x_pin)[pre.keep_rows]
            np.testing.assert_array_equal(pre.h, np.concatenate(
                [-p.lb[cols[pre.lo_idx]], p.ub[cols[pre.up_idx]], h_coup]))
        assert seen == [(0, [0, 1]), (504, [0, 1]), (1, [0])]

    def test_polish_system_is_the_block_matrix(self, monkeypatch):
        # the blocks _Kkt writes from index arrays are the stacked ones,
        # byte for byte in CSC, on the one pattern of the solve.  The interior
        # point's start's B is b, the rows of a_ext and the kept coupling
        # rows, under the diagonal with every w / z at 1, (d, 0, -1).  A
        # polish's is b with its entries in the fixed columns and in the
        # inactive coupling rows set to 0, under the diagonal q on a free
        # column and 1 on a fixed one, 0 on an equality row and an active
        # coupling row and -1 on an inactive one: the week's predicted
        # set, with both coupling rows active, and that set with the quota
        # row off.  The product refinement takes from the blocks is, bit
        # for bit, diag x + B' y over B x + diag y with SciPy's own
        # products of the stacked B and of its transpose, v being (x, y)
        rng = np.random.default_rng(0)
        systems, real = {POLISH: [], BAND: []}, qp._Kkt.solve

        def recorded(kkt, vec, rtol, rhs0=None):
            vecs = rng.standard_normal((3, len(kkt.diag)))
            systems[POLISH if sites.site == POLISH else BAND].append(
                (kkt.pat, kkt.b.copy(), kkt.diag.copy(), vecs, [kkt.matvec(v) for v in vecs]))
            return real(kkt, vec, rtol, rhs0)

        monkeypatch.setattr(qp._Kkt, "solve", recorded)
        sites = _Sites(monkeypatch)
        p = _synth_week()
        pre = _presolve(p)
        n_b, m = pre.n_b, pre.a_ext.shape[0]
        b = sp.vstack([pre.a_ext, pre.g[n_b:]], format="csr")
        d = pre.q + np.bincount(np.concatenate([pre.lo_idx, pre.up_idx]), minlength=p.n)
        wanted = [(b, np.concatenate([d, np.zeros(m), -np.ones(len(pre.keep_rows))]))]
        with qp.kkt_pattern_scope():
            x, y, z = qp._presolved_point(pre, solve_qp(p))
            seen = [systems[BAND][0]]  # the start's system
            predicted = qp._active(pre, x, z, pre.h - pre.g @ x)
            assert predicted[n_b:].all()
            quota_off = predicted.copy()
            quota_off[n_b + 1] = False
            for act in (predicted, quota_off):
                systems[POLISH] = []
                assert qp._polish(p, pre, act, (x, y, z)) is not None
                seen.append(systems[POLISH][0])  # its first round's
                free = np.ones(p.n, dtype=bool)
                free[pre.g[np.nonzero(act[:n_b])[0]].indices] = False
                row_on = np.r_[np.ones(m, dtype=bool), act[n_b:]]
                rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
                want = b.copy()
                want.data[~(free[b.indices] & row_on[rows])] = 0.0
                wanted.append((want, np.concatenate([np.where(free, pre.q, 1.0), np.zeros(m),
                                                     np.where(act[n_b:], 0.0, -1.0)])))
                assert np.count_nonzero(want.data) < np.count_nonzero(b.data)
        for (pat, got, diag, vecs, products), (want, want_diag) in zip(seen, wanted, strict=True):
            assert pat is seen[0][0]  # the interior point's pattern
            assert got.shape == want.shape
            csc = want.tocsc()
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).dtype == getattr(csc, part).dtype
                assert getattr(got, part).tobytes() == getattr(csc, part).tobytes()
            np.testing.assert_array_equal(diag, want_diag)
            n = want.shape[1]
            for v, product in zip(vecs, products):
                x, y = v[:n], v[n:]
                np.testing.assert_array_equal(product, np.concatenate(
                    [want_diag[:n] * x + want.T @ y, want @ x + want_diag[n:] * y]))

    def test_each_system_holds_b_once(self, monkeypatch):
        # the interior point's system and each polish's hold one sparse
        # matrix, B, and its transpose as a view of the same values
        systems, real = {}, qp._Kkt.set_diagonal

        def recorded(kkt, diag):
            systems[id(kkt)] = kkt
            real(kkt, diag)

        monkeypatch.setattr(qp._Kkt, "set_diagonal", recorded)
        assert solve_qp(_synth_week()).status == OPTIMAL
        kkts = list(systems.values())
        assert {float(kkt.shift[0]) for kkt in kkts} == {qp._KKT_REG, qp._POLISH_EPS}
        for kkt in kkts:
            assert sorted(k for k, v in vars(kkt).items() if sp.issparse(v)) == ["b", "b_t"]
            assert np.shares_memory(kkt.b.data, kkt.b_t.data)

    def test_one_ordering_per_solve(self, monkeypatch):
        sites = _Sites(monkeypatch, RCM)
        for p in (build(*hand_case())[1], _synth_week(), build(*random_instance(12))[1]):
            sites.calls.clear()
            sol = solve_qp(p)
            assert sol.status == OPTIMAL
            ipm = [(site, attr) for site, attr in sites.calls if site != POLISH]
            # the order comes first, from the fixed pattern, and only once;
            # the start and each iteration that takes a step factor with it,
            # and the polish refills the same pattern, so makes no order
            assert ipm[0] == (None, RCM) and ipm.count((None, RCM)) == 1
            assert sites.factors(exclude=(POLISH,)) == [BAND] * sol.iterations
            assert (POLISH, RCM) not in sites.calls and POLISH in sites.factors()

    @pytest.mark.parametrize("horizon", [168, 672, 2688])
    def test_reduced_core_is_a_band_of_width_8(self, horizon):
        _, p = build(default_config(horizon), synth_data(SynthSpec(seed=7, horizon=horizon)))
        pre = _presolve(p)
        bounded = np.zeros(p.n, dtype=bool)
        bounded[pre.lo_idx] = bounded[pre.up_idx] = True
        kkt = qp._Kkt(pre, qp._KKT_REG)
        order, bw, n_c = kkt.pat.lay
        assert bw == 8 and bounded.all()
        # every row of r but the kept coupling rows is in the band, and
        # the order puts each of B's rows at one band position, the
        # coupling rows last
        assert len(pre.keep_rows) == n_c == 2 and len(order) == kkt.pat.mb
        assert np.array_equal(np.sort(order), np.arange(kkt.pat.mb))
        assert order[-n_c:].tolist() == [kkt.pat.mb - 2, kkt.pat.mb - 1]
        # its store is the core's lower band and the border's columns
        assert kkt.pat.size == (bw + 1) * (len(order) - n_c) + len(order) * n_c

    @pytest.mark.parametrize("horizon", [168, 672, 2688])
    def test_polish_core_is_a_band_of_width_8(self, monkeypatch, horizon):
        # the polish factors on the interior point's pattern, its coupling
        # rows bordered whatever their density: one layout per solve, made
        # for the interior point, and every factor of the polish takes its
        # band of width 8 and its border of both coupling rows
        layouts, factored, real_layout, real_factor = [], [], qp._layout, qp._Kkt.factor

        def measured(*args):
            layouts.append(sites.site)
            return real_layout(*args)

        def recorded(kkt):
            factored.append((sites.site, kkt.pat))
            real_factor(kkt)

        monkeypatch.setattr(qp, "_layout", measured)
        monkeypatch.setattr(qp._Kkt, "factor", recorded)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(horizon), synth_data(SynthSpec(seed=7, horizon=horizon)))
        sol = solve_qp(p)
        assert sol.status == OPTIMAL
        assert np.all(sol.ineq_duals.coupling > 0.0)  # both coupling rows active
        assert layouts == [None]
        polish = [pat for site, pat in factored if site == POLISH]
        assert polish and all(pat is factored[0][1] for pat in polish)
        assert polish[0].lay[1:] == (8, 2)

    def test_reordered_factor_solves_like_a_fresh_ordering(self, monkeypatch):
        # replay every diagonal of a real solve, the start's first: the
        # band factor of the reduced matrix, in the order computed once per
        # solve, solves the full shifted matrix as a fresh SuperLU factor
        # of it does.  Presolve substitutes out the infeasible week's 504
        # pinned variables, so its reduced matrix keeps no column.  Where
        # the fresh symmetric-mode factor and a COLAMD partial-pivot one,
        # two factors made independently, disagree beyond 1e-12, neither
        # is a reference (the barrier diagonal spans tens of orders of
        # magnitude there), so only the other diagonals compare.
        diagonals, real = [], qp._Kkt.set_diagonal

        def recorded(kkt, diag):
            if not diagonals or kkt is diagonals[0][0]:  # the polish's own _Kkt left out
                diagonals.append((kkt, diag.copy()))
            real(kkt, diag)

        monkeypatch.setattr(qp._Kkt, "set_diagonal", recorded)
        for problem, n_diag, unmatched in ((_synth_week(), 8, set()),
                                           (_infeasible_week(), 11, {9, 10, 11})):
            diagonals.clear()
            solve_qp(problem)
            assert len(diagonals) == n_diag
            kkt = diagonals[0][0]
            # every column is eliminated: r is in the rows of B alone
            assert np.array_equal(np.sort(kkt.pat.lay[0]), np.arange(kkt.pat.mb))
            assert len(diagonals[0][1]) == kkt.pat.n + kkt.pat.mb
            rhs = np.random.default_rng(0).standard_normal(len(diagonals[0][1]))
            no_reference = set()
            for k, (_, diag) in enumerate(diagonals, start=1):
                real(kkt, diag)
                kkt.factor()
                shifted = (sp.bmat([[None, kkt.b.T], [kkt.b, None]])
                           + sp.diags(diag + kkt.shift)).tocsc()
                want = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True)).solve(rhs)
                tol = 1e-12 * np.max(np.abs(want))
                if np.max(np.abs(splu(shifted, permc_spec="COLAMD").solve(rhs) - want)) > tol:
                    no_reference.add(k)
                else:
                    assert np.max(np.abs(kkt.shifted_solve(rhs) - want)) <= tol
            assert no_reference == unmatched

    def test_static_factor_eliminates_bounded_columns(self, monkeypatch):
        # every column is eliminated, with a bound row or without: the
        # reduced matrix has one row per row of a_ext and per kept
        # coupling row, and all but the coupling rows are in the band,
        # whose lower half alone the band Cholesky stores, bw + 1 rows.
        # The uncapped week's free trades leave no row either
        shapes, real = [], qp.dpbtrf

        def measured(ab, **kwargs):
            if sites.site == BAND:
                shapes.append((ab.shape, kwargs["lower"]))
            return real(ab, **kwargs)

        monkeypatch.setattr(qp, DPBTRF, measured)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(672), synth_data(SynthSpec(seed=7, horizon=672)))
        for problem, want_dim, want_unbounded in ((p, 4034, 0), (_uncapped_week(), 1010, 504)):
            shapes.clear()
            pre = _presolve(problem)
            unbounded = np.ones(problem.n, dtype=bool)
            unbounded[pre.lo_idx] = unbounded[pre.up_idx] = False
            dim = pre.a_ext.shape[0] + len(pre.keep_rows)
            sol = solve_qp(problem)
            assert sol.status == OPTIMAL
            band = dim - len(pre.keep_rows)
            assert (dim, int(unbounded.sum())) == (want_dim, want_unbounded)
            # the start and each iteration that takes a step
            assert set(shapes) == {((8 + 1, band), 1)} and len(shapes) == sol.iterations

    def test_infeasible_week_keeps_its_factor_counts(self, monkeypatch):
        # presolve substitutes out the 504 pinned variables: the start and
        # each of the 10 iterations that take a step make one band factor,
        # all in the one order made from the fixed pattern, and no polish
        # runs.  The floor's elastic LP makes its own 9 factors, in an
        # order of its own pattern
        sites = _Sites(monkeypatch, RCM)
        sol = solve_qp(_infeasible_week())
        assert sol.status == INFEASIBLE and sol.iterations == 11
        assert sites.factors(exclude=(PROBE,)) == [BAND] * 11
        assert sites.factors().count(PROBE) == 9
        assert [site for site, attr in sites.calls if attr == RCM] == [None, PROBE]

    def test_polish_rejects_non_finite_solve(self, monkeypatch):
        # every polish factor solves to NaN; the gate rejects that
        # point and the converged iterate, verified like any other
        # answer, is returned instead
        real, nan_solves = qp._BandFactor.solve, []

        def nan_in_polish(lu, vec):
            if sites.site != POLISH:
                return real(lu, vec)
            nan_solves.append(True)
            return np.full_like(vec, np.nan)

        monkeypatch.setattr(qp._BandFactor, "solve", nan_in_polish)
        sites = _Sites(monkeypatch)
        p = _synth_week()
        sol = solve_qp(p)
        assert nan_solves and sol.status == OPTIMAL and sol.iterations == 8
        assert np.all(np.isfinite(sol.x))
        tol, pre = SolverSettings().tol, _presolve(p)
        res = kkt_residuals(p, sol)
        assert res.primal_inf <= tol * pre.scale_p and res.dual_inf <= tol * pre.scale_d
        assert res.comp_gap <= tol * (1.0 + abs(sol.objective))

    def test_polish_factors_only_free_variables(self, monkeypatch):
        # active bounds fix their variables, whose columns the polish's
        # system keeps with no B entries: it refills the interior point's
        # band, (bw + 1) times its core's dimension, 36,288 entries here,
        # against 214,214 for a band LU of the free variables and 963,739
        # (bandwidth 20) with one selector row per active bound
        stored, real = [], qp.dpbtrf

        def measured(ab, **kwargs):
            stored.append((sites.site, ab.size))
            return real(ab, **kwargs)

        monkeypatch.setattr(qp, DPBTRF, measured)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(672), synth_data(SynthSpec(seed=7, horizon=672)))
        assert solve_qp(p).status == OPTIMAL
        polish = [size for site, size in stored if site == POLISH]
        assert polish and set(polish) == {size for site, size in stored} == {36_288}

    @pytest.mark.parametrize("owner, attr", [pytest.param(qp, DPBTRF, id="MemoryError"),
                                             pytest.param(qp._BandFactor, "solve", id="solve")])
    def test_polish_out_of_memory_falls_back_to_converged_iterate(self, monkeypatch, owner,
                                                                  attr):
        # a band too large for the memory raises MemoryError in the
        # polish's factor, or a work array in its first solve; the polish
        # makes the only call that fails here, and the converged iterate
        # answers
        real, failed = getattr(owner, attr), []

        def polish_fails(*args, **kwargs):
            if sites.site == POLISH:
                failed.append(True)
                raise MemoryError("out of memory")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, polish_fails)
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert failed == [True]
        assert sol.status == OPTIMAL and sol.iterations == 8

    def test_polish_that_never_settles_falls_back_to_converged_iterate(self, monkeypatch):
        # every row of the inequality block predicted active on the seed-16
        # week: each of the polish's 8 rounds releases rows whose
        # multipliers come out negative, and the 8th still has some, so
        # the polish gives no point and the converged iterate, verified
        # like any other answer, is returned instead.  (The default week
        # settles in 7 rounds.)
        polished, finalized = [], []
        real_polish, real_finalize = qp._polish, qp._finalize

        def recorded_polish(*args):
            polished.append(real_polish(*args))
            return polished[-1]

        def recorded_finalize(*args):
            finalized.append(real_finalize(*args))
            return finalized[-1]

        monkeypatch.setattr(qp, "_active", lambda pre, x, z, w: np.ones(len(w), dtype=bool))
        monkeypatch.setattr(qp, "_polish", recorded_polish)
        monkeypatch.setattr(qp, "_finalize", recorded_finalize)
        sites = _Sites(monkeypatch)
        sol = solve_qp(build(default_config(168), synth_data(SynthSpec(seed=16, horizon=168)))[1])
        assert polished == [None] and sites.factors(exclude=(BAND,)) == [POLISH] * 8
        assert sol.status == OPTIMAL and sol.iterations == 8
        assert len(finalized) == 1 and sol.x is finalized[0].x

    def test_one_tolerance_test_stops_the_iteration_and_answers(self, monkeypatch):
        # the interior point's stopping test and the gate are the same
        # function: a cold solve consults it once per iteration, failing
        # until the last, and once for the polished answer
        real, verdicts = qp._meets_tolerances, []

        def recorded(pre, s, r, objective):
            verdicts.append((r, objective, real(pre, s, r, objective)))
            return verdicts[-1][2]

        monkeypatch.setattr(qp, "_meets_tolerances", recorded)
        sol = solve_qp(_synth_week())
        assert sol.status == OPTIMAL and sol.iterations == 8
        assert [ok for _, _, ok in verdicts] == [False] * 7 + [True, True]
        assert verdicts[-1][:2] == (sol.residuals, sol.objective)

    @pytest.mark.parametrize("field", ["primal_inf", "dual_inf", "comp_gap"])
    def test_tolerance_test_rejects_nan(self, field):
        pre = _presolve(_synth_week())
        passing = qp.Residuals(0.0, 0.0, 0.0)
        assert qp._meets_tolerances(pre, SolverSettings(), passing, 1.0)
        nan = dataclasses.replace(passing, **{field: float("nan")})
        assert not qp._meets_tolerances(pre, SolverSettings(), nan, 1.0)

    @pytest.mark.parametrize("attr", [pytest.param(DPBTRF, id="MemoryError"),
                                      pytest.param(RCM, id="ordering")])
    def test_factor_out_of_memory_is_a_status(self, monkeypatch, attr):
        # the factor or the ordering made before it, in the interior
        # point's system and in the polish's alike
        def always_fails(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(qp, attr, always_fails)
        _, p = build(*hand_case())
        sol = solve_qp(p)
        assert sol.status == ITERATION_LIMIT
        assert sol.message == "KKT factorization failed"

    # the band Cholesky's failure paths, on two weeks: the default one,
    # where every variable has a bound row, and the uncapped one, whose
    # free trades are eliminated with D = q plus the shift
    FACTOR_WEEKS = (_synth_week, _uncapped_week)

    @staticmethod
    def _nth_singular(monkeypatch, attr, n):
        """Make the n-th call of qp.<attr> (dpbtrf or dgetrf) report a failed pivot.

        A band Cholesky replaces a failed pivot and factors again: for
        dpbtrf the call after the n-th reports the same pivot failed, as
        the replaced pivot of a matrix that is not finite would.
        """
        real, calls = getattr(qp, attr), []
        failing = {n, n + 1} if attr == DPBTRF else {n}

        def nth_singular(*args, **kwargs):
            *factor, info = real(*args, **kwargs)
            calls.append(True)
            return (*factor, 1 if len(calls) in failing else info)

        monkeypatch.setattr(qp, attr, nth_singular)

    def test_start_factor_error_falls_back_in_the_start(self, monkeypatch):
        # the start's band factor, the first, reports a failed pivot (info
        # > 0: a Cholesky pivot that is not positive even after its
        # replacement, which takes one more call): the solve falls back
        # to its unsolved report in the start, after that one factor and
        # with no other
        for week in self.FACTOR_WEEKS:
            with monkeypatch.context() as patched:
                self._nth_singular(patched, DPBTRF, 1)
                sites = _Sites(patched)
                sol = solve_qp(week())
            assert (sol.status, sol.message, sol.iterations) == (
                ITERATION_LIMIT, "KKT factorization failed", 0), week
            assert sites.factors(exclude=(PROBE,)) == [BAND] * 2
            assert sites.factors().count(PROBE) == 9  # the diagnosis's one LP

    def test_static_factor_error_falls_back_in_same_iteration(self, monkeypatch):
        # iteration 1's band factor, the second after the start's, reports
        # a failed pivot (twice, as above): the solve falls back to its
        # unsolved report in that iteration, and no band factor follows
        for week in self.FACTOR_WEEKS:
            with monkeypatch.context() as patched:
                self._nth_singular(patched, DPBTRF, 2)
                sites = _Sites(patched)
                sol = solve_qp(week())
            assert (sol.status, sol.message, sol.iterations) == (
                ITERATION_LIMIT, "KKT factorization failed", 1), week
            assert sites.factors(exclude=(POLISH, PROBE)) == [BAND] * 3
            assert sites.factors().count(PROBE) == 9  # the diagnosis's one LP

    def test_singular_border_falls_back_in_same_iteration(self, monkeypatch):
        # the coupling rows' Schur complement, after the band factor,
        # reports an exactly zero pivot in the start (the first dgetrf) or
        # in iteration 1 (the second): the solve falls back to its
        # unsolved report where it happens
        for week in self.FACTOR_WEEKS:
            for n in (1, 2):
                with monkeypatch.context() as patched:
                    self._nth_singular(patched, "dgetrf", n)
                    sites = _Sites(patched)
                    sol = solve_qp(week())
                assert (sol.status, sol.message, sol.iterations) == (
                    ITERATION_LIMIT, "KKT factorization failed", n - 1), (week, n)
                assert sites.factors(exclude=(POLISH, PROBE)) == [BAND] * n
                assert sites.factors().count(PROBE) == 9  # the diagnosis's one LP

    def test_factor_error_at_start_ends_as_in_iteration_one(self, monkeypatch):
        # a MemoryError from every call of the band factor from the n-th
        # on, the polish's too, stops the solve in the start (n = 1) or in
        # iteration 1's band factor (n = 2); the polish of the start point
        # does not meet the tolerances, so both end with the same status
        # and message.  Failed pivots are the tests above.
        for week in self.FACTOR_WEEKS:
            p, real = week(), qp.dpbtrf
            for n in (1, 2):
                calls = []

                def fails_from(*args, **kwargs):
                    calls.append(True)
                    if len(calls) >= n:
                        raise MemoryError("out of memory")
                    return real(*args, **kwargs)

                with monkeypatch.context() as patched:
                    patched.setattr(qp, DPBTRF, fails_from)
                    sol = solve_qp(p)
                assert (sol.status, sol.message, sol.iterations) == (
                    ITERATION_LIMIT, "KKT factorization failed", n - 1), (week, n)

    def test_cholesky_replaces_a_pivot_that_is_not_positive(self):
        # r = -[[1, 1], [1, 1]], definite only by more than its entries'
        # rounding holds: the second pivot comes out 0 (dpbtrf info 2).
        # It is replaced, the store refilled and factored again, and the
        # replaced row is decoupled: its component of a solve is 1e-128
        # times the right-hand side, and the first row is solved without it
        r = np.array([-1.0, -1.0, -1.0, 0.0])  # (i, j) at [i - j, j] of a 2 x 2 band
        store, fills = r.copy(), []

        def refill():
            fills.append(True)
            store[:] = r

        factor = qp._BandFactor(np.arange(2), 1, 0, store, refill)
        assert factor.replaced == [1] and fills == [True]
        x = factor.solve(np.array([3.0, 5.0]))
        assert x[0] == -3.0 and 0.0 < x[1] / -5.0 <= 1e-127
        with pytest.raises(RuntimeError, match="band Cholesky failed"):
            qp._BandFactor(np.arange(2), 1, 0, r.copy())  # no refill

    @staticmethod
    def _band_store(a, core, bw):
        """a, whose leading core x core block is a band of width bw, in _layout's store.

        The band order is a's own: LAPACK band storage of the core's lower
        half, then the last columns, column-major.
        """
        band = np.zeros((bw + 1, core))
        for j in range(core):
            for i in range(j, min(core, j + bw + 1)):
                band[i - j, j] = a[i, j]
        return np.concatenate([band.ravel(order="F"), a[:, core:].ravel(order="F")])

    @pytest.mark.parametrize("definite, n_c", [(True, 0), (True, 1), (True, 2), (False, 2)])
    def test_band_factor_solves_the_bordered_matrix(self, definite, n_c):
        # a negative definite band (a band Cholesky of its negation, its
        # border through the factor's forward sweep) with 0-2 dense border
        # rows: a solve in place matches np.linalg.solve of the assembled
        # matrix, also when the right-hand side is a strided view, which
        # LAPACK solves in a copy.  A general band, which the band LU
        # solved, is not definite: with no refill its factor raises
        rng = np.random.default_rng(n_c)
        core, bw = 40, 3
        nr = core + n_c
        i, j = np.indices((nr, nr))
        a = rng.standard_normal((nr, nr))
        a[(np.abs(i - j) > bw) & (i < core) & (j < core)] = 0.0
        if not definite:
            a += np.diag(np.full(nr, 4.0))
            with pytest.raises(RuntimeError, match="band Cholesky failed"):
                qp._BandFactor(np.arange(nr), bw, n_c, self._band_store(a, core, bw))
            return
        a = a + a.T  # symmetric, negative and strictly diagonally dominant
        a -= np.diag(np.abs(a).sum(axis=1) + 1.0)
        store = self._band_store(a, core, bw)
        factor = qp._BandFactor(np.arange(nr), bw, n_c, store)
        assert factor.replaced == []
        rhs = rng.standard_normal(nr)
        want = np.linalg.solve(a, rhs)
        got = rhs.copy()
        assert factor.solve(got) is got
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        every_other = np.zeros(2 * nr)
        every_other[::2] = rhs
        factor.solve(every_other[::2])
        assert np.max(np.abs(every_other[::2] - want)) <= 1e-12 * np.max(np.abs(want))
        assert not every_other[1::2].any()

    def test_band_factor_with_a_replaced_pivot_solves_its_replacement(self):
        # the core -[[1, 1], [1, 1]] leaves the second Cholesky pivot 0: it
        # is replaced by -_HUGE_PIVOT on the matrix's diagonal, and a solve
        # with a border of 2 rows matches np.linalg.solve of the matrix so
        # replaced
        core, n_c = 4, 2
        a = -np.array([[1.0, 1.0, 0.0, 0.0, 0.5, 0.1],
                       [1.0, 1.0, 0.0, 0.0, 0.2, 0.3],
                       [0.0, 0.0, 3.0, 1.0, 0.4, 0.2],
                       [0.0, 0.0, 1.0, 3.0, 0.1, 0.6],
                       [0.5, 0.2, 0.4, 0.1, 4.0, 0.5],
                       [0.1, 0.3, 0.2, 0.6, 0.5, 4.0]])
        fresh = self._band_store(a, core, 1)
        store = fresh.copy()

        def refill():
            store[:] = fresh

        factor = qp._BandFactor(np.arange(core + n_c), 1, n_c, store, refill)
        assert factor.replaced == [1]
        replaced = a.copy()
        replaced[1, 1] = -qp._HUGE_PIVOT
        rhs = np.array([3.0, 5.0, -1.0, 2.0, 0.5, -4.0])
        want = np.linalg.solve(replaced, rhs)
        got = factor.solve(rhs.copy())
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert 0.0 < got[1] / -5.0 <= 1e-127

    def test_border_goes_through_the_cholesky_factor(self, monkeypatch):
        # each band Cholesky of the interior point takes its two coupling
        # rows through one forward triangular sweep of both columns at
        # once (dtbtrs, W = L^-1 C), where a 2-column dpbtrs solve of the
        # core went; each solve is a forward and a backward sweep of one
        # column around the border's Schur complement, and dpbtrs is gone
        assert not hasattr(qp, "dpbtrs")
        calls = []

        def recorded(name, real):
            def call(*args, **kwargs):
                if sites.site != POLISH:
                    b = args[1] if len(args) > 1 else None
                    calls.append((name, None if b is None else b.shape[1:] or (1,),
                                  kwargs.get("trans", "N")))
                return real(*args, **kwargs)
            return call

        for name in (DPBTRF, "dtbtrs"):
            monkeypatch.setattr(qp, name, recorded(name, getattr(qp, name)))
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert (sol.status, sol.iterations) == (OPTIMAL, 8)
        factors = [k for k, (name, _, _) in enumerate(calls) if name == DPBTRF]
        assert len(factors) == 8
        for start, stop in zip(factors, factors[1:] + [len(calls)]):
            border, *solves = calls[start + 1 : stop]
            assert border == ("dtbtrs", (2,), "N")
            assert solves and solves == [("dtbtrs", (1,), "N"), ("dtbtrs", (1,), "T")] * (
                len(solves) // 2)

    def test_cholesky_rounding_breakdown_keeps_the_iteration(self, monkeypatch):
        # the 7th iteration's barrier terms of this instance run from about
        # 1e-9 to 3e10, so its reduced system has entries near 1e9 and a
        # smallest eigenvalue below their rounding: dpbtrf finds a pivot
        # that is not positive (info 3).  The pivot is replaced and the
        # iteration goes on to converge in 8 iterations, where the factor
        # failing there ended it after 7: 8 interior-point factors, one
        # of them made twice, then the polish's
        real, infos = qp.dpbtrf, []

        def recorded(ab, **kwargs):
            out = real(ab, **kwargs)
            infos.append((sites.site, out[-1]))
            return out

        monkeypatch.setattr(qp, DPBTRF, recorded)
        sites = _Sites(monkeypatch)
        _, p = build(*random_instance(481, r_min=0.95))
        sol = solve_qp(p)
        assert (sol.status, sol.iterations, sol.message) == (OPTIMAL, 8, "")
        assert [(site, info) for site, info in infos if info] == [(BAND, 3)]
        assert [site for site, _ in infos] == [BAND] * 9 + [POLISH]

    def test_interior_point_factor_follows_its_kept_columns(self, monkeypatch):
        # the interior point keeps no column, on the default week nor on
        # the uncapped one with its free trades, so its reduced system is
        # negative definite and every factor, the start's, each
        # iteration's and the polish's, is a band Cholesky (dpbtrf) of one
        # band of width 8; the band LU is gone
        assert not hasattr(qp, "dgbtrf") and not hasattr(qp, "dgbtrs")
        real, shapes = qp.dpbtrf, []

        def measured(ab, **kwargs):
            shapes.append(ab.shape)
            return real(ab, **kwargs)

        monkeypatch.setattr(qp, DPBTRF, measured)
        sites = _Sites(monkeypatch)
        for week in self.FACTOR_WEEKS:
            sites.calls.clear()
            shapes.clear()
            sol = solve_qp(week())
            assert (sol.status, sol.iterations) == (OPTIMAL, 8)
            assert sites.factors() == [BAND] * 8 + [POLISH] and len(set(shapes)) == 1
            assert shapes[0][0] == 8 + 1

    def test_no_solve_calls_superlu(self, monkeypatch):
        # SuperLU is gone from the solver: with it failing, a cold solve,
        # one whose refinement misses its tolerance, an infeasible one and
        # a warm neighbour all end as before
        monkeypatch.setattr(qp, "splu", lambda *a, **k: pytest.fail("SuperLU called"))
        model, p = build(default_config(168), synth_data(SynthSpec(horizon=168)))
        base = solve_qp(p)
        assert (base.status, base.iterations) == (OPTIMAL, 8)
        for problem, status, iterations in ((build(*random_instance(222))[1], OPTIMAL, 7),
                                            (_infeasible_week(), INFEASIBLE, 11)):
            sol = solve_qp(problem)
            assert (sol.status, sol.iterations) == (status, iterations)
        _, warm = solve_for_param(model, "quota", model.quota + 1.0, start=base)
        assert (warm.status, warm.iterations) == (OPTIMAL, 0)

    def test_interior_point_without_coupling_rows_matches_oracle(self):
        # alpha = 0 and a retirement floor at its box minimum (r0 capped at
        # r * load): presolve pins both coupling rows away, so the
        # interior-point method runs with no coupling block at all.  Free
        # certificates and an idle ESS keep the floor's multiplier at zero.
        cfg, data = hand_case()
        cfg = dataclasses.replace(cfg, ess=EssParams(0.0, 0.0, 0.0)).with_policy(alpha=0.0)
        data = dataclasses.replace(data, pi_r=np.array([0.0]))
        _, p = build(cfg, data)
        ub = p.ub.copy()
        ub[p.layout.indices("r0")] = cfg.policy.r * data.l
        p = dataclasses.replace(p, ub=ub)
        pre = _presolve(p)
        assert pre.g.shape[0] == len(pre.lo_idx) + len(pre.up_idx)
        assert pre.dropped_rows == [0, 1]
        sol = solve_qp(p)
        ref = oracle_solve(p)
        assert sol.status == ref.status == OPTIMAL and sol.iterations > 0
        # the optimal face is not a point (free certificates), so compare
        # the objective and the coupling multipliers, not x
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
        np.testing.assert_allclose(sol.ineq_duals.coupling, ref.ineq_duals.coupling, atol=1e-6)

    def test_dropped_coupling_row_gets_its_multiplier(self):
        # the retirement floor at its box minimum (r0 capped at r * load)
        # pins p_c at 0 and r0 at its cap; the floor prices both pinned
        # variables, so its multiplier must be recovered from their pin
        # duals or they carry it as wrong-side bound multipliers
        cfg, data = hand_case()
        cfg = cfg.with_policy(alpha=0.0)
        _, p = build(cfg, data)
        ub = p.ub.copy()
        ub[p.layout.indices("r0")] = cfg.policy.r * data.l
        p = dataclasses.replace(p, ub=ub)
        pre = _presolve(p)
        assert pre.dropped_rows == [0, 1]
        sol = solve_qp(p)
        ref = oracle_solve(p)
        assert sol.status == ref.status == OPTIMAL
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
        tol = SolverSettings().tol
        res = kkt_residuals(p, sol)
        assert res.primal_inf <= tol * pre.scale_p and res.dual_inf <= tol * pre.scale_d
        assert res.comp_gap <= tol * (1.0 + abs(sol.objective))
        # the idle ESS leaves the floor's multiplier on a degenerate range
        # (the oracle picks 20, this recovery 40.6): only its sign is fixed
        assert np.all(sol.ineq_duals.coupling >= 0.0)


class _Patterns:
    """Record a weak reference to each qp._Pattern built."""

    def __init__(self, monkeypatch):
        self.built = []
        built, real = self.built, qp._Pattern

        class Recorded(real):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        monkeypatch.setattr(qp, "_Pattern", Recorded)

    def alive(self):
        """The patterns built that are still held."""
        gc.collect()
        return [ref() for ref in self.built if ref() is not None]


def _with_repeated_entry(p):
    """p with the first coefficient of a_eq's row 10 stored as two entries,
    three quarters in place and a quarter at the end of the row."""
    a = p.a_eq.tocsr()
    start, end = a.indptr[10], a.indptr[11]
    data = np.insert(a.data, end, 0.25 * a.data[start])
    data[start] *= 0.75
    indptr = a.indptr.copy()
    indptr[11:] += 1
    a_eq = sp.csr_matrix((data, np.insert(a.indices, end, a.indices[start]), indptr),
                         shape=a.shape)
    return dataclasses.replace(p, a_eq=a_eq)


def _same_answer(a, b):
    """Byte for byte: status, iterations, objective, x and every dual."""
    da, db = a.ineq_duals, b.ineq_duals
    return (a.status, a.iterations, np.float64(a.objective).tobytes()) == (
        b.status, b.iterations, np.float64(b.objective).tobytes()) and all(
        u.tobytes() == v.tobytes() for u, v in zip(
            (a.x, a.eq_duals, da.lower, da.upper, da.coupling),
            (b.x, b.eq_duals, db.lower, db.upper, db.coupling)))


class TestPatternReuse:
    def test_full_scenario_builds_one_pattern(self, monkeypatch):
        # the base solve builds the interior point's pattern, which its
        # polish refills; the quota + 1 and r + 0.01 neighbours, answered
        # from the base's active set, polish on it too: 1 pattern for 4
        # systems, dropped when run_scenario returns
        built, real = [], qp._Kkt.__init__

        def counted(kkt, *args):
            built.append(True)
            real(kkt, *args)

        monkeypatch.setattr(qp._Kkt, "__init__", counted)
        patterns = _Patterns(monkeypatch)
        res = run_scenario(default_config(168), synth_data(SynthSpec(horizon=168)),
                           properties="full")
        assert res.solution.status == OPTIMAL and len(built) == 4
        assert len(patterns.built) == 1 and patterns.alive() == []

    def test_sweep_builds_interior_point_pattern_once_per_change(self, monkeypatch):
        # each point's pattern is keyed by its own presolve; consecutive
        # points with equal keys share one build, their polishes too
        cfg, data = default_config(168), synth_data(SynthSpec(horizon=168))
        grid = [0.0, 0.1, 0.2, 0.3, 0.4]
        keys = []
        for alpha in grid:
            keys.append(qp._pattern_key(_presolve(build(cfg.with_policy(alpha=alpha), data)[1])))
        changes = sum(not all(map(np.array_equal, u, v)) for u, v in zip(keys, keys[1:]))
        assert 0 < changes < len(grid) - 1  # the grid both rebuilds and reuses
        patterns = _Patterns(monkeypatch)
        sweep = parameter_sweep(cfg, data, "alpha", grid)
        assert all(point.status == OPTIMAL for point in sweep.points)
        assert len(patterns.built) == 1 + changes
        assert patterns.alive() == []

    def test_elastic_lp_keeps_the_enclosing_pattern(self, monkeypatch):
        # the stall's elastic LP builds its pattern in a scope of its own:
        # the scope a command holds keeps the infeasible week's, which
        # the second solve reuses, and each LP orders its own
        sites = _Sites(monkeypatch, RCM)
        with qp.kkt_pattern_scope():
            for _ in range(2):
                assert solve_qp(_infeasible_week()).status == INFEASIBLE
        assert [site for site, attr in sites.calls if attr == RCM] == [None, PROBE, PROBE]

    def test_solve_outside_any_scope_holds_no_pattern(self, monkeypatch):
        # a solve opens its own scope: its interior point and polish share
        # one pattern, which it drops when it returns
        patterns = _Patterns(monkeypatch)
        assert solve_qp(_synth_week()).status == OPTIMAL
        assert len(patterns.built) == 1 and patterns.alive() == []
        # an outer scope holds one pattern for every command opened
        # inside it, and drops it when it closes
        cfg, data = default_config(168), synth_data(SynthSpec(horizon=168))
        with qp.kkt_pattern_scope():
            for _ in range(2):
                assert run_scenario(cfg, data, properties="full").solution.status == OPTIMAL
            assert len(patterns.built) == 2 and len(patterns.alive()) == 1
        assert patterns.alive() == []

    def test_pattern_key_holds_the_column_count(self, monkeypatch):
        # the T=24 default with its last column emptied from a_eq and
        # coup: pinned, presolve drops that column, and the blocks' index
        # arrays are those of the free problem, one column narrower.
        # Solved pinned and then free in one scope, the free solve builds
        # its own pattern, where reusing the pinned one, a column short,
        # once raised ValueError, and each answer is byte for byte its
        # solve's alone
        _, p = build(default_config(24), synth_data(SynthSpec(horizon=24)))
        blocks = {}
        for name in ("a_eq", "coup"):
            m = getattr(p, name).tocsr().copy()
            m.data[m.indices == p.n - 1] = 0.0
            m.eliminate_zeros()
            blocks[name] = m
        free = dataclasses.replace(p, **blocks)
        pinned = dataclasses.replace(free, lb=np.where(np.arange(p.n) == p.n - 1, 0.0, p.lb),
                                     ub=np.where(np.arange(p.n) == p.n - 1, 0.0, p.ub))
        keys = [qp._pattern_key(_presolve(q)) for q in (pinned, free)]
        assert all(map(np.array_equal, keys[0][:4], keys[1][:4]))
        assert (keys[0][4], keys[1][4]) == (p.n - 1, p.n)
        alone = [solve_qp(pinned), solve_qp(free)]
        patterns = _Patterns(monkeypatch)
        with qp.kkt_pattern_scope():
            shared = [solve_qp(pinned), solve_qp(free)]
        assert [sol.status for sol in alone] == [OPTIMAL] * 2
        assert all(map(_same_answer, alone, shared))
        assert len(patterns.built) == 2

    @pytest.mark.parametrize("repeated", [False, True], ids=["week", "repeated-entry"])
    def test_reused_pattern_gives_the_same_answers(self, monkeypatch, repeated):
        # the quota + 1 neighbour, cold and then warm from the base, on the
        # patterns the base built: every answer byte for byte the one a
        # solve outside any scope gives.  With an a_eq entry stored twice,
        # presolve sums the two, as scipy's COO conversion does, in a copy:
        # the caller's a_eq and coup stay as they were.
        p = _with_repeated_entry(_synth_week()) if repeated else _synth_week()
        q = dataclasses.replace(p, coup_rhs=p.coup_rhs + np.array([0.0, 1.0]))
        blocks = [(m, m.copy()) for m in (p.a_eq, p.coup)]

        def solves():
            base = solve_qp(p)
            return base, solve_qp(q), solve_qp(q, start=base)

        alone = solves()
        patterns = _Patterns(monkeypatch)
        with qp.kkt_pattern_scope():
            shared = solves()
            # with nothing pinned, presolve hands a canonical a_eq through
            # as a_ext; the pattern held keeps copies of its index arrays
            held = [k for pattern in qp._PATTERN.get() for k in pattern.key]
            assert not any(np.shares_memory(k, part) for k in held
                           for part in (p.a_eq.indptr, p.a_eq.indices))
        assert [sol.status for sol in alone] == [OPTIMAL] * 3 and alone[2].iterations == 0
        assert all(map(_same_answer, alone, shared))
        assert len(patterns.built) == 1  # 1 pattern, 5 systems
        for m, was in blocks:
            for part in ("data", "indices", "indptr"):
                assert getattr(m, part).tobytes() == getattr(was, part).tobytes()

        pre = _presolve(p)
        kkt = qp._Kkt(pre, qp._KKT_REG)
        want = sp.vstack([pre.a_ext, pre.g[pre.n_b:]], format="csr").tocsc()
        assert p.a_eq.has_canonical_format is not repeated and pre.a_ext.has_canonical_format
        assert kkt.b.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(kkt.b, part).tobytes() == getattr(want, part).tobytes()


def test_polish_keeps_one_bound_per_variable(monkeypatch):
    # the thermal unit of the hand case sits at a raised lower bound; a
    # predicted set that also marks its upper bound active must not fix
    # it at lb + ub (90, outside [10, 80]) but keep the side with the
    # larger hint multiplier, here the lower one, in the first round:
    # one factorization, no release of the wrong side
    _, p = build(*hand_case())
    lb = p.lb.copy()
    j = int(p.layout.indices("g")[0])
    lb[j] = 10.0
    p = dataclasses.replace(p, lb=lb)
    sol = solve_qp(p)
    assert sol.status == OPTIMAL and sol.x[j] == pytest.approx(10.0)
    pre = _presolve(p)
    x, y, z = qp._presolved_point(pre, sol)
    act = qp._active(pre, x, z, pre.h - pre.g @ x)
    lo_row = int(np.searchsorted(pre.lo_idx, j))
    up_row = len(pre.lo_idx) + int(np.searchsorted(pre.up_idx, j))
    assert act[lo_row] and not act[up_row]
    act[up_row] = True
    sites = _Sites(monkeypatch)
    polished = qp._polish(p, pre, act, (x, y, z))
    assert polished is not None and sites.factors() == [POLISH]
    assert np.all(polished.x >= p.lb - 1e-9) and np.all(polished.x <= p.ub + 1e-9)
    assert polished.x[j] == pytest.approx(10.0)
    assert polished.objective == pytest.approx(sol.objective, rel=1e-12)


def test_polish_fixes_the_rows_its_point_violates(monkeypatch):
    # the week's predicted set with bound row 0 dropped: the first round's
    # point leaves that bound by 30.9, so the next round fixes the row
    # again before any release, and the point passes the gate at the
    # interior point's objective
    p = _synth_week()
    pre = _presolve(p)
    sol = solve_qp(p)
    x, y, z = qp._presolved_point(pre, sol)
    act = qp._active(pre, x, z, pre.h - pre.g @ x)
    assert act[0]
    act[0] = False
    sites = _Sites(monkeypatch)
    polished = qp._polish(p, pre, act, (x, y, z))
    assert polished is not None and sites.factors() == [POLISH, POLISH]
    assert qp._meets_tolerances(pre, SolverSettings(), polished.residuals, polished.objective)
    assert polished.objective == pytest.approx(sol.objective, rel=1e-12)


def test_polish_stops_at_a_repeated_active_set(monkeypatch):
    # seed 33 stopped after 3 iterations: the polish's rounds solve 4
    # distinct active sets, and the 5th round's set is the one an earlier
    # round solved, so every later round would repeat; the polish gives
    # up there instead of spending its other 4 rounds.  (The diagnosis's
    # elastic LPs polish too; each polish's sets are kept apart.)
    polishes, real_polish, real_kkt = [], qp._polish, qp._Kkt

    def recorded_polish(*args):
        polishes.append([])
        return real_polish(*args)

    def recorded_kkt(pre, eps, cols=None, coup=None):
        if cols is not None:
            polishes[-1].append((cols.tobytes(), coup.tobytes()))
        return real_kkt(pre, eps, cols, coup)

    monkeypatch.setattr(qp, "_polish", recorded_polish)
    monkeypatch.setattr(qp, "_Kkt", recorded_kkt)
    _, p = build(*random_instance(33))
    sol = solve_qp(p, SolverSettings(max_iter=3))
    assert len(polishes[0]) == len(set(polishes[0])) == 4
    assert sol.status == ITERATION_LIMIT and sol.message == "tolerances not reached"


def test_max_step_matches_masked_ratio_test():
    # the ratio test against its masked form, min(-v[neg] / dv[neg]) over
    # dv < 0 (inf when nothing binds): the same bits, with zero slacks,
    # signed zero directions and a direction entry whose ratio overflows
    rng = np.random.default_rng(1)
    v = np.abs(rng.standard_normal(1000)) * 10.0 ** rng.integers(-30, 30, 1000)
    v[:50] = 0.0
    dv = rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, 1000)
    dv[50:60], dv[60:70], dv[70] = 0.0, -0.0, -1e-320
    cases = [(v, dv), (v, np.abs(dv)), (v[:71], np.minimum(dv[:71], 0.0)),
             (v[70:72], dv[70:72]), (v[:50], -np.abs(dv[:50]))]
    for vv, dd in cases:
        neg = dd < 0
        with np.errstate(over="ignore"):
            want = float(np.min(-vv[neg] / dd[neg])) if neg.any() else np.inf
        got = qp._max_step(vv, dd, np.full_like(vv, 1.0))  # scratch left from earlier use
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.fixture(scope="module", params=[168, 672])
def synth_base(request):
    model, p = build(default_config(request.param),
                     synth_data(SynthSpec(seed=7, horizon=request.param)))
    return model, solve_qp(p)


class TestWarmStart:
    @pytest.mark.parametrize("param, step", [("quota", 1.0), ("r", 0.01)])
    def test_neighbour_answered_from_base_active_set(self, synth_base, param, step):
        model, base = synth_base
        value = (model.quota if param == "quota" else model.config.policy.r) + step
        p, warm = solve_for_param(model, param, value, start=base)
        _, cold = solve_for_param(model, param, value)
        assert warm.status == cold.status == OPTIMAL
        assert warm.iterations == 0 and cold.iterations > 0
        assert abs(warm.objective - cold.objective) <= 1e-9 * abs(cold.objective)
        tol, pre = SolverSettings().tol, _presolve(p)
        res = kkt_residuals(p, warm)
        assert res.primal_inf <= tol * pre.scale_p and res.dual_inf <= tol * pre.scale_d
        assert res.comp_gap <= tol * (1.0 + abs(warm.objective))

    @pytest.mark.parametrize("start", ["not optimal", "wrong length", "far problem"])
    def test_unusable_start_gives_the_cold_solution(self, start):
        model, p = build(default_config(168), synth_data(SynthSpec(seed=7, horizon=168)))
        base = solve_qp(p)
        if start == "not optimal":
            kwargs = dict(start=dataclasses.replace(base, status=ITERATION_LIMIT))
            moved = ("quota", model.quota + 1.0)
        elif start == "wrong length":
            kwargs = dict(start=dataclasses.replace(base, x=base.x[:-13]))
            moved = ("quota", model.quota + 1.0)
        else:
            assert model.config.policy.r == 0.9
            kwargs = dict(start=base)
            moved = ("r", 0.0)
        _, warm = solve_for_param(model, *moved, **kwargs)
        _, cold = solve_for_param(model, *moved)
        assert (warm.status, warm.iterations, warm.message) == (
            cold.status, cold.iterations, cold.message)
        assert warm.iterations > 0
        assert warm.x.tobytes() == cold.x.tobytes()


# one synthetic year, solved in a child process that prints its status,
# whether its answer is the last polished point (`qp._polish`'s last return)
# and its peak resident size in KiB
_YEAR = """
import json, resource, warnings
import trimarket.qp as qp
from trimarket.model import assemble_qp, default_config, validate_config
from trimarket.scenarios import SynthSpec, synth_data
real, last = qp._polish, [None]
def recorded(*args):
    last[0] = real(*args)
    return last[0]
qp._polish = recorded
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    model = validate_config(default_config(8760), synth_data(SynthSpec(seed=7, horizon=8760)))
sol = qp.solve_qp(assemble_qp(model))
polished = last[0] is not None and sol.x is last[0].x
print(json.dumps([sol.status, polished, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_year_is_optimal_in_bounded_memory():
    # T=8760 with the child's address space capped at 3 GB: the solve is
    # optimal, answered by the polished point (the gate's other path is
    # the converged iterate), and the child peaks below 230 MB resident
    # (177-191 MB measured with the band factors, 240 MB with SuperLU's
    # sparse LU)
    def capped():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    out = subprocess.run([sys.executable, "-c", _YEAR], preexec_fn=capped, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    status, polished, peak_kib = json.loads(out.stdout)
    assert status == OPTIMAL and polished and peak_kib / 1024 < 230

import dataclasses

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
from trimarket.scenarios import SynthSpec, synth_data

from _instances import build, hand_case, no_supply_case, random_instance, solve
from _oracle import oracle_solve


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
            scale_p = 1.0 + max(np.max(np.abs(pre.b_ext), initial=0.0),
                                np.max(np.abs(pre.coup_rhs), initial=0.0))
            scale_d = 1.0 + np.max(np.abs(pre.c), initial=0.0)
            res = kkt_residuals(p, sol)
            assert res.primal_inf <= s.tol * scale_p, seed
            assert res.dual_inf <= s.tol * scale_d, seed
            assert res.comp_gap <= s.tol * (1.0 + abs(sol.objective)), seed

    def test_every_variable_pinned(self):
        # presolve pins everything, so no inequality reaches the solver: the
        # finisher's polish is the whole solve, and its point is verified too
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
        # tolerance of the lb > ub test is inf - inf there
        _, p = build(*hand_case())
        lb, ub = p.lb.copy(), p.ub.copy()
        lb[p.layout.indices("G")], ub[p.layout.indices("G")] = lo, hi
        sol = solve_qp(dataclasses.replace(p, lb=lb, ub=ub))
        assert sol.status == INFEASIBLE
        assert "empty bound interval" in sol.message

    def test_presolve_rejects_unmeetable_coupling_rows(self):
        # a quota below its row's box minimum, then two rows that each hold
        # only at one end of the TG output's box [0, 80]
        _, p = build(*hand_case())
        sol = solve_qp(dataclasses.replace(p, coup_rhs=np.array([p.coup_rhs[0], -1.0])))
        assert sol.status == INFEASIBLE
        assert sol.message == (
            "infeasible: coupling row 1 requires value below its box minimum (-1.0 < 0.0)"
        )
        g = p.layout.indices("g")[0]
        coup = sp.csr_matrix(([1.0, -1.0], ([0, 1], [g, g])), shape=(2, p.n))
        sol = solve_qp(dataclasses.replace(p, coup=coup, coup_rhs=np.array([0.0, -80.0])))
        assert sol.status == INFEASIBLE
        assert sol.message == f"infeasible: conflicting pins on variable {g}"

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

    def test_rec_floor_infeasible(self):
        cfg, data = self._rec_starved()
        _, p, sol = solve(cfg, data)
        assert sol.status == INFEASIBLE
        assert "retirement floor" in sol.message

    def test_quota_infeasible(self):
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
        _, p, sol = solve(cfg, data)
        assert sol.status == INFEASIBLE
        assert "quota" in sol.message

    def test_infeasible_solve_probes_full_problem_once(self, monkeypatch):
        coupling_rows = []
        real = qp.linprog

        def counting(*args, **kwargs):
            a_ub = kwargs["A_ub"]
            coupling_rows.append(0 if a_ub is None else a_ub.shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(qp, "linprog", counting)
        cfg, data = self._rec_starved()
        _, p, sol = solve(cfg, data)
        assert sol.message == (
            "infeasible: REC retirement floor conflicts with certificate supply and caps"
        )
        # the full-problem probe, then dropping the floor restores feasibility
        assert coupling_rows == [2, 1]

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
        # every factorization is an interior-point one: no polish runs
        assert len(sites.factors()) <= 20 and POLISH not in sites.factors()

    def test_stall_with_collapsing_mu_ends_early(self):
        # here mu falls toward zero instead of growing; the primal residual
        # stalls all the same
        _, p = build(*no_supply_case())
        sol = solve_qp(p)
        assert sol.status == INFEASIBLE
        assert sol.message == "infeasible: balance equations conflict with variable bounds"
        assert sol.iterations <= 15

    def test_feasible_stall_verdict_keeps_iterating(self, monkeypatch):
        # a stall probe that does not answer "infeasible" leaves the
        # iteration to run on; the probe runs once per solve, and the exit
        # after the iteration limit probes again and names the conflict
        calls, real = [], qp._feasibility_probe

        def first_says_feasible(p, drop_coupling=()):
            calls.append(drop_coupling)
            return "feasible" if len(calls) == 1 else real(p, drop_coupling)

        monkeypatch.setattr(qp, "_feasibility_probe", first_says_feasible)
        sol = solve_qp(_infeasible_week(), SolverSettings(max_iter=30))
        assert sol.status == INFEASIBLE and sol.iterations == 30
        assert sol.message == (
            "infeasible: REC retirement floor conflicts with certificate supply and caps"
        )
        assert calls == [(), (), (0,)]

    @pytest.mark.parametrize("horizon", [168, 672])
    def test_feasible_solve_runs_no_probe(self, monkeypatch, horizon):
        monkeypatch.setattr(qp, "linprog", lambda *a, **k: pytest.fail("probe on a feasible solve"))
        _, p = build(default_config(horizon), synth_data(SynthSpec(horizon=horizon)))
        assert solve_qp(p).status == OPTIMAL

    def test_diagnose_on_feasible_problem(self):
        cfg, data = hand_case()
        _, p = build(cfg, data)
        assert diagnose_infeasibility(p) == "problem is feasible"


# the three factor sites, by the method that makes each factor: the
# interior point's band factor of the reduced system, its partial-pivot
# fallback on the full matrix, and the active-set polish
BAND, FALLBACK, POLISH = "band_factor", "fallback_factor", "_polish"
DGBTRF, RCM = "dgbtrf", "reverse_cuthill_mckee"


class _Sites:
    """Record each call of qp.dgbtrf (one per factor) and of module.<attr> with its site.

    The site of a call is the innermost of _Kkt.band_factor,
    _Kkt.fallback_factor and qp._polish running when it is made, or None
    outside them.  `calls` holds one (site, attr) per call; clearing it
    starts a new solve.
    """

    def __init__(self, monkeypatch, *attrs, module=qp):
        self.calls, self.stack = [], []
        for owner, name in ((qp._Kkt, BAND), (qp._Kkt, FALLBACK), (qp, POLISH)):
            monkeypatch.setattr(owner, name, self._entered(name, getattr(owner, name)))
        for owner, attr in [(qp, DGBTRF)] + [(module, attr) for attr in attrs]:
            monkeypatch.setattr(owner, attr, self._recorded(attr, getattr(owner, attr)))

    @property
    def site(self):
        return self.stack[-1] if self.stack else None

    def factors(self, exclude=None):
        return [site for site, attr in self.calls if attr == DGBTRF and site != exclude]

    def _entered(self, name, real):
        def entered(*args, **kwargs):
            self.stack.append(name)
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
        # a step, none falls back, then the polish's one factor
        assert sites.factors() == [BAND] * 8 + [POLISH]

    def test_partial_pivot_fallback_keeps_solve_optimal(self, monkeypatch):
        # the barrier diagonal spans so many orders of magnitude that the
        # band factor cannot refine one direction to tolerance; the
        # partial-pivot refactor follows in the same (last) iteration
        sites = _Sites(monkeypatch)
        _, p = build(*random_instance(222))
        sol = solve_qp(p)
        assert sol.status == OPTIMAL and sol.iterations == 7
        assert sites.factors() == [BAND] * 7 + [FALLBACK, POLISH]

    def test_kkt_pattern_built_once_per_solve(self, monkeypatch):
        sites = _Sites(monkeypatch, "bmat", module=qp.sp)
        iterations = set()
        for p in (build(*hand_case())[1], _synth_week(), build(*random_instance(12))[1]):
            sites.calls.clear()
            sol = solve_qp(p)
            assert sol.status == OPTIMAL
            iterations.add(sol.iterations)
            assert sum(site != POLISH for site, attr in sites.calls if attr == "bmat") == 1
        assert len(iterations) == 3

    def test_one_ordering_per_solve(self, monkeypatch):
        sites = _Sites(monkeypatch, RCM)
        for p in (build(*hand_case())[1], _synth_week(), build(*random_instance(12))[1]):
            sites.calls.clear()
            sol = solve_qp(p)
            assert sol.status == OPTIMAL
            ipm = [(site, attr) for site, attr in sites.calls if site != POLISH]
            # the order comes first, from the fixed pattern, and only once;
            # the start and each iteration that takes a step factor with it
            assert ipm[0] == (None, RCM) and ipm.count((None, RCM)) == 1
            assert sites.factors(exclude=POLISH) == [BAND] * sol.iterations

    @pytest.mark.parametrize("horizon", [168, 672, 2688])
    def test_reduced_core_is_a_band_of_width_8(self, horizon):
        _, p = build(default_config(horizon), synth_data(SynthSpec(seed=7, horizon=horizon)))
        pre = _presolve(p)
        kkt = qp._Kkt(pre)
        order, bw, n_c = kkt.lay
        assert bw == 8
        # every row of r but the kept coupling rows is in the band
        assert len(pre.keep_rows) == n_c == 2 and len(order) == len(kkt.r_rows)

    @pytest.mark.parametrize("horizon", [168, 672, 2688])
    def test_polish_core_is_a_band_of_width_8(self, monkeypatch, horizon):
        # the polish borders its active coupling rows, whatever their
        # density: its core is then as narrow a band as the interior
        # point's (6-7 here)
        layouts, real = [], qp._layout

        def measured(k, n_c):
            out = real(k, n_c)
            if sites.site == POLISH:
                layouts.append((n_c, out[0][1]))
            return out

        monkeypatch.setattr(qp, "_layout", measured)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(horizon), synth_data(SynthSpec(seed=7, horizon=horizon)))
        sol = solve_qp(p)
        assert sol.status == OPTIMAL
        assert np.all(sol.ineq_duals.coupling > 0.0)  # both coupling rows active
        assert layouts and all(n_c == 2 and bw <= 8 for n_c, bw in layouts)

    def test_reordered_factor_solves_like_a_fresh_ordering(self, monkeypatch):
        # replay every diagonal of a real solve, the start's first: the
        # band factor of the reduced matrix, in the order computed once per
        # solve, solves the full k_reg as a fresh SuperLU factor of k_reg
        # does.  The infeasible week keeps its pinned columns in the
        # reduced matrix.  Where the fresh factor and the partial-pivot
        # fallback, two factors made independently, disagree beyond 1e-12,
        # neither is a reference (the barrier diagonal spans 21 to 31
        # orders of magnitude there, and they differ by up to 2.4e-9), so
        # only the other diagonals compare; they include every one whose
        # solve fell back.
        diagonals, real = [], qp._Kkt.set_diagonal

        def recorded(kkt, diag):
            diagonals.append((kkt, diag.copy()))
            real(kkt, diag)

        monkeypatch.setattr(qp._Kkt, "set_diagonal", recorded)
        sites = _Sites(monkeypatch)
        for problem, n_diag, n_kept, partial, unmatched in (
                (_synth_week(), 8, 0, set(), set()),
                (_infeasible_week(), 11, 504, {9}, {9, 10, 11})):
            diagonals.clear()
            sites.calls.clear()
            solve_qp(problem)
            ipm = sites.factors(exclude=POLISH)
            # the diagonal of each fallback: the band factors before it
            fell_back = {ipm[:i].count(BAND) for i, site in enumerate(ipm) if site == FALLBACK}
            assert len(diagonals) == n_diag and fell_back == partial
            kkt = diagonals[0][0]
            assert kkt.n_k == n_kept and len(kkt.r_rows) < kkt.k_reg.shape[0]
            rhs = np.random.default_rng(0).standard_normal(kkt.k_reg.shape[0])
            no_reference = set()
            for k, (_, diag) in enumerate(diagonals, start=1):
                real(kkt, diag)
                reduced = kkt.band_factor()
                want = splu(kkt.k_reg, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True)).solve(rhs)
                tol = 1e-12 * np.max(np.abs(want))
                if np.max(np.abs(kkt.fallback_factor().solve(rhs) - want)) > tol:
                    no_reference.add(k)
                else:
                    assert np.max(np.abs(reduced.solve(rhs) - want)) <= tol
            assert no_reference == unmatched

    def test_static_factor_eliminates_bounded_columns(self, monkeypatch):
        # every column with a bound row is eliminated: the reduced matrix
        # has one row per row of a_ext, per kept coupling row and per
        # column without a bound row, and all but the coupling rows are
        # in the band
        shapes, real = [], qp.dgbtrf

        def measured(ab, kl, ku, **kwargs):
            if sites.site == BAND:
                shapes.append((ab.shape, kl, ku))
            return real(ab, kl, ku, **kwargs)

        monkeypatch.setattr(qp, "dgbtrf", measured)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(672), synth_data(SynthSpec(seed=7, horizon=672)))
        pre = _presolve(p)
        unbounded = np.ones(p.n, dtype=bool)
        unbounded[pre.lo_idx] = unbounded[pre.up_idx] = False
        dim = pre.a_ext.shape[0] + len(pre.keep_rows) + int(unbounded.sum())
        assert solve_qp(p).status == OPTIMAL
        band = dim - len(pre.keep_rows)
        assert dim == 4034 and set(shapes) == {((3 * 8 + 1, band), 8, 8)} and len(shapes) == 10

    def test_infeasible_week_keeps_its_factor_counts(self, monkeypatch):
        # the pinned columns stay in the reduced matrix: eliminating them
        # puts 1 / _KKT_REG into it, and the refinement then misses its
        # tolerance in more iterations, each one more partial-pivot factor
        sites = _Sites(monkeypatch, RCM)
        sol = solve_qp(_infeasible_week())
        assert sol.status == INFEASIBLE and sol.iterations == 11
        factors = sites.factors()
        assert len(factors) == 12 and factors.count(FALLBACK) == 1
        # the fallback's order is made once, at its first factor
        assert [site for site, attr in sites.calls if attr == RCM] == [None, FALLBACK]

    def test_polish_rejects_non_finite_solve(self, monkeypatch):
        # every polish factor solves to NaN; the finisher rejects that
        # point and the converged iterate, verified like any other
        # answer, is returned instead
        real, nan_solves = qp._BandLu.solve, []

        def nan_in_polish(lu, vec):
            if sites.site != POLISH:
                return real(lu, vec)
            nan_solves.append(True)
            return np.full_like(vec, np.nan)

        monkeypatch.setattr(qp._BandLu, "solve", nan_in_polish)
        sites = _Sites(monkeypatch)
        p = _synth_week()
        sol = solve_qp(p)
        assert nan_solves and sol.status == OPTIMAL and sol.iterations == 8
        assert np.all(np.isfinite(sol.x))
        tol, (scale_p, scale_d) = SolverSettings().tol, qp._scales(_presolve(p))
        res = kkt_residuals(p, sol)
        assert res.primal_inf <= tol * scale_p and res.dual_inf <= tol * scale_d
        assert res.comp_gap <= tol * (1.0 + abs(sol.objective))

    def test_polish_factors_only_free_variables(self, monkeypatch):
        # active bounds fix their variables: the polish's band stores
        # 214,214 entries here, (3 bw + 1) times its core's dimension,
        # against 963,739 (bandwidth 20) with one selector row per active
        # bound
        stored, real = [], qp.dgbtrf

        def measured(ab, kl, ku, **kwargs):
            if sites.site == POLISH:
                stored.append(ab.size)
            return real(ab, kl, ku, **kwargs)

        monkeypatch.setattr(qp, "dgbtrf", measured)
        sites = _Sites(monkeypatch)
        _, p = build(default_config(672), synth_data(SynthSpec(seed=7, horizon=672)))
        assert solve_qp(p).status == OPTIMAL
        assert stored and max(stored) < 300_000

    @staticmethod
    def _nth_singular(monkeypatch, attr, n):
        """Make the n-th call of qp.<attr> (dgbtrf or dgetrf) report an exactly zero pivot."""
        real, calls = getattr(qp, attr), []

        def nth_singular(*args, **kwargs):
            lu, piv, info = real(*args, **kwargs)
            calls.append(True)
            return (lu, piv, 1) if len(calls) == n else (lu, piv, info)

        monkeypatch.setattr(qp, attr, nth_singular)

    def test_start_factor_error_falls_back_in_the_start(self, monkeypatch):
        # the start's band LU reports an exactly zero pivot (info > 0):
        # its two solves take the partial-pivot factor, and iteration 1
        # factors the band again
        self._nth_singular(monkeypatch, DGBTRF, 1)
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert sol.status == OPTIMAL and sol.iterations == 8
        assert sites.factors(exclude=POLISH) == [BAND, FALLBACK] + [BAND] * 7

    def test_static_factor_error_falls_back_in_same_iteration(self, monkeypatch):
        # iteration 1's band LU, the second after the start's, reports an
        # exactly zero pivot (info > 0)
        self._nth_singular(monkeypatch, DGBTRF, 2)
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert sol.status == OPTIMAL and sol.iterations == 8
        # partial pivoting follows the failed band factor within the same
        # iteration, and every later iteration factors the band again
        assert sites.factors(exclude=POLISH) == [BAND, BAND, FALLBACK] + [BAND] * 6

    def test_singular_border_falls_back_in_same_iteration(self, monkeypatch):
        # the coupling rows' Schur complement reports an exactly zero pivot
        # in the first iteration (the start's is the first dgetrf); that
        # iteration refactors with partial pivoting
        self._nth_singular(monkeypatch, "dgetrf", 2)
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert sol.status == OPTIMAL and sol.iterations == 8
        assert sites.factors(exclude=POLISH) == [BAND, BAND, FALLBACK] + [BAND] * 6

    @pytest.mark.parametrize("error", [MemoryError])
    def test_polish_out_of_memory_falls_back_to_converged_iterate(self, monkeypatch, error):
        # a store too large for the memory raises MemoryError; the polish
        # makes the only factor that fails here
        real, failed = qp.dgbtrf, []

        def polish_fails(*args, **kwargs):
            if sites.site == POLISH:
                failed.append(True)
                raise error("out of memory")
            return real(*args, **kwargs)

        monkeypatch.setattr(qp, "dgbtrf", polish_fails)
        sites = _Sites(monkeypatch)
        sol = solve_qp(_synth_week())
        assert failed == [True]
        assert sol.status == OPTIMAL and sol.iterations == 8

    @pytest.mark.parametrize("error", [MemoryError])
    def test_factor_out_of_memory_is_a_status(self, monkeypatch, error):
        def always_fails(*args, **kwargs):
            raise error("out of memory")

        monkeypatch.setattr(qp, "dgbtrf", always_fails)
        _, p = build(*hand_case())
        sol = solve_qp(p)
        assert sol.status == ITERATION_LIMIT
        assert sol.message == "KKT factorization failed"

    def test_factor_error_at_start_ends_as_in_iteration_one(self, monkeypatch):
        # every factor failing stops the solve in its start; every factor
        # after the start's failing stops it in iteration 1 (its band
        # factor, then the fallback) and leaves the polish of the start
        # point failing too: both end with the same status and message
        real = qp.dgbtrf
        ends = []
        for n_ok in (0, 1):
            calls = []

            def fails_after(*args, **kwargs):
                calls.append(True)
                if len(calls) > n_ok:
                    raise MemoryError("out of memory")
                return real(*args, **kwargs)

            monkeypatch.setattr(qp, DGBTRF, fails_after)
            sol = solve_qp(build(*hand_case())[1])
            ends.append((sol.status, sol.message, sol.iterations))
        assert ends == [(ITERATION_LIMIT, "KKT factorization failed", 0),
                        (ITERATION_LIMIT, "KKT factorization failed", 1)]

    def test_no_solve_calls_superlu(self, monkeypatch):
        # SuperLU is gone from the solver: with it failing, a cold solve,
        # one that falls back to partial pivoting, an infeasible one and a
        # warm neighbour all end as before
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
        tol, (scale_p, scale_d) = SolverSettings().tol, qp._scales(pre)
        res = kkt_residuals(p, sol)
        assert res.primal_inf <= tol * scale_p and res.dual_inf <= tol * scale_d
        assert res.comp_gap <= tol * (1.0 + abs(sol.objective))
        # the idle ESS leaves the floor's multiplier on a degenerate range
        # (the oracle picks 20, this recovery 40.6): only its sign is fixed
        assert np.all(sol.ineq_duals.coupling >= 0.0)


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
        tol, (scale_p, scale_d) = SolverSettings().tol, qp._scales(_presolve(p))
        res = kkt_residuals(p, warm)
        assert res.primal_inf <= tol * scale_p and res.dual_inf <= tol * scale_d
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

import dataclasses
import threading

import numpy as np
import pytest

import trimarket.analysis
import trimarket.scenarios
from trimarket.analysis import affine_sensitivity, solve_for_param
from trimarket.model import (
    EssParams,
    InventoryParams,
    MarketData,
    PolicyParams,
    TgParams,
    TradeCaps,
    ValidationError,
    VppConfig,
    default_config,
    recover_plan,
    validate_config,
)
from trimarket.qp import SolverSettings
from trimarket.scenarios import (
    MATRIX_CELLS,
    InfeasibleError,
    RevenueBreakdown,
    SolveFailure,
    SynthSpec,
    inventory_matrix,
    parameter_sweep,
    run_scenario,
    synth_data,
)

from _instances import hand_case, rec_priority_case


class TestSynthData:
    def test_same_seed_reproduces_bits(self):
        a = synth_data(SynthSpec(seed=11))
        b = synth_data(SynthSpec(seed=11))
        for name in ("pi_g", "pi_r", "pi_c", "e", "l"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        c = synth_data(SynthSpec(seed=12))
        assert not np.array_equal(a.e, c.e)

    def test_zero_noise_is_daily_periodic(self):
        d = synth_data(SynthSpec(horizon=72, wind_noise=0.0, pv_noise=0.0, load_noise=0.0))
        for name in ("e", "l"):
            series = getattr(d, name)
            np.testing.assert_allclose(series[:24], series[24:48], atol=1e-12)
            np.testing.assert_allclose(series[:24], series[48:72], atol=1e-12)

    def test_three_level_electricity_prices(self):
        d = synth_data(SynthSpec(horizon=48))
        assert set(np.unique(d.pi_g)) == {40.0, 70.0, 300.0}
        # peak band must cover the evening ramp, off-peak the small hours
        assert d.pi_g[19] == 300.0 and d.pi_g[3] == 40.0 and d.pi_g[8] == 70.0

    def test_certificate_prices_move_daily(self):
        d = synth_data(SynthSpec(horizon=72))
        for series in (d.pi_r, d.pi_c):
            for day in range(3):
                block = series[24 * day : 24 * (day + 1)]
                assert np.all(block == block[0])
        assert len(np.unique(d.pi_r)) == 3

    def test_series_are_nonnegative(self):
        d = synth_data(SynthSpec(horizon=168, wind_noise=30.0, load_noise=30.0))
        for name in ("pi_g", "pi_r", "pi_c", "e", "l"):
            assert np.all(getattr(d, name) >= 0.0)

    def test_synth_spec_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            SynthSpec(horizon=0)
        with pytest.raises(ValueError, match="wind_noise"):
            SynthSpec(wind_noise=-1.0)
        with pytest.raises(ValueError, match="REC price range"):
            SynthSpec(rec_price_lo=30.0, rec_price_hi=12.0)
        with pytest.raises(ValueError, match="CER price range"):
            SynthSpec(cer_price_lo=40.0, cer_price_hi=20.0)

    @pytest.mark.parametrize("field, value, message", [
        ("wind_noise", np.nan, "wind_noise must be finite"),
        ("load_noise", np.inf, "load_noise must be finite"),
        ("wind_base", np.nan, "wind_base must be finite"),
        ("pv_peak", -np.inf, "pv_peak must be finite"),
        ("rec_price_hi", np.inf, "rec_price_hi must be finite"),
        ("cer_price_lo", np.nan, "cer_price_lo must be finite"),
        ("price_offpeak", -1.0, "price_offpeak must be nonnegative"),
        ("price_mid", -1.0, "price_mid must be nonnegative"),
        ("price_peak", -5.0, "price_peak must be nonnegative"),
        ("price_peak", np.nan, "price_peak must be finite"),
    ])
    def test_synth_spec_rejects_non_finite_and_negative_prices(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthSpec(**{field: value})


class TestRevenueBreakdown:
    def test_identity(self):
        b = RevenueBreakdown(rev_g=10.0, rev_r=2.0, rev_c=-1.0, cost_g=4.0)
        assert b.profit == pytest.approx(7.0)
        assert b.to_dict()["profit"] == pytest.approx(7.0)

    def test_matches_solver_objective(self, base_result):
        rel = abs(base_result.breakdown.profit - base_result.solution.objective)
        assert rel <= 1e-6 * (1.0 + abs(base_result.solution.objective))


class TestRunScenario:
    def test_modes(self, base_cfg, base_data):
        bare = run_scenario(base_cfg, base_data, properties="none")
        assert bare.reports == [] and bare.case_tables == {}
        with pytest.raises(ValueError, match="properties"):
            run_scenario(base_cfg, base_data, properties="everything")

    def test_full_mode_adds_extra_solves(self, base_result):
        ids = {r.prop_id for r in base_result.reports}
        assert {"quota_envelope_slope", "rps_envelope_slope", "rps_increment_priority"} <= ids

    def test_infeasible_raises_with_diagnosis(self):
        cfg, data = hand_case()
        cfg = VppConfig(
            **{
                **cfg.__dict__,
                "rec_inventory": InventoryParams.disabled(),
                "caps": TradeCaps(r_cap=0.0),
            }
        ).with_policy(r=1.0)
        data = MarketData(**{**data.__dict__, "e": np.array([1.0])})
        with pytest.raises(InfeasibleError, match="retirement floor"):
            run_scenario(cfg, data)

    def test_iteration_limit_raises_solve_failure(self, base_cfg, base_data):
        with pytest.raises(SolveFailure):
            run_scenario(base_cfg, base_data, settings=SolverSettings(max_iter=2))

    def test_full_mode_solves_each_problem_once(self, base_cfg, base_data, monkeypatch):
        seen, solutions = [], []
        for module in (trimarket.scenarios, trimarket.analysis):
            def counted(problem, settings=None, _orig=module.solve_qp, **kwargs):
                arrays = (problem.h_diag, problem.f, problem.a_eq.data, problem.a_eq.indices,
                          problem.b_eq, problem.lb, problem.ub, problem.coup.data, problem.coup_rhs)
                seen.append(b"".join(a.tobytes() for a in arrays))
                solutions.append(_orig(problem, settings, **kwargs))
                return solutions[-1]

            monkeypatch.setattr(module, "solve_qp", counted)
        run_scenario(base_cfg, base_data, properties="full")
        assert len(seen) == 3
        assert len(set(seen)) == 3
        # both neighbours are answered from the base solution's active set
        assert [sol.iterations for sol in solutions[1:]] == [0, 0]

    def test_infeasible_neighbour_with_start_keeps_its_diagnosis(self):
        # r = 0.5 is the highest feasible RPS level of this instance
        cfg, data = _tiny_sweep_cfg()
        model = validate_config(cfg.with_policy(r=0.5), data)
        _, base = solve_for_param(model, "r", 0.5)
        assert base.status == "optimal"
        _, warm = solve_for_param(model, "r", 0.51, start=base)
        _, cold = solve_for_param(model, "r", 0.51)
        assert warm.status == "infeasible"
        assert warm.message == cold.message
        assert warm.message.startswith("infeasible: REC retirement floor")

    @pytest.mark.parametrize("c_cap", [np.inf, 0.0])
    def test_zero_trade_cap_skips_multiplier_slack_biconditional(self, c_cap):
        # the REC cap is 0, so no hour trades strictly inside it, while the
        # binding floor gives mu > 0 through own renewables
        cfg, data = _tiny_sweep_cfg()
        res = run_scenario(cfg.with_policy(r=0.5).with_caps(c_cap=c_cap), data,
                           properties="core")
        assert res.duals.mu > 0
        assert [r.prop_id for r in res.reports if not r.holds] == []
        by_id = {r.prop_id: r for r in res.reports}
        zero_cap = ["rps_multiplier_iff_rec_trade_slack"]
        if c_cap == 0.0:
            zero_cap.append("cer_multiplier_iff_trade_slack")
        for prop_id in zero_cap:
            assert by_id[prop_id].skipped
            assert "trade cap is 0" in by_id[prop_id].note

    def test_full_mode_skips_checks_when_shifted_solve_fails(self):
        # r = 0.5 is the highest feasible RPS level, so r + 0.01 is infeasible
        cfg, data = _tiny_sweep_cfg()
        res = run_scenario(cfg.with_policy(r=0.5), data, properties="full")
        by_id = {r.prop_id: r for r in res.reports}
        for prop_id in ("rps_envelope_slope", "rps_increment_priority"):
            assert by_id[prop_id].skipped
            assert "infeasible" in by_id[prop_id].note

    def test_full_mode_skips_rps_checks_without_headroom(self):
        # r + 0.01 would leave [0, 1], so the shifted RPS solve never runs
        cfg, data = rec_priority_case()
        res = run_scenario(cfg.with_policy(r=0.995), data, properties="full")
        by_id = {r.prop_id: r for r in res.reports}
        for prop_id in ("rps_envelope_slope", "rps_increment_priority"):
            assert by_id[prop_id].skipped and by_id[prop_id].holds
            assert by_id[prop_id].note == "no headroom above the RPS level"
        assert not by_id["quota_envelope_slope"].skipped

    @pytest.mark.parametrize("r", [0.9, 0.995])
    def test_lossy_storage_loses_energy(self, r):
        # q_t = q_{t-1} + eta_c*p_c - p_d/eta_d: over the cyclic horizon the
        # stored energy balances, and losses can only cost profit
        data = synth_data(SynthSpec(seed=8))
        lossless = default_config(168).with_policy(r=r)
        lossy = dataclasses.replace(lossless,
                                    ess=EssParams(40.0, 40.0, 80.0, eta_c=0.95, eta_d=0.9))
        base = run_scenario(lossless, data, properties="none")
        res = run_scenario(lossy, data, properties="core")
        assert res.profit < base.profit
        stored = 0.95 * res.plan.p_c.sum()
        assert stored == pytest.approx(res.plan.p_d.sum() / 0.9, rel=1e-6)
        assert [rep.prop_id for rep in res.reports if not rep.holds] == []


def _tiny_sweep_cfg():
    # three flat hours with half the load coverable by RES certificates:
    # the retirement floor turns infeasible above r = 0.5
    cfg = VppConfig(
        horizon=3,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=0.0, p_d_max=0.0, q_max=0.0),
        rec_inventory=InventoryParams.disabled(),
        cer_inventory=InventoryParams.disabled(),
        policy=PolicyParams(r=0.2, alpha=0.2),
        caps=TradeCaps(r_cap=0.0),
    )
    data = MarketData(
        pi_g=np.full(3, 50.0),
        pi_r=np.full(3, 20.0),
        pi_c=np.full(3, 30.0),
        e=np.full(3, 5.0),
        l=np.full(3, 10.0),
    )
    return cfg, data


class TestParameterSweep:
    def test_failures_recorded_and_sweep_continues(self):
        cfg, data = _tiny_sweep_cfg()
        sw = parameter_sweep(cfg, data, "r", [0.0, 0.3, 1.0])
        statuses = [p.status for p in sw.points]
        assert statuses == ["optimal", "optimal", "infeasible"]
        assert sw.points[2].breakdown is None
        assert "retirement floor" in sw.points[2].message
        assert np.isnan(sw.profits()[2])
        assert sw.points[2].mu is None and sw.points[2].delta is None
        failed = sw.to_dict()["points"][2]
        assert "mu" not in failed and "delta" not in failed

    def test_grid_validation(self, base_cfg, base_data):
        with pytest.raises(ValueError, match="empty"):
            parameter_sweep(base_cfg, base_data, "r", [])
        with pytest.raises(ValueError, match="outside"):
            parameter_sweep(base_cfg, base_data, "alpha", [0.5, 1.2])
        with pytest.raises(ValueError, match="sweep parameter"):
            parameter_sweep(base_cfg, base_data, "beta", [0.1])
        # the first value below its predecessor is named; a repeat keeps its own message
        with pytest.raises(ValidationError, match="strictly increasing: r=0.2 is out of order"):
            parameter_sweep(base_cfg, base_data, "r", [0.1, 0.3, 0.2, 0.0])
        with pytest.raises(ValidationError, match="repeats r=0.3"):
            parameter_sweep(base_cfg, base_data, "r", [0.3, 0.1, 0.3])

    def test_sweep_points_match_single_solves(self):
        # the grid gives, bit for bit, what solve_for_param gives at each
        # value alone
        cfg, data = _tiny_sweep_cfg()
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.6]
        sw = parameter_sweep(cfg, data, "r", grid)
        model = validate_config(cfg, data)
        for v, point in zip(grid, sw.points):
            problem, sol = solve_for_param(model, "r", v)
            assert point.status == sol.status
            if sol.status == "optimal":
                plan = recover_plan(sol.x, problem.layout, eta_c=cfg.ess.eta_c, eta_d=cfg.ess.eta_d)
                assert point.breakdown.profit == RevenueBreakdown.from_plan(plan, data, cfg).profit
            else:
                assert point.breakdown is None and point.message == sol.message
        assert sw.points[-1].status == "infeasible"

    def test_grids_solve_without_starting_a_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a grid solve started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg, data = _tiny_sweep_cfg()
        sw = parameter_sweep(cfg, data, "r", [0.0, 0.3, 1.0])
        assert [p.status for p in sw.points] == ["optimal", "optimal", "infeasible"]
        rep = affine_sensitivity(validate_config(cfg, data), "alpha", [0.1, 0.2, 0.3])
        assert len(rep.fingerprints) == 3

    def test_trend_change_flagged_at_cap_saturation(self, base_cfg, base_data):
        # the 400-unit CER trade cap saturates the best sale day once the
        # quota outgrows one day's capacity, kinking rev_c
        sw = parameter_sweep(base_cfg, base_data, "alpha", np.linspace(0.0, 1.0, 6))
        assert all(p.status == "optimal" for p in sw.points)
        assert sw.breakpoints["rev_c"]
        assert sw.breakpoints["rev_g"] == []


class TestInventoryMatrix:
    def test_requires_inventories_enabled(self, base_data, base_cfg):
        off = base_cfg.with_inventories(rec=False, cer=False)
        with pytest.raises(ValueError, match="enabled"):
            inventory_matrix(off, base_data)

    def test_cells_and_improvements(self, base_cfg, base_data):
        m = inventory_matrix(base_cfg, base_data)
        assert tuple(m.breakdowns) == MATRIX_CELLS
        base = m.breakdowns["none"].profit
        assert m.improvements_pct["none"] == 0.0
        for cell in ("rec_only", "cer_only", "both"):
            assert m.breakdowns[cell].profit > base
            assert m.improvements_pct[cell] > 0.0
        assert m.breakdowns["both"].profit >= m.breakdowns["rec_only"].profit
        assert m.breakdowns["both"].profit >= m.breakdowns["cer_only"].profit

    def test_cells_answered_from_both_cell(self, base_cfg, base_data, monkeypatch):
        # the both-enabled cell is solved cold first; its solution answers
        # the other three from its active set, as their cold solves would
        solves, real = [], trimarket.scenarios.solve_qp

        def recorded(problem, settings=None, start=None):
            sol = real(problem, settings, start=start)
            solves.append((problem, start, sol))
            return sol

        monkeypatch.setattr(trimarket.scenarios, "solve_qp", recorded)
        warm = inventory_matrix(base_cfg, base_data).to_dict()
        assert [start is solves[0][2] for _, start, _ in solves] == [False, True, True, True]
        assert solves[0][1] is None and solves[0][2].iterations > 0
        for problem, _, sol in solves[1:]:
            cold = real(problem)
            assert sol.status == cold.status == "optimal"
            assert sol.iterations == 0 and cold.iterations > 0
            assert abs(sol.objective - cold.objective) <= 1e-9 * abs(cold.objective)

        monkeypatch.setattr(trimarket.scenarios, "solve_qp",
                            lambda problem, settings=None, start=None: real(problem, settings))
        cold = inventory_matrix(base_cfg, base_data).to_dict()
        assert list(warm["breakdowns"]) == list(cold["breakdowns"]) == list(MATRIX_CELLS)
        for cell in MATRIX_CELLS:
            for key, value in cold["breakdowns"][cell].items():
                assert warm["breakdowns"][cell][key] == pytest.approx(value, rel=1e-9, abs=1e-9)
            assert warm["improvements_pct"][cell] == pytest.approx(
                cold["improvements_pct"][cell], rel=1e-9, abs=1e-9)
        for flag in ("rev_g_consistent", "cost_g_consistent", "caps_slack"):
            assert warm[flag] == cold[flag]

    def test_generation_side_untouched_when_caps_slack(self, base_cfg, base_data):
        m = inventory_matrix(base_cfg, base_data)
        assert m.caps_slack
        assert m.rev_g_consistent
        assert m.cost_g_consistent
        d = m.to_dict()
        assert set(d["breakdowns"]) == set(MATRIX_CELLS)
        # a 50-unit REC trade cap binds, and the matrix says so
        assert not inventory_matrix(base_cfg.with_caps(r_cap=50.0), base_data).caps_slack

import dataclasses

import numpy as np
import pytest

import trimarket.analysis
from trimarket.analysis import (
    DESIGNATED_ROLES,
    MULT_EPS,
    PropertyReport,
    affine_sensitivity,
    check_no_simultaneous_flow,
    classify_cer_trading,
    classify_rec_trading,
    core_reports,
    envelope_check,
    named_duals,
    rps_priority_check,
    solve_for_param,
)
from trimarket.model import (
    EssParams,
    MarketData,
    ValidationError,
    default_config,
    recover_plan,
    validate_config,
)
from trimarket.qp import INFEASIBLE, solve_qp
from trimarket.scenarios import SynthSpec, synth_data

from _instances import (
    build,
    cer_sale_capped_case,
    hand_case,
    no_supply_case,
    rec_priority_case,
    rec_sale_capped_case,
    solve,
)

import warnings


def _scenario(case):
    cfg, data = case()
    model, p, sol = solve(cfg, data)
    plan = recover_plan(sol.x, p.layout, eta_c=cfg.ess.eta_c, eta_d=cfg.ess.eta_d)
    return model, p, sol, plan


def _by_id(reports):
    return {r.prop_id: r for r in reports}


class TestNamedDuals:
    def test_hand_instance_prices(self):
        model, p, sol, plan = _scenario(hand_case)
        d = named_duals(p, sol)
        assert d.mu == pytest.approx(20.0, abs=1e-6)
        assert d.delta == pytest.approx(30.0, abs=1e-6)
        np.testing.assert_allclose(d.lambda_g, [-100.0], atol=1e-6)
        np.testing.assert_allclose(d.lambda_r, [-20.0], atol=1e-6)
        np.testing.assert_allclose(d.lambda_c, [30.0], atol=1e-6)
        assert set(d.lower) == set(d.upper)

    def test_requires_optimal_solution(self):
        # an infeasible problem has no optimal solution, whatever the solver does
        _, p = build(*no_supply_case())
        sol = solve_qp(p)
        assert sol.status == INFEASIBLE
        with pytest.raises(ValueError, match="optimal"):
            named_duals(p, sol)


class TestCaseClassification:
    def test_hand_instance_is_slack_with_positive_multipliers(self):
        model, p, sol, plan = _scenario(hand_case)
        d = named_duals(p, sol)
        cer_table, cer_reports = classify_cer_trading(plan, d, model)
        rec_table, rec_reports = classify_rec_trading(plan, d, model)
        assert cer_table.counts() == {1: 0, 2: 1, 3: 0, 4: 0}
        assert rec_table.counts() == {1: 0, 2: 1, 3: 0, 4: 0}
        assert all(r.holds for r in cer_reports + rec_reports)

    def test_rec_trades_pinned_with_slack_floor(self):
        model, p, sol, plan = _scenario(rec_sale_capped_case)
        d = named_duals(p, sol)
        table, reports = classify_rec_trading(plan, d, model)
        assert d.mu <= MULT_EPS
        assert table.counts()[3] == 6
        assert np.all(table.at_cap)
        rep = _by_id(reports)
        assert rep["rps_multiplier_iff_rec_trade_slack"].holds
        assert rep["rec_no_slack_trade_with_zero_multiplier"].holds

    def test_cer_trades_pinned_with_slack_quota(self):
        model, p, sol, plan = _scenario(cer_sale_capped_case)
        d = named_duals(p, sol)
        table, reports = classify_cer_trading(plan, d, model)
        assert d.delta <= MULT_EPS
        assert table.counts()[3] == 6
        rep = _by_id(reports)
        assert rep["cer_multiplier_iff_trade_slack"].holds
        assert rep["cer_no_slack_trade_with_zero_multiplier"].holds
        # all hours capped is only sustainable because the whole horizon's
        # sales fit inside the quota
        capped = rep["cer_always_capped_needs_quota_cover"]
        assert not capped.skipped
        assert capped.holds

    def test_price_identity_orientation(self, base_result):
        # on expensive days the zero bound on retirement carries a positive
        # multiplier; adding it reproduces the certificate price, while
        # subtracting it (the other sign convention) breaks the identity
        d = base_result.duals
        model = base_result.model
        pi_r = model.data.pi_r
        gamma = d.lower["r0"]
        assert gamma.max() > 1.0
        plus = d.mu + gamma + d.upper["R"] - d.lower["R"]
        minus = d.mu - gamma + d.upper["R"] - d.lower["R"]
        assert np.max(np.abs(plus - pi_r)) < 1e-6 * (1 + pi_r.max())
        assert np.max(np.abs(minus - pi_r)) > 1.0


class TestPropertyReports:
    def test_failing_report_needs_witness(self):
        with pytest.raises(ValueError, match="witness"):
            PropertyReport("x", holds=False)

    def test_report_round_trip(self):
        r = PropertyReport("x", holds=True, residual=1e-9, note="n")
        d = r.to_dict()
        assert d["property"] == "x" and d["holds"] and not d["skipped"]

    def test_no_simultaneous_flow_on_base(self, base_result):
        rep = check_no_simultaneous_flow(
            base_result.plan, base_result.duals, base_result.model.config.policy.r
        )
        assert rep.holds and not rep.skipped

    def test_no_simultaneous_flow_informational_without_rps(self):
        model, p, sol, plan = _scenario(hand_case)
        d = named_duals(p, sol)
        rep = check_no_simultaneous_flow(plan, d, 0.0)
        assert rep.skipped

    def test_core_reports_all_hold_on_base(self, base_result):
        assert {r.prop_id for r in base_result.reports} >= {
            "ess_no_simultaneous_flow",
            "cer_price_identity",
            "rec_price_identity",
        }
        assert all(r.holds for r in base_result.reports)

    def test_shadow_prices_equal_price_extremes_uncapped(self, uncapped_result):
        rep = _by_id(uncapped_result.reports)
        assert not rep["rps_shadow_price_is_min_rec_price"].skipped
        assert rep["rps_shadow_price_is_min_rec_price"].holds
        assert not rep["cer_shadow_price_is_max_price"].skipped
        assert rep["cer_shadow_price_is_max_price"].holds
        # the live REC inventory legitimises buying above the floor, so the
        # purchase-location check must step aside here
        assert rep["rec_purchases_at_min_price"].skipped

    def test_purchases_at_floor_without_inventory(self, uncapped_cfg, base_data):
        cfg = uncapped_cfg.with_inventories(rec=False, cer=True)
        model, p, sol = solve(cfg, base_data)
        plan = recover_plan(sol.x, p.layout)
        d = named_duals(p, sol)
        assert d.mu > MULT_EPS
        _, reports = classify_rec_trading(plan, d, model)
        rep = _by_id(reports)["rec_purchases_at_min_price"]
        assert not rep.skipped
        assert rep.holds


_REC = (rec_sale_capped_case, classify_rec_trading, "mu", "R",
        "rps_multiplier_iff_rec_trade_slack", "rec_no_slack_trade_with_zero_multiplier")
_CER = (cer_sale_capped_case, classify_cer_trading, "delta", "C",
        "cer_multiplier_iff_trade_slack", "cer_no_slack_trade_with_zero_multiplier")


@pytest.mark.parametrize("market", [_REC, _CER], ids=["rec", "cer"])
class TestFailingWitnesses:
    """Doctored plans and multipliers drive the classifiers' failing branches.

    Both cases trade at the cap every hour with a zero multiplier (REC cap
    50, CER cap 10); each doctored copy breaks one side of the
    multiplier/slack link.
    """

    def test_positive_multiplier_without_slack_hour(self, market):
        case, classify, mult, _, iff_id, _ = market
        model, p, sol, plan = _scenario(case)
        duals = dataclasses.replace(named_duals(p, sol), **{mult: 5.0})
        table, reports = classify(plan, duals, model)
        rep = _by_id(reports)[iff_id]
        assert not rep.holds and rep.residual == 5.0
        assert rep.witness == f"positive multiplier but no slack hour; {mult}=5, max slack 0 at hour 1"
        assert table.counts() == {1: 0, 2: 0, 3: 0, 4: 6}

    def test_slack_hour_with_zero_multiplier(self, market):
        case, classify, mult, trade, iff_id, case1_id = market
        model, p, sol, plan = _scenario(case)
        duals = named_duals(p, sol)
        assert getattr(duals, mult) == 0.0
        series = getattr(plan, trade).copy()
        series[2] -= 6.0  # hour 3 trades 6 below the cap
        table, reports = classify(dataclasses.replace(plan, **{trade: series}), duals, model)
        rep = _by_id(reports)
        assert not rep[iff_id].holds
        assert rep[iff_id].witness == f"slack hour but zero multiplier; {mult}=0, max slack 6 at hour 3"
        assert not rep[case1_id].holds and rep[case1_id].residual == 1.0
        assert rep[case1_id].witness == "slack trade with zero multiplier at hour 3 (1 hours total)"
        assert table.counts() == {1: 1, 2: 0, 3: 5, 4: 0}


def _jittered_data(T=168):
    base = synth_data(SynthSpec(horizon=T))
    t = np.arange(T)
    # strict per-hour price ordering keeps the optimal basis unique, which
    # the exact piecewise-affine comparison needs
    return MarketData(
        pi_g=base.pi_g + np.linspace(0.0, 2.0, T),
        pi_r=base.pi_r + 0.011 * t,
        pi_c=base.pi_c + 0.013 * t,
        e=base.e,
        l=base.l,
    )


def _jittered_model(cfg, T=168):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_config(cfg, _jittered_data(T))


class TestAffineSensitivity:
    def test_designated_roles_registry(self):
        assert DESIGNATED_ROLES == {"alpha": ("g", "C"), "r": ("R", "p_c")}

    def test_affine_in_quota_strictness(self, uncapped_cfg):
        model = _jittered_model(uncapped_cfg)
        rep = affine_sensitivity(model, "alpha", np.array([0.18, 0.20, 0.22]))
        assert rep.holds
        assert len(rep.segments) == 1
        assert not rep.to_report().skipped

    def test_affine_in_rps_level(self, uncapped_cfg):
        model = _jittered_model(uncapped_cfg)
        rep = affine_sensitivity(model, "r", np.array([0.88, 0.90, 0.92]))
        assert rep.holds
        assert len(rep.segments) == 1

    def test_uncapped_wide_grid_is_one_segment(self, uncapped_cfg):
        # without trade caps nothing saturates between 0.45 and 1.0, so the
        # whole range shares one basis and stays exactly affine
        model = _jittered_model(uncapped_cfg)
        rep = affine_sensitivity(model, "r", np.linspace(0.45, 1.0, 12))
        assert rep.holds
        assert rep.breakpoints == []
        assert len(rep.segments) == 1

    def test_breakpoints_on_capped_wide_grid(self):
        # finite trade caps saturate one by one as the floor rises, so the
        # active set flips many times across a wide grid
        model = _jittered_model(default_config(168))
        rep = affine_sensitivity(model, "r", np.linspace(0.45, 1.0, 12))
        assert rep.holds
        assert len(rep.breakpoints) >= 1
        # every run between flips is too short to certify, so the rolled-up
        # report declares itself informational
        assert rep.to_report().skipped

    def test_grid_must_increase(self, uncapped_cfg):
        model = _jittered_model(uncapped_cfg)
        with pytest.raises(ValueError, match="increasing"):
            affine_sensitivity(model, "r", np.array([0.9, 0.88, 0.92]))

    def test_unknown_parameter(self, uncapped_cfg):
        model = _jittered_model(uncapped_cfg)
        with pytest.raises(ValueError, match="param"):
            affine_sensitivity(model, "k", np.array([0.1, 0.2, 0.3]))

    def test_segment_with_zero_multiplier_is_not_checked(self):
        # the quota stays slack over this alpha range: one active set, no price
        model, _ = build(*cer_sale_capped_case())
        rep = affine_sensitivity(model, "alpha", np.array([0.2, 0.3, 0.4]))
        assert rep.breakpoints == [] and list(rep.multipliers) == [0.0, 0.0, 0.0]
        assert rep.segments == [{"start": 0, "stop": 2, "checked": False, "holds": True,
                                 "note": "multiplier not positive throughout"}]
        assert rep.holds and rep.to_report().skipped

    def test_out_of_domain_value_fails_before_any_solve(self, monkeypatch):
        model, _ = build(*hand_case())

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the whole grid was checked")

        monkeypatch.setattr(trimarket.analysis, "solve_qp", no_solve)
        with pytest.raises(ValidationError, match=r"r=1.05 outside \[0, 1\]"):
            affine_sensitivity(model, "r", np.array([0.9, 0.95, 1.05]))


class TestExtraSolveChecks:
    def test_quota_envelope_on_small_instance(self):
        model, p, sol = solve(*rec_priority_case())
        shifted = solve_for_param(model, "quota", model.quota + 1.0)
        rep = envelope_check(model, (p, sol), shifted, 1.0, "quota")
        assert rep.holds

    def test_priority_check_asserts_with_flat_certificate_prices(self):
        model, p, sol = solve(*rec_priority_case())
        shifted = solve_for_param(model, "r", model.config.policy.r + 0.01)
        rep = rps_priority_check(model, (p, sol), shifted, 0.01)
        assert not rep.skipped
        assert rep.holds

    def test_priority_check_rejects_headroom_violation(self):
        cfg, data = rec_priority_case()
        cfg = cfg.with_policy(r=0.995)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = validate_config(cfg, data)
        with pytest.raises(ValueError, match="outside"):
            solve_for_param(model, "r", 0.995 + 0.01)

    def test_envelope_skips_when_the_active_set_changes(self):
        # the quota binds at 30 and goes slack at 130
        model, _ = build(*cer_sale_capped_case())
        base = solve_for_param(model, "quota", 30.0)
        shifted = solve_for_param(model, "quota", 130.0)
        assert named_duals(*base).delta > MULT_EPS and named_duals(*shifted).delta == 0.0
        rep = envelope_check(model, base, shifted, 100.0, "quota")
        assert rep.skipped and rep.holds
        assert rep.note == "active set changed across the step (quota step 100); slope spans regions"

    def test_priority_check_skips_lossy_storage(self):
        cfg, data = rec_priority_case()
        lossy = dataclasses.replace(cfg, ess=EssParams(40.0, 40.0, 80.0, eta_c=0.9))
        model, p, sol = solve(lossy, data)
        rep = rps_priority_check(model, (p, sol), (p, sol), 0.01)
        assert rep.skipped and rep.note == "needs unit charge/discharge efficiencies"

    def test_priority_check_skips_zero_multiplier(self):
        model, p, sol = solve(*rec_sale_capped_case())
        assert named_duals(p, sol).mu == 0.0
        rep = rps_priority_check(model, (p, sol), (p, sol), 0.01)
        assert rep.skipped and rep.note == "RPS multiplier is zero at the base point"

    def test_priority_check_skips_when_one_hour_favors_buying(self):
        # one dear REC hour makes retiring there costlier than what it earns
        cfg, data = rec_priority_case()
        pi_r = data.pi_r.copy()
        pi_r[0] += 500.0
        model, p, sol = solve(cfg, dataclasses.replace(data, pi_r=pi_r))
        assert named_duals(p, sol).mu > MULT_EPS
        rep = rps_priority_check(model, (p, sol), (p, sol), 0.01)
        assert rep.skipped
        assert rep.note == "retirement favored at only 23/24 hours; aggregate claim not asserted"

    def test_priority_check_witnesses(self):
        model, p, sol = solve(*rec_priority_case())
        # an unchanged schedule retires nothing more
        need = 0.01 * float(np.sum(p.layout.gather(sol.x, "p_c")) + np.sum(model.data.l))
        rep = rps_priority_check(model, (p, sol), (p, sol), 0.01)
        assert not rep.holds and rep.residual == pytest.approx(need)
        assert rep.witness == f"retirement grew 0 < required {need:.6g}"
        # a schedule that stops charging fails on the charging side first
        x = sol.x.copy()
        x[p.layout.indices("p_c")] = 0.0
        charged = float(np.sum(p.layout.gather(sol.x, "p_c")))
        assert charged > 0.0
        rep = rps_priority_check(model, (p, sol), (p, dataclasses.replace(sol, x=x)), 0.01)
        assert not rep.holds
        assert rep.witness == f"charging shrank by {charged:.6g}"

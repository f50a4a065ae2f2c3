"""Acceptance gate.

One test per release criterion, each printing a single verdict line so
the run log doubles as a sign-off sheet.  Tolerances are pinned here on
purpose: loosening one is a release decision, not a test fix.
"""

import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from _instances import (
    build,
    cer_sale_capped_case,
    hand_case,
    random_instance,
    rec_sale_capped_case,
    solve,
)
from _oracle import oracle_solve
from trimarket.analysis import affine_sensitivity, named_duals
from trimarket.config_io import save_config
from trimarket.model import MarketData, ModelWarning, default_config, validate_config
from trimarket.qp import OPTIMAL, kkt_residuals, solve_qp
from trimarket.scenarios import (
    InfeasibleError,
    SynthSpec,
    inventory_matrix,
    parameter_sweep,
    run_scenario,
    synth_data,
)


@pytest.fixture()
def verdict(capsys):
    """One sign-off line per criterion, printed past the capture layer."""

    def emit(num, label, ok, detail):
        mark = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{mark}] criterion {num:02d} {label}: {detail}", flush=True)
        assert ok, f"criterion {num:02d} {label}: {detail}"

    return emit


def _report_map(result):
    return {r.prop_id: r for r in result.reports}


def _jittered(cfg, T=168):
    base = synth_data(SynthSpec(horizon=T))
    t = np.arange(T)
    # strictly ordered prices keep the optimal basis unique along a grid
    data = MarketData(
        pi_g=base.pi_g + np.linspace(0.0, 2.0, T),
        pi_r=base.pi_r + 0.011 * t,
        pi_c=base.pi_c + 0.013 * t,
        e=base.e,
        l=base.l,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_config(cfg, data)


def test_c01_kkt_residuals_and_runtime(verdict):
    details = []
    ok = True
    for T in (168, 336):
        cfg = default_config(T)
        data = synth_data(SynthSpec(horizon=T))
        _, problem = build(cfg, data)
        t0 = time.perf_counter()
        sol = solve_qp(problem)
        dt = time.perf_counter() - t0
        res = kkt_residuals(problem, sol)
        scale_p = 1.0 + max(float(np.max(np.abs(problem.b_eq))), float(np.max(np.abs(sol.x))))
        scale_d = 1.0 + float(np.max(np.abs(problem.f)))
        scale_g = 1.0 + abs(sol.objective)
        good = (
            sol.status == OPTIMAL
            and res.primal_inf <= 1e-6 * scale_p
            and res.dual_inf <= 1e-6 * scale_d
            and res.comp_gap <= 1e-6 * scale_g
            and dt < 10.0
        )
        ok = ok and good
        details.append(
            f"T={T} {dt:.2f}s primal {res.primal_inf:.1e} dual {res.dual_inf:.1e}"
            f" gap {res.comp_gap:.1e}"
        )
    verdict(1, "optimality residuals within 1e-6, under 10 s", ok, "; ".join(details))


def test_c02_reference_solver_agreement(verdict):
    cfg, data = hand_case()
    _, problem = build(cfg, data)
    main_obj = solve_qp(problem).objective
    ref_obj = oracle_solve(problem).objective
    hand_ok = abs(main_obj - 2810.0) <= 1e-6 * 2810.0 and abs(ref_obj - 2810.0) <= 1e-6 * 2810.0

    n_opt = 0
    worst = 0.0
    agree = True
    for seed in range(20):
        _, problem = build(*random_instance(seed, horizon=3))
        a = solve_qp(problem)
        b = oracle_solve(problem)
        if a.status != b.status:
            agree = False
            continue
        if a.status == OPTIMAL:
            n_opt += 1
            rel = abs(a.objective - b.objective) / (1.0 + abs(b.objective))
            worst = max(worst, rel)
    ok = hand_ok and agree and n_opt >= 10 and worst <= 1e-4
    verdict(
        2,
        "iterative and enumeration solvers agree",
        ok,
        f"hand objective {main_obj:.6f}/{ref_obj:.6f}, {n_opt}/20 optimal, worst rel {worst:.1e}",
    )


def test_c03_no_simultaneous_charge_discharge(verdict):
    found = 0
    worst = 0.0
    seed = 0
    while found < 50 and seed < 400:
        cfg, data = random_instance(seed, r_min=0.5)
        seed += 1
        _, problem, sol = solve(cfg, data)
        if sol.status != OPTIMAL:
            continue
        duals = named_duals(problem, sol)
        if duals.mu <= 1e-6:
            continue
        found += 1
        p_c = problem.layout.gather(sol.x, "p_c")
        p_d = problem.layout.gather(sol.x, "p_d")
        worst = max(worst, float(np.max(np.minimum(p_c, p_d), initial=0.0)))
    ok = found == 50 and worst <= 1e-7
    verdict(
        3,
        "no hour charges and discharges at once",
        ok,
        f"{found} instances with binding renewable floor, worst overlap {worst:.1e}",
    )


def test_c04_capped_trading_case_structure(verdict, base_cfg, base_data):
    corpus = [
        ("rec_capped", *rec_sale_capped_case()),
        ("cer_capped", *cer_sale_capped_case()),
        ("weekly_base", base_cfg, base_data),
    ]
    seed = 300
    while sum(1 for name, *_ in corpus if name.startswith("draw")) < 10 and seed < 500:
        cfg, data = random_instance(seed, price_floor=5.0)
        seed += 1
        if np.isfinite(cfg.caps.r_cap) and np.isfinite(cfg.caps.c_cap):
            corpus.append((f"draw{seed}", cfg, data))

    checked = 0
    bad = []
    structural = (
        "rps_multiplier_iff_rec_trade_slack",
        "rec_no_slack_trade_with_zero_multiplier",
        "cer_multiplier_iff_trade_slack",
        "cer_no_slack_trade_with_zero_multiplier",
    )
    # the corpus uses r = 0 and hourly certificate prices on purpose
    with pytest.warns(ModelWarning) as caught:
        for name, cfg, data in corpus:
            try:
                result = run_scenario(cfg, data, properties="core")
            except InfeasibleError:
                continue
            checked += 1
            reports = _report_map(result)
            for pid in structural:
                rep = reports[pid]
                if not rep.holds:
                    bad.append(f"{name}:{pid}")
                finite = np.isfinite(cfg.caps.r_cap if pid.startswith(("rps", "rec")) else cfg.caps.c_cap)
                if finite and rep.skipped:
                    bad.append(f"{name}:{pid}:skipped")
            for market in ("rec", "cer"):
                if result.case_tables[market].counts()[1] != 0:
                    bad.append(f"{name}:{market}:case1")
    assert sorted({str(w.message) for w in caught}) == [
        "pi_c is not constant within each 24 h block",
        "pi_r is not constant within each 24 h block",
        "policy.r = 0: RPS constraint is degenerate",
    ]
    ok = checked >= 12 and not bad
    verdict(
        4,
        "capped-trade multiplier/slack structure",
        ok,
        f"{checked} instances clean" if ok else f"violations: {bad[:4]}",
    )


def test_c05_uncapped_shadow_price_identities(verdict, uncapped_cfg, uncapped_result, base_data):
    duals = uncapped_result.duals
    floor = float(np.min(base_data.pi_r))
    ceil = float(np.max(base_data.pi_c))
    mu_ok = duals.mu > 1e-6 and abs(duals.mu - floor) <= 1e-6 * (1.0 + floor)
    delta_ok = duals.delta > 1e-6 and abs(duals.delta - ceil) <= 1e-6 * (1.0 + ceil)
    reports = _report_map(uncapped_result)
    rep_ok = (
        reports["rps_shadow_price_is_min_rec_price"].holds
        and reports["cer_shadow_price_is_max_price"].holds
    )

    # the purchase-timing claim is only decidable without a certificate
    # store, so switch it off for this leg
    no_store = uncapped_cfg.with_inventories(rec=False, cer=True)
    leg = run_scenario(no_store, base_data, properties="core")
    buy = _report_map(leg)["rec_purchases_at_min_price"]
    buy_ok = buy.holds and not buy.skipped

    ok = mu_ok and delta_ok and rep_ok and buy_ok
    verdict(
        5,
        "uncapped multipliers pin to price extremes",
        ok,
        f"mu {duals.mu:.6f} vs floor {floor:.6f}, delta {duals.delta:.6f} vs ceiling {ceil:.6f},"
        f" buys at floor: {buy.holds and not buy.skipped}",
    )


def test_c06_piecewise_affine_response(verdict, uncapped_cfg):
    smooth = _jittered(uncapped_cfg)
    rep_a = affine_sensitivity(smooth, "alpha", np.array([0.18, 0.20, 0.22]))
    rep_r = affine_sensitivity(smooth, "r", np.array([0.88, 0.90, 0.92]))
    flat_ok = (
        rep_a.holds
        and len(rep_a.segments) == 1
        and not rep_a.to_report().skipped
        and rep_r.holds
        and len(rep_r.segments) == 1
        and not rep_r.to_report().skipped
    )

    capped = _jittered(default_config(168))
    wide = affine_sensitivity(capped, "r", np.linspace(0.45, 1.0, 12))
    kink_ok = wide.holds and len(wide.breakpoints) >= 1

    ok = flat_ok and kink_ok
    verdict(
        6,
        "affine inside a regime, kinks across regimes",
        ok,
        f"3-point grids affine: {flat_ok}; {len(wide.breakpoints)} breakpoints on wide capped grid",
    )


def test_c07_envelope_slopes(verdict, base_result):
    reports = _report_map(base_result)
    quota = reports["quota_envelope_slope"]
    rps = reports["rps_envelope_slope"]
    ok = quota.holds and not quota.skipped and rps.holds and not rps.skipped

    def fmt(rep):
        return f"{rep.residual:.2e}" if rep.residual is not None else f"skipped ({rep.note})"

    verdict(
        7,
        "objective slopes match the multipliers",
        ok,
        f"quota residual {fmt(quota)}, renewable-floor residual {fmt(rps)}",
    )


def test_c08_inventory_value(verdict, base_cfg, base_data):
    mat = inventory_matrix(base_cfg, base_data)
    p = {cell: mat.breakdowns[cell].profit for cell in mat.breakdowns}
    slack = 1e-9 * (1.0 + abs(p["both"]))
    order_ok = (
        p["both"] >= p["rec_only"] - slack
        and p["both"] >= p["cer_only"] - slack
        and p["rec_only"] >= p["none"] - slack
        and p["cer_only"] >= p["none"] - slack
    )
    strict_ok = all(v > 0.0 for k, v in mat.improvements_pct.items() if k != "none")
    ok = (
        order_ok
        and strict_ok
        and mat.rev_g_consistent
        and mat.cost_g_consistent
        and mat.caps_slack
    )
    gains = ", ".join(
        f"{k} +{mat.improvements_pct[k]:.2f}%" for k in ("rec_only", "cer_only", "both")
    )
    verdict(8, "certificate stores add profit", ok, gains)


def test_c09_policy_sweep_monotonicity(verdict, uncapped_cfg, base_data):
    grid = np.linspace(0.0, 1.0, 21)
    sw_r = parameter_sweep(uncapped_cfg, base_data, "r", grid)
    sw_a = parameter_sweep(uncapped_cfg, base_data, "alpha", grid)

    def facts(sweep, sign):
        if any(pt.status != OPTIMAL for pt in sweep.points):
            return False, {}
        profit = sweep.profits()
        tol = 1e-6 * (1.0 + float(np.max(np.abs(profit))))
        mono = bool(np.all(sign * np.diff(profit) <= tol))
        ranges = {}
        for comp in ("rev_g", "rev_r", "rev_c", "cost_g"):
            vals = np.array([getattr(pt.breakdown, comp) for pt in sweep.points])
            ranges[comp] = float(np.ptp(vals))
        return mono, ranges

    mono_r, rng_r = facts(sw_r, +1.0)  # profit falls as the floor rises
    mono_a, rng_a = facts(sw_a, -1.0)  # profit rises as the quota loosens

    def only(ranges, live):
        if not ranges:
            return False
        still = [c for c in ranges if c != live]
        flat = all(ranges[c] <= 1e-6 * (1.0 + ranges[live]) for c in still)
        return flat and ranges[live] > 1.0

    ok = mono_r and mono_a and only(rng_r, "rev_r") and only(rng_a, "rev_c")
    verdict(
        9,
        "policy tightening moves one revenue line",
        ok,
        f"floor sweep rev_r span {rng_r.get('rev_r', 0.0):.0f},"
        f" quota sweep rev_c span {rng_a.get('rev_c', 0.0):.0f}",
    )


def test_c10_command_line_pipeline(verdict, tmp_path):
    cfg_path = tmp_path / "model.cfg"
    save_config(cfg_path, default_config(168), SynthSpec())
    data_path = tmp_path / "market.csv"
    run_dir = tmp_path / "run"

    t0 = time.perf_counter()
    steps = [
        ["gen-data", "--config", str(cfg_path), "--out", str(data_path)],
        ["solve", "--config", str(cfg_path), "--data", str(data_path), "--out", str(run_dir)],
        ["check", "--config", str(cfg_path), "--data", str(data_path), "--run", str(run_dir), "--strict"],
    ]
    codes = []
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "trimarket.cli", *step],
            capture_output=True,
            text=True,
            timeout=120,
        )
        codes.append(proc.returncode)
    dt = time.perf_counter() - t0
    ok = codes == [0, 0, 0] and dt < 60.0
    verdict(
        10,
        "generate, solve and verify from the shell",
        ok,
        f"exit codes {codes}, {dt:.1f}s total",
    )

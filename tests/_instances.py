"""Shared problem instances for the tests.

Builders return (cfg, data) pairs; use ``build`` / ``solve`` to get the
assembled program or a solved result with validation warnings silenced.
"""

import warnings

import numpy as np

from trimarket.model import (
    EssParams,
    InventoryParams,
    MarketData,
    PolicyParams,
    TgParams,
    TradeCaps,
    VppConfig,
    assemble_qp,
    validate_config,
)
from trimarket.qp import SolverSettings, solve_qp


def build(cfg, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = validate_config(cfg, data)
    return model, assemble_qp(model)


def solve(cfg, data, settings: SolverSettings | None = None):
    model, problem = build(cfg, data)
    return model, problem, solve_qp(problem, settings)


def hand_case():
    """Single-hour instance small enough to reason through by hand.

    Covering a burnt allowance forgoes 27 of certificate revenue, which
    prices the thermal unit out of the market; the optimum sells the RES
    surplus, retires half the load from RES output, and sells the spare
    certificates plus the entire 72-unit quota.  Objective exactly 2810.
    """
    cfg = VppConfig(
        horizon=1,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=40.0, p_d_max=40.0, q_max=80.0),
        rec_inventory=InventoryParams(400.0, 400.0, 400.0),
        cer_inventory=InventoryParams(400.0, 400.0, 400.0),
        policy=PolicyParams(r=0.5, alpha=1.0),
    )
    data = MarketData(
        pi_g=np.array([100.0]),
        pi_r=np.array([20.0]),
        pi_c=np.array([30.0]),
        e=np.array([10.0]),
        l=np.array([5.0]),
    )
    return cfg, data


def no_supply_case():
    """Load to serve with every source and market closed: infeasible.

    The primal residual freezes after a few interior-point iterations
    while mu falls toward zero (and, left alone, underflows to exactly
    zero), the stall shape with a collapsing rather than growing mu.
    """
    zero = np.zeros(1)
    cfg = VppConfig(
        horizon=1,
        tg=TgParams(a=1.0, b=0.0, g_min=0.0, g_max=0.0, k=0.9),
        ess=EssParams(0.0, 0.0, 0.0),
        rec_inventory=InventoryParams.disabled(),
        cer_inventory=InventoryParams.disabled(),
        policy=PolicyParams(r=0.0, alpha=0.0),
        caps=TradeCaps(0.0, 0.0, 0.0),
    )
    data = MarketData(pi_g=zero, pi_r=zero, pi_c=zero, e=zero, l=np.array([5.0]))
    return cfg, data


def random_instance(seed, *, horizon=None, price_floor=0.0, r_min=0.0):
    """Small random instance; horizons stay oracle-checkable (n <= 39)."""
    rng = np.random.default_rng(seed)
    T = int(horizon if horizon is not None else rng.integers(1, 4))
    cfg = VppConfig(
        horizon=T,
        tg=TgParams(
            a=float(rng.uniform(0.2, 2.0)),
            b=float(rng.uniform(20, 100)),
            g_min=0.0,
            g_max=float(rng.uniform(20, 100)),
            k=float(rng.uniform(0.8, 0.9)),
        ),
        ess=EssParams(
            p_c_max=float(rng.uniform(0, 50)),
            p_d_max=float(rng.uniform(0, 50)),
            q_max=float(rng.uniform(0, 100)),
        ),
        rec_inventory=(
            InventoryParams(
                float(rng.uniform(0, 300)), float(rng.uniform(0, 300)), float(rng.uniform(0, 300))
            )
            if rng.random() < 0.7
            else InventoryParams.disabled()
        ),
        cer_inventory=(
            InventoryParams(
                float(rng.uniform(0, 300)), float(rng.uniform(0, 300)), float(rng.uniform(0, 300))
            )
            if rng.random() < 0.7
            else InventoryParams.disabled()
        ),
        policy=PolicyParams(
            r=float(rng.uniform(r_min, 1)), alpha=float(rng.choice([0.0, 0.2, 0.5, 1.0]))
        ),
        caps=TradeCaps(
            g_cap=float(rng.choice([np.inf, 400.0, 50.0])),
            r_cap=float(rng.choice([np.inf, 400.0, 50.0])),
            c_cap=float(rng.choice([np.inf, 400.0, 50.0])),
        ),
    )
    data = MarketData(
        pi_g=rng.uniform(0, 150, T),
        pi_r=rng.uniform(price_floor, 60, T),
        pi_c=rng.uniform(price_floor, 60, T),
        e=rng.uniform(0, 80, T),
        l=rng.uniform(0, 80, T),
    )
    return cfg, data


def rec_sale_capped_case():
    """Abundant renewables against a tight REC trade cap.

    Every hour sells certificates at the cap and the retirement floor
    goes slack, so the floor multiplier is zero while all trades pin.
    """
    cfg = VppConfig(
        horizon=6,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=40.0, p_d_max=40.0, q_max=80.0),
        rec_inventory=InventoryParams(400.0, 400.0, 400.0),
        cer_inventory=InventoryParams.disabled(),
        policy=PolicyParams(r=0.4, alpha=0.0),
        caps=TradeCaps(r_cap=50.0),
    )
    T = 6
    data = MarketData(
        pi_g=np.full(T, 20.0),
        pi_r=np.full(T, 30.0),
        pi_c=np.full(T, 25.0),
        e=np.full(T, 80.0),
        l=np.full(T, 10.0),
    )
    return cfg, data


def cer_sale_capped_case():
    """Generous quota against a tight CER trade cap and no emissions.

    Electricity prices sit below marginal cost, so the unit stays off and
    the whole quota is spare; sales pin at the cap every hour but cannot
    exhaust the quota, so its multiplier is zero.
    """
    cfg = VppConfig(
        horizon=6,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=40.0, p_d_max=40.0, q_max=80.0),
        rec_inventory=InventoryParams.disabled(),
        cer_inventory=InventoryParams(400.0, 400.0, 400.0),
        policy=PolicyParams(r=0.0, alpha=0.2),
        caps=TradeCaps(c_cap=10.0),
    )
    T = 6
    data = MarketData(
        pi_g=np.full(T, 20.0),
        pi_r=np.full(T, 15.0),
        pi_c=np.full(T, 25.0),
        e=np.full(T, 30.0),
        l=np.full(T, 10.0),
    )
    return cfg, data


def rec_priority_case():
    """Flat certificate prices and a binding floor.

    With a flat certificate price the marginal-value condition behind the
    supply-increment result holds at every hour, so the check asserts
    rather than skipping.
    """
    T = 24
    cfg = VppConfig(
        horizon=T,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=40.0, p_d_max=40.0, q_max=80.0),
        rec_inventory=InventoryParams(400.0, 400.0, 400.0),
        cer_inventory=InventoryParams(400.0, 400.0, 400.0),
        policy=PolicyParams(r=0.9, alpha=0.2),
    )
    h = np.arange(T)
    pi_g = np.where((h >= 10) & (h <= 20), 180.0, 45.0)
    data = MarketData(
        pi_g=pi_g,
        pi_r=np.full(T, 25.0),
        pi_c=np.full(T, 20.0),
        e=np.full(T, 20.0),
        l=np.full(T, 50.0),
    )
    return cfg, data


def arbitrage_case():
    """Two hours, one cheap and one dear certificate price.

    Small enough for the reference active-set path, used to verify that
    enabling the CER inventory buys low and sells high.
    """
    cfg = VppConfig(
        horizon=2,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=0.0, p_d_max=0.0, q_max=0.0),
        rec_inventory=InventoryParams.disabled(),
        cer_inventory=InventoryParams(200.0, 200.0, 200.0),
        policy=PolicyParams(r=0.0, alpha=0.2),
    )
    data = MarketData(
        pi_g=np.array([50.0, 60.0]),
        pi_r=np.array([10.0, 10.0]),
        pi_c=np.array([10.0, 40.0]),
        e=np.array([20.0, 20.0]),
        l=np.array([15.0, 15.0]),
    )
    return cfg, data

"""Generated differential tests: solve_qp against the reference oracle.

Draws tiny degenerate instances (T <= 3): certificate prices tied across
hours, zero trade caps, a unit with g_max = 0, alpha = 0, r in {0, 0.5,
1}, lossy or zero-size storage and disabled inventories.  The draws lean
toward feasible instances, since those exercise the solver's optimal
path; infeasible ones still come up often.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from trimarket.model import (  # noqa: E402
    EssParams,
    InventoryParams,
    MarketData,
    PolicyParams,
    TgParams,
    TradeCaps,
    VppConfig,
)
from trimarket.qp import INFEASIBLE, OPTIMAL, oracle_solve, solve_qp  # noqa: E402

from _instances import build, no_supply_case  # noqa: E402


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

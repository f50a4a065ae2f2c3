"""Cross-checks against the reference active-set solver.

The reference path shares no iterate logic with the interior-point
solver, so agreement on random instances checks both implementations at
once.  It enumerates active sets greedily and is limited to small
problems; keep horizons at 3 hours or fewer here.
"""

import numpy as np
import pytest

from trimarket.qp import OPTIMAL, kkt_residuals, solve_qp

from _instances import build, hand_case, random_instance
from _oracle import oracle_solve


def test_hand_instance_objective():
    cfg, data = hand_case()
    _, p = build(cfg, data)
    sol = oracle_solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2810.0, abs=1e-9)


def test_rejects_large_problems():
    cfg, data = random_instance(0, horizon=4)
    _, p = build(cfg, data)
    with pytest.raises(ValueError, match="13\\*T <= 40"):
        oracle_solve(p)


@pytest.mark.parametrize("seed", range(25))
def test_agrees_with_interior_point(seed):
    cfg, data = random_instance(seed)
    _, p = build(cfg, data)
    ipm = solve_qp(p)
    ref = oracle_solve(p)
    assert ipm.status == ref.status
    if ipm.status != OPTIMAL:
        return
    scale = 1.0 + abs(ref.objective)
    assert abs(ipm.objective - ref.objective) / scale < 1e-8
    # the argmax is unique in g; trades may sit on a flat face, so compare
    # objectives and feasibility rather than whole vectors
    res = kkt_residuals(p, ref)
    assert max(res.primal_inf, res.dual_inf) < 1e-7
    gi = p.layout.indices("g")
    np.testing.assert_allclose(ipm.x[gi], ref.x[gi], atol=1e-6)


@pytest.mark.parametrize("seed", [3, 9, 14])
def test_reference_duals_close_kkt(seed):
    cfg, data = random_instance(seed, horizon=2)
    _, p = build(cfg, data)
    ref = oracle_solve(p)
    if ref.status != OPTIMAL:
        pytest.skip("instance infeasible")
    res = kkt_residuals(p, ref)
    assert res.comp_gap < 1e-7

"""The references the tests check the solver against.

oracle_solve, the small-instance reference solver, and oracle_diagnosis,
the four-probe rule that names an infeasible model's conflict.
"""

import dataclasses

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from trimarket.model import QpProblem
from trimarket.qp import (
    INFEASIBLE,
    OPTIMAL,
    IneqDuals,
    Solution,
    _INF,
    _empty_solution,
    kkt_residuals,
)


def oracle_solve(p: QpProblem, max_iter: int = 2000) -> Solution:
    """Exact reference solver for tiny instances (13*T <= 40).

    Walks active sets directly: each candidate set yields an
    equality-constrained QP solved through a nullspace factorization, and
    sets are added or dropped one constraint at a time until the KKT point
    is reached.  Uses dense linear algebra throughout and shares no solve
    path with solve_qp, so it serves as an independent cross-check.
    """
    n = p.n
    if n > 40:
        raise ValueError(f"oracle_solve is restricted to 13*T <= 40 variables, got {n}")

    a_eq = p.a_eq.toarray()
    b_eq = p.b_eq
    q = -p.h_diag
    c = -p.f

    # inequality stack: finite bounds as one row per side, then coupling rows
    lo = np.nonzero(np.isfinite(p.lb))[0]
    up = np.nonzero(np.isfinite(p.ub))[0]
    eye = np.eye(n)
    g_mat = np.vstack([0.0 - eye[lo], eye[up], p.coup.toarray()])
    h_vec = np.concatenate([-p.lb[lo], p.ub[up], p.coup_rhs])

    start = linprog(
        c=np.zeros(n),
        A_ub=g_mat,
        b_ub=h_vec,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * n,
        method="highs",
    )
    if start.status == 2:
        return _empty_solution(p, INFEASIBLE, message=oracle_diagnosis(p))
    if start.status != 0:
        raise RuntimeError(f"feasible-point search failed with status {start.status}")
    x = np.asarray(start.x, dtype=float)

    work: list[int] = []
    bland = False
    no_progress = 0
    last_obj = np.inf
    grad_scale = 1.0 + float(np.max(np.abs(c), initial=0.0))

    it = 0
    for it in range(1, max_iter + 1):
        grad = q * x + c
        a_bar = np.vstack([a_eq, g_mat[work]])
        null = null_space(a_bar)

        ray = False
        if null.shape[1] == 0:
            d = np.zeros(n)
        else:
            h_red = null.T @ (q[:, None] * null)
            g_red = null.T @ grad
            evals, evecs = np.linalg.eigh(h_red)
            comp = evecs.T @ g_red
            cut = 1e-10 * max(1.0, float(evals.max(initial=0.0)))
            sing = evals <= cut
            if np.any(sing & (np.abs(comp) > 1e-9 * grad_scale)):
                # linear descent direction: objective decreases without bound
                dz = -evecs[:, sing] @ comp[sing]
                d = null @ (dz / max(np.linalg.norm(dz), 1e-300))
                ray = True
            else:
                dz = np.zeros(len(evals))
                good = ~sing
                dz[good] = -comp[good] / evals[good]
                d = null @ (evecs @ dz)

        if not ray and np.max(np.abs(d), initial=0.0) <= 1e-10 * (1.0 + np.max(np.abs(x))):
            duals, *_ = np.linalg.lstsq(a_bar.T, -grad, rcond=None)
            nu = duals[len(a_eq):]
            neg = np.nonzero(nu < -1e-8 * grad_scale)[0]
            if len(neg) == 0:
                return _oracle_solution(p, x, duals[: len(a_eq)], work, nu, lo, up, it)
            drop = int(neg[0]) if bland else int(np.argmin(nu))
            work.pop(drop)
            continue

        g_d = g_mat @ d
        slack = np.maximum(h_vec - g_mat @ x, 0.0)
        cand = [
            i for i in range(len(g_mat))
            if i not in work and g_d[i] > 1e-11 * (1.0 + np.abs(g_d).max())
        ]
        if cand:
            ratios = np.array([slack[i] / g_d[i] for i in cand])
            a_max = float(ratios.min())
            hit = min(c_i for c_i, r in zip(cand, ratios) if r <= a_max + 1e-12 * (1.0 + a_max))
        else:
            a_max, hit = np.inf, None
        if ray and hit is None:
            raise RuntimeError("objective is unbounded along a feasible ray")
        alpha = a_max if ray else min(1.0, a_max)
        x = x + alpha * d
        if hit is not None and (ray or a_max < 1.0 - 1e-12):
            work.append(hit)
            work.sort()

        obj = float(0.5 * (q * x) @ x + c @ x)
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            last_obj, no_progress = obj, 0
        else:
            no_progress += 1
            if no_progress > 50:
                bland = True

    raise RuntimeError(f"active-set iteration cap {max_iter} reached")


def _oracle_solution(p, x, y_ls, work, nu, lo, up, iterations) -> Solution:
    # multipliers of the inequality stack: lower bounds, upper bounds, coupling rows
    z = np.zeros(len(lo) + len(up) + len(p.coup_rhs))
    z[work] = np.maximum(nu, 0.0)
    zl, zu = np.zeros(p.n), np.zeros(p.n)
    zl[lo] = z[: len(lo)]
    zu[up] = z[len(lo) : len(lo) + len(up)]
    sol = Solution(
        status=OPTIMAL,
        x=x.copy(),
        objective=p.objective(x),
        eq_duals=np.asarray(y_ls, dtype=float),
        ineq_duals=IneqDuals(lower=zl, upper=zu, coupling=z[len(lo) + len(up) :]),
        iterations=iterations,
        residuals=None,
    )
    return dataclasses.replace(sol, residuals=kkt_residuals(p, sol))


def _probe(p: QpProblem, drop_coupling: tuple[int, ...] = ()) -> str:
    """HiGHS's verdict on p's constraints: "feasible", INFEASIBLE or "unknown".

    A problem holding a coefficient or right-hand side that is not finite,
    a right-hand side of _INF or more in magnitude (HiGHS reads it as
    infinite) or a NaN bound is not handed to HiGHS: "unknown".
    """
    keep = [k for k in range(p.coup.shape[0]) if k not in drop_coupling]
    a_ub = p.coup[keep, :] if keep else None
    b_ub = p.coup_rhs[keep] if keep else None
    # each array, and the bound its entries' magnitudes must stay below (NaN fails either)
    limits = [(p.a_eq.data, np.inf), (p.b_eq, _INF)] + ([(a_ub.data, np.inf), (b_ub, _INF)]
                                                       if keep else [])
    if not all(np.all(np.abs(v) < top) for v, top in limits) or np.isnan([p.lb, p.ub]).any():
        return "unknown"
    res = linprog(
        c=np.zeros(p.n),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=p.a_eq,
        b_eq=p.b_eq,
        bounds=np.column_stack([p.lb, p.ub]),
        method="highs",
    )
    if res.status == 2:
        return INFEASIBLE
    return "feasible" if res.status == 0 else "unknown"


def oracle_diagnosis(p: QpProblem) -> str:
    """diagnose_infeasibility's message by relaxation probes, one LP each.

    The full problem first; if HiGHS proves it infeasible, the first of
    these to restore feasibility names the conflict: dropping the
    retirement floor (coupling row 0), dropping the quota ceiling (row 1),
    dropping both; if none does, the balances and boxes already clash.
    Up to four feasibility LPs, with no objective, where solve_qp's
    diagnosis solves one or two elastic ones.
    """
    verdict = _probe(p)
    if verdict == "feasible":
        return "problem is feasible"
    if verdict != INFEASIBLE:
        return "feasibility could not be decided"
    if _probe(p, drop_coupling=(0,)) == "feasible":
        return "infeasible: REC retirement floor conflicts with certificate supply and caps"
    if _probe(p, drop_coupling=(1,)) == "feasible":
        return "infeasible: CER quota ceiling conflicts with emission needs and caps"
    if _probe(p, drop_coupling=(0, 1)) == "feasible":
        return "infeasible: retirement floor and quota ceiling jointly conflict"
    return "infeasible: balance equations conflict with variable bounds"

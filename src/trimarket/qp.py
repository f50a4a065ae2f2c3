"""Interior-point solver for the tri-market scheduling QP, with duals.

Solves the assembled concave QP (maximization) by running a Mehrotra-style
predictor-corrector primal-dual interior-point method on the equivalent
minimization.  Multipliers are first-class outputs: the solver returns one
dual per equality row plus nonnegative multipliers for every bound side and
for the two coupling rows, in the sign convention fixed by
:func:`kkt_residuals`.

Named-dual convention (maximization form).  With ``lam`` the equality duals,
``zl``/``zu`` the lower/upper bound multipliers and ``zc`` the coupling
multipliers, a point is stationary when, componentwise,

    grad_obj(x) - a_eq' lam + zl - zu - coup' zc = 0

so for example the retirement floor's multiplier prices REC retirement and
the quota ceiling's multiplier prices allowance headroom, both >= 0.

Presolve substitutes out every pinned variable (lb == ub, or forced to a
bound by a coupling row), so the solver's blocks hold only the other
columns, and each entry the problem stores twice is summed once.  After
presolve every inequality sits in one block g x + w = h with one slack
vector w >= 0 and one multiplier vector z >= 0 (the textbook form of
Wright, Primal-Dual Interior-Point Methods, 1997): the finite lower
bounds as rows -x_j <= -lb_j, then the finite upper bounds, then the
coupling rows.  The iteration, the polish and the map back to (zl, zu,
zc) all work on that one block.

Each interior-point iteration solves one KKT system: the bound rows of the
block fold into its primal diagonal (barrier terms plus one fixed
regularizing shift), and the equality and coupling rows border it.  Every
column is eliminated: its diagonal D is positive, a barrier term where
the column has a bound row and q plus the shift where it has none, so
what gets factored is the reduced system in the equality and coupling
rows alone, -(B D^-1 B' + E), negative definite, E being the dual side
of the shifted diagonal (Vanderbei, Symmetric quasi-definite matrices,
SIAM J. Optim. 1995; Wright 1997, ch. 11).  The shift's error goes
with the refinement below: this is primal-dual regularization (Saunders
& Tomlin, Solving regularized linear programs using barrier methods and
KKT systems, 1996; Friedlander & Orban, Math. Prog. Comp. 2012).  Each
hourly row couples only its own hour and the next (storage and
inventories carry over), so all of the system but the 0-2 coupling rows
is a narrow band once put in a reverse Cuthill-McKee order (Cuthill &
McKee 1969), computed once per pattern (below).  Its negation's band
takes LAPACK's band Cholesky, with no pivoting and bw + 1 rows stored;
a pivot that rounding leaves non-positive is replaced by a huge one
(Wright, Modified Cholesky factorizations in interior-point algorithms
for linear programming, SIAM J. Optim. 1999).  The coupling rows, the
border, take their Schur complement through the Cholesky factor L, as
D - W'W with W = L^-1 C, one forward sweep of the border's columns per
factor, so that each solve is a forward sweep, the 2 x 2 Schur solve and
a backward sweep (Vanderbei 1995; Davis 2006).  This one factor is the
only one an iteration makes, and its solves run in the band order,
gathered into it and scattered out of it once.  Each solve recovers the
eliminated variables and is refined against the full unregularized
matrix, which is never assembled: the product refinement takes is the
diagonal times the vector plus B' and B times its dual and primal parts,
B being the equality and coupling rows, held once, in CSC, and B' a CSR
view of the same arrays; a solve whose
refinement misses its tolerance is used as refined, and the ratio test
and the gate below judge where it leads (Wright 1997, ch. 11).  How far
a direction is refined follows its use (inexact interior-point methods:
Bellavia, JOTA 1998; Gondzio, SIAM J. Optim. 2013): the predictor only
sets the centering and the second-order term, and far from the optimum
a corrector needs only as much accuracy as mu is large, so both stop at
a loose tolerance, which the first solve nearly always meets; once mu
has fallen well below its start, the correctors are refined to the
tight one, as the start's solves are.  One builder writes this system
straight from the CSR arrays of the presolved blocks, and the polish's
too, on the same pattern.

The builder's symbolic part, everything read from index arrays alone
(B's CSC arrays, the pairs of B's entries in one column that
land in the band store, the ordering and the band layout), is a
pattern, built from its key alone: B's index arrays and its column
count.  Its numeric part holds the values, one band store that each
factor refills in place, and the factor (Davis, Direct Methods for
Sparse Linear Systems, 2006, ch. 7).  Every
KKT system of a solve, the interior point's, its polish's and a warm
start's, has one pattern: solve_qp opens a kkt_pattern_scope, which
holds one pattern, and drops it when the solve returns.  A command that
solves several problems, a scenario with its neighbours or a sweep's
points, opens one scope around them all: a solve whose key equals the
last one's reuses its pattern, and a miss builds the pattern as the
first solve did.

The iteration starts from least-squares points (Mehrotra, On the
implementation of a primal-dual interior point method, SIAM J. Optim.
1992; Vandenberghe, The CVXOPT linear and quadratic cone program solvers,
2010).  The KKT matrix with every w / z at 1 is factored once, by the
same band factor as an iteration.  With Q the Hessian and c the linear
term of the minimization, one solve gives the x minimizing x'Q x / 2 +
|w|^2 / 2 subject to the equalities and g x + w = h; the other gives the
y and z minimizing u'Q u / 2 + |z|^2 / 2 subject to stationarity,
Q u + c - a'y + g'z = 0, at some u.  Each of w and z is then shifted by
1 plus its most negative entry, if it has one.  A factor error there
ends the solve as one in an iteration does.

The interior-point iteration is followed by an active-set "polish": once the
active set is identified, each active bound fixes its variable, and one
quasi-definite solve in the free variables plus iterative refinement
produces primal/dual values accurate to near machine precision, which
downstream sensitivity checks rely on.  Its system refills the interior
point's pattern and store: a fixed column and an inactive coupling row
keep their places with zero B entries and a diagonal of 1 (-1 on the
dual side), so only the values differ, and building it is numeric work
alone (Davis 2006).
Every answer of a solve that gets past presolve passes one gate: it
polishes the last iterate, with its own slacks, whether or not the
iteration converged, falls back to the iterate itself, if it converged,
whenever the polished point fails, and lets the candidate out as
"optimal" only when it passes kkt_residuals at the solver tolerances.
A start's active set (below) passes the same gate.  Anything else is
settled by the infeasibility diagnosis (last paragraph) as "infeasible"
or "iteration_limit".

A solve may be given the optimal solution of a neighbouring problem as a
start.  Its active set, predicted by the gate's rule, is polished on
the new problem first, and the point is returned only if it passes the
same test; otherwise the solve runs as it would without a start.  Inside
one active set the solution is affine in the right-hand side, so a small
move of a quota or a floor usually keeps the set (Bemporad, Morari, Dua &
Pistikopoulos 2002, The explicit linear quadratic regulator for
constrained systems).

The diagnosis solves elastic LPs with this module's own presolve,
interior point and gate (Chinneck, Feasibility and Infeasibility in
Optimization, 2008): columns t >= 0 relax a row by t, and the LP
minimizes their sum.  The first relaxes the REC retirement floor, with
the quota row kept: no shortfall at its optimum means the problem is
feasible, and a positive one that the floor is what it fails.  Each LP
has a point whenever its rows without a t column have one, so every
verdict is read off an optimal, gate-verified answer, never off a run
that failed to converge.  If the first has no optimum, the quota's
shortfall with the floor dropped and the floor's with the quota dropped
tell the quota from the two jointly, and one LP with elastic columns on
every equality row tells the balance equations.  One LP settles a
feasible problem and names a floor conflict, and three name any other.
On an infeasible problem the primal residual stops falling after a few
iterations while mu grows without bound or collapses to zero.  The
first time the residual has stalled (still above tolerance and less
than 10% below its value five iterations earlier) the diagnosis runs
once, early; if it finds the problem infeasible the solve ends there
with its message, and otherwise the iteration goes on unchanged, so it
never alters a feasible answer (detect, then certify: Banjac et al.
2019, Infeasibility detection in the ADMM for convex optimization).  An
elastic LP's own stall ends its run undiagnosed.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrf, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
# never called: kept only for the benchmark's tracer until ROADMAP item 4 re-points it
from scipy.sparse.linalg import splu  # noqa: F401

from .model import QpProblem

__all__ = [
    "SolverSettings",
    "IneqDuals",
    "Residuals",
    "Solution",
    "solve_qp",
    "kkt_residuals",
    "diagnose_infeasibility",
]

# statuses a Solution can carry
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class SolverSettings:
    """Interior-point tolerance and iteration limit.

    tol bounds the primal residual, the dual residual and the
    complementarity gap alike, each relative to its scale: 1 + the
    largest |right-hand side| of the equality rows, the pinned values and
    the kept coupling rows; 1 + the largest |linear objective
    coefficient|; and 1 + |objective|.  One test applies them, both to
    stop the interior point and to let an answer out.  tol lies in (0, 1):
    at 1 or above, or infinite, the test lets out points far from optimal,
    and at NaN it passes none.
    """

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not self.tol < 1:  # NaN and inf too: no iterate would be judged
            raise ValueError("tol must be finite and below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IneqDuals:
    """Nonnegative multipliers per inequality side.

    lower[j] prices x_j >= lb_j, upper[j] prices x_j <= ub_j (zero where the
    bound is infinite, or 1e20 or more in magnitude, which the solver
    reads as infinite), coupling[k] prices coupling row k in the order of
    QpProblem.coup ("rps" then "quota").
    """

    lower: np.ndarray
    upper: np.ndarray
    coupling: np.ndarray


@dataclass(frozen=True)
class Residuals:
    """Infinity-norm KKT residuals plus the total complementarity gap."""

    primal_inf: float
    dual_inf: float
    comp_gap: float


@dataclass(frozen=True)
class Solution:
    """Primal/dual solve result.

    eq_duals follows the equality-row order of the problem (6 rows per hour);
    ineq_duals holds the bound and coupling multipliers.  Status "optimal"
    from solve_qp always means the point passes kkt_residuals at the solver
    tolerances, scaled as SolverSettings describes, by the same test that
    stops the interior point; every return path checks this.  On
    "infeasible" and "iteration_limit" the vectors are zero and message
    says why.  An optimal answer with iterations == 0 from a solve given
    a start came from the start's active set (see solve_qp).
    """

    status: str
    x: np.ndarray
    objective: float
    eq_duals: np.ndarray
    ineq_duals: IneqDuals
    iterations: int = 0
    residuals: Residuals | None = None
    message: str = ""


def _empty_solution(p: QpProblem, status: str, message: str = "", iterations: int = 0) -> Solution:
    duals = IneqDuals(np.zeros(p.n), np.zeros(p.n), np.zeros(2))
    return Solution(status, np.zeros(p.n), float("nan"), np.zeros(p.m_eq), duals, iterations,
                    message=message)


# ---------------------------------------------------------------------------
# KKT residual evaluation (full Lagrangian gradient, not just printed rows)


def kkt_residuals(p: QpProblem, sol: Solution) -> Residuals:
    """Evaluate stationarity, feasibility and complementarity at a solution.

    Dimension mismatches raise ValueError.  Stationarity is the full
    gradient identity of the module docstring, so each per-hour balance,
    storage and retirement identity is covered as a special case.
    """
    x = np.asarray(sol.x, dtype=float)
    lam = np.asarray(sol.eq_duals, dtype=float)
    zl = np.asarray(sol.ineq_duals.lower, dtype=float)
    zu = np.asarray(sol.ineq_duals.upper, dtype=float)
    zc = np.asarray(sol.ineq_duals.coupling, dtype=float)
    n = p.n
    if x.shape != (n,) or zl.shape != (n,) or zu.shape != (n,):
        raise ValueError("primal/bound-dual vectors do not match problem size")
    if lam.shape != (p.m_eq,):
        raise ValueError(f"expected {p.m_eq} equality duals, got shape {lam.shape}")
    if zc.shape != (2,):
        raise ValueError("expected one coupling dual per coupling row")

    grad = p.h_diag * x + p.f
    stat = grad - p.a_eq.T @ lam + zl - zu - p.coup.T @ zc
    dual_inf = float(np.max(np.abs(stat))) if n else 0.0

    r_eq = p.a_eq @ x - p.b_eq
    r_coup = p.coup @ x - p.coup_rhs
    lo = np.isfinite(p.lb)
    hi = np.isfinite(p.ub)
    viol = [np.max(np.abs(r_eq), initial=0.0), np.max(r_coup, initial=0.0)]
    viol.append(np.max(p.lb[lo] - x[lo], initial=0.0))
    viol.append(np.max(x[hi] - p.ub[hi], initial=0.0))
    primal_inf = float(np.max(viol))  # NaN propagates, as in dual_inf and comp_gap

    gap = float(
        zl[lo] @ np.maximum(x[lo] - p.lb[lo], 0.0)
        + zu[hi] @ np.maximum(p.ub[hi] - x[hi], 0.0)
        + zc @ np.maximum(-r_coup, 0.0)
    )
    return Residuals(primal_inf=primal_inf, dual_inf=dual_inf, comp_gap=gap)


# ---------------------------------------------------------------------------
# Presolve: fixed variables and degenerate coupling rows


class _InfeasibleProblem(Exception):
    pass


# presolve reads a bound of 1e20 or more in magnitude as infinite, the
# infinity of common LP solvers' input
_INF = 1e20


def _csr(data: np.ndarray, cols: np.ndarray, counts: np.ndarray, n: int) -> sp.csr_matrix:
    """The CSR matrix with n columns whose row i holds the next counts[i] entries of data, cols."""
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((data, cols, indptr), shape=(len(counts), n))


def _canonical(m) -> sp.csr_matrix:
    """m in CSR with each row's columns distinct and ascending, m itself left as it is."""
    m = m.tocsr()
    if not m.has_canonical_format:
        m = m.copy()  # tocsr() hands a CSR matrix back itself
        m.sum_duplicates()
    return m


def _without_pins(m: sp.csr_matrix, rows: np.ndarray, pinned: np.ndarray, col: np.ndarray):
    """The entries of m's rows marked in `rows` outside the pinned columns, as _csr takes them.

    Each kept entry's column is renumbered by col; returns (data, cols, counts).
    """
    row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    keep = rows[row] & ~pinned[m.indices]
    return m.data[keep], col[m.indices[keep]], np.bincount(row[keep], minlength=m.shape[0])[rows]


@dataclass
class _Presolved:
    """Minimization-form data after substituting out the pinned variables.

    Variables with lb == ub, and variables forced to a bound by a coupling
    row whose right-hand side equals the row's minimum over the box, are
    pinned and substituted out (Andersen & Andersen, Presolving in linear
    programming, Math. Prog. 1995): the blocks keep only the other
    columns, `unpinned` names the variable of each, and the right-hand
    sides absorb the pinned values, so the barrier only ever sees strictly
    widenable intervals.  a_ext has one row per equality row, and both
    blocks are canonical, an entry that a_eq or coup stores twice being
    summed once here; with nothing pinned, a_ext is a canonical CSR a_eq
    itself.  Every remaining inequality sits in one block g x <=
    h, read by the solver as g x + w = h with one slack w >= 0 and one
    multiplier z >= 0 per row: first -x_j <= -lb_j for each column in
    lo_idx, then x_j <= ub_j for each in up_idx, then the kept coupling
    rows.  Both blocks are written as CSR arrays: each bound row of g
    holds one +-1 entry, so g.indices[i] is bound row i's column and
    g.data[i] its sign.

    A bound of _INF or more in magnitude is read as infinite, with its
    sign.

    The stopping test's scales are set here, once per problem, from its
    own data: scale_p = 1 + max |(b_eq, pinned values, kept coupling
    right-hand sides)| and scale_d = 1 + max |f|, pinned variables
    included.
    """

    q: np.ndarray              # diagonal of the (PSD) minimization Hessian
    c: np.ndarray
    a_ext: sp.csr_matrix       # the equalities in the unpinned columns
    b_ext: np.ndarray          # b_eq less the pinned values' part
    unpinned: np.ndarray       # the variable of each column
    pin_idx: np.ndarray        # the pinned variables
    x_pin: np.ndarray          # every variable's pinned value, 0 where unpinned
    lo_idx: np.ndarray         # columns with a finite lower bound
    up_idx: np.ndarray
    both: np.ndarray           # the (lower, upper) bound rows of g of each column with both
    g: sp.csr_matrix           # inequality block: lower bounds, upper bounds, coupling
    h: np.ndarray
    n_b: int                   # bound rows of g, which lead the block
    keep_rows: list[int]
    dropped_rows: list[int]    # coupling rows absorbed into pins
    coup: sp.csr_matrix        # the coupling rows, canonical, in every column
    scale_p: float             # primal and dual scales of _meets_tolerances
    scale_d: float


def _presolve(p: QpProblem) -> _Presolved:
    lb, ub = (np.where(np.abs(v) >= _INF, np.copysign(np.inf, v), v) for v in (p.lb, p.ub))
    with np.errstate(invalid="ignore"):  # inf - inf when lb = +inf and ub = -inf
        bad = (lb == np.inf) | (ub == -np.inf) | (lb > ub + 1e-12 * (1.0 + np.abs(lb)))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise _InfeasibleProblem(f"empty bound interval on variable {j}: [{lb[j]}, {ub[j]}]")

    pinned = np.isfinite(lb) & (lb == ub)
    x_pin = np.where(pinned, lb, 0.0)

    keep_rows, dropped_rows = [], []
    a, coup = _canonical(p.a_eq), _canonical(p.coup)
    for k in range(coup.shape[0]):
        cols = coup.indices[coup.indptr[k] : coup.indptr[k + 1]]
        vals = coup.data[coup.indptr[k] : coup.indptr[k + 1]]
        # an explicit zero coefficient leaves its variable out of the row
        cols, vals = cols[vals != 0], vals[vals != 0]
        bnd = np.where(vals > 0, lb[cols], ub[cols])  # the bound that minimizes the row
        achievable = bool(np.all(np.isfinite(bnd)))
        lo_val = sum((vals * bnd).tolist(), 0.0) if achievable else 0.0  # in column order
        rhs = p.coup_rhs[k]
        tol = 1e-9 * (1.0 + abs(rhs) + abs(lo_val))
        if achievable and rhs < lo_val - tol:
            raise _InfeasibleProblem(
                f"coupling row {k} requires value below its box minimum ({rhs} < {lo_val})"
            )
        if achievable and rhs <= lo_val + tol:
            # the row can only hold with every participating variable at the
            # bound that minimizes it; pin them and drop the row
            clash = pinned[cols] & (x_pin[cols] != bnd)
            if np.any(clash):
                raise _InfeasibleProblem(f"conflicting pins on variable {cols[np.argmax(clash)]}")
            pinned[cols] = True
            x_pin[cols] = bnd
            dropped_rows.append(k)
        else:
            keep_rows.append(k)

    pin_idx, unpinned = np.nonzero(pinned)[0], np.nonzero(~pinned)[0]
    col = np.cumsum(~pinned) - 1  # each unpinned variable's column
    has_lo, has_up = np.isfinite(lb[unpinned]), np.isfinite(ub[unpinned])
    lo_idx, up_idx = np.nonzero(has_lo)[0], np.nonzero(has_up)[0]
    # each column with both bounds: its row among the lower and the upper bound rows
    both = has_lo & has_up
    lo_row, up_row = (np.cumsum(has_lo) - 1)[both], (np.cumsum(has_up) - 1)[both]

    # each bound row is one +-1 entry; a_eq and the kept coupling rows
    # keep their unpinned entries, and their right-hand sides absorb the
    # pinned ones
    kept = np.isin(np.arange(coup.shape[0]), keep_rows)
    c_data, c_cols, c_counts = _without_pins(coup, kept, pinned, col)
    n_b, coup_rhs = len(lo_idx) + len(up_idx), p.coup_rhs[keep_rows]
    a_ext = a  # with nothing pinned, the canonical a_eq itself
    if len(pin_idx):
        a_ext = _csr(*_without_pins(a, np.ones(a.shape[0], dtype=bool), pinned, col),
                     len(unpinned))
    return _Presolved(
        q=-p.h_diag[unpinned],
        c=-p.f[unpinned],
        a_ext=a_ext,
        b_ext=p.b_eq - a @ x_pin,
        unpinned=unpinned,
        pin_idx=pin_idx,
        x_pin=x_pin,
        lo_idx=lo_idx,
        up_idx=up_idx,
        both=np.stack([lo_row, len(lo_idx) + up_row]),
        g=_csr(np.concatenate([-np.ones(len(lo_idx)), np.ones(len(up_idx)), c_data]),
               np.concatenate([lo_idx, up_idx, c_cols]),
               np.concatenate([np.ones(n_b, dtype=np.int64), c_counts]), len(unpinned)),
        h=np.concatenate([-lb[unpinned[lo_idx]], ub[unpinned[up_idx]],
                          coup_rhs - (coup @ x_pin)[keep_rows]]),
        n_b=n_b,
        keep_rows=keep_rows,
        dropped_rows=dropped_rows,
        coup=coup,
        scale_p=1.0 + float(np.max(np.abs(np.concatenate([p.b_eq, x_pin[pin_idx], coup_rhs])),
                                   initial=0.0)),
        scale_d=1.0 + float(np.max(np.abs(p.f), initial=0.0)),
    )


def _finalize(p: QpProblem, pre: _Presolved, x, y, z) -> Solution:
    """The Solution of p at the presolved point (x, y, z), duals mapped back.

    x holds one value per column, y one dual per equality row and z one
    multiplier per row of the inequality block g.  Each pinned variable
    takes its pinned value, and its signed bound multiplier zl - zu is
    read off its column of stationarity, as _polish reads a fixed
    variable's.
    """
    n_l, n_b = len(pre.lo_idx), pre.n_b
    z = np.maximum(z, 0.0)
    zl = np.zeros(p.n)
    zu = np.zeros(p.n)
    coupling = np.zeros(2)
    zl[pre.unpinned[pre.lo_idx]] = z[:n_l]
    zu[pre.unpinned[pre.up_idx]] = z[n_l:n_b]
    coupling[pre.keep_rows] = z[n_b:]
    x_full = pre.x_pin.copy()
    x_full[pre.unpinned] = x
    lam = -y

    # the zl - zu that stationarity asks of each variable, first with the
    # kept coupling rows alone; only the pinned variables' is read
    w = p.a_eq.T @ lam + p.coup.T @ coupling - p.h_diag * x_full - p.f
    coup = pre.coup
    for k in pre.dropped_rows:
        # a dropped row holds with equality; its multiplier zeta enters
        # stationarity as v_j * zeta on each of its variables.  Take the
        # smallest zeta >= 0 that leaves every variable with lb < ub priced
        # on the side of the bound the row pinned it to: w_j + v_j * zeta
        # >= 0 at a lower bound (v_j > 0), <= 0 at an upper one (v_j < 0)
        cols = coup.indices[coup.indptr[k] : coup.indptr[k + 1]]
        vals = coup.data[coup.indptr[k] : coup.indptr[k + 1]]
        free = (p.lb[cols] < p.ub[cols]) & (vals != 0)
        coupling[k] = float(np.max(-w[cols[free]] / vals[free], initial=0.0))
        w[cols] += vals * coupling[k]
    # a pinned variable's signed multiplier splits across the two sides
    zl[pre.pin_idx] = np.maximum(w[pre.pin_idx], 0.0)
    zu[pre.pin_idx] = np.maximum(-w[pre.pin_idx], 0.0)

    sol = Solution(
        status=OPTIMAL,
        x=x_full,
        objective=p.objective(x_full),
        eq_duals=lam,
        ineq_duals=IneqDuals(lower=zl, upper=zu, coupling=coupling),
    )
    return replace(sol, residuals=kkt_residuals(p, sol))


# ---------------------------------------------------------------------------
# Mehrotra predictor-corrector


def _max_step(v: np.ndarray, dv: np.ndarray, ratio: np.ndarray) -> float:
    """Largest step a with v + a dv >= 0, inf if none binds; `ratio` is scratch.

    min(-v_i / dv_i) over dv_i < 0 is taken as -max(v_i / dv_i), which is
    the same number: negation is exact.  Every ratio is divided, and the
    entries without dv_i < 0 (a NaN one too) are then set to -inf, which
    costs less than a divide masked by where=.
    """
    # dv_i = 0 divides by zero and a tiny dv_i overflows; both are set aside
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(v, dv, out=ratio)
    ratio[~(dv < 0)] = -np.inf
    return -float(np.max(ratio))


# static diagonal shifts: each KKT matrix is factored with +eps on its
# primal diagonal and -eps on its dual diagonal, which keeps
# curvature-free directions solvable, makes every column's D positive, so
# eliminable, and the reduced matrix negative definite.  Refinement
# against the unshifted matrix removes the shift's error from every
# solve.  The interior point's eps is _KKT_REG; the polish's is
# _POLISH_EPS, which also weighs its pull toward the hint iterate.  A
# free column of the polish with q = 0 puts 1 / _POLISH_EPS into the
# reduced matrix beside entries near 1: at 1e-10 and 1e-8 the refined
# solves were off by enough to fail the oracle, affine-sensitivity and
# acceptance overlap checks, at 1e-6 they all pass
_KKT_REG = 1e-9
_POLISH_EPS = 1e-6
# the interior point's refinement stops at a residual relative to its
# right-hand side (_Kkt.solve): _KKT_RTOL in the start's two solves and,
# once mu is below _TIGHT_MU times the start's mu, in the corrector
# directions (the combined and the centered one); _LOOSE_RTOL in the
# predictor, which only sets sigma and the second-order term, and in the
# correctors while mu is above that (module docstring).  The first band
# solve nearly always meets _LOOSE_RTOL: on the synthetic week its
# relative residual is 1e-10 to 1e-9
_KKT_RTOL = 1e-11
_LOOSE_RTOL = 1e-3
_TIGHT_MU = 1e-4

# stall exit (module docstring): the primal residual has stalled when it is
# above tolerance and at least _STALL_RATIO of its value _STALL_WINDOW
# iterations earlier
_STALL_WINDOW = 5
_STALL_RATIO = 0.9

# what a factorization raises when it fails: the band Cholesky and the
# border's Schur complement raise RuntimeError for a failed pivot (not
# positive in the Cholesky even after its replacement, zero in the
# Schur complement's LU), and MemoryError when a store or an ordering
# does not fit
_FACTOR_ERRORS = (RuntimeError, MemoryError)

# the diagonal entry a band Cholesky writes in place of a pivot that is
# not positive (_BandFactor): its row of L below the diagonal comes out
# near 1e-64 times the row's entries, and its component of each solve as
# 1e-128 times the right-hand side (Wright 1999)
_HUGE_PIVOT = 1e128


def _layout(rows: np.ndarray, cols: np.ndarray, nr: int, n_c: int):
    """Band-plus-border layout of a symmetric nr x nr matrix for the band Cholesky.

    The matrix has an entry at each (rows[t], cols[t]), duplicates
    allowed, its pattern symmetric.  The border is its last n_c rows and
    columns, chosen by role (the coupling rows), never by density: one
    sparse coupling row left in the core widened a polish's band from 7
    to 48-120.  The core goes in a reverse Cuthill-McKee order of its own
    pattern, a CSR matrix made from the entries inside it.  The store is
    LAPACK band storage of the core's lower band, (i, j) at [i - j, j] of
    a column-major (bw + 1) x core array, then, column-major, the last
    n_c columns; the border's rows are its columns transposed and are not
    stored.  Returns (order, bw, n_c), order being the matrix's row at
    each band position, the store's size, the entries it stores and
    their store positions, `dest`.
    """
    core = nr - n_c
    in_core = (rows < core) & (cols < core)
    pattern = sp.csr_matrix((np.ones(int(in_core.sum())), (rows[in_core], cols[in_core])),
                            shape=(core, core))
    order = np.concatenate([reverse_cuthill_mckee(pattern, symmetric_mode=True),
                            np.arange(core, nr)])  # the matrix's row at each position
    where = np.empty(nr, dtype=np.int64)
    where[order] = np.arange(nr)
    rows, cols = where[rows], where[cols]
    bw = int(np.max(np.abs(rows - cols)[in_core], initial=0))
    stored = (cols >= core) | ((rows >= cols) & (rows < core))
    rows, cols = rows[stored], cols[stored]
    n_band = (bw + 1) * core
    dest = np.where(cols >= core, n_band + (cols - core) * nr + rows,
                    rows - cols + cols * (bw + 1))
    return (order, bw, n_c), n_band + nr * n_c, stored, dest


def _into(b: np.ndarray, x: np.ndarray) -> None:
    """Write a LAPACK solve's solution x into its right-hand side b, unless x is b.

    f2py's overwrite_b solves b itself only when b is a contiguous
    float64 array; any other b, a strided view say, is solved in a copy.
    """
    if x is not b:
        b[:] = x


class _BandFactor:
    """Factor of a negative definite matrix in _layout's store; solves run in place in band order.

    The matrix is the reduced KKT matrix r, negative definite: its
    negation, written over the store, takes a band Cholesky L L' (dpbtrf,
    no pivoting).  The border's Schur complement, at most 2 x 2, takes a
    dense LU: it is D - W'W, with W = L^-1 C from one forward sweep of
    the border's columns C (dtbtrs), and a solve sweeps forward, solves
    the border and sweeps back.

    The matrix can still meet a pivot that is not positive, when its
    smallest eigenvalue is below the rounding of its entries: barrier
    terms near the shift beside ones near its inverse.  That pivot is
    replaced by _HUGE_PIVOT (Wright 1999), which decouples its row: its
    component of each solve comes out as 1e-128 times its right-hand
    side, and _Kkt.solve's refinement against the unshifted KKT matrix
    takes the solve from there.
    dpbtrf reports the first such pivot and leaves the store past it
    undefined, so each replacement calls `refill` to write the matrix
    into the store again and factors it once more, every pivot replaced
    so far set on the diagonal.  The first failed pivot comes strictly
    later each time, so this ends.
    `replaced` lists those pivots, in the core's band order.  A Cholesky
    with no `refill`, or whose replaced pivot fails again (a matrix
    that is not finite), and an exactly zero pivot in the Schur
    complement raise RuntimeError.
    """

    def __init__(self, order: np.ndarray, bw: int, n_c: int, store: np.ndarray, refill=None):
        nr = len(order)
        self.core = core = nr - n_c
        n_band = (bw + 1) * core
        band = store[:n_band].reshape((bw + 1, core), order="F")
        self.replaced = []
        while True:
            np.negative(store, out=store)
            band[0, self.replaced] = _HUGE_PIVOT
            self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
            if info <= 0 or refill is None or info - 1 in self.replaced:
                break
            self.replaced.append(info - 1)
            refill()
        if info != 0:
            raise RuntimeError(f"band Cholesky failed (info {info})")
        self.l_cols = None
        if n_c:
            # with the factor L L' of the core, the border's Schur
            # complement D - C' (L L')^-1 C is D - W'W, W = L^-1 C
            cols = store[n_band:].reshape((nr, n_c), order="F")
            self.l_cols = dtbtrs(self.band, cols[:core], uplo="L")[0]
            schur = cols[core:] - self.l_cols.T @ self.l_cols
            self.schur, self.schur_piv, info = dgetrf(schur)
            if info != 0:
                raise RuntimeError(f"border Schur complement is singular (dgetrf info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite rhs, in the band order (the layout's order), with the solution; return it.

        The solve is the forward sweep u = L^-1 rhs_core and the backward
        sweep L'^-1 u, the two that dpbtrs makes, and the border's part v
        comes from its Schur complement between them, u giving way to
        u - W v.  The factor is the negated matrix's, so rhs is negated
        first.
        """
        y, v = rhs[: self.core], rhs[self.core :]
        np.negative(rhs, out=rhs)
        _into(y, dtbtrs(self.band, y, uplo="L", overwrite_b=1)[0])
        if self.l_cols is not None:
            v[:] = dgetrs(self.schur, self.schur_piv, v - self.l_cols.T @ y)[0]
            y -= self.l_cols @ v
        _into(y, dtbtrs(self.band, y, uplo="L", trans="T", overwrite_b=1)[0])
        return rhs


def _pattern_key(pre: _Presolved):
    """What a _Kkt's pattern is built from, compared exactly to find it again.

    B's rows in CSR, a_ext's and then the coupling rows' (each an indptr
    from 0 and its column indices), and the column count, which no index
    array holds: a last column that no row enters is seen in it alone.
    """
    g, n_b = pre.g, pre.n_b
    return (pre.a_ext.indptr, pre.a_ext.indices, g.indptr[n_b:] - g.indptr[n_b],
            g.indices[g.indptr[n_b] :], pre.a_ext.shape[1])


class _Pattern:
    """What a _Kkt reads from index arrays alone: every part that reads no matrix value.

    It is built from its key (_pattern_key) and nothing else.  B stacks
    the rows of a_ext and the coupling rows, each row's columns distinct
    and ascending, as presolve writes both blocks.  The matrix
    [[D1, B'], [B, -D2]] is never assembled: the diagonal and B are all
    of it.  Every column is eliminated, so r is in B's rows, the
    matrix's rows past its n columns.  The pattern holds B's CSC arrays,
    `e_row` and `e_ptr`, each column's rows ascending, with `e_src`, the
    entry of the stacked rows' values behind each of B's entries; the
    pairs of B's entries in one column that write B D^-1 B' into r's
    store, as the entries `pair_t` and `pair_s` of B's CSC order, column
    by column (`pair_reps` per column); and r's _layout: its order,
    store size and `dest`.  The store holds r's entries on and below the
    core's diagonal and in the border's columns alone, so only the pairs
    that land there are kept, and r's diagonal.  The key holds copies of
    the index arrays, since a_ext may be the caller's a_eq.  Index arrays
    read once per build are int32, to hold less.
    """

    def __init__(self, key):
        self.key = tuple(map(np.array, key))
        a_ptr, a_col, c_ptr, c_col, n = key
        self.n, self.mb = n, mb = n, len(a_ptr) + len(c_ptr) - 2
        b_col = np.concatenate([a_col, c_col])

        # B in CSC, each column's rows ascending
        self.e_src = np.argsort(b_col, kind="stable").astype(np.int32)
        rows = np.repeat(np.arange(mb), np.concatenate([np.diff(a_ptr), np.diff(c_ptr)]))
        self.e_row = rows = rows[self.e_src].astype(np.int32)
        counts = np.bincount(b_col, minlength=n)
        self.e_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        # every pair of entries t, s in one column e of B adds
        # B[i_t, e] B[i_s, e] / D_e to r at (i_t, i_s); the pairs run
        # column by column and t-major, t repeating each entry once per
        # entry of its column
        reps = np.repeat(counts, counts)
        pair_t = np.repeat(np.arange(len(b_col)), reps)
        pair_s = np.arange(len(pair_t)) + np.repeat(
            self.e_ptr[:-1].repeat(counts) - (np.cumsum(reps) - reps), reps)
        # r's entries: the products, then the diagonal
        r_diag = np.arange(mb)
        self.lay, self.size, stored, self.dest = _layout(
            np.concatenate([rows[pair_t], r_diag]), np.concatenate([rows[pair_s], r_diag]), mb,
            len(c_ptr) - 1)
        # the pairs the store holds, and how many of each column's (r's
        # other entries are its diagonal, all stored)
        stored = stored[: len(pair_t)]
        self.pair_t, self.pair_s = pair_t[stored].astype(np.int32), pair_s[stored].astype(np.int32)
        col = np.repeat(np.arange(n), counts)  # each entry's column, in B's CSC order
        self.pair_reps = np.bincount(col[self.pair_t], minlength=n).astype(np.int32)


# the open kkt_pattern_scope's one slot, holding the last pattern built
# in it, if any; None outside every scope
_PATTERN: ContextVar[list | None] = ContextVar("kkt_pattern", default=None)


@contextmanager
def kkt_pattern_scope():
    """Let every KKT system built inside reuse the last pattern built in it.

    solve_qp opens one around each solve, so that its interior point,
    its polish and a warm start's polish share one pattern.  A command
    that solves several problems (a scenario's base and neighbours, a
    sweep's points) opens one around them all: a system whose key (B's
    index arrays and column count, _pattern_key) equals the held
    pattern's takes that _Pattern and builds only the values, and a miss
    builds a pattern from its key that replaces it.  A nested open
    shares the outer scope; the pattern is dropped when the outermost
    closes, so a solve made outside every scope holds none after it
    returns.  Also a decorator.
    """
    if _PATTERN.get() is not None:
        yield
        return
    token = _PATTERN.set([])
    try:
        yield
    finally:
        _PATTERN.reset(token)


def _pattern(pre: _Presolved) -> _Pattern:
    """The open scope's pattern if its key matches pre's, else a new one that it keeps."""
    held, key = _PATTERN.get(), _pattern_key(pre)
    if held and all(map(np.array_equal, held[0].key, key)):
        return held[0]
    pattern = _Pattern(key)
    if held is not None:
        held[:] = [pattern]
    return pattern


class _Kkt:
    """A bordered KKT matrix [[D1, B'], [B, -D2]] of the presolved problem.

    B stacks the rows of a_ext and the kept coupling rows, in every
    column, read straight from the CSR arrays of a_ext and g.  k_true,
    the unshifted matrix every solve is refined against, is held as its
    blocks and never assembled: `b`, B in CSC, with `b_t`, its transpose,
    a CSR view of the same arrays, and `diag`, the whole diagonal, which
    set_diagonal gets.  The factor adds `eps` to the primal diagonal and
    subtracts it from the dual one, which makes the matrix quasi-definite
    (Vanderbei 1995).  The interior point uses _KKT_REG with B whole.
    The polish uses _POLISH_EPS and marks
    its free columns in `cols` and its active coupling rows in `coup`:
    B's entries outside them are 0, so that with a diagonal of 1 on a
    fixed column and -1 on an inactive row each of those solves to its
    own right-hand side, alone.

    Every column's shifted diagonal D is positive (a barrier term, or q
    plus the shift), so x = D^-1 (r_x - B' y) leaves the reduced matrix

        r = -(B D^-1 B' + E)

    in the rows of B, E being the dual side of the shifted diagonal.  r
    is negative definite, bordered by the coupling rows and never
    assembled (bandwidth 8 on the synthetic model at every horizon); its
    band takes the band Cholesky from its entries on and below the
    diagonal (_BandFactor).

    Everything read from index arrays alone is a _Pattern, symbolic work
    made once per pattern (Davis 2006, ch. 7): the open kkt_pattern_scope
    holds one, which a system with the same key reuses.  The polish's
    system therefore refills the interior point's pattern, with only its
    values changed.  The instance holds the values: B's, once, the
    products of the pairs the store keeps, and one band store that each
    factor refills in place, in the pattern's entry order, before
    factoring it.  It holds its one factor, and solve() takes the
    eliminated columns around it and refines against k_true.
    """

    def __init__(self, pre: _Presolved, eps: float, cols: np.ndarray | None = None,
                 coup: np.ndarray | None = None):
        self.pat = pat = _pattern(pre)
        n, g = pat.n, pre.g
        vals = np.take(np.concatenate([pre.a_ext.data, g.data[g.indptr[pre.n_b] :]]), pat.e_src)
        if cols is not None:  # the polish's system: B outside cols and coup is 0
            on = np.concatenate([np.ones(pre.a_ext.shape[0], dtype=bool), coup])
            vals[~(np.repeat(cols, np.diff(pat.e_ptr)) & on[pat.e_row])] = 0.0
        self.b = sp.csc_matrix((vals, pat.e_row, pat.e_ptr), shape=(pat.mb, n))
        self.b_t = self.b.T  # a CSR view of b's arrays, made once: each .T costs a constructor
        self.shift = np.full(n + pat.mb, eps)
        self.shift[n:] = -eps
        self.pair_val = -np.take(vals, pat.pair_t) * np.take(vals, pat.pair_s)
        # r's entries in the pattern's order: the pair products, then the diagonal
        self.weights = np.empty(len(self.pair_val) + pat.mb)
        self.store = np.empty(pat.size)  # r's band store, refilled by each factor
        # the diagonal, the shifted diagonal and 1 / D, from set_diagonal
        self.diag = self.reg = self.inv_d = None
        self.lu = None  # r's band factor, from factor

    def set_diagonal(self, diag: np.ndarray) -> None:
        self.diag = diag
        self.reg = diag + self.shift
        self.inv_d = 1.0 / self.reg[: self.pat.n]

    def factor(self) -> None:
        """Factor r at the current diagonal, freeing the last factor first."""
        self.lu = None
        w, pat, n_pairs = self.weights, self.pat, len(self.pair_val)
        np.multiply(self.pair_val, np.repeat(self.inv_d, pat.pair_reps), out=w[:n_pairs])
        w[n_pairs:] = self.reg[pat.n :]
        self._fill()
        self.lu = _BandFactor(*pat.lay, self.store, self._fill)

    def _fill(self) -> None:
        """Write r's entries into the store, each place summing its own from 0.0 in order."""
        self.store.fill(0.0)
        np.add.at(self.store, self.pat.dest, self.weights)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """k_true @ v from its blocks: (D1 x + B' y, B x - D2 y) for v = (x, y).

        `diag` holds D1 and then -D2.
        """
        n, d = self.pat.n, self.diag
        x, y = v[:n], v[n:]
        return np.concatenate([d[:n] * x + self.b_t @ y, self.b @ x + d[n:] * y])

    def shifted_solve(self, vec: np.ndarray) -> np.ndarray:
        """Solve the shifted k_true with r's factor: the eliminated columns go around it.

        x = D^-1 (vec_x - B' y) comes out of r's solution.  r's
        right-hand side, vec_y - B D^-1 vec_x, is gathered into the band
        order (the layout's order) and its solution scattered back, and
        the factor solves in place between them.
        """
        n, order = self.pat.n, self.pat.lay[0]
        r_e = vec[:n] * self.inv_d
        step = np.empty_like(vec)
        y = step[n:]
        y[order] = self.lu.solve((vec[n:] - self.b @ r_e)[order])
        step[:n] = r_e - (self.b_t @ y) * self.inv_d
        return step

    def solve(self, vec: np.ndarray, rtol: float, rhs0: np.ndarray | None = None) -> np.ndarray:
        """Solve k_true z = vec with the factor, refined against k_true.

        The first solve takes rhs0 (default vec); up to three refinement
        steps against k_true follow, stopping once the residual's max norm
        is at most rtol (1 + |vec|_inf).  The caller picks rtol by the
        solve's use: the polish 1e-14, the interior point's start
        _KKT_RTOL, its directions _LOOSE_RTOL or _KKT_RTOL as mu asks
        (_interior_point), so a first solve that meets a loose rtol makes
        the only band solve.  A step that is not finite has a
        NaN or infinite residual, which no tolerance accepts.  A refinement
        step that does not lower the residual is undone, and refinement
        stops there: against a nearly singular k_true it can diverge.  A
        step whose refinement misses the tolerance is returned as refined.
        """
        tol = rtol * (1.0 + float(np.max(np.abs(vec), initial=0.0)))
        step = self.shifted_solve(vec if rhs0 is None else rhs0)
        err = vec - self.matvec(step)
        for _ in range(3):
            size = float(np.max(np.abs(err), initial=0.0))
            if size <= tol:
                break
            refined = step + self.shifted_solve(err)
            err = vec - self.matvec(refined)
            if not float(np.max(np.abs(err), initial=0.0)) < size:
                break
            step = refined
        return step


@kkt_pattern_scope()
def solve_qp(p: QpProblem, settings: SolverSettings | None = None,
             start: Solution | None = None) -> Solution:
    """Solve the concave QP to the requested tolerances.

    Returns a Solution with status "optimal", "infeasible" or
    "iteration_limit".  Deterministic: identical inputs produce identical
    iterates.  Infeasibility is certified, and its conflict named, by
    elastic LPs solved with this module's own interior point (one, or
    three when the floor is not what fails) rather than inferred from
    divergence alone; a stalled primal residual runs that diagnosis
    early, once, and ends the solve if it says infeasible; otherwise its
    verdict settles a later failure too.  Data that is not finite, a NaN
    bound included, is answered "iteration_limit" before presolve, with
    no iteration and the message "problem data is not finite"; so is a
    coefficient too large for the polish's KKT system (_refusal), with
    the message "problem coefficients overflow the KKT system".

    `start`, optional, is an optimal Solution of a problem of p's size,
    such as a neighbour with one right-hand side moved.  Its active set is
    polished on p first and, if that point meets the tolerances, returned
    with iterations == 0; otherwise the solve runs exactly as without a
    start (active-set warm start: Nocedal & Wright 2006, ch. 16).

    Every KKT system of the solve shares one pattern (kkt_pattern_scope).
    """
    s = settings if settings is not None else SolverSettings()
    if refused := _refusal(p):
        return _empty_solution(p, ITERATION_LIMIT, message=refused)
    try:
        pre = _presolve(p)
    except _InfeasibleProblem as exc:
        return _empty_solution(p, INFEASIBLE, message=f"infeasible: {exc}")
    if start is not None:
        d = start.ineq_duals
        sizes = (start.x.shape, start.eq_duals.shape, d.lower.shape, d.upper.shape,
                 d.coupling.shape)
        if start.status == OPTIMAL and sizes == ((p.n,), (p.m_eq,), (p.n,), (p.n,), (2,)):
            x, y, z = _presolved_point(pre, start)
            # a row that start's point violates in p has a negative slack,
            # which predicts it active
            sol = _verified(p, pre, s, (x, y, z), pre.h - pre.g @ x, converged=False)
            if sol is not None:
                return sol  # iterations == 0: answered by the start's active set

    point, w, iterations, converged, message, diagnosis = _interior_point(p, pre, s)
    if point is not None:
        sol = _verified(p, pre, s, point, w, converged)
        if sol is not None:
            return replace(sol, iterations=iterations)
    # no answer: the diagnosis tells "infeasible", with the conflict it
    # names, from "iteration_limit", with why the iteration stopped.  The
    # stall's diagnosis, whatever its verdict, is not made twice
    verdict, conflict = diagnosis or _diagnose(p)
    if verdict == INFEASIBLE:
        return _empty_solution(p, INFEASIBLE, conflict, iterations)
    return _empty_solution(p, ITERATION_LIMIT, message or "tolerances not reached", iterations)


def _interior_point(p: QpProblem, pre: _Presolved, s: SolverSettings, diagnose: bool = True):
    """The interior-point iteration of solve_qp, from the least-squares start.

    Returns its run, (point, w, iterations, converged, message, diagnosis):
    the final iterate (x, y, z) to verify, whether or not the stopping
    test passed, or None when there is none (the start's factor failed,
    the stall diagnosis found the problem infeasible, or the iterates lost
    finiteness); its own slacks w of the inequality block, which predict
    its active set; whether the stopping test passed; why the iteration
    stopped; and the stall's _diagnose answer, whatever its verdict, or
    None when no stall was diagnosed.  With `diagnose` False, an elastic
    LP's run (linprog), a stall ends the run with no point, undiagnosed.
    With no inequality row, every variable pinned or free, the run is the
    zero point with nothing active, whose polish is the one
    equality-constrained solve.  Every array of the iteration, the KKT
    matrix's values and its factor among them, is freed on return, before
    the polish makes its own factor (the solve's kkt_pattern_scope keeps
    the pattern, which the polish refills): with nothing the iteration
    made late left alive, the allocator can hand the memory back before
    the polish (at T=8760 the peak resident size fell from about 315 to
    240 MB).
    """
    n = len(pre.q)
    q, c = pre.q, pre.c
    a, b = pre.a_ext, pre.b_ext
    g, h = pre.g, pre.h
    m, m_comp, n_b = a.shape[0], g.shape[0], pre.n_b  # bound rows lead g
    if m_comp == 0:
        return ((np.zeros(n), np.zeros(m), np.zeros(0)), np.zeros(0), 0, False,
                "equality-constrained solve failed", None)

    # the bound rows of the inequality block fold into the primal diagonal
    # D1 of the KKT matrix, and the band factor eliminates every
    # variable; its coupling rows stay bordered next to A
    bound_var = np.concatenate([pre.lo_idx, pre.up_idx])  # variable of each bound row
    n_bound = np.bincount(bound_var, minlength=n)  # bound rows per variable
    a_t, g_t, gb_t = a.T, g.T, g[:n_b].T.tocsr()
    ratio = np.empty(m_comp)  # _max_step's scratch
    # the KKT diagonal (its equality rows stay 0) and each direction's
    # right-hand side, rewritten in place
    diag, rhs = np.zeros(n + m + m_comp - n_b), np.empty(n + m + m_comp - n_b)

    # Data near the float limit (a load of 1e308, tg.b of 1e150, ess.eta_d
    # of 1e-300) overflows the start, the residuals, a direction or a step;
    # the iterate then loses finiteness, which the loop tests for.  The
    # iterate's arithmetic alone is guarded: the stall diagnosis and the
    # polish still warn.
    # start (module docstring): the KKT matrix with every w / z at 1 gives
    # least-squares primal and dual points, each shifted into w, z > 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # the ordering, not only the factor, can run out of memory
            kkt = _Kkt(pre, _KKT_REG)
            kkt.set_diagonal(np.concatenate([q + n_bound, np.zeros(m), -np.ones(m_comp - n_b)]))
            kkt.factor()
            # a copy: as a view, x would keep the whole solution alive through
            # the iteration, above memory the allocator could otherwise hand
            # back before the polish (T=8760 then peaked at 191 MB, not 178)
            x = kkt.solve(np.concatenate([gb_t @ h[:n_b], b, h[n_b:]]), _KKT_RTOL)[:n].copy()
            dual = kkt.solve(np.concatenate([-c, np.zeros(m + m_comp - n_b)]), _KKT_RTOL)
        except _FACTOR_ERRORS:
            return None, None, 0, False, "KKT factorization failed", None
        y = -dual[n : n + m]
        w, z = h - g @ x, np.concatenate([gb_t.T @ dual[:n], dual[n + m :]])
        for v in (w, z):
            shift = float(np.max(-v, initial=-1.0))
            if shift >= 0.0:
                v += 1.0 + shift

        # complementarity sums are np.sum(w * z), not w @ z: a 1-D product of
        # more than about 10,000 elements goes to the BLAS ddot, which in
        # OpenBLAS spins up a second thread and doubles the CPU time of a
        # T=672 solve without saving wall time
        mu0 = float(np.sum(w * z)) / m_comp
    primal_hist: list[float] = []
    diagnosis = None

    converged, message = False, ""
    it = 0
    for it in range(1, s.max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            qx, wz = q * x, w * z  # each used twice below
            rd = qx + c - a_t @ y + g_t @ z
            rp_eq = a @ x - b
            rp_in = g @ x + w - h
            gap = float(np.sum(wz))
            mu = gap / m_comp
            obj_min = float(0.5 * qx @ x + c @ x)

        primal_inf = max(
            float(np.max(np.abs(rp_eq), initial=0.0)),
            float(np.max(np.abs(rp_in), initial=0.0)),
        )
        dual_inf = float(np.max(np.abs(rd), initial=0.0))
        x_max = float(np.max(np.abs(x), initial=0.0))  # NaN or inf unless x is finite
        if not np.isfinite(mu) or not np.isfinite(x_max):
            break  # iterates lost finiteness (below)
        if _meets_tolerances(pre, s, Residuals(primal_inf, dual_inf, gap), obj_min):
            converged = True
            break
        if mu > 1e10 * (1.0 + mu0) or x_max > 1e13:
            message = "diverging iterates"
            break
        if not mu > 0.0:
            # every slack-multiplier product underflowed: no centering
            # target is left (seen on infeasible problems only)
            message = "complementarity collapsed to zero"
            break
        primal_hist.append(primal_inf)
        if (
            diagnosis is None
            and len(primal_hist) > _STALL_WINDOW
            and primal_inf > s.tol * pre.scale_p
            and primal_inf >= _STALL_RATIO * primal_hist[-1 - _STALL_WINDOW]
        ):
            # an elastic LP's run (linprog) is not diagnosed: its stall ends it
            if not diagnose or (diagnosis := _diagnose(p))[0] == INFEASIBLE:
                return None, None, it, False, "", diagnosis

        # clamp denominators: an underflowed slack or coupling multiplier
        # must read as a huge but finite diagonal entry, not an inf that
        # poisons the factorization
        w_b = np.maximum(w[:n_b], 1e-280)
        z_c = np.maximum(z[n_b:], 1e-280)
        np.add(q, np.bincount(bound_var, z[:n_b] / w_b, minlength=n), out=diag[:n])
        np.negative(np.divide(w[n_b:], z_c, out=diag[n + m :]), out=diag[n + m :])
        kkt.set_diagonal(diag)

        # loose while mu is large (see _KKT_RTOL); the predictor's always is
        corrector_rtol = _KKT_RTOL if mu < _TIGHT_MU * mu0 else _LOOSE_RTOL
        # what every direction's right-hand side shares; its equality rows are -rp_eq
        neg_rd, neg_rp_c, zrp_b = -rd, -rp_in[n_b:], z[:n_b] * rp_in[:n_b]
        np.negative(rp_eq, out=rhs[n : n + m])

        def solve_direction(rc, rtol):
            # Newton direction whose linearized complementarity change
            # z*dw + w*dz equals rc, refined to rtol
            np.subtract(neg_rd, gb_t @ ((rc[:n_b] + zrp_b) / w_b), out=rhs[:n])
            np.subtract(neg_rp_c, rc[n_b:] / z_c, out=rhs[n + m :])
            step = kkt.solve(rhs, rtol)
            dx = step[:n]
            dw = -(g @ dx) - rp_in
            dz = np.concatenate([(rc[:n_b] - z[:n_b] * dw[:n_b]) / w_b, step[n + m :]])
            return dx, -step[n : n + m], dz, dw

        def newton_step():
            # Mehrotra predictor-corrector, with a centered fallback
            aff = solve_direction(-wz, _LOOSE_RTOL)
            ap = min(1.0, _max_step(w, aff[3], ratio))
            ad = min(1.0, _max_step(z, aff[2], ratio))
            mu_aff = float(np.sum((w + ap * aff[3]) * (z + ad * aff[2]))) / m_comp
            # capping the ratio at 1 before cubing gives the same sigma without
            # overflowing when mu has collapsed on an infeasible problem
            sigma = float(np.clip(min(max(mu_aff, 0.0) / mu, 1.0) ** 3, 1e-8, 0.9999))

            tau = 0.9995 if gap <= 1e-3 * (1.0 + abs(obj_min)) else 0.995

            def clipped_step(direction):
                _, _, dz_, dw_ = direction
                a_p = min(1.0, tau * _max_step(w, dw_, ratio))
                a_d = min(1.0, tau * _max_step(z, dz_, ratio))
                return a_p, a_d, float(np.sum((w + a_p * dw_) * (z + a_d * dz_))) / m_comp

            combined = solve_direction(sigma * mu - wz - aff[3] * aff[2], corrector_rtol)
            ap, ad, mu_next = clipped_step(combined)
            direction = combined
            if not (mu_next <= 0.95 * mu) or min(ap, ad) < 1e-10:
                # second-order correction overshoots near a degenerate face;
                # retry with a strongly centered first-order direction
                centered = solve_direction(max(sigma, 0.5) * mu - wz, corrector_rtol)
                ap2, ad2, mu_next2 = clipped_step(centered)
                if mu_next2 < mu_next:
                    direction, ap, ad, mu_next = centered, ap2, ad2, mu_next2
            return direction, ap, ad

        with np.errstate(over="ignore", invalid="ignore"):
            try:  # a solve, not only the factor, can run out of memory
                kkt.factor()  # the last factor is freed before the next is made
                direction, ap, ad = newton_step()
            except _FACTOR_ERRORS:
                message = "KKT factorization failed"
                break
            dx, dy, dz, dw = direction
            x += ap * dx
            w += ap * dw
            y += ad * dy
            z += ad * dz

    # the loop's finiteness test, repeated for the last step, which an
    # iteration cap leaves untested: a non-finite iterate has no polish
    with np.errstate(over="ignore", invalid="ignore"):
        gap = float(np.sum(w * z))
    if not np.isfinite(gap) or not np.isfinite(np.max(np.abs(x), initial=0.0)):
        return None, None, it, False, "iterates lost finiteness", diagnosis
    return (x, y, z), w, it, converged, message, diagnosis


def _verified(p: QpProblem, pre: _Presolved, s: SolverSettings, point, w,
              converged: bool) -> Solution | None:
    """The gate every answer of solve_qp passes after presolve.

    `point` is an iterate (x, y, z), the interior point's final one or a
    start's, and `w` its own slacks of the inequality block, used to
    predict its active set.  The polish runs once on that set; if its
    point fails the tolerances, or it gives none, and the interior-point
    method converged, the iterate itself is the candidate.  Returns the
    candidate only if it meets the tolerances, else None.
    """
    sol = _polish(p, pre, _active(pre, point[0], point[2], w), point)
    if sol is not None and _meets_tolerances(pre, s, sol.residuals, sol.objective):
        return sol
    if not converged:
        return None
    # the polished point is off (e.g. a free variable left its box), or
    # there is none (its factor or solve raised, or its release rounds did
    # not settle): the converged iterate answers
    sol = _finalize(p, pre, *point)
    return sol if _meets_tolerances(pre, s, sol.residuals, sol.objective) else None


def _active(pre: _Presolved, x: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of the inequality block predicted active at multipliers z, slacks w."""
    scale_x = 1.0 + float(np.max(np.abs(x), initial=0.0))
    return z / pre.scale_d > w / scale_x


def _presolved_point(pre: _Presolved, sol: Solution):
    """sol's (x, y, z) in pre's coordinates, from its named fields."""
    d = sol.ineq_duals
    lower, upper = d.lower[pre.unpinned], d.upper[pre.unpinned]
    z = np.concatenate([lower[pre.lo_idx], upper[pre.up_idx], d.coupling[pre.keep_rows]])
    return sol.x[pre.unpinned], -sol.eq_duals, z


def _meets_tolerances(pre: _Presolved, s: SolverSettings, r: Residuals,
                      objective: float) -> bool:
    """The one stopping test: the interior point's iterate and the gate's answer pass it.

    Each residual is compared with s.tol times its scale: pre.scale_p for
    the primal residual, pre.scale_d for the dual one and 1 + |objective|
    for the gap.  A NaN residual fails its comparison.
    """
    return (
        r.primal_inf <= s.tol * pre.scale_p
        and r.dual_inf <= s.tol * pre.scale_d
        and r.comp_gap <= s.tol * (1.0 + abs(objective))
    )


def _polish(p: QpProblem, pre: _Presolved, act, hint) -> Solution | None:
    """Quasi-definite solve on the predicted active set, unverified.

    `act` marks the active rows of the inequality block and `hint` is an
    interior-point iterate (x, y, z).  An active bound row fixes its
    variable at the bound and reads its multiplier off that column of
    stationarity, so the system solves for the free variables alone, the
    rows of a_ext and the active coupling rows (bounds in reduced space:
    Nocedal & Wright 2006, ch. 16).  The regularized system is biased toward the hint
    so that on a degenerate optimal face the solve selects a sign-feasible
    multiplier set instead of the minimal-norm one.  The rounds then
    cross over: an inactive row that the point violates by more than
    1e-9 * scale_p is made active, and only when none is, an active row
    with a negative multiplier is released, and the system is re-solved.
    A variable marked active at both of its bounds keeps only the side
    with the larger hint multiplier.  Returns the KKT point for the caller
    to verify, once a round has nothing to fix and nothing to release, or
    None when the factorization raises or 8 rounds leave something.

    Each round's system is the interior point's _Kkt, on its pattern,
    with B whole but for its entries in the fixed columns and the
    inactive coupling rows, which are 0, and the diagonal q on a free
    column and 1 on a fixed one, 0 on an equality row and an active
    coupling row and -1 on an inactive one.  A fixed column's step and
    an inactive row's multiplier are then their right-hand sides, 0, and
    each fixed value sits on the right-hand side of the rows it enters.
    """
    a, g = pre.a_ext, pre.g
    (m, n), n_b = a.shape, pre.n_b
    act = np.array(act, dtype=bool, copy=True)
    dual_tol = 1e-7 * pre.scale_d
    x_hint, y_hint, z_hint = hint
    # a variable predicted active at both bounds keeps the side with the
    # larger hint multiplier: fixing both would put it at lb_j + ub_j
    lo_row, up_row = pre.both
    both = act[lo_row] & act[up_row]
    lower_wins = z_hint[lo_row] >= z_hint[up_row]
    act[up_row[both & lower_wins]] = False
    act[lo_row[both & ~lower_wins]] = False

    seen = set()  # the active sets solved: a repeated one would cycle
    for _ in range(8):
        if act.tobytes() in seen:
            return None
        seen.add(act.tobytes())
        fixed = np.nonzero(act[:n_b])[0]
        on = act[n_b:]
        # bound row i is sign_i e_j' x <= h_i, so its variable sits at
        # sign_i h_i, added to 0.0 as a sparse product adds it (no -0.0)
        var, sign = g.indices[fixed], g.data[fixed]
        x = np.zeros(n)
        x[var] = 0.0 + sign * pre.h[fixed]
        free = np.ones(n, dtype=bool)
        free[var] = False
        # the fixed columns move to the right-hand side
        true_target = np.concatenate([np.where(free, -pre.c, 0.0), pre.b_ext - a @ x,
                                      np.where(on, pre.h[n_b:] - (g @ x)[n_b:], 0.0)])
        # stationarity convention: equality rows contribute -y and active
        # coupling rows +z, so the pull toward the hint multiplier is (y, -z)
        pull = np.concatenate([np.where(free, x_hint, 0.0), y_hint,
                               np.where(on, -z_hint[n_b:], 0.0)])
        biased = true_target + _POLISH_EPS * pull
        try:  # a solve, not only the factor, can run out of memory
            kkt = _Kkt(pre, _POLISH_EPS, free, on)
            kkt.set_diagonal(np.concatenate([np.where(free, pre.q, 1.0), np.zeros(m),
                                             np.where(on, 0.0, -1.0)]))
            kkt.factor()
            # the bias leaves about _POLISH_EPS * |solution - hint| in the
            # first solve; a hint from a neighbouring problem (a warm start)
            # left 1e-11 in the equality rows of a week, which a relative
            # 1e-12 accepted
            step = kkt.solve(true_target, 1e-14, biased)
        except _FACTOR_ERRORS:
            return None
        x[free] = step[:n][free]
        y = -step[n : n + m]
        z = np.zeros(len(act))
        z[n_b:][on] = step[n + m :][on]
        # g' z sums only the coupling rows: z is still zero on the bound rows
        z[fixed] = 0.0 + sign * (a.T @ y - g.T @ z - pre.q * x - pre.c)[var]

        # fix the inactive rows the point violates first; only a point
        # that violates none releases its negative multipliers
        violated = ~act & (g @ x - pre.h > 1e-9 * pre.scale_p)
        bad = act & (z < -dual_tol)
        if violated.any():
            act[violated] = True
        elif bad.any():
            act[bad] = False
        else:
            return _finalize(p, pre, x, y, z)

    return None


# ---------------------------------------------------------------------------
# Infeasibility diagnosis


# the diagnosis's message when no verdict is read
_UNDECIDED = "feasibility could not be decided"


def _refusal(p: QpProblem) -> str | None:
    """Why p's data is not solved, or None when it is.

    Data that is not finite is refused: every coefficient and right-hand
    side must be, and no bound may be NaN.  A bound may be infinite, and
    one of _INF or more in magnitude reads so (_presolve); a NaN one would
    read as no bound at all.  So is a coefficient of a_eq or coup whose
    square over _POLISH_EPS overflows: the polish's KKT system weighs each
    product of two coefficients in one column by up to 1 / _POLISH_EPS.
    """
    arrays = (p.h_diag, p.f, p.a_eq.data, p.b_eq, p.coup.data, p.coup_rhs)
    if not all(np.isfinite(v).all() for v in arrays) or np.isnan([p.lb, p.ub]).any():
        return "problem data is not finite"
    big = float(max(np.max(np.abs(a.data), initial=0.0) for a in (p.a_eq, p.coup)))
    if big * big / _POLISH_EPS == np.inf:  # a Python float overflows to inf silently
        return "problem coefficients overflow the KKT system"
    return None


def _elastic(p: QpProblem, keep: tuple[int, ...], relax: int | None) -> QpProblem:
    """p's elastic LP: p's rows, its coupling rows in `keep` alone, plus columns t >= 0.

    The LP minimizes the sum of the t columns, so p's own objective is
    dropped.  relax=k appends one column to coupling row k, which then
    reads coup[k] x - t <= coup_rhs[k]; relax=None appends a + and a -
    column to every equality row, which then reads a_eq x + t+ - t- = b_eq.
    A dropped coupling row is empty with right-hand side 0, which presolve
    drops.  Every such LP has a point once its kept rows that hold no t
    have one (Chinneck, Feasibility and Infeasibility in Optimization,
    2008).
    """
    n, m, k = p.n, p.m_eq, p.coup.shape[0]
    a, coup = p.a_eq.tocoo(), p.coup.tocoo()
    kept = np.isin(coup.row, keep)
    a_parts = [(a.row, a.col, a.data)]
    c_parts = [(coup.row[kept], coup.col[kept], coup.data[kept])]
    if relax is None:
        n_t, rows = 2 * m, np.arange(m)
        a_parts += [(rows, n + rows, np.ones(m)), (rows, n + m + rows, -np.ones(m))]
    else:
        n_t = 1
        c_parts.append(([relax], [n], [-1.0]))

    def stacked(parts, rows):
        r, c, v = (np.concatenate(part) for part in zip(*parts))
        return sp.csr_matrix((v, (r, c)), shape=(rows, n + n_t))

    return replace(p, h_diag=np.zeros(n + n_t), f=np.repeat([0.0, -1.0], [n, n_t]),
                   a_eq=stacked(a_parts, m), lb=np.append(p.lb, np.zeros(n_t)),
                   ub=np.append(p.ub, np.full(n_t, np.inf)), coup=stacked(c_parts, k),
                   coup_rhs=np.where(np.isin(np.arange(k), keep), p.coup_rhs, 0.0))


def linprog(p: QpProblem) -> float | None:
    """The least elastic sum of the elastic LP p (_elastic), by solve_qp's own method.

    The LP is presolved, run by the interior point and let out by the
    gate (_verified) at the default settings, in a KKT pattern scope of
    its own, so the one an enclosing solve holds is kept.  A stall ends
    the run undiagnosed: the LP does not diagnose itself.  Returns the
    sum of the t columns at the gate's answer; inf, the least sum over
    no point, when presolve finds that the boxes and the rows without a
    t column have none; and None when the gate lets no point out.
    """
    s, token = SolverSettings(), _PATTERN.set([])
    try:
        pre = _presolve(p)
        point, w, _, converged, _, _ = _interior_point(p, pre, s, diagnose=False)
        sol = None if point is None else _verified(p, pre, s, point, w, converged)
    except _InfeasibleProblem:
        return np.inf
    finally:
        _PATTERN.reset(token)
    return None if sol is None else -sol.objective


def _diagnose(p: QpProblem) -> tuple[str, str]:
    """The elastic LPs' verdict on p, "feasible", INFEASIBLE or "unknown", and its message.

    An LP is optimal when linprog returns a finite least sum, and each
    has a point by construction once its rows without a t column have
    one (_elastic), so a verdict is read off gate-verified optima.  The
    floor's shortfall with the quota hard, if optimal: none means p is
    feasible, and a positive one that the floor alone conflicts.
    Otherwise the quota's shortfall with the floor dropped: if it is
    positive, the floor's shortfall with the quota dropped names the
    quota (none) or the two jointly (positive), or, if not optimal,
    leaves the conflict unnamed.  If the quota's LP is not optimal
    either, a positive least sum of elastic columns on every equality
    row, both coupling rows dropped, names the balances and boxes (an
    infinite one, an empty box).  Any other outcome leaves the verdict
    undecided.  A shortfall is none at most the solver tolerance times 1
    + p's largest |right-hand side|.  One LP settles a feasible problem
    and names a floor conflict, and three any other.  p's data must not
    be refused (_refusal).
    """
    tol = SolverSettings().tol * (1.0 + float(np.max(np.abs(np.append(p.b_eq, p.coup_rhs)))))

    def short(keep, relax):
        """Whether the elastic LP's least sum is positive; None when it has no optimum."""
        t = linprog(_elastic(p, keep, relax))
        return None if t is None or t == np.inf else bool(t > tol)

    floor = short((0, 1), 0)  # the quota hard
    if floor is not None:
        return ((INFEASIBLE, "infeasible: REC retirement floor conflicts with certificate supply "
                 "and caps") if floor else ("feasible", "problem is feasible"))
    quota = short((1,), 1)  # the floor dropped
    if quota:  # the floor's shortfall with the quota dropped names the conflict
        return INFEASIBLE, "infeasible: " + {
            None: "the conflicting requirement could not be named",
            False: "CER quota ceiling conflicts with emission needs and caps",
            True: "retirement floor and quota ceiling jointly conflict"}[short((0,), 0)]
    if quota is None and (linprog(_elastic(p, (), None)) or 0.0) > tol:
        return INFEASIBLE, "infeasible: balance equations conflict with variable bounds"
    return "unknown", _UNDECIDED


def diagnose_infeasibility(p: QpProblem) -> str:
    """Name the requirement that makes an infeasible problem so.

    "problem is feasible", "feasibility could not be decided", or
    "infeasible: ..." naming the REC retirement floor, the CER quota
    ceiling, the two jointly, or the balance equations against the
    variable bounds.  It is the message an infeasible solve_qp carries
    when the interior point finds the conflict.  When presolve finds it
    first, solve_qp names what presolve saw instead: an empty bound
    interval (diagnosed here as the balances against the bounds), a
    coupling row below its box minimum (diagnosed as its requirement) or
    conflicting pins.  One elastic LP decides it, or three name a
    conflict other than the floor's (_diagnose), each solved by
    solve_qp's own interior point.
    Data that solve_qp refuses (_refusal) is not diagnosed.
    """
    return _UNDECIDED if _refusal(p) else _diagnose(p)[1]

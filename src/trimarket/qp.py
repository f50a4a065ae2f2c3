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

Internally, after presolve, every inequality sits in one block
g x + w = h with one slack vector w >= 0 and one multiplier vector z >= 0
(the textbook form of Wright, Primal-Dual Interior-Point Methods, 1997):
the finite lower bounds as rows -x_j <= -lb_j, then the finite upper
bounds, then the coupling rows.  The iteration, the polish and the map
back to (zl, zu, zc) all work on that one block.

Each interior-point iteration solves one KKT system: the bound rows of the
block fold into its primal diagonal (barrier terms plus one fixed
regularizing shift), and the equality and coupling rows border it.  Every
variable with a bound row has a positive diagonal there, so its column is
eliminated exactly, and what gets factored is the reduced augmented system
in the equality and coupling rows plus the columns without a bound row
(Wright 1997, ch. 11; Vanderbei, Symmetric quasi-definite matrices, SIAM
J. Optim. 1995).  The pinned and free columns stay: their diagonal is
little more than the shift.  Each hourly row couples only its own hour and
the next (storage and inventories carry over), so all of the system but
the 0-2 coupling rows is a narrow band once put in a reverse Cuthill-McKee
order (Cuthill & McKee 1969), computed once per solve from the fixed
pattern.  The band takes LAPACK's banded LU (partial pivoting within the
band) and the coupling rows, the border, their Schur complement.  Each
solve recovers the eliminated variables and is refined against the full
unregularized matrix; when the factorization fails, or the refinement
cannot reach its tolerance with a finite step, the iteration factors the
full system, nothing eliminated, as a band plus the same border and redoes
the direction.  The polish factors its system the same way, bordered by
its active coupling rows, and refines its solve with the same routine.

The iteration starts from least-squares points (Mehrotra, On the
implementation of a primal-dual interior point method, SIAM J. Optim.
1992; Vandenberghe, The CVXOPT linear and quadratic cone program solvers,
2010).  The KKT matrix with every w / z at 1 is factored once, by the
same band-or-fallback path as an iteration.  With Q the Hessian and c
the linear term of the minimization, one solve gives the x minimizing
x'Q x / 2 + |w|^2 / 2 subject to the equalities and g x + w = h; the
other gives the y and z minimizing u'Q u / 2 + |z|^2 / 2 subject to
stationarity, Q u + c - a'y + g'z = 0, at some u.  Each of w and z is
then shifted by 1 plus its most negative entry, if it has one.  A
factor error there ends the solve as one in an iteration does.

The interior-point iteration is followed by an active-set "polish": once the
active set is identified, each active bound fixes its variable, and one
sparse quasi-definite solve in the free variables plus iterative refinement
produces primal/dual values accurate to near machine precision, which
downstream sensitivity checks rely on.  Every solve that gets past presolve
and is not answered by its start (below) leaves through one finisher: it
polishes the last iterate (or, when the iteration stopped short, the best
one), falls back to the iterate itself, if it converged, whenever the
polished point fails, and returns "optimal" only when the candidate passes
kkt_residuals at the solver tolerances, the one test every optimal answer
passes.  Anything else is settled by an LP feasibility probe as
"infeasible" or "iteration_limit".

A solve may be given the optimal solution of a neighbouring problem as a
start.  Its active set, predicted by the finisher's rule, is polished on
the new problem first, and the point is returned only if it passes the
same test; otherwise the solve runs as it would without a start.  Inside
one active set the solution is affine in the right-hand side, so a small
move of a quota or a floor usually keeps the set (Bemporad, Morari, Dua &
Pistikopoulos 2002, The explicit linear quadratic regulator for
constrained systems).

On an infeasible problem the primal residual stops falling after a few
iterations while mu grows without bound or collapses to zero.  The first
time the residual has stalled (still above tolerance and less than 10%
below its value five iterations earlier) the same probe runs once, early;
if it finds the problem infeasible the solve ends there with the usual
diagnosis, and otherwise the iteration goes on unchanged, so the probe
never alters a feasible answer (detect, then certify: Banjac et al. 2019,
Infeasibility detection in the ADMM for convex optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs
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
    complementarity gap alike, each relative to the problem scale that
    the stopping test applies to it.
    """

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class IneqDuals:
    """Nonnegative multipliers per inequality side.

    lower[j] prices x_j >= lb_j, upper[j] prices x_j <= ub_j (zero where the
    bound is infinite), coupling[k] prices coupling row k in the order of
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
    tolerances, each scaled by the problem data as the interior-point
    stopping test scales it; every return path checks this.  On
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
    n = p.n
    return Solution(
        status=status,
        x=np.zeros(n),
        objective=float("nan"),
        eq_duals=np.zeros(p.m_eq),
        ineq_duals=IneqDuals(np.zeros(n), np.zeros(n), np.zeros(2)),
        iterations=iterations,
        residuals=None,
        message=message,
    )


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


def _selector(idx: np.ndarray, n: int) -> sp.csr_matrix:
    """Rows of the n x n identity picked by idx: one row per variable."""
    return sp.csr_matrix((np.ones(len(idx)), (np.arange(len(idx)), idx)), shape=(len(idx), n))


@dataclass
class _Presolved:
    """Minimization-form data after pinning fixed variables.

    Variables with lb == ub, and variables forced to a bound by a coupling
    row whose right-hand side equals the row's minimum over the box, are
    re-expressed as appended equality rows so the barrier only ever sees
    strictly widenable intervals.  Every remaining inequality sits in one
    block g x <= h, read by the solver as g x + w = h with one slack w >= 0
    and one multiplier z >= 0 per row: first -x_j <= -lb_j for each
    variable in lo_idx, then x_j <= ub_j for each in up_idx, then the kept
    coupling rows.
    """

    q: np.ndarray              # diagonal of the (PSD) minimization Hessian
    c: np.ndarray
    a_ext: sp.csr_matrix       # original equalities + one row per pinned var
    b_ext: np.ndarray
    m_orig: int
    pin_idx: np.ndarray        # pinned variable indices, aligned with rows m_orig..
    lo_idx: np.ndarray         # unpinned variables with finite lower bound
    up_idx: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    g: sp.csr_matrix           # inequality block: lower bounds, upper bounds, coupling
    h: np.ndarray
    coup_rhs: np.ndarray       # right-hand sides of the kept coupling rows
    keep_rows: list[int]
    dropped_rows: list[int]    # coupling rows absorbed into pins


def _presolve(p: QpProblem) -> _Presolved:
    n = p.n
    lb, ub = p.lb.copy(), p.ub.copy()
    with np.errstate(invalid="ignore"):  # inf - inf when lb = +inf and ub = -inf
        bad = (lb == np.inf) | (ub == -np.inf) | (lb > ub + 1e-12 * (1.0 + np.abs(lb)))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise _InfeasibleProblem(f"empty bound interval on variable {j}: [{lb[j]}, {ub[j]}]")

    pinned = np.isfinite(lb) & (lb == ub)
    pin = np.where(pinned, lb, 0.0)

    keep_rows, dropped_rows = [], []
    coup = p.coup.tocsr()
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
            clash = pinned[cols] & (pin[cols] != bnd)
            if np.any(clash):
                raise _InfeasibleProblem(f"conflicting pins on variable {cols[np.argmax(clash)]}")
            pinned[cols] = True
            pin[cols] = bnd
            dropped_rows.append(k)
        else:
            keep_rows.append(k)

    pin_idx = np.nonzero(pinned)[0]
    pin_val = pin[pin_idx]
    lb[pin_idx], ub[pin_idx] = -np.inf, np.inf  # pinned vars leave the box constraints entirely
    lo_idx = np.nonzero(np.isfinite(lb))[0]
    up_idx = np.nonzero(np.isfinite(ub))[0]

    return _Presolved(
        q=-p.h_diag,
        c=-p.f,
        a_ext=sp.vstack([p.a_eq, _selector(pin_idx, n)]).tocsr(),
        b_ext=np.concatenate([p.b_eq, pin_val]),
        m_orig=p.m_eq,
        pin_idx=pin_idx,
        lo_idx=lo_idx,
        up_idx=up_idx,
        lb=lb,
        ub=ub,
        g=sp.vstack([-_selector(lo_idx, n), _selector(up_idx, n), coup[keep_rows, :]]).tocsr(),
        h=np.concatenate([-lb[lo_idx], ub[up_idx], p.coup_rhs[keep_rows]]),
        coup_rhs=p.coup_rhs[keep_rows],
        keep_rows=keep_rows,
        dropped_rows=dropped_rows,
    )


def _finalize(p: QpProblem, pre: _Presolved, x, y_ext, z) -> Solution:
    """Map presolved-space duals back to the original constraint families.

    y_ext holds one dual per row of a_ext and z one multiplier per row of
    the inequality block g.
    """
    n_l = len(pre.lo_idx)
    n_b = n_l + len(pre.up_idx)
    z = np.maximum(z, 0.0)
    zl = np.zeros(p.n)
    zu = np.zeros(p.n)
    coupling = np.zeros(2)
    zl[pre.lo_idx] = z[:n_l]
    zu[pre.up_idx] = z[n_l:n_b]
    coupling[pre.keep_rows] = z[n_b:]

    # zl - zu of each pinned variable, first from its pin row's dual alone
    w = np.zeros(p.n)
    w[pre.pin_idx] = y_ext[pre.m_orig:]
    coup = p.coup.tocsr()
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

    lam = -y_ext[: pre.m_orig]
    sol = Solution(
        status=OPTIMAL,
        x=x.copy(),
        objective=p.objective(x),
        eq_duals=lam,
        ineq_duals=IneqDuals(lower=zl, upper=zu, coupling=coupling),
    )
    return replace(sol, residuals=kkt_residuals(p, sol))


# ---------------------------------------------------------------------------
# Mehrotra predictor-corrector


def _max_step(v: np.ndarray, dv: np.ndarray, ratio: np.ndarray) -> float:
    """Largest step a with v + a dv >= 0, inf if none binds; `ratio` is scratch.

    min(-v_i / dv_i) over dv_i < 0 is taken as -max(v_i / dv_i), which is
    the same number: negation is exact.
    """
    ratio.fill(-np.inf)
    # a tiny direction entry overflows to an infinite, harmless, step bound
    with np.errstate(over="ignore"):
        np.divide(v, dv, out=ratio, where=dv < 0)
    return -float(np.max(ratio))


# static diagonal shifts: the interior-point KKT matrix is factored with
# +_KKT_REG on its primal diagonal and -_KKT_REG on its dual diagonal, one
# fixed shift per iteration, which keeps curvature-free directions solvable
# and makes the matrix quasi-definite, so the reduced system, its band and
# the border's Schur complement are all nonsingular; the polish uses
# _POLISH_EPS both for its quasi-definite system and for its pull toward
# the hint iterate.  Refinement against the unshifted matrix removes the
# shift's error from every solve.
_KKT_REG = 1e-9
_POLISH_EPS = 1e-10

# stall exit (module docstring): the primal residual has stalled when it is
# above tolerance and at least _STALL_RATIO of its value _STALL_WINDOW
# iterations earlier
_STALL_WINDOW = 5
_STALL_RATIO = 0.9

# what a factorization raises when it fails: the band LU and the border's
# Schur complement raise RuntimeError for an exactly zero pivot, and
# MemoryError when a store or an ordering does not fit
_FACTOR_ERRORS = (RuntimeError, MemoryError)


def _layout(k: sp.spmatrix, n_c: int):
    """Band-plus-border layout of a square matrix with a symmetric pattern.

    The border is k's last n_c rows and columns, chosen by role (the
    coupling rows), never by density: one sparse coupling row left in the
    core widened a polish's band from 7 to 48-120.  The core goes in a
    reverse Cuthill-McKee order of its own pattern.  Returns (order, bw,
    n_c), the store's size and the store position of each entry of
    k.tocoo(), duplicates included: LAPACK band storage of the core, entry
    (i, j) at [2 bw + i - j, j] of a column-major (3 bw + 1) x core array
    (its top bw rows hold the pivoting's fill), then, column-major, the
    last n_c columns and the last n_c rows' core part.
    """
    k = k.tocoo()
    nr, core = k.shape[0], k.shape[0] - n_c
    in_core = (k.row < core) & (k.col < core)
    pattern = sp.csr_matrix((np.ones(int(in_core.sum())), (k.row[in_core], k.col[in_core])),
                            shape=(core, core))
    order = np.concatenate([reverse_cuthill_mckee(pattern, symmetric_mode=True),
                            np.arange(core, nr)])  # k's row at each position
    where = np.empty(nr, dtype=np.int64)
    where[order] = np.arange(nr)
    rows, cols = where[k.row], where[k.col]
    bw = int(np.max(np.abs(rows - cols)[in_core], initial=0))
    n_band = (3 * bw + 1) * core
    dest = np.where(cols >= core, n_band + (cols - core) * nr + rows,
                    np.where(rows >= core, n_band + nr * n_c + (rows - core) + cols * n_c,
                             2 * bw + rows - cols + cols * (3 * bw + 1)))
    return (order, bw, n_c), n_band + nr * n_c + n_c * core, dest


class _BandLu:
    """LU of a matrix in _layout's store that solves in the matrix's own order.

    The core takes a band LU (dgbtrf: partial pivoting, rows exchanged
    within the band), the border its Schur complement by dense LU.  An
    exactly zero pivot in either raises RuntimeError.
    """

    def __init__(self, order: np.ndarray, bw: int, n_c: int, store: np.ndarray):
        self.order, self.bw, self.core = order, bw, len(order) - n_c
        nr, core, n_band = len(order), self.core, (3 * bw + 1) * self.core
        self.lu, self.ipiv, info = dgbtrf(store[:n_band].reshape((3 * bw + 1, core), order="F"),
                                          bw, bw, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"band LU failed (dgbtrf info {info})")
        self.schur = None
        if n_c:
            cols = store[n_band : n_band + nr * n_c].reshape((nr, n_c), order="F")
            self.rows = store[n_band + nr * n_c :].reshape((n_c, core), order="F")
            self.x_cols = dgbtrs(self.lu, bw, bw, cols[:core], self.ipiv)[0]  # core^-1 cols
            self.schur, self.schur_piv, info = dgetrf(cols[core:] - self.rows @ self.x_cols)
            if info != 0:
                raise RuntimeError(f"border Schur complement is singular (dgetrf info {info})")

    def solve(self, vec: np.ndarray) -> np.ndarray:
        rhs = vec[self.order]
        y, v = dgbtrs(self.lu, self.bw, self.bw, rhs[: self.core], self.ipiv)[0], rhs[self.core :]
        if self.schur is not None:
            v = dgetrs(self.schur, self.schur_piv, v - self.rows @ y)[0]
            y -= self.x_cols @ v
        sol = np.empty_like(rhs)
        sol[self.order] = np.concatenate([y, v])
        return sol


class _Kkt:
    """The KKT matrix [[D1, B'], [B, -D2]] of one interior-point solve.

    B stacks a_ext and the kept coupling rows.  k_true is the unshifted
    matrix every direction is refined against, so barrier ill-conditioning
    cannot leak into the equality rows, and k_reg the copy with the fixed
    shift, which the partial-pivot fallback factors.  Both have an explicit
    entry on every diagonal, and an iteration only writes the diagonal.

    The band factor eliminates every column with a bound row: its
    diagonal D_e carries a barrier term, so it is positive, and
    x_e = D_e^-1 (r_e - B_e' y) leaves the reduced matrix

        r = [[D_k, B_k'], [B_k, -(B_e D_e^-1 B_e' + E)]]

    in the kept columns k and the rows of B, with E the dual side of
    k_reg's diagonal.  The kept columns are the pinned variables and any
    free one; their diagonal is little more than the _KKT_REG shift, and
    eliminating it would put 1 / _KKT_REG into r.  r's _layout (bandwidth 8
    on the synthetic model at every horizon) is made once, and r is never
    assembled: an iteration writes its store as the fixed sparse map
    `scatter` applied to 1 / D_e, plus B_k in `base` and the diagonal at
    `r_diag`.  Both factors border the kept coupling rows.
    """

    def __init__(self, pre: _Presolved):
        n, n_b = len(pre.q), len(pre.lo_idx) + len(pre.up_idx)
        bm = sp.vstack([pre.a_ext, pre.g[n_b:]]).tocsr()
        mb = bm.shape[0]
        self.k_true = sp.bmat([[sp.identity(n), bm.T], [bm, sp.identity(mb)]], format="csc")
        cols = np.repeat(np.arange(self.k_true.shape[1]), np.diff(self.k_true.indptr))
        self.diag_pos = np.nonzero(self.k_true.indices == cols)[0]  # one entry per column
        self.k_reg = sp.csc_matrix((self.k_true.data.copy(), self.k_true.indices,
                                    self.k_true.indptr), shape=self.k_true.shape)
        self.shift = _KKT_REG * np.concatenate([np.ones(n), -np.ones(mb)])

        elim = np.zeros(n, dtype=bool)
        elim[pre.lo_idx] = elim[pre.up_idx] = True
        self.elim = np.nonzero(elim)[0]
        kept = np.nonzero(~elim)[0]
        self.n_k = len(kept)
        self.r_rows = np.concatenate([kept, n + np.arange(mb)])  # k_reg's row behind each of r's
        self.b_e = bm[:, self.elim].tocsc()
        self.b_e_t = self.b_e.T
        self.n_c = len(pre.keep_rows)
        self._reduce(bm[:, kept].tocoo())
        # k_reg's diagonal and 1 / D_e, from set_diagonal; k_reg's _layout, from the first fallback
        self.reg = self.inv_d = self.full = None

    def _reduce(self, b_k: sp.coo_matrix) -> None:
        """Lay out r and map 1 / D_e, B_k and the diagonal into its store."""
        n_k, nr = self.n_k, len(self.r_rows)
        be = self.b_e
        counts = np.diff(be.indptr)
        # every pair of entries t, s in one column e of B_e adds
        # B[i_t, e] B[i_s, e] / D_e to r at (n_k + i_t, n_k + i_s); the
        # pairs run column by column, which is scatter's CSC layout
        reps = np.repeat(counts, counts)
        t = np.repeat(np.arange(be.nnz, dtype=np.int32), reps)
        s = np.arange(len(t), dtype=np.int32) + np.repeat(
            (np.repeat(be.indptr[:-1], counts) - (np.cumsum(reps) - reps)).astype(np.int32), reps)
        diag = np.arange(nr)
        rows = np.concatenate([diag, n_k + b_k.row, b_k.col, n_k + be.indices[t]])
        cols = np.concatenate([diag, b_k.col, n_k + b_k.row, n_k + be.indices[s]])
        self.lay, size, dest = _layout(sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                                                     shape=(nr, nr)), self.n_c)
        n_bk = 2 * b_k.nnz
        self.r_diag = dest[:nr].copy()  # not a view that keeps all of dest
        self.base = np.zeros(size)
        self.base[dest[nr : nr + n_bk]] = np.concatenate([b_k.data, b_k.data])
        self.scatter = sp.csc_matrix(
            (-be.data[t] * be.data[s], dest[nr + n_bk :].astype(np.int32),
             np.concatenate([[0], np.cumsum(counts.astype(np.int64) ** 2)])),
            shape=(size, len(counts)))

    def set_diagonal(self, diag: np.ndarray) -> None:
        self.k_true.data[self.diag_pos] = diag
        self.reg = diag + self.shift
        self.k_reg.data[self.diag_pos] = self.reg
        self.inv_d = 1.0 / self.reg[self.elim]

    def band_factor(self) -> "_Reduced":
        """Factor r at the current diagonal; the factor solves systems in k_reg."""
        store = self.scatter @ self.inv_d
        store += self.base
        store[self.r_diag] += self.reg[self.r_rows]
        return _Reduced(self, _BandLu(*self.lay, store))

    def fallback_factor(self) -> _BandLu:
        """Factor k_reg itself, nothing eliminated, its kept coupling rows bordered."""
        if self.full is None:  # the pattern is fixed: one layout per solve
            self.full = _layout(self.k_reg, self.n_c)
        lay, size, dest = self.full
        return _BandLu(*lay, np.bincount(dest, self.k_reg.data, size))


class _Reduced:
    """A factor of _Kkt's r that solves systems in k_reg: the eliminated columns go around it."""

    def __init__(self, kkt: _Kkt, band: _BandLu):
        self.kkt, self.band, self.inv_d = kkt, band, kkt.inv_d  # 1 / D_e when r was factored

    def solve(self, vec: np.ndarray) -> np.ndarray:
        kkt = self.kkt
        r_e = vec[kkt.elim] * self.inv_d
        rhs = vec[kkt.r_rows]
        rhs[kkt.n_k :] -= kkt.b_e @ r_e
        sol = self.band.solve(rhs)
        step = np.empty_like(vec)
        step[kkt.r_rows] = sol
        step[kkt.elim] = r_e - (kkt.b_e_t @ sol[kkt.n_k :]) * self.inv_d
        return step


def _refined_solve(lu, k_mat: sp.csc_matrix, vec: np.ndarray, tol: float, step=None):
    """Solve k_mat z = vec with the factor lu of a shifted copy of k_mat.

    Starts from `step` (default lu.solve(vec)) and adds up to three
    refinement steps against k_mat, stopping once the residual's max norm
    is at most tol.  Returns the step and that norm; a step that is not
    finite has a NaN or infinite norm, which no tolerance accepts.
    """
    if step is None:
        step = lu.solve(vec)
    for _ in range(3):
        err = vec - k_mat @ step
        norm = float(np.max(np.abs(err), initial=0.0))
        if norm <= tol:
            return step, norm
        step += lu.solve(err)
    return step, float(np.max(np.abs(vec - k_mat @ step), initial=0.0))


class _KktSolver:
    """Solves with a _Kkt at its current diagonal, refined against k_true.

    The band factor comes first.  When it raises, or a solve cannot reach
    the refinement tolerance with a finite step (the barrier diagonal can
    span tens of orders of magnitude), k_reg is refactored in full with
    partial pivoting for every later solve at this diagonal and the solve
    redone.
    A fallback factor that raises propagates to the caller.
    """

    def __init__(self, kkt: _Kkt):
        self.kkt, self.reduced, self.lu = kkt, True, None
        try:
            self.lu = kkt.band_factor()
        except _FACTOR_ERRORS:
            pass  # the first solve refactors in full

    def solve(self, vec: np.ndarray) -> np.ndarray:
        tol = 1e-11 * (1.0 + float(np.max(np.abs(vec), initial=0.0)))
        err = np.inf
        if self.lu is not None:
            step, err = _refined_solve(self.lu, self.kkt.k_true, vec, tol)
        if self.reduced and not err <= tol:
            self.reduced = False
            self.lu = self.kkt.fallback_factor()
            step, _ = _refined_solve(self.lu, self.kkt.k_true, vec, tol)
        return step


def solve_qp(p: QpProblem, settings: SolverSettings | None = None,
             start: Solution | None = None) -> Solution:
    """Solve the concave QP to the requested tolerances.

    Returns a Solution with status "optimal", "infeasible" or
    "iteration_limit".  Deterministic: identical inputs produce identical
    iterates.  Infeasibility is certified with an LP feasibility probe
    rather than inferred from divergence alone; a stalled primal residual
    runs that probe early, once, and ends the solve if it says infeasible.

    `start`, optional, is an optimal Solution of a problem of p's size,
    such as a neighbour with one right-hand side moved.  Its active set is
    polished on p first and, if that point meets the tolerances, returned
    with iterations == 0; otherwise the solve runs exactly as without a
    start (active-set warm start: Nocedal & Wright 2006, ch. 16).
    """
    s = settings if settings is not None else SolverSettings()
    try:
        pre = _presolve(p)
    except _InfeasibleProblem as exc:
        return _empty_solution(p, INFEASIBLE, message=f"infeasible: {exc}")
    if start is not None:
        warm = _warm(p, pre, s, start)
        if warm is not None:
            return warm

    if pre.g.shape[0] == 0:
        # every variable pinned or free: the polish from the zero point with
        # nothing active is the one equality-constrained solve
        none = np.zeros(0)
        return _finish(p, pre, s, (np.zeros(p.n), np.zeros(pre.a_ext.shape[0]), none), none, 0,
                       False, "equality-constrained solve failed")
    iterated = _interior_point(p, pre, s)
    if isinstance(iterated, Solution):
        return iterated
    return _finish(p, pre, s, *iterated)


def _interior_point(p: QpProblem, pre: _Presolved, s: SolverSettings):
    """The interior-point iteration of solve_qp, from the least-squares start.

    Returns (point, w, iterations, converged, message) for _finish, or a
    Solution when there is nothing to finish: the start's factor failed,
    the stall probe found the problem infeasible, or no iterate was
    finite.  Every array of the iteration, the KKT matrices and their
    factor among them, is freed on return, before the polish makes its own
    factor, and the best-merit iterate is kept in buffers allocated once:
    with nothing the iteration made late left alive, the allocator can
    hand the memory back before the polish (at T=8760 the peak resident
    size fell from about 315 to 240 MB).
    """
    n = p.n
    q, c = pre.q, pre.c
    a, b = pre.a_ext, pre.b_ext
    g, h = pre.g, pre.h
    m, m_comp = a.shape[0], g.shape[0]
    n_b = len(pre.lo_idx) + len(pre.up_idx)  # bound rows lead the block

    # the bound rows of the inequality block fold into the primal diagonal
    # D1 of the KKT matrix, and the band factor eliminates their
    # variables; its coupling rows stay bordered next to A
    bound_var = np.concatenate([pre.lo_idx, pre.up_idx])  # variable of each bound row
    a_t, g_t, gb_t = a.T, g.T, g[:n_b].T.tocsr()
    kkt = _Kkt(pre)
    ratio = np.empty(m_comp)  # _max_step's scratch

    # start (module docstring): the KKT matrix with every w / z at 1 gives
    # least-squares primal and dual points, each shifted into w, z > 0
    kkt.set_diagonal(np.concatenate([q + np.bincount(bound_var, minlength=n), np.zeros(m),
                                     -np.ones(m_comp - n_b)]))
    try:
        solver = _KktSolver(kkt)
        x = solver.solve(np.concatenate([gb_t @ h[:n_b], b, h[n_b:]]))[:n]
        dual = solver.solve(np.concatenate([-c, np.zeros(m + m_comp - n_b)]))
    except _FACTOR_ERRORS:
        return _unsolved(p, 0, "KKT factorization failed")
    del solver  # its factor is freed before iteration 1 makes one
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
    scale_p, scale_d = _scales(pre)
    mu0 = float(np.sum(w * z)) / m_comp
    best_merit: float | None = None
    best = (np.empty_like(x), np.empty_like(y), np.empty_like(z))
    primal_hist: list[float] = []
    probed = False

    converged, message = False, ""
    it = 0
    for it in range(1, s.max_iter + 1):
        rd = q * x + c - a_t @ y + g_t @ z
        rp_eq = a @ x - b
        rp_in = g @ x + w - h
        gap = float(np.sum(w * z))
        mu = gap / m_comp

        obj_min = float(0.5 * (q * x) @ x + c @ x)
        primal_inf = max(
            float(np.max(np.abs(rp_eq), initial=0.0)),
            float(np.max(np.abs(rp_in), initial=0.0)),
        )
        dual_inf = float(np.max(np.abs(rd), initial=0.0))
        if not np.isfinite(mu) or not np.all(np.isfinite(x)):
            message = "iterates lost finiteness"
            break
        merit = (primal_inf / scale_p, dual_inf / scale_d, gap / (1.0 + abs(obj_min)))
        if best_merit is None or max(merit) < best_merit:
            best_merit = max(merit)
            for kept, now in zip(best, (x, y, z)):
                kept[:] = now

        if (
            primal_inf <= s.tol * scale_p
            and dual_inf <= s.tol * scale_d
            and gap <= s.tol * (1.0 + abs(obj_min))
        ):
            converged = True
            break
        if mu > 1e10 * (1.0 + mu0) or np.max(np.abs(x)) > 1e13:
            message = "diverging iterates"
            break
        if not mu > 0.0:
            # every slack-multiplier product underflowed: no centering
            # target is left (seen on infeasible problems only)
            message = "complementarity collapsed to zero"
            break
        primal_hist.append(primal_inf)
        if (
            not probed
            and len(primal_hist) > _STALL_WINDOW
            and primal_inf > s.tol * scale_p
            and primal_inf >= _STALL_RATIO * primal_hist[-1 - _STALL_WINDOW]
        ):
            probed = True
            if _feasibility_probe(p) == INFEASIBLE:
                return _unsolved(p, it, "", verdict=INFEASIBLE)

        # clamp denominators: an underflowed slack or coupling multiplier
        # must read as a huge but finite diagonal entry, not an inf that
        # poisons the factorization
        w_b = np.maximum(w[:n_b], 1e-280)
        z_c = np.maximum(z[n_b:], 1e-280)
        d1 = q + np.bincount(bound_var, z[:n_b] / w_b, minlength=n)
        kkt.set_diagonal(np.concatenate([d1, np.zeros(m), -(w[n_b:] / z_c)]))
        solver = None  # the last factor is freed before the next is made
        solver = _KktSolver(kkt)

        def solve_direction(rc):
            # Newton direction whose linearized complementarity change
            # z*dw + w*dz equals rc; a fallback factor that raises too
            # stops the loop below
            rhs_x = -rd - gb_t @ ((rc[:n_b] + z[:n_b] * rp_in[:n_b]) / w_b)
            step = solver.solve(np.concatenate([rhs_x, -rp_eq, -rp_in[n_b:] - rc[n_b:] / z_c]))
            dx = step[:n]
            dw = -(g @ dx) - rp_in
            dz = np.concatenate([(rc[:n_b] - z[:n_b] * dw[:n_b]) / w_b, step[n + m :]])
            return dx, -step[n : n + m], dz, dw

        def newton_step():
            # Mehrotra predictor-corrector, with a centered fallback
            aff = solve_direction(-w * z)
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

            combined = solve_direction(sigma * mu - w * z - aff[3] * aff[2])
            ap, ad, mu_next = clipped_step(combined)
            direction = combined
            if not (mu_next <= 0.95 * mu) or min(ap, ad) < 1e-10:
                # second-order correction overshoots near a degenerate face;
                # retry with a strongly centered first-order direction
                centered = solve_direction(max(sigma, 0.5) * mu - w * z)
                ap2, ad2, mu_next2 = clipped_step(centered)
                if mu_next2 < mu_next:
                    direction, ap, ad, mu_next = centered, ap2, ad2, mu_next2
            return direction, ap, ad

        try:
            direction, ap, ad = newton_step()
        except _FACTOR_ERRORS:
            message = "KKT factorization failed"
            break
        dx, dy, dz, dw = direction
        x += ap * dx
        w += ap * dw
        y += ad * dy
        z += ad * dz

    if converged:
        point = (x, y, z)
    elif best_merit is not None:
        # Rescue: the best-merit iterate may sit at the optimum with only
        # complementarity unresolved (degenerate face).  Its duals are paired
        # with the last iterate's slacks to predict the active set: with its
        # own slacks, 1254 instead of 1398 of 2601 solves capped at 3, 5 and
        # 8 iterations (867 mostly small random problems) came back optimal.
        point = best
    else:
        return _unsolved(p, it, message)
    return point, w, it, converged, message


def _scales(pre: _Presolved) -> tuple[float, float]:
    """Primal and dual scales of the stopping test (see _meets_tolerances)."""
    scale_p = 1.0 + max(
        float(np.max(np.abs(pre.b_ext), initial=0.0)),
        float(np.max(np.abs(pre.coup_rhs), initial=0.0)),
    )
    return scale_p, 1.0 + float(np.max(np.abs(pre.c), initial=0.0))


def _finish(p: QpProblem, pre: _Presolved, s: SolverSettings, point, w, iterations: int,
            converged: bool, message: str) -> Solution:
    """The one exit of solve_qp after presolve.

    `point` is an iterate (x, y, z) and `w` the slacks of the inequality
    block used to predict its active set.  The polish runs once on that
    set; if its point fails the tolerances, or it gives none, and the
    interior-point method converged, the iterate itself is the candidate.
    The candidate is returned as "optimal" only if it meets the
    tolerances; otherwise the LP probe decides the status.
    """
    scale_p, scale_d = _scales(pre)
    sol = _polish(p, pre, _active(pre, point[0], point[2], w), point)
    if converged and not _meets_tolerances(sol, s, scale_p, scale_d):
        # the polished point is off (e.g. a free variable left its box),
        # or there is none (its factor raised, or its release rounds did
        # not settle): the converged iterate answers
        sol = _finalize(p, pre, *point)
    if _meets_tolerances(sol, s, scale_p, scale_d):
        return replace(sol, iterations=iterations)
    return _unsolved(p, iterations, message)


def _active(pre: _Presolved, x: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of the inequality block predicted active at multipliers z, slacks w."""
    scale_x = 1.0 + float(np.max(np.abs(x), initial=0.0))
    return z / _scales(pre)[1] > w / scale_x


def _presolved_point(pre: _Presolved, sol: Solution):
    """sol's (x, y, z) in pre's coordinates, from its named fields.

    The presolve of sol's own problem may have pinned other variables:
    a pin row's dual is its variable's signed bound multiplier.
    """
    d = sol.ineq_duals
    y = np.concatenate([-sol.eq_duals, (d.lower - d.upper)[pre.pin_idx]])
    z = np.concatenate([d.lower[pre.lo_idx], d.upper[pre.up_idx], d.coupling[pre.keep_rows]])
    return sol.x, y, z


def _warm(p: QpProblem, pre: _Presolved, s: SolverSettings, start: Solution) -> Solution | None:
    """The polish of p on start's active set, if it meets the tolerances.

    A row that start's point violates in p has a negative slack, which
    predicts it active.  None when start is not an optimal Solution of a
    problem of p's size, or its polished point fails the tolerances.
    """
    d = start.ineq_duals
    sizes = (start.x.shape, start.eq_duals.shape, d.lower.shape, d.upper.shape,
             d.coupling.shape)
    if start.status != OPTIMAL or sizes != ((p.n,), (p.m_eq,), (p.n,), (p.n,), (2,)):
        return None
    x, y, z = _presolved_point(pre, start)
    sol = _polish(p, pre, _active(pre, x, z, pre.h - pre.g @ x), (x, y, z))
    if _meets_tolerances(sol, s, *_scales(pre)):
        return replace(sol, iterations=0)
    return None


def _unsolved(p: QpProblem, iterations: int, message: str,
              verdict: str | None = None) -> Solution:
    """Non-optimal exit: the LP probe tells "infeasible" from "iteration_limit".

    `verdict` is the full-problem probe's answer when the caller already
    has it (the stall exit of solve_qp), so the problem is not probed
    twice; otherwise the probe runs here.  An infeasible problem always
    carries the relaxation probes' diagnosis; `message`, why the iteration
    stopped, only explains an iteration limit.
    """
    if verdict is None:
        verdict = _feasibility_probe(p)
    if verdict == INFEASIBLE:
        return _empty_solution(p, INFEASIBLE, message=_name_conflict(p), iterations=iterations)
    return _empty_solution(p, ITERATION_LIMIT, message=message or "tolerances not reached",
                           iterations=iterations)


def _meets_tolerances(sol: Solution | None, s: SolverSettings, scale_p: float,
                      scale_d: float) -> bool:
    if sol is None:
        return False
    r = sol.residuals
    return (
        r.primal_inf <= s.tol * scale_p
        and r.dual_inf <= s.tol * scale_d
        and r.comp_gap <= s.tol * (1.0 + abs(sol.objective))
    )


def _polish(p: QpProblem, pre: _Presolved, act, hint) -> Solution | None:
    """Quasi-definite solve on the predicted active set, unverified.

    `act` marks the active rows of the inequality block and `hint` is an
    interior-point iterate (x, y, z).  An active bound row fixes its
    variable at the bound and reads its multiplier off that column of
    stationarity, so the system keeps only the free variables, the rows of
    a_ext and the active coupling rows (bounds in reduced space: Nocedal &
    Wright 2006, ch. 16).  The regularized system is biased toward the hint
    so that on a degenerate optimal face the solve selects a sign-feasible
    multiplier set instead of the minimal-norm one.  An active row that
    still gets a negative multiplier is released and the system re-solved,
    crossover-style.  A variable marked active at both of its bounds keeps
    only the side with the larger hint multiplier.  Returns the KKT point
    for the caller to verify, or None when the factorization raises or 8
    rounds leave a negative one.
    """
    m = pre.a_ext.shape[0]
    n_b = len(pre.lo_idx) + len(pre.up_idx)
    act = np.array(act, dtype=bool, copy=True)
    dual_tol = 1e-7 * (1.0 + float(np.max(np.abs(pre.c), initial=0.0)))
    x_hint, y_hint, z_hint = hint
    # a variable predicted active at both bounds keeps the side with the
    # larger hint multiplier: fixing both would put it at lb_j + ub_j
    _, lo_row, up_row = np.intersect1d(pre.lo_idx, pre.up_idx, assume_unique=True,
                                       return_indices=True)
    up_row += len(pre.lo_idx)
    both = act[lo_row] & act[up_row]
    lower_wins = z_hint[lo_row] >= z_hint[up_row]
    act[up_row[both & lower_wins]] = False
    act[lo_row[both & ~lower_wins]] = False

    for _ in range(8):
        fixed = np.nonzero(act[:n_b])[0]
        coup = n_b + np.nonzero(act[n_b:])[0]
        g_fix, g_coup = pre.g[fixed], pre.g[coup]
        x = g_fix.T @ pre.h[fixed]  # each row is -e_j or +e_j: x_j at its bound
        free = np.ones(p.n, dtype=bool)
        free[g_fix.indices] = False
        n_f = int(free.sum())
        a_bar = sp.vstack([pre.a_ext, g_coup], format="csc")[:, free]
        # stationarity convention: equality rows contribute -y and active
        # coupling rows +z, so the stacked hint multiplier is (-y, z)
        u_hint = np.concatenate([-y_hint, z_hint[coup]])

        k_true = sp.bmat([[sp.diags(pre.q[free]), a_bar.T], [a_bar, None]], format="csc")
        k_reg = k_true + sp.diags(_POLISH_EPS * np.concatenate([np.ones(n_f),
                                                                 -np.ones(a_bar.shape[0])]))
        try:
            lay, size, dest = _layout(k_reg, len(coup))  # the active coupling rows border it
            lu = _BandLu(*lay, np.bincount(dest, k_reg.data, size))
        except _FACTOR_ERRORS:
            return None

        # the fixed columns move to the right-hand side
        true_target = np.concatenate([-pre.c[free], pre.b_ext - pre.a_ext @ x,
                                      pre.h[coup] - g_coup @ x])
        biased = true_target + _POLISH_EPS * np.concatenate([x_hint[free], -u_hint])
        scale = 1.0 + float(np.max(np.abs(true_target), initial=0.0))
        # the bias leaves about _POLISH_EPS * |solution - hint| in the first
        # solve; a hint from a neighbouring problem (a warm start) left 1e-11
        # in the equality rows of a week, which 1e-12 * scale accepted
        step, _ = _refined_solve(lu, k_true, true_target, 1e-14 * scale, lu.solve(biased))
        x[free] = step[:n_f]
        y = -step[n_f : n_f + m]
        z = np.zeros(len(act))
        z[coup] = step[n_f + m :]
        z[fixed] = g_fix @ (pre.a_ext.T @ y - g_coup.T @ z[coup] - pre.q * x - pre.c)

        bad = act & (z < -dual_tol)
        if not bad.any():
            return _finalize(p, pre, x, y, z)
        act[bad] = False  # release the offending rows and try again

    return None


# ---------------------------------------------------------------------------
# Feasibility probes


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first call.

    Only the feasibility probes need it, and importing scipy.optimize up
    front would add about 0.2 s to every start.
    """
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _feasibility_probe(p: QpProblem, drop_coupling: tuple[int, ...] = ()) -> str:
    keep = [k for k in range(p.coup.shape[0]) if k not in drop_coupling]
    a_ub = p.coup[keep, :] if keep else None
    b_ub = p.coup_rhs[keep] if keep else None
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
    if res.status == 0:
        return "feasible"
    return "unknown"


def diagnose_infeasibility(p: QpProblem) -> str:
    """Name the constraint family that makes an infeasible problem so.

    Relaxation probes: if dropping the retirement-floor row restores
    feasibility the floor conflicts with the certificate supply; likewise
    for the quota ceiling; otherwise the balances and boxes already clash.
    """
    if _feasibility_probe(p) != INFEASIBLE:
        return "problem is feasible"
    return _name_conflict(p)


def _name_conflict(p: QpProblem) -> str:
    """Relaxation probes for a problem the full probe already found infeasible."""
    if _feasibility_probe(p, drop_coupling=(0,)) == "feasible":
        return "infeasible: REC retirement floor conflicts with certificate supply and caps"
    if _feasibility_probe(p, drop_coupling=(1,)) == "feasible":
        return "infeasible: CER quota ceiling conflicts with emission needs and caps"
    if _feasibility_probe(p, drop_coupling=(0, 1)) == "feasible":
        return "infeasible: retirement floor and quota ceiling jointly conflict"
    return "infeasible: balance equations conflict with variable bounds"

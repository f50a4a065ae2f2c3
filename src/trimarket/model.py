"""Problem data model and QP assembly for tri-market VPP self-scheduling.

A virtual power plant (VPP) aggregates a thermal generator (TG), renewable
sources (RES), an energy storage system (ESS) and inflexible load, and trades
hourly in three markets: electricity, renewable energy certificates (REC) and
carbon emission rights (CER).  Certificates can be banked in inventories and
withdrawn later.  The VPP must retire enough RECs to cover a renewable
portfolio standard (RPS) fraction ``r`` of its consumption, and may draw at
most a regulator-issued quota of CERs.

The schedule over ``T`` hours is the solution of a concave quadratic program
(maximize profit) with linear constraints.  Per hour the 13 decision roles
are::

    g    TG output (MW)            p_c  ESS charging power (MW)
    G    electricity trade (MWh)   p_d  ESS discharging power (MW)
    R    REC trade (certificates)  q    ESS state of charge (MWh)
    C    CER trade (allowances)    x_r  net REC withdrawal (withdraw - deposit)
    r0   RECs retired for RPS      i_r  REC inventory level
    c0   CERs drawn from quota     x_c  net CER withdrawal
                                   i_c  CER inventory level

Positive trade quantities are sales.  Withdraw/deposit pairs are encoded as a
single net flow ``x``; the sign split recovers the physical pair and makes the
"no simultaneous withdraw and deposit" restriction hold by construction.
Storage states are cyclic: the level before hour 1 equals the level at hour T.
Charging stores only a fraction ``eta_c`` of the power drawn, and
discharging ``p_d`` takes ``p_d/eta_d`` out of storage.

The profit is ``sum_t pi_g*G + pi_r*R + pi_c*C - a*g^2 - b*g``.  Every hour t
has the same six equality rows, with t-1 the cyclic predecessor::

    ess_dyn   eta_c*p_c_t - p_d_t/eta_d - q_t + q_{t-1}  = 0
    rec_inv   -x_r_t - i_r_t + i_r_{t-1}                 = 0
    cer_inv   -x_c_t - i_c_t + i_c_{t-1}                 = 0
    elec_bal  g_t + p_d_t - p_c_t - G_t                  = l_t - e_t
    rec_bal   x_r_t - R_t - r0_t                         = -e_t
    cer_bal   C_t + k*g_t - x_c_t - c0_t                 = 0

and two coupling rows sum over the horizon::

    rps       sum_t (r*p_c_t - r0_t)  <= -r * sum_t l_t
    quota     sum_t c0_t              <= g_max*k*T*alpha

``assemble_qp`` builds the equality rows from one table of these terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ModelWarning",
    "TgParams",
    "EssParams",
    "InventoryParams",
    "PolicyParams",
    "TradeCaps",
    "VppConfig",
    "MarketData",
    "ValidatedModel",
    "VariableLayout",
    "QpProblem",
    "DispatchPlan",
    "ROLES",
    "default_config",
    "validate_config",
    "quota_cap",
    "variable_layout",
    "assemble_qp",
    "recover_plan",
    "plan_to_vector",
]

#: Canonical per-hour ordering of the 13 decision roles (time-major layout).
ROLES = ("g", "G", "R", "C", "p_c", "p_d", "q", "x_r", "i_r", "r0", "x_c", "i_c", "c0")
_ROLE_POS = {name: k for k, name in enumerate(ROLES)}

#: Per-hour ordering of the 6 equality-row kinds.
EQ_KINDS = ("ess_dyn", "rec_inv", "cer_inv", "elec_bal", "rec_bal", "cer_bal")
_EQ_POS = {name: k for k, name in enumerate(EQ_KINDS)}


class ModelWarning(UserWarning):
    """Non-fatal model issues: unusual parameter values, non-daily prices."""


class ValidationError(ValueError):
    """Raised when configuration or market data violate a model invariant."""


@dataclass(frozen=True)
class TgParams:
    """Thermal generator: quadratic cost a*g^2 + b*g, box output, CE factor."""

    a: float          # $/MWh^2, must be > 0
    b: float          # $/MWh
    g_min: float      # MW
    g_max: float      # MW
    k: float          # tCO2 emitted per MWh generated


@dataclass(frozen=True)
class EssParams:
    """Energy storage: power ratings, energy capacity, efficiencies."""

    p_c_max: float    # MW
    p_d_max: float    # MW
    q_max: float      # MWh
    eta_c: float = 1.0
    eta_d: float = 1.0


@dataclass(frozen=True)
class InventoryParams:
    """Certificate inventory: hourly withdraw/deposit caps and level cap.

    A disabled inventory is the same thing as one with all caps at zero;
    ``validate_config`` normalises ``enabled=False`` to zero caps.
    """

    w_max: float      # units/h withdrawn
    d_max: float      # units/h deposited
    i_max: float      # units held
    enabled: bool = True

    @classmethod
    def disabled(cls) -> "InventoryParams":
        return cls(0.0, 0.0, 0.0, enabled=False)


@dataclass(frozen=True)
class PolicyParams:
    """Regulatory levels: RPS fraction r and quota strictness alpha."""

    r: float          # in [0, 1]; r = 0 is a degenerate no-RPS case
    alpha: float      # in [0, 1]; scales the CER quota


@dataclass(frozen=True)
class TradeCaps:
    """Symmetric per-hour trade caps |G|, |R|, |C|; ``inf`` means uncapped."""

    g_cap: float = math.inf
    r_cap: float = math.inf
    c_cap: float = math.inf


@dataclass(frozen=True)
class VppConfig:
    """Full device/policy parameter set for one scheduling problem."""

    horizon: int      # number of hourly steps T
    tg: TgParams
    ess: EssParams
    rec_inventory: InventoryParams
    cer_inventory: InventoryParams
    policy: PolicyParams
    caps: TradeCaps = field(default_factory=TradeCaps)

    def with_policy(self, *, r: float | None = None, alpha: float | None = None) -> "VppConfig":
        pol = PolicyParams(
            r=self.policy.r if r is None else r,
            alpha=self.policy.alpha if alpha is None else alpha,
        )
        return replace(self, policy=pol)

    def with_inventories(self, *, rec: bool, cer: bool) -> "VppConfig":
        """Copy with either inventory kept as-is or disabled."""
        return replace(
            self,
            rec_inventory=self.rec_inventory if rec else InventoryParams.disabled(),
            cer_inventory=self.cer_inventory if cer else InventoryParams.disabled(),
        )

    def with_caps(self, **kwargs) -> "VppConfig":
        return replace(self, caps=replace(self.caps, **kwargs))


@dataclass(frozen=True)
class MarketData:
    """Hourly price and forecast series, each of length T.

    pi_g, pi_r, pi_c: electricity / REC / CER prices ($ per unit).
    e: RES output forecast (MW).  l: inflexible load forecast (MW).
    """

    pi_g: np.ndarray
    pi_r: np.ndarray
    pi_c: np.ndarray
    e: np.ndarray
    l: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.pi_g)


def default_config(horizon: int = 168) -> VppConfig:
    """Standard demo parameter set used by the bundled config and tests.

    TG cost 1*g^2 + 80*g with 80 MW cap, 40/40/80 ESS, 400-unit certificate
    inventories, K = 0.9, r = 0.9, alpha = 0.2, 400-unit trade caps.
    """
    return VppConfig(
        horizon=horizon,
        tg=TgParams(a=1.0, b=80.0, g_min=0.0, g_max=80.0, k=0.9),
        ess=EssParams(p_c_max=40.0, p_d_max=40.0, q_max=80.0),
        rec_inventory=InventoryParams(w_max=400.0, d_max=400.0, i_max=400.0),
        cer_inventory=InventoryParams(w_max=400.0, d_max=400.0, i_max=400.0),
        policy=PolicyParams(r=0.9, alpha=0.2),
        caps=TradeCaps(g_cap=400.0, r_cap=400.0, c_cap=400.0),
    )


# ---------------------------------------------------------------------------
# Validation


def _as_series(name: str, values, horizon: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D series, got shape {arr.shape}")
    if len(arr) != horizon:
        raise ValidationError(f"{name} has length {len(arr)}, expected horizon T={horizon}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _check_nonneg(name: str, value: float) -> None:
    if not value >= 0:  # also rejects NaN
        raise ValidationError(f"{name} must be >= 0, got {value}")


def _daily_blocks_constant(series: np.ndarray) -> bool:
    n_full = len(series) // 24
    for d in range(n_full):
        block = series[24 * d : 24 * (d + 1)]
        if not np.all(block == block[0]):
            return False
    tail = series[24 * n_full :]
    return len(tail) == 0 or bool(np.all(tail == tail[0]))


@dataclass(frozen=True)
class ValidatedModel:
    """Config + market data known to satisfy every type invariant.

    Arrays are float64 copies marked read-only, and all downstream
    assembly and analysis is pure, so nothing downstream changes a model.
    """

    config: VppConfig
    data: MarketData

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def quota(self) -> float:
        return quota_cap(self.config)


def validate_config(cfg: VppConfig, data: MarketData) -> ValidatedModel:
    """Check every invariant and return an immutable validated model.

    Raises ValidationError on dimension mismatches or out-of-domain
    parameters; emits ModelWarning for legal-but-unusual inputs (CE factor
    outside [0.8, 0.9], r = 0, certificate prices not constant within each
    24 h block).
    """
    T = cfg.horizon
    if not isinstance(T, int) or T < 1:
        raise ValidationError(f"horizon must be a positive integer, got {T!r}")

    tg = cfg.tg
    for name in ("a", "b", "g_min", "g_max", "k"):
        if not math.isfinite(getattr(tg, name)):
            raise ValidationError(f"tg.{name} must be finite, got {getattr(tg, name)}")
    if tg.a <= 0:
        raise ValidationError(f"tg.a must be > 0 (strictly concave profit in g), got {tg.a}")
    if not (0 <= tg.g_min <= tg.g_max):
        raise ValidationError(f"need 0 <= g_min <= g_max, got [{tg.g_min}, {tg.g_max}]")
    if tg.k < 0:
        raise ValidationError(f"tg.k must be >= 0, got {tg.k}")
    if not (0.8 <= tg.k <= 0.9):
        warnings.warn(f"CE factor k={tg.k} outside the usual [0.8, 0.9] range", ModelWarning, stacklevel=2)

    ess = cfg.ess
    for name, v in (("ess.p_c_max", ess.p_c_max), ("ess.p_d_max", ess.p_d_max), ("ess.q_max", ess.q_max)):
        _check_nonneg(name, v)
    for name, eta in (("ess.eta_c", ess.eta_c), ("ess.eta_d", ess.eta_d)):
        if not (0 < eta <= 1):
            raise ValidationError(f"{name} must lie in (0, 1], got {eta}")

    inventories = {}
    for name, inv in (("rec_inventory", cfg.rec_inventory), ("cer_inventory", cfg.cer_inventory)):
        for cap_name, v in ((f"{name}.w_max", inv.w_max), (f"{name}.d_max", inv.d_max), (f"{name}.i_max", inv.i_max)):
            _check_nonneg(cap_name, v)
        # disabled <=> all caps zero
        inventories[name] = InventoryParams.disabled() if not inv.enabled else inv

    pol = cfg.policy
    if not (0 <= pol.r <= 1):
        raise ValidationError(f"policy.r must lie in [0, 1], got {pol.r}")
    if pol.r == 0:
        warnings.warn("policy.r = 0: RPS constraint is degenerate", ModelWarning, stacklevel=2)
    if not (0 <= pol.alpha <= 1):
        raise ValidationError(f"policy.alpha must lie in [0, 1], got {pol.alpha}")

    for name, v in (("caps.g_cap", cfg.caps.g_cap), ("caps.r_cap", cfg.caps.r_cap), ("caps.c_cap", cfg.caps.c_cap)):
        _check_nonneg(name, v)  # +inf means uncapped

    series = {
        name: _as_series(name, getattr(data, name), T)
        for name in ("pi_g", "pi_r", "pi_c", "e", "l")
    }
    for name in ("pi_g", "pi_r", "pi_c", "e", "l"):
        if np.any(series[name] < 0):
            raise ValidationError(f"{name} must be >= 0 everywhere")
    for name in ("pi_r", "pi_c"):
        if not _daily_blocks_constant(series[name]):
            warnings.warn(f"{name} is not constant within each 24 h block", ModelWarning, stacklevel=2)

    for arr in series.values():
        arr.setflags(write=False)

    clean_cfg = replace(
        cfg,
        rec_inventory=inventories["rec_inventory"],
        cer_inventory=inventories["cer_inventory"],
    )
    return ValidatedModel(config=clean_cfg, data=MarketData(**series))


def quota_cap(cfg: VppConfig) -> float:
    """Total CER quota over the horizon: g_max * k * T * alpha (tCO2)."""
    return cfg.tg.g_max * cfg.tg.k * cfg.horizon * cfg.policy.alpha


# ---------------------------------------------------------------------------
# Variable layout


@dataclass(frozen=True)
class VariableLayout:
    """Bijective time-major index map over the 13*T decision variables.

    Variable (role, t) lives at index 13*t + position(role); hours are
    0-based internally and 1-based in user-facing output.
    """

    horizon: int

    @property
    def n(self) -> int:
        return 13 * self.horizon

    def indices(self, role: str) -> np.ndarray:
        """All indices of one role, in hour order."""
        return np.arange(_ROLE_POS[role], self.n, 13)

    def gather(self, x: np.ndarray, role: str) -> np.ndarray:
        return np.asarray(x)[_ROLE_POS[role] :: 13].copy()

    def recover(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Split a flat vector into one array per role."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        return {role: x[k::13].copy() for k, role in enumerate(ROLES)}

    def flatten(self, per_role: dict[str, np.ndarray]) -> np.ndarray:
        x = np.empty(self.n)
        for k, role in enumerate(ROLES):
            arr = np.asarray(per_role[role], dtype=float)
            if arr.shape != (self.horizon,):
                raise ValueError(f"role {role!r} has shape {arr.shape}, expected ({self.horizon},)")
            x[k::13] = arr
        return x


def variable_layout(horizon: int) -> VariableLayout:
    if not isinstance(horizon, int) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    return VariableLayout(horizon)


# ---------------------------------------------------------------------------
# QP assembly


@dataclass(frozen=True)
class QpProblem:
    """Concave QP in maximization form.

        maximize   0.5 x' diag(h_diag) x + f' x
        subject to a_eq x = b_eq                     (6*T named rows)
                   lb <= x <= ub                     (per-variable boxes)
                   coup x <= coup_rhs                (RPS and quota rows)

    The only curvature is -2a on the TG-output diagonal.  Every equality row
    and the two coupling rows are named so dual multipliers can be recovered
    by constraint, not by position.
    """

    h_diag: np.ndarray
    f: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    coup: sp.csr_matrix
    coup_rhs: np.ndarray
    layout: VariableLayout

    @property
    def n(self) -> int:
        return len(self.f)

    @property
    def horizon(self) -> int:
        return self.layout.horizon

    @property
    def m_eq(self) -> int:
        return self.a_eq.shape[0]

    def eq_row_index(self, kind: str, t):
        """Row index of equality `kind` at 0-based hour t, or the rows at an array of hours."""
        return 6 * t + _EQ_POS[kind]

    def eq_row_name(self, i: int) -> str:
        return f"{EQ_KINDS[i % 6]}[{i // 6 + 1}]"

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.dot(self.h_diag, x * x) + np.dot(self.f, x))


def _stencil(terms, row_pos: dict[str, int], row_step: int, shape: tuple[int, int]) -> sp.csr_matrix:
    """Sparse matrix holding every (row, role, offset, coefficient) term at each hour.

    At hour t a term lands in row ``row_step*t + row_pos[row]`` and column
    ``13*((t + offset) % T) + position(role)``: offset -1 is the cyclic
    predecessor hour, and ``row_step`` 0 sums a term over the horizon into
    one row.  Terms that meet in one entry are added, and an entry that
    comes out zero (a zero coefficient, or terms that cancel) is not
    stored, so it is not in the pattern of any KKT system.
    """
    T = shape[1] // 13
    rows, roles, offsets, coefs = zip(*terms)
    t = np.arange(T)[:, None]
    r = row_step * t + [row_pos[row] for row in rows]
    c = 13 * ((t + offsets) % T) + [_ROLE_POS[role] for role in roles]
    m = sp.csr_matrix((np.tile(coefs, T), (r.ravel(), c.ravel())), shape=shape)
    m.eliminate_zeros()
    return m


def _finite(value: float, what: str) -> float:
    """value, a coefficient assembled from validated parameters, if it is finite.

    Each parameter is finite on its own, but a product or an inverse of
    them can still overflow, and neither the solver nor its diagnosis LP
    takes an infinite coefficient: `what` names the parameters.
    """
    if not math.isfinite(value):
        raise ValidationError(f"{what} overflows to {value}")
    return value


def assemble_qp(model: ValidatedModel, *, quota_override: float | None = None) -> QpProblem:
    """Build the concave QP from a validated model.

    Storage states wrap cyclically: hour t couples to hour t-1 with hour 1
    coupling back to hour T, which encodes the terminal conditions Q_0 = Q_T
    and likewise for both certificate inventories.  `quota_override` replaces
    the derived quota g_max*k*T*alpha (used by envelope checks).  Raises
    ValidationError when a coefficient made from the parameters overflows
    (1 / ess.eta_d for a subnormal eta_d, say).
    """
    cfg, data = model.config, model.data
    T = cfg.horizon
    layout = variable_layout(T)
    n = layout.n
    caps, rec, cer = cfg.caps, cfg.rec_inventory, cfg.cer_inventory

    # objective: one column of the T x 13 (hour, role) grid per priced role
    h_diag = np.zeros((T, 13))
    h_diag[:, _ROLE_POS["g"]] = -_finite(2.0 * cfg.tg.a, "2 * tg.a")
    f = np.zeros((T, 13))
    for role, coef in (
        ("g", -cfg.tg.b),
        ("G", data.pi_g),
        ("R", data.pi_r),
        ("C", data.pi_c),
    ):
        f[:, _ROLE_POS[role]] = coef

    # equality rows, 6 per hour: (row kind, role, hour offset, coefficient)
    eq_terms = (
        ("ess_dyn", "p_c", 0, cfg.ess.eta_c),
        ("ess_dyn", "p_d", 0, -_finite(1.0 / cfg.ess.eta_d, "1 / ess.eta_d")),
        ("ess_dyn", "q", 0, -1.0),
        ("ess_dyn", "q", -1, 1.0),
        ("rec_inv", "x_r", 0, -1.0),
        ("rec_inv", "i_r", 0, -1.0),
        ("rec_inv", "i_r", -1, 1.0),
        ("cer_inv", "x_c", 0, -1.0),
        ("cer_inv", "i_c", 0, -1.0),
        ("cer_inv", "i_c", -1, 1.0),
        ("elec_bal", "g", 0, 1.0),
        ("elec_bal", "p_d", 0, 1.0),
        ("elec_bal", "p_c", 0, -1.0),
        ("elec_bal", "G", 0, -1.0),
        ("rec_bal", "x_r", 0, 1.0),
        ("rec_bal", "R", 0, -1.0),
        ("rec_bal", "r0", 0, -1.0),
        ("cer_bal", "C", 0, 1.0),
        ("cer_bal", "g", 0, cfg.tg.k),
        ("cer_bal", "x_c", 0, -1.0),
        ("cer_bal", "c0", 0, -1.0),
    )
    a_eq = _stencil(eq_terms, _EQ_POS, 6, (6 * T, n))
    b_eq = np.zeros((T, 6))
    b_eq[:, _EQ_POS["elec_bal"]] = data.l - data.e
    b_eq[:, _EQ_POS["rec_bal"]] = -data.e

    # variable boxes, one (lower, upper) pair per role
    box = {
        "g": (cfg.tg.g_min, cfg.tg.g_max),
        "G": (-caps.g_cap, caps.g_cap),
        "R": (-caps.r_cap, caps.r_cap),
        "C": (-caps.c_cap, caps.c_cap),
        "p_c": (0.0, cfg.ess.p_c_max),
        "p_d": (0.0, cfg.ess.p_d_max),
        "q": (0.0, cfg.ess.q_max),
        "x_r": (-rec.d_max, rec.w_max),
        "i_r": (0.0, rec.i_max),
        "r0": (0.0, np.inf),
        "x_c": (-cer.d_max, cer.w_max),
        "i_c": (0.0, cer.i_max),
        "c0": (0.0, np.inf),
    }
    lb = np.tile([box[role][0] for role in ROLES], T)
    ub = np.tile([box[role][1] for role in ROLES], T)

    # coupling rows over the horizon: RPS retirement floor and quota ceiling
    coup_terms = (
        ("rps", "p_c", 0, cfg.policy.r),
        ("rps", "r0", 0, -1.0),
        ("quota", "c0", 0, 1.0),
    )
    coup = _stencil(coup_terms, {"rps": 0, "quota": 1}, 0, (2, n))
    quota = model.quota if quota_override is None else float(quota_override)
    coup_rhs = np.array([
        -_finite(cfg.policy.r * float(np.sum(data.l)), "policy.r * the sum of l"),
        _finite(quota, "the CER quota tg.g_max * tg.k * horizon.T * policy.alpha"
                if quota_override is None else "quota_override"),
    ])

    return QpProblem(
        h_diag=h_diag.ravel(),
        f=f.ravel(),
        a_eq=a_eq,
        b_eq=b_eq.ravel(),
        lb=lb,
        ub=ub,
        coup=coup,
        coup_rhs=coup_rhs,
        layout=layout,
    )


# ---------------------------------------------------------------------------
# Plan recovery


@dataclass(frozen=True)
class DispatchPlan:
    """Per-hour physical schedule in natural units.

    Withdraw/deposit pairs come from the sign split of the net flows, so
    r_w*r_d = 0 and c_w*c_d = 0 hold exactly.  When both efficiencies are 1
    the ESS pair is netted (min(p_c, p_d) removed from both sides, leaving
    every balance row unchanged); otherwise netting is skipped and the
    simultaneous component is reported instead.
    """

    g: np.ndarray
    G: np.ndarray
    R: np.ndarray
    C: np.ndarray
    p_c: np.ndarray
    p_d: np.ndarray
    q: np.ndarray
    r_w: np.ndarray
    r_d: np.ndarray
    i_r: np.ndarray
    r0: np.ndarray
    c_w: np.ndarray
    c_d: np.ndarray
    i_c: np.ndarray
    c0: np.ndarray
    simultaneous_flow: np.ndarray
    netted: bool

    #: column order used by plan CSV files
    CSV_COLUMNS = ("g", "G", "R", "C", "p_c", "p_d", "q", "r_w", "r_d", "i_r", "r0", "c_w", "c_d", "i_c", "c0")

    @property
    def horizon(self) -> int:
        return len(self.g)


def recover_plan(x: np.ndarray, layout: VariableLayout, *, eta_c: float = 1.0, eta_d: float = 1.0) -> DispatchPlan:
    """Map a primal vector back to a physical dispatch plan."""
    parts = layout.recover(x)
    r_w = np.maximum(parts["x_r"], 0.0)
    r_d = np.maximum(-parts["x_r"], 0.0)
    c_w = np.maximum(parts["x_c"], 0.0)
    c_d = np.maximum(-parts["x_c"], 0.0)

    p_c, p_d = parts["p_c"].copy(), parts["p_d"].copy()
    overlap = np.minimum(p_c, p_d)
    lossless = eta_c == 1.0 and eta_d == 1.0
    if lossless:
        p_c -= overlap
        p_d -= overlap

    return DispatchPlan(
        g=parts["g"],
        G=parts["G"],
        R=parts["R"],
        C=parts["C"],
        p_c=p_c,
        p_d=p_d,
        q=parts["q"],
        r_w=r_w,
        r_d=r_d,
        i_r=parts["i_r"],
        r0=parts["r0"],
        c_w=c_w,
        c_d=c_d,
        i_c=parts["i_c"],
        c0=parts["c0"],
        simultaneous_flow=overlap,
        netted=lossless,
    )


def plan_to_vector(plan: DispatchPlan, layout: VariableLayout) -> np.ndarray:
    """Flatten a plan back into layout order (inverse of recover_plan)."""
    return layout.flatten(
        {
            "g": plan.g,
            "G": plan.G,
            "R": plan.R,
            "C": plan.C,
            "p_c": plan.p_c,
            "p_d": plan.p_d,
            "q": plan.q,
            "x_r": plan.r_w - plan.r_d,
            "i_r": plan.i_r,
            "r0": plan.r0,
            "x_c": plan.c_w - plan.c_d,
            "i_c": plan.i_c,
            "c0": plan.c0,
        }
    )

"""Config files, market-data CSV, and result serialization.

The config format is deliberately dumb: one ``section.key = value`` pair
per line, ``#`` comments, no nesting.  Every parse error carries the file
name and line number.  Floats accept ``inf`` so trade caps can be
uncapped in a file.  All writers emit deterministic bytes for a given
input (17 significant digits, sorted JSON keys, no timestamps), so a
re-run with the same seed produces byte-identical artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import CaseTable, NamedDuals, PropertyReport
from .model import (
    DispatchPlan,
    EssParams,
    InventoryParams,
    MarketData,
    PolicyParams,
    TgParams,
    TradeCaps,
    VppConfig,
)
from .scenarios import RevenueBreakdown, SweepResult, SynthSpec


class ConfigError(ValueError):
    """Malformed config or data file; message includes file and line."""


# ---------------------------------------------------------------------------
# Config format

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}

#: required float keys grouped the way VppConfig nests them
_FLOAT_KEYS = (
    "tg.a", "tg.b", "tg.g_min", "tg.g_max", "tg.k",
    "ess.p_c_max", "ess.p_d_max", "ess.q_max",
    "rec_inventory.w_max", "rec_inventory.d_max", "rec_inventory.i_max",
    "cer_inventory.w_max", "cer_inventory.d_max", "cer_inventory.i_max",
    "policy.r", "policy.alpha",
)
_OPT_FLOAT_KEYS = ("ess.eta_c", "ess.eta_d", "caps.g_cap", "caps.r_cap", "caps.c_cap")
_BOOL_KEYS = ("rec_inventory.enabled", "cer_inventory.enabled")
_SYNTH_FLOAT_KEYS = tuple(
    f"synth.{f.name}" for f in dataclasses.fields(SynthSpec) if f.name not in ("seed", "horizon")
)
_ALL_KEYS = (
    frozenset(_FLOAT_KEYS) | frozenset(_OPT_FLOAT_KEYS) | frozenset(_BOOL_KEYS)
    | frozenset(_SYNTH_FLOAT_KEYS) | {"horizon.T", "synth.seed"}
)


def _parse_float(key: str, raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} needs a number, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> tuple[VppConfig, SynthSpec]:
    """Parse config text into a model config plus synthetic-data knobs."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{source}:{lineno}"
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{where}: {key} has no value")
        values[key] = raw

    missing = [k for k in ("horizon.T", *_FLOAT_KEYS) if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(sorted(missing))}")

    def fnum(key: str, default: float | None = None) -> float:
        if key not in values:
            return default  # type: ignore[return-value]
        return _parse_float(key, values[key], source)

    def fbool(key: str, default: bool) -> bool:
        if key not in values:
            return default
        word = values[key].lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{source}: {key} needs true/false, got {values[key]!r}")
        return _BOOL_WORDS[word]

    def fint(key: str, default: int | None = None) -> int:
        if key not in values:
            return default  # type: ignore[return-value]
        raw = values[key]
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{source}: {key} needs an integer, got {raw!r}") from None

    horizon = fint("horizon.T")
    cfg = VppConfig(
        horizon=horizon,
        tg=TgParams(
            a=fnum("tg.a"), b=fnum("tg.b"), g_min=fnum("tg.g_min"),
            g_max=fnum("tg.g_max"), k=fnum("tg.k"),
        ),
        ess=EssParams(
            p_c_max=fnum("ess.p_c_max"), p_d_max=fnum("ess.p_d_max"),
            q_max=fnum("ess.q_max"),
            eta_c=fnum("ess.eta_c", 1.0), eta_d=fnum("ess.eta_d", 1.0),
        ),
        rec_inventory=InventoryParams(
            w_max=fnum("rec_inventory.w_max"), d_max=fnum("rec_inventory.d_max"),
            i_max=fnum("rec_inventory.i_max"),
            enabled=fbool("rec_inventory.enabled", True),
        ),
        cer_inventory=InventoryParams(
            w_max=fnum("cer_inventory.w_max"), d_max=fnum("cer_inventory.d_max"),
            i_max=fnum("cer_inventory.i_max"),
            enabled=fbool("cer_inventory.enabled", True),
        ),
        policy=PolicyParams(r=fnum("policy.r"), alpha=fnum("policy.alpha")),
        caps=TradeCaps(
            g_cap=fnum("caps.g_cap", math.inf),
            r_cap=fnum("caps.r_cap", math.inf),
            c_cap=fnum("caps.c_cap", math.inf),
        ),
    )

    synth_kwargs = {"seed": fint("synth.seed", 7), "horizon": horizon}
    for key in _SYNTH_FLOAT_KEYS:
        if key in values:
            synth_kwargs[key.split(".", 1)[1]] = fnum(key)
    try:
        synth = SynthSpec(**synth_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg, synth


def load_config(path) -> tuple[VppConfig, SynthSpec]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    return parse_config_text(text, source=str(path))


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(float(v), ".17g")


def config_text(cfg: VppConfig, synth: SynthSpec | None = None) -> str:
    """Render a config back to text; parses to an equal config."""
    lines = [
        "# virtual power plant scheduling configuration",
        "",
        f"horizon.T = {cfg.horizon}",
        "",
        "# thermal generator: cost a*g^2 + b*g, output in [g_min, g_max],",
        "# k tCO2 emitted per MWh",
        f"tg.a = {_fmt(cfg.tg.a)}",
        f"tg.b = {_fmt(cfg.tg.b)}",
        f"tg.g_min = {_fmt(cfg.tg.g_min)}",
        f"tg.g_max = {_fmt(cfg.tg.g_max)}",
        f"tg.k = {_fmt(cfg.tg.k)}",
        "",
        f"ess.p_c_max = {_fmt(cfg.ess.p_c_max)}",
        f"ess.p_d_max = {_fmt(cfg.ess.p_d_max)}",
        f"ess.q_max = {_fmt(cfg.ess.q_max)}",
        f"ess.eta_c = {_fmt(cfg.ess.eta_c)}",
        f"ess.eta_d = {_fmt(cfg.ess.eta_d)}",
        "",
    ]
    for name, inv in (("rec_inventory", cfg.rec_inventory), ("cer_inventory", cfg.cer_inventory)):
        lines += [
            f"{name}.enabled = {'true' if inv.enabled else 'false'}",
            f"{name}.w_max = {_fmt(inv.w_max)}",
            f"{name}.d_max = {_fmt(inv.d_max)}",
            f"{name}.i_max = {_fmt(inv.i_max)}",
            "",
        ]
    lines += [
        f"policy.r = {_fmt(cfg.policy.r)}",
        f"policy.alpha = {_fmt(cfg.policy.alpha)}",
        "",
        "# per-hour trade caps; inf disables a cap",
        f"caps.g_cap = {_fmt(cfg.caps.g_cap)}",
        f"caps.r_cap = {_fmt(cfg.caps.r_cap)}",
        f"caps.c_cap = {_fmt(cfg.caps.c_cap)}",
    ]
    if synth is not None:
        lines += ["", "# synthetic market data generator", f"synth.seed = {synth.seed}"]
        for key in _SYNTH_FLOAT_KEYS:
            field = key.split(".", 1)[1]
            lines.append(f"{key} = {_fmt(getattr(synth, field))}")
    return "\n".join(lines) + "\n"


def save_config(path, cfg: VppConfig, synth: SynthSpec | None = None) -> None:
    Path(path).write_text(config_text(cfg, synth))


# ---------------------------------------------------------------------------
# Market data CSV

MARKET_COLUMNS = ("hour", "pi_g", "pi_r", "pi_c", "e", "l")


def save_market_csv(path, data: MarketData) -> None:
    rows = [",".join(MARKET_COLUMNS)]
    for t in range(len(data.pi_g)):
        rows.append(
            f"{t + 1},{_fmt(data.pi_g[t])},{_fmt(data.pi_r[t])},"
            f"{_fmt(data.pi_c[t])},{_fmt(data.e[t])},{_fmt(data.l[t])}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


def load_market_csv(path) -> MarketData:
    return MarketData(**_load_hourly_csv(path, MARKET_COLUMNS, "data"))


def _load_hourly_csv(path, columns: tuple[str, ...], what: str) -> dict[str, np.ndarray]:
    """Read a CSV with header `columns` ("hour" first) as float columns.

    Blank lines are skipped.  Every other row needs one field per column and
    an hour counting 1..T, and at least one such row must follow the header.
    The hour column is dropped from the result.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None:
        raise ConfigError(f"{path}: empty file")
    if tuple(h.strip() for h in header) != columns:
        raise ConfigError(f"{path}:1: header must be {','.join(columns)}")
    cols: dict[str, list[float]] = {c: [] for c in columns[1:]}
    hours = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(columns):
            raise ConfigError(f"{where}: expected {len(columns)} fields, got {len(row)}")
        hours += 1
        if _parse_float("hour", row[0].strip(), where) != hours:
            raise ConfigError(f"{where}: hour column must count 1..T, expected {hours}")
        for name, raw in zip(columns[1:], row[1:]):
            cols[name].append(_parse_float(name, raw.strip(), where))
    if not hours:
        raise ConfigError(f"{path}: no data rows")
    return {k: np.array(v) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# Result files


def save_plan_csv(path, plan: DispatchPlan) -> None:
    rows = ["hour," + ",".join(DispatchPlan.CSV_COLUMNS)]
    for t in range(plan.horizon):
        cells = [str(t + 1)]
        cells += [_fmt(getattr(plan, col)[t]) for col in DispatchPlan.CSV_COLUMNS]
        rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n")


def load_plan_csv(path) -> dict[str, np.ndarray]:
    """Read a plan CSV back as column arrays (hour column dropped)."""
    return _load_hourly_csv(path, ("hour", *DispatchPlan.CSV_COLUMNS), "plan")


DUAL_COLUMNS = ("hour", "lambda_g", "lambda_r", "lambda_c", "omega", "mu", "delta")


def save_duals_csv(path, duals: NamedDuals) -> None:
    """Hourly balance prices plus the two horizon-wide multipliers.

    mu and delta are scalars; they repeat on every row so the file stays
    rectangular.
    """
    rows = [",".join(DUAL_COLUMNS)]
    for t in range(len(duals.lambda_g)):
        rows.append(
            f"{t + 1},{_fmt(duals.lambda_g[t])},{_fmt(duals.lambda_r[t])},"
            f"{_fmt(duals.lambda_c[t])},{_fmt(duals.omega[t])},"
            f"{_fmt(duals.mu)},{_fmt(duals.delta)}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


def load_duals_csv(path) -> dict[str, np.ndarray]:
    return _load_hourly_csv(path, DUAL_COLUMNS, "duals")


def save_sweep_csv(path, sweep: SweepResult) -> None:
    """One row per sweep point; cells a failed point lacks stay empty."""
    rows = [",".join(sweep.CSV_FIELDS)]
    for point in sweep.points:
        d = point.to_dict()
        cells = (d.get(k, "") for k in sweep.CSV_FIELDS)
        rows.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells))
    Path(path).write_text("\n".join(rows) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    return obj


def save_json(path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def breakdown_payload(breakdown: RevenueBreakdown, *, objective: float, status: str,
                      iterations: int) -> dict:
    return {
        "revenue": breakdown.to_dict(),
        "solver": {"status": status, "iterations": iterations, "objective": objective},
    }


def properties_payload(reports: list[PropertyReport], tables: dict[str, CaseTable]) -> dict:
    return {
        "properties": [r.to_dict() for r in reports],
        "case_tables": {k: v.to_dict() for k, v in tables.items()},
        "failing": sorted(r.prop_id for r in reports if not r.holds),
    }


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_payload(version: str, command: str, files: dict[str, Path]) -> dict:
    """Hash every written file; ``files`` keys are paths relative to the output directory."""
    return {
        "tool": "trimarket",
        "version": version,
        "command": command,
        "files": {name: file_sha256(p) for name, p in sorted(files.items())},
    }

"""Config files, market-data CSV, and result serialization.

The config format is deliberately dumb: one ``section.key = value`` pair
per line, ``#`` comments, no nesting.  The parameter dataclasses are its
schema: each field of TgParams, EssParams, InventoryParams, PolicyParams,
TradeCaps and SynthSpec is one key, optional exactly when the field has a
default.  Parse errors carry the file name; an error about one key also
carries its line.  Floats accept ``inf`` so trade caps can be uncapped in a
file.  All writers emit deterministic bytes for a given input (17
significant digits, sorted JSON keys, no timestamps), so a re-run with the
same seed produces byte-identical artifacts.

The hourly CSVs (market data, plan, duals) hold an integer hour and then
one ``%.17g`` cell per column: exactly ``format(float(v), ".17g")``, so
``inf``, ``-inf``, ``nan`` and ``-0`` are written as such and every finite
double reads back equal.  They are written and read a whole table at a
time, not a value at a time.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
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

#: (section, dataclass, comment lines written above it), in file order.
#: Each dataclass field is one ``section.field`` key, required exactly when
#: the field has no default; the annotation picks the value type.
#: ``synth.horizon`` is no key: it comes from ``horizon.T``.
_SECTIONS = (
    ("tg", TgParams, ("# thermal generator: cost a*g^2 + b*g, output in [g_min, g_max],",
                      "# k tCO2 emitted per MWh")),
    ("ess", EssParams, ()),
    ("rec_inventory", InventoryParams, ()),
    ("cer_inventory", InventoryParams, ()),
    ("policy", PolicyParams, ()),
    ("caps", TradeCaps, ("# per-hour trade caps; inf disables a cap",)),
    ("synth", SynthSpec, ("# synthetic market data generator",)),
)


def _section_keys(section: str, cls) -> list[tuple[str, dataclasses.Field]]:
    return [(f"{section}.{f.name}", f) for f in dataclasses.fields(cls) if f.name != "horizon"]


_FIELDS = {key: f for section, cls, _ in _SECTIONS for key, f in _section_keys(section, cls)}
#: every key a config may hold, and the ones it must hold
CONFIG_KEYS = frozenset({"horizon.T", *_FIELDS})
REQUIRED_KEYS = frozenset(
    {"horizon.T", *(k for k, f in _FIELDS.items() if f.default is dataclasses.MISSING)}
)


def _parse_float(key: str, raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} needs a number, got {raw!r}") from None


def _parse_value(key: str, kind: str, raw: str, where: str):
    """Parse ``raw`` as the annotation ``kind`` names: "bool", "int" or "float"."""
    if kind == "bool":
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{where}: {key} needs true/false, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key} needs an integer, got {raw!r}") from None
    return _parse_float(key, raw, where)


def parse_config_text(text: str, source: str = "<config>") -> tuple[VppConfig, SynthSpec]:
    """Parse config text into a model config plus synthetic-data knobs."""
    values: dict[str, tuple[str, str]] = {}  # key -> (raw value, "file:line")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{source}:{lineno}"
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{where}: {key} has no value")
        values[key] = (raw, where)

    missing = REQUIRED_KEYS - values.keys()
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(sorted(missing))}")

    horizon = _parse_value("horizon.T", "int", *values["horizon.T"])
    kwargs = {
        section: {
            f.name: _parse_value(key, f.type, *values[key])
            for key, f in _section_keys(section, cls) if key in values
        }
        for section, cls, _ in _SECTIONS
    }
    cfg = VppConfig(horizon=horizon, **{
        section: cls(**kwargs[section]) for section, cls, _ in _SECTIONS if cls is not SynthSpec
    })
    try:
        synth = SynthSpec(horizon=horizon, **kwargs["synth"])
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
    return format(float(v), ".17g")


#: how config_text writes a field of each annotated type other than float
_RENDER = {"bool": lambda v: "true" if v else "false", "int": str}


def config_text(cfg: VppConfig, synth: SynthSpec | None = None) -> str:
    """Render a config back to text; parses to an equal config."""
    lines = ["# virtual power plant scheduling configuration", "", f"horizon.T = {cfg.horizon}"]
    for section, cls, comments in _SECTIONS if synth is not None else _SECTIONS[:-1]:
        obj = synth if cls is SynthSpec else getattr(cfg, section)
        lines += ["", *comments]
        lines += [f"{key} = {_RENDER.get(f.type, _fmt)(getattr(obj, f.name))}"
                  for key, f in _section_keys(section, cls)]
    return "\n".join(lines) + "\n"


def save_config(path, cfg: VppConfig, synth: SynthSpec | None = None) -> None:
    Path(path).write_text(config_text(cfg, synth))


# ---------------------------------------------------------------------------
# Market data CSV

MARKET_COLUMNS = ("hour", "pi_g", "pi_r", "pi_c", "e", "l")


def save_market_csv(path, data: MarketData) -> None:
    _save_hourly_csv(path, {c: getattr(data, c) for c in MARKET_COLUMNS[1:]})


def load_market_csv(path) -> MarketData:
    return MarketData(**_load_hourly_csv(path, MARKET_COLUMNS, "data"))


def _save_hourly_csv(path, columns: dict[str, np.ndarray | float]) -> None:
    """Write `columns` after an "hour" column counting 1..T, as
    `_load_hourly_csv` reads them.  A scalar column repeats on every row.

    The body is one ``%`` operation over the row-major table: ``%.17g``
    writes each cell as ``format(float(v), ".17g")`` does.
    """
    T = max(np.size(v) for v in columns.values())
    table = np.column_stack(
        [np.arange(1.0, T + 1.0), *(np.broadcast_to(np.asarray(v, dtype=float), (T,))
                                    for v in columns.values())]
    )
    body = ("%d" + ",%.17g" * len(columns) + "\n") * T % tuple(table.ravel().tolist())
    Path(path).write_text(",".join(("hour", *columns)) + "\n" + body)


def _load_hourly_csv(path, columns: tuple[str, ...], what: str) -> dict[str, np.ndarray]:
    """Read a CSV with header `columns` ("hour" first) as float columns.

    Blank lines are skipped.  Every other row needs one field per column and
    an hour counting 1..T, and at least one such row must follow the header.
    The hour column is dropped from the result.  Every field goes through
    one ``map(float, ...)``; an error names the earliest line that fails,
    checking its field count, then its hour, then its other fields.
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
    n = len(columns)
    rows: list[list[str]] = []
    linenos: list[int] = []
    miscount = None  # the first row with the wrong field count ends the table
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n:
            miscount = ConfigError(f"{path}:{lineno}: expected {n} fields, got {len(row)}")
            break
        rows.append(row)
        linenos.append(lineno)
    fields = list(itertools.chain.from_iterable(rows))
    rest = iter(fields)
    try:
        values = list(map(float, rest))
    except ValueError:
        # `rest` stopped just past the field float() rejected
        values = list(map(float, fields[: len(fields) - len(list(rest)) - 1]))
    hours = np.array(values[::n])  # of the rows whose hour field parsed
    wrong = np.flatnonzero(hours != np.arange(1, len(hours) + 1))
    if wrong.size:
        row = int(wrong[0])
        raise ConfigError(f"{path}:{linenos[row]}: hour column must count 1..T, expected {row + 1}")
    if len(values) < len(fields):
        row, col = divmod(len(values), n)
        raise ConfigError(f"{path}:{linenos[row]}: {columns[col]} needs a number, "
                          f"got {fields[len(values)].strip()!r}")
    if miscount is not None:
        raise miscount
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    table = np.array(values).reshape(-1, n).T.copy()
    return dict(zip(columns[1:], table[1:]))


# ---------------------------------------------------------------------------
# Result files


def save_plan_csv(path, plan: DispatchPlan) -> None:
    _save_hourly_csv(path, {c: getattr(plan, c) for c in DispatchPlan.CSV_COLUMNS})


def load_plan_csv(path) -> dict[str, np.ndarray]:
    """Read a plan CSV back as column arrays (hour column dropped)."""
    return _load_hourly_csv(path, ("hour", *DispatchPlan.CSV_COLUMNS), "plan")


DUAL_COLUMNS = ("hour", "lambda_g", "lambda_r", "lambda_c", "omega", "mu", "delta")


def save_duals_csv(path, duals: NamedDuals) -> None:
    """Hourly balance prices; the horizon-wide scalars mu and delta repeat
    on every row so the file stays rectangular."""
    _save_hourly_csv(path, {c: getattr(duals, c) for c in DUAL_COLUMNS[1:]})


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

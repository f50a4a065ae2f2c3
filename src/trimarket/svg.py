"""Self-contained SVG charts for schedules, sweeps and comparisons.

No plotting dependency: the few chart shapes the CLI needs (multi-series
lines, signed bars, grouped bars) are emitted directly as SVG text.
Rendering is deterministic: fixed canvas, fixed palette, coordinates
rounded to 1/100 px, so identical inputs give identical bytes.  A
coordinate is written as ``%.2f`` with its trailing zeros, and then a
trailing point, trimmed (``12.50`` as ``12.5``, ``3.00`` as ``3``, ``-0.00``
as ``-0``).  A line chart's points are computed as arrays by the same
expressions, in the same order, as one point at a time, so each double,
and each byte, is the same.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .model import DispatchPlan, MarketData
from .scenarios import InventoryMatrixResult, SweepResult, MATRIX_CELLS

WIDTH, HEIGHT = 800, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 44, 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _num(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


#: the zeros `_num` trims, in a string of ``%.2f`` numbers
_TRAILING_ZEROS = re.compile(r"\.?0+(?=[ ,]|$)")


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """``_num(x),_num(y)`` for each point, space-separated, in one ``%`` operation."""
    pts = ("%.2f,%.2f " * len(xs))[:-1] % tuple(np.column_stack((xs, ys)).ravel().tolist())
    return _TRAILING_ZEROS.sub("", pts)


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    # a spread below float resolution would yield a step too small to
    # advance v; widen to something representable first
    if hi - lo <= 4.0 * np.spacing(max(1.0, abs(lo), abs(hi))):
        pad = max(1.0, abs(hi))
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step and len(out) < 4 * target:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="26" text-anchor="middle" {FONT} font-size="16">{_esc(title)}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle" {FONT} font-size="12">{_esc(x_label)}</text>',
            f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" {FONT} font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT / 2})">{_esc(y_label)}</text>',
        ]
        self.x0, self.x1 = MARGIN_L, WIDTH - MARGIN_R
        self.y0, self.y1 = HEIGHT - MARGIN_B, MARGIN_T

    def sx(self, v: float, lo: float, hi: float) -> float:
        return self.x0 + (v - lo) / (hi - lo) * (self.x1 - self.x0)

    def sy(self, v: float, lo: float, hi: float) -> float:
        return self.y0 + (v - lo) / (hi - lo) * (self.y1 - self.y0)

    def axes(self, xlo, xhi, ylo, yhi, x_ticks=None):
        for v in _ticks(ylo, yhi):
            y = _num(self.sy(v, ylo, yhi))
            self.parts.append(
                f'<line x1="{self.x0}" y1="{y}" x2="{self.x1}" y2="{y}" stroke="#dddddd" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{self.x0 - 6}" y="{y}" text-anchor="end" dominant-baseline="middle" '
                f'{FONT} font-size="11">{_tick_label(v)}</text>'
            )
        for v in x_ticks if x_ticks is not None else _ticks(xlo, xhi, 8):
            x = _num(self.sx(v, xlo, xhi))
            self.parts.append(
                f'<line x1="{x}" y1="{self.y0}" x2="{x}" y2="{self.y0 + 4}" stroke="#444444" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{x}" y="{self.y0 + 16}" text-anchor="middle" {FONT} font-size="11">{_tick_label(v)}</text>'
            )
        self.parts.append(
            f'<rect x="{self.x0}" y="{self.y1}" width="{self.x1 - self.x0}" '
            f'height="{self.y0 - self.y1}" fill="none" stroke="#444444" stroke-width="1"/>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _y_range(arrays) -> tuple[float, float]:
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    # near-constant data (equal up to solver noise) gets an absolute pad
    if hi - lo <= 1e-9 * max(1.0, abs(lo), abs(hi)):
        pad = max(1.0, abs(hi))
        return lo - pad, hi + pad
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def render_line_chart(title: str, x_label: str, y_label: str, x, series) -> str:
    """series: list of (label, values) drawn in palette order."""
    x = np.asarray(x, dtype=float)
    cv = _Canvas(title, x_label, y_label)
    ylo, yhi = _y_range([np.asarray(v, dtype=float) for _, v in series])
    xlo, xhi = float(np.min(x)), float(np.max(x))
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    cv.axes(xlo, xhi, ylo, yhi)
    if ylo < 0 < yhi:
        y = _num(cv.sy(0.0, ylo, yhi))
        cv.parts.append(
            f'<line x1="{cv.x0}" y1="{y}" x2="{cv.x1}" y2="{y}" stroke="#888888" stroke-width="1"/>'
        )
    px = cv.sx(x, xlo, xhi)
    for i, (label, vals) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = _points(px, cv.sy(np.asarray(vals, dtype=float), ylo, yhi))
        cv.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        lx = cv.x1 - 150
        ly = MARGIN_T + 8 + 16 * i
        cv.parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="3"/>'
        )
        cv.parts.append(
            f'<text x="{lx + 28}" y="{ly}" dominant-baseline="middle" {FONT} font-size="12">{_esc(label)}</text>'
        )
    return cv.finish()


def render_bar_chart(title: str, x_label: str, y_label: str, labels, values,
                     annotations=None) -> str:
    """Signed bars with category labels; optional text above each bar."""
    values = [float(v) for v in values]
    cv = _Canvas(title, x_label, y_label)
    ylo, yhi = _y_range([np.array(values + [0.0])])
    n = len(values)
    cv.axes(0, n, ylo, yhi, x_ticks=[])
    base = cv.sy(0.0, ylo, yhi)
    slot = (cv.x1 - cv.x0) / n
    for i, (label, v) in enumerate(zip(labels, values)):
        color = PALETTE[i % len(PALETTE)]
        x = cv.x0 + slot * (i + 0.15)
        w = slot * 0.7
        top = cv.sy(v, ylo, yhi)
        y, h = (top, base - top) if v >= 0 else (base, top - base)
        cv.parts.append(
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
            f'fill="{color}" fill-opacity="0.85"/>'
        )
        cx = _num(x + w / 2)
        cv.parts.append(
            f'<text x="{cx}" y="{cv.y0 + 16}" text-anchor="middle" {FONT} font-size="12">{_esc(str(label))}</text>'
        )
        if annotations is not None:
            ty = _num(min(y, base) - 6)
            cv.parts.append(
                f'<text x="{cx}" y="{ty}" text-anchor="middle" {FONT} font-size="11">{_esc(str(annotations[i]))}</text>'
            )
    cv.parts.append(
        f'<line x1="{cv.x0}" y1="{_num(base)}" x2="{cv.x1}" y2="{_num(base)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    return cv.finish()


# ---------------------------------------------------------------------------
# Chart sets used by the CLI


def _daily_sums(values: np.ndarray) -> np.ndarray:
    T = len(values)
    days = (T + 23) // 24
    out = np.zeros(days)
    for d in range(days):
        out[d] = values[24 * d : 24 * (d + 1)].sum()
    return out


def run_charts(plan: DispatchPlan, data: MarketData) -> dict[str, str]:
    """Charts for a single solved schedule, keyed by file stem."""
    hours = np.arange(1, plan.horizon + 1)
    days = np.arange(1, (plan.horizon + 23) // 24 + 1)
    rec_daily = _daily_sums(data.pi_r * plan.R)
    cer_daily = _daily_sums(data.pi_c * plan.C)
    return {
        "tg_output": render_line_chart(
            "Thermal generator output", "hour", "MW", hours, [("g", plan.g)]
        ),
        "ess_soc": render_line_chart(
            "Storage state of charge", "hour", "MWh", hours, [("q", plan.q)]
        ),
        "rec_inventory": render_line_chart(
            "REC inventory level", "hour", "certificates", hours, [("i_r", plan.i_r)]
        ),
        "cer_inventory": render_line_chart(
            "CER inventory level", "hour", "certificates", hours, [("i_c", plan.i_c)]
        ),
        "trading_quantities": render_line_chart(
            "Hourly trades (sell positive)", "hour", "quantity", hours,
            [("electricity G", plan.G), ("REC R", plan.R), ("CER C", plan.C)],
        ),
        "rec_daily_profit": render_bar_chart(
            "REC trading income by day", "day", "$", days, rec_daily
        ),
        "cer_daily_profit": render_bar_chart(
            "CER trading income by day", "day", "$", days, cer_daily
        ),
    }


def matrix_chart(matrix: InventoryMatrixResult) -> dict[str, str]:
    profits = [matrix.breakdowns[c].profit for c in MATRIX_CELLS]
    notes = [f"{matrix.improvements_pct[c]:+.2f}%" for c in MATRIX_CELLS]
    return {
        "inventory_comparison": render_bar_chart(
            "Profit by inventory enablement", "inventories enabled", "$ per horizon",
            MATRIX_CELLS, profits, annotations=notes,
        )
    }


def sweep_charts(sweep: SweepResult) -> dict[str, str]:
    """One chart per revenue component along the sweep grid."""
    ok = [p for p in sweep.points if p.breakdown is not None]
    if not ok:
        return {}
    xs = [p.value for p in ok]
    out = {}
    pretty = {"r": "RPS level r", "alpha": "quota strictness alpha"}
    for comp in ("rev_g", "rev_r", "rev_c", "cost_g", "profit"):
        ys = [getattr(p.breakdown, comp) for p in ok]
        out[f"sweep_{sweep.param}_{comp}"] = render_line_chart(
            f"{comp} vs {pretty[sweep.param]}", pretty[sweep.param], "$", xs, [(comp, ys)]
        )
    return out


def save_charts(out_dir, charts: dict[str, str]) -> dict[str, Path]:
    """Write each chart to ``out_dir``; keys are paths relative to its parent.

    ``out_dir`` is created only when there is a chart to write.
    """
    out_dir = Path(out_dir)
    if charts:
        out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, svg in charts.items():
        p = out_dir / f"{name}.svg"
        p.write_text(svg)
        written[f"{out_dir.name}/{name}.svg"] = p
    return written

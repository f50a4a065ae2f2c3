import ast
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trimarket.analysis
import trimarket.cli as cli
from trimarket import __version__
from trimarket.analysis import PropertyReport
from trimarket.cli import _model_warnings_on_stderr, main
from trimarket.config_io import (
    CONFIG_KEYS,
    DUAL_COLUMNS,
    REQUIRED_KEYS,
    ConfigError,
    _save_hourly_csv,
    config_text,
    load_config,
    load_duals_csv,
    load_market_csv,
    load_plan_csv,
    parse_config_text,
    save_config,
    save_duals_csv,
    save_json,
    save_market_csv,
    save_plan_csv,
)
from trimarket.model import TradeCaps, default_config, recover_plan
from trimarket.scenarios import SynthSpec, synth_data
from trimarket.svg import (_Canvas, _num, _points, _ticks, _y_range, render_bar_chart,
                           render_line_chart, run_charts)

from _instances import hand_case, solve


# ---------------------------------------------------------------------------
# Config format

#: the config keys and the required ones, as the file format fixes them
ACCEPTED = [
    "horizon.T",
    "tg.a", "tg.b", "tg.g_min", "tg.g_max", "tg.k",
    "ess.p_c_max", "ess.p_d_max", "ess.q_max", "ess.eta_c", "ess.eta_d",
    "rec_inventory.w_max", "rec_inventory.d_max", "rec_inventory.i_max", "rec_inventory.enabled",
    "cer_inventory.w_max", "cer_inventory.d_max", "cer_inventory.i_max", "cer_inventory.enabled",
    "policy.r", "policy.alpha",
    "caps.g_cap", "caps.r_cap", "caps.c_cap",
    "synth.seed", "synth.wind_base", "synth.wind_amplitude", "synth.wind_phase",
    "synth.wind_noise", "synth.pv_peak", "synth.pv_noise", "synth.load_base",
    "synth.load_morning", "synth.load_evening", "synth.load_noise", "synth.price_offpeak",
    "synth.price_mid", "synth.price_peak", "synth.rec_price_lo", "synth.rec_price_hi",
    "synth.cer_price_lo", "synth.cer_price_hi",
]
REQUIRED = [
    "horizon.T",
    "tg.a", "tg.b", "tg.g_min", "tg.g_max", "tg.k",
    "ess.p_c_max", "ess.p_d_max", "ess.q_max",
    "rec_inventory.w_max", "rec_inventory.d_max", "rec_inventory.i_max",
    "cer_inventory.w_max", "cer_inventory.d_max", "cer_inventory.i_max",
    "policy.r", "policy.alpha",
]



class TestConfigFormat:
    def test_round_trip(self):
        cfg = default_config(24)
        synth = SynthSpec(horizon=24, seed=3, wind_noise=0.0)
        cfg2, synth2 = parse_config_text(config_text(cfg, synth))
        assert cfg2 == cfg
        assert synth2 == synth
        # an uncapped config writes and reads back its infinite caps
        uncapped = cfg.with_caps(g_cap=np.inf, r_cap=np.inf, c_cap=np.inf)
        text = config_text(uncapped, synth)
        assert "caps.g_cap = inf\ncaps.r_cap = inf\ncaps.c_cap = inf\n" in text
        assert parse_config_text(text) == (uncapped, synth)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'tg\.z'"):
            parse_config_text("horizon.T = 4\ntg.a = 1\ntg.z = 9\n", source="cfg")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("tg.a = 1\ntg.a = 2\n", source="cfg")

    def test_bad_number(self):
        text = config_text(default_config(4)).replace("tg.a = 1", "tg.a = fast")
        with pytest.raises(ConfigError, match=r"^cfg:7: tg\.a needs a number, got 'fast'$"):
            parse_config_text(text, source="cfg")

    @pytest.mark.parametrize("old, new, message", [
        ("horizon.T = 4", "horizon.T = 4.5", "cfg:3: horizon.T needs an integer, got '4.5'"),
        ("rec_inventory.enabled = true", "rec_inventory.enabled = maybe",
         "cfg:22: rec_inventory.enabled needs true/false, got 'maybe'"),
        ("tg.a = 1", "tg.a 1", "cfg:7: expected 'key = value', got 'tg.a 1'"),
        ("tg.a = 1", "tg.a =", "cfg:7: tg.a has no value"),
    ], ids=["int", "bool", "no-equals", "no-value"])
    def test_value_errors_report_line(self, old, new, message):
        text = config_text(default_config(4)).replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, source="cfg")
        assert str(err.value) == message

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required keys.*policy.r"):
            parse_config_text("horizon.T = 4\n", source="cfg")

    def test_bad_boolean(self):
        text = config_text(default_config(4)).replace(
            "rec_inventory.enabled = true", "rec_inventory.enabled = maybe"
        )
        with pytest.raises(ConfigError, match="true/false"):
            parse_config_text(text)

    def test_infinite_caps_survive(self):
        cfg = default_config(4).with_caps(r_cap=np.inf)
        cfg2, _ = parse_config_text(config_text(cfg))
        assert np.isinf(cfg2.caps.r_cap)

    def test_comments_and_blank_lines_ignored(self):
        text = "# hello\n\n" + config_text(default_config(4)) + "\n# bye\n"
        cfg, _ = parse_config_text(text)
        assert cfg.horizon == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")

    def test_missing_market_csv(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read data"):
            load_market_csv(tmp_path / "nope.csv")

    def test_bundled_defaults_match_code_defaults(self):
        import trimarket

        bundled = Path(trimarket.__file__).parent / "data" / "defaults.cfg"
        cfg, synth = load_config(bundled)
        assert cfg == default_config(168)
        assert synth == SynthSpec()


    def test_bundled_defaults_are_written_by_config_text(self):
        import trimarket

        bundled = Path(trimarket.__file__).parent / "data" / "defaults.cfg"
        assert bundled.read_text() == config_text(default_config(168), SynthSpec())

    def test_key_sets_pinned(self):
        assert (len(ACCEPTED), len(REQUIRED)) == (42, 17)
        assert CONFIG_KEYS == set(ACCEPTED)
        assert REQUIRED_KEYS == set(REQUIRED)
        text = config_text(default_config(4), SynthSpec(horizon=4))
        written = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
        assert sorted(written) == sorted(ACCEPTED)
        with pytest.raises(ConfigError) as err:
            parse_config_text("", source="cfg")
        assert str(err.value) == "cfg: missing required keys: " + ", ".join(sorted(REQUIRED))

    def test_required_keys_alone_take_the_defaults(self):
        text = config_text(default_config(4))
        kept = [line for line in text.splitlines() if line.split(" = ")[0] in REQUIRED]
        cfg, synth = parse_config_text("\n".join(kept))
        assert cfg.caps == TradeCaps(np.inf, np.inf, np.inf)
        assert (cfg.ess.eta_c, cfg.ess.eta_d) == (1.0, 1.0)
        assert cfg.rec_inventory.enabled and cfg.cer_inventory.enabled
        assert synth == SynthSpec(horizon=4)

    def test_negative_synth_seed(self):
        text = config_text(default_config(4), SynthSpec(horizon=4))
        with pytest.raises(ConfigError, match="^cfg: seed must be nonnegative$"):
            parse_config_text(text.replace("synth.seed = 7", "synth.seed = -1"), source="cfg")


# ---------------------------------------------------------------------------
# CSV formats


class TestMarketCsv:
    def test_round_trip_exact(self, tmp_path):
        data = synth_data(SynthSpec(horizon=30))
        f = tmp_path / "m.csv"
        save_market_csv(f, data)
        back = load_market_csv(f)
        for name in ("pi_g", "pi_r", "pi_c", "e", "l"):
            np.testing.assert_array_equal(getattr(back, name), getattr(data, name))

    def test_header_enforced(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("hour,pg,pr,pc,e,l\n1,1,1,1,1,1\n")
        with pytest.raises(ConfigError, match="header"):
            load_market_csv(f)

    def test_hours_must_count_up(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("hour,pi_g,pi_r,pi_c,e,l\n1,1,1,1,1,1\n3,1,1,1,1,1\n")
        with pytest.raises(ConfigError, match=r"m\.csv:3.*expected 2"):
            load_market_csv(f)

    def test_field_count(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("hour,pi_g,pi_r,pi_c,e,l\n1,1,1,1,1\n")
        with pytest.raises(ConfigError, match="expected 6 fields"):
            load_market_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_market_csv(f)


class TestResultFiles:
    def test_plan_round_trip(self, tmp_path):
        cfg, data = hand_case()
        _, p, sol = solve(cfg, data)
        plan = recover_plan(sol.x, p.layout)
        f = tmp_path / "plan.csv"
        save_plan_csv(f, plan)
        back = load_plan_csv(f)
        for col in plan.CSV_COLUMNS:
            np.testing.assert_array_equal(back[col], getattr(plan, col))

    def test_duals_round_trip(self, tmp_path):
        from trimarket.analysis import named_duals

        cfg, data = hand_case()
        _, p, sol = solve(cfg, data)
        d = named_duals(p, sol)
        f = tmp_path / "duals.csv"
        save_duals_csv(f, d)
        back = load_duals_csv(f)
        np.testing.assert_array_equal(back["lambda_g"], d.lambda_g)
        assert back["mu"][0] == d.mu and back["delta"][0] == d.delta

    @pytest.mark.parametrize("kind", ["market", "plan", "duals"])
    def test_hourly_readers_share_checks(self, tmp_path, kind):
        from trimarket.analysis import named_duals

        cfg, data = hand_case()
        _, p, sol = solve(cfg, data)
        save, loader, value = {
            "market": (save_market_csv, load_market_csv, data),
            "plan": (save_plan_csv, load_plan_csv, recover_plan(sol.x, p.layout)),
            "duals": (save_duals_csv, load_duals_csv, named_duals(p, sol)),
        }[kind]
        f = tmp_path / "r.csv"
        save(f, value)
        header, row = f.read_text().splitlines()
        names = header.split(",")
        n_fields = len(names)
        cells = row.split(",")

        def line(hour, col=None, cell=None, end="\n"):
            out = [str(hour), *cells[1:]]
            if col is not None:
                out[col] = cell
            return ",".join(out) + end

        for text, match in (
            ("", "empty file"),
            (header + "\n", "no data rows"),
            ("hour,x\n" + row + "\n", "header must be"),
            (header + "\n" + row + ",1\n", rf"r\.csv:2: expected {n_fields} fields"),
            (header + "\n2" + row[1:] + "\n", r"r\.csv:2: hour column must count 1\.\.T"),
            # a blank line is skipped but keeps its number
            (header + "\n\n2" + row[1:] + "\n", r"r\.csv:3: hour column must count 1\.\.T"),
            (header + "\n" + line(1, 3, " x "),
             rf"^{re.escape(str(f))}:2: {names[3]} needs a number, got 'x'$"),
            (header + "\n" + line(1, 0, "one"),
             rf"^{re.escape(str(f))}:2: hour needs a number, got 'one'$"),
            # on one line: the hour is checked before the fields after it
            (header + "\n" + line(1) + line(3, 2, "x"), r"r\.csv:3: hour column must count"),
            # on two lines: the earlier one is reported, whichever check it fails
            (header + "\n" + line(1, end=",1\n") + line(2, 4, "x"),
             rf"r\.csv:2: expected {n_fields} fields"),
            (header + "\n" + line(1, 4, "x") + line(2, end=",1\n"),
             rf"r\.csv:2: {names[4]} needs a number"),
            (header + "\n" + line(1) + line(2, 5, "") + line(4),
             rf"r\.csv:3: {names[5]} needs a number, got ''"),
        ):
            f.write_text(text)
            with pytest.raises(ConfigError, match=match):
                loader(f)

        # a quoted field, a field with spaces and one with a digit separator
        f.write_text(header + "\n" + ",".join(["1", '"1.5"', " 2.5 ", "1_0", *cells[4:]]) + "\n")
        back = loader(f)
        back = vars(back) if kind == "market" else back
        assert [back[name][0] for name in names[1:4]] == [1.5, 2.5, 10.0]

    def test_hourly_writer_matches_per_value_reference(self, tmp_path):
        v = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, 3.0, -42.0, 1e16, 0.1, 1 / 3])
        # mu and delta are scalars, repeated on every row as in duals.csv
        columns = dict(zip(DUAL_COLUMNS[1:], (v, v[::-1], -v, np.roll(v, 3), 2.5, -0.0)))
        f = tmp_path / "duals.csv"
        _save_hourly_csv(f, columns)
        cols = [np.broadcast_to(c, v.shape) for c in columns.values()]
        expected = [",".join(DUAL_COLUMNS)] + [
            ",".join([str(t + 1), *(format(float(c[t]), ".17g") for c in cols)])
            for t in range(len(v))
        ]
        assert f.read_text() == "\n".join(expected) + "\n"
        back = load_duals_csv(f)
        for name, col in zip(columns, cols):
            np.testing.assert_array_equal(back[name], col)
            signed = ~np.isnan(col)  # the format gives NaN no sign
            np.testing.assert_array_equal(np.signbit(back[name][signed]), np.signbit(col[signed]))

    def test_json_handles_numpy_and_non_finite(self, tmp_path):
        f = tmp_path / "x.json"
        save_json(f, {"a": np.float64(1.5), "b": np.inf, "c": [np.int64(2)], "d": np.nan,
                      "e": np.array([[0.5, -np.inf], [np.nan, 2.0]])})
        loaded = json.loads(f.read_text())
        assert loaded == {"a": 1.5, "b": "inf", "c": [2], "d": "nan",
                          "e": [[0.5, "-inf"], ["nan", 2.0]]}


# ---------------------------------------------------------------------------
# SVG rendering


class TestSvg:
    def test_line_chart_is_wellformed_and_deterministic(self):
        x = np.arange(1, 11)
        a = render_line_chart("t", "x", "y", x, [("s", np.sin(x))])
        b = render_line_chart("t", "x", "y", x, [("s", np.sin(x))])
        assert a == b
        root = ET.fromstring(a)
        assert root.tag.endswith("svg")

    @staticmethod
    def _reference_points(x, series) -> list[str]:
        """Each series' points, written one `_num` at a time."""
        cv = _Canvas("t", "x", "y")
        x = np.asarray(x, dtype=float)
        xlo, xhi = float(np.min(x)), float(np.max(x))
        if xhi - xlo < 1e-12:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        ylo, yhi = _y_range([np.asarray(v, dtype=float) for v in series])
        return [" ".join(f"{_num(cv.sx(xv, xlo, xhi))},{_num(cv.sy(yv, ylo, yhi))}"
                         for xv, yv in zip(x, np.asarray(v, dtype=float))) for v in series]

    def test_polylines_match_per_point_reference(self):
        # x pixels at 72.005, 99.995 and their neighbours; the x axis runs
        # from pixel 72 at x = 0 to pixel 776 at x = 704
        targets = np.array([72.001, 72.005, 72.0049999, 99.995, 100.005, 112.345, 72.0, 775.995])
        x = np.concatenate(([0.0], targets - 72.0, [704.0]))
        rng = np.random.default_rng(3)
        base = np.concatenate(([0.0], rng.uniform(0.0, 10.0, len(targets)), [10.0]))
        # y values landing on pixels 99.995, 100.005 and 200.125 of the first series
        ylo, yhi = _y_range([base])
        base[1:4] = ylo + (np.array([99.995, 100.005, 200.125]) - 368.0) / -324.0 * (yhi - ylo)
        cases = [
            (x, [base, -base, rng.normal(size=len(x)) * 1e-3]),
            (x, [np.full(len(x), 5.0)]),  # constant: the range is padded
            (x, [np.full(len(x), -1e-12)]),
            ([1, 2], [[3.0, 4.0]]),
            ([1, 2], [[0.0, 0.0], [1e-300, -1e-300]]),
        ]
        for xs, series in cases:
            svg = render_line_chart("t", "x", "y", xs, [(f"s{i}", v) for i, v in enumerate(series)])
            got = re.findall(r'<polyline points="([^"]*)"', svg)
            assert got == self._reference_points(xs, series)
        # a chart's pixels lie on its canvas; the points' writer alone
        # meets one that rounds to -0.00
        xs = np.array([-0.001, -0.005, 0.005, 0.0049999, 99.995, 100.005, 12.345, 0.0])
        assert _points(xs, xs[::-1]) == " ".join(f"{_num(u)},{_num(v)}"
                                                for u, v in zip(xs, xs[::-1]))
        assert _points(xs, xs).startswith("-0,-0 ")

    def test_line_chart_spans_a_descending_x(self):
        # the x range is the data's min and max, whatever their order: the
        # reversed series draws the same points, in reverse, on the canvas
        x, y = np.array([0.1, 0.5, 0.9]), np.array([3.0, 1.0, 2.0])
        up, down = (re.findall(r'<polyline points="([^"]*)"',
                               render_line_chart("t", "x", "y", xs, [("s", ys)]))[0].split()
                    for xs, ys in ((x, y), (x[::-1], y[::-1])))
        assert down == up[::-1]
        cv = _Canvas("t", "x", "y")
        assert [float(pt.split(",")[0]) for pt in up] == [cv.x0, (cv.x0 + cv.x1) / 2, cv.x1]

    def test_bar_chart_handles_negative_values(self):
        svg = render_bar_chart("t", "x", "y", ["a", "b"], [5.0, -3.0], annotations=["+5", "-3"])
        ET.fromstring(svg)
        assert svg.count("<rect") >= 3

    def test_line_chart_of_one_x_value(self):
        # a one-point x range is widened by 0.5 each side: the point sits
        # in the middle of the x axis
        svg = render_line_chart("t", "x", "y", [3.0], [("s", [1.0])])
        ET.fromstring(svg)
        cv = _Canvas("t", "x", "y")
        (pt,) = re.findall(r'<polyline points="([^"]*)"', svg)[0].split()
        assert float(pt.split(",")[0]) == (cv.x0 + cv.x1) / 2

    def test_line_chart_of_an_x_range_below_float_resolution(self):
        # two x values 1e-6 apart at 1e10, within 4 ulps of each other:
        # the tick range is widened to one the step can advance through,
        # so the ticks are distinct rather than 32 copies of one value
        svg = render_line_chart("t", "x", "y", [1e10, 1e10 + 1e-6], [("s", [1.0, 2.0])])
        ET.fromstring(svg)
        ticks = _ticks(1e10, 1e10 + 1e-6, 8)
        assert 1 < len(ticks) == len(set(ticks))
        assert ticks[0] <= 1e10 and ticks[-1] >= 1e10 + 1e-6

    def test_escaping(self):
        svg = render_line_chart("a<b>&\"c\"", "x", "y", [1, 2], [("s", [1, 2])])
        ET.fromstring(svg)

    def test_run_chart_registry(self, base_result, base_data):
        charts = run_charts(base_result.plan, base_data)
        assert set(charts) == {
            "tg_output",
            "ess_soc",
            "rec_inventory",
            "cer_inventory",
            "trading_quantities",
            "rec_daily_profit",
            "cer_daily_profit",
        }
        for svg in charts.values():
            ET.fromstring(svg)


# ---------------------------------------------------------------------------
# Command line


@pytest.fixture()
def workdir(tmp_path):
    cfg = default_config(24)
    synth = SynthSpec(horizon=24)
    save_config(tmp_path / "model.cfg", cfg, synth)
    save_market_csv(tmp_path / "market.csv", synth_data(synth))
    return tmp_path


class TestCli:
    def test_gen_data_and_seed_override(self, workdir, capsys):
        out = workdir / "gen.csv"
        assert main(["gen-data", "--config", str(workdir / "model.cfg"), "--out", str(out)]) == 0
        base = out.read_bytes()
        assert main(
            ["gen-data", "--config", str(workdir / "model.cfg"), "--out", str(out), "--seed", "9"]
        ) == 0
        assert out.read_bytes() != base

    def test_gen_data_negative_seed(self, workdir, capsys):
        out = workdir / "gen.csv"
        rc = main(["gen-data", "--config", str(workdir / "model.cfg"), "--out", str(out),
                   "--seed", "-1"])
        assert rc == 1
        assert "error: --seed: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("synth.wind_noise = nan", "wind_noise must be finite, got nan"),
        ("synth.price_peak = -5", "price_peak must be nonnegative"),
    ], ids=["nan-noise", "negative-price"])
    def test_gen_data_rejects_bad_synth_knob(self, workdir, capsys, line, message):
        cfg = workdir / "model.cfg"
        key = line.split(" = ")[0]
        text = "\n".join(line if row.startswith(key + " ") else row
                         for row in cfg.read_text().splitlines())
        cfg.write_text(text + "\n")
        out = workdir / "gen.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["solve"], ["sweep", "--param", "alpha", "--grid", "0.1,0.2"]], ids=["solve", "sweep"])
    @pytest.mark.parametrize("old, new, message", [
        ("ess.eta_d = 1", "ess.eta_d = 1e-320", "1 / ess.eta_d overflows to inf"),
        ("tg.g_max = 80", "tg.g_max = 1e308",
         "the CER quota tg.g_max * tg.k * horizon.T * policy.alpha overflows to inf"),
    ], ids=["subnormal-eta_d", "huge-g_max"])
    def test_overflowing_coefficient_exits_one(self, workdir, capsys, command, old, new, message):
        # each parameter is finite and in its domain, but the coefficient
        # assembled from it is not: an infinite a_eq or coupling
        # right-hand side once reached HiGHS, whose input check raised
        # through main
        cfg = workdir / "model.cfg"
        assert f"\n{old}\n" in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(f"\n{old}\n", f"\n{new}\n"))
        rc = main([*command, "--config", str(cfg), "--data", str(workdir / "market.csv"),
                   "--out", str(workdir / "run"), "--no-plots"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_load_is_not_read_as_infeasible(self, workdir, capsys):
        # this feasible model once exited 2 with "balance equations
        # conflict with variable bounds", when an LP solver that read the
        # balance row's right-hand side of 1e20 as infinite diagnosed it.
        # The diagnosis's elastic LPs diverge with the load as the solve
        # does and leave it undecided, and the solve ends as an iteration
        # limit
        cfg = workdir / "model.cfg"
        cfg.write_text(re.sub(r"(caps\.\w_cap) = 400", r"\1 = inf", cfg.read_text()))
        data = load_market_csv(workdir / "market.csv")
        l = data.l.copy()
        l[5] = 1e20
        save_market_csv(workdir / "market.csv", dataclasses.replace(data, l=l))
        rc = main(["solve", "--config", str(cfg), "--data", str(workdir / "market.csv"),
                   "--out", str(workdir / "run"), "--properties", "none", "--no-plots"])
        assert rc == 1
        assert capsys.readouterr().err == "solver failed: diverging iterates\n"

    def test_non_finite_parameter_exits_one(self, workdir, capsys):
        cfg = workdir / "model.cfg"
        cfg.write_text(cfg.read_text().replace("caps.g_cap = 400", "caps.g_cap = -inf"))
        rc = main(["solve", "--config", str(cfg), "--data", str(workdir / "market.csv"),
                   "--out", str(workdir / "run"), "--properties", "none", "--no-plots"])
        assert rc == 1
        assert "error: caps.g_cap must be >= 0, got -inf" in capsys.readouterr().err

    def test_solve_writes_artifacts(self, workdir, capsys):
        run = workdir / "run"
        rc = main(
            [
                "solve",
                "--config", str(workdir / "model.cfg"),
                "--data", str(workdir / "market.csv"),
                "--out", str(run),
            ]
        )
        assert rc == 0
        for name in ("plan.csv", "duals.csv", "breakdown.json", "properties.json", "manifest.json"):
            assert (run / name).exists()
        assert (run / "charts" / "tg_output.svg").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["tool"] == "trimarket"
        assert manifest["version"] == __version__
        props = json.loads((run / "properties.json").read_text())
        assert props["failing"] == []

    def test_solve_no_plots_and_none_properties(self, workdir, capsys):
        run = workdir / "bare"
        rc = main(
            [
                "solve",
                "--config", str(workdir / "model.cfg"),
                "--data", str(workdir / "market.csv"),
                "--out", str(run),
                "--no-plots",
                "--properties", "none",
            ]
        )
        assert rc == 0
        assert not (run / "charts").exists()
        assert not (run / "properties.json").exists()

    def test_solve_is_deterministic(self, workdir, capsys):
        args = [
            "solve",
            "--config", str(workdir / "model.cfg"),
            "--data", str(workdir / "market.csv"),
        ]
        assert main(args + ["--out", str(workdir / "r1")]) == 0
        assert main(args + ["--out", str(workdir / "r2")]) == 0
        a = (workdir / "r1" / "manifest.json").read_bytes()
        b = (workdir / "r2" / "manifest.json").read_bytes()
        assert a == b

    def test_check_pass_and_tamper(self, workdir, capsys):
        run = workdir / "run"
        base = [
            "--config", str(workdir / "model.cfg"),
            "--data", str(workdir / "market.csv"),
        ]
        assert main(["solve", *base, "--out", str(run)]) == 0
        assert main(["check", *base, "--run", str(run), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "CHECK PASSED" in out

        breakdown = (run / "breakdown.json").read_text()
        (run / "breakdown.json").write_text(breakdown.replace('"status"', '"status" '))
        assert main(["check", *base, "--run", str(run), "--strict"]) == 3
        out = capsys.readouterr().out
        assert "[fail] breakdown.json" in out and "CHECK FAILED" in out
        (run / "breakdown.json").write_text(breakdown)
        (run / "manifest.json").rename(run / "kept.json")
        assert main(["check", *base, "--run", str(run)]) == 3
        assert "[fail] manifest.json" in capsys.readouterr().out
        (run / "kept.json").rename(run / "manifest.json")

        plan = (run / "plan.csv").read_text().splitlines()
        cells = plan[5].split(",")
        cells[1] = format(float(cells[1]) + 25.0, ".17g")
        plan[5] = ",".join(cells)
        (run / "plan.csv").write_text("\n".join(plan) + "\n")
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out
        assert "CHECK FAILED" in out

    def test_check_fails_on_non_finite_plan_cell(self, workdir, capsys):
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        self._rewrite_cell(run / "plan.csv", 4, 1, lambda v: "nan")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["files"]["plan.csv"] = hashlib.sha256((run / "plan.csv").read_bytes()).hexdigest()
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run), "--strict"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert "[fail] plan.csv column g holds a non-finite value" in out
        assert not any(row.startswith("[ok] plan") for row in out), out
        assert any(row.startswith("[ok] all") and "manifest.json" in row for row in out), out
        assert out[-1] == "CHECK FAILED"

    @staticmethod
    def _rewrite_cell(path, row, col, value):
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = value(cells[col])
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("tamper, line", [
        (lambda run: (run / "manifest.json").write_text("{not json"),
         "[fail] manifest.json holds no readable file list"),
        (lambda run: (run / "manifest.json").write_text('{"tool": "trimarket"}'),
         "[fail] manifest.json holds no readable file list"),
        (lambda run: (run / "breakdown.json").unlink(),
         "[fail] breakdown.json is listed in manifest.json but missing"),
        (lambda run: (run / "plan.csv").write_text(
            "\n".join((run / "plan.csv").read_text().splitlines()[:-1]) + "\n"),
         "[fail] plan.csv column g: 23 rows, expected 24"),
        (lambda run: TestCli._rewrite_cell(run / "duals.csv", 1, 5, lambda v: repr(float(v) + 1.0)),
         "[fail] mu deviates by "),
    ], ids=["manifest-not-json", "manifest-without-files", "listed-file-missing",
            "plan-row-count", "mu-mismatch"])
    def test_check_failure_paths(self, workdir, capsys, tamper, line):
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        tamper(run)
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert any(row.startswith(line) for row in out), out
        assert out[-1] == "CHECK FAILED"

    @pytest.mark.parametrize("name", ["/proc/self/mem", "../market.csv", "charts/../../market.csv"])
    def test_check_reads_no_file_outside_the_run(self, workdir, capsys, monkeypatch, name):
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["files"][name] = hashlib.sha256((workdir / "market.csv").read_bytes()).hexdigest()
        (run / "manifest.json").write_text(json.dumps(manifest))
        read, real = [], cli.file_sha256
        monkeypatch.setattr(cli, "file_sha256", lambda path: read.append(path) or real(path))
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert f"[fail] {name} lies outside the run directory" in out, out
        assert out[-1] == "CHECK FAILED"
        assert all(Path(path).parent == run for path in read), read

    def test_check_fails_on_an_unreadable_listed_file(self, workdir, capsys, monkeypatch):
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        real = cli.file_sha256

        def unreadable_plan(path):
            if Path(path).name == "plan.csv":
                raise PermissionError(13, "Permission denied", str(path))
            return real(path)

        monkeypatch.setattr(cli, "file_sha256", unreadable_plan)
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert "[fail] plan.csv cannot be read: Permission denied" in out, out
        assert out[-1] == "CHECK FAILED"

    def test_unwritable_run_directory_is_an_input_error(self, workdir, capsys):
        taken = workdir / "taken"
        taken.write_text("")
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(taken), "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {taken}: ") and err.count("\n") == 1, err

    def test_unwritable_market_file_is_an_input_error(self, workdir, capsys):
        (workdir / "file").write_text("")
        out = workdir / "file" / "x.csv"
        assert main(["gen-data", "--config", str(workdir / "model.cfg"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: Not a directory\n", err

    def test_check_short_plan_is_not_reported_as_matching(self, workdir, capsys):
        # every plan.csv column is one row short, so none is compared
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        rows = (run / "plan.csv").read_text().splitlines()
        (run / "plan.csv").write_text("\n".join(rows[:-1]) + "\n")
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert not any(row.startswith("[ok] plan") for row in out), out
        assert out[-1] == "CHECK FAILED"

    def test_check_fails_on_failing_structural_check(self, workdir, capsys, monkeypatch):
        run = workdir / "run"
        base = ["--config", str(workdir / "model.cfg"), "--data", str(workdir / "market.csv")]
        assert main(["solve", *base, "--out", str(run), "--no-plots"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            trimarket.analysis, "check_no_simultaneous_flow",
            lambda *args: PropertyReport("ess_no_simultaneous_flow", False, witness="doctored"),
        )
        assert main(["check", *base, "--run", str(run)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["[fail] structural checks failing: ess_no_simultaneous_flow",
                            "CHECK FAILED"]

    def test_check_rejects_header_only_duals(self, workdir, capsys):
        run = workdir / "run"
        base = [
            "--config", str(workdir / "model.cfg"),
            "--data", str(workdir / "market.csv"),
        ]
        assert main(["solve", *base, "--out", str(run), "--no-plots", "--properties", "none"]) == 0
        header = (run / "duals.csv").read_text().splitlines()[0]
        (run / "duals.csv").write_text(header + "\n")
        capsys.readouterr()
        assert main(["check", *base, "--run", str(run)]) == 1
        assert "duals.csv: no data rows" in capsys.readouterr().err

    def test_data_length_mismatch(self, workdir, capsys):
        bad = synth_data(SynthSpec(horizon=25))
        save_market_csv(workdir / "bad.csv", bad)
        rc = main(
            [
                "solve",
                "--config", str(workdir / "model.cfg"),
                "--data", str(workdir / "bad.csv"),
                "--out", str(workdir / "x"),
            ]
        )
        assert rc == 1

    def test_sweep_outputs(self, workdir, capsys):
        out = workdir / "sw"
        rc = main(
            [
                "sweep",
                "--config", str(workdir / "model.cfg"),
                "--data", str(workdir / "market.csv"),
                "--param", "alpha",
                "--grid", "0:1:3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,status,rev_g")
        assert len(lines) == 4
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["param"] == "alpha"

    def test_sweep_prints_trend_changes(self, workdir, capsys):
        # a 10-unit CER cap saturates as the quota grows, kinking rev_c
        text = (workdir / "model.cfg").read_text()
        (workdir / "cap.cfg").write_text(text.replace("caps.c_cap = 400", "caps.c_cap = 10"))
        out = workdir / "sw"
        assert main(["sweep", "--config", str(workdir / "cap.cfg"),
                     "--data", str(workdir / "market.csv"), "--param", "alpha",
                     "--grid", "0:1:6", "--out", str(out), "--no-plots"]) == 0
        breaks = json.loads((out / "sweep.json").read_text())["breakpoints"]
        assert breaks["rev_c"]
        head, trend = capsys.readouterr().out.splitlines()
        assert head == "swept alpha over 6 points, 6 optimal"
        assert trend.startswith("trend changes: {")
        assert ast.literal_eval(trend.removeprefix("trend changes: ")) == {
            k: v for k, v in breaks.items() if v
        }

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1:0:5", "grid needs hi > lo"),
            ("0,0.3,2", "r=2 outside [0, 1]"),
            ("0:1", "grid '0:1' must be lo:hi:n"),
            ("a:1:3", "grid 'a:1:3' must be lo:hi:n with numeric parts"),
            ("0,x", "grid '0,x' is not a comma-separated number list"),
            (" , ", "grid is empty"),
            ("0.5,0.5,0.6", "sweep grid repeats r=0.5"),
            ("0.9,0.5,0.1", "sweep grid must be strictly increasing: r=0.5 is out of order"),
            ("0:inf:3", "grid '0:inf:3' needs finite lo and hi"),
            ("nan:1:3", "grid 'nan:1:3' needs finite lo and hi"),
        ],
        ids=["1:0:5", "0,0.3,2", "0:1", "a:1:3", "0,x", "empty", "repeat", "descending",
             "0:inf:3",
             "nan:1:3"],
    )
    def test_sweep_bad_grid(self, workdir, capsys, grid, message):
        rc = main(
            [
                "sweep",
                "--config", str(workdir / "model.cfg"),
                "--data", str(workdir / "market.csv"),
                "--param", "r",
                "--grid", grid,
                "--out", str(workdir / "x"),
            ]
        )
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_model_warning_printed_once(self, workdir, capsys):
        text = (workdir / "model.cfg").read_text()
        (workdir / "k.cfg").write_text(re.sub(r"(?m)^tg\.k = .*$", "tg.k = 0.5", text))
        warning = "warning: CE factor k=0.5 outside the usual [0.8, 0.9] range\n"
        inputs = ["--config", str(workdir / "k.cfg"), "--data", str(workdir / "market.csv"),
                  "--no-plots"]
        assert main(["solve", *inputs, "--out", str(workdir / "s")]) == 0
        assert capsys.readouterr().err == warning
        # the four inventory cells validate four configs with the same warning
        assert main(["inventory-matrix", *inputs, "--out", str(workdir / "m")]) == 0
        assert capsys.readouterr().err == warning
        # the moved sweep points stay quiet: no "policy.r = 0" for r = 0
        assert main(["sweep", *inputs, "--param", "r", "--grid", "0,0.5",
                     "--out", str(workdir / "w")]) == 0
        assert capsys.readouterr().err == warning

    def test_other_warnings_reach_the_handler_in_place(self, monkeypatch, capsys):
        # only a ModelWarning is printed as "warning: ..."; any other
        # warning raised under main goes to the handler that was in place
        shown = []
        monkeypatch.setattr(warnings, "showwarning",
                            lambda message, category, *args, **kwargs:
                            shown.append((str(message), category)))
        with _model_warnings_on_stderr():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.warn("not a model warning", RuntimeWarning)
        assert shown == [("not a model warning", RuntimeWarning)]
        assert capsys.readouterr().err == ""

    def test_bundled_config_prints_no_warning(self, tmp_path, capsys):
        import trimarket

        bundled = Path(trimarket.__file__).parent / "data" / "defaults.cfg"
        market = tmp_path / "market.csv"
        assert main(["gen-data", "--config", str(bundled), "--out", str(market)]) == 0
        assert main(["solve", "--config", str(bundled), "--data", str(market),
                     "--properties", "full", "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_with_no_solved_point_exits_two(self, workdir, capsys):
        text = (workdir / "model.cfg").read_text()
        text = text.replace("caps.r_cap = 400", "caps.r_cap = 0")
        text = text.replace("rec_inventory.enabled = true", "rec_inventory.enabled = false")
        (workdir / "hard.cfg").write_text(text)
        out = workdir / "sw"
        rc = main(["sweep", "--config", str(workdir / "hard.cfg"),
                   "--data", str(workdir / "market.csv"),
                   "--param", "r", "--grid", "0.99,1", "--out", str(out)])
        assert rc == 2
        assert "no sweep point solved" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["sweep.csv", "sweep.json"]
        assert not (out / "charts").exists()

    def test_sweep_that_only_hits_the_iteration_cap_exits_one(self, workdir, capsys):
        # no point solved, but none is infeasible: a solver failure, as
        # solve --max-iter 1 on the same input reports it
        rc = main(["sweep", "--config", str(workdir / "model.cfg"),
                   "--data", str(workdir / "market.csv"), "--param", "r",
                   "--grid", "0.1,0.2", "--max-iter", "1", "--out", str(workdir / "sw"),
                   "--no-plots"])
        assert rc == 1
        assert "no sweep point solved" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, rc, message", [
        (["--tol", "0"], 1, "error: --tol must be positive"),
        (["--tol", "inf"], 1, "error: --tol must be finite and below 1"),
        (["--tol", "1e300"], 1, "error: --tol must be finite and below 1"),
        (["--tol", "1"], 1, "error: --tol must be finite and below 1"),
        (["--tol", "nan"], 1, "error: --tol must be finite and below 1"),
        (["--max-iter", "0"], 1, "error: --max-iter must be at least 1"),
        (["--max-iter", "1"], 1, "solver failed: tolerances not reached"),
    ], ids=["tol-0", "tol-inf", "tol-1e300", "tol-1", "tol-nan", "max-iter-0", "max-iter-1"])
    def test_solver_setting_errors(self, workdir, capsys, extra, rc, message):
        assert main(["solve", "--config", str(workdir / "model.cfg"),
                     "--data", str(workdir / "market.csv"),
                     "--out", str(workdir / "x"), "--no-plots", *extra]) == rc
        assert message in capsys.readouterr().err

    def test_solve_with_tolerance_override(self, workdir, capsys):
        rc = main(["solve", "--config", str(workdir / "model.cfg"),
                   "--data", str(workdir / "market.csv"), "--out", str(workdir / "x"),
                   "--tol", "1e-6", "--properties", "none", "--no-plots"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("status optimal,")

    def test_matrix_with_an_inventory_disabled_is_an_input_error(self, workdir, capsys):
        text = (workdir / "model.cfg").read_text()
        off = re.sub(r"(?m)^rec_inventory\.enabled = .*$", "rec_inventory.enabled = false", text)
        assert off != text
        (workdir / "off.cfg").write_text(off)
        rc = main(["inventory-matrix", "--config", str(workdir / "off.cfg"),
                   "--data", str(workdir / "market.csv"), "--out", str(workdir / "mx")])
        assert rc == 1
        assert "error: inventory matrix starts from " in capsys.readouterr().err
        assert not (workdir / "mx").exists()

    def test_matrix_chart_in_manifest(self, workdir, capsys):
        out = workdir / "mx"
        rc = main(["inventory-matrix", "--config", str(workdir / "model.cfg"),
                   "--data", str(workdir / "market.csv"), "--out", str(out)])
        assert rc == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        chart = "charts/inventory_comparison.svg"
        assert chart in files
        assert files[chart] == hashlib.sha256((out / chart).read_bytes()).hexdigest()

    def _matrix_improvements(self, workdir, cfg="model.cfg", data="market.csv"):
        out = workdir / "mx"
        rc = main(["inventory-matrix", "--config", str(workdir / cfg),
                   "--data", str(workdir / data), "--out", str(out), "--no-plots"])
        assert rc == 0
        return json.loads((out / "matrix.json").read_text())["improvements_pct"]

    def test_matrix_output(self, workdir, capsys):
        # certificate prices are constant within each day, so over one day
        # the inventories have nothing to carry: every cell earns the same
        pct = self._matrix_improvements(workdir)
        assert sorted(pct) == ["both", "cer_only", "none", "rec_only"]
        for cell, value in pct.items():
            assert abs(value) <= 1e-9, (cell, value)

    def test_matrix_output_over_two_days(self, workdir, capsys):
        # two price days give the inventories something to carry
        synth = SynthSpec(horizon=48)
        save_config(workdir / "two_days.cfg", default_config(48), synth)
        save_market_csv(workdir / "two_days.csv", synth_data(synth))
        pct = self._matrix_improvements(workdir, "two_days.cfg", "two_days.csv")
        assert pct["none"] == 0.0
        assert pct["cer_only"] > 0.1 and pct["rec_only"] > 1.0 and pct["both"] > 1.0
        # either inventory alone is a restriction of having both
        assert pct["both"] >= max(pct["cer_only"], pct["rec_only"]) - 1e-9

    def test_infeasible_exit_code(self, workdir, capsys):
        text = (workdir / "model.cfg").read_text()
        text = text.replace("policy.r = 0.90000000000000002", "policy.r = 1")
        text = text.replace("caps.r_cap = 400", "caps.r_cap = 0")
        text = text.replace("rec_inventory.enabled = true", "rec_inventory.enabled = false")
        (workdir / "hard.cfg").write_text(text)
        rc = main(
            [
                "solve",
                "--config", str(workdir / "hard.cfg"),
                "--data", str(workdir / "market.csv"),
                "--out", str(workdir / "x"),
            ]
        )
        assert rc == 2

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", "only.cfg"])
        assert exc.value.code == 1

    def test_console_script_version(self):
        out = subprocess.run(
            [sys.executable, "-m", "trimarket.cli", "--version"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert __version__ in out.stdout

    def test_cli_import_leaves_scipy_optimize_out(self):
        # nothing needs it: the infeasibility diagnosis solves its elastic
        # LPs with the package's own interior point, so an infeasible
        # solve, diagnosed, does not import it either
        script = (
            "import sys, trimarket.cli\n"
            "from trimarket.model import assemble_qp, default_config, validate_config\n"
            "from trimarket.qp import solve_qp\n"
            "from trimarket.scenarios import SynthSpec, synth_data\n"
            "print('scipy.optimize' in sys.modules)\n"
            "cfg = default_config(24).with_inventories(rec=False, cer=True)\n"
            "cfg = cfg.with_caps(r_cap=0.0).with_policy(r=1.0)\n"
            "model = validate_config(cfg, synth_data(SynthSpec(seed=7, horizon=24)))\n"
            "print(solve_qp(assemble_qp(model)).status, 'scipy.optimize' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == ["False", "infeasible False", ""]


# ---------------------------------------------------------------------------
# Generated inputs

#: the numeric model keys (the synth block only feeds gen-data, and
#: horizon.T would need data of another length)
_MODEL_KEYS = [k for k in ACCEPTED if not k.startswith(("horizon.", "synth."))
               and not k.endswith(".enabled")]
_EXTREMES = [0.0, -0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e13, 1e15, 1e100, 1e150, 1e300,
             1e308, -1e308, np.inf, -np.inf, np.nan]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(target=st.one_of(st.sampled_from(_MODEL_KEYS),
                        st.tuples(st.integers(1, 24), st.integers(1, 5))),
       value=st.one_of(st.sampled_from(_EXTREMES), st.floats()))
@example(target="ess.eta_d", value=1e-320)
@example(target="tg.g_max", value=1e308)
@example(target="tg.b", value=1e150)
@example(target="tg.k", value=1e200)
@example(target="tg.k", value=1e300)
def test_extreme_input_exits_cleanly(target, value):
    # one config key, or one cell (row, column) of the market CSV, of the
    # T=24 default set to an extreme value: solve answers with an exit
    # code, never an exception or a RuntimeWarning
    synth = SynthSpec(horizon=24)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_config(work / "model.cfg", default_config(24), synth)
        save_market_csv(work / "market.csv", synth_data(synth))
        if isinstance(target, str):
            cfg = work / "model.cfg"
            cfg.write_text("\n".join(f"{target} = {value!r}" if row.startswith(target + " ")
                                     else row for row in cfg.read_text().splitlines()) + "\n")
        else:
            TestCli._rewrite_cell(work / "market.csv", *target, lambda _: repr(value))
        rc = main(["solve", "--config", str(work / "model.cfg"), "--data",
                   str(work / "market.csv"), "--out", str(work / "run"),
                   "--properties", "none", "--no-plots"])
    assert rc in (0, 1, 2)

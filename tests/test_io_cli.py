import ast
import hashlib
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import trimarket.analysis
from trimarket import __version__
from trimarket.analysis import PropertyReport
from trimarket.cli import main
from trimarket.config_io import (
    CONFIG_KEYS,
    REQUIRED_KEYS,
    ConfigError,
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
from trimarket.svg import render_bar_chart, render_line_chart, run_charts

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
    ], ids=["int", "bool"])
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
        n_fields = len(header.split(","))
        for text, match in (
            ("", "empty file"),
            (header + "\n", "no data rows"),
            ("hour,x\n" + row + "\n", "header must be"),
            (header + "\n" + row + ",1\n", rf"r\.csv:2: expected {n_fields} fields"),
            (header + "\n2" + row[1:] + "\n", r"r\.csv:2: hour column must count 1\.\.T"),
        ):
            f.write_text(text)
            with pytest.raises(ConfigError, match=match):
                loader(f)

    def test_json_handles_numpy_and_non_finite(self, tmp_path):
        f = tmp_path / "x.json"
        save_json(f, {"a": np.float64(1.5), "b": np.inf, "c": [np.int64(2)], "d": np.nan})
        loaded = json.loads(f.read_text())
        assert loaded == {"a": 1.5, "b": "inf", "c": [2], "d": "nan"}


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

    def test_bar_chart_handles_negative_values(self):
        svg = render_bar_chart("t", "x", "y", ["a", "b"], [5.0, -3.0], annotations=["+5", "-3"])
        ET.fromstring(svg)
        assert svg.count("<rect") >= 3

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
        ],
        ids=["1:0:5", "0,0.3,2", "0:1", "a:1:3", "0,x", "empty"],
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

    @pytest.mark.parametrize("extra, rc, message", [
        (["--tol", "0"], 1, "error: --tol must be positive"),
        (["--max-iter", "1"], 1, "solver failed: tolerances not reached"),
    ], ids=["tol-0", "max-iter-1"])
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
        # only the LP probes and the oracle need it; they import it on use
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, trimarket.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

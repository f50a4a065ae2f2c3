"""Command line front end.

Subcommands:
    gen-data          write a synthetic market CSV from the config's synth block
    solve             solve one schedule; write plan, duals, revenue, checks, charts
    inventory-matrix  solve the four inventory on/off combinations and compare
    sweep             re-solve along a policy parameter grid
    check             re-solve and verify a previously written run directory,
                      and recompute the SHA-256 of every file its manifest lists

Exit codes: 0 success, 1 usage or input error, 2 infeasible model,
3 verification failure in ``check``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import (
    ConfigError,
    breakdown_payload,
    file_sha256,
    load_config,
    load_duals_csv,
    load_market_csv,
    load_plan_csv,
    manifest_payload,
    properties_payload,
    save_duals_csv,
    save_json,
    save_market_csv,
    save_plan_csv,
    save_sweep_csv,
)
from .model import DispatchPlan, ValidationError
from .qp import SolverSettings
from .scenarios import (
    InfeasibleError,
    SolveFailure,
    inventory_matrix,
    parameter_sweep,
    run_scenario,
    synth_data,
)
from .svg import matrix_chart, run_charts, save_charts, sweep_charts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasible models
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="trimarket", description="Tri-market VPP self-scheduling")
    p.add_argument("--version", action="version", version=f"trimarket {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, data=True):
        sp.add_argument("--config", required=True, help="model config file")
        if data:
            sp.add_argument("--data", required=True, help="market data CSV")
        sp.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        sp.add_argument("--max-iter", type=int, default=None, help="solver iteration cap")

    sp = sub.add_parser("gen-data", help="generate a synthetic market CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--seed", type=int, default=None, help="override synth.seed")

    sp = sub.add_parser("solve", help="solve one schedule")
    common(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--properties", choices=("none", "core", "full"), default="core")
    sp.add_argument("--no-plots", action="store_true")

    sp = sub.add_parser("inventory-matrix", help="compare inventory enablement")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--no-plots", action="store_true")

    sp = sub.add_parser("sweep", help="re-solve along a parameter grid")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--param", required=True, choices=("r", "alpha"))
    sp.add_argument("--grid", required=True,
                    help="either lo:hi:n or a comma-separated value list")
    sp.add_argument("--no-plots", action="store_true")

    sp = sub.add_parser("check", help="verify a previously written run directory")
    common(sp)
    sp.add_argument("--run", required=True, help="directory written by solve")
    sp.add_argument("--strict", action="store_true",
                    help="tighten the match tolerance to 1e-9 relative")
    return p


def _settings(args) -> SolverSettings:
    kw = {}
    if args.tol is not None:
        if args.tol <= 0:
            raise ConfigError("--tol must be positive")
        kw = {"tol": args.tol}
    if args.max_iter is not None:
        if args.max_iter < 1:
            raise ConfigError("--max-iter must be at least 1")
        kw["max_iter"] = args.max_iter
    return SolverSettings(**kw)


def _parse_grid(text: str) -> np.ndarray:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"grid {text!r} must be lo:hi:n with numeric parts") from None
        if n < 2 or hi <= lo:
            raise ConfigError("grid needs hi > lo and at least 2 points")
        return np.linspace(lo, hi, n)
    try:
        vals = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        raise ConfigError(f"grid {text!r} is not a comma-separated number list") from None
    if vals.size == 0:
        raise ConfigError("grid is empty")
    return vals


def _load_inputs(args):
    cfg, synth = load_config(args.config)
    data = load_market_csv(args.data)
    if len(data.pi_g) != cfg.horizon:
        raise ConfigError(
            f"{args.data}: {len(data.pi_g)} rows but config horizon.T = {cfg.horizon}"
        )
    return cfg, synth, data


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_gen_data(args) -> int:
    cfg, synth = load_config(args.config)
    if args.seed is not None:
        try:
            synth = dataclasses.replace(synth, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    data = synth_data(synth)
    save_market_csv(args.out, data)
    print(f"wrote {args.out}: {cfg.horizon} hours, seed {synth.seed}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg, _, data = _load_inputs(args)
    res = run_scenario(cfg, data, settings=_settings(args), properties=args.properties)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    save_plan_csv(out / "plan.csv", res.plan)
    files["plan.csv"] = out / "plan.csv"
    save_duals_csv(out / "duals.csv", res.duals)
    files["duals.csv"] = out / "duals.csv"
    save_json(
        out / "breakdown.json",
        breakdown_payload(
            res.breakdown,
            objective=res.solution.objective,
            status=res.solution.status,
            iterations=res.solution.iterations,
        ),
    )
    files["breakdown.json"] = out / "breakdown.json"
    if args.properties != "none":
        save_json(out / "properties.json", properties_payload(res.reports, res.case_tables))
        files["properties.json"] = out / "properties.json"
    if not args.no_plots:
        files.update(save_charts(out / "charts", run_charts(res.plan, data)))
    save_json(out / "manifest.json", manifest_payload(__version__, "solve", files))

    failing = [r.prop_id for r in res.reports if not r.holds]
    note = f", {len(failing)} failing checks: {', '.join(failing)}" if failing else ""
    print(
        f"status {res.solution.status}, objective {res.solution.objective:.6f}, "
        f"mu {res.duals.mu:.6f}, delta {res.duals.delta:.6f}{note}"
    )
    print(f"wrote {len(files) + 1} files to {out}")
    return EXIT_OK


def _cmd_matrix(args) -> int:
    cfg, _, data = _load_inputs(args)
    m = inventory_matrix(cfg, data, settings=_settings(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    save_json(out / "matrix.json", m.to_dict())
    files["matrix.json"] = out / "matrix.json"
    if not args.no_plots:
        files.update(save_charts(out / "charts", matrix_chart(m)))
    save_json(out / "manifest.json", manifest_payload(__version__, "inventory-matrix", files))
    for cell in ("none", "cer_only", "rec_only", "both"):
        print(f"{cell:9s} profit {m.breakdowns[cell].profit:16.6f} "
              f"({m.improvements_pct[cell]:+.4f}%)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg, _, data = _load_inputs(args)
    grid = _parse_grid(args.grid)
    sw = parameter_sweep(cfg, data, args.param, grid, settings=_settings(args))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    save_sweep_csv(out / "sweep.csv", sw)
    files["sweep.csv"] = out / "sweep.csv"
    save_json(out / "sweep.json", sw.to_dict())
    files["sweep.json"] = out / "sweep.json"
    if not args.no_plots:
        files.update(save_charts(out / "charts", sweep_charts(sw)))
    save_json(out / "manifest.json", manifest_payload(__version__, "sweep", files))

    n_ok = sum(p.status == "optimal" for p in sw.points)
    print(f"swept {args.param} over {len(sw.points)} points, {n_ok} optimal")
    kinks = {k: v for k, v in sw.breakpoints.items() if v}
    if kinks:
        print(f"trend changes: {kinks}")
    if n_ok == 0:
        print("no sweep point solved", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _manifest_holds(run_dir: Path) -> bool:
    """Recompute every SHA-256 listed in the run's manifest.json."""
    path = run_dir / "manifest.json"
    if not path.is_file():
        print("[fail] manifest.json is missing")
        return False
    try:
        listed = dict(json.loads(path.read_text())["files"])
    except (ValueError, KeyError, TypeError):
        print("[fail] manifest.json holds no readable file list")
        return False
    ok = True
    for name, digest in sorted(listed.items()):
        if not (run_dir / name).is_file():
            print(f"[fail] {name} is listed in manifest.json but missing")
            ok = False
        elif file_sha256(run_dir / name) != digest:
            print(f"[fail] {name} does not match its SHA-256 in manifest.json")
            ok = False
    if ok:
        print(f"[ok] all {len(listed)} files match manifest.json")
    return ok


def _cmd_check(args) -> int:
    cfg, _, data = _load_inputs(args)
    run_dir = Path(args.run)
    saved = load_plan_csv(run_dir / "plan.csv")
    res = run_scenario(cfg, data, settings=_settings(args), properties="core")

    rtol = 1e-9 if args.strict else 1e-6
    ok = True

    worst = 0.0
    for col in DispatchPlan.CSV_COLUMNS:
        fresh = getattr(res.plan, col)
        if len(saved[col]) != len(fresh):
            print(f"[fail] plan.csv column {col}: {len(saved[col])} rows, expected {len(fresh)}")
            ok = False
            continue
        scale = 1.0 + float(np.max(np.abs(fresh)))
        worst = max(worst, float(np.max(np.abs(saved[col] - fresh))) / scale)
    if worst <= rtol:
        print(f"[ok] plan matches re-solve (max relative deviation {worst:.3e})")
    else:
        print(f"[fail] plan deviates from re-solve by {worst:.3e} relative (limit {rtol:.0e})")
        ok = False

    duals_path = run_dir / "duals.csv"
    if duals_path.exists():
        d = load_duals_csv(duals_path)
        for name, fresh in (("mu", res.duals.mu), ("delta", res.duals.delta)):
            dev = abs(float(d[name][0]) - fresh) / (1.0 + abs(fresh))
            if dev <= max(rtol, 1e-9):
                print(f"[ok] {name} matches ({fresh:.6f})")
            else:
                print(f"[fail] {name} deviates by {dev:.3e} relative")
                ok = False

    if not _manifest_holds(run_dir):
        ok = False

    failing = [r.prop_id for r in res.reports if not r.holds]
    if failing:
        print(f"[fail] structural checks failing: {', '.join(failing)}")
        ok = False
    else:
        n_live = sum(not r.skipped for r in res.reports)
        print(f"[ok] all {n_live} applicable structural checks hold")

    print("CHECK PASSED" if ok else "CHECK FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "solve": _cmd_solve,
        "inventory-matrix": _cmd_matrix,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolveFailure as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

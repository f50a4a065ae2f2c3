"""Benchmark of the trimarket command line, end to end and layer by layer.

One workload per process, the way a user runs the CLI:

    python3 perfbench/run.py --workload week_full --seed 7 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` wraps every layer's public function and reports the
per-layer metrics instead (see ``metrics.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and a ``detail`` JSON line with sample counts and the
environment.

Without ``--workload`` every workload runs in its own process, untraced
and then traced, and one table per kind of metric is printed:

    python3 perfbench/run.py --seed 7 --seconds 32

Inputs are generated from the seed into ``.perfbench_out/`` at the
repository root and removed afterwards; traced runs leave their spans
there as JSON.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

SETUP_REPEATS = 5

#: about what the reference below takes on a 2-vCPU 2.1 GHz Xeon VM at its
#: median speed; ``wall_norm_s`` reads in seconds on a host that fast
REF_NOMINAL_S = 0.1

SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
from trimarket.cli import load_config, load_market_csv
load_config(sys.argv[2])
load_market_csv(sys.argv[3])
"""


def environment(seed: int) -> dict:
    """Describe the machine and the run."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Reference:
    """A fixed piece of the work a solve is made of, to time the host by.

    A shared host's cores change speed by up to a half in spells of a
    minute or more, longer than a run, so no statistic of raw round times
    repeats between runs.  Each round is divided by this block's time,
    measured right after it: a sparse LU of a fixed 3600-unknown grid
    Laplacian and a dict-heavy Python loop, the two kinds of work the
    program's solves do.  It uses SciPy directly, so no change to the
    program moves it.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        k = 60
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
        eye = sp.identity(k)
        self._a = (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.identity(k * k)).tocsc()
        self._b = np.ones(k * k)

    def seconds(self) -> float:
        from scipy.sparse.linalg import splu

        t0 = time.perf_counter()
        for _ in range(4):
            splu(self._a).solve(self._b)
            d: dict[int, int] = {}
            for i in range(60000):
                d[i & 1023] = d.get(i & 1023, 0) + i
        return time.perf_counter() - t0


def measure_setup(inputs) -> list[float]:
    """Wall seconds of fresh interpreters that import the CLI and load the inputs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(inputs.config), str(inputs.data)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _invoke(cli, argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed operation, not the end of the run
        traceback.print_exc(file=sys.__stderr__)
        return -1


def run_round(cli, inputs) -> tuple[float, list[tuple[int, str]]]:
    """Run every call of one round; return its wall time and each (exit code, stderr)."""
    for call in inputs.calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    errs = [io.StringIO() for _ in inputs.calls]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        for call, err in zip(inputs.calls, errs):
            with contextlib.redirect_stderr(err):
                codes.append(_invoke(cli, call.argv))
        wall = time.perf_counter() - t0
    return wall, [(code, err.getvalue()) for code, err in zip(codes, errs)]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it, from n >= 20."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from checks import Ledger
    from tracing import Tracer
    from workloads import input_seeds

    env = environment(seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        # the traced run keeps to the seed's own inputs, so its counts describe one input
        seeds = input_seeds(seed)[:1] if trace else input_seeds(seed)
        sets = [workload.prepare(work / f"seed{s}", s) for s in seeds]
        import trimarket.cli as cli

        setup = [] if trace else measure_setup(sets[0])
        ledger = Ledger(workload)
        # warm-up round: untimed, so lazy imports and caches fill before timing
        ledger.record(sets[0], seeds[0], run_round(cli, sets[0])[1])

        tracer = Tracer() if trace else None
        ref = Reference()
        ref.seconds()  # warm-up
        by_set, ratios, refs, layers = [[] for _ in sets], [[] for _ in sets], [], []
        rounds = 0
        t_start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            # round-robin over the input sets until enough time is measured
            while time.perf_counter() - t_start < seconds or not all(by_set):
                k = rounds % len(sets)
                rounds += 1
                if tracer:
                    tracer.start_run(rounds)
                cpu0 = os.times()
                wall, results = run_round(cli, sets[k])
                cpu1 = os.times()
                refs.append(ref.seconds())
                by_set[k].append(wall)
                ratios[k].append(wall / refs[-1])
                if tracer:
                    m = tracer.run_metrics()
                    m["proc.cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
                    m["trace.wall_s"] = wall
                    layers.append(m)
                ledger.record(sets[k], seeds[k], results)  # untimed
        if tracer:
            tracer.write(WORK / f"spans-{workload.name}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [t for times in by_set for t in times]
    # each input set's median round, in reference units, averaged over the sets
    norm_by_set = [REF_NOMINAL_S * statistics.median(r) for r in ratios]
    wall_norm_s = statistics.fmean(norm_by_set)
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_norm_s": wall_norm_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": workload.name,
        "trace": trace,
        "env": env,
        "input_seeds": seeds,
        "setup_samples": setup,
        "wall_samples": walls,
        "wall_norm_by_seed": dict(zip(seeds, norm_by_set)),
        "wall_median": statistics.median(walls),
        "ref_median": statistics.median(refs),
        "wall_tail": tail(walls),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": metrics,
    }


def print_run(detail: dict, units: dict[str, str]) -> None:
    kind = "per-layer (traced)" if detail["trace"] else "end-to-end (untraced)"
    print(f"workload {detail['workload']}, {kind}, env {json.dumps(detail['env'])}")
    print(f"  n counts rounds, round-robin over the input sets of seeds {detail['input_seeds']}"
          " (setup_s: n interpreter starts)")
    n_wall = len(detail["wall_samples"])
    for name, value in detail["metrics"].items():
        n = len(detail["setup_samples"]) if name == "setup_s" else n_wall
        print(f"  {name:34s} {value:16.6f} {units[name]:6s} n={n}")
    tail_text = "n/a (fewer than 20 samples)"
    if detail["wall_tail"]:
        tail_text = f"p{detail['wall_tail'][0]:.0f} = {detail['wall_tail'][1]:.6f} s"
    print(f"  raw round wall: median {detail['wall_median']:.6f} s, tail {tail_text}; "
          f"reference median {detail['ref_median']:.6f} s")
    ratio = detail["failed"] / detail["attempted"]
    print(f"  fail_ratio {ratio:.6f} ({detail['failed']} failed / {detail['attempted']} attempted)")
    for problem in detail["problems"]:
        print(f"  FAIL: {problem}")


def report(seed: int, seconds: float) -> int:
    """Run every workload untraced then traced, each in its own process; print both tables."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    runs: dict[tuple[str, int], dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            details = [ln[len("detail "):] for ln in proc.stdout.splitlines()
                       if ln.startswith("detail ")]
            if proc.returncode != 0 or not details:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            runs[name, trace] = json.loads(details[-1])

    names = list(WORKLOADS)
    print(f"env {json.dumps(runs[names[0], 0]['env'])}, {seconds} s per run")
    print("\nend-to-end (untraced): value, unit, n = rounds over the run's input sets "
          "(setup_s: n interpreter starts)")
    print(f"{'workload':16s}" + "".join(f"{m.name + ' (' + m.unit + ')':>26s}" for m in END_TO_END)
          + f"{'fail_ratio (failed/attempted)':>34s}")
    for name in names:
        d = runs[name, 0]
        cells = []
        for m in END_TO_END:
            n = len(d["setup_samples"]) if m.name == "setup_s" else len(d["wall_samples"])
            cells.append(f"{d['metrics'][m.name]:.4f} n={n}")
        fail = f"{d['failed'] / d['attempted']:.4f} ({d['failed']}/{d['attempted']})"
        print(f"{name:16s}" + "".join(f"{c:>26s}" for c in cells) + f"{fail:>34s}")
    for m in END_TO_END:
        print(f"  {m.name}: {m.meaning}")
    print("\nraw round wall, median and tail, and the reference's median "
          "(not gated; they move with the host's load):")
    for name in names:
        d = runs[name, 0]
        t = d["wall_tail"]
        print(f"  {name:16s} median {d['wall_median']:.4f} s, "
              + (f"p{t[0]:.0f} {t[1]:.4f} s" if t else "tail n/a (fewer than 20 rounds)")
              + f", reference {d['ref_median']:.4f} s")

    print(f"\nper-layer (traced, input set of seed {seed} only): median per round")
    print(f"{'metric':34s}{'unit':>7s}" + "".join(f"{n:>16s}" for n in names)
          + "   should move ... on")
    for m in PER_LAYER:
        print(f"{m.name:34s}{m.unit:>7s}"
              + "".join(f"{runs[n, 1]['metrics'][m.name]:16.6g}" for n in names)
              + f"   {m.moves} on {m.on}")
    # normalised round time on the seed's own input set, traced against untraced
    overhead = [runs[n, 1]["wall_norm_by_seed"][str(seed)]
                - runs[n, 0]["wall_norm_by_seed"][str(seed)] for n in names]
    print(f"{'tracing overhead (s, normalised)':41s}"
          + "".join(f"{v:16.4f}" for v in overhead))
    print(f"{'traced rounds':41s}" + "".join(f"{len(runs[n, 1]['wall_samples']):16d}" for n in names))
    ok = all(d["failed"] == 0 for d in runs.values())
    print("\nall outputs correct" if ok else "\nSOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run and tabulate all of them")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trimarket" / "__init__.py").is_file():
        print(f"perfbench: no trimarket package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload is None:
        return report(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    units = {m.name: m.unit for m in (PER_LAYER if args.trace else END_TO_END)}
    print_run(detail, units)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in detail["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the SHA-256 of every file a fixed set of trimarket runs writes.

    python tests/run_digest.py [--seed N] [SRC]

The runs are the ones whose outputs must stay byte-identical across a
change that is not meant to move them:

- ``solve --properties full`` on a synthetic week (T=168);
- ``solve --properties full`` on the same week with every trade cap
  infinite and the REC inventory off, where the extremal price identities
  and the REC purchase-timing check are live, not skipped;
- ``solve --properties none`` on a synthetic four weeks (T=672);
- ``inventory-matrix`` on the week;
- ``sweep --param alpha --grid 0:0.4:5`` on the week.

Inputs come from the bundled defaults and ``synth_data`` with the seed
(default 7), written by ``save_config`` and ``gen-data``.  Everything goes
into a temporary directory, removed afterwards, and one
``sha256  relative/path`` line is printed per file, inputs included, in
path order.  The package is imported from SRC (default: the ``src``
directory next to this one), so comparing two trees is a ``diff``:

    diff <(python tests/run_digest.py) <(python tests/run_digest.py ../other/src)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

WEEK, MONTH = 168, 672


def _runs(work: Path, seed: int) -> list[list[str]]:
    """Write the inputs under `work`; return the CLI argument lists to run."""
    from trimarket.config_io import save_config
    from trimarket.model import default_config
    from trimarket.scenarios import SynthSpec

    runs, inputs = [], {}
    for horizon in (WEEK, MONTH):
        cfg, data = work / f"model_{horizon}.cfg", work / f"market_{horizon}.csv"
        save_config(cfg, default_config(horizon), SynthSpec(seed=seed, horizon=horizon))
        runs.append(["gen-data", "--config", str(cfg), "--out", str(data)])
        inputs[horizon] = ["--config", str(cfg), "--data", str(data)]
    uncapped = work / f"model_{WEEK}_uncapped.cfg"
    inf = float("inf")
    save_config(uncapped, default_config(WEEK).with_caps(g_cap=inf, r_cap=inf, c_cap=inf)
                .with_inventories(rec=False, cer=True), SynthSpec(seed=seed, horizon=WEEK))
    return runs + [
        ["solve", *inputs[WEEK], "--out", str(work / "solve_full"), "--properties", "full"],
        ["solve", "--config", str(uncapped), "--data", str(work / f"market_{WEEK}.csv"),
         "--out", str(work / "solve_uncapped"), "--properties", "full"],
        ["solve", *inputs[MONTH], "--out", str(work / "solve_none"), "--properties", "none"],
        ["inventory-matrix", *inputs[WEEK], "--out", str(work / "matrix")],
        ["sweep", *inputs[WEEK], "--out", str(work / "sweep"),
         "--param", "alpha", "--grid", "0:0.4:5"],
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the trimarket package")
    ap.add_argument("--seed", type=int, default=7, help="synth_data seed (default 7)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from trimarket.cli import main as trimarket

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for argv_ in _runs(work, args.seed):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = trimarket(argv_)
            if rc != 0:
                print(f"trimarket {argv_[0]} exited {rc}", file=sys.stderr)
                return 1
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Two traced runs of each workload must report the same solver counts:
those counts are how a change that claims fewer solves, iterations or
factorizations is judged, so they have to repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m.name for m in PER_LAYER]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]

"""Every committed benchmark point (`BENCH_*.json` at the repository root)
is a before/after record of one `imprintbench` workload: the parent's and
the change's per-seed runs of every end-to-end metric, on the same seeds,
and the medians taken over those runs."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
POINTS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("path", POINTS, ids=[p.name for p in POINTS])
def test_bench_point_records_parent_and_change(path):
    point = json.loads(path.read_text())
    assert point["workload"] in WORKLOADS
    sides = [point["parent"], point["change"]]
    seeds = [[run["seed"] for run in side["runs"]] for side in sides]
    assert seeds[0], "a point needs at least one run per side"
    assert sorted(seeds[0]) == sorted(seeds[1]), "parent and change ran different seeds"
    assert len(set(seeds[0])) == len(seeds[0]), "a seed ran twice on one side"
    for side in sides:
        for name in END_TO_END:
            values = [run[name] for run in side["runs"]]
            assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
            assert side["median"][name] == statistics.median(values), name

"""Tests for the benchmark itself. Run from the repository root:

    python3 -m pytest -q imprintbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from imprintlab import cli  # noqa: E402
from imprintlab.scenarios import run_scenario, validate_config  # noqa: E402


# -- self-time arithmetic ---------------------------------------------------------------

def test_self_times_on_a_hand_built_tree():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("scenarios", 1.0, 9.0, 0),
        ("theory", 2.0, 5.0, 1),
        ("theory", 2.5, 3.0, 2),              # nested span of the same layer
        ("numerics.matmul", 6.0, 7.0, 1),
        ("dataio.report", 9.0, 9.5, 0),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"cli": 1.5, "scenarios": 4.0, "theory": 3.0,
                                 "numerics.matmul": 1.0, "dataio.report": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)  # self times tile the root span


def test_self_times_subtract_the_union_of_overlapping_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0)]
    assert tracer.self_times(spans)["a"] == pytest.approx(10.0 - 5.0)


def test_self_times_clip_children_to_the_parent():
    spans = [("a", 0.0, 4.0, -1), ("b", 3.0, 6.0, 0), ("c", 1.0, 2.0, 0)]
    assert tracer.self_times(spans)["a"] == pytest.approx(4.0 - 1.0 - 1.0)


def test_import_self_times_charge_dependencies_to_the_first_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:       700 |        700 |       numpy.core",
        "import time:       300 |       1000 |     numpy",
        "import time:        50 |       1050 |   imprintlab.numerics",
        "import time:        20 |         20 |     numpy",
        "import time:        30 |         50 |   imprintlab.theory",
        "import time:        10 |       1110 | imprintlab",
        "import time:       400 |        400 | json",
    ])
    got = tracer.import_self_times(text)
    assert got["imprintlab.numerics"] == pytest.approx(1050e-6)
    assert got["imprintlab.theory"] == pytest.approx(50e-6)
    assert got["imprintlab"] == pytest.approx(10e-6)
    assert set(got) == {"imprintlab", "imprintlab.numerics", "imprintlab.theory"}


def test_import_metric_names():
    assert tracer.import_metric("imprintlab") == "imprintlab.import_s"
    assert tracer.import_metric("imprintlab.numerics") == "numerics.import_s"
    assert tracer.import_metric("imprintlab._svg") == "svg.import_s"


# -- workloads ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_validate(name):
    for seed in workloads.program_seeds(name, 3):
        cfg = workloads.WORKLOADS[name].build(seed)
        assert validate_config(json.loads(json.dumps(cfg)))["seed"] == seed


def test_program_seeds_are_disjoint_across_benchmark_seeds():
    for name in workloads.WORKLOADS:
        seen = set()
        for seed in range(20):
            seeds = workloads.program_seeds(name, seed)
            assert not seen & set(seeds)
            seen |= set(seeds)
    assert workloads.program_seeds("fullbatch_wide", 5) == [5]


def _small(name):
    """The workload at a size that runs in well under a second."""
    cfg = workloads.WORKLOADS[name].build(0)
    if name == "fullbatch_wide":
        cfg["data"].update(n=64, m=64)
        cfg["model"]["imprint"]["k"] = 128
        cfg["model"]["head"]["gain"] = 64.0
        cfg["metrics"]["pool"] = 50
    elif name == "oneshot_trials":
        cfg["data"]["n"] = 256
        cfg["trials"] = 20
    else:
        cfg["data"].update(n_seq=64, vocab=512)
        cfg["model"]["imprint"]["k"] = 256
        cfg["federation"].update(users=2, steps=2)
        cfg["metrics"]["pool"] = 50
    return cfg


@pytest.fixture(scope="module")
def reports():
    """name -> (report as read back from the file, check reference)"""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        cfg = _small(name)
        report = json.loads(json.dumps(run_scenario(cfg).report))
        ref = workload.reference(cfg, cfg["seed"]) if workload.reference else None
        out[name] = report, ref
    return out


def _corrupted(name, report):
    bad = copy.deepcopy(report)
    if name == "fullbatch_wide":
        bad["recovery"]["exact_bins"] = bad["recovery"]["exact_bins"][1:]
        yield bad
        bad = copy.deepcopy(report)
        bad["recovery"]["exact_bins"] = sorted(bad["recovery"]["exact_bins"] + [-1])
        yield bad
    elif name == "oneshot_trials":
        bad["trials"]["successes"] += 1
        yield bad
        bad = copy.deepcopy(report)
        bad["trials"]["max_success_rel_err"] = 2e-4
        yield bad
    else:
        bad["theory"]["iid_expected"] = float("nan")
        yield bad
        bad = copy.deepcopy(report)
        bad["tokens"]["token_accuracy"] += 0.02
        yield bad


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_a_good_report_and_fail_on_corrupted_copies(name, reports):
    check = workloads.WORKLOADS[name].check
    report, ref = reports[name]
    assert check(report, ref) == []
    for bad in _corrupted(name, report):
        assert check(bad, ref)


def test_fullbatch_reference_is_the_report_oracle_where_that_is_right(reports):
    report, singletons = reports["fullbatch_wide"]
    assert report["recovery"]["singleton_match"]
    assert singletons == report["occupancy"]["singleton_bins"]
    assert workloads.WORKLOADS["fullbatch_wide"].note(report, singletons) == []


def test_fullbatch_report_oracle_defect_is_a_note_not_a_failure(reports):
    # the report's occupancy oracle can disagree with the model at float32
    # (ROADMAP item 4); the run is right when the exact bins match the model
    workload = workloads.WORKLOADS["fullbatch_wide"]
    report, singletons = copy.deepcopy(reports["fullbatch_wide"])
    report["recovery"]["singleton_match"] = False
    assert workload.check(report, singletons) == []
    assert len(workload.note(report, singletons)) == 1


# -- tracer -------------------------------------------------------------------------------

def test_tracer_counts_repeat_and_originals_come_back(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_small("fedavg_tokens")))
    originals = {(o, a): tracer._resolve(o).__dict__[a] for o, a, _, _ in tracer.PATCHES}
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
        finally:
            t.uninstall()
        metrics = tracer.layer_metrics(t)
        assert set(metrics) == set(tracer.TIME_METRICS.values())
        root = [s for s in t.spans if s[3] == -1]
        assert [s[0] for s in root] == ["cli"]
        assert sum(metrics.values()) == pytest.approx(root[0][2] - root[0][1])
        counts.append(dict(t.counts))
    assert counts[0] == counts[1]
    assert counts[0]["recovery.decoded"] > 0 and counts[0]["federation.local_steps"] == 4
    for (owner, attr), fn in originals.items():
        assert tracer._resolve(owner).__dict__[attr] is fn


# -- the command ----------------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "fullbatch_wide", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

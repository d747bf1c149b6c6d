import csv
import json
import os
import re
import sys

import numpy as np
import pytest

from imprintlab._svg import line_chart
from imprintlab.cli import main
from imprintlab.scenarios import bundled_config


def _small_cfg_file(tmp_path, **over):
    cfg = {
        "name": "cli_small",
        "seed": 1,
        "data": {"kind": "synthetic_gaussian", "n": 16, "m": 16, "label_classes": 4},
        "model": {
            "measurement": {"kind": "mean", "c0": "auto"},
            "imprint": {"variant": "relu", "k": 32},
            "head": {"kind": "pinned", "gain": 16.0},
        },
        "metrics": {"pool": 50, "rel_tol": 1e-4},
    }
    cfg.update(over)
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_run_bundled_to_stdout(capsys):
    assert main(["run", "--scenario", "fullbatch64"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["config"]["name"] == "fullbatch64"
    assert report["recovery"]["singleton_match"] is True


def test_run_writes_report_file(tmp_path, capsys):
    cfg = _small_cfg_file(tmp_path)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == 0
    msg = capsys.readouterr().out
    path = os.path.join(out_dir, "cli_small_report.json")
    assert f"report written to {path}" in msg
    with open(path) as fh:
        report = json.load(fh)
    assert report["n"] == 16
    # seed override is reflected in the written report
    assert main(["run", "--config", cfg, "--out", out_dir, "--seed", "9"]) == 0
    capsys.readouterr()
    with open(path) as fh:
        assert json.load(fh)["config"]["seed"] == 9


def test_config_errors_exit_2(tmp_path, capsys):
    bad_json = str(tmp_path / "bad.json")
    with open(bad_json, "w") as fh:
        fh.write("{not json")
    assert main(["run", "--config", bad_json]) == 2
    assert "config error" in capsys.readouterr().err

    cfg = _small_cfg_file(tmp_path, model={"imprint": {"variant": "relu", "k": 1}})
    assert main(["run", "--config", cfg]) == 2
    assert "model.imprint.k" in capsys.readouterr().err

    assert main(["run", "--config", cfg, "--scenario", "fullbatch64"]) == 2
    capsys.readouterr()
    assert main(["run"]) == 2
    assert "need --config" in capsys.readouterr().err
    assert main(["run", "--scenario", "nope"]) == 2
    assert "unknown bundled" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    # a seed past the 64-bit stream key
    assert main(["run", "--scenario", "fullbatch64", "--seed", str(1 << 64)]) == 2
    assert "config.seed: must be <= 18446744073709551615" in capsys.readouterr().err

    # a CSV's batch size is known only once loaded: 12 rows, 2 users, 4 steps
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("a,b\n" + "".join(f"{i}.5,{-i}.25\n" for i in range(12)))
    cfg = _small_cfg_file(tmp_path, data={"kind": "csv", "path": str(csv_path),
                                          "label_classes": 4},
                          federation={"protocol": "fed_avg", "users": 2, "steps": 4,
                                      "lr": 1e-4})
    assert main(["run", "--config", cfg]) == 2
    assert "federation.steps: 4 does not divide the per-user shard 6" in \
        capsys.readouterr().err

    # a one-shot interval past the top of the distribution
    cfg = _small_cfg_file(tmp_path, model={"imprint": {"variant": "one_shot",
                                                       "target_mass": 0.2,
                                                       "placement": 0.9}})
    assert main(["run", "--config", cfg]) == 2
    assert "model.imprint.placement" in capsys.readouterr().err

    # "1/n" of a batch of 1 is a mass of 1: a config error, not a failed run
    cfg = _small_cfg_file(tmp_path, data={"kind": "synthetic_gaussian", "n": 1, "m": 16},
                          model={"imprint": {"variant": "one_shot", "target_mass": "1/n"}})
    assert main(["run", "--config", cfg]) == 2
    assert "model.imprint.target_mass" in capsys.readouterr().err

    # a bare NaN in the file (Python's json reads it) is named as such
    cfg = bundled_config("fullbatch64")
    cfg["defense"]["sigma"] = float("nan")
    path = _small_cfg_file(tmp_path, **cfg)
    assert '"sigma": NaN' in open(path).read()
    assert main(["run", "--config", path]) == 2
    assert "defense.sigma: must be finite, got nan" in capsys.readouterr().err

    # a head gain past the float32 range; the same gain is finite in float64
    cfg = bundled_config("fullbatch64")
    cfg["model"]["head"]["gain"] = 1e39
    cfg = _small_cfg_file(tmp_path, **cfg)
    assert main(["run", "--config", cfg]) == 2
    assert "model.head.gain: must be finite in float32" in capsys.readouterr().err

    # a fed-AVG rate whose 1/(lr*steps) overflows the run dtype
    for dtype, lr in (("float32", 1e-40), ("float64", 5e-324)):
        cfg = bundled_config("fedavg8x8")
        cfg["dtype"], cfg["federation"]["lr"] = dtype, lr
        assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 2
        assert f"federation.lr: 1/(lr*steps) must be finite in {dtype}" in \
            capsys.readouterr().err

    # bin boundaries that collapse: a width so small, or a mean so far past
    # the width that they round to one value; the error names the cause
    for assumed, named in (({"kind": "normal", "sd": 5e-324}, "sd: 4.94066e-324"),
                           ({"kind": "laplace", "scale": 5e-324}, "scale: 4.94066e-324"),
                           ({"kind": "normal", "mean": 1e300, "sd": 1.0}, "mean: 1e+300"),
                           ({"kind": "laplace", "mean": -1e300, "scale": 1.0},
                            "mean: -1e+300")):
        cfg = bundled_config("fullbatch64")
        cfg["dtype"], cfg["model"]["assumed"] = "float64", assumed
        assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 2
        assert f"model.assumed.{named} gives bin boundaries" in capsys.readouterr().err


@pytest.mark.parametrize("name, section, over, expected", [
    # the mean row c0/m overflows the float32 weights
    ("fullbatch64", "measurement", {"c0": 1e300},
     "model.measurement.c0: 1e+300 puts imprint weights or biases past the float32 range"),
    # the weights fit, but the bridge's sum of 128 ReLU rows on this batch does not
    ("fullbatch64", "measurement", {"c0": 1e37},
     "model.measurement.c0: 1e+37 lets the imprint layer reach 4.52512e+39 on this batch, "
     "past the float32 range"),
    # the Laplace boundaries overflow the float32 biases
    ("text128", "assumed", {"kind": "laplace", "scale": 1e300},
     "model.assumed.scale: 1e+300 puts imprint weights or biases past the float32 range"),
], ids=["fullbatch64-c0", "fullbatch64-c0-bridge", "text128-laplace-scale"])
def test_imprint_overflowing_the_run_dtype_exits_2(tmp_path, capsys, name, section, over,
                                                   expected):
    cfg = bundled_config(name)
    cfg["model"][section] = over
    assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 2
    assert f"config error: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("name, users, noise, runs, bound", [
    # a float32 payload overflows at 52 ln 2 Laplace scales
    ("fullbatch64", 1, "laplace", 1e36, 9.44084e36),
    # secure aggregation sums 64 users' noise before the mean
    ("fullbatch64", 64, "laplace", 1e35, 1.47513e35),
    # fed-AVG's read-out scales the delta by 1/(lr*steps) = 1250
    ("fedavg8x8", 1, "gaussian", 1e33, 7.55267e33),
])
def test_defense_sigma_past_the_read_out_range_exits_2(tmp_path, capsys, name, users, noise,
                                                       runs, bound):
    cfg = bundled_config(name)
    cfg["dtype"] = "float32"
    cfg["federation"]["users"] = users
    cfg["defense"].update(noise=noise, sigma=runs)
    assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 0
    capsys.readouterr()
    cfg["defense"]["sigma"] = runs * 100
    assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 2
    assert (f"config error: defense.sigma: must be at most {bound:g} in float32"
            in capsys.readouterr().err)


@pytest.mark.parametrize("over, expected", [
    ({"data": 3}, "config error: data: expected an object, got int"),
    ({"model": {"imprint": [1]}}, "config error: model.imprint: expected an object, got list"),
])
def test_non_object_section_exits_2(tmp_path, capsys, over, expected):
    assert main(["run", "--config", _small_cfg_file(tmp_path, **over)]) == 2
    assert expected in capsys.readouterr().err


def test_runtime_errors_exit_3(tmp_path, capsys):
    cfg = _small_cfg_file(tmp_path, data={"kind": "csv", "path": str(tmp_path / "no.csv"),
                                          "label_classes": 4})
    assert main(["run", "--config", cfg]) == 3
    assert "runtime error" in capsys.readouterr().err

    # a gain finite in float64 still overflows the forward pass; the read-out
    # refuses the non-finite payload instead of scoring it
    cfg = bundled_config("fullbatch64")
    cfg["model"]["head"]["gain"] = 1e308
    cfg = _small_cfg_file(tmp_path, **cfg)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg, "--f64"]) == 3
    assert "(ValueError): non-finite gradient in the payload" in capsys.readouterr().err


def test_non_finite_report_exits_3_and_writes_nothing(tmp_path, capsys):
    # in float32 these imprint weights fit, but the loss overflows to inf;
    # JSON has no infinity, so the report is refused before any file is opened
    cfg = bundled_config("fullbatch64")
    cfg["model"]["measurement"]["c0"] = 1e35
    cfg = _small_cfg_file(tmp_path, **cfg)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in captured.err


def test_non_finite_report_names_its_field(tmp_path, capsys):
    cfg = bundled_config("fullbatch64")
    cfg["model"]["measurement"]["c0"] = 1e35  # float32: the loss overflows
    cfg = _small_cfg_file(tmp_path, **cfg)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg]) == 3
    assert ("runtime error (ValueError): federation.mean_loss: Out of range float "
            "values are not JSON compliant: inf") in capsys.readouterr().err


def test_non_finite_csv_cell_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("a,b\n0.1,0.2\n0.3,nan\n0.5,0.6\n0.7,0.8\n")
    cfg = _small_cfg_file(tmp_path, data={"kind": "csv", "path": str(path),
                                          "label_classes": 4})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "data.path:" in err and "nan.csv:3: column 'b': non-finite value 'nan'" in err


@pytest.mark.parametrize("text, measurement, expected", [
    ("a,label\n0.1,1\n0.3,-1\n", None,
     "data.path: {path}:3: column 'label': bad label '-1'"),
    ("label\n1\n0\n", None, "data.path: {path}:1: no feature columns"),
    # the feature width of a CSV is known only once it is loaded
    ("a,b\n0.1,0.2\n0.3,0.4\n", {"kind": "dct", "freq": 5},
     "model.measurement.freq: must be < feature width 2"),
    # the head has classes 0..3 only
    ("a,label\n0.1,1\n0.3,4\n", None, "data.label_classes: file holds label 4, configured 4"),
])
def test_csv_contents_are_config_errors(tmp_path, capsys, text, measurement, expected):
    path = tmp_path / "data.csv"
    path.write_text(text)
    model = {"measurement": measurement or {"kind": "mean"},
             "imprint": {"variant": "relu", "k": 4}}
    cfg = _small_cfg_file(tmp_path, data={"kind": "csv", "path": str(path),
                                          "label_classes": 4}, model=model)
    assert main(["run", "--config", cfg]) == 2
    assert expected.format(path=path) in capsys.readouterr().err


def test_plan_one_shot(capsys):
    assert main(["plan", "--n", "4096", "--p", "0.000244140625", "--m", "32"]) == 0
    out = capsys.readouterr().out
    assert "one-shot success probability: 0.3679" in out
    assert "p* = 0.000244141" in out
    assert "imprint parameter overhead: 66" in out  # 2 rows of (32 + 1)


def test_plan_binned_with_fallback(capsys):
    # k = 2 <= n: the composition closed form does not apply; iid still does
    assert main(["plan", "--n", "3", "--k", "2", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "composition model unavailable" in out
    assert "0.7500" in out  # 3 * (1/2)^2
    assert main(["plan", "--n", "64", "--k", "156", "--m", "16",
                 "--base-params", "1000000"]) == 0
    out = capsys.readouterr().out
    assert "composition model): 32.0040" in out
    assert "relative to base model:" in out


@pytest.mark.parametrize("args, absolute", [
    (["--n", "64", "--k", "156", "--m", "16", "--decoys", "5", "--bridge-params", "9"],
     2746),  # 161 rows of (16 + 1), plus the bridge
    (["--n", "4096", "--p", "0.000244140625", "--m", "32", "--decoys", "3"],
     165),  # the trap's 2 rows and 3 decoys, of (32 + 1)
])
def test_plan_prices_decoys_and_bridge(capsys, args, absolute):
    assert main(["plan", *args]) == 0
    assert f"imprint parameter overhead: {absolute}\n" in capsys.readouterr().out


def test_plan_argument_validation(capsys):
    assert main(["plan", "--n", "8", "--m", "4"]) == 2
    assert "exactly one of --k or --p" in capsys.readouterr().err
    assert main(["plan", "--n", "8", "--k", "4", "--p", "0.1", "--m", "4"]) == 2
    capsys.readouterr()
    assert main(["plan", "--n", "8", "--p", "1.5", "--m", "4"]) == 2
    assert "must lie in (0, 1)" in capsys.readouterr().err
    for flag, value, lo in (("--n", "0", 1), ("--k", "0", 1), ("--m", "-5", 1),
                            ("--decoys", "-3", 0), ("--base-params", "0", 1)):
        args = {"--n": "8", "--k": "16", "--m": "4", flag: value}
        assert main(["plan", *[t for kv in args.items() for t in kv]]) == 2
        assert f"plan: {flag} must be >= {lo}, got {value}" in capsys.readouterr().err
    assert main(["plan", "--n", "8", "--p", "0.1", "--m", "4",
                 "--bridge-params", "-1"]) == 2
    assert "plan: --bridge-params must be >= 0, got -1" in capsys.readouterr().err
    assert main(["plan", "--n", "1", "--p", "0.5", "--m", "4"]) == 2
    assert "plan: --n must be >= 2, got 1" in capsys.readouterr().err


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    cfg = _small_cfg_file(tmp_path)
    out_dir = str(tmp_path / "sweep_out")
    assert main(["sweep", "--config", cfg, "--axis", "bins",
                 "--values", "8,16", "--out", out_dir, "--jobs", "2"]) == 0
    msg = capsys.readouterr().out
    csv_path = os.path.join(out_dir, "cli_small_bins_sweep.csv")
    svg_path = os.path.join(out_dir, "cli_small_bins_sweep.svg")
    assert f"sweep written to {csv_path}" in msg
    assert os.path.exists(csv_path) and os.path.exists(svg_path)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("axis,value,")
    assert len(lines) == 3
    assert lines[1].split(",")[:2] == ["bins", "8"]
    with open(svg_path) as fh:
        assert fh.read(5) == "<svg "


def test_sweep_chart_scales_each_point_by_its_batch(tmp_path, capsys, monkeypatch):
    import imprintlab.cli as cli
    from imprintlab.theory import iid_expected, prop1_closed_form

    charts = []
    monkeypatch.setattr(cli, "line_chart", lambda series, **kw: charts.append(series) or "")
    cfg = _small_cfg_file(tmp_path)
    assert main(["sweep", "--config", cfg, "--axis", "batch", "--values", "4,8,16",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    model = {name: ys for name, _, ys in charts[0]}
    assert model["composition model"] == [prop1_closed_form(n, 32) / n for n in (4, 8, 16)]
    assert model["iid model"] == [iid_expected(n, 32) / n for n in (4, 8, 16)]


def test_trial_sweep_charts_its_success_on_any_axis(tmp_path, monkeypatch):
    """A trial loop's rows hold its success rate whatever leaf the sweep moves,
    and a series with no point gets no legend row."""
    import imprintlab.cli as cli

    charts = []
    monkeypatch.setattr(cli, "line_chart", lambda series, **kw: charts.append((series, kw)) or "")
    cfg = _small_cfg_file(tmp_path, data={"kind": "synthetic_gaussian", "n": 16, "m": 8},
                          model={"imprint": {"variant": "one_shot", "target_mass": "1/n"}},
                          metrics={"pool": 0}, trials=3)
    for axis, values in (("batch", "8,16"), ("trials", "2,3")):
        out = tmp_path / axis
        assert main(["sweep", "--config", cfg, "--axis", axis, "--values", values,
                     "--out", str(out)]) == 0
        with open(out / f"cli_small_{axis}_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        series, kw = charts.pop()
        assert [(name, ys) for name, _, ys in series] == [
            ("predicted success", [float(r["one_shot_expected"]) for r in rows]),
            ("measured success", [float(r["success_rate"]) for r in rows])]
        assert kw["y_label"] == "success probability"


@pytest.mark.parametrize("value", ["64", "1e20"])
def test_one_value_sweep_draws_its_chart(tmp_path, capsys, value):
    """A single point spans no x range; past 2**53 adding 1.0 cannot widen it."""
    out_dir = tmp_path / "out"
    assert main(["sweep", "--scenario", "fullbatch64", "--axis", "model.head.gain",
                 "--values", value, "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    svg = (out_dir / "fullbatch64_model.head.gain_sweep.svg").read_text()
    assert svg.startswith("<svg ") and svg.count('<circle cx="64.0" ') == 3  # one per series


@pytest.mark.parametrize("values", ["100000", "1e6", "1000000,1000001", "1e20"])
def test_sweep_chart_axes_print_distinct_tick_labels(tmp_path, capsys, values):
    """Six significant digits print one label several times on a narrow range."""
    assert main(["sweep", "--scenario", "fullbatch64", "--axis", "model.head.gain",
                 "--values", values, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    svg = (tmp_path / "fullbatch64_model.head.gain_sweep.svg").read_text()
    for anchor in ("middle", "end"):  # x, then y: each label follows its tick mark
        labels = re.findall(rf'stroke="#333"/>\n<text [^>]*text-anchor="{anchor}">([^<]*)<', svg)
        assert len(labels) == len(set(labels)) == 5, labels


def test_chart_at_the_largest_float_widens_its_range_downward():
    svg = line_chart([("s", [sys.float_info.max], [0.5])], title="t", x_label="x", y_label="y")
    labels = re.findall(r'stroke="#333"/>\n<text [^>]*text-anchor="middle">([^<]*)<', svg)
    assert len(set(labels)) == 5 and "inf" not in labels


def test_chart_breaks_its_lines_at_missing_points():
    svg = line_chart([("a", [1, 2, 3, 4], [0.1, None, 0.2, 0.3]),
                      ("b", [1, 2, 3, 4], [0.5, 0.6, None, 0.7])],
                     title="t", x_label="x", y_label="y")
    assert svg.count("<polyline ") == 2 and svg.count("<circle ") == 6


def test_sweep_stdout_mode(tmp_path, capsys):
    args = ["sweep", "--scenario", "fullbatch64", "--axis", "bins", "--values", "64,128"]
    assert main(args) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].split(",")[0] == "axis"
    assert lines[1].startswith("bins,64,")
    # stdout carries exactly the bytes of the --out CSV
    assert main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "fullbatch64_bins_sweep.csv", newline="") as fh:
        assert fh.read() == text


def test_sweep_by_leaf_path(tmp_path, capsys):
    one_shot = {"imprint": {"variant": "one_shot", "target_mass": "1/n"},
                "head": {"kind": "pinned", "gain": 1.0}}
    cfg = _small_cfg_file(tmp_path, model=one_shot, trials=4, dtype="float64")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--axis", "model.imprint.placement",
                 "--values", "0.25,0.5", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    lines = (out_dir / "cli_small_model.imprint.placement_sweep.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["model.imprint.placement", "0.25"], ["model.imprint.placement", "0.5"]]
    # a leaf that does not exist under the config's variant
    assert main(["sweep", "--config", cfg, "--axis", "model.imprint.k", "--values", "4"]) == 2
    assert "sweep.axis: model.imprint.k sweep needs model.imprint.variant relu or " \
        "hard_threshold, got one_shot" in capsys.readouterr().err


def test_sweep_files_take_the_validated_name(tmp_path, capsys):
    cfg = bundled_config("fullbatch64")
    del cfg["name"]
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--axis", "bins", "--values", "64",
                 "--out", str(tmp_path / "out")]) == 0
    assert "custom_bins_sweep.csv" in capsys.readouterr().out


def test_sweep_bad_values(tmp_path, capsys):
    cfg = _small_cfg_file(tmp_path)
    assert main(["sweep", "--config", cfg, "--axis", "bins", "--values", "a,b"]) == 2
    assert "bad value" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--axis", "bins", "--values", ","]) == 2
    capsys.readouterr()
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", cfg, "--axis", "bins", "--values", "8",
                     "--jobs", jobs]) == 2
        assert f"sweep: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err


def test_check_runs_every_bundled_scenario(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    for name in ("fullbatch64", "oneshot", "fedavg8x8", "text128"):
        assert f"] {name}:" in out
    assert "[FAIL]" not in out
    assert "all checks passed" in out


def test_check_failures_exit_4_and_out_writes_reports(tmp_path, capsys, monkeypatch):
    import imprintlab.cli as cli

    # one bundle, with its verdicts inverted, stands for a run that misses its thresholds
    monkeypatch.setattr(cli, "BUNDLED", {"fullbatch64": None})
    passing = cli.check_bundled
    monkeypatch.setattr(cli, "check_bundled",
                        lambda result: [(lb, not ok, d) for lb, ok, d in passing(result)])
    assert main(["check", "--out", str(tmp_path)]) == 4
    out = capsys.readouterr().out
    assert out.count("[FAIL] fullbatch64:") == 2 and "[PASS]" not in out
    assert out.endswith("2 check(s) failed\n")
    # --out holds the report each check read, as `run` writes it
    written = json.loads((tmp_path / "fullbatch64_report.json").read_text())
    assert main(["run", "--scenario", "fullbatch64"]) == 0
    ran = json.loads(capsys.readouterr().out)
    assert {k: v for k, v in written.items() if k != "timing"} == \
        {k: v for k, v in ran.items() if k != "timing"}


def test_sigma_sweep_charts_the_measured_fraction_only(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["sweep", "--scenario", "fullbatch64", "--axis", "sigma",
                 "--values", "0,1e-3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    svg = (out_dir / "fullbatch64_sigma_sweep.svg").read_text()
    assert ">measured exact fraction</text>" in svg and ">exact fraction</text>" in svg
    assert "model</text>" not in svg and svg.count("<polyline ") == 1


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main(["sweep", "--axis", "bins"])  # missing required --values
    # the trap-mass axis is named for the field it sets
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", "oneshot", "--axis", "placement", "--values", "0.001"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])

import json
import os

import numpy as np
import pytest

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

    # an assumed scale so small that the bin boundaries collapse
    for assumed in ({"kind": "normal", "sd": 5e-324}, {"kind": "laplace", "scale": 5e-324}):
        cfg = bundled_config("fullbatch64")
        cfg["dtype"], cfg["model"]["assumed"] = "float64", assumed
        assert main(["run", "--config", _small_cfg_file(tmp_path, **cfg)]) == 2
        leaf = "sd" if assumed["kind"] == "normal" else "scale"
        assert f"model.assumed.{leaf}: 4.94066e-324 gives bin boundaries" in \
            capsys.readouterr().err


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

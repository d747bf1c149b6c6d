import argparse
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from imprintlab.cli import build_parser
from imprintlab.scenarios import CONFIG_LEAVES, _blame_overflow, bundled_config, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    """The README's library sketch runs as written, so it names no removed API."""
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["readout"]) == 49
    # the sketch's comment: every bin reads the mean of its members
    readout, x = namespace["readout"], namespace["x"]
    examples, bins = namespace["examples"], namespace["bins"]
    for b, v in zip(readout.bins, readout.vectors):
        assert np.allclose(v, x[examples[bins == b]].mean(axis=0), rtol=1e-12, atol=1e-12)


def test_readme_cli_section_names_exactly_the_parser_long_options():
    """Every long option of every subcommand (argparse's --help aside) is in
    README `## CLI`, and that section names no option the parser lacks."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert len(options) == 14
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("## Config reference")]
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section)) == options


def test_readme_config_reference_lists_every_leaf_and_its_default():
    text = README.read_text()
    section = text[text.index("## Config reference"):text.index("## Library sketch")]
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|", section, re.M)
    assert rows == [(leaf.path, "required" if leaf.default is ... else
                     f"`{json.dumps(leaf.default)}`") for leaf in CONFIG_LEAVES]
    assert len(rows) == 47


def test_readme_names_every_federation_report_key():
    """No key the federation block writes is undocumented, and no removed key
    lingers in the README."""
    text = README.read_text()
    keys = set(run_scenario(bundled_config("fedavg8x8")).report["federation"])
    assert {k for k in keys if f"`federation.{k}`" not in text} == set()
    leaves = {lf.path.split(".")[1] for lf in CONFIG_LEAVES if lf.path.startswith("federation.")}
    assert set(re.findall(r"`federation\.(\w+)`", text)) <= keys | leaves


def test_readme_names_every_leaf_an_overflow_can_blame():
    """Each factor of a federated pass is made the largest in turn; the
    README's cross-field checks name every leaf `_blame_overflow` then blames."""
    def c0(cfg):
        cfg["model"]["measurement"]["c0"] = -1e30

    def gain(cfg):
        cfg["model"]["head"]["gain"] = 1e30

    def scale(cfg):
        cfg["model"]["head"] = {"kind": "random", "scale": 1e30}

    def lr(cfg):
        cfg["federation"]["lr"] = 1e30

    def csv(cfg):
        cfg["data"] = {"kind": "csv"}  # the batch's largest magnitude, 1e30, is the factor

    def mean(cfg):
        cfg["model"]["assumed"] = {"kind": "laplace", "mean": -1e30, "scale": 1.0}

    def sd(cfg):
        cfg["model"]["assumed"] = {"kind": "normal", "mean": 0.0, "sd": 1e30}

    def law_scale(cfg):
        cfg["model"]["assumed"] = {"kind": "laplace", "mean": 0.0, "scale": 1e30}

    batch = SimpleNamespace(x=np.full((2, 3), -1e30))
    blamed = set()
    for make_largest in (c0, gain, scale, lr, csv, mean, sd, law_scale):
        cfg = bundled_config("fedavg8x8")  # fed-AVG, so lr is a factor
        make_largest(cfg)
        err = _blame_overflow(cfg, batch, FloatingPointError("overflow encountered in matmul"))
        blamed.add(str(err).split(": ")[0])
    assert blamed == {"model.measurement.c0", "model.head.gain", "model.head.scale",
                      "federation.lr", "data.path", "model.assumed.mean", "model.assumed.sd",
                      "model.assumed.scale"}
    text = README.read_text()
    checks = text[text.index("A few checks span leaves"):text.index("| path | type |")]
    assert {leaf for leaf in blamed if f"`{leaf}`" not in checks} == set()

"""The benchmark's tracer (`imprintbench/tracer.py`) wraps program names
given as (owner, attribute) pairs and looks each up in the owner's own
`__dict__`. A name that moves or is renamed in `src/` breaks only traced
runs (`imprintbench/run.py --trace 1`), with a KeyError at install. These
tests read the pairs; they change nothing in the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "imprintbench"))

import tracer  # noqa: E402

PAIRS = [(owner, attr) for owner, attr, _, _ in tracer.PATCHES]


@pytest.mark.parametrize("owner, attr", PAIRS, ids=[f"{o}.{a}" for o, a in PAIRS])
def test_tracer_patch_resolves_in_its_owner(owner, attr):
    assert attr in tracer._resolve(owner).__dict__

import re
from pathlib import Path

import numpy as np

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

import json

import numpy as np
import pytest

from imprintlab.dataio import (Batch, canonical_json, load_csv, load_synthetic_gaussian,
                               load_token_sequences, normalize, to_jsonable, write_csv,
                               write_report)
from imprintlab.numerics import RngStream


def test_synthetic_gaussian_shape_and_determinism():
    a = load_synthetic_gaussian(10, 4, label_classes=3, stream=RngStream(90, 0))
    b = load_synthetic_gaussian(10, 4, label_classes=3, stream=RngStream(90, 0))
    assert a.x.shape == (10, 4) and a.x.dtype == np.float32
    assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
    assert a.labels.min() >= 0 and a.labels.max() < 3
    assert (a.n, a.m) == (10, 4)
    with pytest.raises(ValueError):
        load_synthetic_gaussian(0, 4, label_classes=3, stream=RngStream(90, 1))


def test_csv_roundtrip_without_label_column(tmp_path):
    path = str(tmp_path / "feats.csv")
    write_csv(path, ["a", "b", "c"], [[1.0, 2.5, -3.0], [0.125, 7.0, 9.5],
                                      [4.0, 5.0, 6.0], [1.5, 2.0, 0.0],
                                      [-1.0, -2.0, -3.5]])
    batch = load_csv(path)
    assert batch.x.shape == (5, 3)
    assert batch.labels is None
    assert batch.x[1, 0] == np.float32(0.125)


def test_csv_with_label_column(tmp_path):
    path = str(tmp_path / "labeled.csv")
    write_csv(path, ["f0", "label", "f1"], [[0.5, 2, 1.5], [1.5, 0, 2.5]])
    batch = load_csv(path)
    assert batch.x.shape == (2, 2)
    assert np.array_equal(batch.labels, [2, 0])
    assert batch.labels.dtype == np.int64
    # the label column is positional-agnostic and optional by name
    other = load_csv(path, label_column="missing")
    assert other.x.shape == (2, 3)
    assert other.labels is None


def test_csv_errors_name_row_and_column(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: column 'b': bad float 'oops'"):
        load_csv(path)
    for cell in ("nan", "inf", "-inf"):
        with open(path, "w") as fh:
            fh.write(f"a,b\n1.0,2.0\n{cell},1.0\n")
        with pytest.raises(ValueError,
                           match=rf"bad\.csv:3: column 'a': non-finite value '{cell}'"):
            load_csv(path)
    with open(path, "w") as fh:
        fh.write("a,label\n1.0,x\n")
    with pytest.raises(ValueError, match="bad label 'x'"):
        load_csv(path)
    with open(path, "w") as fh:
        fh.write("a,b\n1.0\n")
    with pytest.raises(ValueError, match="expected 2 fields, got 1"):
        load_csv(path)
    with open(path, "w") as fh:
        fh.write("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(path)
    with open(path, "w") as fh:
        fh.write("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


def test_normalize_standardize_and_inverse():
    x = RngStream(94, 0).normal((50, 6), dtype=np.float64) * 3.0 + 1.5
    out, info = normalize(x, "standardize")
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert np.abs(out.std(axis=0) - 1).max() < 1e-12
    batch = Batch(x=out, labels=None, normalization=info)
    assert np.allclose(batch.denormalize(out), x, rtol=1e-12, atol=1e-12)


def test_normalize_unit_interval_and_guards():
    x = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    out, info = normalize(x, "unit_interval")
    assert out.min() == 0.0 and out[:, 0].max() == 1.0
    # zero-spread column: scale falls back to 1 instead of dividing by zero
    assert np.all(out[:, 1] == 0.0)
    assert info["scale"][1] == 1.0
    same, none_info = normalize(x, "none")
    assert same is x and none_info is None
    with pytest.raises(ValueError, match="unknown normalization"):
        normalize(x, "whiten")
    batch = Batch(x=out, labels=None, normalization=None)
    assert batch.denormalize(out) is out


def test_canonical_json_is_stable_and_sorted():
    a = canonical_json({"b": 1, "a": [np.float64(0.1), np.int32(2), np.bool_(True)]})
    b = canonical_json({"a": [0.1, 2, True], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    got = to_jsonable({"arr": np.arange(3), "f": np.float32(0.5)})
    assert got == {"arr": [0, 1, 2], "f": 0.5}
    assert all(isinstance(v, int) for v in got["arr"])


def test_write_report_and_csv_format(tmp_path):
    path = str(tmp_path / "sub" / "report.json")
    write_report({"x": 0.1, "nested": {"b": 2, "a": 1}}, path)
    with open(path) as fh:
        text = fh.read()
    assert text == canonical_json({"nested": {"a": 1, "b": 2}, "x": 0.1})
    assert json.loads(text)["x"] == 0.1
    csv_path = str(tmp_path / "table.csv")
    write_csv(csv_path, ["k", "v"], [[1, 0.1], [2, 2.0]])
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines == ["k,v", "1,0.1", "2,2.0"]


def test_token_sequences_embed_through_the_table():
    batch = load_token_sequences(6, 3, vocab=11, embed_dim=4, label_classes=2,
                                 stream=RngStream(95, 0))
    ids = batch.meta["ids"]
    table = batch.meta["table"]
    assert ids.shape == (6, 3) and table.shape == (11, 4)
    oracle = table[ids].reshape(6, 12)
    assert np.array_equal(batch.x, oracle)
    assert batch.meta["seq_len"] == 3 and batch.meta["embed_dim"] == 4
    again = load_token_sequences(6, 3, vocab=11, embed_dim=4, label_classes=2,
                                 stream=RngStream(95, 0))
    assert np.array_equal(batch.x, again.x) and np.array_equal(ids, again.meta["ids"])
    # caller-provided table is used verbatim
    custom = np.eye(11, 4, dtype=np.float32)
    given = load_token_sequences(6, 3, vocab=11, embed_dim=4, label_classes=2,
                                 stream=RngStream(95, 0), table=custom)
    assert np.array_equal(given.meta["table"], custom)
    with pytest.raises(ValueError, match="table shape"):
        load_token_sequences(6, 3, vocab=11, embed_dim=4, label_classes=2,
                             stream=RngStream(95, 0), table=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        load_token_sequences(0, 3, vocab=11, embed_dim=4, label_classes=2,
                             stream=RngStream(95, 0))

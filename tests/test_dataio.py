import json

import numpy as np
import pytest

from imprintlab.dataio import (canonical_json, load_csv, load_synthetic_gaussian,
                               load_token_sequences, normalize, write_csv,
                               write_report)
from imprintlab.numerics import RngStream
from oracles import loop_load_csv


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        write_csv(fh, header, rows)


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
    _write_csv(path, ["a", "b", "c"], [[1.0, 2.5, -3.0], [0.125, 7.0, 9.5],
                                       [4.0, 5.0, 6.0], [1.5, 2.0, 0.0],
                                       [-1.0, -2.0, -3.5]])
    batch = load_csv(path)
    assert batch.x.shape == (5, 3)
    assert batch.labels is None
    assert batch.x[1, 0] == np.float32(0.125)


def test_csv_with_label_column(tmp_path):
    path = str(tmp_path / "labeled.csv")
    _write_csv(path, ["f0", "label", "f1"], [[0.5, 2, 1.5], [1.5, 0, 2.5]])
    batch = load_csv(path)
    assert batch.x.shape == (2, 2)
    assert np.array_equal(batch.x, [[0.5, 1.5], [1.5, 2.5]])  # any column may be the label
    assert np.array_equal(batch.labels, [2, 0])
    assert batch.labels.dtype == np.int64


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
        fh.write("a,label\n1.0,0\n2.0,-1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: column 'label': bad label '-1'"):
        load_csv(path)
    with open(path, "w") as fh:
        fh.write("label\n1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1: no feature columns"):
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


@pytest.mark.parametrize("text", [
    "a, label ,b\n 1.5 ,3, 2e3\n1_0, 1_0 ,-0.0\n\n+7,0,.5e-3\n-1E-310,2,1e38\n",
    "a,b\n0.1,0.2\n0.30000000000000004,  -7\n",
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_csv_values_match_the_per_cell_reader(tmp_path, text, dtype):
    path = tmp_path / "ok.csv"
    path.write_text(text)
    x, labels = loop_load_csv(str(path), dtype=dtype)
    batch = load_csv(str(path), dtype=dtype)
    assert batch.x.dtype == x.dtype and batch.x.tobytes() == x.tobytes()
    assert (batch.labels is None) == (labels is None)
    if labels is not None:
        assert batch.labels.tolist() == labels.tolist()


def test_csv_with_a_byte_order_mark_keeps_its_label_column(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("label,a,b\n1,0.5,0.25\n0,1.5,2.5\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    batch = load_csv(str(path))
    assert batch.labels.tolist() == [1, 0]
    assert batch.x.tolist() == [[0.5, 0.25], [1.5, 2.5]]


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n3,inf\n", "a,b\n1, nan \n", "a,b\n1e400,2\n", "a,b\n-1e400,2\n",
    "a,b\n1,x\n", "a,b\n1,1__0\n", "a,label\n1,1.0\n", "a,label\n1,-1\n",
    "a,label\n1, \n", "a,b\n1,2,3\n",
    "a,label,b\n1,-1,x\n",   # the leftmost bad cell of a row is named
    "a,label,b\nx,-1,1\n",
    "a,label,b\n1,x,inf\n",
    "a,b\n1,inf\n2,x\n",    # and the first bad row
    "a,b\n1,x\n2,3,4\n",
    "a,b\n1,2\n\n3\n",
    "a,b\n1,2\n3,3.5e38\n",   # finite in float64, past the float32 range
    "a,label,b\n-1e39,0,x\n",
])
def test_csv_errors_match_the_per_cell_reader(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as want:
        loop_load_csv(str(path))
    with pytest.raises(ValueError) as got:
        load_csv(str(path))
    assert str(got.value) == str(want.value)


def test_normalize_standardize_and_inverse():
    x = RngStream(94, 0).normal((50, 6), dtype=np.float64) * 3.0 + 1.5
    out = normalize(x, "standardize")
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert np.abs(out.std(axis=0) - 1).max() < 1e-12
    # an affine map per column: the column statistics undo it
    assert np.allclose(out * x.std(axis=0) + x.mean(axis=0), x, rtol=1e-12, atol=1e-12)


def test_normalize_unit_interval_and_guards():
    x = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    out = normalize(x, "unit_interval")
    assert out.min() == 0.0 and out[:, 0].max() == 1.0
    # zero-spread column: scale falls back to 1 instead of dividing by zero
    assert np.all(out[:, 1] == 0.0)
    assert normalize(x, "none") is x
    with pytest.raises(ValueError, match="unknown normalization"):
        normalize(x, "whiten")


@pytest.mark.parametrize("kind, spread, message", [
    # each cell is finite in float32; the column's spread is not (nor, in
    # float32, its squares), and no overflow warning escapes
    pytest.param("standardize", 3e38, "standardize overflows float32: a column's offset",
                 id="standardize"),
    pytest.param("unit_interval", 3e38, "unit_interval overflows float32: a column's offset",
                 id="unit_interval"),
    # the column varies, but its squared deviations underflow to 0 in float32
    pytest.param("standardize", 1e-25, "standardize underflows float32: a varying column's",
                 id="standardize-underflow"),
])
def test_normalize_refuses_a_spread_past_the_dtype_range(kind, spread, message):
    x = np.array([[spread, 1.0], [-spread, 2.0]], dtype=np.float32)
    with pytest.raises(ValueError, match=message):
        normalize(x, kind)
    assert normalize(x.astype(np.float64), kind).dtype == np.float64
    # a constant column keeps scale 1, however small its values
    assert normalize(np.array([[1e-25, 1.0], [1e-25, 2.0]], dtype=np.float32), kind)[0, 0] == 0


def test_canonical_json_is_stable_and_sorted():
    a = canonical_json({"b": 1, "a": [np.float64(0.1), np.int32(2), np.bool_(True)]})
    b = canonical_json({"a": [0.1, 2, True], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    # numpy scalars and arrays, 0-d and nested, are written as plain values
    arrays = {"f32": np.float32(0.5), "f64": np.float64(0.1), "i": np.int64(3),
              "b": np.bool_(False), "zero_d": np.array(2.5),
              "nested": [np.arange(3), {"grid": np.array([[1.5, 2.0], [3.0, 4.0]])}]}
    plain = {"f32": 0.5, "f64": 0.1, "i": 3, "b": False, "zero_d": 2.5,
             "nested": [[0, 1, 2], {"grid": [[1.5, 2.0], [3.0, 4.0]]}]}
    assert canonical_json(arrays) == canonical_json(plain)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float32(np.inf)])
def test_non_finite_values_are_refused_and_no_report_is_written(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json({"x": [1.0, value]})
    path = tmp_path / "sub" / "report.json"
    with pytest.raises(ValueError):
        write_report({"x": value}, str(path))
    assert not path.parent.exists()


def test_write_report_and_csv_format(tmp_path):
    path = str(tmp_path / "sub" / "report.json")
    write_report({"x": 0.1, "nested": {"b": 2, "a": 1}}, path)
    with open(path) as fh:
        text = fh.read()
    assert text == canonical_json({"nested": {"a": 1, "b": 2}, "x": 0.1})
    assert json.loads(text)["x"] == 0.1
    csv_path = str(tmp_path / "table.csv")
    _write_csv(csv_path, ["k", "v"], [[1, 0.1], [2, 2.0], [3, np.float64(1 / 3)]])
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines == ["k,v", "1,0.1", "2,2.0", "3,0.3333333333333333"]


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
    with pytest.raises(ValueError):
        load_token_sequences(0, 3, vocab=11, embed_dim=4, label_classes=2,
                             stream=RngStream(95, 0))

"""Checkpoint and index files: loaders reject any malformed input with
ValueError (IndexFormatError for index files), and writers replace the
previous file atomically."""

import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genki.corpus
from genki.corpus import Vocabulary
from genki.lm_core import LossWeights, ToyLm, TrainExample, load_checkpoint, save_checkpoint, train
from genki.retriever import MAGIC, DenseIndex, IndexFormatError, load_index, save_index
from genki.reward import ToyRewardModel, load_reward_checkpoint, save_reward_checkpoint

V5 = Vocabulary(["<unk>", "</s>", "a", "b", "c"])
LOADERS = [load_checkpoint, load_reward_checkpoint]
DROP = object()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda inner: (
        st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=8), inner, max_size=6)
    ),
    max_leaves=30,
)

# tmp_path is shared by a test's examples; each example overwrites its file.
FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def lm_payload(tmp_path):
    batch = [TrainExample(V5.encode("a"), V5.encode("b c"))]
    model = train(ToyLm(V5), [V5.encode("a b c a")], batch, LossWeights(), 3)
    path = tmp_path / "lm.json"
    save_checkpoint(model, path)
    return json.loads(path.read_text())


def reward_payload(tmp_path):
    path = tmp_path / "reward.json"
    save_reward_checkpoint(ToyRewardModel(weights=[0.5, -1.0, 2.0]), path)
    return json.loads(path.read_text())


def loads_or_value_error(loader, path):
    try:
        loader(path)
    except ValueError:
        pass


@FUZZ
@given(data=st.binary(max_size=200))
@pytest.mark.parametrize("loader", LOADERS)
def test_arbitrary_bytes(tmp_path, loader, data):
    path = tmp_path / "ckpt.json"
    path.write_bytes(data)
    loads_or_value_error(loader, path)


@FUZZ
@given(value=json_values)
@pytest.mark.parametrize("loader", LOADERS)
def test_arbitrary_json_document(tmp_path, loader, value):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(value))
    loads_or_value_error(loader, path)


LM_FIELDS = ["schema_version", "vocab", "default", "lengths", "cols", "vals", "step"]
REWARD_FIELDS = ["schema_version", "features", "weights"]


@settings(FUZZ, max_examples=40)
@given(value=json_values | st.just(DROP))
@pytest.mark.parametrize(
    "make,loader,key",
    [(lm_payload, load_checkpoint, key) for key in LM_FIELDS]
    + [(reward_payload, load_reward_checkpoint, key) for key in REWARD_FIELDS],
)
def test_one_field_replaced_or_dropped(tmp_path, make, loader, key, value):
    payload = make(tmp_path)
    assert key in payload
    if value is DROP:
        del payload[key]
    else:
        payload[key] = value
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    loads_or_value_error(loader, path)


@FUZZ
@given(cut=st.integers(min_value=0, max_value=400), flip=st.integers(min_value=0, max_value=255))
def test_damaged_lm_checkpoint_bytes(tmp_path, cut, flip):
    path = tmp_path / "lm.json"
    save_checkpoint(ToyLm(V5), path)
    data = bytearray(path.read_bytes())
    data[cut % len(data)] ^= flip
    path.write_bytes(bytes(data))
    loads_or_value_error(load_checkpoint, path)


def pack(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


@st.composite
def sparse_rows(draw):
    """Well-formed rows of a V5 model, sometimes with one array damaged."""
    size = V5.size
    per_row = [sorted(draw(st.sets(st.integers(0, size - 1)))) for _ in range(size)]
    finite = st.floats(-1e6, 1e6)
    arrays = {
        "default": draw(st.lists(finite, min_size=size, max_size=size)),
        "lengths": [len(row) for row in per_row],
        "cols": [col for row in per_row for col in row],
    }
    arrays["vals"] = draw(st.lists(finite, min_size=len(arrays["cols"]),
                                   max_size=len(arrays["cols"])))
    key = draw(st.sampled_from([None, "default", "lengths", "cols", "vals"]))
    if key is not None:
        values = arrays[key]
        value = draw(st.floats() if key in ("default", "vals")
                     else st.integers(-2, size + 1) | st.integers(-(2**31), 2**31 - 1))
        how = draw(st.sampled_from(["set", "copy", "drop", "insert"]))
        where = draw(st.integers(0, len(values)))
        if how == "set" and where < len(values):
            values[where] = value
        elif how == "copy" and 0 < where < len(values):  # e.g. a repeated column
            values[where] = values[where - 1]
        elif how == "drop" and where < len(values):
            del values[where]
        else:
            values.insert(where, value)
    return arrays


def well_formed(default, lengths, cols, vals, size):
    if len(default) != size or len(lengths) != size or len(cols) != len(vals):
        return False
    if min(lengths) < 0 or sum(lengths) != len(cols):
        return False
    start = 0
    for length in lengths:
        row, start = cols[start : start + length], start + length
        if any(not 0 <= col < size for col in row) or any(b <= a for a, b in zip(row, row[1:])):
            return False
    return all(math.isfinite(v) for v in default + vals)


@FUZZ
@given(arrays=sparse_rows())
def test_schema_3_rows(tmp_path, arrays):
    """The loader accepts exactly the well-formed rows, and those round-trip exactly."""
    payload = {"schema_version": 3, "vocab": V5.words(), "step": 0}
    for key, dtype in (("default", "<f8"), ("lengths", "<i4"), ("cols", "<i4"), ("vals", "<f8")):
        payload[key] = pack(arrays[key], dtype)
    path = tmp_path / "lm.json"
    path.write_text(json.dumps(payload))
    ok = well_formed(**arrays, size=V5.size)
    try:
        model = load_checkpoint(path)
    except ValueError:
        assert not ok
        return
    assert ok
    table = np.repeat(np.array(arrays["default"])[:, None], V5.size, axis=1)
    rows = np.repeat(np.arange(V5.size), arrays["lengths"])
    table[rows, arrays["cols"]] = arrays["vals"]
    assert model.logits.tobytes() == table.tobytes()
    again = tmp_path / "again.json"
    save_checkpoint(model, again)
    assert json.loads(again.read_text()) == payload


class TestRewardLoaderErrors:
    @pytest.mark.parametrize(
        "payload,match",
        [
            ([1, 2, 3], "object"),
            ({"schema_version": 1, "features": None}, "feature"),
            ({"schema_version": 1, "features": ["answer_length", "format_overlap",
                                                "question_fraction"]}, "weights"),
            ({"schema_version": 1, "features": ["answer_length", "format_overlap",
                                                "question_fraction"],
              "weights": [0, None, 0]}, "weights"),
        ],
    )
    def test_rejected(self, tmp_path, payload, match):
        path = tmp_path / "reward.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_reward_checkpoint(path)


def failing_dump(payload, fh, **kwargs):
    """json.dump that writes half the document, then fails like a full disk."""
    text = json.dumps(payload, **kwargs)
    fh.write(text[: len(text) // 2])
    raise OSError("No space left on device")


@pytest.mark.parametrize(
    "save,load,old,new",
    [
        (save_checkpoint, load_checkpoint, ToyLm(V5), ToyLm(V5, logits=np.ones((5, 5)))),
        (save_reward_checkpoint, load_reward_checkpoint,
         ToyRewardModel(), ToyRewardModel(weights=[1.0, -2.0, 0.5])),
    ],
)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, save, load, old, new):
    path = tmp_path / "model.json"
    save(old, path)
    before = path.read_bytes()
    monkeypatch.setattr(genki.corpus.json, "dump", failing_dump)
    with pytest.raises(OSError, match="No space"):
        save(new, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    save(load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == before


def test_write_replaces_existing_file(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(ToyLm(V5), path)
    save_checkpoint(ToyLm(V5, logits=np.ones((5, 5))), path)
    assert load_checkpoint(path).cols.size == 25
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]



def loads_or_index_error(path):
    try:
        load_index(path)
    except IndexFormatError:
        pass


def small_index(ids=("a", "b", "文档")):
    matrix = np.random.default_rng(6).normal(size=(len(ids), 3)).astype(np.float32)
    return DenseIndex(matrix, list(ids))


@FUZZ
@given(data=st.binary(max_size=200))
def test_index_arbitrary_bytes(tmp_path, data):
    path = tmp_path / "index.bin"
    path.write_bytes(data)
    loads_or_index_error(path)


@FUZZ
@given(
    dim=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=2**64 - 1),
    tail=st.binary(max_size=120),
)
def test_index_arbitrary_header(tmp_path, dim, count, tail):
    path = tmp_path / "index.bin"
    path.write_bytes(MAGIC + struct.pack("<IQ", dim, count) + tail)
    loads_or_index_error(path)


@FUZZ
@given(
    cut=st.integers(min_value=0, max_value=200),
    flip=st.integers(min_value=0, max_value=255),
    truncate=st.booleans(),
)
def test_damaged_index_bytes(tmp_path, cut, flip, truncate):
    path = tmp_path / "index.bin"
    save_index(small_index(), path)
    data = bytearray(path.read_bytes())
    data[cut % len(data)] ^= flip
    path.write_bytes(bytes(data[: cut % len(data)] if truncate else data))
    loads_or_index_error(path)


@pytest.mark.parametrize(
    "data,match",
    [
        (MAGIC + struct.pack("<IQ", 4, 2**50) + bytes(13), "header claims"),
        (MAGIC + struct.pack("<IQ", 1, 1) + bytes(4) + struct.pack("<I", 2**32 - 1), "past the end"),
        (MAGIC + struct.pack("<IQ", 1, 1) + bytes(4) + struct.pack("<I", 1) + b"\xff", "UTF-8"),
        (MAGIC + struct.pack("<IQ", 1, 2) + bytes(8) + (struct.pack("<I", 1) + b"a") * 2, "unique"),
        (MAGIC + struct.pack("<IQ", 1, 1) + struct.pack("<f", float("nan"))
         + struct.pack("<I", 1) + b"a", "finite"),
    ],
)
def test_index_rejected(tmp_path, data, match):
    path = tmp_path / "index.bin"
    path.write_bytes(data)
    with pytest.raises(IndexFormatError, match=match):
        load_index(path)


def test_failed_index_write_keeps_previous_file(tmp_path):
    path = tmp_path / "index.bin"
    save_index(small_index(), path)
    before = path.read_bytes()
    # A lone surrogate cannot be encoded: the write fails after the vectors.
    with pytest.raises(UnicodeEncodeError):
        save_index(small_index(ids=("a", "\ud800", "c")), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.bin"]
    assert load_index(path).ids == ["a", "b", "文档"]

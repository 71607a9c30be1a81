"""Checkpoint and index files: loaders reject any malformed input with
ValueError (IndexFormatError for index files), and writers replace the
previous file atomically."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genki.corpus
from genki.corpus import Vocabulary
from genki.lm_core import ToyLm, load_checkpoint, save_checkpoint
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
    model = ToyLm(V5, seed=1, logits=np.random.default_rng(3).normal(size=(5, 5)))
    path = tmp_path / "lm.json"
    save_checkpoint(model, path)
    return json.loads(path.read_text())


def reward_payload(tmp_path):
    path = tmp_path / "reward.json"
    save_reward_checkpoint(ToyRewardModel(weights=[0.5, -1.0, 2.0], seed=4), path)
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


LM_FIELDS = ["schema_version", "vocab", "logits", "seed", "step"]
REWARD_FIELDS = ["schema_version", "features", "weights", "seed"]


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
    save_checkpoint(ToyLm(V5, seed=2), path)
    data = bytearray(path.read_bytes())
    data[cut % len(data)] ^= flip
    path.write_bytes(bytes(data))
    loads_or_value_error(load_checkpoint, path)


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
            ({"schema_version": 1, "features": ["answer_length", "format_overlap",
                                                "question_fraction"],
              "weights": [0, 0, 0], "seed": 1.5}, "seed"),
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
        (save_checkpoint, load_checkpoint, ToyLm(V5, seed=1), ToyLm(V5, seed=2)),
        (save_reward_checkpoint, load_reward_checkpoint,
         ToyRewardModel(seed=1), ToyRewardModel(seed=2)),
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
    assert load(path).seed == 1


def test_write_replaces_existing_file(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(ToyLm(V5, seed=1), path)
    save_checkpoint(ToyLm(V5, seed=2), path)
    assert load_checkpoint(path).seed == 2
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

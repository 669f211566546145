"""Fuzzed inputs for the file readers: a valid file, truncated or with bytes
replaced, inserted or deleted, either reads or raises an `OpenWorldKitError`
subclass; no other exception escapes a reader. A fuzzed column file beside a
valid detections file never changes what the detections reader returns. Run configurations with
fuzzed values either resolve into a world spec and a train config or raise
`ConfigError`."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from openworld_kit import cli
from openworld_kit.detection import columns_path, read_detections_jsonl, write_detections_jsonl
from openworld_kit.embedding_space import ClassEmbeddingRegistry, register_task
from openworld_kit.errors import OpenWorldKitError, ParseError
from openworld_kit.mscal import init_module
from openworld_kit.owod_eval import load_task_split, read_gt_jsonl
from openworld_kit.pyramid import read_pyramid_blob
from openworld_kit.synthetic_world import WorldSpec, export_world, load_world, make_world
from openworld_kit.training import TrainConfig, load_checkpoint, save_checkpoint

from oracles import assert_same_table

DETECTIONS = (
    b'{"confidence": 0.875, "label": "cat", "ood": -0.25, "scene_id": "s0", '
    b'"x1": 1.2346, "x2": 10.5, "y1": 2.0, "y2": 12.0}\n'
    b'{"confidence": 0.5, "label": "unknown", "ood": 0.75, "scene_id": "s1", '
    b'"x1": 0.0, "x2": 4.0, "y1": 0.0, "y2": 4.0}\n'
)
GROUND_TRUTH = (
    b'{"class_name": "car", "scene_id": "s0", "x1": 1.5, "x2": 10.0, "y1": 2.5, "y2": 12.0}\n'
    b'{"class_name": "mystery", "scene_id": "s1", "x1": 0.0, "x2": 5.0, "y1": 0.0, '
    b'"y2": 5.0}\n'
)
TASK_SPLIT = b'{\n "1": [\n  "a",\n  "b"\n ],\n "2": [\n  "c"\n ]\n}\n'
REPORT = json.dumps({
    "a_ose": 3, "config": {"run": {"seed": "0"}}, "map_both": 0.5, "map_curr": 0.25,
    "map_prev": 0.75, "per_class_ap": {"a": 0.75, "c": None}, "protocol": {},
    "task_id": 2, "u_recall": 0.125, "wi": None,
}, indent=1, sort_keys=True).encode()
# a one-layer pyramid blob: magic, version 1, one layer, the layer's
# (H, W, D, stride) header, then its 2 x 3 x 4 features and 2 x 3 box field
BLOB = (b"OWKP" + struct.pack("<iiiiif", 1, 1, 2, 3, 4, 8.0)
        + np.ones((2, 3, 4), dtype="<f4").tobytes()
        + np.tile(np.array([0.0, 0.0, 8.0, 8.0], dtype="<f4"), (2, 3, 1)).tobytes())

# bytes that turn JSON into other JSON or into junk
SPICY = st.sampled_from(b'{}[]",:0123456789.-+eE ntrufalsN\n\r\t\\\x00\xff\xc3')


@st.composite
def mutated(draw, original: bytes):
    """`original` truncated, or with a few bytes replaced, inserted or deleted."""
    data = bytearray(original)
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(SPICY, st.integers(0, 255)))
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        if action == "insert" or at == len(data):
            data[at:at] = bytes([byte])
        elif action == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


def read_report(path):
    cli.cmd_report(str(path))


@pytest.mark.parametrize("original, reader", [
    (DETECTIONS, read_detections_jsonl),
    (GROUND_TRUTH, read_gt_jsonl),
    (TASK_SPLIT, load_task_split),
    (REPORT, read_report),
], ids=["detections", "ground-truth", "task-split", "report"])
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_toolkit_errors_escape(tmp_path, capsys, original, reader, data):
    path = tmp_path / "input"
    path.write_bytes(data.draw(mutated(original)))
    try:
        reader(path)
    except OpenWorldKitError:
        pass
    capsys.readouterr()


@pytest.fixture(scope="module")
def detections_with_columns(tmp_path_factory):
    """`DETECTIONS`, its table as the parse reads it and its column file."""
    path = tmp_path_factory.mktemp("columns") / "dets.jsonl"
    path.write_bytes(DETECTIONS)
    table = read_detections_jsonl(path)
    write_detections_jsonl(path, [DETECTIONS.decode()], table)
    assert path.read_bytes() == DETECTIONS
    return table, columns_path(path).read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_column_file_reads_as_the_parse(tmp_path, detections_with_columns, data):
    table, columns = detections_with_columns
    path = tmp_path / "dets.jsonl"
    path.write_bytes(DETECTIONS)
    columns_path(path).write_bytes(data.draw(mutated(columns)))
    assert_same_table(read_detections_jsonl(path), table)


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    """The files of a small world directory and of a one-class checkpoint,
    by directory kind, then by path within it."""
    world = tmp_path_factory.mktemp("world")
    spec = WorldSpec(dim=8, known_per_task=(2, 2), n_nood=1, n_food=0,
                     known_angle_range=(0.7, 1.1))
    export_world(make_world(spec, seed=0), world)
    checkpoint = tmp_path_factory.mktemp("checkpoint")
    rng = np.random.default_rng(0)
    registry = register_task(ClassEmbeddingRegistry(entries=()), [("a", rng.normal(size=4))])
    save_checkpoint(checkpoint, registry, [init_module(0, 1, 4, 1, rng)], 0.5,
                    TrainConfig(), world_digest="0" * 64)
    return {"world": read_tree(world), "checkpoint": read_tree(checkpoint)}


def write_with(root, files, name, content):
    """`files` under `root`, with the file `name` holding `content`."""
    for rel, data in (files | {name: content}).items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)


DIRECTORY_READERS = pytest.mark.parametrize("kind, name, reader", [
    ("world", "manifest.json", load_world),
    ("world", "embeddings.json", load_world),
    ("checkpoint", "registry.json", load_checkpoint),
    ("checkpoint", "theta.json", load_checkpoint),
    ("checkpoint", "modules/class_000.json", load_checkpoint),
], ids=["manifest", "embeddings", "registry", "theta", "module"])


@DIRECTORY_READERS
@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_toolkit_errors_escape_directory_readers(tmp_path, directories, kind, name,
                                                      reader, data):
    """One file of a world or checkpoint directory mutated, the rest valid."""
    files = directories[kind]
    write_with(tmp_path, files, name, data.draw(mutated(files[name])))
    try:
        reader(tmp_path)
    except OpenWorldKitError:
        pass


@DIRECTORY_READERS
@pytest.mark.parametrize("content", [b'{"a": "\xff"}', b"[" * 100_000, b"{}"],
                         ids=["not-utf8", "deep-nesting", "empty-object"])
def test_unreadable_file_is_a_parse_error(tmp_path, directories, kind, name, reader,
                                          content):
    write_with(tmp_path, directories[kind], name, content)
    with pytest.raises(ParseError) as err:
        reader(tmp_path)
    assert err.value.path == str(tmp_path / name)


@given(blob=mutated(BLOB))
@example(blob=BLOB).via("the valid blob")
@example(blob=BLOB[:12] + struct.pack("<iii", 1 << 20, 1 << 20, 1) + BLOB[24:]).via(
    "a header declaring 2^42 bytes of features")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_toolkit_errors_escape_blob_reader(tmp_path, blob):
    path = tmp_path / "scene.pyr"
    path.write_bytes(blob)
    try:
        read_pyramid_blob(path, (0.0, float("inf")))
    except OpenWorldKitError:
        pass


# values that parse as some key's type, values that break a spec, and junk
INI_VALUES = st.one_of(
    st.sampled_from(("", "0", "1", "-1", "2", "3", "4", "0.5", "nan", "inf", "1e999", "true",
                     "foo", "3,6", "6,3", "0,64", "64,0", "1,2,3",
                     "16x16x16,8x8x32", "16x16x32,8x8x16", "8x8x16", "0x4x16",
                     "20-56,72-150", "20-56", "train:6,cal:3,test:4", "1.05,1.3")),
    st.text(alphabet="0123456789.,-x:e ", max_size=12))


@st.composite
def ini_texts(draw):
    """An INI file setting a few keys of each section to fuzzed values."""
    lines = []
    for section, keys in cli.SCHEMA.items():
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True))
        if chosen:
            lines.append(f"[{section}]")
            lines += [f"{key} = {draw(INI_VALUES)}" for key in chosen]
    return "\n".join(lines) + "\n"


@given(text=ini_texts())
@example(text="[world]\ndim = 2\n")
@example(text="[world]\npyramid_layers = 16x16x32,8x8x16\n")
@example(text="[world]\ndim =\n")
@example(text="[train]\nbatch_size = 0\n")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_config_errors_escape_run_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    try:
        cfg = cli.RunConfig.load(str(path))
        cfg.world_spec()
        cfg.train_config()
    except OpenWorldKitError:
        pass

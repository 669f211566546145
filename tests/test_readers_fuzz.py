"""Fuzzed inputs for the file readers: a valid file, truncated or with bytes
replaced, inserted or deleted, either reads or raises an `OpenWorldKitError`
subclass; no other exception escapes a reader."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from openworld_kit import cli
from openworld_kit.detection import read_detections_jsonl
from openworld_kit.errors import OpenWorldKitError
from openworld_kit.owod_eval import load_task_split, read_gt_jsonl

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

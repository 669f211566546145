"""Tests for the benchmark's own code: span arithmetic, metric names, the NMS
pair bound and the rename-tolerant instrumentation.

    python -m pytest bench/test_bench.py -q
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402
from run import END_TO_END, WORKLOADS, world_seed  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("a"):
        with t.span("b"):
            with t.span("c"):
                pass
        with t.span("d"):
            pass
    assert dict(t.self_time) == {"a": 3, "b": 2, "c": 1, "d": 4}
    assert t.calls == {"a": 1, "b": 1, "c": 1, "d": 1}
    by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in t.spans}
    assert by_name["a"][1] is None
    assert by_name["b"][1] == by_name["d"][1] == by_name["a"][0]
    assert by_name["c"][1] == by_name["b"][0]
    assert len({span_id for span_id, *_ in t.spans}) == 4


def test_untimed_work_leaves_parent_self_time():
    t = tr.Tracer(clock=FakeClock([0, 2, 5, 10]))
    with t.span("a"):
        with t.untimed():
            pass
    assert t.self_time["a"] == 7


def test_self_time_sums_over_repeated_calls():
    t = tr.Tracer(clock=FakeClock([0, 1, 3, 4, 6, 10]))
    with t.span("a"):
        for _ in range(2):
            with t.span("b"):
                pass
    assert t.self_time["a"] == 6
    assert t.self_time["b"] == 4
    assert t.calls["b"] == 2


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["a", "detection.nms.pair_bound", "loop-default",
                                  "x_1.y-2"])
def test_name_grammar_accepts(name):
    assert tr.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "nms/s", "μ", "a\n", "scenes:s"])
def test_name_grammar_rejects(name):
    assert not tr.valid_metric_name(name)


def test_benchmark_names_follow_grammar_and_match_the_code():
    spec = _benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(tr.valid_metric_name(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    emitted = set(tr.layer_metrics(tr.Tracer())) | {"owod_eval.a_ose.gated",
                                                    "cli.trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


def _brute_pairs(labels, class_wise):
    return sum(1 for i, j in itertools.combinations(range(len(labels)), 2)
               if not class_wise or labels[i] == labels[j])


def test_pair_bound_matches_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        labels = [rng.choice([-1, 0, 1, 2]) for _ in range(rng.randrange(0, 12))]
        for class_wise in (True, False):
            pairs, biggest = tr.pair_bound(labels, class_wise)
            assert pairs == _brute_pairs(labels, class_wise)
            groups = [labels.count(v) for v in set(labels)] if class_wise else [len(labels)]
            assert biggest == max(groups, default=0)


def _detections(labels):
    from openworld_kit.detection import Detection
    return [Detection(box=(float(i), 0.0, i + 10.0, 10.0), label=label,
                      confidence=1.0 - 0.01 * i, source=(0, 0, i))
            for i, label in enumerate(labels)]


def test_nms_probe_counts_pairs_and_restores_the_package():
    from openworld_kit import detection
    original = detection.nms
    labels = [-1, -1, -1, 0, 0, 2]
    t = tr.Tracer()
    with tr.instrumented(t):
        assert detection.nms is not original
        kept = detection.nms(_detections(labels), 0.7)
    assert detection.nms is original
    metrics = tr.layer_metrics(t)
    assert metrics["detection.nms.calls"] == 1
    assert metrics["detection.nms.in"] == len(labels)
    assert metrics["detection.nms.kept"] == len(kept)
    assert metrics["detection.nms.pair_bound"] == _brute_pairs(labels, True)
    assert metrics["detection.nms.max_group"] == 3


def test_missing_function_marks_metrics_absent(monkeypatch, capsys):
    from openworld_kit import detection
    probes = tr.PROBES + (tr.Probe("training", "renamed_away", "training.gone"),)
    monkeypatch.setattr(tr, "PROBES", probes)
    t = tr.Tracer()
    with tr.instrumented(t):
        detection.nms(_detections([0, 0]), 0.7)
    assert "training.gone" in t.absent
    assert "training.gone" in capsys.readouterr().err
    assert tr.layer_metrics(t)["detection.nms.calls"] == 1


def test_absent_probe_yields_no_metric(monkeypatch):
    probes = tuple(p for p in tr.PROBES if p.attr != "_assignment_for_class")
    probes += (tr.Probe("training", "_no_such_name", "training.assignment"),)
    monkeypatch.setattr(tr, "PROBES", probes)
    t = tr.Tracer()
    with tr.instrumented(t):
        pass
    metrics = tr.layer_metrics(t)
    assert metrics["training.assignment.calls"] is None
    assert metrics["training.assignment.s"] is None


def test_world_seed_passes_over_unbuildable_worlds():
    from openworld_kit import cli
    # the default world spec cannot be built on seed 23 (bench/seeds.py)
    assert world_seed(cli, WORKLOADS["loop-default"], 23) == (24, [23])
    assert world_seed(cli, WORKLOADS["loop-default"], 22) == (22, [])

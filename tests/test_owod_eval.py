"""Metric tests: every metric is checked against an independent brute-force
oracle written from the definitions, with exact equality on small instances."""

import numpy as np
import pytest

from openworld_kit.errors import ParseError, UndefinedOperatingPoint
from openworld_kit.owod_eval import (
    TaskSplitSpec,
    _claim,
    a_ose,
    average_precision,
    class_average_precision,
    evaluate_task,
    load_task_split,
    read_gt_jsonl,
    render_report,
    report_csv_row,
    save_task_split,
    u_recall,
    wilderness_impact,
    write_gt_jsonl,
    write_report_json,
)

from oracles import (
    KNOWN,
    det,
    gt,
    oracle_a_ose,
    oracle_class_ap,
    oracle_greedy_match,
    oracle_u_recall,
    oracle_wi,
    random_instance,
)


# oracles shared with the acceptance suite live in tests/oracles.py


def greedy_match(dets, gts, iou_thr=0.5, label_aware=True):
    """One scene's detections in descending confidence (ties keep input
    order), each claiming a ground-truth box; detection index -> box index."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(gts)
    matches = {}
    for i in order:
        label = dets[i].label if label_aware else None
        g = _claim(dets[i].box, label, gts, taken, iou_thr)
        if g is not None:
            matches[i] = g
    return matches


class TestMatchDetections:
    def test_exact_hit(self):
        d = [det("s", (0, 0, 4, 4), "car", 0.9)]
        g = [gt("s", (0, 0, 4, 4), "car")]
        taken = [False]
        assert _claim(d[0].box, "car", g, taken, 0.5) == 0
        assert taken == [True]
        assert greedy_match(d, g) == {0: 0}

    def test_higher_confidence_wins(self):
        d = [det("s", (0, 0, 4, 4), "car", 0.5), det("s", (0, 0, 4, 4), "car", 0.9)]
        g = [gt("s", (0, 0, 4, 4), "car")]
        assert greedy_match(d, g) == {1: 0}

    def test_label_aware_blocks_wrong_class(self):
        d = [det("s", (0, 0, 4, 4), "bus", 0.9)]
        g = [gt("s", (0, 0, 4, 4), "car")]
        assert greedy_match(d, g) == {}
        assert greedy_match(d, g, label_aware=False) == {0: 0}

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_replay(self, seed):
        dets, gts = random_instance(seed)
        for label_aware in (True, False):
            assert greedy_match(dets, gts, 0.5, label_aware) == \
                oracle_greedy_match(dets, gts, 0.5, label_aware)


class TestAveragePrecision:
    def test_single_correct(self):
        assert average_precision([(0.9, True)], 1) == 1.0

    def test_single_incorrect(self):
        assert average_precision([(0.9, False)], 1) == 0.0

    def test_hand_built_curve(self):
        flags = [(0.9, True), (0.8, False), (0.7, True), (0.6, False), (0.5, True)]
        # enveloped precisions 1, 2/3, 3/5 at the three recall steps of 1/3
        expected = (1.0 * 1 / 3) + (2 / 3 * 1 / 3) + (3 / 5 * 1 / 3)
        assert average_precision(flags, 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(34 / 45, abs=1e-12)

    def test_undefined_without_gt_or_dets(self):
        assert average_precision([], 0) is None
        assert average_precision([(0.5, False)], 0) == 0.0

    def test_adding_a_true_positive_never_decreases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_gt = sum(f for _, f in flags) + int(rng.integers(1, 4))
            base = average_precision(flags, n_gt)
            more = flags + [(float(rng.random()), True)]
            assert average_precision(more, n_gt) >= base - 1e-12

    def test_duplicate_on_matched_gt_never_increases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_gt = max(1, sum(f for _, f in flags))
            base = average_precision(flags, n_gt)
            dup = flags + [(float(rng.random()), False)]
            assert average_precision(dup, n_gt) <= base + 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_class_ap_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        for name in KNOWN:
            got = class_average_precision(dets, gts, name, 0.5)
            want = oracle_class_ap(dets, gts, name, 0.5)
            assert got == want


class TestURecall:
    def test_two_of_three(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery"), gt("s", (10, 0, 14, 4), "mystery"),
               gt("s", (20, 0, 24, 4), "anomaly")]
        dets = [det("s", (0, 0, 4, 4), "unknown", 0.9),
                det("s", (10, 0, 14, 4), "unknown", 0.8)]
        assert u_recall(dets, gts, KNOWN) == pytest.approx(2 / 3)

    def test_known_label_does_not_count(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        assert u_recall(dets, gts, KNOWN) == 0.0

    def test_undefined_without_unknown_gt(self):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        assert u_recall([], gts, KNOWN) is None

    def test_pooling_invariance(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery"), gt("s", (10, 0, 14, 4), "anomaly")]
        swapped = [gt("s", (0, 0, 4, 4), "anomaly"), gt("s", (10, 0, 14, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "unknown", 0.9)]
        assert u_recall(dets, gts, KNOWN) == u_recall(dets, swapped, KNOWN)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        assert u_recall(dets, gts, KNOWN) == oracle_u_recall(dets, gts, KNOWN)


class TestAOse:
    def test_known_label_on_unknown_gt(self):
        gts = [gt("s", (0, 0, 10, 10), "mystery")]
        dets = [det("s", (0, 0, 10, 8), "car", 0.9)]
        assert a_ose(dets, gts, KNOWN) == 1

    def test_unknown_label_does_not_count(self):
        gts = [gt("s", (0, 0, 10, 10), "mystery")]
        dets = [det("s", (0, 0, 10, 8), "unknown", 0.9)]
        assert a_ose(dets, gts, KNOWN) == 0

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        assert a_ose(dets, gts, KNOWN) == oracle_a_ose(dets, gts, KNOWN)


class TestWildernessImpact:
    def test_closed_set_equals_open_set_without_unknowns(self):
        gts = [gt("s", (i * 10, 0, i * 10 + 5, 5), "car") for i in range(5)]
        dets = [det("s", g.box, "car", 0.9 - i * 0.01) for i, g in enumerate(gts)]
        assert wilderness_impact(dets, gts, KNOWN) == 0.0

    def test_hand_built_half(self):
        # 11 known GT; ranked dets: 5 unknown-hits, 1 plain FP, 9 TPs; the
        # operating point lands on the full list (recall 9/11 >= 0.8), giving
        # closed-set precision 9/10 and open-set precision 9/15
        gts = [gt("s", (i * 10, 0, i * 10 + 5, 5), "car") for i in range(11)]
        gts += [gt("s", (i * 10, 20, i * 10 + 5, 25), "mystery") for i in range(5)]
        dets = []
        for i in range(5):
            dets.append(det("s", (i * 10, 20, i * 10 + 5, 25), "car", 0.99 - i * 0.001))
        dets.append(det("s", (200, 200, 205, 205), "car", 0.95))
        for i in range(9):
            dets.append(det("s", (i * 10, 0, i * 10 + 5, 5), "car", 0.9 - i * 0.001))
        wi = wilderness_impact(dets, gts, KNOWN)
        assert wi == pytest.approx((9 / 10) / (9 / 15) - 1.0, abs=1e-12)
        assert wi == pytest.approx(0.5, abs=1e-12)

    def test_unreachable_recall(self):
        gts = [gt("s", (0, 0, 5, 5), "car"), gt("s", (10, 0, 15, 5), "car")]
        dets = [det("s", (0, 0, 5, 5), "car", 0.9)]
        with pytest.raises(UndefinedOperatingPoint):
            wilderness_impact(dets, gts, KNOWN)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_prefix_enumeration_oracle(self, seed):
        dets, gts = random_instance(seed)
        try:
            want = oracle_wi(dets, gts, KNOWN)
        except UndefinedOperatingPoint:
            with pytest.raises(UndefinedOperatingPoint):
                wilderness_impact(dets, gts, KNOWN)
            return
        assert wilderness_impact(dets, gts, KNOWN) == want


class TestEvaluateTask:
    def split(self):
        return TaskSplitSpec(tasks=((1, ("car", "bus")), (2, ("dog",))))

    def test_task_one_has_no_previous_map(self):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        report = evaluate_task(dets, gts, self.split(), task_id=1)
        assert report.map_prev is None
        assert report.map_curr == 1.0

    def test_perfect_two_class_detector(self):
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (10, 0, 14, 4), "bus")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9), det("s", (10, 0, 14, 4), "bus", 0.8)]
        report = evaluate_task(dets, gts, self.split(), task_id=1)
        assert report.map_both == 1.0
        assert report.a_ose == 0
        assert report.u_recall is None

    def test_report_serialization(self, tmp_path):
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (8, 0, 12, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        report = evaluate_task(dets, gts, self.split(), task_id=1,
                               config_echo={"seed": "0"})
        path = tmp_path / "report.json"
        write_report_json(path, report)
        first = path.read_bytes()
        write_report_json(path, report)
        assert path.read_bytes() == first
        row = report_csv_row(report)
        assert row.startswith("1,")
        assert row.endswith(",0")  # a_ose
        text = render_report(report)
        assert "U-Recall" in text and "-" in text

    def test_undefined_serializes_as_null_not_zero(self, tmp_path):
        import json
        gts = [gt("s", (0, 0, 4, 4), "car")]
        report = evaluate_task([], gts, self.split(), task_id=1)
        path = tmp_path / "r.json"
        write_report_json(path, report)
        raw = json.loads(path.read_text())
        assert raw["u_recall"] is None
        assert raw["map_prev"] is None


class TestTaskSplitFile:
    def test_round_trip(self, tmp_path):
        split = TaskSplitSpec(tasks=((1, ("a", "b")), (2, ("c",))))
        path = tmp_path / "split.json"
        save_task_split(path, split)
        assert load_task_split(path) == split


class TestGtFile:
    def test_round_trip(self, tmp_path):
        records = [gt("s0", (1.5, 2.5, 10.0, 12.0), "car"),
                   gt("s1", (0.0, 0.0, 5.0, 5.0), "mystery")]
        path = tmp_path / "gt.jsonl"
        write_gt_jsonl(path, records)
        assert read_gt_jsonl(path) == records

    @pytest.mark.parametrize("line", [
        '[1]',
        '"s"',
        'null',
        '{"class_name": "car", "scene_id": "s", "x1": null, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": NaN, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": Infinity, "y1": 0.0, '
        '"y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1e999}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": 1.0, "y1": 0.0, '
        '"y2": 1' + '0' * 400 + '}',
    ], ids=["list", "string", "null-line", "null-coordinate", "nan-box", "infinite-box",
            "overflow-box", "overflow-int-box"])
    def test_malformed_record_is_a_parse_error(self, tmp_path, line):
        path = tmp_path / "gt.jsonl"
        write_gt_jsonl(path, [gt("s0", (1.5, 2.5, 10.0, 12.0), "car")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ParseError) as err:
            read_gt_jsonl(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

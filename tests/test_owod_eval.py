"""Metric tests: every metric is checked against an independent brute-force
oracle written from the definitions, with exact equality on small instances."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openworld_kit import owod_eval
from openworld_kit.errors import (MissingWorld, ParseError, UndefinedOperatingPoint,
                                  atomic_text_file)
from openworld_kit.owod_eval import (
    PROTOCOL,
    TaskSplitSpec,
    _claim_walk,
    a_ose,
    average_precision,
    class_average_precision,
    evaluate_task,
    find_overlaps,
    load_task_split,
    read_gt_jsonl,
    read_report,
    render_report,
    report_csv_row,
    save_task_split,
    u_recall,
    wilderness_impact,
    write_gt_jsonl,
    write_report_csv,
    write_report_json,
)

from oracles import (
    KNOWN,
    det,
    gt,
    oracle_a_ose,
    oracle_class_ap,
    oracle_find_overlaps,
    oracle_greedy_match,
    oracle_u_recall,
    oracle_wi,
    overlaps_of,
    random_instance,
    table_of,
)


# oracles shared with the acceptance suite live in tests/oracles.py


def greedy_match(dets, gts, iou_thr=0.5, label_aware=True):
    """One scene's detections in descending confidence (ties keep input
    order), each claiming a ground-truth box; detection index -> box index.
    Every record is taken as one of the same scene."""
    ov = overlaps_of([replace(d, scene_id="s") for d in dets],
                     [replace(g, scene_id="s") for g in gts], iou_thr)
    pairs = ov.pair_label == ov.pair_class if label_aware else ov.pair_rank >= 0
    ranks, boxes = ov.pair_rank[pairs], ov.pair_gt[pairs]
    claims = _claim_walk(ranks, boxes)
    det_at_rank = np.argsort(ov.det_rank)
    return {int(det_at_rank[r]): int(g) for r, g in zip(ranks[claims], boxes[claims])}


class TestMatchDetections:
    def test_exact_hit(self):
        d = [det("s", (0, 0, 4, 4), "car", 0.9)]
        g = [gt("s", (0, 0, 4, 4), "car")]
        ov = find_overlaps(table_of(d), g, 0.5)
        assert ov.pair_gt.tolist() == [0]
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


def flags_ap(flags, n_gt):
    """AP of (confidence, is_true_positive) pairs ranked by (-confidence, index)."""
    ranked = sorted(range(len(flags)), key=lambda i: (-flags[i][0], i))
    return average_precision([pos for pos, i in enumerate(ranked) if flags[i][1]], n_gt)


class TestAveragePrecision:
    def test_single_correct(self):
        assert flags_ap([(0.9, True)], 1) == 1.0

    def test_single_incorrect(self):
        assert flags_ap([(0.9, False)], 1) == 0.0

    def test_hand_built_curve(self):
        flags = [(0.9, True), (0.8, False), (0.7, True), (0.6, False), (0.5, True)]
        # enveloped precisions 1, 2/3, 3/5 at the three recall steps of 1/3
        expected = (1.0 * 1 / 3) + (2 / 3 * 1 / 3) + (3 / 5 * 1 / 3)
        assert average_precision([0, 2, 4], 3) == pytest.approx(expected, abs=1e-12)
        assert flags_ap(flags, 3) == average_precision([0, 2, 4], 3)
        assert expected == pytest.approx(34 / 45, abs=1e-12)
        # a miss first: the envelope lifts the first step's precision 1/2 to 2/3
        assert average_precision([1, 2], 2) == pytest.approx(2 / 3, abs=1e-12)

    def test_undefined_without_gt_or_dets(self):
        gts = [gt("s", (0, 0, 4, 4), "bus")]
        assert class_average_precision(overlaps_of([], gts), "car") is None
        dets = [det("s", (0, 0, 4, 4), "car", 0.5)]
        assert class_average_precision(overlaps_of(dets, gts), "car") == 0.0

    def test_adding_a_true_positive_never_decreases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_gt = sum(f for _, f in flags) + int(rng.integers(1, 4))
            base = flags_ap(flags, n_gt)
            more = flags + [(float(rng.random()), True)]
            assert flags_ap(more, n_gt) >= base - 1e-12

    def test_duplicate_on_matched_gt_never_increases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_gt = max(1, sum(f for _, f in flags))
            base = flags_ap(flags, n_gt)
            dup = flags + [(float(rng.random()), False)]
            assert flags_ap(dup, n_gt) <= base + 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_class_ap_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        for name in KNOWN:
            got = class_average_precision(overlaps_of(dets, gts), name)
            want = oracle_class_ap(dets, gts, name, 0.5)
            assert got == want


class TestURecall:
    def test_two_of_three(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery"), gt("s", (10, 0, 14, 4), "mystery"),
               gt("s", (20, 0, 24, 4), "anomaly")]
        dets = [det("s", (0, 0, 4, 4), "unknown", 0.9),
                det("s", (10, 0, 14, 4), "unknown", 0.8)]
        assert u_recall(overlaps_of(dets, gts), KNOWN) == pytest.approx(2 / 3)

    def test_known_label_does_not_count(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        assert u_recall(overlaps_of(dets, gts), KNOWN) == 0.0

    def test_undefined_without_unknown_gt(self):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        assert u_recall(overlaps_of([], gts), KNOWN) is None

    def test_pooling_invariance(self):
        gts = [gt("s", (0, 0, 4, 4), "mystery"), gt("s", (10, 0, 14, 4), "anomaly")]
        swapped = [gt("s", (0, 0, 4, 4), "anomaly"), gt("s", (10, 0, 14, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "unknown", 0.9)]
        assert u_recall(overlaps_of(dets, gts), KNOWN) == u_recall(overlaps_of(dets, swapped), KNOWN)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        assert u_recall(overlaps_of(dets, gts), KNOWN) == oracle_u_recall(dets, gts, KNOWN)


class TestAOse:
    def test_known_label_on_unknown_gt(self):
        gts = [gt("s", (0, 0, 10, 10), "mystery")]
        dets = [det("s", (0, 0, 10, 8), "car", 0.9)]
        assert a_ose(overlaps_of(dets, gts), KNOWN) == 1

    def test_unknown_label_does_not_count(self):
        gts = [gt("s", (0, 0, 10, 10), "mystery")]
        dets = [det("s", (0, 0, 10, 8), "unknown", 0.9)]
        assert a_ose(overlaps_of(dets, gts), KNOWN) == 0

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_oracle(self, seed):
        dets, gts = random_instance(seed)
        assert a_ose(overlaps_of(dets, gts), KNOWN) == oracle_a_ose(dets, gts, KNOWN)


class TestWildernessImpact:
    def test_closed_set_equals_open_set_without_unknowns(self):
        gts = [gt("s", (i * 10, 0, i * 10 + 5, 5), "car") for i in range(5)]
        dets = [det("s", g.box, "car", 0.9 - i * 0.01) for i, g in enumerate(gts)]
        assert wilderness_impact(overlaps_of(dets, gts), KNOWN) == 0.0

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
        wi = wilderness_impact(overlaps_of(dets, gts), KNOWN)
        assert wi == pytest.approx((9 / 10) / (9 / 15) - 1.0, abs=1e-12)
        assert wi == pytest.approx(0.5, abs=1e-12)

    def test_own_class_box_before_unknown_box(self):
        # the car detection overlaps the unknown box more (IoU 1 vs 0.75) but
        # claims the car box: a true positive, not an unknown hit
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (0, 0, 4, 3), "mystery")]
        dets = [det("s", (0, 0, 4, 3), "car", 0.9)]
        assert oracle_wi(dets, gts, KNOWN) == 0.0
        assert wilderness_impact(overlaps_of(dets, gts), KNOWN) == 0.0

    def test_unreachable_recall(self):
        gts = [gt("s", (0, 0, 5, 5), "car"), gt("s", (10, 0, 15, 5), "car")]
        dets = [det("s", (0, 0, 5, 5), "car", 0.9)]
        with pytest.raises(UndefinedOperatingPoint):
            wilderness_impact(overlaps_of(dets, gts), KNOWN)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_prefix_enumeration_oracle(self, seed):
        dets, gts = random_instance(seed)
        try:
            want = oracle_wi(dets, gts, KNOWN)
        except UndefinedOperatingPoint:
            with pytest.raises(UndefinedOperatingPoint):
                wilderness_impact(overlaps_of(dets, gts), KNOWN)
            return
        assert wilderness_impact(overlaps_of(dets, gts), KNOWN) == want


SCENES = ("a", "b")
GT_NAMES = ("car", "bus", "mystery", "anomaly")
DET_LABELS = KNOWN + ("unknown", "cow")  # no `dog` GT; `cow` is neither known nor unknown


@st.composite
def grid_instance(draw):
    """Detections and GT on a coarse integer grid, so that duplicate,
    zero-area and exactly-at-threshold boxes, boxes a detection overlaps
    equally, confidences tied across scenes, classes with detections but no
    GT, and empty inputs all come up."""
    def box():
        x1, y1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        return (x1, y1, x1 + draw(st.integers(0, 3)), y1 + draw(st.integers(0, 3)))

    gts = [gt(draw(st.sampled_from(SCENES)), box(), draw(st.sampled_from(GT_NAMES)))
           for _ in range(draw(st.integers(0, 10)))]
    dets = []
    for _ in range(draw(st.integers(0, 16))):
        if gts and draw(st.booleans()):  # on a GT box, mostly with its class
            g = draw(st.sampled_from(gts))
            scene, b = g.scene_id, g.box
            own = g.class_name if g.class_name in KNOWN else "unknown"
            label = draw(st.sampled_from((own, own) + DET_LABELS))
        else:
            scene, b = draw(st.sampled_from(SCENES)), box()
            label = draw(st.sampled_from(DET_LABELS))
        dets.append(det(scene, b, label, draw(st.sampled_from((0.25, 0.5, 0.75, 1.0)))))
    return dets, gts


def mean_defined(values):
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def oracle_wi_or_none(dets, gts, known, recall_level, iou_thr):
    try:
        return oracle_wi(dets, gts, known, recall_level, iou_thr)
    except UndefinedOperatingPoint:
        return None


class TestColumnarEqualsOracles:
    @given(grid_instance(), st.sampled_from((0.25, 0.5, 1.0)))
    @settings(max_examples=500, deadline=None)
    def test_metrics_equal_the_oracles(self, instance, iou_thr):
        dets, gts = instance
        ov = overlaps_of(dets, gts, iou_thr)
        for name in KNOWN + ("cow",):
            assert class_average_precision(ov, name) == oracle_class_ap(dets, gts, name, iou_thr)
        assert u_recall(ov, KNOWN) == oracle_u_recall(dets, gts, KNOWN, iou_thr)
        assert a_ose(ov, KNOWN) == oracle_a_ose(dets, gts, KNOWN, iou_thr)
        for level in (0.5, 0.8, 1.0):
            want = oracle_wi_or_none(dets, gts, KNOWN, level, iou_thr)
            if want is None:
                with pytest.raises(UndefinedOperatingPoint):
                    wilderness_impact(ov, KNOWN, level)
            else:
                assert wilderness_impact(ov, KNOWN, level) == want

    @given(grid_instance(), st.sampled_from((0.25, 0.5, 1.0)),
           st.sampled_from((0.5, 0.8, 1.0)), st.sampled_from((1, 2)))
    @settings(max_examples=200, deadline=None)
    def test_evaluate_task_equals_the_oracles(self, instance, iou_thr, level, task_id):
        dets, gts = instance
        split = TaskSplitSpec(tasks=((1, ("car", "bus")), (2, ("dog",))))
        prev, curr = split.previous_classes(task_id), split.current_classes(task_id)
        known = prev + curr
        report = evaluate_task(table_of(dets), gts, split, task_id, iou_thr, level)
        per_class = {n: oracle_class_ap(dets, gts, n, iou_thr) for n in known}
        assert report.per_class_ap == per_class
        assert report.map_prev == (mean_defined([per_class[n] for n in prev])
                                   if prev else None)
        assert report.map_curr == mean_defined([per_class[n] for n in curr])
        assert report.map_both == mean_defined(list(per_class.values()))
        assert report.u_recall == oracle_u_recall(dets, gts, known, iou_thr)
        assert report.a_ose == oracle_a_ose(dets, gts, known, iou_thr)
        assert report.wi == oracle_wi_or_none(dets, gts, known, level, iou_thr)

    def test_iou_exactly_at_the_threshold_matches(self):
        # intersection 1, union 2: IoU 0.5 exactly
        dets = [det("a", (0, 0, 2, 1), "car", 0.9)]
        gts = [gt("a", (0, 0, 1, 1), "car")]
        assert class_average_precision(overlaps_of(dets, gts, 0.5), "car") == 1.0
        assert class_average_precision(overlaps_of(dets, gts, 0.5000001), "car") == 0.0

    @pytest.mark.parametrize("level", [0.0, -1.0, float("nan")])
    def test_recall_level_not_positive_is_undefined(self, level):
        dets = [det("a", (5, 5, 6, 6), "car", 0.9), det("a", (0, 0, 1, 1), "car", 0.5)]
        gts = [gt("a", (0, 0, 1, 1), "car")]
        with pytest.raises(UndefinedOperatingPoint):
            wilderness_impact(overlaps_of(dets, gts), KNOWN, level)


# boxes that share only an edge, have no width or height, repeat, or reach
# past +-1e308, where a width or an area overflows
EDGE_COORDS = (0.0, 1.0, 2.0, 3.0, -1e308, 1e308, -np.finfo(float).max, np.finfo(float).max)
GT_SCENES = ("a", "b", "c")     # `a` has boxes but no detections
DET_SCENES = ("b", "c", "d")    # `d` has detections but no boxes
OVERLAPS_FIELDS = ("det_label", "det_rank", "gt_class", "pair_rank", "pair_gt",
                   "pair_label", "pair_class")


@st.composite
def edge_instance(draw):
    """Detections and GT whose boxes meet, touch or miss on the edge cases
    of the meet test; detections mostly copy or shift a GT box."""
    coord = st.sampled_from(EDGE_COORDS)

    def box():
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        return (x1, y1, x2, y2)

    gts = [gt(draw(st.sampled_from(GT_SCENES)), box(), draw(st.sampled_from(GT_NAMES)))
           for _ in range(draw(st.integers(0, 8)))]
    dets = []
    for _ in range(draw(st.integers(0, 12))):
        scene, b = draw(st.sampled_from(DET_SCENES)), box()
        if gts and draw(st.booleans()):
            g = draw(st.sampled_from(gts))
            shift = draw(st.sampled_from((0.0, 1.0, 2.0)))
            scene, b = draw(st.sampled_from((g.scene_id, scene))), (
                g.box[0] + shift, g.box[1], g.box[2] + shift, g.box[3])
        dets.append(det(scene, b, draw(st.sampled_from(DET_LABELS)),
                        draw(st.sampled_from((0.25, 0.5, 1.0)))))
    return dets, gts


def assert_same_overlaps(got, want):
    assert got.codes == want.codes
    for name in OVERLAPS_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestOverlapsEqualAllPairs:
    """`find_overlaps` scores only the pairs whose boxes meet with positive
    area; every array equals the all-pairs oracle's, element for element."""

    @given(st.one_of(edge_instance(), grid_instance()), st.sampled_from((0.0, 0.5, 1.0)))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_all_pairs_oracle(self, instance, iou_thr):
        dets, gts = instance
        with np.errstate(over="ignore", invalid="ignore"):  # widths past the float range
            got = overlaps_of(dets, gts, iou_thr)
            want = oracle_find_overlaps(table_of(dets), gts, iou_thr)
        assert_same_overlaps(got, want)

    @given(st.one_of(edge_instance(), grid_instance()))
    @settings(max_examples=200, deadline=None)
    def test_box_iou_scores_only_boxes_that_meet(self, instance):
        dets, gts = instance
        calls, box_iou = [], owod_eval.box_iou

        def recording(a, b):
            calls.append((a, b))
            return box_iou(a, b)
        with patch.object(owod_eval, "box_iou", recording), \
                np.errstate(over="ignore", invalid="ignore"):
            overlaps_of(dets, gts, 0.0)
        for a, b in calls:
            assert (np.maximum(a[:, 0], b[:, 0]) < np.minimum(a[:, 2], b[:, 2])).all()
            assert (np.maximum(a[:, 1], b[:, 1]) < np.minimum(a[:, 3], b[:, 3])).all()

    @pytest.mark.parametrize("iou_thr", [0.0, 0.5, 1.0])
    def test_edge_sharing_and_degenerate_boxes_never_pair(self, iou_thr):
        gts = [gt("b", (0, 0, 2, 2), "car"), gt("b", (1, 1, 1, 3), "bus")]
        dets = [det("b", (2, 0, 4, 2), "car", 0.9),    # shares an edge with box 0
                det("b", (0, 2, 2, 4), "car", 0.8),    # so does this one
                det("b", (1, 0, 1, 2), "car", 0.7),    # zero width, inside box 0
                det("b", (0, 0, 2, 2), "car", 0.6),    # box 0 itself
                det("b", (0, 0, 2, 2), "car", 0.6)]    # and a duplicate of it
        got = overlaps_of(dets, gts, iou_thr)
        assert_same_overlaps(got, oracle_find_overlaps(table_of(dets), gts, iou_thr))
        assert got.pair_gt.tolist() == [0, 0]
        assert got.pair_rank.tolist() == [3, 4]

    def test_scenes_with_boxes_only_or_detections_only(self):
        gts = [gt("a", (0, 0, 2, 2), "car")]
        dets = [det("d", (0, 0, 2, 2), "car", 0.9)]
        got = overlaps_of(dets, gts)
        assert_same_overlaps(got, oracle_find_overlaps(table_of(dets), gts))
        assert got.pair_gt.tolist() == []
        assert_same_overlaps(overlaps_of([], gts), oracle_find_overlaps(table_of([]), gts))
        assert_same_overlaps(overlaps_of(dets, []), oracle_find_overlaps(table_of(dets), []))


def save_json(path, report):
    with atomic_text_file(path) as fh:
        write_report_json(fh, report)


def save_csv(path, reports):
    with atomic_text_file(path) as fh:
        write_report_csv(fh, reports)


class TestEvaluateTask:
    def split(self):
        return TaskSplitSpec(tasks=((1, ("car", "bus")), (2, ("dog",))))

    def test_task_one_has_no_previous_map(self):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        report = evaluate_task(table_of(dets), gts, self.split(), task_id=1)
        assert report.map_prev is None
        assert report.map_curr == 1.0

    def test_perfect_two_class_detector(self):
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (10, 0, 14, 4), "bus")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9), det("s", (10, 0, 14, 4), "bus", 0.8)]
        report = evaluate_task(table_of(dets), gts, self.split(), task_id=1)
        assert report.map_both == 1.0
        assert report.a_ose == 0
        assert report.u_recall is None

    @pytest.mark.parametrize("iou_thr, recall_level", [(0.5, 0.8), (0.3, 0.6)])
    def test_protocol_pins_are_the_arguments(self, iou_thr, recall_level):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        report = evaluate_task(table_of(dets), gts, self.split(), task_id=1,
                               iou_thr=iou_thr, recall_level=recall_level)
        assert report.protocol == PROTOCOL | {"iou_threshold": iou_thr,
                                              "wi_recall_level": recall_level}

    def test_report_serialization(self, tmp_path):
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (8, 0, 12, 4), "mystery")]
        dets = [det("s", (0, 0, 4, 4), "car", 0.9)]
        report = evaluate_task(table_of(dets), gts, self.split(), task_id=1,
                               config={"seed": "0"})
        path = tmp_path / "report.json"
        save_json(path, report)
        first = path.read_bytes()
        save_json(path, report)
        assert path.read_bytes() == first
        row = report_csv_row(report)
        assert row.startswith("1,")
        assert row.endswith(",0")  # a_ose
        text = render_report(report)
        assert "U-Recall" in text and "-" in text

    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_torn_csv_write_leaves_the_old_file_or_none(self, tmp_path, tear_writes,
                                                          previous):
        gts = [gt("s", (0, 0, 4, 4), "car")]
        report = evaluate_task(table_of([det("s", (0, 0, 4, 4), "car", 0.9)]), gts,
                               self.split(), task_id=1)
        path = tmp_path / "report.csv"
        if previous:
            save_csv(path, [report])
            old = path.read_bytes()
        tear_writes("report.csv")
        with pytest.raises(OSError):
            save_csv(path, [report, report])
        assert [p.name for p in tmp_path.iterdir()] == (["report.csv"] if previous else [])
        if previous:
            assert path.read_bytes() == old

    def test_report_reads_back_as_written(self, tmp_path):
        gts = [gt("s", (0, 0, 4, 4), "car"), gt("s", (8, 0, 12, 4), "mystery")]
        report = evaluate_task(table_of([det("s", (0, 0, 4, 4), "car", 0.9)]), gts,
                               self.split(), task_id=1, config={"seed": "0"})
        save_json(tmp_path / "r.json", report)
        assert read_report(tmp_path / "r.json") == report

    @pytest.mark.parametrize("key, value", [
        ("map_prev", [0.5]), ("map_curr", {}), ("u_recall", "x"), ("wi", False),
        ("a_ose", None), ("a_ose", 1.5), ("task_id", True), ("per_class_ap", None),
        ("per_class_ap", {"car": [1.0]}), ("config", []), ("protocol", "all-point"),
    ])
    def test_report_field_of_another_type_is_a_parse_error(self, tmp_path, key, value):
        report = evaluate_task(table_of([]), [gt("s", (0, 0, 4, 4), "car")], self.split(),
                               task_id=1)
        path = tmp_path / "r.json"
        save_json(path, replace(report, **{key: value}))
        with pytest.raises(ParseError, match=f"bad report: {key} ") as err:
            read_report(path)
        assert str(path) in str(err.value)

    def test_undefined_serializes_as_null_not_zero(self, tmp_path):
        import json
        gts = [gt("s", (0, 0, 4, 4), "car")]
        report = evaluate_task(table_of([]), gts, self.split(), task_id=1)
        path = tmp_path / "r.json"
        save_json(path, report)
        raw = json.loads(path.read_text())
        assert raw["u_recall"] is None
        assert raw["map_prev"] is None


class TestTaskSplitFile:
    def test_round_trip(self, tmp_path):
        split = TaskSplitSpec(tasks=((1, ("a", "b")), (2, ("c",))))
        path = tmp_path / "split.json"
        save_task_split(path, split)
        assert load_task_split(path) == split

    @pytest.mark.parametrize("text", [
        '{"1": ["a", "b"], "2": ["c"',
        '{"x": ["a"]}',
        '[["a"]]',
        '{"1": "ab"}',
        '{"1": ["a", 2]}',
        '{"1": ["a"], "3": ["b"]}',
        '{"1": ["a"], "2": ["a"]}',
        '[' * 100_000,
    ], ids=["truncated", "task-not-a-number", "not-an-object", "names-not-a-list",
            "name-not-a-string", "task-ids-not-contiguous", "class-in-two-tasks",
            "deep-nesting"])
    def test_malformed_split_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "split.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_task_split(path)
        assert str(path) in str(err.value)

    def test_missing_split_is_a_missing_world(self, tmp_path):
        with pytest.raises(MissingWorld):
            load_task_split(tmp_path / "split.json")


class TestGtFile:
    def test_round_trip(self, tmp_path):
        records = [gt("s0", (1.5, 2.5, 10.0, 12.0), "car"),
                   gt("s1", (0.0, 0.0, 5.0, 5.0), "mystery"),
                   gt("s1", (3.0, 1.0, 3.0, 1.0), "car")]  # zero area is allowed
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
        '{"class_name": "car", "scene_id": "s", "x1": "1.5", "x2": 2.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": true, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": null, "x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": 3, "x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": ["a"], "scene_id": "s", "x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 2.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": 1.0, "y1": 3.0, "y2": 1.0}',
        '[' * 100_000,
        # finite corners whose width, or area, is past the float range
        '{"class_name": "car", "scene_id": "s", "x1": -1e308, "x2": 1e308, "y1": 0.0, '
        '"y2": 10.0}',
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": 1e200, "y1": 0.0, '
        '"y2": 1e200}',
        # a finite area above half the float range: two such add past it
        '{"class_name": "car", "scene_id": "s", "x1": 0.0, "x2": 1e300, "y1": 0.0, '
        '"y2": 1e8}',
    ], ids=["list", "string", "null-line", "null-coordinate", "nan-box", "infinite-box",
            "overflow-box", "overflow-int-box", "string-coordinate", "bool-coordinate",
            "null-scene", "numeric-scene", "list-class", "x2-below-x1", "y2-below-y1",
            "deep-nesting", "overflowing-width", "overflowing-area",
            "area-above-half-the-range"])
    def test_malformed_record_is_a_parse_error(self, tmp_path, line):
        path = tmp_path / "gt.jsonl"
        write_gt_jsonl(path, [gt("s0", (1.5, 2.5, 10.0, 12.0), "car")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ParseError) as err:
            read_gt_jsonl(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

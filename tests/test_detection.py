import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openworld_kit import cli
from openworld_kit.detection import (
    MAX_BOX_AREA,
    UNKNOWN_CLASS_ID,
    Detection,
    DetectionRecord,
    Detections,
    DetectionTable,
    _stored_table,
    apply_ood_gate,
    box_iou,
    classify_locations,
    columns_path,
    decode_detections,
    format_detection_lines,
    label_texts,
    nms,
    read_detections_jsonl,
    write_detections_jsonl,
)
from openworld_kit.embedding_space import prompt_matrix, pseudo_unknown_embedding
from openworld_kit.errors import ParseError, SourceOutOfRange, UnwritableOutput, ZeroVector
from openworld_kit.mscal import fold_modules, ood_score_map
from openworld_kit.pyramid import FeaturePyramid, LayerGeometry, PyramidGeometry
from openworld_kit.synthetic_world import load_split, load_world
from openworld_kit.training import load_checkpoint

from oracles import (
    COLUMN_DAMAGE,
    assert_same_table,
    damage_column_file,
    oracle_decode,
    oracle_format_detection_line,
    oracle_gate,
    oracle_iou,
    oracle_nms,
    parsed_table,
    stored_table,
)


def pyramid_with_features(features_by_layer, strides=(8.0, 16.0)):
    layers = []
    boxes = []
    geo_layers = []
    for feats, stride in zip(features_by_layer, strides):
        h, w, _ = feats.shape
        geo_layers.append(LayerGeometry(h, w, stride))
        layers.append(feats)
        cells = np.zeros((h, w, 4))
        for r in range(h):
            for c in range(w):
                cells[r, c] = (c * stride, r * stride, (c + 1) * stride, (r + 1) * stride)
        boxes.append(cells)
    thresholds = tuple([0.0] + [strides[j] * 2 for j in range(len(strides) - 1)]) + (float("inf"),)
    geo = PyramidGeometry(layers=tuple(geo_layers), level_thresholds=thresholds)
    return FeaturePyramid(geometry=geo, layers=tuple(layers), box_field=tuple(boxes))


def random_scene(seed):
    """A pyramid of one to three small layers with coarse confidence grids
    (ties are common; some layers clear no threshold) and a known-class
    count that may leave every row unknown."""
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 4))
    channels = int(rng.integers(1, 5))
    shapes = [tuple(rng.integers(1, 5, size=2)) for _ in range(n_layers)]
    pyr = pyramid_with_features([np.ones((h, w, 3)) for h, w in shapes],
                                strides=(8.0, 16.0, 32.0)[:n_layers])
    scores = [rng.choice([0.1, 0.25, 0.5, 0.9, 1.0], size=(h, w, channels))
              * float(rng.random() > 0.25) for h, w in shapes]
    return pyr, scores, int(rng.integers(0, channels + 1))


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestClassifyLocations:
    def test_parallel_feature_saturates(self):
        w = np.array([[1.0, 0.0, 0.0]])
        feats = np.tile([2.0, 0.0, 0.0], (1, 1, 1))
        pyr = pyramid_with_features([feats], strides=(8.0,))
        conf = classify_locations(pyr, w, logit_scale=10.0)[0]
        assert conf[0, 0, 0] == pytest.approx(sigmoid(10.0), abs=1e-12)

    def test_orthogonal_feature_gives_half(self):
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        feats = np.tile([0.0, 0.0, 3.0], (1, 1, 1))
        pyr = pyramid_with_features([feats], strides=(8.0,))
        conf = classify_locations(pyr, w, logit_scale=10.0)[0]
        np.testing.assert_allclose(conf[0, 0], [0.5, 0.5], atol=1e-12)

    def test_prompt_row_scale_invariance(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 6))
        feats = rng.normal(size=(3, 3, 6))
        pyr = pyramid_with_features([feats], strides=(8.0,))
        base = classify_locations(pyr, w, 10.0)[0]
        # dyadic scales commute with float division exactly
        exact = classify_locations(pyr, w * np.array([[4.0], [1.0], [0.25], [8.0]]), 10.0)[0]
        np.testing.assert_array_equal(base, exact)
        close = classify_locations(pyr, w * np.array([[5.0], [1.0], [0.2], [9.0]]), 10.0)[0]
        np.testing.assert_allclose(base, close, atol=1e-12)
        assert np.array_equal(np.argmax(base, axis=-1), np.argmax(close, axis=-1))

    def test_zero_norm_prompt_rejected(self):
        pyr = pyramid_with_features([np.ones((1, 1, 3))], strides=(8.0,))
        with pytest.raises(ZeroVector):
            classify_locations(pyr, np.zeros((1, 3)), 10.0)


class TestDecodeDetections:
    def scores(self, grid):
        return [np.asarray(grid, dtype=float)]

    def test_all_below_threshold(self):
        pyr = pyramid_with_features([np.ones((2, 2, 3))], strides=(8.0,))
        dets = decode_detections(pyr, self.scores(np.full((2, 2, 2), 0.1)), 0.25, 2)
        assert list(dets) == []

    def test_unknown_row_wins(self):
        pyr = pyramid_with_features([np.ones((1, 1, 3))], strides=(8.0,))
        grid = np.zeros((1, 1, 3))
        grid[0, 0] = [0.3, 0.4, 0.9]
        dets = list(decode_detections(pyr, self.scores(grid), 0.25, 2))
        assert len(dets) == 1
        assert dets[0].label == UNKNOWN_CLASS_ID
        assert dets[0].confidence == pytest.approx(0.9)

    def test_tie_breaks_to_lower_class_index(self):
        pyr = pyramid_with_features([np.ones((1, 1, 3))], strides=(8.0,))
        grid = np.zeros((1, 1, 3))
        grid[0, 0] = [0.7, 0.7, 0.1]
        dets = list(decode_detections(pyr, self.scores(grid), 0.25, 3))
        assert dets[0].label == 0

    def test_box_comes_from_box_field(self):
        pyr = pyramid_with_features([np.ones((2, 2, 3))], strides=(8.0,))
        grid = np.full((2, 2, 1), 0.8)
        dets = list(decode_detections(pyr, self.scores(grid), 0.25, 1))
        assert len(dets) == 4
        assert dets[0].box == (0.0, 0.0, 8.0, 8.0)
        assert dets[0].source == (0, 0, 0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 0.5, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_equals_oracle_on_random_grids(self, seed, threshold):
        pyr, scores, num_known = random_scene(seed)
        got = decode_detections(pyr, scores, threshold, num_known)
        assert repr(list(got)) == repr(oracle_decode(pyr, scores, threshold, num_known))
        assert got.boxes.dtype == got.confidence.dtype == got.ood.dtype == np.float64
        assert got.labels.dtype == got.source.dtype == np.int64


class TestApplyOodGate:
    def dets(self):
        return Detections.from_rows([
            Detection(box=(0, 0, 8, 8), label=0, confidence=0.9, source=(0, 0, 0)),
            Detection(box=(8, 0, 16, 8), label=1, confidence=0.8, source=(0, 0, 1)),
            Detection(box=(0, 8, 8, 16), label=UNKNOWN_CLASS_ID, confidence=0.7,
                      source=(0, 1, 0)),
        ])

    def smap(self):
        return [np.array([[0.2, -0.5], [0.9, 0.0]])]

    def test_infinite_theta_only_fills_scores(self):
        out = list(apply_ood_gate(self.dets(), self.smap(), float("inf")))
        assert [d.label for d in out] == [0, 1, UNKNOWN_CLASS_ID]
        assert [d.ood for d in out] == [0.2, -0.5, 0.9]
        assert [d.confidence for d in out] == [0.9, 0.8, 0.7]

    def test_negative_infinite_theta_relabels_all_known(self):
        out = list(apply_ood_gate(self.dets(), self.smap(), float("-inf")))
        assert all(d.label == UNKNOWN_CLASS_ID for d in out)

    def test_relabeled_count_matches_enumeration(self):
        rng = np.random.default_rng(0)
        smap = [rng.normal(size=(4, 4))]
        dets = [Detection(box=(0, 0, 4, 4), label=int(rng.integers(0, 3)),
                          confidence=float(rng.random()), source=(0, r, c))
                for r in range(4) for c in range(4)]
        theta = 0.3
        out = list(apply_ood_gate(Detections.from_rows(dets), smap, theta))
        relabeled = sum(1 for before, after in zip(dets, out)
                        if before.label != UNKNOWN_CLASS_ID and after.label == UNKNOWN_CLASS_ID)
        expected = sum(1 for d in dets
                       if d.label != UNKNOWN_CLASS_ID
                       and smap[0][d.source[1], d.source[2]] > theta)
        assert relabeled == expected

    def test_never_relabels_unknown_to_known(self):
        out = list(apply_ood_gate(self.dets(), self.smap(), -10.0))
        assert out[2].label == UNKNOWN_CLASS_ID

    def test_boxes_and_confidences_untouched(self):
        dets = list(self.dets())
        out = list(apply_ood_gate(self.dets(), self.smap(), 0.1))
        assert [d.box for d in out] == [d.box for d in dets]
        assert [d.confidence for d in out] == [d.confidence for d in dets]

    def test_source_out_of_range(self):
        for source in [(0, 9, 9), (0, 2, 0), (0, 0, -1), (1, 0, 0), (-1, 0, 0)]:
            dets = Detections.from_rows([Detection(box=(0, 0, 1, 1), label=0, confidence=0.5,
                                         source=source)])
            with pytest.raises(SourceOutOfRange):
                apply_ood_gate(dets, self.smap(), 0.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 0.5, 2.0]),
           st.sampled_from([float("-inf"), -0.5, 0.0, 0.3, float("inf")]))
    @settings(max_examples=100, deadline=None)
    def test_equals_oracle_on_random_grids(self, seed, threshold, theta):
        pyr, scores, num_known = random_scene(seed)
        rows = oracle_decode(pyr, scores, threshold, num_known)
        rng = np.random.default_rng(seed + 1)
        ood = [rng.choice([-0.5, 0.0, 0.3, 0.7, np.nan], size=g.shape[:2]) for g in scores]
        got = apply_ood_gate(decode_detections(pyr, scores, threshold, num_known),
                             ood, theta)
        # repr compares float bits, and NaN scores equal themselves
        assert repr(list(got)) == repr(oracle_gate(rows, ood, theta))


def one_iou(a, b):
    """`box_iou` of two boxes as one-row arrays."""
    (value,) = box_iou(np.array([a], dtype=np.float64), np.array([b], dtype=np.float64))
    return value


class TestIou:
    def test_identical(self):
        assert one_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert one_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_hand_arithmetic(self):
        assert one_iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(2 / 6, abs=1e-15)

    @given(st.lists(st.floats(0, 100), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_symmetry(self, vals):
        a = (min(vals[0], vals[1]), min(vals[2], vals[3]),
             max(vals[0], vals[1]) + 1, max(vals[2], vals[3]) + 1)
        b = (min(vals[4], vals[5]), min(vals[6], vals[7]),
             max(vals[4], vals[5]) + 1, max(vals[6], vals[7]) + 1)
        assert one_iou(a, b) == one_iou(b, a)
        assert one_iou(a, a) == 1.0

    @given(st.integers(0, 60), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.1]))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_bit_for_bit(self, n, seed, step):
        # a coarse grid makes identical, touching, nested and zero-area boxes
        # common; a fine step adds boxes whose IoU is not a short fraction
        rng = np.random.default_rng(seed)
        corners = rng.integers(0, 8, size=(n, 2)) * step
        boxes = np.hstack((corners, corners + rng.integers(0, 4, size=(n, 2)) * step))
        others = boxes[rng.permutation(n)]
        rows = [tuple(b) for b in boxes.tolist()]

        def bits(values):
            return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()

        assert bits(box_iou(boxes, others)) == bits(
            [oracle_iou(a, b) for a, b in zip(rows, others.tolist())])
        assert bits(box_iou(boxes[:, None], boxes[None, :])) == bits(
            [[oracle_iou(a, b) for b in rows] for a in rows])


def run_nms(rows, iou_threshold, class_wise=True):
    return list(nms(Detections.from_rows(rows), iou_threshold, class_wise))


class TestNms:
    def test_identical_boxes_same_class(self):
        dets = [Detection(box=(0, 0, 4, 4), label=0, confidence=0.9, source=(0, 0, 0)),
                Detection(box=(0, 0, 4, 4), label=0, confidence=0.8, source=(0, 0, 1))]
        out = run_nms(dets, 0.7, class_wise=True)
        assert len(out) == 1 and out[0].confidence == 0.9

    def test_identical_boxes_different_classes_kept_classwise(self):
        dets = [Detection(box=(0, 0, 4, 4), label=0, confidence=0.9, source=(0, 0, 0)),
                Detection(box=(0, 0, 4, 4), label=1, confidence=0.8, source=(0, 0, 1))]
        assert len(run_nms(dets, 0.7, class_wise=True)) == 2
        assert len(run_nms(dets, 0.7, class_wise=False)) == 1

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            dets = []
            for i in range(5):
                x1, y1 = rng.uniform(0, 20, size=2)
                w, h = rng.uniform(2, 10, size=2)
                dets.append(Detection(
                    box=(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                    label=int(rng.integers(0, 3)) if rng.random() > 0.2 else UNKNOWN_CLASS_ID,
                    confidence=float(rng.choice([0.9, 0.8, 0.8, 0.5, rng.random()])),
                    source=(0, 0, i)))
            for class_wise in (True, False):
                got = run_nms(dets, 0.4, class_wise)
                want = oracle_nms(dets, 0.4, class_wise)
                assert got == want

    def test_output_is_subset_sorted_and_separated(self):
        rng = np.random.default_rng(1)
        dets = [Detection(box=(float(x), float(y), float(x + 6), float(y + 6)),
                          label=0, confidence=float(rng.random()), source=(0, 0, i))
                for i, (x, y) in enumerate(rng.uniform(0, 16, size=(12, 2)))]
        out = run_nms(dets, 0.5, class_wise=True)
        assert all(d in dets for d in out)
        confs = [d.confidence for d in out]
        assert confs == sorted(confs, reverse=True)
        for a, b in itertools.combinations(out, 2):
            if a.label == b.label:
                assert oracle_iou(a.box, b.box) < 0.5

    @given(st.sampled_from([0, 1, 2, 5, 30, 400]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_on_grid_boxes(self, n, seed, threshold, class_wise):
        # a coarse grid makes identical boxes, zero-area boxes and exact
        # confidence ties common; at threshold 0.0 disjoint boxes suppress
        rng = np.random.default_rng(seed)
        corners = rng.integers(0, 7, size=(n, 2))
        sizes = rng.integers(0, 4, size=(n, 2))
        labels = rng.choice([UNKNOWN_CLASS_ID, 0, 1, 2], size=n)
        confs = rng.choice([0.25, 0.5, 0.75, 1.0], size=n)
        dets = [Detection(box=(float(x), float(y), float(x + w), float(y + h)),
                          label=int(labels[i]), confidence=float(confs[i]),
                          source=(0, 0, i), ood=float(i))
                for i, ((x, y), (w, h)) in enumerate(zip(corners, sizes))]
        assert run_nms(dets, threshold, class_wise) == oracle_nms(dets, threshold, class_wise)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 5, 12, 18]), st.integers(0, 6),
           st.integers(0, 4), st.sampled_from([0.0, 1e-9, 0.3, 0.7, 1.0]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equals_oracle_on_flood_shaped_scenes(self, seed, side, cliques, odd,
                                                  threshold, class_wise):
        # shaped like a gated scene: a grid of disjoint cells (side x side,
        # up to 324), cliques of identical boxes over it, and a few boxes
        # with a NaN or infinite coordinate, most of one label
        rng = np.random.default_rng(seed)
        row, col = (v * 8.0 for v in np.divmod(np.arange(side * side), max(side, 1)))
        boxes = [np.column_stack((col, row, col + 8.0, row + 8.0))]
        for _ in range(cliques):
            corner = rng.integers(0, 16, size=2) * 4.0
            box = np.hstack((corner, corner + rng.integers(1, 5, size=2) * 4.0))
            boxes.append(np.tile(box, (int(rng.integers(2, 9)), 1)))
        boxes = np.vstack(boxes)
        idx = rng.integers(0, len(boxes), size=odd if len(boxes) else 0)
        boxes[idx, rng.integers(0, 4, size=len(idx))] = rng.choice(
            [np.nan, np.inf, -np.inf], size=len(idx))
        boxes = boxes[rng.permutation(len(boxes))]
        labels = rng.choice([UNKNOWN_CLASS_ID, UNKNOWN_CLASS_ID, 0, 1], size=len(boxes))
        confs = rng.choice([0.25, 0.5, 0.75, 1.0], size=len(boxes))
        dets = [Detection(box=tuple(box), label=int(labels[i]), confidence=float(confs[i]),
                          source=(0, 0, i), ood=float(i))
                for i, box in enumerate(boxes.tolist())]
        with np.errstate(invalid="ignore"):
            got = [d.source for d in run_nms(dets, threshold, class_wise)]
        assert got == [d.source for d in oracle_nms(dets, threshold, class_wise)]

    def test_equals_oracle_on_a_gated_scene(self, tmp_path):
        # a zero-step checkpoint gates almost every detection of a seed-0
        # test scene into one unknown group of about 300 boxes
        out = tmp_path / "out"
        assert cli.main(["gen", "--seed", "0", "--out", str(out)]) == 0
        assert cli.main(["train", "--seed", "0", "--out", str(out), "--task", "1",
                         "--set", "train.steps_per_task=0"]) == 0
        registry, modules, theta = load_checkpoint(out / "checkpoints" / "task_1")
        world = load_world(out / "world")
        scene = load_split(world, "test", out / "world")[0]
        unknown_row = pseudo_unknown_embedding([e.embedding for e in registry.entries],
                                               world.generic_object, 0.4)
        scores = classify_locations(scene.pyramid, prompt_matrix(registry, unknown_row))
        ood = ood_score_map(fold_modules(modules), scene.pyramid)
        dets = decode_detections(scene.pyramid, scores, 0.25, registry.num_known)
        rows = oracle_decode(scene.pyramid, scores, 0.25, registry.num_known)
        assert list(dets) == rows
        dets = apply_ood_gate(dets, ood, theta)
        rows = oracle_gate(rows, ood, theta)
        assert list(dets) == rows
        unknown = [d for d in rows if d.is_unknown]
        assert len(unknown) >= 200
        for threshold in (0.3, 0.7):
            for class_wise in (True, False):
                assert list(nms(dets, threshold, class_wise)) == \
                    oracle_nms(rows, threshold, class_wise)
            assert run_nms(unknown, threshold) == oracle_nms(unknown, threshold, True)


# floats JSON writes in a form of its own, or that `round(v, 4)` treats
# unusually: signed zero, subnormals, values past 1e16, huge, NaN, infinities
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16,
                                  -1.2345678901234567e17, 1.7976931348623157e308,
                                  0.00005, 0.00015, 2.675, float("nan"), float("inf"),
                                  float("-inf")])
TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\tu\x00\x7f\xe9\u2603\U0001f600'))


@st.composite
def columnar_scene(draw):
    finite_only = draw(st.booleans())
    number = st.one_of(st.floats(allow_nan=not finite_only,
                                 allow_infinity=not finite_only),
                       SPECIAL_FLOATS.filter(lambda v: math.isfinite(v) or not finite_only))
    names = draw(st.lists(TEXT, min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    rows = [Detection(box=tuple(draw(number) for _ in range(4)),
                      label=draw(st.integers(UNKNOWN_CLASS_ID, len(names) - 1)),
                      confidence=draw(number), source=(0, 0, i), ood=draw(number))
            for i in range(n)]
    return draw(TEXT), rows, names


def write_scenes(path, scenes, class_names):
    """`write_detections_jsonl` of `(scene_id, Detections)` pairs, as
    `infer` writes them: the lines and the table of `format_detection_lines`."""
    formatted = [format_detection_lines(scene_id, dets, label_texts(class_names))
                 for scene_id, dets in scenes]
    write_detections_jsonl(path, [lines for lines, _ in formatted], DetectionTable.from_scenes(
        [scene_id for scene_id, _ in scenes], [dets for _, dets in formatted], class_names))


class TestDetectionsFile:
    def test_round_trip(self, tmp_path):
        dets = [Detection(box=(1.23456, 2.0, 10.5, 12.0), label=0, confidence=0.875,
                          source=(0, 0, 0), ood=-0.25),
                Detection(box=(0.0, 0.0, 4.0, 4.0), label=UNKNOWN_CLASS_ID,
                          confidence=0.5, source=(0, 0, 1), ood=0.75)]
        path = tmp_path / "dets.jsonl"
        write_scenes(path, [("scene-0", Detections.from_rows(dets))], ["cat"])
        table = read_detections_jsonl(path)
        assert len(table) == 2
        records = list(table)
        assert records[0].label == "cat"
        assert records[1].label == "unknown"
        assert records[0].box[0] == 1.2346  # four decimal places
        assert records[0].confidence == 0.875

    def test_line_is_canonical_json(self):
        dets = Detections.from_rows([Detection(box=(0, 0, 1, 1), label=0, confidence=0.5,
                                     source=(0, 0, 0))])
        line, _ = format_detection_lines("s", dets, label_texts(["dog"]))
        assert line.index('"confidence"') < line.index('"label"') < line.index('"scene_id"')

    @given(columnar_scene())
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_the_json_encoder(self, scene):
        scene_id, rows, names = scene
        want = "".join(oracle_format_detection_line(scene_id, d, names) + "\n" for d in rows)
        got, _ = format_detection_lines(scene_id, Detections.from_rows(rows), label_texts(names))
        assert got == want

    def test_coordinates_distinct_by_bits(self):
        # the writer formats each distinct coordinate bit pattern once: 0.0
        # and -0.0 stay apart, and NaNs of two payloads both write NaN
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64)
        x1 = [0.0, -0.0, *nans.view(np.float64).tolist(), 0.0, -0.0]
        rows = [Detection(box=(v, 1.0, 2.0, -0.0), label=0, confidence=0.5,
                          source=(0, 0, i)) for i, v in enumerate(x1)]
        got, _ = format_detection_lines("s", Detections.from_rows(rows), label_texts(["dog"]))
        assert got == "".join(oracle_format_detection_line("s", d, ["dog"]) + "\n"
                              for d in rows)
        assert [line.split('"x1": ')[1][:4] for line in got.splitlines()] == [
            "0.0,", "-0.0", "NaN,", "NaN,", "0.0,", "-0.0"]

    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_torn_write_leaves_the_old_file_or_none(self, tmp_path, tear_writes, previous):
        path = tmp_path / "dets.jsonl"
        scenes = [(f"s{i}", Detections.from_rows([
            Detection(box=(0.0, 0.0, 1.0, 1.0), label=0, confidence=0.5, source=(0, 0, i))]))
            for i in range(2)]
        if previous:
            write_scenes(path, scenes[:1], ["dog"])
            old = path.read_bytes(), columns_path(path).read_bytes()
        tear_writes("dets.jsonl")
        with pytest.raises(UnwritableOutput):
            write_scenes(path, scenes, ["dog"])
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["dets.jsonl", "dets.jsonl.columns"] if previous else [])
        if previous:
            assert (path.read_bytes(), columns_path(path).read_bytes()) == old

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = oracle_format_detection_line(
            "s", Detection(box=(0, 0, 1, 1), label=0, confidence=0.5,
                           source=(0, 0, 0)), ["dog"])
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ParseError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("line", [
        '[1]',
        '"s"',
        'null',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": null, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": NaN, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1e999, "y1": 0.0, "y2": 1.0}',
        '{"confidence": Infinity, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": -Infinity, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": NaN, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 1' + '0' * 400 + ', "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 1' + '0' * 400 + ', "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": "0.5", "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": true, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": false, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": null, '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": 3, '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": ["dog"], "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 2.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.5, "y2": 0.25}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0} {}',
        '[' * 100_000,
        # finite corners whose width, or area, is past the float range
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": -1e308, "x2": 1e308, "y1": 0.0, "y2": 10.0}',
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1e200, "y1": 0.0, "y2": 1e200}',
        # a finite area above half the float range: two such add past it
        '{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
        '"x1": 0.0, "x2": 1e300, "y1": 0.0, "y2": 1e8}',
    ], ids=["list", "string", "null-line", "null-coordinate", "nan-box", "overflow-box",
            "infinite-confidence", "infinite-ood", "nan-ood", "overflow-int-box",
            "overflow-int-ood", "string-coordinate", "bool-confidence", "bool-ood",
            "null-scene", "numeric-scene", "list-label", "x2-below-x1", "y2-below-y1",
            "trailing-data", "deep-nesting", "overflowing-width", "overflowing-area",
            "area-above-half-the-range"])
    def test_malformed_record_is_a_parse_error(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('\xa0\n{"confidence": 0.5, "label": "dog", "ood": 0.0, "scene_id": "s", '
                        '"x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 3
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("x2, y2, message", [
        (1e300, math.inf, "is not finite"),
        (-1e308, 1e308, "has an area that is not finite"),
        (1e300, 1e8, "has an area above 8.988465674311579e+307, half the float range"),
    ], ids=["infinite-corner", "overflowing-area", "area-above-half-the-range"])
    def test_each_large_box_has_its_own_message(self, tmp_path, x2, y2, message):
        path = tmp_path / "bad.jsonl"
        x1 = -1e308 if x2 < 0 else 0.0
        path.write_text(json.dumps({"confidence": 0.5, "label": "dog", "ood": 0.0,
                                    "scene_id": "s", "x1": x1, "x2": abs(x2), "y1": 0.0,
                                    "y2": y2}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            read_detections_jsonl(path)
        assert err.value.line == 1

    def test_area_of_half_the_float_range_is_read_and_scores_iou_one(self, tmp_path):
        # the largest area the reader takes adds to itself without overflow
        path = tmp_path / "dets.jsonl"
        path.write_text(json.dumps({"confidence": 0.5, "label": "dog", "ood": 0.0,
                                    "scene_id": "s", "x1": 0.0, "x2": MAX_BOX_AREA,
                                    "y1": 0.0, "y2": 1.0}) + "\n", encoding="utf-8")
        boxes = read_detections_jsonl(path).boxes
        assert boxes[0, 2] * boxes[0, 3] == MAX_BOX_AREA
        with np.errstate(all="raise"):
            assert box_iou(boxes, boxes).tolist() == [1.0]

    def test_zero_area_box_and_blank_lines_are_read(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('\n  \n\x0b{"confidence": 1, "label": "dog", "scene_id": "s", '
                        '"x1": 2, "x2": 2, "y1": 0.5, "y2": 0.5}\x85\n\xa0\n'
                        ' {"confidence": 0.5, "label": "unknown", "ood": -1, '
                        '"scene_id": "t", "x1": 0.0, "x2": 1.0, "y1": 0.0, "y2": 1.0}\x0c',
                        encoding="utf-8")
        table = read_detections_jsonl(path)
        assert list(table) == [
            DetectionRecord("s", (2.0, 0.5, 2.0, 0.5), "dog", 1.0, 0.0),
            DetectionRecord("t", (0.0, 0.0, 1.0, 1.0), "unknown", 0.5, -1.0)]
        assert table.scene_names == ["s", "t"] and table.label_names == ["dog", "unknown"]

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_bytes(b'{"confidence": 0.5, "label": "d\xff"}\n')
        with pytest.raises(ParseError) as err:
            read_detections_jsonl(path)
        assert str(path) in str(err.value)


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   SPECIAL_FLOATS.filter(math.isfinite))


@st.composite
def written_scenes(draw):
    """Scenes of finite detections whose box corners are ordered: -0.0
    beside 0.0, subnormals, large magnitudes and repeated coordinates among
    them; scene ids and class names may repeat, and a class may be called
    `unknown`."""
    names = draw(st.lists(st.one_of(TEXT, st.just("unknown")), min_size=1, max_size=3))
    coordinate = st.one_of(FINITE, st.sampled_from([0.0, -0.0, 1.5]))
    scenes = []
    for _ in range(draw(st.integers(0, 4))):
        rows = []
        for i in range(draw(st.integers(0, 5))):
            (x1, x2), (y1, y2) = (sorted([draw(coordinate), draw(coordinate)]) for _ in "xy")
            rows.append(Detection(box=(x1, y1, x2, y2),
                                  label=draw(st.integers(UNKNOWN_CLASS_ID, len(names) - 1)),
                                  confidence=draw(FINITE), source=(0, 0, i), ood=draw(FINITE)))
        scene_id = draw(st.one_of(st.sampled_from(["s0", "s1"]), TEXT))
        scenes.append((scene_id, Detections.from_rows(rows)))
    return scenes, names


def two_records():
    return [("s0", Detections.from_rows([
        Detection(box=(0.0, 0.5, 1.0, 1.5), label=0, confidence=0.75, source=(0, 0, 0),
                  ood=0.25),
        Detection(box=(1.0, 1.0, 2.0, 2.0), label=UNKNOWN_CLASS_ID, confidence=0.5,
                  source=(0, 0, 1), ood=0.5)]))]


class TestColumnFile:
    """The writer stores the file's table in a column file beside it; the
    reader returns that table only while it is whole and usable and records
    the digest of the file's bytes, and otherwise the parse."""

    @given(case=written_scenes())
    @settings(max_examples=300, deadline=None)
    def test_stored_table_equals_the_parse(self, case):
        # a box whose area is past the float range, or above half of it, is
        # written, but both readers refuse it: the column file is not used
        # and the parse raises
        scenes, names = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dets.jsonl"
            write_scenes(path, scenes, names)
            boxes = np.array([[r[k] for k in ("x1", "y1", "x2", "y2")] for r in map(
                json.loads, path.read_text(encoding="utf-8").splitlines())]).reshape(-1, 4)
            with np.errstate(over="ignore", invalid="ignore"):
                areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            if not (areas <= MAX_BOX_AREA).all():
                assert _stored_table(path) is None
                with pytest.raises(ParseError, match="has an area "):
                    read_detections_jsonl(path)
            else:
                assert_same_table(stored_table(path), parsed_table(path))
                assert_same_table(read_detections_jsonl(path), parsed_table(path))

    @pytest.mark.parametrize("box, confidence, ood", [
        ((0.0, 0.0, math.nan, 1.0), 0.5, 0.0),
        ((0.0, 0.0, 1.0, 1.0), math.inf, 0.0),
        ((0.0, 0.0, 1.0, 1.0), 0.5, -math.inf),
        ((2.0, 0.0, 1.0, 1.0), 0.5, 0.0),
        ((-1e308, 0.0, 1e308, 10.0), 0.5, 0.0),
        ((0.0, 0.0, 1e300, 1e8), 0.5, 0.0),
    ], ids=["nan-box", "infinite-confidence", "infinite-ood", "x2-below-x1",
            "overflowing-area", "area-above-half-the-range"])
    def test_table_the_parse_refuses_writes_no_column_file(self, tmp_path, box, confidence,
                                                           ood):
        path = tmp_path / "dets.jsonl"
        write_scenes(path, two_records(), ["dog"])
        assert columns_path(path).exists()
        bad = Detections.from_rows([Detection(box=box, label=0, confidence=confidence,
                                              source=(0, 0, 0), ood=ood)])
        write_scenes(path, [*two_records(), ("s1", bad)], ["dog"])
        assert not columns_path(path).exists()
        with pytest.raises(ParseError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("damage", COLUMN_DAMAGE)
    def test_damaged_column_file_reads_as_the_parse(self, tmp_path, damage):
        path = tmp_path / "dets.jsonl"
        write_scenes(path, two_records(), ["dog"])
        stored_table(path)
        damage_column_file(columns_path(path), damage)
        assert _stored_table(path) is None
        assert_same_table(read_detections_jsonl(path), parsed_table(path))

    def test_resealed_column_file_is_read(self, tmp_path):
        # the damage above keeps a valid CRC-32 where it says so, so the
        # reader's own checks are what refuse it
        path = tmp_path / "dets.jsonl"
        write_scenes(path, two_records(), ["dog"])
        before = columns_path(path).read_bytes()
        damage_column_file(columns_path(path), "resealed")
        assert columns_path(path).read_bytes() == before
        stored_table(path)

    def test_column_file_of_other_bytes_is_not_read(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_scenes(path, two_records(), ["dog"])
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[1] + lines[0])
        assert _stored_table(path) is None
        assert list(read_detections_jsonl(path))[0].label == "unknown"

    def test_directory_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_detections_jsonl(tmp_path)
        assert err.value.path == str(tmp_path)

    def test_directory_target_is_unwritable(self, tmp_path):
        (tmp_path / "dets.jsonl").mkdir()
        with pytest.raises(UnwritableOutput, match="dets.jsonl"):
            write_scenes(tmp_path / "dets.jsonl", two_records(), ["dog"])
        assert [p.name for p in tmp_path.iterdir()] == ["dets.jsonl"]

import json
import math
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from openworld_kit import synthetic_world
from openworld_kit.embedding_space import pseudo_unknown_embedding
from openworld_kit.errors import InfeasibleSpec, ParseError
from openworld_kit.owod_eval import read_gt_jsonl
from openworld_kit.synthetic_world import (
    KIND_FOOD,
    KIND_KNOWN,
    KIND_NOOD,
    WorldClass,
    WorldSpec,
    _angle,
    _replay_rounds,
    export_splits,
    export_world,
    generate_scene,
    load_split,
    load_world,
    make_world,
)

from oracles import cell_box, layer_centers, oracle_fifo_cells, oracle_generate_scene

SMALL_SPEC = WorldSpec(
    dim=12,
    known_per_task=(3, 3),
    n_nood=2,
    n_food=2,
    pyramid_layers=((8, 8, 16.0), (4, 4, 32.0)),
    level_thresholds=(0.0, 64.0),
    box_size_ranges=((20.0, 56.0), (72.0, 120.0)),
    boxes_per_scene=(2, 4),
    scenes_per_split=(("train", 4), ("cal", 2), ("test", 3)),
)


def angle(a, b):
    return math.acos(max(-1.0, min(1.0, float(a @ b))))


@pytest.mark.parametrize("cos", [float("nan"), -0.0, 0.0, 0.5, -1.0, 1.0,
                                 np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 2.0,
                                 float("inf"), float("-inf")])
def test_angle_clips_as_np_clip(cos):
    """`_angle` clips the cosine into [-1, 1] with the bits of `np.clip`:
    NaN stays NaN, -0.0 stays -0.0, and one ulp past either end clips."""
    a, b = np.array([cos]), np.array([1.0])
    want = float(np.arccos(np.clip(a @ b, -1.0, 1.0)))
    assert np.array_equal(np.float64(_angle(a, b)), np.float64(want), equal_nan=True)
    assert math.copysign(1.0, _angle(a, b)) == math.copysign(1.0, want)


def test_angle_equals_np_clip_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a, b = rng.standard_normal((2, 8))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        assert _angle(a, b) == float(np.arccos(np.clip(a @ b, -1.0, 1.0)))
        assert _angle(a, a) == float(np.arccos(np.clip(a @ a, -1.0, 1.0)))


@pytest.fixture(scope="module")
def world():
    return make_world(SMALL_SPEC, seed=0)


@pytest.fixture(scope="module")
def default_world():
    return make_world(WorldSpec(), seed=0)


class TestMakeWorld:
    def test_closed_set_world(self):
        spec = WorldSpec(dim=8, known_per_task=(3,), n_nood=0, n_food=0,
                         known_angle_range=(0.7, 1.1),
                         scenes_per_split=(("train", 2), ("cal", 1), ("test", 1)))
        w = make_world(spec, seed=1)
        assert w.unknown_classes == ()
        assert len(w.known_classes) == 3

    def test_unit_norms(self, default_world):
        for c in default_world.classes:
            assert abs(np.linalg.norm(c.prototype) - 1.0) < 1e-9
        for vec in default_world.text_embeddings.values():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
        assert abs(np.linalg.norm(default_world.generic_object) - 1.0) < 1e-9

    def test_seed0_angle_enumeration(self, default_world):
        spec = default_world.spec
        knowns = [c for c in default_world.classes if c.kind == KIND_KNOWN]
        for food in (c for c in default_world.classes if c.kind == KIND_FOOD):
            worst = min(angle(food.prototype, k.prototype) for k in knowns)
            assert worst >= spec.food_min_angle - 1e-9
        for nood in (c for c in default_world.classes if c.kind == KIND_NOOD):
            partner = next(c for c in knowns if c.name == nood.partner)
            assert abs(angle(nood.prototype, partner.prototype) - spec.nood_angle) < 1e-6
            ranked = sorted(knowns, key=lambda k: angle(nood.prototype, k.prototype))
            assert ranked[0].name == nood.partner

    def test_known_pairwise_separation(self, default_world):
        knowns = [c.prototype for c in default_world.known_classes]
        for i in range(len(knowns)):
            for j in range(i + 1, len(knowns)):
                assert angle(knowns[i], knowns[j]) >= 2 * default_world.spec.nood_angle - 1e-9

    def test_generic_object_central(self, default_world):
        for c in default_world.classes:
            assert float(default_world.generic_object @ c.prototype) > 0.0

    def test_margin_rule_gates_the_owel_unknown_row(self, monkeypatch):
        # the margin rule judges the unknown row OWEL builds from the world's
        # known text embeddings, its generic-object prompt and alpha 0.4
        rows = []

        def spy(*args):
            rows.append(pseudo_unknown_embedding(*args))
            return rows[-1]
        monkeypatch.setattr(synthetic_world, "pseudo_unknown_embedding", spy)
        w = make_world(WorldSpec(), seed=0)
        texts = [w.text_embeddings[c.name] for c in w.known_classes]
        assert rows[-1].tobytes() == \
            pseudo_unknown_embedding(texts, w.generic_object, 0.4).tobytes()

    def test_schedule_and_split(self, world):
        split = world.task_split()
        assert len(split.tasks) == 2
        assert len(split.known_classes(2)) == 6
        assert split.known_classes(1) == tuple(
            c.name for c in world.known_classes if c.task_id == 1)

    def test_infeasible_spec_raises(self):
        spec = WorldSpec(dim=6, known_per_task=(30,), n_nood=0, n_food=0,
                         nood_angle=0.7, max_draws=20_000,
                         scenes_per_split=(("train", 1), ("cal", 1), ("test", 1)))
        with pytest.raises(InfeasibleSpec):
            make_world(spec, seed=0)


class TestGenerateScene:
    def test_no_boxes_means_background_only(self):
        spec = WorldSpec(dim=8, known_per_task=(2,), n_nood=0, n_food=0,
                         known_angle_range=(0.7, 1.1), boxes_per_scene=(0, 0),
                         pyramid_layers=((4, 4, 16.0),), level_thresholds=(0.0,),
                         box_size_ranges=((20.0, 56.0),),
                         scenes_per_split=(("train", 1), ("cal", 1), ("test", 1)))
        w = make_world(spec, seed=0)
        scene = generate_scene(w, "train", 0)
        assert scene.gt == ()
        protos = np.stack([c.prototype for c in w.classes])
        cos = scene.pyramid.layers[0].reshape(-1, 8) @ protos.T
        assert cos.max() < spec.background_max_cos

    def test_determinism_byte_identical(self, world):
        a = generate_scene(world, "train", 3)
        b = generate_scene(world, "train", 3)
        for la, lb in zip(a.pyramid.layers, b.pyramid.layers):
            assert la.tobytes() == lb.tobytes()
        for ba, bb in zip(a.pyramid.box_field, b.pyramid.box_field):
            assert ba.tobytes() == bb.tobytes()
        assert a.gt == b.gt

    def test_different_indices_differ(self, world):
        a = generate_scene(world, "train", 0)
        b = generate_scene(world, "train", 1)
        assert a.pyramid.layers[0].tobytes() != b.pyramid.layers[0].tobytes()

    def test_foreground_counts_match_enumeration(self, world):
        geometry = world.geometry
        protos = {c.name: c.prototype for c in world.classes}
        for index in range(world.spec.scene_count("train")):
            scene = generate_scene(world, "train", index)
            expected = 0
            for sb in scene.gt:
                level = geometry.level_for_box(sb.box)
                g = geometry.layers[level]
                count = 0
                for r in range(g.height):
                    for c in range(g.width):
                        cx = (c + 0.5) * g.stride
                        cy = (r + 0.5) * g.stride
                        if sb.box[0] <= cx < sb.box[2] and sb.box[1] <= cy < sb.box[3]:
                            count += 1
                assert count >= 1  # every box covers at least one center
                expected += count
            actual = 0
            for j, grid in enumerate(scene.pyramid.layers):
                flat = grid.reshape(-1, world.spec.dim)
                best = max(float(np.max(flat @ protos[name]))
                           for name in protos)
                sims = np.stack([flat @ protos[name] for name in protos]).max(axis=0)
                actual += int((sims > world.spec.background_max_cos).sum())
            assert actual == expected

    def test_foreground_unit_norm_and_boxes_well_formed(self, world):
        scene = generate_scene(world, "test", 0)
        for grid in scene.pyramid.layers:
            norms = np.linalg.norm(grid, axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        for field in scene.pyramid.box_field:
            assert (field[..., 2] > field[..., 0]).all()
            assert (field[..., 3] > field[..., 1]).all()

    def test_foreground_box_field_is_the_gt_box(self, world):
        scene = generate_scene(world, "test", 1)
        geometry = world.geometry
        for sb in scene.gt:
            level = geometry.level_for_box(sb.box)
            g = geometry.layers[level]
            cx, cy = layer_centers(g)
            inside = (cx >= sb.box[0]) & (cx < sb.box[2]) & \
                     (cy >= sb.box[1]) & (cy < sb.box[3])
            fields = scene.pyramid.box_field[level][inside]
            np.testing.assert_array_equal(fields, np.tile(sb.box, (fields.shape[0], 1)))

    def test_background_box_field_is_the_cell_box(self, world):
        scene = generate_scene(world, "train", 2)
        geometry = world.geometry
        foreground = [np.zeros((g.height, g.width), dtype=bool) for g in geometry.layers]
        for sb in scene.gt:
            level = geometry.level_for_box(sb.box)
            cx, cy = layer_centers(geometry.layers[level])
            foreground[level] |= (cx >= sb.box[0]) & (cx < sb.box[2]) & \
                                 (cy >= sb.box[1]) & (cy < sb.box[3])
        for g, field, fg in zip(geometry.layers, scene.pyramid.box_field, foreground):
            assert field.dtype == np.float64
            assert (~fg).any()
            for r, c in zip(*np.nonzero(~fg)):
                assert tuple(field[r, c]) == cell_box(g, int(r), int(c))

    def test_boxes_disjoint(self, world):
        for index in range(3):
            scene = generate_scene(world, "train", index)
            boxes = [sb.box for sb in scene.gt]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    a, b = boxes[i], boxes[j]
                    assert a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


TINY_SPEC = WorldSpec(dim=8, known_per_task=(2,), n_nood=0, n_food=0,
                      known_angle_range=(0.7, 1.1), boxes_per_scene=(0, 3),
                      pyramid_layers=((4, 4, 16.0),), level_thresholds=(0.0,),
                      box_size_ranges=((20.0, 56.0),),
                      scenes_per_split=(("train", 4), ("cal", 3), ("test", 3)))
# the default world, the bench's `train-wide` world, the jitter path, a
# one-layer world with zero-box scenes, and every candidate accepted, where
# the first block ends exactly at the last accept
ORACLE_SPECS = {
    "default": WorldSpec(),
    "train-wide": WorldSpec(dim=32, known_per_task=(10, 10, 10), n_food=12,
                            scenes_per_split=(("train", 60), ("cal", 20), ("test", 20))),
    "jitter": WorldSpec(box_jitter=0.2),
    "tiny": TINY_SPEC,
    "all-accept": replace(TINY_SPEC, background_max_cos=1.5, boxes_per_scene=(0, 0)),
    "all-accept-boxes": WorldSpec(background_max_cos=1.5),
}


class TestBlockDrawnScenes:
    """`generate_scene` draws each scene's stream in blocks and replays the
    refill rounds; it must write what the round-by-round generator writes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_equals_round_by_round_oracle(self, name, seed):
        spec = ORACLE_SPECS[name]
        w = make_world(spec, seed)
        for split, count in spec.scenes_per_split:
            for index in range(min(count, 8)):
                scene = generate_scene(w, split, index)
                layers, box_fields, gt = oracle_generate_scene(w, split, index)
                assert scene.gt == gt, (split, index)
                for got, want in zip(scene.pyramid.layers + scene.pyramid.box_field,
                                     layers + box_fields):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (split, index)

    @given(n=st.integers(1, 12), flags=st.lists(st.booleans(), max_size=80))
    def test_replay_equals_fifo_queue(self, n, flags):
        # the candidates up to the n-th accept, padded with accepts
        ok = []
        for flag in flags + [True] * n:
            ok.append(flag)
            if sum(ok) == n:
                break
        cells = oracle_fifo_cells(ok, n)
        assert sorted(cells) == list(range(n))
        assert _replay_rounds(np.array(ok), n).tolist() == cells

    def test_replay_of_all_accepts_is_the_identity(self):
        assert _replay_rounds(np.ones(7, dtype=bool), 7).tolist() == list(range(7))

    def test_replay_ending_at_the_last_accept(self):
        # cells 0, 1, 2; candidates 0 and 2 reject, so cell 0 refills at
        # slot 3 and cell 2 at slot 4; the last candidate is the 3rd accept
        ok = np.array([False, True, False, True, True])
        assert _replay_rounds(ok, 3).tolist() == [1, 0, 2]

    def test_no_passing_background_is_infeasible(self):
        spec = WorldSpec(background_max_cos=-0.5, max_draws=300_000)
        w = make_world(spec, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleSpec, match=r"background_max_cos=-0\.5 let 0 of "
                                                     r"300000 background draws"):
                generate_scene(w, "train", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 300,000 kept rows of dim 16 would take 38 MB
        assert peak < 16e6

    @pytest.mark.parametrize("cos", [-1.0, -2.0, float("nan")])
    def test_background_max_cos_must_exceed_minus_one(self, cos):
        with pytest.raises(ValueError, match="background_max_cos"):
            WorldSpec(background_max_cos=cos)


class TestExport:
    def test_round_trip_blobs_bit_identical(self, world, tmp_path):
        export_splits(world, tmp_path)
        scenes = [generate_scene(world, "cal", i) for i in range(world.spec.scene_count("cal"))]
        loaded = load_split(world, "cal", tmp_path)
        assert [s.scene_id for s in loaded] == [s.scene_id for s in scenes]
        blob = (tmp_path / "scenes" / "cal" / "cal-0000.pyr").read_bytes()
        from openworld_kit.pyramid import write_pyramid_blob
        write_pyramid_blob(tmp_path / "again.pyr", loaded[0].pyramid)
        assert (tmp_path / "again.pyr").read_bytes() == blob

    def test_every_split_goes_through_one_map(self, world, tmp_path, monkeypatch):
        # one fan-out per world, not one per split
        calls = []

        def spy(fn, items):
            calls.append(list(items))
            return [fn(item) for item in calls[-1]]
        monkeypatch.setattr(synthetic_world, "ordered_map", spy)
        export_splits(world, tmp_path)
        assert calls == [[(split, index) for split, count in world.spec.scenes_per_split
                          for index in range(count)]]
        for split, count in world.spec.scenes_per_split:
            assert sorted(p.name for p in (tmp_path / "scenes" / split).iterdir()) == \
                sorted([f"{split}-{index:04d}.pyr" for index in range(count)] + ["gt.jsonl"])

    def test_gt_line_counts_and_visibility(self, world, tmp_path):
        export_world(world, tmp_path)
        export_splits(world, tmp_path)
        train_scenes = [generate_scene(world, "train", i)
                        for i in range(world.spec.scene_count("train"))]
        test_scenes = [generate_scene(world, "test", i)
                       for i in range(world.spec.scene_count("test"))]
        never_known = {c.name for c in world.unknown_classes}

        train_gt = read_gt_jsonl(tmp_path / "scenes" / "train" / "gt.jsonl")
        expected_train = sum(1 for s in train_scenes for sb in s.gt
                             if sb.class_name not in never_known)
        assert len(train_gt) == expected_train
        assert not any(r.class_name in never_known for r in train_gt)

        test_gt = read_gt_jsonl(tmp_path / "scenes" / "test" / "gt.jsonl")
        assert len(test_gt) == sum(len(s.gt) for s in test_scenes)
        assert any(r.class_name in never_known for r in test_gt)

    def test_embedding_file_has_known_classes_plus_object(self, world, tmp_path):
        export_world(world, tmp_path)
        raw = json.loads((tmp_path / "embeddings.json").read_text())
        assert len(raw) == len(world.known_classes) + 1
        assert "object" in raw

    def test_manifest_round_trip(self, world, tmp_path):
        export_world(world, tmp_path)
        back = load_world(tmp_path)
        assert back.spec == world.spec
        assert back.seed == world.seed
        for a, b in zip(world.classes, back.classes):
            assert a.name == b.name and a.kind == b.kind and a.task_id == b.task_id
            assert a.prototype.tobytes() == b.prototype.tobytes()

    def test_class_entries_round_trip(self, world, tmp_path):
        """A manifest class entry holds the class's fields, the prototype as
        a list, and loads back as the same class."""
        export_world(world, tmp_path)
        entries = json.loads((tmp_path / "manifest.json").read_text())["classes"]
        back = load_world(tmp_path).classes
        assert len(entries) == len(back) == len(world.classes)
        assert any(c.partner is not None for c in world.classes)
        names = [f.name for f in fields(WorldClass)]
        for c, entry, b in zip(world.classes, entries, back):
            assert entry == asdict(c) | {"prototype": c.prototype.tolist()}
            assert [getattr(b, n) for n in names if n != "prototype"] == \
                [getattr(c, n) for n in names if n != "prototype"]
            assert b.prototype.dtype == np.float64
            assert b.prototype.tobytes() == c.prototype.tobytes()

    def test_class_entry_with_an_unknown_key_is_refused(self, world, tmp_path):
        export_world(world, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["classes"][0]["colour"] = "red"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="manifest"):
            load_world(tmp_path)

    def test_split_seed_tuples_never_collide(self, world):
        from openworld_kit.seeding import derive_seed
        seen = set()
        for split, count in world.spec.scenes_per_split:
            for index in range(count):
                seed = derive_seed(world.seed, "scene", split, index)
                assert seed not in seen
                seen.add(seed)

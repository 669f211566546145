import copy
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openworld_kit import mscal, training
from openworld_kit.embedding_space import ClassEmbeddingRegistry, register_task
from openworld_kit.mscal import (
    anchor_similarity_maps,
    batch_moments,
    calibrate_threshold,
    mscal_loss_gradients,
    ood_score_map,
)
from openworld_kit.pyramid import LayerGeometry, PyramidGeometry
from openworld_kit.synthetic_world import SceneBox, WorldSpec, generate_scene, make_world
from openworld_kit.training import (
    TrainConfig,
    adamw_step,
    detection_loss,
    finalize_task,
    init_optimizer_state,
    load_checkpoint,
    registry_from_payload,
    registry_to_payload,
    save_checkpoint,
    train_task,
    write_train_log_csv,
)

from oracles import (
    assignment_from_masks,
    known_positive_scores_full_grid,
    oracle_assignment_for_class,
    oracle_ownership_masks,
)

TINY_SPEC = WorldSpec(
    dim=8,
    known_per_task=(2, 2),
    n_nood=1,
    n_food=0,
    known_angle_range=(0.7, 1.1),
    pyramid_layers=((8, 8, 16.0), (4, 4, 32.0)),
    level_thresholds=(0.0, 64.0),
    box_size_ranges=((20.0, 56.0), (72.0, 120.0)),
    boxes_per_scene=(2, 4),
    scenes_per_split=(("train", 8), ("cal", 4), ("test", 6)),
)


class TaskData:
    def __init__(self, world, n_train=6, n_cal=3):
        self.geometry = world.geometry
        self.train_scenes = [generate_scene(world, "train", i) for i in range(n_train)]
        self.cal_scenes = [generate_scene(world, "cal", i) for i in range(n_cal)]


def fresh_registry(world, task_id=1):
    registry = ClassEmbeddingRegistry(entries=(), generic_object=world.generic_object,
                                      alpha=0.4)
    split = world.task_split()
    for t in range(1, task_id + 1):
        registry = register_task(
            registry, [(n, world.text_embeddings[n]) for n in split.current_classes(t)])
    return registry


@pytest.fixture(scope="module")
def tiny_world():
    return make_world(TINY_SPEC, seed=0)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        params = [x]
        state = init_optimizer_state(params)
        adamw_step(params, [np.zeros(3)], state, 1e-4, 0.0)
        assert params[0] is x
        np.testing.assert_array_equal(x, [1.0, -2.0, 3.0])

    def test_zero_gradient_decay_only_closed_form(self):
        params = [np.array([1.0, -0.5])]
        state = init_optimizer_state(params)
        theta = params[0].copy()
        for _ in range(3):
            adamw_step(params, [np.zeros(2)], state, 1e-4, 0.0125)
            theta = theta * (1.0 - 1e-4 * 0.0125)
            np.testing.assert_array_equal(params[0], theta)

    def test_single_step_hand_computation(self):
        x = np.array([1.0])
        state = init_optimizer_state([x])
        m, v = state.exp_avg[0], state.exp_avg_sq[0]
        adamw_step([x], [np.array([1.0])], state, 1e-4, 0.0125)
        # bias-corrected m_hat = v_hat = 1 on the first step
        m_hat = (0.1 / (1 - 0.9))
        v_hat = (0.001 / (1 - 0.999))
        expected = 1.0 - 1e-4 * m_hat / (math.sqrt(v_hat) + 1e-8) - 1e-4 * 0.0125 * 1.0
        assert abs(x[0] - expected) < 1e-12
        assert state.step == 1
        # parameters and moments are updated in place
        assert state.exp_avg[0] is m and state.exp_avg_sq[0] is v
        assert m[0] == pytest.approx(0.1) and v[0] == pytest.approx(0.001)

    def test_decoupled_decay_invariant_over_steps(self):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(3, 2)), rng.normal(size=4)]
        state = init_optimizer_state(params)
        snapshot = [p.copy() for p in params]
        for step in range(5):
            adamw_step(params, [np.zeros_like(p) for p in params], state, 2e-3, 0.5)
            for i in range(len(snapshot)):
                snapshot[i] = snapshot[i] * (1.0 - 2e-3 * 0.5)
                np.testing.assert_array_equal(params[i], snapshot[i])


class TestDetectionLoss:
    def test_saturated_logits_drive_loss_to_zero(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        grid = np.zeros((2, 2, 2))
        grid[0, 0] = [1.0, 0.0]
        grid[0, 1] = [-1.0, 0.0]
        grid[1, 0] = [0.0, 1.0]
        grid[1, 1] = [0.0, -1.0]
        assignments = [
            assignment_from_masks([np.array([[True, False], [False, False]])],
                                  [np.array([[False, True], [False, False]])]),
            assignment_from_masks([np.array([[False, False], [True, False]])],
                                  [np.array([[False, False], [False, True]])]),
        ]
        loss, _ = detection_loss([grid], w, np.array([True, True]), assignments,
                                 logit_scale=200.0)
        assert loss < 1e-12

    def test_orthogonal_features_give_ln2(self):
        w = np.array([[1.0, 0.0, 0.0]])
        grid = np.zeros((1, 2, 3))
        grid[0, :, 2] = 1.0  # orthogonal to the class embedding
        assignment = assignment_from_masks([np.array([[True, False]])],
                                           [np.array([[False, True]])])
        loss, _ = detection_loss([grid], w, np.array([True]), [assignment], 10.0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)


class TestTrainTask:
    def config(self, **kw):
        base = dict(steps_per_task=4, batch_size=2, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_steps_leaves_parameters_but_calibrates(self, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        out_reg, modules, log = train_task(data, registry, [], self.config(steps_per_task=0), 1)
        for before, after in zip(registry.entries, out_reg.entries):
            assert before.embedding.tobytes() == after.embedding.tobytes()
        assert len(modules) == 2
        assert math.isfinite(log.theta)
        assert log.rows == []

    def test_caller_embeddings_untouched(self, tiny_world):
        # the optimizer writes in place; the caller's entries must not alias it
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        before = [e.embedding.tobytes() for e in registry.entries]
        out_reg, _, _ = train_task(data, registry, [], self.config(), 1)
        assert [e.embedding.tobytes() for e in registry.entries] == before
        assert [e.embedding.tobytes() for e in out_reg.entries] != before

    def task2_inputs(self, tiny_world, data):
        """A trained and finalized task 1, with task 2's classes registered."""
        config = self.config()
        reg1, modules1, _ = train_task(data, fresh_registry(tiny_world), [], config, 1)
        reg1, modules1 = finalize_task(reg1, modules1, 1)
        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        return reg2, modules1

    def test_loss_sum_decomposition(self, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        _, _, log1 = train_task(data, registry, [], self.config(), 1)
        _, _, log2 = train_task(data, *self.task2_inputs(tiny_world, data), self.config(), 2)
        for _, det, con, total in log1.rows + log2.rows:
            assert total == det + con

    def test_frozen_modules_are_not_projected_or_scored(self, tiny_world, monkeypatch):
        # a frozen module's anchor loss is a constant of every step, so no
        # training code projects or scores it; calibration, which scores
        # every module, goes through `ood_score_map` and is not spied on
        data = TaskData(tiny_world)
        registry, modules = self.task2_inputs(tiny_world, data)
        seen = []

        def spy(fn):
            def wrapper(module, *args):
                seen.append((fn.__name__, module.class_id, module.frozen))
                return fn(module, *args)
            return wrapper
        monkeypatch.setattr(training, "project", spy(training.project))
        monkeypatch.setattr(mscal, "mscal_loss", spy(mscal.mscal_loss))
        train_task(data, registry, modules, self.config(), 2)
        assert seen, "no module was projected"
        assert [call for call in seen if call[2]] == []

    def test_logged_anchor_loss_sums_the_trained_modules(self, tiny_world, monkeypatch):
        data = TaskData(tiny_world)
        registry, modules = self.task2_inputs(tiny_world, data)
        steps = []

        def step_start(*args):
            steps.append([])
            return detection_loss(*args)

        def gradients(module, *args):
            result = mscal_loss_gradients(module, *args)
            assert not module.frozen
            steps[-1].append(result[0])
            return result
        monkeypatch.setattr(training, "detection_loss", step_start)
        monkeypatch.setattr(training, "mscal_loss_gradients", gradients)
        _, _, log = train_task(data, registry, modules, self.config(), 2)
        assert len(steps) == len(log.rows) == self.config().steps_per_task
        assert any(steps), "no trained module had a positive"
        for (_, _, con, _), values in zip(log.rows, steps):
            assert con == sum(values) / registry.num_known

    def test_determinism(self, tiny_world, tmp_path):
        data = TaskData(tiny_world)
        outputs = []
        for run in range(2):
            registry = fresh_registry(tiny_world)
            reg, modules, log = train_task(data, registry, [], self.config(), 1)
            ckpt = tmp_path / f"run{run}"
            save_checkpoint(ckpt, reg, modules, log.theta, self.config(), log)
            payload = b"".join(sorted(p.read_bytes() for p in ckpt.rglob("*") if p.is_file()))
            outputs.append((tuple(log.rows), payload))
        assert outputs[0] == outputs[1]

    def test_task2_freezes_task1_bitwise(self, tiny_world, tmp_path):
        data = TaskData(tiny_world)
        config = self.config(steps_per_task=6)
        registry = fresh_registry(tiny_world)
        reg1, modules1, log1 = train_task(data, registry, [], config, 1)
        reg1, modules1 = finalize_task(reg1, modules1, 1)
        save_checkpoint(tmp_path / "task1", reg1, modules1, log1.theta, config, log1)

        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        fixed_scene = data.cal_scenes[0]
        maps_before = [anchor_similarity_maps(m, fixed_scene.pyramid) for m in modules1]
        reg2, modules2, log2 = train_task(data, reg2, modules1, config, 2)
        reg2, modules2 = finalize_task(reg2, modules2, 2)
        save_checkpoint(tmp_path / "task2", reg2, modules2, log2.theta, config, log2)

        for cid in (0, 1):
            a = (tmp_path / "task1" / "modules" / f"class_{cid:03d}.json").read_bytes()
            b = (tmp_path / "task2" / "modules" / f"class_{cid:03d}.json").read_bytes()
            assert a == b
        pay1 = json.loads((tmp_path / "task1" / "registry.json").read_text())
        pay2 = json.loads((tmp_path / "task2" / "registry.json").read_text())
        for e1, e2 in zip(pay1["entries"], pay2["entries"]):
            assert e1["embedding"] == e2["embedding"]
            assert e1["name"] == e2["name"]
        # infer-mode similarity maps of frozen modules are bit-identical
        maps_after = [anchor_similarity_maps(m, fixed_scene.pyramid)
                      for m in modules2[:2]]
        for before, after in zip(maps_before, maps_after):
            for x, y in zip(before, after):
                assert x.tobytes() == y.tobytes()

    def test_new_task_modules_receive_gradient(self, tiny_world):
        data = TaskData(tiny_world)
        config = self.config(steps_per_task=3)
        registry = fresh_registry(tiny_world)
        reg1, modules, log1 = train_task(data, registry, [], config, 1)
        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        from openworld_kit.mscal import freeze_class_modules
        freeze_class_modules(modules, 1)
        snapshot = copy.deepcopy([m.layers[0].anchor for m in modules])
        reg2, modules2, _ = train_task(data, reg2, modules, config, 2)
        new = [m for m in modules2 if m.task_id == 2]
        assert new and all(not m.frozen for m in new)
        # frozen anchors untouched, new modules moved
        for m, before in zip(modules2[:2], snapshot):
            np.testing.assert_array_equal(m.layers[0].anchor, before)
        grads_seen = []
        for m in new:
            grids = [np.stack([s.pyramid.layers[j] for s in data.train_scenes])
                     for j in range(2)]
            name_to_id = {e.name: i for i, e in enumerate(reg2.entries)}
            owners = training._owner_index(
                training._owned_pairs(data.train_scenes, data.geometry, name_to_id),
                data.geometry)
            assignment = training._assignment_for_class(
                owners, m.class_id, 10, np.random.default_rng(0))
            if assignment.num_positive == 0:
                continue
            _, grads, _ = mscal_loss_gradients(m, grids, assignment, batch_moments(grids))
            grads_seen.append(max(np.abs(g["anchor"]).max() for g in grads))
        assert grads_seen and max(grads_seen) > 0.0

    def test_ood_scores_at_positives_improve_monotonically(self, tiny_world):
        # fixed separable batch: a single training scene, checkpoints every
        # 50 steps; mean score at known positives must not increase (one
        # non-monotone pair allowed)
        data = TaskData(tiny_world, n_train=1, n_cal=1)
        config = TrainConfig(steps_per_task=50, batch_size=2, seed=0, learning_rate=1e-3)
        registry = fresh_registry(tiny_world)
        modules = []
        name_to_id = {e.name: i for i, e in enumerate(registry.entries)}
        scene = data.train_scenes[0]
        owners = oracle_ownership_masks(
            data.geometry, [(sb.box, name_to_id[sb.class_name]) for sb in scene.gt
                            if sb.class_name in name_to_id])

        def mean_positive_score(mods):
            smap = ood_score_map(mods, scene.pyramid)
            values = []
            for j, by_class in enumerate(owners):
                for mask in by_class.values():
                    values.extend(smap[j][mask].tolist())
            return float(np.mean(values))

        registry, modules, _ = train_task(data, registry, modules, config, 1)
        scores = [mean_positive_score(modules)]
        for _ in range(3):
            registry2 = registry
            registry, modules, _ = train_task(data, registry2, modules, config, 1)
            scores.append(mean_positive_score(modules))
        violations = sum(1 for a, b in zip(scores, scores[1:]) if b > a + 1e-12)
        assert violations <= 1, scores

    def test_anchors_unit_norm_after_training(self, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        _, modules, _ = train_task(data, registry, [], self.config(steps_per_task=5), 1)
        for m in modules:
            for layer in m.layers:
                assert abs(np.linalg.norm(layer.anchor) - 1.0) < 1e-9


class TestCalibrationScores:
    """Calibration scores each layer's owned rows of all cal scenes as one
    block, in one `ood_score_map` call. The projections of those rows are
    the bits of whole-grid ones, but the final anchor similarity is a gemv,
    and OpenBLAS computes a row that falls in the tail of its block's rows
    in another order than inside a whole grid (at dims 16 and 32; none at
    dim 8). So each score, and theta, may differ from the whole-grid
    oracle's by a few units in the last place."""

    MAX_ULP = 4

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_theta_equals_full_grid_oracle(self, dim, monkeypatch):
        world = make_world(dataclasses.replace(TINY_SPEC, dim=dim), seed=0)
        data = TaskData(world, n_cal=4)
        config = TrainConfig(steps_per_task=3, batch_size=2, seed=0)
        calls = []

        def spy(modules, grids):
            calls.append(type(grids))
            return ood_score_map(modules, grids)
        monkeypatch.setattr(training, "ood_score_map", spy)
        registry, modules, log = train_task(data, fresh_registry(world), [], config, 1)
        assert calls == [list], "calibration should score one block per layer in one call"
        pairs = training._owned_pairs(data.cal_scenes, data.geometry,
                                      {e.name: i for i, e in enumerate(registry.entries)})
        want = known_positive_scores_full_grid(modules, data.cal_scenes, pairs)
        got = training.known_positive_scores_for_registry(modules, data.cal_scenes, pairs)
        assert len(got) == len(want) > 1
        np.testing.assert_array_max_ulp(np.sort(got), np.sort(want), maxulp=self.MAX_ULP)
        np.testing.assert_array_max_ulp(log.theta, calibrate_threshold(want, config.quantile),
                                        maxulp=self.MAX_ULP)

    def test_scenes_without_owned_rows_give_no_scores(self, tiny_world):
        data = TaskData(tiny_world, n_cal=2)
        _, modules, _ = train_task(data, fresh_registry(tiny_world), [],
                                   TrainConfig(steps_per_task=1, batch_size=2), 1)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        pairs = [[empty, empty], [empty, empty]]
        assert training.known_positive_scores_for_registry(modules, data.cal_scenes,
                                                           pairs) == []
        assert training.known_positive_scores_for_registry(modules, [], []) == []


REGISTERED = {"c0": 0, "c1": 1, "c2": 2}  # c3 and c4 stay unregistered


def pyramid_geometry(sizes):
    """Layers of the given (H, W) with strides 8, 16, 32 and box-side
    thresholds 0, 16, 32."""
    return PyramidGeometry(
        tuple(LayerGeometry(h, w, 8.0 * 2 ** j) for j, (h, w) in enumerate(sizes)),
        (0.0,) + tuple(16.0 * 2 ** j for j in range(len(sizes) - 1)) + (math.inf,))


def scene_of(*boxes):
    return SimpleNamespace(gt=tuple(SceneBox(box, name) for box, name in boxes))


@st.composite
def ownership_case(draw):
    """(geometry, scenes, neg_cap): 1-3 layers, 1-4 scenes of 0-6 boxes whose
    corners snap to a 4-pixel grid, so box edges often fall on cell centres
    and boxes of one class and of different classes often overlap."""
    geometry = pyramid_geometry([(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
                                 for _ in range(draw(st.integers(1, 3)))])
    coord = st.integers(0, 24).map(lambda k: 4.0 * k)
    scenes = []
    for _ in range(draw(st.integers(1, 4))):
        boxes = []
        for _ in range(draw(st.integers(0, 6))):
            x1, y1 = draw(coord), draw(coord)
            boxes.append(((x1, y1, x1 + draw(coord) + 4.0, y1 + draw(coord) + 4.0),
                          f"c{draw(st.integers(0, 4))}"))
        scenes.append(scene_of(*boxes))
    return geometry, scenes, draw(st.sampled_from((0, 1, 3, 10)))


class TestAssignment:
    """The batched owner index gives, layer by layer, the flat indices of the
    per-scene mask oracle's masks and draws: positives, then negatives, each
    strictly increasing, disjoint and inside the layer's batch grid."""

    @given(case=ownership_case(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=(pyramid_geometry([(4, 4), (2, 2)]), [
        scene_of(((0.0, 0.0, 12.0, 12.0), "c0"), ((4.0, 4.0, 16.0, 16.0), "c0"),
                 ((4.0, 0.0, 14.0, 10.0), "c1"), ((0.0, 0.0, 30.0, 30.0), "c3")),
        scene_of()], 0), seed=0)
    @settings(max_examples=200, deadline=None)
    def test_equals_per_scene_mask_oracle(self, case, seed):
        geometry, scenes, neg_cap = case
        pairs = training._owned_pairs(scenes, geometry, REGISTERED)
        oracle_owners = [oracle_ownership_masks(
            geometry, [(sb.box, REGISTERED[sb.class_name]) for sb in scene.gt
                       if sb.class_name in REGISTERED]) for scene in scenes]
        for scene_pairs, masks in zip(pairs, oracle_owners):
            for (classes, cells), by_class in zip(scene_pairs, masks):
                assert list(zip(classes.tolist(), cells.tolist())) == sorted(
                    (cls, int(c)) for cls, m in by_class.items() for c in np.flatnonzero(m))
        owners = training._owner_index(pairs, geometry)
        shapes = [(g.height, g.width) for g in geometry.layers]
        for class_id in range(len(REGISTERED) + 1):
            got = training._assignment_for_class(owners, class_id, neg_cap,
                                                 np.random.default_rng(seed))
            want_pos, want_neg = oracle_assignment_for_class(
                oracle_owners, shapes, class_id, neg_cap, np.random.default_rng(seed))
            assert len(got.index) == len(got.n_pos) == len(shapes)
            for idx, n_pos, mpos, mneg in zip(got.index, got.n_pos, want_pos, want_neg):
                assert idx.dtype.kind == "i"
                pos, neg = idx[:n_pos], idx[n_pos:]
                assert np.array_equal(pos, np.flatnonzero(mpos))
                assert np.array_equal(neg, np.flatnonzero(mneg))
                assert np.all(np.diff(pos) > 0) and np.all(np.diff(neg) > 0)
                assert np.intersect1d(pos, neg).size == 0
                assert np.all((idx >= 0) & (idx < mpos.size))


class TestCheckpointFiles:
    def test_registry_payload_round_trip(self):
        rng = np.random.default_rng(0)
        registry = ClassEmbeddingRegistry(entries=(), generic_object=rng.normal(size=6))
        registry = register_task(registry, [("a", rng.normal(size=6))])
        payload = json.loads(json.dumps(registry_to_payload(registry)))
        back = registry_from_payload(payload)
        assert back.entries[0].embedding.tobytes() == registry.entries[0].embedding.tobytes()
        assert back.generic_object.tobytes() == registry.generic_object.tobytes()

    def test_missing_checkpoint(self, tmp_path):
        from openworld_kit.errors import MissingCheckpoint
        with pytest.raises(MissingCheckpoint):
            load_checkpoint(tmp_path / "nope")

    def test_save_load_cycle(self, tmp_path, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        config = TrainConfig(steps_per_task=2, batch_size=2, seed=1)
        reg, modules, log = train_task(data, registry, [], config, 1)
        save_checkpoint(tmp_path, reg, modules, log.theta, config, log)
        reg2, modules2, theta = load_checkpoint(tmp_path)
        assert theta == log.theta
        assert reg2.names == reg.names
        assert len(modules2) == len(modules)
        scene = data.cal_scenes[0]
        for a, b in zip(modules, modules2):
            for x, y in zip(anchor_similarity_maps(a, scene.pyramid),
                            anchor_similarity_maps(b, scene.pyramid)):
                assert x.tobytes() == y.tobytes()

    def test_train_log_format(self, tmp_path):
        from openworld_kit.training import TrainLog
        log = TrainLog(rows=[(0, 1.5, 2.25, 3.75)], theta=0.5)
        path = tmp_path / "log.csv"
        write_train_log_csv(path, log)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,det_loss,mscal_loss,total"
        assert lines[1] == "0,1.5,2.25,3.75"


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestCheckpointIsWholeOrAbsent:
    """A save that fails partway leaves the old checkpoint, or none, and no
    temporary directory or file."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_world):
        config = TrainConfig(steps_per_task=1, batch_size=2, seed=0)
        registry, modules, log = train_task(TaskData(tiny_world), fresh_registry(tiny_world),
                                            [], config, 1)
        return registry, modules, log, config

    @staticmethod
    def torn_writes(monkeypatch, fail_at):
        """Make the `fail_at`-th file write of a save put a torn text straight
        into the file and then fail, as a crash or a full disk would."""
        calls = []

        def tear(write):
            def torn(path, content):
                calls.append(path)
                if len(calls) == fail_at:
                    path.write_text(repr(content)[:40])
                    raise OSError("no space left on device")
                write(path, content)
            return torn

        monkeypatch.setattr(training, "write_json", tear(training.write_json))
        monkeypatch.setattr(training, "write_train_log_csv",
                            tear(training.write_train_log_csv))

    # writes 1-3 are the registry, theta and config, 4-5 the two module
    # files and 6 the train log
    @pytest.mark.parametrize("fail_at", range(1, 7))
    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_failed_save(self, tmp_path, monkeypatch, trained, fail_at, previous):
        registry, modules, log, config = trained
        ckpt = tmp_path / "checkpoints" / "task_1"
        if previous:
            save_checkpoint(ckpt, registry, modules[:1], 0.25, config)
            old = read_tree(ckpt)
        self.torn_writes(monkeypatch, fail_at)
        with pytest.raises(OSError):
            save_checkpoint(ckpt, registry, modules, log.theta, config, log)
        if previous:
            assert read_tree(ckpt) == old
        assert [p.name for p in (tmp_path / "checkpoints").iterdir()] == (
            ["task_1"] if previous else [])
        monkeypatch.undo()
        save_checkpoint(ckpt, registry, modules, log.theta, config, log)
        assert sorted(read_tree(ckpt)) == [
            "config.json", "modules/class_000.json", "modules/class_001.json",
            "registry.json", "theta.json", "train_log.csv"]
        assert list(tmp_path.rglob("*.tmp")) == []

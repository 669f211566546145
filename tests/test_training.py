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
from openworld_kit.errors import NoSamples, UnwritableOutput
from openworld_kit.mscal import (
    batch_moments,
    calibrate_threshold,
    fold_modules,
    mscal_loss_gradients,
    ood_score_map,
)
from openworld_kit.owod_eval import GtRecord
from openworld_kit.pyramid import LayerGeometry, PyramidGeometry
from openworld_kit.seeding import derive_rng
from openworld_kit.synthetic_world import WorldSpec, generate_scene, make_world
from openworld_kit.training import (
    TrainConfig,
    adamw_step,
    detection_loss,
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
    full_batch_running_stats,
    known_positive_scores_full_grid,
    oracle_all_class_detection_loss,
    oracle_assignment_for_class,
    oracle_batch_moments,
    oracle_detection_loss,
    oracle_mscal_loss_gradients,
    oracle_owned_pairs,
    oracle_ownership_masks,
    setdiff_assignment_for_class,
    whole_grid_detection_loss,
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


# the world digest the checkpoints of these tests record
WORLD_DIGEST = "0" * 64


def fresh_registry(world, task_id=1):
    registry = ClassEmbeddingRegistry(entries=())
    split = world.task_split()
    for t in range(1, task_id + 1):
        registry = register_task(
            registry, [(n, world.text_embeddings[n]) for n in split.current_classes(t)])
    return registry


def as_loaded(modules):
    """`modules`, frozen as a checkpoint loads them."""
    for module in modules:
        module.frozen = True
    return modules


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

    @given(shapes=st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple),
                           min_size=1, max_size=6),
           scales=st.lists(st.sampled_from((0.0, 1e-9, 1.0, 1e3)), min_size=6, max_size=6),
           steps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_flat_buffer_gives_the_bits_of_the_array_list(self, shapes, scales,
                                                              steps, seed):
        # the update is element-wise, so one buffer holding every array end to
        # end moves each element as the list does; a scale of 0 gives an
        # array zero gradients
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=shape) for shape in shapes]
        flat = np.concatenate([p.ravel() for p in params])
        state, flat_state = init_optimizer_state(params), init_optimizer_state([flat])
        for _ in range(steps):
            grads = [scale * rng.normal(size=shape) for shape, scale in zip(shapes, scales)]
            adamw_step(params, grads, state, 1e-2, 0.0125)
            adamw_step([flat], [np.concatenate([g.ravel() for g in grads])], flat_state,
                       1e-2, 0.0125)
            for got, want in ((flat, params), (flat_state.exp_avg[0], state.exp_avg),
                              (flat_state.exp_avg_sq[0], state.exp_avg_sq)):
                assert got.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()


def random_assignments(rng, grids, n_classes, most, first_min=1):
    """One random `SampleAssignment` per class over `grids`: per layer up to
    `most` distinct locations (the first class at least `first_min` of
    them), split at random into positives and negatives."""
    assignments = []
    for i in range(n_classes):
        index, n_pos = [], []
        for g in grids:
            picked = rng.permutation(g.size // g.shape[-1])[
                :rng.integers(0 if i else first_min, most)]
            cut = rng.integers(0, picked.size + 1)
            index.append(np.concatenate([np.sort(picked[:cut]), np.sort(picked[cut:])]))
            n_pos.append(int(cut))
        assignments.append(mscal.SampleAssignment(index=index, n_pos=n_pos))
    return assignments


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
        loss, _ = detection_loss([grid], w, assignments, logit_scale=200.0)
        assert loss < 1e-12

    def test_orthogonal_features_give_ln2(self):
        w = np.array([[1.0, 0.0, 0.0]])
        grid = np.zeros((1, 2, 3))
        grid[0, :, 2] = 1.0  # orthogonal to the class embedding
        assignment = assignment_from_masks([np.array([[True, False]])],
                                           [np.array([[False, True]])])
        loss, _ = detection_loss([grid], w, [assignment], 10.0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((3, 8, 16, 32)),
           batch=st.integers(1, 4), n_classes=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_equals_whole_grid_normalization_oracle(self, seed, dim, batch, n_classes):
        # a row's norm is its own, so normalizing only the sampled rows gives
        # the bits of normalizing every location first; zero rows take the
        # small-norm branch
        rng = np.random.default_rng(seed)
        grids = [rng.normal(size=(batch, h, h, dim)) for h in (6, 3)]
        for g in grids:
            g.reshape(-1, dim)[rng.random(g.size // dim) < 0.1] = 0.0
        assignments = random_assignments(rng, grids, n_classes, 40)
        embeddings = rng.normal(size=(n_classes, dim))
        # the pairs of classes not scored (frozen ones) count in the divisor
        total = sum(idx.size for a in assignments for idx in a.index) + int(rng.integers(0, 50))
        loss, grads = detection_loss(grids, embeddings, assignments, 10.0, total)
        want_loss, want_grads = whole_grid_detection_loss(grids, embeddings, assignments,
                                                          10.0, total)
        assert loss == want_loss
        assert grads.tobytes() == want_grads.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((3, 8, 16)),
           batch=st.integers(1, 3), n_classes=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_trained_classes_equal_all_class_oracle(self, seed, dim, batch, n_classes):
        # scoring only the trained classes, over every class's pair count,
        # gives the all-class loss's gradients bit for bit and the trained
        # classes' share of its summed BCE
        rng = np.random.default_rng(seed)
        grids = [rng.normal(size=(batch, h, h, dim)) for h in (5, 2)]
        assignments = random_assignments(rng, grids, n_classes, 30, first_min=0)
        total = sum(idx.size for a in assignments for idx in a.index)
        if total == 0:
            return
        embeddings = rng.normal(size=(n_classes, dim))
        trainable = rng.random(n_classes) < 0.5
        trained = np.flatnonzero(trainable)
        want_loss, want_grads, class_losses = oracle_all_class_detection_loss(
            grids, embeddings, trainable, assignments, 10.0)
        loss, grads = detection_loss(grids, embeddings[trained],
                                     [assignments[i] for i in trained], 10.0, total)
        assert grads.tobytes() == want_grads[trained].tobytes()
        assert loss == sum(class_losses[i] for i in trained if i in class_losses) / total
        if trainable.all():
            assert loss == want_loss


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
        """A trained task 1, its modules frozen as loaded, with task 2's
        classes registered."""
        config = self.config()
        reg1, modules1, _ = train_task(data, fresh_registry(tiny_world), [], config, 1)
        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        return reg2, as_loaded(modules1)

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
            save_checkpoint(ckpt, reg, modules, log.theta, self.config(), log,
                            world_digest=WORLD_DIGEST)
            payload = b"".join(sorted(p.read_bytes() for p in ckpt.rglob("*") if p.is_file()))
            outputs.append((tuple(log.rows), payload))
        assert outputs[0] == outputs[1]

    def test_task2_freezes_task1_bitwise(self, tiny_world, tmp_path):
        data = TaskData(tiny_world)
        config = self.config(steps_per_task=6)
        registry = fresh_registry(tiny_world)
        reg1, modules1, log1 = train_task(data, registry, [], config, 1)
        save_checkpoint(tmp_path / "task1", reg1, modules1, log1.theta, config, log1,
                        world_digest=WORLD_DIGEST)
        reg1, modules1, _ = load_checkpoint(tmp_path / "task1")

        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        fixed_scene = data.cal_scenes[0]
        maps_before = [ood_score_map(fold_modules([m]), fixed_scene.pyramid) for m in modules1]
        reg2, modules2, log2 = train_task(data, reg2, modules1, config, 2)
        save_checkpoint(tmp_path / "task2", reg2, modules2, log2.theta, config, log2,
                        world_digest=WORLD_DIGEST)

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
        maps_after = [ood_score_map(fold_modules([m]), fixed_scene.pyramid)
                      for m in modules2[:2]]
        for before, after in zip(maps_before, maps_after):
            for x, y in zip(before, after):
                assert x.tobytes() == y.tobytes()

    def test_split_held_at_float32_trains_as_its_float64_widening(self, tiny_world,
                                                                  tmp_path):
        # a loaded split holds its blobs' float32 grids, and training widens
        # them exactly where arithmetic starts: the same split held at
        # float64 trains the same modules, registry, log and theta
        data = TaskData(tiny_world)

        def held_at(scene, dtype):
            return dataclasses.replace(scene, pyramid=dataclasses.replace(
                scene.pyramid,
                layers=tuple(g.astype(np.float32).astype(dtype) for g in scene.pyramid.layers),
                box_field=tuple(b.astype(np.float32).astype(dtype)
                                for b in scene.pyramid.box_field)))

        config = self.config()
        files = []
        for dtype in (np.float32, np.float64):
            split = SimpleNamespace(
                geometry=data.geometry,
                train_scenes=[held_at(s, dtype) for s in data.train_scenes],
                cal_scenes=[held_at(s, dtype) for s in data.cal_scenes])
            assert split.train_scenes[0].pyramid.layers[0].dtype == dtype
            reg1, modules1, log1 = train_task(split, fresh_registry(tiny_world), [], config, 1)
            reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n]) for n in
                                        tiny_world.task_split().current_classes(2)])
            reg2, modules2, log2 = train_task(split, reg2, as_loaded(modules1), config, 2)
            root = tmp_path / np.dtype(dtype).name
            for task, (reg, modules, log) in enumerate([(reg1, modules1, log1),
                                                        (reg2, modules2, log2)], start=1):
                save_checkpoint(root / f"task{task}", reg, modules, log.theta, config, log,
                                world_digest=WORLD_DIGEST)
            files.append({p.relative_to(root): p.read_bytes()
                          for p in root.rglob("*") if p.is_file()})
        assert files[0] == files[1]
        assert len(files[0]) > 8

    def test_new_task_modules_receive_gradient(self, tiny_world):
        data = TaskData(tiny_world)
        config = self.config(steps_per_task=3)
        registry = fresh_registry(tiny_world)
        reg1, modules, log1 = train_task(data, registry, [], config, 1)
        reg2 = register_task(reg1, [(n, tiny_world.text_embeddings[n])
                                    for n in tiny_world.task_split().current_classes(2)])
        as_loaded(modules)
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
            smap = ood_score_map(fold_modules(mods), scene.pyramid)
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

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_moment_init_equals_full_batch_oracle(self, dim):
        world = make_world(dataclasses.replace(TINY_SPEC, dim=dim), seed=0)
        data = TaskData(world)
        config = self.config(batch_size=4)
        modules = training._init_modules_for_task(fresh_registry(world), [],
                                                  data.train_scenes, data.geometry, config, 1)
        grids = [np.stack([s.pyramid.layers[j] for s in data.train_scenes[:4]])
                 for j in range(data.geometry.num_layers)]
        assert len(modules) == 2
        for module in modules:
            for p, (mean, var) in zip(module.layers, full_batch_running_stats(module, grids)):
                np.testing.assert_allclose(p.running_mean, mean, rtol=1e-12, atol=0)
                np.testing.assert_allclose(p.running_var, var, rtol=1e-12, atol=0)

    def test_anchors_unit_norm_after_training(self, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        _, modules, _ = train_task(data, registry, [], self.config(steps_per_task=5), 1)
        for m in modules:
            for layer in m.layers:
                assert abs(np.linalg.norm(layer.anchor) - 1.0) < 1e-9


class TestCalibrationScores:
    """Calibration scores each layer's owned rows of all cal scenes as one
    block, in one `ood_score_map` call, the folded-batchnorm scorer that the
    whole-grid oracle and the inference gate read too. The folded affine
    maps give those rows the bits of whole-grid ones, but the anchor
    similarity is a gemv, and OpenBLAS computes a row that falls in the
    tail of its block's rows in another order than inside a whole grid (at
    dims 16 and 32; none at dim 8). So each score, and theta, may differ
    from the whole-grid oracle's by a few units in the last place."""

    MAX_ULP = 4

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_theta_equals_full_grid_oracle(self, dim, monkeypatch):
        world = make_world(dataclasses.replace(TINY_SPEC, dim=dim), seed=0)
        data = TaskData(world, n_cal=4)
        config = TrainConfig(steps_per_task=3, batch_size=2, seed=0)
        calls, folds_built = [], []

        def spy(folds, grids):
            calls.append(type(grids))
            return ood_score_map(folds, grids)

        def fold_spy(modules):
            folds_built.append(len(modules))
            return fold_modules(modules)
        monkeypatch.setattr(training, "ood_score_map", spy)
        monkeypatch.setattr(training, "fold_modules", fold_spy)
        registry, modules, log = train_task(data, fresh_registry(world), [], config, 1)
        assert calls == [list], "calibration should score one block per layer in one call"
        assert folds_built == [len(modules)], "calibration should fold every module once"
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


class TestFrozenClassesAreCounted:
    """Tasks 1-3 leave the bits of a run whose steps sample and score every
    class, frozen ones too (`oracle_all_class_detection_loss`): frozen
    classes only add their pair count to the detection loss."""

    @staticmethod
    def all_class_path(monkeypatch, registry, config, task_id):
        """Patch the all-class sample and loss into `training.train_task`:
        each step draws every class's assignment from the step's owner
        index, checks the pair count it was given against them, and returns
        the oracle's loss and the trainable rows' gradients."""
        owner_index = training._owner_index
        seen = []

        def spy(*args):
            seen.append(owner_index(*args))
            return seen[-1]

        frozen = np.stack([e.embedding for e in registry.entries])
        trainable = np.array([not e.frozen for e in registry.entries])

        def all_class_loss(grids, rows, assignments, logit_scale, total_pairs):
            step = len(seen) - 1
            every = [training._assignment_for_class(
                seen[-1], c, config.neg_cap,
                derive_rng(config.seed, "assign", task_id, step, c))
                for c in range(registry.num_known)]
            assert total_pairs == sum(idx.size for a in every for idx in a.index)
            embeddings = frozen.copy()
            embeddings[trainable] = rows
            loss, grads, _ = oracle_all_class_detection_loss(
                grids, embeddings, trainable, every, logit_scale)
            return loss, grads[trainable]

        monkeypatch.setattr(training, "_owner_index", spy)
        monkeypatch.setattr(training, "detection_loss", all_class_loss)

    def run(self, world, monkeypatch, all_class):
        data = TaskData(world)
        config = TrainConfig(steps_per_task=4, batch_size=2, seed=0)
        registry, modules, out = ClassEmbeddingRegistry(entries=()), [], []
        for task_id in (1, 2, 3):
            registry = register_task(registry, [
                (n, world.text_embeddings[n])
                for n in world.task_split().current_classes(task_id)])
            with monkeypatch.context() as patch:
                if all_class:
                    self.all_class_path(patch, registry, config, task_id)
                registry, modules, log = train_task(data, registry, as_loaded(modules),
                                                    config, task_id)
            out.append(([json.dumps(mscal.module_to_payload(m), sort_keys=True)
                         for m in modules],
                        [e.embedding.tobytes() for e in registry.entries],
                        log.theta, log.rows))
        return out

    def test_every_task_equals_the_all_class_path(self, monkeypatch):
        world = make_world(dataclasses.replace(TINY_SPEC, known_per_task=(2, 2, 2)), seed=0)
        got = self.run(world, monkeypatch, all_class=False)
        want = self.run(world, monkeypatch, all_class=True)
        for task_id, ((modules, rows, theta, log), (modules_w, rows_w, theta_w, log_w)) in \
                enumerate(zip(got, want, strict=True), start=1):
            assert len(modules) == 2 * task_id
            assert modules == modules_w
            assert rows == rows_w
            assert theta == theta_w
            # the logged anchor loss is the same; the detection loss differs
            # after task 1 by the frozen classes' BCE
            assert [(r[0], r[2]) for r in log] == [(r[0], r[2]) for r in log_w]
            if task_id == 1:
                assert log == log_w
            else:
                assert all(r[1] < r_w[1] for r, r_w in zip(log, log_w, strict=True))


REGISTERED = {"c0": 0, "c1": 1, "c2": 2}  # c3 and c4 stay unregistered


def pyramid_geometry(sizes):
    """Layers of the given (H, W) with strides 8, 16, 32 and box-side
    thresholds 0, 16, 32."""
    return PyramidGeometry(
        tuple(LayerGeometry(h, w, 8.0 * 2 ** j) for j, (h, w) in enumerate(sizes)),
        (0.0,) + tuple(16.0 * 2 ** j for j in range(len(sizes) - 1)) + (math.inf,))


def scene_of(*boxes):
    return SimpleNamespace(gt=tuple(GtRecord("scene", box, name) for box, name in boxes))


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


# boxes of c0 and c1 that own some cells together, a c0 box that overlaps
# another c0 box, and an unregistered c3 box
SHARED_CELL = (pyramid_geometry([(4, 4), (2, 2)]), [
    scene_of(((0.0, 0.0, 12.0, 12.0), "c0"), ((4.0, 4.0, 16.0, 16.0), "c0"),
             ((4.0, 0.0, 14.0, 10.0), "c1"), ((0.0, 0.0, 30.0, 30.0), "c3")),
    scene_of()], 0)


@st.composite
def owner_index_case(draw):
    """(layer sizes, owners, neg_cap): 1-3 layers of 1-12 locations, each
    owned by any subset of classes 0-2 (class 3 owns nothing); every
    location may be owned, which leaves no background."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    owned = draw(st.lists(st.frozensets(st.integers(0, 2)),
                          min_size=sum(sizes), max_size=sum(sizes)))
    return sizes, owned, draw(st.integers(0, 12))


def _owners(sizes, owned):
    """The `OwnerIndex` of one location per entry of `owned`, each owned by
    the classes its set names."""
    pairs = [(cell, cls) for cell, classes in enumerate(owned) for cls in sorted(classes)]
    is_owned = np.array([bool(classes) for classes in owned])
    return training.OwnerIndex(
        starts=np.cumsum([0] + sizes[:-1]), foreground=np.flatnonzero(is_owned),
        background=np.flatnonzero(~is_owned),
        cells=np.array([cell for cell, _ in pairs], dtype=np.int64),
        classes=np.array([cls for _, cls in pairs], dtype=np.int64))


class TestAssignment:
    """The batched owner index gives, layer by layer, the flat indices of the
    per-scene mask oracle's masks and draws: positives, then negatives, each
    strictly increasing, disjoint and inside the layer's batch grid."""

    @given(case=ownership_case(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=SHARED_CELL, seed=0)
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

    @given(case=ownership_case(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=SHARED_CELL, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_other_class_mask_equals_setdiff(self, case, seed):
        geometry, scenes, neg_cap = case
        owners = training._owner_index(training._owned_pairs(scenes, geometry, REGISTERED),
                                       geometry)
        for class_id in range(len(REGISTERED) + 1):
            got = training._assignment_for_class(owners, class_id, neg_cap,
                                                 np.random.default_rng(seed))
            want = setdiff_assignment_for_class(owners, class_id, neg_cap,
                                                np.random.default_rng(seed))
            assert got.n_pos == want.n_pos
            assert all(np.array_equal(a, b) for a, b in zip(got.index, want.index, strict=True))

    @given(case=owner_index_case(), seed=st.integers(0, 2 ** 32 - 1))
    # no background; neg_cap 0; other-class pools above and below the cap
    @example(case=([3], [{0}, {1}, {0, 2}], 1), seed=0)
    @example(case=([2, 2], [{0}, set(), {1}, set()], 0), seed=0)
    @example(case=([6], [{0}, {1}, {1}, {1}, {2}, set()], 1), seed=0)
    @example(case=([6], [{0}, {1}, {1}, {1}, {2}, set()], 10), seed=0)
    @settings(max_examples=200, deadline=None)
    def test_sample_count_is_the_assignment_length(self, case, seed):
        sizes, owned, neg_cap = case
        owners = _owners(sizes, owned)
        for class_id in range(4):  # class 3 has no positive
            got = training._assignment_for_class(owners, class_id, neg_cap,
                                                 np.random.default_rng(seed))
            assert training._sample_count(owners, class_id, neg_cap) == sum(
                idx.size for idx in got.index)

    @pytest.mark.parametrize("neg_cap", [0, 1, 3, 10, 1000])
    def test_cell_owned_by_two_classes(self, neg_cap):
        # the c0 and c1 boxes share cells: each class's other-class negatives
        # hold the shared cells of neither class
        geometry, scenes, _ = SHARED_CELL
        owners = training._owner_index(training._owned_pairs(scenes, geometry, REGISTERED),
                                       geometry)
        assert np.unique(owners.cells).size < owners.cells.size
        for class_id in (0, 1):
            got = training._assignment_for_class(owners, class_id, neg_cap,
                                                 np.random.default_rng(1))
            want = setdiff_assignment_for_class(owners, class_id, neg_cap,
                                                np.random.default_rng(1))
            assert all(np.array_equal(a, b) for a, b in zip(got.index, want.index, strict=True))


def random_module(rng, dim, num_layers, tau):
    """A fresh module whose every trained field is moved off its init, so
    no parameter keeps a special value (unit gamma, zero b1)."""
    module = mscal.init_module(0, 1, dim=dim, num_layers=num_layers, rng=rng, tau=tau)
    for layer in module.layers:
        for name in mscal.TRAINED_FIELDS:
            value = getattr(layer, name)
            setattr(layer, name, value + 0.3 * rng.normal(size=value.shape))
    return module


@st.composite
def step_case(draw):
    """(seed, dim, batch, layer grid sides, tau, per-layer sample counts
    and positive counts): a layer may sample no row, and the whole sample
    may hold a single positive."""
    sides = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    samples = []
    for h in sides:
        n = draw(st.integers(0, min(h * h, 12)))
        samples.append((n, draw(st.integers(0, n))))
    if draw(st.booleans()):  # one positive in all
        samples = [(n, 0) for n, _ in samples]
        j = draw(st.integers(0, len(sides) - 1))
        samples[j] = (max(samples[j][0], 1), 1)
    return (draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from((4, 8, 16))),
            draw(st.integers(1, 3)), sides, draw(st.sampled_from((0.05, 0.1, 1.0))), samples)


class TestStepEqualsTheWrapperPath:
    """The step's reductions call the ufuncs numpy's wrappers call (`np.sum`,
    `np.linalg.norm`, `np.outer`, `ndarray.mean`, `np.split`), so every
    loss, gradient, statistic and ownership array has the bits of the
    wrapper path the oracles keep."""

    @given(case=step_case())
    @example(case=(0, 8, 2, [4, 2], 0.1, [(5, 0), (3, 1)]))     # one positive, layer 1
    @example(case=(1, 4, 1, [3, 2], 1.0, [(0, 0), (4, 2)]))     # layer 0 samples no row
    @settings(max_examples=150, deadline=None)
    def test_mscal_loss_gradients_and_moments(self, case):
        seed, dim, batch, sides, tau, samples = case
        rng = np.random.default_rng(seed)
        grids = [rng.normal(size=(batch, h, h, dim)) for h in sides]
        module = random_module(rng, dim, len(sides), tau)
        index, n_pos = [], []
        for g, (n, pos) in zip(grids, samples):
            picked = rng.permutation(g.size // dim)[:n]
            index.append(np.concatenate([np.sort(picked[:pos]), np.sort(picked[pos:])]))
            n_pos.append(pos)
        assignment = mscal.SampleAssignment(index=index, n_pos=n_pos)
        moments = batch_moments(grids)
        want_moments = oracle_batch_moments(grids)
        for (mean, cov), (want_mean, want_cov) in zip(moments, want_moments, strict=True):
            assert mean.tobytes() == want_mean.tobytes()
            assert cov.tobytes() == want_cov.tobytes()
        if not sum(n_pos):
            with pytest.raises(NoSamples):
                mscal_loss_gradients(module, grids, assignment, moments)
            return
        loss, grads, stats = mscal_loss_gradients(module, grids, assignment, moments)
        want_loss, want_grads, want_stats = oracle_mscal_loss_gradients(
            module, grids, assignment, want_moments)
        assert loss == want_loss
        for got, want in zip(grads, want_grads, strict=True):
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].dtype == want[name].dtype
                assert got[name].tobytes() == want[name].tobytes(), name
        for got, want in zip(stats, want_stats, strict=True):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((3, 8, 16)),
           batch=st.integers(1, 3), n_classes=st.integers(1, 4),
           extra=st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_detection_loss(self, seed, dim, batch, n_classes, extra):
        rng = np.random.default_rng(seed)
        grids = [rng.normal(size=(batch, h, h, dim)) for h in (4, 2)]
        for g in grids:  # zero rows take the small-norm branch
            g.reshape(-1, dim)[rng.random(g.size // dim) < 0.1] = 0.0
        assignments = random_assignments(rng, grids, n_classes, 12, first_min=0)
        total = sum(idx.size for a in assignments for idx in a.index) + extra
        embeddings = rng.normal(size=(n_classes, dim))
        if total == 0:
            with pytest.raises(NoSamples):
                detection_loss(grids, embeddings, assignments, 10.0, total)
            return
        loss, grads = detection_loss(grids, embeddings, assignments, 10.0, total)
        want_loss, want_grads = oracle_detection_loss(grids, embeddings, assignments, 10.0,
                                                      total)
        assert loss == want_loss
        assert grads.dtype == want_grads.dtype and grads.tobytes() == want_grads.tobytes()

    @given(case=ownership_case())
    @example(case=SHARED_CELL)
    # edges on cell centres (4, 12, ...) and sides on the thresholds 16 and 32
    @example(case=(pyramid_geometry([(4, 4), (2, 2), (1, 1)]), [
        scene_of(((4.0, 4.0, 20.0, 12.0), "c0"), ((12.0, 12.0, 28.0, 28.0), "c1"),
                 ((0.0, 0.0, 32.0, 8.0), "c2"), ((4.0, 0.0, 20.0, 16.0), "c4")),
        scene_of(), scene_of(((0.0, 0.0, 4.0, 4.0), "c3"))], 0))
    @settings(max_examples=200, deadline=None)
    def test_owned_pairs(self, case):
        geometry, scenes, _ = case
        got = training._owned_pairs(scenes, geometry, REGISTERED)
        want = oracle_owned_pairs(scenes, geometry, REGISTERED)
        assert len(got) == len(want)
        for got_scene, want_scene in zip(got, want):
            assert len(got_scene) == len(want_scene) == geometry.num_layers
            for (classes, cells), (want_classes, want_cells) in zip(got_scene, want_scene):
                assert classes.dtype == cells.dtype == want_classes.dtype == np.int64
                assert want_cells.dtype == np.int64
                assert classes.tolist() == want_classes.tolist()
                assert cells.tolist() == want_cells.tolist()

    def test_owned_pairs_refuse_the_first_box_outside_the_thresholds(self):
        geometry = PyramidGeometry((LayerGeometry(4, 4, 8.0), LayerGeometry(2, 2, 16.0)),
                                   (4.0, 16.0, 32.0))
        scenes = [scene_of(((0.0, 0.0, 8.0, 8.0), "c0")),
                  scene_of(((0.0, 0.0, 40.0, 8.0), "c3"),    # unregistered: not owned
                           ((0.0, 0.0, 2.0, 2.0), "c1"), ((0.0, 0.0, 50.0, 1.0), "c2"))]
        with pytest.raises(ValueError) as want:
            oracle_owned_pairs(scenes, geometry, REGISTERED)
        with pytest.raises(ValueError) as got:
            training._owned_pairs(scenes, geometry, REGISTERED)
        assert str(got.value) == str(want.value)
        assert "box side 2.0 " in str(got.value)


class TestCheckpointFiles:
    def test_registry_payload_round_trip(self):
        rng = np.random.default_rng(0)
        registry = ClassEmbeddingRegistry(entries=())
        registry = register_task(registry, [("a", rng.normal(size=6))])
        payload = json.loads(json.dumps(registry_to_payload(registry)))
        back = registry_from_payload(payload)
        assert back.entries[0].embedding.tobytes() == registry.entries[0].embedding.tobytes()
        # a checkpoint keeps only trained state, and all of it loads frozen
        assert sorted(payload) == ["entries", "format"]
        assert sorted(payload["entries"][0]) == ["embedding", "name", "task_id"]
        assert back.entries[0].frozen and not registry.entries[0].frozen

    def test_missing_checkpoint(self, tmp_path):
        from openworld_kit.errors import MissingCheckpoint
        with pytest.raises(MissingCheckpoint):
            load_checkpoint(tmp_path / "nope")

    def test_save_load_cycle(self, tmp_path, tiny_world):
        data = TaskData(tiny_world)
        registry = fresh_registry(tiny_world)
        config = TrainConfig(steps_per_task=2, batch_size=2, seed=1)
        reg, modules, log = train_task(data, registry, [], config, 1)
        save_checkpoint(tmp_path, reg, modules, log.theta, config, log,
                        world_digest=WORLD_DIGEST)
        reg2, modules2, theta = load_checkpoint(tmp_path)
        assert theta == log.theta
        assert reg2.names == reg.names
        assert len(modules2) == len(modules)
        scene = data.cal_scenes[0]
        for a, b in zip(modules, modules2):
            for x, y in zip(ood_score_map(fold_modules([a]), scene.pyramid),
                            ood_score_map(fold_modules([b]), scene.pyramid)):
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
            save_checkpoint(ckpt, registry, modules[:1], 0.25, config,
                            world_digest=WORLD_DIGEST)
            old = read_tree(ckpt)
        self.torn_writes(monkeypatch, fail_at)
        with pytest.raises(UnwritableOutput):
            save_checkpoint(ckpt, registry, modules, log.theta, config, log,
                            world_digest=WORLD_DIGEST)
        if previous:
            assert read_tree(ckpt) == old
        assert [p.name for p in (tmp_path / "checkpoints").iterdir()] == (
            ["task_1"] if previous else [])
        monkeypatch.undo()
        save_checkpoint(ckpt, registry, modules, log.theta, config, log,
                        world_digest=WORLD_DIGEST)
        assert sorted(read_tree(ckpt)) == [
            "config.json", "modules/class_000.json", "modules/class_001.json",
            "registry.json", "theta.json", "train_log.csv"]
        assert list(tmp_path.rglob("*.tmp")) == []

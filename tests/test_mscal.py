import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openworld_kit.errors import (
    DegenerateProjection,
    EmptyScores,
    NoModules,
    NoSamples,
    ShapeMismatch,
)
from openworld_kit.mscal import (
    BN_EPS,
    MscalModule,
    SampleAssignment,
    calibrate_threshold,
    freeze_class_modules,
    init_module,
    module_from_payload,
    module_to_payload,
    mscal_loss,
    ood_score_map,
    project,
    sampled_rows,
)
from openworld_kit.pyramid import FeaturePyramid, LayerGeometry, PyramidGeometry

from oracles import (
    assign_samples,
    assignment_from_masks,
    cell_box,
    location_count,
    masks_of,
    mscal_total_loss,
    num_negative,
    ood_score,
    out_dim,
)


def make_pyramid(rng, dim=8, shapes=((4, 4, 8.0), (2, 2, 16.0)), thresholds=(0.0, 16.0)):
    geo = PyramidGeometry(
        layers=tuple(LayerGeometry(h, w, s) for h, w, s in shapes),
        level_thresholds=tuple(thresholds) + (float("inf"),),
    )
    layers, boxes = [], []
    for g in geo.layers:
        layers.append(rng.normal(size=(g.height, g.width, dim)))
        cells = np.zeros((g.height, g.width, 4))
        for r in range(g.height):
            for c in range(g.width):
                cells[r, c] = cell_box(g, r, c)
        boxes.append(cells)
    return FeaturePyramid(geometry=geo, layers=tuple(layers), box_field=tuple(boxes))


def reference_project_infer(module, grids):
    """Straight-line reimplementation of the infer-mode projection."""
    out = []
    for params, grid in zip(module.layers, grids):
        result = np.zeros(grid.shape[:-1] + (params.w2.shape[1],))
        it = np.ndindex(grid.shape[:-1])
        for idx in it:
            x = grid[idx]
            h = params.w1.T @ x + params.b1
            x_hat = (h - params.running_mean) / np.sqrt(params.running_var + BN_EPS)
            y = params.gamma * x_hat + params.beta
            r = np.maximum(y, 0.0)
            u = params.w2.T @ r + params.b2
            result[idx] = u / np.linalg.norm(u)
        out.append(result)
    return out


def reference_eq3_loss(module, projected, assignment):
    """Brute-force double sum over layers and samples, term by term."""
    anchors = [module.effective_anchor(j) for j in range(module.num_layers)]
    denom = 0.0
    positive, negative = masks_of(assignment, [g.shape[:-1] for g in projected])
    for m, grid in enumerate(projected):
        flat = grid.reshape(-1, grid.shape[-1])
        for idx in np.flatnonzero(positive[m].ravel() | negative[m].ravel()):
            denom += math.exp(float(anchors[m] @ flat[idx]) / module.tau)
    total = 0.0
    count = 0
    for j, grid in enumerate(projected):
        flat = grid.reshape(-1, grid.shape[-1])
        for idx in np.flatnonzero(positive[j].ravel()):
            numer = math.exp(float(anchors[j] @ flat[idx]) / module.tau)
            total += math.log(numer / denom)
            count += 1
    return -total / count


class TestProject:
    def test_zero_parameters_degenerate(self):
        rng = np.random.default_rng(0)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        for params in module.layers:
            for name in ("w1", "b1", "gamma", "beta", "w2", "b2"):
                setattr(params, name, np.zeros_like(getattr(params, name)))
        pyr = make_pyramid(np.random.default_rng(1))
        with pytest.raises(DegenerateProjection):
            project(module, pyr, mode="infer")

    def test_bypassed_batchnorm_identity_affine(self):
        # scale 1 / shift 0 / running stats (0, 1) reduce batchnorm to a
        # near-identity; orthonormal affine2 rows preserve norms of ReLU images
        rng = np.random.default_rng(2)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        params = module.layers[0]
        params.b1 = np.zeros(6)
        params.beta = np.zeros(6)
        grid = rng.normal(size=(3, 3, 6))
        out = project(module, [grid], mode="infer")[0]
        scale = 1.0 / np.sqrt(1.0 + BN_EPS)
        expected = np.zeros_like(out)
        for r in range(3):
            for c in range(3):
                h = params.w1.T @ grid[r, c] * scale
                u = params.w2.T @ np.maximum(h, 0.0) + params.b2
                expected[r, c] = u / np.linalg.norm(u)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_reference_reimplementation(self):
        rng = np.random.default_rng(0)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        pyr = make_pyramid(np.random.default_rng(10))
        got = project(module, pyr, mode="infer")
        want = reference_project_infer(module, pyr.layers)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        with pytest.raises(ShapeMismatch):
            project(module, [rng.normal(size=(4, 4, 8))], mode="infer")
        with pytest.raises(ShapeMismatch):
            project(module, [rng.normal(size=(4, 4, 5)), rng.normal(size=(2, 2, 5))],
                    mode="infer")

    def test_train_mode_uses_batch_statistics(self):
        rng = np.random.default_rng(4)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        grid = rng.normal(size=(5, 5, 6))
        train_out = project(module, [grid], mode="train")[0]
        infer_out = project(module, [grid], mode="infer")[0]
        assert not np.allclose(train_out, infer_out)

    def test_frozen_module_keeps_running_stats(self):
        rng = np.random.default_rng(5)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        module.frozen = True
        before = module.layers[0].running_mean.copy()
        project(module, [rng.normal(size=(4, 4, 6))], mode="train", update_stats=True)
        np.testing.assert_array_equal(module.layers[0].running_mean, before)


class TestAssignSamples:
    SHAPES = ((4, 4), (2, 2))

    def geometry(self):
        return PyramidGeometry(
            layers=(LayerGeometry(4, 4, 8.0), LayerGeometry(2, 2, 16.0)),
            level_thresholds=(0.0, 40.0, float("inf")),
        )

    def test_single_box_covering_level_one(self):
        geo = self.geometry()
        a = assign_samples(geo, [((0.0, 0.0, 32.0, 31.0), 0)], class_id=0,
                           neg_cap=10, rng_seed=0)
        positive, negative = masks_of(a, self.SHAPES)
        assert positive[0].all()
        assert not positive[1].any()
        assert not negative[0].any()

    def test_no_boxes_of_class_means_empty_positives(self):
        geo = self.geometry()
        a = assign_samples(geo, [((0.0, 0.0, 20.0, 20.0), 1)], class_id=0,
                           neg_cap=10, rng_seed=0)
        assert a.num_positive == 0

    def test_hand_enumerated_counts(self):
        # centers at 4,12,20,28; a 2x2-location box spans two center rows/cols
        geo = self.geometry()
        boxes = [((0.0, 0.0, 16.0, 16.0), 0), ((16.0, 16.0, 32.0, 32.0), 5)]
        a = assign_samples(geo, boxes, class_id=0, neg_cap=10, rng_seed=0)
        assert a.num_positive == 4
        # 4 other-class positives are negatives, background fills up to the cap
        neg = num_negative(a)
        assert neg <= 10 * 4
        other = masks_of(a, self.SHAPES)[1][0][2:, 2:]
        assert other.all()
        assert num_negative(a) == 4 + (16 - 4 - 4) + 4  # class negs + level-1 bg + level-2 bg

    def test_masks_disjoint(self):
        geo = self.geometry()
        boxes = [((0.0, 0.0, 16.0, 16.0), 0), ((8.0, 8.0, 24.0, 24.0), 1)]
        a = assign_samples(geo, boxes, class_id=0, neg_cap=10, rng_seed=1)
        for pos, neg in zip(*masks_of(a, self.SHAPES)):
            assert not (pos & neg).any()

    def test_negative_cap_respected(self):
        geo = self.geometry()
        boxes = [((0.0, 0.0, 9.0, 9.0), 0)]
        a = assign_samples(geo, boxes, class_id=0, neg_cap=3, rng_seed=2)
        assert a.num_positive == 1
        assert num_negative(a) <= 3


class TestMscalLoss:
    def build(self, n_pos, n_neg, seed=0, tau=0.1, num_layers=2, dim=8):
        rng = np.random.default_rng(seed)
        module = init_module(0, 1, dim=dim, num_layers=num_layers, rng=rng, tau=tau)
        shapes = [(4, 4), (2, 2)][:num_layers]
        projected = [rng.normal(size=s + (out_dim(module),)) for s in shapes]
        projected = [p / np.linalg.norm(p, axis=-1, keepdims=True) for p in projected]
        pos = [np.zeros(s, dtype=bool) for s in shapes]
        neg = [np.zeros(s, dtype=bool) for s in shapes]
        flat_order = [(j, r, c) for j, s in enumerate(shapes)
                      for r in range(s[0]) for c in range(s[1])]
        for j, r, c in flat_order[:n_pos]:
            pos[j][r, c] = True
        for j, r, c in flat_order[n_pos:n_pos + n_neg]:
            neg[j][r, c] = True
        return module, projected, assignment_from_masks(pos, neg)

    def test_single_positive_gives_zero(self):
        module, projected, assignment = self.build(1, 0)
        assert abs(mscal_loss(module, projected, assignment)) < 1e-12

    def test_uniform_two_way_softmax_gives_ln2(self):
        module, projected, assignment = self.build(1, 1)
        # same vector at both sampled locations makes the two logits equal
        flat = projected[0].reshape(-1, out_dim(module))
        flat[1] = flat[0]
        assert mscal_loss(module, projected, assignment) == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_brute_force_double_sum(self):
        module, projected, assignment = self.build(3, 5, seed=0, tau=0.1)
        got = mscal_loss(module, projected, assignment)
        want = reference_eq3_loss(module, projected, assignment)
        assert got == pytest.approx(want, abs=1e-10)

    def test_loss_nonnegative(self):
        for seed in range(10):
            module, projected, assignment = self.build(4, 6, seed=seed)
            assert mscal_loss(module, projected, assignment) >= 0.0

    def test_no_positives_raises(self):
        module, projected, assignment = self.build(0, 3)
        with pytest.raises(NoSamples):
            mscal_loss(module, projected, assignment)

    def test_permuting_samples_within_layer(self):
        module, projected, assignment = self.build(3, 5, seed=7)
        base = mscal_loss(module, projected, assignment)
        rng = np.random.default_rng(0)
        shuffled = []
        masks = masks_of(assignment, [g.shape[:-1] for g in projected])
        for grid, pos, neg in zip(projected, *masks):
            flat = grid.reshape(-1, grid.shape[-1]).copy()
            p, n = pos.ravel().copy(), neg.ravel().copy()
            perm = rng.permutation(flat.shape[0])
            shuffled.append((flat[perm].reshape(grid.shape), p[perm].reshape(pos.shape),
                             n[perm].reshape(neg.shape)))
        loss = mscal_loss(
            module, [s[0] for s in shuffled],
            assignment_from_masks([s[1] for s in shuffled], [s[2] for s in shuffled]))
        assert loss == pytest.approx(base, abs=1e-12)

    def test_relabeling_layers_consistently(self):
        module, projected, assignment = self.build(3, 5, seed=9, num_layers=2)
        base = mscal_loss(module, projected, assignment)
        # swap the two layers everywhere: grids, samples, and anchors; grids keep
        # their own shapes so the swap is a pure relabeling of layer indices
        swapped_module = MscalModule(
            class_id=module.class_id, task_id=module.task_id,
            layers=[module.layers[1], module.layers[0]],
            tau=module.tau, normalize=module.normalize)
        loss = mscal_loss(
            swapped_module, [projected[1], projected[0]],
            SampleAssignment(index=assignment.index[::-1], n_pos=assignment.n_pos[::-1]))
        assert loss == pytest.approx(base, abs=1e-12)


@st.composite
def projected_case(draw):
    """(module, projected batch grids, assignment): 1-3 layers, each with 0,
    1 or many samples, of which any number are positives."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    num_layers = draw(st.integers(1, 3))
    module = init_module(0, 1, dim=draw(st.sampled_from((8, 16, 32))),
                         num_layers=num_layers, rng=rng, normalize=draw(st.booleans()),
                         share_anchor=draw(st.booleans()))
    grids, index, n_pos = [], [], []
    for _ in range(num_layers):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        grids.append(rng.normal(size=shape + (module.in_dim,)))
        size = int(np.prod(shape))
        count = min(size, draw(st.one_of(st.sampled_from((0, 1)),
                                         st.integers(2, max(2, size)))))
        chosen = rng.permutation(size)[:count]
        k = draw(st.integers(0, count))
        index.append(np.concatenate([np.sort(chosen[:k]), np.sort(chosen[k:])]))
        n_pos.append(k)
    projected = project(module, grids, mode="infer")
    return module, projected, SampleAssignment(index=index, n_pos=n_pos)


class TestSampledRows:
    """The loss on `sampled_rows`' blocks under its compact assignment is the
    loss on the full projected grids, bit for bit: both read the same rows
    in the same order, so no BLAS identity is involved."""

    @given(case=projected_case())
    @settings(max_examples=200, deadline=None)
    def test_loss_on_blocks_equals_loss_on_grids(self, case):
        module, projected, assignment = case
        rows, compact = sampled_rows(projected, assignment)
        assert [r.shape for r in rows] == [(idx.size, out_dim(module))
                                           for idx in assignment.index]
        assert compact.n_pos == assignment.n_pos
        for idx, c in zip(assignment.index, compact.index):
            assert np.array_equal(c, np.arange(idx.size))
        if assignment.num_positive == 0:
            with pytest.raises(NoSamples):
                mscal_loss(module, projected, assignment)
            with pytest.raises(NoSamples):
                mscal_loss(module, rows, compact)
            return
        assert mscal_loss(module, rows, compact) == mscal_loss(module, projected, assignment)


class TestProjectionFlags:
    def test_normalization_off_returns_raw_affine_outputs(self):
        rng = np.random.default_rng(0)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng, normalize=False)
        grid = rng.normal(size=(3, 3, 6))
        out = project(module, [grid], mode="infer")[0]
        norms = np.linalg.norm(out, axis=-1)
        assert not np.allclose(norms, 1.0)
        module.normalize = True
        unit = project(module, [grid], mode="infer")[0]
        np.testing.assert_allclose(unit, out / norms[..., None], atol=1e-12)

    def test_normalization_off_uses_raw_anchor_in_logits(self):
        rng = np.random.default_rng(1)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng, normalize=False)
        module.layers[0].anchor = module.layers[0].anchor * 3.0
        np.testing.assert_array_equal(module.effective_anchor(0),
                                      module.layers[0].anchor)

    def test_shared_anchor_scores_every_layer_with_layer_zero(self):
        rng = np.random.default_rng(2)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng, share_anchor=True)
        np.testing.assert_array_equal(module.effective_anchor(0),
                                      module.effective_anchor(1))
        pyr = make_pyramid(np.random.default_rng(3))
        smap = ood_score_map([module], pyr)
        projected = project(module, pyr, mode="infer")
        mu = module.effective_anchor(0)
        for got, z in zip(smap, projected):
            np.testing.assert_allclose(got, -(z @ mu), atol=1e-12)


class TestTotalLoss:
    def test_single_class_equals_class_loss(self):
        rng = np.random.default_rng(0)
        pyr = make_pyramid(rng)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        gt = [((0.0, 0.0, 14.0, 14.0), 0)]
        total = mscal_total_loss([module], pyr, gt, neg_cap=10, rng_seed=0)
        assignment = assign_samples(pyr.geometry, gt, 0, 10,
                                    np.random.default_rng(_assign_seed(0, 0)))
        projected = project(module, pyr, mode="train")
        assert total == pytest.approx(mscal_loss(module, projected, assignment), abs=1e-12)

    def test_mean_over_three_random_classes(self):
        rng = np.random.default_rng(1)
        pyr = make_pyramid(rng)
        modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(3)]
        gt = [((0.0, 0.0, 14.0, 14.0), 0), ((16.0, 0.0, 30.0, 14.0), 1),
              ((0.0, 16.0, 14.0, 30.0), 2)]
        total = mscal_total_loss(modules, pyr, gt, neg_cap=10, rng_seed=5)
        parts = []
        for module in modules:
            assignment = assign_samples(pyr.geometry, gt, module.class_id, 10,
                                        np.random.default_rng(_assign_seed(5, module.class_id)))
            projected = project(module, pyr, mode="train")
            parts.append(mscal_loss(module, projected, assignment))
        assert total == pytest.approx(sum(parts) / 3, abs=1e-12)

    def test_class_without_positives_contributes_zero(self):
        rng = np.random.default_rng(2)
        pyr = make_pyramid(rng)
        modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(2)]
        gt = [((0.0, 0.0, 14.0, 14.0), 0)]
        total = mscal_total_loss(modules, pyr, gt, neg_cap=10, rng_seed=0)
        assignment = assign_samples(pyr.geometry, gt, 0, 10,
                                    np.random.default_rng(_assign_seed(0, 0)))
        projected = project(modules[0], pyr, mode="train")
        assert total == pytest.approx(mscal_loss(modules[0], projected, assignment) / 2,
                                      abs=1e-12)


def _assign_seed(rng_seed, class_id):
    from openworld_kit.seeding import derive_seed
    return derive_seed(rng_seed, "assign-scene", class_id)


class TestOodScore:
    def make_modules(self, sims):
        modules = []
        zs = []
        for i, s in enumerate(sims):
            rng = np.random.default_rng(i)
            module = init_module(i, 1, dim=8, num_layers=1, rng=rng)
            mu = module.effective_anchor(0)
            # build z at the requested similarity to the anchor
            tangent = np.zeros_like(mu)
            tangent[np.argmin(np.abs(mu))] = 1.0
            tangent -= (tangent @ mu) * mu
            tangent /= np.linalg.norm(tangent)
            zs.append(s * mu + np.sqrt(max(0.0, 1 - s * s)) * tangent)
            modules.append(module)
        return modules, zs

    def test_single_class_perfect_alignment(self):
        modules, zs = self.make_modules([1.0])
        assert ood_score(modules, zs, 0) == pytest.approx(-1.0, abs=1e-12)

    def test_max_selection(self):
        modules, zs = self.make_modules([0.9, 0.2])
        assert ood_score(modules, zs, 0) == pytest.approx(-0.9, abs=1e-12)

    def test_order_free(self):
        modules, zs = self.make_modules([0.3, 0.8, 0.1])
        a = ood_score(modules, zs, 0)
        b = ood_score(modules[::-1], zs[::-1], 0)
        assert a == b

    def test_no_modules(self):
        with pytest.raises(NoModules):
            ood_score([], [], 0)


class TestOodScoreMap:
    def test_single_location_reduces_to_ood_score(self):
        rng = np.random.default_rng(0)
        geo = PyramidGeometry(layers=(LayerGeometry(1, 1, 8.0),),
                              level_thresholds=(0.0, float("inf")))
        feat = rng.normal(size=(1, 1, 8))
        pyr = FeaturePyramid(geometry=geo, layers=(feat,),
                             box_field=(np.array([[[0, 0, 8, 8.0]]]),))
        modules = [init_module(i, 1, dim=8, num_layers=1, rng=rng) for i in range(3)]
        smap = ood_score_map(modules, pyr)
        zs = [project(m, pyr, mode="infer")[0][0, 0] for m in modules]
        assert smap[0][0, 0] == pytest.approx(ood_score(modules, zs, 0), abs=1e-12)

    def test_entry_count_matches_pyramid(self):
        rng = np.random.default_rng(1)
        pyr = make_pyramid(rng)
        modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(2)]
        smap = ood_score_map(modules, pyr)
        assert sum(layer.size for layer in smap) == location_count(pyr)

    def test_scores_finite(self):
        rng = np.random.default_rng(2)
        pyr = make_pyramid(rng)
        modules = [init_module(0, 1, dim=8, num_layers=2, rng=rng)]
        smap = ood_score_map(modules, pyr)
        assert all(np.isfinite(layer).all() for layer in smap)


class TestCalibrateThreshold:
    def test_median(self):
        assert calibrate_threshold([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_constant_scores(self):
        for q in (0.1, 0.5, 0.95):
            assert calibrate_threshold([2.5] * 7, q) == 2.5

    def test_matches_numpy_quantile(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=257)
        got = calibrate_threshold(scores, 0.95)
        want = float(np.quantile(scores, 0.95, method="linear"))
        assert got == want

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            calibrate_threshold([], 0.95)


class TestFreezing:
    def test_freeze_marks_and_is_idempotent(self):
        rng = np.random.default_rng(0)
        modules = [init_module(i, task_id=1 + (i > 1), dim=8, num_layers=1, rng=rng)
                   for i in range(4)]
        freeze_class_modules(modules, up_to_task=1)
        assert [m.frozen for m in modules] == [True, True, False, False]
        freeze_class_modules(modules, up_to_task=1)
        assert [m.frozen for m in modules] == [True, True, False, False]


class TestCheckpoint:
    def test_round_trip_reproduces_infer_outputs_bit_identically(self, tmp_path):
        import json
        rng = np.random.default_rng(0)
        module = init_module(3, 2, dim=8, num_layers=2, rng=rng)
        module.frozen = True
        pyr = make_pyramid(np.random.default_rng(1))
        before = project(module, pyr, mode="infer")
        payload = module_to_payload(module)
        path = tmp_path / "module.json"
        path.write_text(json.dumps(payload))
        restored = module_from_payload(json.loads(path.read_text()))
        after = project(restored, pyr, mode="infer")
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()
        assert restored.frozen and restored.task_id == 2 and restored.class_id == 3

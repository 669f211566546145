import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openworld_kit.errors import (
    DegenerateProjection,
    EmptyScores,
    NoModules,
    NoSamples,
    ParseError,
    ShapeMismatch,
    ZeroVector,
    read_json,
    write_json,
)
from openworld_kit.mscal import (
    BN_EPS,
    MscalModule,
    SampleAssignment,
    TRAINED_FIELDS,
    batch_moments,
    calibrate_threshold,
    fold_modules,
    init_module,
    module_from_payload,
    module_to_payload,
    mscal_loss,
    mscal_loss_gradients,
    ood_score_map,
    project,
    sampled_rows,
)
from openworld_kit.pyramid import FeaturePyramid, LayerGeometry, PyramidGeometry

from oracles import (
    assign_samples,
    assignment_from_masks,
    cell_box,
    full_grid_loss_gradients,
    location_count,
    masks_of,
    mscal_total_loss,
    num_negative,
    ood_score,
    out_dim,
    train_project,
    unfolded_ood_score_map,
    unfolded_project,
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
            project(module, pyr)

    def test_bypassed_batchnorm_identity_affine(self):
        # scale 1 / shift 0 / running stats (0, 1) reduce batchnorm to a
        # near-identity; orthonormal affine2 rows preserve norms of ReLU images
        rng = np.random.default_rng(2)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        params = module.layers[0]
        params.b1 = np.zeros(6)
        params.beta = np.zeros(6)
        grid = rng.normal(size=(3, 3, 6))
        out = project(module, [grid])[0]
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
        got = project(module, pyr)
        want = reference_project_infer(module, pyr.layers)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        with pytest.raises(ShapeMismatch):
            project(module, [rng.normal(size=(4, 4, 8))])
        with pytest.raises(ShapeMismatch):
            project(module, [rng.normal(size=(4, 4, 5)), rng.normal(size=(2, 2, 5))])

    def test_train_mode_uses_batch_statistics(self):
        rng = np.random.default_rng(4)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        grid = rng.normal(size=(5, 5, 6))
        train_out = train_project(module, [grid])[0]
        infer_out = project(module, [grid])[0]
        assert not np.allclose(train_out, infer_out)

    def test_frozen_module_keeps_running_stats(self):
        rng = np.random.default_rng(5)
        module = init_module(0, 1, dim=6, num_layers=1, rng=rng)
        module.frozen = True
        before = module.layers[0].running_mean.copy()
        train_project(module, [rng.normal(size=(4, 4, 6))], update_stats=True)
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
            tau=module.tau)
        loss = mscal_loss(
            swapped_module, [projected[1], projected[0]],
            SampleAssignment(index=assignment.index[::-1], n_pos=assignment.n_pos[::-1]))
        assert loss == pytest.approx(base, abs=1e-12)


@st.composite
def batch_case(draw, trained=False, full_rank=False):
    """(module, batch grids, assignment): dims 8, 16 or 32, 1-3 layers, each
    with 0, 1 or many samples, of which any number are positives. With
    `trained` the module's affine maps and batchnorm parameters move away
    from their initial values, as training moves them; with `full_rank`
    every layer of the batch has more rows than the dim, as every training
    batch has."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    num_layers = draw(st.integers(1, 3))
    module = init_module(0, 1, dim=draw(st.sampled_from((8, 16, 32))),
                         num_layers=num_layers, rng=rng)
    grids, index, n_pos = [], [], []
    for _ in range(num_layers):
        scenes, height, width = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                                 draw(st.integers(1, 6)))
        if full_rank:
            scenes = max(scenes, module.in_dim // (height * width) + 1)
        shape = (scenes, height, width)
        grids.append(rng.normal(size=shape + (module.in_dim,)))
        size = int(np.prod(shape))
        count = min(size, draw(st.one_of(st.sampled_from((0, 1)),
                                         st.integers(2, max(2, size)))))
        chosen = rng.permutation(size)[:count]
        k = draw(st.integers(0, count))
        index.append(np.concatenate([np.sort(chosen[:k]), np.sort(chosen[k:])]))
        n_pos.append(k)
    if trained:
        for params in module.layers:
            params.w1 = params.w1 + 0.2 * rng.normal(size=params.w1.shape)
            params.b1 = rng.normal(size=params.b1.shape)
            params.gamma = params.gamma + 0.3 * rng.normal(size=params.gamma.shape)
            params.beta = params.beta + 0.3 * rng.normal(size=params.beta.shape)
    return module, grids, SampleAssignment(index=index, n_pos=n_pos)


@st.composite
def projected_case(draw):
    """(module, projected batch grids, assignment) of a `batch_case`."""
    module, grids, assignment = draw(batch_case())
    return module, project(module, grids), assignment


class TestSampledRows:
    """The loss on `sampled_rows`' blocks, each read whole in order, is the
    loss on the full projected grids, bit for bit: both read the same rows
    in the same order, so no BLAS identity is involved."""

    @given(case=projected_case())
    @settings(max_examples=200, deadline=None)
    def test_loss_on_blocks_equals_loss_on_grids(self, case):
        module, projected, assignment = case
        rows = sampled_rows(projected, assignment)
        assert [r.shape for r in rows] == [(idx.size, out_dim(module))
                                           for idx in assignment.index]
        compact = SampleAssignment(index=[np.arange(r.shape[0]) for r in rows],
                                   n_pos=assignment.n_pos)
        if assignment.num_positive == 0:
            with pytest.raises(NoSamples):
                mscal_loss(module, projected, assignment)
            with pytest.raises(NoSamples):
                mscal_loss(module, rows, compact)
            return
        assert mscal_loss(module, rows, compact) == mscal_loss(module, projected, assignment)


class TestMomentStep:
    """`mscal_loss_gradients`, which projects only the sampled rows and
    reads the batch through its moments, against the full-grid train-mode
    oracle: the loss, every gradient and the batch statistics the running
    statistics move towards.

    On batches with more rows than the dim, as in training, they agree to
    RTOL relative. Gradients that are analytically zero (`b1` always, `b2`
    with normalization off) hold only rounding noise on the oracle's side,
    so each comparison also allows RTOL of the largest value of its kind in
    the module. A batch with no more rows than the dim has a singular
    covariance: some batchnorm variances come close to zero, and dividing
    by their square roots magnifies rounding in both paths, to about 1e-11
    in a 3,000-case probe, so those batches are held to RANK_DEFICIENT_RTOL.
    """

    RTOL = 1e-12
    RANK_DEFICIENT_RTOL = 1e-9

    @given(case=batch_case(trained=True, full_rank=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_grid_oracle(self, case):
        self.check(*case, self.RTOL)

    @given(case=batch_case(trained=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_grid_oracle_on_any_batch(self, case):
        self.check(*case, self.RANK_DEFICIENT_RTOL)

    @staticmethod
    def check(module, grids, assignment, rtol):
        def close(got, want, scale):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)

        moments = batch_moments(grids)
        _, traces = train_project(module, grids, with_trace=True)
        if assignment.num_positive == 0:
            with pytest.raises(NoSamples):
                mscal_loss_gradients(module, grids, assignment, moments)
            return
        loss, grads, stats = mscal_loss_gradients(module, grids, assignment, moments)
        want_loss, want_grads = full_grid_loss_gradients(module, traces, assignment)
        assert loss == pytest.approx(want_loss, rel=rtol, abs=rtol)
        largest = max(float(np.abs(g).max()) for layer in want_grads for g in layer.values())
        for got, want in zip(grads, want_grads, strict=True):
            assert not got["b1"].any()
            for name in TRAINED_FIELDS:
                close(got[name], want[name], largest)
        for (mean, var), trace in zip(stats, traces, strict=True):
            close(mean, trace["mean"], np.abs(trace["mean"]).max())
            close(var, trace["var"], trace["var"].max())

    def test_checks_only_sampled_rows_for_degenerate_projections(self):
        # a location whose projection collapses to zero fails a full-grid
        # projection, but the train step projects only the sampled rows
        rng = np.random.default_rng(0)
        module = init_module(0, 1, dim=8, num_layers=1, rng=rng)
        params = module.layers[0]
        params.w2 = np.zeros_like(params.w2)
        params.w2[0, 0] = 1.0
        params.b2 = np.zeros_like(params.b2)
        grid = rng.normal(size=(2, 4, 4, 8))
        h = grid.reshape(-1, 8) @ params.w1 + params.b1
        x_hat = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + BN_EPS)
        dead = np.flatnonzero(params.gamma[0] * x_hat[:, 0] + params.beta[0] <= 0.0)
        alive = np.setdiff1d(np.arange(32), dead)
        assert dead.size and alive.size >= 2
        with pytest.raises(DegenerateProjection):
            mscal_loss_gradients(module, [grid], SampleAssignment([dead[:1]], [1]),
                                 batch_moments([grid]))
        loss, _, _ = mscal_loss_gradients(module, [grid], SampleAssignment([alive[:2]], [1]),
                                          batch_moments([grid]))
        assert math.isfinite(loss)


class TestTotalLoss:
    def test_single_class_equals_class_loss(self):
        rng = np.random.default_rng(0)
        pyr = make_pyramid(rng)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        gt = [((0.0, 0.0, 14.0, 14.0), 0)]
        total = mscal_total_loss([module], pyr, gt, neg_cap=10, rng_seed=0)
        assignment = assign_samples(pyr.geometry, gt, 0, 10,
                                    np.random.default_rng(_assign_seed(0, 0)))
        projected = train_project(module, pyr)
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
            projected = train_project(module, pyr)
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
        projected = train_project(modules[0], pyr)
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
        smap = ood_score_map(fold_modules(modules), pyr)
        zs = [project(m, pyr)[0][0, 0] for m in modules]
        assert smap[0][0, 0] == pytest.approx(ood_score(modules, zs, 0), abs=1e-12)

    def test_entry_count_matches_pyramid(self):
        rng = np.random.default_rng(1)
        pyr = make_pyramid(rng)
        modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(2)]
        smap = ood_score_map(fold_modules(modules), pyr)
        assert sum(layer.size for layer in smap) == location_count(pyr)

    def test_scores_finite(self):
        rng = np.random.default_rng(2)
        pyr = make_pyramid(rng)
        modules = [init_module(0, 1, dim=8, num_layers=2, rng=rng)]
        smap = ood_score_map(fold_modules(modules), pyr)
        assert all(np.isfinite(layer).all() for layer in smap)


@st.composite
def scoring_case(draw):
    """(modules, grids): 1-3 two-layer modules of one dim (8, 16 or 32),
    every array moved away from its initial value as training and running
    statistics move it, over a two-layer `FeaturePyramid` or a list of
    (n, D) blocks as calibration scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from((8, 16, 32)))
    modules = [init_module(i, 1, dim=dim, num_layers=2, rng=rng)
               for i in range(draw(st.integers(1, 3)))]
    for module in modules:
        for p in module.layers:
            p.w1 = p.w1 + 0.2 * rng.normal(size=p.w1.shape)
            p.b1 = rng.normal(size=p.b1.shape)
            p.gamma = p.gamma + 0.3 * rng.normal(size=p.gamma.shape)
            p.beta = p.beta + 0.3 * rng.normal(size=p.beta.shape)
            p.running_mean = rng.normal(size=p.running_mean.shape)
            p.running_var = rng.uniform(0.05, 3.0, size=p.running_var.shape)
            p.w2 = p.w2 + 0.2 * rng.normal(size=p.w2.shape)
            p.b2 = 0.3 * rng.normal(size=p.b2.shape)
            p.anchor = rng.normal(size=p.anchor.shape)
    if draw(st.booleans()):
        grids = make_pyramid(rng, dim=dim)
    else:
        grids = [rng.normal(size=(draw(st.integers(0, 40)), dim)) for _ in range(2)]
    return modules, grids


def array_bytes(modules, grids, folds=()):
    layers = grids.layers if isinstance(grids, FeaturePyramid) else grids
    return ([g.tobytes() for g in layers]
            + [getattr(p, name).tobytes() for m in modules for p in m.layers
               for name in TRAINED_FIELDS + ("running_mean", "running_var")]
            + [a.tobytes() for _, layers in folds for arrays in layers for a in arrays])


class TestFoldedScorer:
    """`project` and `ood_score_map` run on folds that take the
    running-statistics batchnorm into the first affine map; they must give
    the unfolded projection's rows and scores up to rounding, and write to
    none of their caller's arrays, so that one set of folds scores every
    scene of an infer call alike.

    ATOL bounds both: a unit vector's components and a cosine lie in
    [-1, 1], and the fold reorders a handful of float64 operations per
    component (at most 2.7e-15 apart, rows and scores, in a 2,000-case
    probe), so 1e-12 leaves two orders of headroom and still catches any
    change of formula."""

    ATOL = 1e-12

    @given(case=scoring_case())
    @settings(max_examples=200, deadline=None)
    def test_matches_unfolded_reference(self, case):
        modules, grids = case
        got = ood_score_map(fold_modules(modules), grids)
        want = unfolded_ood_score_map(modules, grids)
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=self.ATOL)

    @given(case=scoring_case())
    @settings(max_examples=200, deadline=None)
    def test_project_matches_unfolded_reference(self, case):
        modules, grids = case
        for module in modules:
            before = array_bytes([module], grids)
            got = project(module, grids)
            assert array_bytes([module], grids) == before
            want = unfolded_project(module, grids)
            assert [g.shape for g in got] == [w.shape for w in want]
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=self.ATOL)

    @given(case=scoring_case())
    @settings(max_examples=50, deadline=None)
    def test_leaves_grids_and_modules_unchanged(self, case):
        modules, grids = case
        before = array_bytes(modules, grids)
        folds = fold_modules(modules)
        assert array_bytes(modules, grids) == before
        before = array_bytes(modules, grids, folds)
        first = ood_score_map(folds, grids)
        assert array_bytes(modules, grids, folds) == before
        again = ood_score_map(folds, grids)
        assert [a.tobytes() for a in again] == [f.tobytes() for f in first]

    @staticmethod
    def collapsed_case(collapsed_first):
        """Two modules, one of whose second affine maps is zero, so it
        projects every row to the zero vector, and a pyramid."""
        rng = np.random.default_rng(0)
        modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(2)]
        for p in modules[0 if collapsed_first else 1].layers:
            p.w2 = np.zeros_like(p.w2)
            p.b2 = np.zeros_like(p.b2)
        return modules, make_pyramid(rng)

    @pytest.mark.parametrize("collapsed_first", [True, False])
    def test_collapsed_module_is_degenerate(self, collapsed_first):
        modules, pyr = self.collapsed_case(collapsed_first)
        with pytest.raises(DegenerateProjection, match="collapsed to zero norm at layer 0"):
            ood_score_map(fold_modules(modules), pyr)

    def test_no_folds(self):
        with pytest.raises(NoModules):
            ood_score_map(fold_modules([]), make_pyramid(np.random.default_rng(0)))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        folds = fold_modules([init_module(0, 1, dim=8, num_layers=2, rng=rng)])
        with pytest.raises(ShapeMismatch, match="expects 2 layers"):
            ood_score_map(folds, [rng.normal(size=(4, 4, 8))])
        with pytest.raises(ShapeMismatch, match="expects dim 8"):
            ood_score_map(folds, [rng.normal(size=(4, 4, 8)), rng.normal(size=(3, 5))])

    def test_zero_anchor_of_a_normalizing_module_cannot_fold(self):
        rng = np.random.default_rng(4)
        module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
        module.layers[0].anchor = np.zeros_like(module.layers[0].anchor)
        with pytest.raises(ZeroVector, match="anchor of layer 0 has zero norm"):
            fold_modules([module])


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


class TestCheckpoint:
    def test_round_trip_reproduces_infer_outputs_bit_identically(self, tmp_path):
        import json
        rng = np.random.default_rng(0)
        # trained and unfrozen when saved, frozen when loaded
        module = init_module(3, 2, dim=8, num_layers=2, rng=rng)
        pyr = make_pyramid(np.random.default_rng(1))
        before = project(module, pyr)
        payload = module_to_payload(module)
        path = tmp_path / "module.json"
        path.write_text(json.dumps(payload))
        restored = module_from_payload(json.loads(path.read_text()))
        after = project(restored, pyr)
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()
        assert restored.frozen and restored.task_id == 2 and restored.class_id == 3

    # finite float64 bit patterns a text encoding could lose: -0.0, the
    # smallest and largest subnormals and the largest finite magnitude (a
    # module file holding a non-finite value is rejected; see
    # `test_non_finite_value_is_a_parse_error`)
    EDGES = [-0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
             -1.7976931348623157e308]

    @staticmethod
    def round_trip(tmp_path, module):
        path = tmp_path / "class_000.json"
        write_json(path, module_to_payload(module))
        return read_json(path, "checkpoint file", module_from_payload)

    @given(seed=st.integers(0, 2**32 - 1), num_layers=st.integers(1, 3),
           dim=st.sampled_from([2, 5, 8]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, seed, num_layers, dim, data):
        module = init_module(0, 1, dim=dim, num_layers=num_layers,
                             rng=np.random.default_rng(seed))
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                                     allow_subnormal=True), st.sampled_from(self.EDGES))
        for layer in module.layers:
            for name in TRAINED_FIELDS + ("running_mean", "running_var"):
                a = getattr(layer, name)
                drawn = data.draw(st.lists(
                    values.filter(lambda v: not v < 0.0) if name == "running_var" else values,
                    min_size=a.size, max_size=a.size))
                setattr(layer, name, np.array(drawn, dtype=np.float64).reshape(a.shape))
        with np.errstate(over="ignore"):
            zero_anchor = min(np.linalg.norm(p.anchor) for p in module.layers) < 1e-12
        if zero_anchor:
            # a zero anchor has no unit direction to score against
            with pytest.raises(ParseError, match="anchor of layer [0-9] has zero norm"):
                self.round_trip(tmp_path_factory.mktemp("module"), module)
            return
        restored = self.round_trip(tmp_path_factory.mktemp("module"), module)
        for before, after in zip(module.layers, restored.layers):
            for name, a in vars(before).items():
                b = getattr(after, name)
                assert b.shape == a.shape and b.tobytes() == a.tobytes(), name
                assert b.dtype == np.float64 and b.dtype.isnative and b.flags.writeable

    NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]

    @pytest.mark.parametrize("name", TRAINED_FIELDS + ("running_mean", "running_var"))
    @pytest.mark.parametrize("value", [math.nan, NAN_WITH_PAYLOAD, math.inf, -math.inf],
                             ids=["nan", "nan-payload", "inf", "-inf"])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, name, value):
        module = init_module(0, 1, dim=4, num_layers=2, rng=np.random.default_rng(0))
        getattr(module.layers[1], name).flat[-1] = value
        path = tmp_path / "class_000.json"
        write_json(path, module_to_payload(module))
        with pytest.raises(ParseError) as err:
            read_json(path, "checkpoint file", module_from_payload)
        assert f"layer 1 field {name} holds a non-finite value" in str(err.value)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("value", [-5e-324, -1e-12, -1.0])
    def test_negative_running_variance_is_a_parse_error(self, tmp_path, value):
        module = init_module(0, 1, dim=4, num_layers=2, rng=np.random.default_rng(0))
        module.layers[0].running_var[2] = value
        path = tmp_path / "class_000.json"
        write_json(path, module_to_payload(module))
        with pytest.raises(ParseError) as err:
            read_json(path, "checkpoint file", module_from_payload)
        assert "layer 0 field running_var holds a negative variance" in str(err.value)
        assert err.value.path == str(path)

    def test_zero_running_variance_loads(self, tmp_path):
        module = init_module(0, 1, dim=4, num_layers=1, rng=np.random.default_rng(0))
        module.layers[0].running_var[:2] = (0.0, -0.0)
        restored = self.round_trip(tmp_path, module)
        assert restored.layers[0].running_var.tobytes() == module.layers[0].running_var.tobytes()

    @pytest.mark.parametrize("layer", [0, 1])
    def test_zero_anchor_of_a_normalizing_module(self, tmp_path, layer):
        module = init_module(0, 1, dim=4, num_layers=2, rng=np.random.default_rng(0))
        module.layers[layer].anchor[:] = (5e-324, -0.0)
        path = tmp_path / "class_000.json"
        write_json(path, module_to_payload(module))
        with pytest.raises(ParseError) as err:
            read_json(path, "checkpoint file", module_from_payload)
        assert f"anchor of layer {layer} has zero norm" in str(err.value)
        assert err.value.path == str(path)

    def test_format_1_is_rejected(self, tmp_path):
        # format 1 stored arrays as JSON lists; formats 2 to 4 stored them as
        # format 5 does, beside flags that format 5 no longer has: format 2 a
        # `normalize` flag, format 3 a `share_anchor` flag and formats 2 to 4
        # a `frozen` flag (format 5 modules are all frozen)
        module = init_module(0, 1, dim=4, num_layers=1, rng=np.random.default_rng(0))
        old = module_to_payload(module) | {"format": 1}
        old["layers"] = [{name: getattr(layer, name).tolist() for name in rec}
                         for layer, rec in zip(module.layers, old["layers"])]
        for fmt, payload in (
                (1, old),
                (2, module_to_payload(module) | {"format": 2, "normalize": True}),
                (3, module_to_payload(module) | {"format": 3, "share_anchor": False}),
                (4, module_to_payload(module) | {"format": 4, "frozen": True})):
            with pytest.raises(ParseError, match=f"unsupported module checkpoint format {fmt}"):
                module_from_payload(payload)

    @pytest.mark.parametrize("layer, name, edit, message", [
        (0, "w1", lambda r: r | {"shape": [2, 8]}, "layer 0 fields w1 [2, 8] and w2 [4, 2]"),
        (1, "b1", lambda r: r | {"shape": [2, 2]}, "layer 1 field b1 has shape [2, 2], not [4]"),
        (1, "w2", lambda r: r | {"shape": [2, 4]}, "layer 1 field w2 has shape [2, 4], not [4, 2]"),
        (0, "anchor", lambda r: r | {"shape": [-2]}, "layer 0 field anchor: bad shape [-2]"),
        (0, "gamma", lambda r: r | {"data": base64.b64encode(bytes(24)).decode()},
         "layer 0 field gamma: 24 bytes of data, but shape [4] holds 32"),
        (1, "running_var", lambda r: r | {"data": "!" + r["data"][1:]},
         "layer 1 field running_var: bad base64 data"),
        (0, "beta", lambda r: r | {"data": r["data"][:-1]}, "layer 0 field beta: bad base64 data"),
        (0, "b2", lambda r: r | {"data": 7}, "layer 0 field b2: bad base64 data"),
    ], ids=["w1-shape", "vector-shape", "later-layer-shape", "negative-shape", "short-data",
            "bad-character", "bad-padding", "data-not-text"])
    def test_bad_array_is_a_parse_error(self, tmp_path, layer, name, edit, message):
        module = init_module(0, 1, dim=4, num_layers=2, rng=np.random.default_rng(0))
        path = tmp_path / "class_000.json"
        write_json(path, module_to_payload(module))
        payload = json.loads(path.read_text())
        payload["layers"][layer][name] = edit(payload["layers"][layer][name])
        write_json(path, payload)
        with pytest.raises(ParseError) as err:
            read_json(path, "checkpoint file", module_from_payload)
        assert message in str(err.value)
        assert err.value.path == str(path)

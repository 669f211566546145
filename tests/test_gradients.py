"""Finite-difference oracles for every analytic gradient in the package."""

import numpy as np
import pytest

from openworld_kit.mscal import (
    batch_moments,
    init_module,
    mscal_loss_gradients,
)
from openworld_kit.training import detection_loss

from gradcheck_support import H, build_instance, check_gradient, sweep_module
from oracles import (
    assignment_from_masks,
    full_grid_loss_gradients,
    oracle_all_class_detection_loss,
    out_dim,
    train_project,
)


def loss_and_gradients(module, grids, assignment):
    """(loss, gradients) from the moment step, then from the full-grid
    oracle."""
    loss, grads, _ = mscal_loss_gradients(module, grids, assignment, batch_moments(grids))
    yield loss, grads
    _, traces = train_project(module, grids, with_trace=True)
    yield full_grid_loss_gradients(module, traces, assignment)


@pytest.mark.parametrize("seed", range(5))
def test_contrastive_loss_gradients_match_central_differences(seed):
    modules, grids, assignments = build_instance(seed)
    module = modules[seed % len(modules)]
    assignment = assignments[seed % len(assignments)]
    failures, checked = sweep_module(module, grids, assignment)
    # 2 layers x (64 + 8 + 8 + 8 + 32 + 4 + 4) parameters
    assert checked == 256
    assert not failures, failures[:5]


def test_single_positive_has_zero_anchor_gradient():
    rng = np.random.default_rng(0)
    module = init_module(0, 1, dim=8, num_layers=1, rng=rng)
    grids = [rng.normal(size=(3, 3, 8))]
    pos = [np.zeros((3, 3), dtype=bool)]
    pos[0][1, 1] = True
    assignment = assignment_from_masks(pos, [np.zeros((3, 3), dtype=bool)])
    for loss, grads in loss_and_gradients(module, grids, assignment):
        assert abs(loss) < 1e-12
        assert np.abs(grads[0]["anchor"]).max() < 1e-12


def test_doubling_tau_halves_logit_gap_and_keeps_anchor_direction():
    def build(tau):
        return init_module(0, 1, dim=6, num_layers=1,
                           rng=np.random.default_rng(1), tau=tau)

    grids = [np.random.default_rng(2).normal(size=(2, 2, 6))]
    pos = [np.array([[True, False], [False, False]])]
    neg = [np.array([[False, True], [False, False]])]
    assignment = assignment_from_masks(pos, neg)

    gaps = {}
    directions = {}
    for tau in (0.2, 0.4):
        module = build(tau)
        projected = train_project(module, grids)
        mu = module.effective_anchor(0)
        flat = projected[0].reshape(-1, out_dim(module))
        logits = flat[:2] @ mu / tau
        gaps[tau] = logits[0] - logits[1]
        directions[tau] = [g[0]["anchor"] / np.linalg.norm(g[0]["anchor"])
                           for _, g in loss_and_gradients(module, grids, assignment)]
    assert gaps[0.4] == pytest.approx(gaps[0.2] / 2, rel=1e-12)
    for a, b in zip(directions[0.2], directions[0.4]):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_frozen_embedding_rows_receive_zero_gradient():
    rng = np.random.default_rng(3)
    grids = [rng.normal(size=(2, 3, 3, 6))]
    emb = rng.normal(size=(2, 6))
    pos = [rng.random((2, 3, 3)) < 0.3]
    neg = [(rng.random((2, 3, 3)) < 0.3) & ~pos[0]]
    assignments = [assignment_from_masks(pos, neg) for _ in range(2)]
    # the frozen class 1 is not scored: its pairs count only in the divisor,
    # and the trained row gets the gradient the all-class loss gives it
    total = sum(idx.size for a in assignments for idx in a.index)
    _, grads = detection_loss(grids, emb[:1], assignments[:1], 10.0, total)
    _, want, _ = oracle_all_class_detection_loss(grids, emb, np.array([True, False]),
                                                 assignments, 10.0)
    assert np.abs(want[1]).max() == 0.0
    assert grads.shape == (1, 6)
    assert grads[0].tobytes() == want[0].tobytes()
    assert np.abs(grads[0]).max() > 0.0


@pytest.mark.parametrize("seed", range(3))
def test_detection_loss_gradients_match_central_differences(seed):
    rng = np.random.default_rng(100 + seed)
    grids = [rng.normal(size=(2, 4, 4, 8)), rng.normal(size=(2, 2, 2, 8))]
    n_classes = 3
    emb = rng.normal(size=(n_classes, 8))
    assignments = []
    for _ in range(n_classes):
        pos = [rng.random((2, 4, 4)) < 0.15, rng.random((2, 2, 2)) < 0.15]
        neg = [(rng.random(m.shape) < 0.25) & ~m for m in pos]
        assignments.append(assignment_from_masks(pos, neg))
    # 17 pairs of classes not scored here (frozen ones) join the divisor
    total = sum(idx.size for a in assignments for idx in a.index) + 17

    _, grads = detection_loss(grids, emb, assignments, 10.0, total)
    for i in range(n_classes):
        for k in range(8):
            orig = emb[i, k]
            emb[i, k] = orig + H
            up, _ = detection_loss(grids, emb, assignments, 10.0, total)
            emb[i, k] = orig - H
            down, _ = detection_loss(grids, emb, assignments, 10.0, total)
            emb[i, k] = orig
            numeric = (up - down) / (2 * H)
            assert check_gradient(grads[i, k], numeric), (i, k, grads[i, k], numeric)

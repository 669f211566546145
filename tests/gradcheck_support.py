"""Central-difference gradient checking shared by the unit and acceptance tests."""

import numpy as np

from openworld_kit.mscal import (
    batch_moments,
    init_module,
    mscal_loss,
    mscal_loss_gradients,
)

from oracles import assignment_from_masks, train_project

H = 1e-5
REL_TOL = 1e-4
# a central difference of an exactly-flat parameter measures only float
# cancellation noise (~eps*|loss|/h); treat those as matching zeros
NOISE_FLOOR = 1e-9

PARAM_NAMES = ("w1", "b1", "gamma", "beta", "w2", "b2", "anchor")


def build_instance(seed, dim=8, n_classes=3, grids_hw=((4, 4), (4, 4))):
    """Small train-mode instance with no activation near the ReLU kink."""
    for attempt in range(50):
        rng = np.random.default_rng((seed + 1) * 1000 + attempt)
        modules = [init_module(i, 1, dim=dim, num_layers=len(grids_hw), rng=rng)
                   for i in range(n_classes)]
        grids = [rng.normal(size=hw + (dim,)) for hw in grids_hw]
        assignments = []
        for i in range(n_classes):
            pos = [np.zeros(hw, dtype=bool) for hw in grids_hw]
            neg = [np.zeros(hw, dtype=bool) for hw in grids_hw]
            for j, hw in enumerate(grids_hw):
                flat = rng.permutation(hw[0] * hw[1])
                for k in flat[:2]:
                    pos[j][k // hw[1], k % hw[1]] = True
                for k in flat[2:5]:
                    neg[j][k // hw[1], k % hw[1]] = True
            assignments.append(assignment_from_masks(pos, neg))
        ok = True
        for module in modules:
            _, traces = train_project(module, grids, with_trace=True)
            for params, trace in zip(module.layers, traces):
                y = params.gamma * trace["x_hat"] + params.beta
                if np.abs(y).min() < 1e-3:
                    ok = False
        if ok:
            return modules, grids, assignments
    raise RuntimeError("could not build a kink-free instance")


def check_gradient(analytic, numeric):
    rel = abs(analytic - numeric) / max(1e-8, abs(numeric))
    return rel <= REL_TOL or abs(analytic - numeric) <= NOISE_FLOOR


def sweep_module(module, grids, assignment):
    """Check every parameter of one module; returns (failures, count).

    The analytic gradients come from the moment step on the sampled rows;
    the loss it differentiates is the full-grid train-mode loss, batchnorm
    statistics over every row."""

    def loss_value():
        return mscal_loss(module, train_project(module, grids), assignment)

    _, grads, _ = mscal_loss_gradients(module, grids, assignment, batch_moments(grids))
    failures = []
    checked = 0
    for layer_idx, params in enumerate(module.layers):
        for name in PARAM_NAMES:
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + H
                up = loss_value()
                flat[k] = orig - H
                down = loss_value()
                flat[k] = orig
                numeric = (up - down) / (2 * H)
                analytic = grads[layer_idx][name].reshape(-1)[k]
                checked += 1
                if not check_gradient(analytic, numeric):
                    failures.append((layer_idx, name, k, analytic, numeric))
    return failures, checked


def run_full_gradcheck(seeds=range(5)):
    """All parameters of one module per seeded instance."""
    failures = []
    checked = 0
    for seed in seeds:
        modules, grids, assignments = build_instance(seed)
        module = modules[seed % len(modules)]
        assignment = assignments[seed % len(assignments)]
        bad, count = sweep_module(module, grids, assignment)
        failures.extend(bad)
        checked += count
    return failures, checked

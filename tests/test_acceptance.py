"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic end-to-end
criteria share one full default-configuration pipeline run (seed 0).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from openworld_kit import cli
from openworld_kit.embedding_space import (
    ClassEmbeddingRegistry,
    ClassEntry,
    mean_known_embedding,
    pseudo_unknown_embedding,
)
from openworld_kit.mscal import (
    anchor_similarity_maps,
    init_module,
    mscal_loss,
    project,
)
from openworld_kit.owod_eval import (
    a_ose,
    average_precision,
    class_average_precision,
    u_recall,
    wilderness_impact,
)
from openworld_kit.synthetic_world import (
    KIND_FOOD,
    KIND_KNOWN,
    WorldSpec,
    load_split,
    load_world,
    make_world,
)
from openworld_kit.training import detection_loss, load_checkpoint

from criteria_log import record as report_line
from gradcheck_support import run_full_gradcheck
from oracles import (
    KNOWN,
    assign_samples,
    assignment_from_masks,
    cell_box,
    det,
    gt,
    mscal_total_loss,
    oracle_a_ose,
    oracle_class_ap,
    oracle_u_recall,
    oracle_wi,
    out_dim,
    overlaps_of,
    random_instance,
)


# ---------------------------------------------------------------------------
# shared full-default pipeline run (seed 0)


class FullRun:
    def __init__(self, base: Path):
        self.base = base
        self.out = base / "out"
        self.reports = {}
        self.elapsed = None

    def checkpoint(self, task):
        return self.out / "checkpoints" / f"task_{task}"

    def detections(self, arm):
        suffix = {"full": "", "mscal_only": "_noowel", "owel_only": "_nomscal",
                  "base": "_noowel_nomscal"}[arm]
        return self.out / "detections" / f"task3_test{suffix}.jsonl"


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    run = FullRun(base)
    out = str(run.out)
    t0 = time.perf_counter()
    assert cli.main(["gen", "--seed", "0", "--out", out]) == 0
    for task in (1, 2, 3):
        assert cli.main(["train", "--seed", "0", "--out", out, "--task", str(task)]) == 0
    arms = {
        "full": [],
        "mscal_only": ["--no-owel"],
        "owel_only": ["--no-mscal"],
        "base": ["--no-owel", "--no-mscal"],
    }
    for arm, flags in arms.items():
        assert cli.main(["infer", "--seed", "0", "--out", out, "--task", "3",
                         "--split", "test", *flags]) == 0
    run.elapsed = time.perf_counter() - t0
    for arm in arms:
        report_path = base / f"report_{arm}.json"
        assert cli.main(["eval", "--seed", "0", "--out", out, "--task", "3",
                         "--detections", str(run.detections(arm)),
                         "--split", "test", "--report", str(report_path)]) == 0
        run.reports[arm] = json.loads(report_path.read_text())
    return run


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    failures, checked = run_full_gradcheck(seeds=range(5))

    # detection-loss gradients on the same small scale
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        grids = [rng.normal(size=(4, 4, 8)), rng.normal(size=(4, 4, 8))]
        emb = rng.normal(size=(3, 8))
        assignments = []
        for _ in range(3):
            pos = [rng.random((4, 4)) < 0.15 for _ in range(2)]
            neg = [(rng.random((4, 4)) < 0.25) & ~m for m in pos]
            assignments.append(assignment_from_masks(pos, neg))
        _, grads = detection_loss(grids, emb, np.array([True] * 3), assignments, 10.0)
        h = 1e-5
        for i in range(3):
            for k in range(8):
                orig = emb[i, k]
                emb[i, k] = orig + h
                up, _ = detection_loss(grids, emb, np.array([True] * 3), assignments, 10.0)
                emb[i, k] = orig - h
                down, _ = detection_loss(grids, emb, np.array([True] * 3), assignments, 10.0)
                emb[i, k] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(grads[i, k] - numeric) / max(1e-8, abs(numeric))
                checked += 1
                if rel > 1e-4 and abs(grads[i, k] - numeric) > 1e-9:
                    failures.append(("emb", i, k, grads[i, k], numeric))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report_line("1", ok, f"{checked} parameters checked, rel err <= 1e-4, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: closed forms of the contrastive loss


def test_criterion_2_closed_forms():
    rng = np.random.default_rng(0)
    module = init_module(0, 1, dim=8, num_layers=2, rng=rng)
    projected = [rng.normal(size=(4, 4, out_dim(module))),
                 rng.normal(size=(2, 2, out_dim(module)))]
    projected = [p / np.linalg.norm(p, axis=-1, keepdims=True) for p in projected]

    pos = [np.zeros((4, 4), dtype=bool), np.zeros((2, 2), dtype=bool)]
    neg = [np.zeros((4, 4), dtype=bool), np.zeros((2, 2), dtype=bool)]
    pos[0][0, 0] = True
    single = mscal_loss(module, projected, assignment_from_masks(pos, neg))

    neg[0][0, 1] = True
    projected[0][0, 1] = projected[0][0, 0]
    pair = mscal_loss(module, projected, assignment_from_masks(pos, neg))

    # the all-classes loss equals the componentwise mean of per-class losses
    from openworld_kit.pyramid import FeaturePyramid, LayerGeometry, PyramidGeometry
    from openworld_kit.seeding import derive_seed
    rng2 = np.random.default_rng(1)
    geo = PyramidGeometry(layers=(LayerGeometry(4, 4, 8.0), LayerGeometry(2, 2, 16.0)),
                          level_thresholds=(0.0, 16.0, float("inf")))
    layers = tuple(rng2.normal(size=(g.height, g.width, 8)) for g in geo.layers)
    cells = tuple(np.stack([[cell_box(g, r, c) for c in range(g.width)]
                            for r in range(g.height)]) for g in geo.layers)
    pyramid = FeaturePyramid(geometry=geo, layers=layers, box_field=cells)
    gt_boxes = [((0.0, 0.0, 14.0, 14.0), 0), ((16.0, 0.0, 30.0, 14.0), 1),
                ((0.0, 16.0, 14.0, 30.0), 2)]
    modules = [init_module(i, 1, dim=8, num_layers=2, rng=rng) for i in range(3)]
    total = mscal_total_loss(modules, pyramid, gt_boxes, neg_cap=10, rng_seed=7)
    parts = []
    for m in modules:
        assignment = assign_samples(geo, gt_boxes, m.class_id, 10,
                                    np.random.default_rng(
                                        derive_seed(7, "assign-scene", m.class_id)))
        proj = project(m, pyramid, mode="train")
        parts.append(mscal_loss(m, proj, assignment))
    mean_matches = abs(total - sum(parts) / 3) < 1e-12

    ok = abs(single) < 1e-12 and abs(pair - math.log(2)) < 1e-9 and mean_matches
    report_line("2", ok, f"single-positive {single:.2e}, two-way {pair:.12f} vs ln2, "
                         f"mean decomposition 1e-12")
    assert abs(single) < 1e-12
    assert abs(pair - math.log(2)) < 1e-9
    assert mean_matches


# ---------------------------------------------------------------------------
# criterion 3: metric oracle equivalence


def test_criterion_3_metric_oracles():
    mismatches = 0
    for seed in range(100):
        dets, gts = random_instance(seed)
        for name in KNOWN:
            if class_average_precision(overlaps_of(dets, gts), name) != \
                    oracle_class_ap(dets, gts, name, 0.5):
                mismatches += 1
        if u_recall(overlaps_of(dets, gts), KNOWN) != oracle_u_recall(dets, gts, KNOWN):
            mismatches += 1
        if a_ose(overlaps_of(dets, gts), KNOWN) != oracle_a_ose(dets, gts, KNOWN):
            mismatches += 1
        try:
            want = oracle_wi(dets, gts, KNOWN)
        except Exception:
            want = None
        try:
            got = wilderness_impact(overlaps_of(dets, gts), KNOWN)
        except Exception:
            got = None
        if got != want:
            mismatches += 1

    # ranked flags True, False, True, False, True: true positives at 0, 2, 4
    ap = average_precision([0, 2, 4], 3)
    ap_expected = (1.0 / 3) + (2 / 3 / 3) + (3 / 5 / 3)
    ap_ok = abs(ap - ap_expected) < 1e-12

    gts = [gt("s", (i * 10, 0, i * 10 + 5, 5), "car") for i in range(11)]
    gts += [gt("s", (i * 10, 20, i * 10 + 5, 25), "mystery") for i in range(5)]
    dets = [det("s", (i * 10, 20, i * 10 + 5, 25), "car", 0.99 - i * 0.001)
            for i in range(5)]
    dets.append(det("s", (200, 200, 205, 205), "car", 0.95))
    dets += [det("s", (i * 10, 0, i * 10 + 5, 5), "car", 0.9 - i * 0.001)
             for i in range(9)]
    wi = wilderness_impact(overlaps_of(dets, gts), KNOWN)
    wi_ok = abs(wi - 0.5) < 1e-12

    ok = mismatches == 0 and ap_ok and wi_ok
    report_line("3", ok, f"100 instances exact, AP hand value {ap:.12f}, WI {wi:.12f}")
    assert mismatches == 0
    assert ap_ok
    assert wi_ok


# ---------------------------------------------------------------------------
# criterion 4: embedding-space algebra plus the alpha sweep


def test_criterion_4_embedding_algebra(full_run):
    rng = np.random.default_rng(0)
    embs = rng.normal(size=(6, 16))
    scales = rng.uniform(0.2, 30.0, size=6)
    generic = rng.normal(size=16)

    def registry(vectors, alpha):
        entries = tuple(ClassEntry(name=f"c{i}", embedding=v, task_id=1, frozen=False)
                        for i, v in enumerate(vectors))
        return ClassEmbeddingRegistry(entries=entries, generic_object=generic, alpha=alpha)

    scale_ok = bool(np.all(np.abs(
        mean_known_embedding(registry(embs, 0.4))
        - mean_known_embedding(registry(embs * scales[:, None], 0.4))) < 1e-12))
    identity_ok = np.array_equal(
        pseudo_unknown_embedding(registry(embs, 0.0)), generic)

    code = cli.main(["ablate", "--seed", "0", "--out", str(full_run.out),
                     "--task", "3", "--parameter", "alpha",
                     "--values", "0.2,0.4,0.8"])
    sweep_ok = code == 0
    finite_ok = True
    for value in ("0.2", "0.4", "0.8"):
        path = full_run.out / "reports" / "ablate_alpha" / f"{value}_report.json"
        report = json.loads(path.read_text())
        for key in ("map_both", "u_recall", "wi", "a_ose"):
            if report[key] is not None and not np.isfinite(report[key]):
                finite_ok = False

    ok = scale_ok and identity_ok and sweep_ok and finite_ok
    report_line("4", ok, "scale invariance 1e-12, alpha-0 identity exact, "
                         "sweep {0.2,0.4,0.8} finite")
    assert scale_ok and identity_ok and sweep_ok and finite_ok


# ---------------------------------------------------------------------------
# criterion 5: synthetic end-to-end, default spec, seed 0


def test_criterion_5_runtime(full_run):
    ok = full_run.elapsed < 300.0
    report_line("5-runtime", ok, f"pipeline took {full_run.elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_5a_unknown_recall(full_run):
    value = full_run.reports["full"]["u_recall"]
    ok = value is not None and value >= 0.75
    report_line("5a", ok, f"full-method U-Recall {value:.4f} >= 0.75")
    assert ok


def test_criterion_5b_open_set_error_halved(full_run):
    with_gate = full_run.reports["full"]["a_ose"]
    without = full_run.reports["owel_only"]["a_ose"]
    ok = with_gate <= 0.5 * without
    report_line("5b", ok, f"A-OSE {with_gate} (gated) vs {without} (ungated)")
    assert ok


def test_criterion_5c_gate_costs_at_most_two_map_points(full_run):
    gated = full_run.reports["full"]["map_both"]
    ungated = full_run.reports["owel_only"]["map_both"]
    drop = ungated - gated
    ok = drop <= 0.02
    report_line("5c", ok, f"mAP drop from gate {drop * 100:.2f} points <= 2")
    assert ok


def test_criterion_5d_complementarity(full_run):
    full = full_run.reports["full"]["u_recall"]
    owel_only = full_run.reports["owel_only"]["u_recall"]
    mscal_only = full_run.reports["mscal_only"]["u_recall"]
    beats_owel = full > owel_only
    beats_mscal = full > mscal_only
    report_line("5d", beats_owel and beats_mscal,
                f"full {full:.4f} vs owel-only {owel_only:.4f} "
                f"vs mscal-only {mscal_only:.4f}")
    assert beats_owel, "full method must strictly exceed the gate-free arm"
    # Known red: the relabeling gate plus the always-firing generic-prompt row
    # make the mscal-only arm's unknown coverage a superset of the full
    # method's, so strict dominance over it is unattainable in this design
    # (see the decisions ledger for the argument).
    assert beats_mscal, "structurally tied: gate coverage subsumes the prompt row"


# ---------------------------------------------------------------------------
# criterion 6: pseudo-unknown geometry across 20 world seeds


def test_criterion_6_pseudo_unknown_geometry():
    spec = WorldSpec()
    wins = 0
    total = 0
    for seed in range(20):
        world = make_world(spec, seed)
        knowns = [c for c in world.classes if c.kind == KIND_KNOWN]
        foods = [c for c in world.classes if c.kind == KIND_FOOD]
        text = np.stack([world.text_embeddings[c.name] for c in knowns])
        mean = text.mean(axis=0)
        shifted = world.generic_object - 0.4 * mean / np.linalg.norm(mean)
        shifted /= np.linalg.norm(shifted)
        best_known = max(float(shifted @ t) for t in text)
        for food in foods:
            total += 1
            wins += float(shifted @ food.prototype) > best_known
    fraction = wins / total
    ok = fraction >= 0.9
    report_line("6", ok, f"{wins}/{total} far-OOD prototypes beat every known "
                         f"embedding ({fraction:.2f} >= 0.90)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: incremental invariance


def test_training_loss_decreases_pinned_ratio(full_run):
    """Regression on the deterministic seed-0 run: smoothed combined loss at
    the end of task 1 sits at or below the pinned fraction of its start."""
    import csv
    with open(full_run.checkpoint(1) / "train_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    early = sum(float(r["total"]) for r in rows[:50]) / 50
    late = sum(float(r["total"]) for r in rows[-50:]) / 50
    ratio = late / early
    # measured 0.9432 on the seed-0 default run; the contrastive term's
    # log-positive-count floor bounds how far the total can fall
    ok = ratio <= 0.96
    report_line("train-loss", ok, f"late/early smoothed loss ratio {ratio:.4f} <= 0.96")
    assert ok


def test_criterion_7_incremental_invariance(full_run):
    ok = True
    for cid in range(5):  # the five task-1 classes
        name = f"class_{cid:03d}.json"
        ref = (full_run.checkpoint(1) / "modules" / name).read_bytes()
        for task in (2, 3):
            if (full_run.checkpoint(task) / "modules" / name).read_bytes() != ref:
                ok = False
    reg1 = json.loads((full_run.checkpoint(1) / "registry.json").read_text())
    for task in (2, 3):
        reg = json.loads((full_run.checkpoint(task) / "registry.json").read_text())
        for e1, e2 in zip(reg1["entries"], reg["entries"]):
            if e1["embedding"] != e2["embedding"] or e1["name"] != e2["name"]:
                ok = False

    world = load_world(full_run.out / "world")
    scene = load_split(world, "test", full_run.out / "world")[0]
    _, modules1, _ = load_checkpoint(full_run.checkpoint(1))
    _, modules3, _ = load_checkpoint(full_run.checkpoint(3))
    for m1 in modules1:
        m3 = next(m for m in modules3 if m.class_id == m1.class_id)
        for a, b in zip(anchor_similarity_maps(m1, scene.pyramid),
                        anchor_similarity_maps(m3, scene.pyramid)):
            if a.tobytes() != b.tobytes():
                ok = False
    report_line("7", ok, "task-1 embeddings, module files, and frozen score maps "
                         "bit-identical across tasks 2 and 3")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: full-pipeline determinism (reduced size, 3 tasks)

SMALL_INI = """
[world]
dim = 8
known_per_task = 2,2,2
n_nood = 1
n_food = 0
known_angle_range = 0.7,1.1
pyramid_layers = 8x8x16,4x4x32
level_thresholds = 0,64
box_size_ranges = 20-56,72-120
boxes_per_scene = 2,4
scenes_per_split = train:6,cal:3,test:4

[train]
steps_per_task = 5
batch_size = 2
"""


def _run_small_pipeline(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    (root / "small.ini").write_text(SMALL_INI)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert cli.main(["gen", "--config", "small.ini", "--seed", "3",
                         "--out", "out"]) == 0
        for task in (1, 2, 3):
            assert cli.main(["train", "--config", "small.ini", "--seed", "3",
                             "--out", "out", "--task", str(task)]) == 0
        assert cli.main(["infer", "--config", "small.ini", "--seed", "3",
                         "--out", "out", "--task", "3", "--split", "test"]) == 0
        assert cli.main(["eval", "--config", "small.ini", "--seed", "3",
                         "--out", "out", "--task", "3",
                         "--detections", "out/detections/task3_test.jsonl",
                         "--split", "test"]) == 0
    finally:
        os.chdir(cwd)


def test_criterion_8_determinism(tmp_path):
    _run_small_pipeline(tmp_path / "a")
    _run_small_pipeline(tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                     if p.is_file())
    same_names = files_a == files_b
    diffs = [str(rel) for rel in files_a
             if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes()]
    ok = same_names and not diffs
    report_line("8", ok, f"{len(files_a)} files byte-identical across two runs")
    assert same_names
    assert not diffs, diffs

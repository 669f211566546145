"""Brute-force metric oracles, independent of the library implementations,
the scalar inference path (one object per candidate detection: decode, OOD
gate, greedy NMS and the json-encoder line) that the columnar path must
match, the per-scene ownership masks and mask-built assignment loop whose
flat indices the batched owner index must give, the conversions between
boolean sample masks and `SampleAssignment` indices, the full-grid
train-mode projection and backward pass that the moment step must match,
the per-scene calibration scores, the unfolded OOD score maps that the
folded scorer must match, the round-by-round scene generator and FIFO
refill queue that the block-drawn `generate_scene` must match, the
full-batch module init, whole-grid detection loss and `setdiff1d`
assignment that the moment init, sampled-row loss and mask assignment must
match, the all-class detection loss whose gradients the trained-class
loss must give, plus single-scene MSCAL references built on the library's
assignment code, and the checks of a detections file's column file (its
table against the parse's, and the ways to damage it).

Shared by the unit tests and the acceptance suite; the metric oracles are
written directly from the metric definitions with plain loops.
"""

import json
import struct
import tempfile
import zlib
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from openworld_kit.detection import (
    UNKNOWN_CLASS_ID,
    Detection,
    DetectionRecord,
    DetectionTable,
    _sigmoid,
    _stored_table,
    box_iou,
    read_detections_jsonl,
)
from openworld_kit.errors import (
    DegenerateProjection,
    InfeasibleSpec,
    NoModules,
    NoSamples,
    ShapeMismatch,
    SourceOutOfRange,
    UndefinedOperatingPoint,
)
from openworld_kit.mscal import (
    BN_EPS,
    SampleAssignment,
    _check_grids,
    _logsumexp,
    fold_modules,
    mscal_loss,
    ood_score_map,
    project,
    sampled_rows,
)
from openworld_kit.pyramid import FeaturePyramid
from openworld_kit.owod_eval import GtRecord, Overlaps, find_overlaps
from openworld_kit.seeding import derive_rng
from openworld_kit.training import (
    _assignment_for_class,
    _owned_pairs,
    _owner_index,
    _softplus,
)

KNOWN = ("car", "bus", "dog")


def det(scene, box, label, conf, ood=0.0):
    return DetectionRecord(scene_id=scene, box=tuple(float(v) for v in box),
                           label=label, confidence=float(conf), ood=ood)


def gt(scene, box, name):
    return GtRecord(scene_id=scene, box=tuple(float(v) for v in box), class_name=name)


def table_of(records):
    """The `DetectionTable` of detection records, in order."""
    return DetectionTable.from_columns(
        [r.scene_id for r in records], [r.label for r in records],
        [r.box for r in records], [r.confidence for r in records],
        [r.ood for r in records])


def overlaps_of(dets, gts, iou_thr=0.5):
    """The `Overlaps` the metrics read, from detection and GT records."""
    return find_overlaps(table_of(dets), gts, iou_thr)


def oracle_find_overlaps(dets, gts, iou_thr=0.5):
    """`find_overlaps` of a detections table and GT records by scoring every
    same-scene pair with `box_iou`, whether or not its boxes meet."""
    codes = {name: i for i, name in enumerate(dets.label_names)}
    gt_class = np.array([codes.setdefault(g.class_name, len(codes)) for g in gts],
                        dtype=np.int64)
    scenes = {name: i for i, name in enumerate(dets.scene_names)}
    gt_scene = np.array([scenes.setdefault(g.scene_id, len(scenes)) for g in gts],
                        dtype=np.int64)
    gt_boxes = np.array([g.box for g in gts], dtype=np.float64).reshape(-1, 4)

    n = len(dets)
    by_name = sorted(range(len(dets.scene_names)), key=dets.scene_names.__getitem__)
    scene_rank = np.empty(len(by_name), dtype=np.int64)
    scene_rank[by_name] = np.arange(len(by_name))
    order = np.lexsort((np.arange(n), scene_rank[dets.scenes], -dets.confidence))
    det_rank = np.empty(n, dtype=np.int64)
    det_rank[order] = np.arange(n)

    # every same-scene pair: detection i meets the boxes of its scene, which
    # sit at starts[scene]:starts[scene] + counts[scene] of `by_scene`
    by_scene = np.argsort(gt_scene, kind="stable")
    counts = np.bincount(gt_scene, minlength=len(scenes))
    starts = np.cumsum(counts) - counts
    per_det = counts[dets.scenes]
    pair_det = np.repeat(np.arange(n), per_det)
    offset = np.repeat(starts[dets.scenes] - (np.cumsum(per_det) - per_det), per_det)
    pair_gt = by_scene[offset + np.arange(len(pair_det))]

    overlap = box_iou(dets.boxes[pair_det], gt_boxes[pair_gt])
    keep = (overlap >= iou_thr) & (overlap > 0.0)
    pair_det, pair_gt, overlap = pair_det[keep], pair_gt[keep], overlap[keep]
    pair_rank = det_rank[pair_det]
    pref = np.lexsort((pair_gt, -overlap, pair_rank))
    pair_det, pair_gt, pair_rank = pair_det[pref], pair_gt[pref], pair_rank[pref]
    return Overlaps(codes=codes, det_label=dets.labels, det_rank=det_rank,
                    gt_class=gt_class, pair_rank=pair_rank, pair_gt=pair_gt,
                    pair_label=dets.labels[pair_det], pair_class=gt_class[pair_gt])


def _nan_min(x, y):
    return x if x != x or x < y else y      # NaN wins, as in np.minimum


def _nan_max(x, y):
    return x if x != x or x > y else y      # NaN wins, as in np.maximum


def oracle_iou(a, b):
    """IoU of one box pair by the rules of `box_iou`: a NaN coordinate makes
    its min/max NaN, a width or height that is not positive (NaN included)
    counts as 0, and the IoU is 0 wherever the intersection is not positive.
    On finite boxes these are the plain rules."""
    w = _nan_min(a[2], b[2]) - _nan_max(a[0], b[0])
    h = _nan_min(a[3], b[3]) - _nan_max(a[1], b[1])
    inter = (w if w > 0 else 0.0) * (h if h > 0 else 0.0)
    if inter <= 0:
        return 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


# ---------------------------------------------------------------------------
# the scalar inference path: one object per candidate detection


def oracle_decode(pyramid, class_scores, conf_threshold, num_known):
    """One detection per location, visited layer by layer in row-major
    order, whose argmax confidence clears the threshold."""
    dets = []
    for j, (scores, boxes) in enumerate(zip(class_scores, pyramid.box_field)):
        best_idx = np.argmax(scores, axis=-1)
        for row in range(scores.shape[0]):
            for col in range(scores.shape[1]):
                idx = int(best_idx[row, col])
                conf = float(scores[row, col, idx])
                if conf >= conf_threshold:
                    dets.append(Detection(
                        box=tuple(float(v) for v in boxes[row, col]),
                        label=idx if idx < num_known else UNKNOWN_CLASS_ID,
                        confidence=conf, source=(j, row, col)))
    return dets


def oracle_gate(dets, ood_layers, theta):
    """Per detection: read the score at its source, relabel a known
    detection scoring above `theta`."""
    out = []
    for d in dets:
        layer, row, col = d.source
        if not (0 <= layer < len(ood_layers) and 0 <= row < ood_layers[layer].shape[0]
                and 0 <= col < ood_layers[layer].shape[1]):
            raise SourceOutOfRange(f"detection source {d.source} outside map")
        score = float(ood_layers[layer][row, col])
        gated = not d.is_unknown and score > theta
        out.append(Detection(box=d.box, label=UNKNOWN_CLASS_ID if gated else d.label,
                             confidence=d.confidence, source=d.source, ood=score))
    return out


_ENCODER = json.JSONEncoder(sort_keys=True)


def oracle_format_detection_line(scene_id, d, label_names):
    """One detections-file line (without its newline) from the json encoder."""
    return _ENCODER.encode({
        "scene_id": scene_id,
        "x1": round(d.box[0], 4),
        "y1": round(d.box[1], 4),
        "x2": round(d.box[2], 4),
        "y2": round(d.box[3], 4),
        "label": "unknown" if d.is_unknown else label_names[d.label],
        "confidence": d.confidence,
        "ood": d.ood,
    })


def assert_same_table(got, want):
    """`got` equals `want` in names, codes, dtypes, shapes and bits."""
    assert (got.scene_names, got.label_names) == (want.scene_names, want.label_names)
    for name in ("scenes", "labels", "boxes", "confidence", "ood"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def parsed_table(path):
    """The table of the detections file at `path` as the parse reads it,
    from a copy that has no column file beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "copy.jsonl"
        copy.write_bytes(Path(path).read_bytes())
        return read_detections_jsonl(copy)


def stored_table(path):
    """The table of the column file beside the detections file at `path`,
    which must be whole and current."""
    table = _stored_table(path)
    assert table is not None, path
    return table


# ways to damage a column file: all but `truncated`, `flipped-byte` and
# `directory` end in a valid CRC-32, so that a check of the reader's own
# must refuse them
COLUMN_DAMAGE = ("truncated", "flipped-byte", "directory", "bad-header", "wrong-length",
                 "scene-code-out-of-range", "negative-label-code", "non-finite-confidence",
                 "non-finite-ood", "inverted-box", "overflowing-area")


def damage_column_file(path, damage):
    """Damage the column file at `path`, of a detections file of at least
    one record, as `damage` (one of `COLUMN_DAMAGE`) names; `resealed`
    rewrites its CRC-32 alone."""
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[:len(data) // 2])
        return
    if damage == "directory":
        path.unlink()
        path.mkdir()
        return
    body = bytearray(data[:-4])
    size = int.from_bytes(body[:8], "little")
    header = json.loads(body[8:8 + size])
    rows, start = header["rows"], 8 + size
    if damage == "flipped-byte":
        body[start + 16 * rows] ^= 1        # x1 of the first box
        path.write_bytes(bytes(body) + data[-4:])
        return
    if damage == "bad-header":
        body[8] = ord("[")
    elif damage == "wrong-length":
        body += bytes(8)
    elif damage == "scene-code-out-of-range":
        struct.pack_into("<q", body, start, len(header["scene_names"]))
    elif damage == "negative-label-code":
        struct.pack_into("<q", body, start + 8 * rows, -1)
    elif damage == "non-finite-confidence":
        struct.pack_into("<d", body, start + 48 * rows, float("nan"))
    elif damage == "non-finite-ood":
        struct.pack_into("<d", body, start + 56 * rows, float("inf"))
    elif damage == "inverted-box":
        struct.pack_into("<d", body, start + 16 * rows + 16, -1e300)   # x2 of the first box
    elif damage == "overflowing-area":
        # the first box from x -1e308 to x 1e308
        struct.pack_into("<dd", body, start + 16 * rows, -1e308, 0.0)
        struct.pack_into("<d", body, start + 16 * rows + 16, 1e308)
    else:
        assert damage == "resealed", damage
    path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))


def oracle_nms(dets, iou_threshold, class_wise):
    """Greedy NMS as the scalar loop over `oracle_iou`: visit by
    (-confidence, index) and keep a detection unless a kept one (of its
    label when `class_wise`) overlaps it with IoU >= the threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    kept = []
    for i in order:
        if not any(oracle_iou(dets[i].box, dets[j].box) >= iou_threshold
                   for j in kept if not class_wise or dets[j].label == dets[i].label):
            kept.append(i)
    return [dets[i] for i in kept]


def oracle_greedy_match(dets, gts, iou_thr, label_aware):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(gts)
    result = {}
    for i in order:
        best, best_iou = None, 0.0
        for g in range(len(gts)):
            if taken[g]:
                continue
            if label_aware and gts[g].class_name != dets[i].label:
                continue
            v = oracle_iou(dets[i].box, gts[g].box)
            if v >= iou_thr and v > best_iou:
                best, best_iou = g, v
        if best is not None:
            taken[best] = True
            result[i] = best
    return result


def oracle_class_ap(dets, gts, name, iou_thr):
    class_gts = {}
    for g in gts:
        if g.class_name == name:
            class_gts.setdefault(g.scene_id, []).append(g)
    n_gt = sum(len(v) for v in class_gts.values())
    indexed = [(i, d) for i, d in enumerate(dets) if d.label == name]
    indexed.sort(key=lambda p: (-p[1].confidence, p[1].scene_id, p[0]))
    if n_gt == 0:
        return 0.0 if indexed else None
    taken = {sid: [False] * len(v) for sid, v in class_gts.items()}
    tps = []
    for _, d in indexed:
        cands = class_gts.get(d.scene_id, [])
        flags = taken.get(d.scene_id, [])
        best, best_iou = None, 0.0
        for g in range(len(cands)):
            if flags[g]:
                continue
            v = oracle_iou(d.box, cands[g].box)
            if v >= iou_thr and v > best_iou:
                best, best_iou = g, v
        if best is not None:
            flags[best] = True
            tps.append(True)
        else:
            tps.append(False)
    # direct all-point integration: at each recall step take the max
    # precision at equal-or-higher recall
    tp = fp = 0
    points = []
    for flag in tps:
        tp += flag
        fp += not flag
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev = 0.0
    for idx, (r, _) in enumerate(points):
        if r > prev:
            best_p = max(p for rr, p in points[idx:])
            ap += (r - prev) * best_p
            prev = r
    return ap


def oracle_pool_cover(dets, gt_pool, iou_thr):
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i].confidence, dets[i].scene_id, i))
    taken = {sid: [False] * len(v) for sid, v in gt_pool.items()}
    covered = 0
    for i in order:
        d = dets[i]
        cands = gt_pool.get(d.scene_id, [])
        flags = taken.get(d.scene_id, [])
        best, best_iou = None, 0.0
        for g in range(len(cands)):
            if flags[g]:
                continue
            v = oracle_iou(d.box, cands[g].box)
            if v >= iou_thr and v > best_iou:
                best, best_iou = g, v
        if best is not None:
            flags[best] = True
            covered += 1
    return covered


def oracle_u_recall(dets, gts, known, iou_thr=0.5):
    unknown = [g for g in gts if g.class_name not in known]
    if not unknown:
        return None
    pool = {}
    for g in unknown:
        pool.setdefault(g.scene_id, []).append(g)
    unk_dets = [d for d in dets if d.label == "unknown"]
    return oracle_pool_cover(unk_dets, pool, iou_thr) / len(unknown)


def oracle_a_ose(dets, gts, known, iou_thr=0.5):
    unknown = [g for g in gts if g.class_name not in known]
    pool = {}
    for g in unknown:
        pool.setdefault(g.scene_id, []).append(g)
    known_dets = [d for d in dets if d.label in known]
    return oracle_pool_cover(known_dets, pool, iou_thr)


def oracle_wi(dets, gts, known, recall_level=0.8, iou_thr=0.5):
    """Naive prefix enumeration: re-run the whole classification for every
    prefix length until the recall level is reached."""
    known_gts = [g for g in gts if g.class_name in known]
    if not known_gts:
        raise UndefinedOperatingPoint("no known gt")
    indexed = [(i, d) for i, d in enumerate(dets) if d.label in known]
    indexed.sort(key=lambda p: (-p[1].confidence, p[1].scene_id, p[0]))
    ranked = [d for _, d in indexed]
    for k in range(1, len(ranked) + 1):
        prefix = ranked[:k]
        known_pool, unknown_pool = {}, {}
        for g in gts:
            pool = known_pool if g.class_name in known else unknown_pool
            pool.setdefault(g.scene_id, []).append(g)
        taken_known = {sid: [False] * len(v) for sid, v in known_pool.items()}
        taken_unknown = {sid: [False] * len(v) for sid, v in unknown_pool.items()}
        tp = fp = unk = 0
        for d in prefix:
            cands = known_pool.get(d.scene_id, [])
            flags = taken_known.get(d.scene_id, [])
            best, best_iou = None, 0.0
            for g in range(len(cands)):
                if flags[g] or cands[g].class_name != d.label:
                    continue
                v = oracle_iou(d.box, cands[g].box)
                if v >= iou_thr and v > best_iou:
                    best, best_iou = g, v
            if best is not None:
                flags[best] = True
                tp += 1
                continue
            cands = unknown_pool.get(d.scene_id, [])
            flags = taken_unknown.get(d.scene_id, [])
            best, best_iou = None, 0.0
            for g in range(len(cands)):
                if flags[g]:
                    continue
                v = oracle_iou(d.box, cands[g].box)
                if v >= iou_thr and v > best_iou:
                    best, best_iou = g, v
            if best is not None:
                flags[best] = True
                unk += 1
            else:
                fp += 1
        if tp / len(known_gts) >= recall_level:
            return (tp / (tp + fp)) / (tp / (tp + fp + unk)) - 1.0
    raise UndefinedOperatingPoint("unreachable")


def random_instance(seed):
    rng = np.random.default_rng(seed)
    scenes = [f"s{k}" for k in range(int(rng.integers(1, 3)))]
    names = list(KNOWN) + ["mystery", "anomaly"]
    gts = []
    for scene in scenes:
        for _ in range(int(rng.integers(0, 7))):
            x, y = rng.uniform(0, 30, size=2)
            w, h = rng.uniform(3, 12, size=2)
            gts.append(gt(scene, (x, y, x + w, y + h), names[int(rng.integers(len(names)))]))
    gts = gts[:6]
    dets = []
    labels = list(KNOWN) + ["unknown"]
    for scene in scenes:
        for _ in range(int(rng.integers(0, 9))):
            if gts and rng.random() < 0.6:
                base = gts[int(rng.integers(len(gts)))]
                jitter = rng.uniform(-3, 3, size=4)
                box = tuple(np.array(base.box) + jitter)
                if box[2] <= box[0] or box[3] <= box[1]:
                    continue
            else:
                x, y = rng.uniform(0, 30, size=2)
                w, h = rng.uniform(3, 12, size=2)
                box = (x, y, x + w, y + h)
            dets.append(det(scene, box, labels[int(rng.integers(len(labels)))],
                            round(float(rng.random()), 3)))
    return dets[:8], gts




# ---------------------------------------------------------------------------
# single-scene MSCAL references


def assign_samples(geometry, gt_boxes, class_id, neg_cap, rng_seed):
    """Single-scene assignment from (box, class id) pairs; `rng_seed` is an
    int seed or a Generator."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    scene = SimpleNamespace(gt=[GtRecord("scene", box, str(cls)) for box, cls in gt_boxes])
    pairs = _owned_pairs([scene], geometry, {str(cls): cls for _, cls in gt_boxes})
    # one scene: indices into its (1, H, W) batch grids are indices into (H, W)
    return _assignment_for_class(_owner_index(pairs, geometry), class_id, neg_cap, rng)


def mscal_total_loss(modules, pyramid, gt_boxes, neg_cap=10, rng_seed=0, mode="train"):
    """Mean per-class loss over all modules for one scene.

    Classes without positives in the scene contribute zero; the average
    still divides by the number of known classes.
    """
    if not modules:
        return 0.0
    total = 0.0
    for module in modules:
        rng = derive_rng(rng_seed, "assign-scene", module.class_id)
        assignment = assign_samples(pyramid.geometry, gt_boxes, module.class_id,
                                    neg_cap, rng)
        if assignment.num_positive == 0:
            continue
        projected = train_project(module, pyramid) if mode == "train" \
            else project(module, pyramid)
        total += mscal_loss(module, projected, assignment)
    return total / len(modules)


def known_positive_scores_full_grid(modules, scenes, scene_pairs):
    """Calibration scores scene by scene from whole-grid OOD score maps,
    whose multiset `training.known_positive_scores_for_registry` must
    give."""
    scores = []
    if not modules:
        return scores
    for scene, pairs in zip(scenes, scene_pairs):
        if not any(cells.size for _, cells in pairs):
            continue
        smap = ood_score_map(fold_modules(modules), scene.pyramid)
        for grid, (_, cells) in zip(smap, pairs):
            scores.extend(grid.ravel()[cells].tolist())
    return scores


# ---------------------------------------------------------------------------
# the full-grid train path: batchnorm statistics over every row of the
# batch, and the backward pass over the whole grids, which
# `mscal.mscal_loss_gradients` must match from the batch moments


def train_project(module, grids, update_stats=False, with_trace=False):
    """Train-mode projection of every location: the batchnorm uses the
    statistics of all rows of `grids`. With `update_stats` an unfrozen
    module's running statistics move towards them; with `with_trace` the
    per-layer intermediates `full_grid_loss_gradients` reads come back too."""
    if isinstance(grids, FeaturePyramid):
        grids = list(grids.layers)
    _check_grids(module, grids)
    outputs, traces = [], []
    for idx, grid in enumerate(grids):
        p = module.layers[idx]
        lead = grid.shape[:-1]
        x2d = np.ascontiguousarray(grid, dtype=np.float64).reshape(-1, grid.shape[-1])
        h = x2d @ p.w1 + p.b1
        mean = h.mean(axis=0)
        var = h.var(axis=0)
        if update_stats and not module.frozen:
            m = module.bn_momentum
            p.running_mean = (1.0 - m) * p.running_mean + m * mean
            p.running_var = (1.0 - m) * p.running_var + m * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (h - mean) * inv_std
        y = p.gamma * x_hat + p.beta
        relu_mask = y > 0.0
        r = np.where(relu_mask, y, 0.0)
        u = r @ p.w2 + p.b2
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms < 1e-12):
            raise DegenerateProjection(f"a location collapsed at layer {idx}")
        z = u / norms[:, None]
        outputs.append(z.reshape(*lead, z.shape[-1]))
        traces.append({"lead": lead, "x2d": x2d, "inv_std": inv_std, "x_hat": x_hat,
                       "relu_mask": relu_mask, "r": r, "norms": norms, "z": z,
                       "mean": mean, "var": var})
    return (outputs, traces) if with_trace else outputs


def full_grid_loss_gradients(module, traces, assignment):
    """Loss and analytic gradients of every parameter from a
    `train_project(..., with_trace=True)` trace: the sample gradients
    spread over the whole grids, then back through the batch statistics."""
    records, pos_logits, all_logits = [], [], []
    for j, (trace, idx, n_pos) in enumerate(zip(traces, assignment.index, assignment.n_pos)):
        z = trace["z"][idx]
        logits = (z @ module.effective_anchor(j)) / module.tau if idx.size else np.zeros(0)
        records.append({"layer": j, "idx": idx, "n_pos": n_pos, "z": z})
        pos_logits.append(logits[:n_pos])
        all_logits.append(logits)
    pos_logits, all_logits = np.concatenate(pos_logits), np.concatenate(all_logits)
    if pos_logits.size == 0:
        raise NoSamples(f"class {module.class_id}: no positive samples in batch")
    loss = _logsumexp(all_logits) - float(pos_logits.mean())
    soft = np.exp(all_logits - np.max(all_logits))
    soft /= soft.sum()

    grads = []
    offset = 0
    for rec, trace, params in zip(records, traces, module.layers):
        n = rec["idx"].size
        d_logit = soft[offset:offset + n].copy()
        d_logit[:rec["n_pos"]] -= 1.0 / pos_logits.size
        offset += n

        mu_eff = module.effective_anchor(rec["layer"])
        d_mu_eff = (d_logit @ rec["z"]) / module.tau if n else np.zeros_like(params.anchor)
        mu_norm = float(np.linalg.norm(params.anchor))
        d_anchor = (d_mu_eff - float(mu_eff @ d_mu_eff) * mu_eff) / mu_norm

        dz = np.zeros_like(trace["z"])
        if n:
            dz[rec["idx"]] = np.outer(d_logit, mu_eff) / module.tau
        z = trace["z"]
        du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / trace["norms"][:, None]

        d_w2 = trace["r"].T @ du
        d_b2 = du.sum(axis=0)
        dy = np.where(trace["relu_mask"], du @ params.w2.T, 0.0)
        d_gamma = np.sum(dy * trace["x_hat"], axis=0)
        d_beta = dy.sum(axis=0)
        dx_hat = dy * params.gamma
        dh = trace["inv_std"] * (dx_hat - dx_hat.mean(axis=0)
                                 - trace["x_hat"] * np.mean(dx_hat * trace["x_hat"], axis=0))
        grads.append({
            "w1": trace["x2d"].T @ dh, "b1": dh.sum(axis=0), "gamma": d_gamma,
            "beta": d_beta, "w2": d_w2, "b2": d_b2, "anchor": d_anchor,
        })
    return loss, grads


def full_batch_running_stats(module, grids):
    """Per layer, the mean and population variance of the first affine
    map's output over every row of `grids`: a fresh module's running
    statistics, which `training._init_modules_for_task` takes from the
    batch moments instead."""
    stats = []
    for grid, p in zip(grids, module.layers):
        h = grid.reshape(-1, grid.shape[-1]) @ p.w1 + p.b1
        stats.append((h.mean(axis=0), h.var(axis=0)))
    return stats


def whole_grid_detection_loss(layer_grids, embeddings, assignments, logit_scale,
                              total_pairs=None):
    """`training.detection_loss` with every location of the batch
    normalized before the sampled rows are gathered, which the sampled-row
    normalization must match bit for bit."""
    feat_hat = []
    for g in layer_grids:
        f = g.reshape(-1, g.shape[-1])
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        feat_hat.append(f / np.where(norms < 1e-12, 1.0, norms))
    per_class_rows = []
    for a in assignments:
        blocks = sampled_rows(feat_hat, a)
        targets = np.concatenate([np.arange(len(b)) < n for b, n in zip(blocks, a.n_pos)])
        per_class_rows.append((np.concatenate(blocks), targets.astype(np.float64)))
    if total_pairs is None:
        total_pairs = sum(rows.shape[0] for rows, _ in per_class_rows)
    if total_pairs == 0:
        raise NoSamples("detection loss has no assigned locations")
    raw_losses = []
    grads = np.zeros_like(embeddings)
    for i, (rows, targets) in enumerate(per_class_rows):
        if rows.shape[0] == 0:
            continue
        w_norm = float(np.linalg.norm(embeddings[i]))
        w_hat = embeddings[i] / w_norm
        logits = logit_scale * (rows @ w_hat)
        raw_losses.append(float(np.sum(_softplus(logits) - targets * logits)))
        d_logit = (_sigmoid(logits) - targets) / total_pairs
        d_w_hat = logit_scale * (d_logit @ rows)
        grads[i] = (d_w_hat - float(w_hat @ d_w_hat) * w_hat) / w_norm
    return sum(raw_losses) / total_pairs, grads


def oracle_all_class_detection_loss(layer_grids, embeddings, trainable, assignments,
                                    logit_scale):
    """The detection loss that samples and scores every known class, frozen
    ones too: the mean BCE over every class's sampled pairs, with gradients
    only for the `trainable` rows. Returns the loss, the gradients shaped
    like `embeddings`, and each class's summed BCE (absent for a class with
    no sampled pair). `training.detection_loss`, given the trainable rows
    and this pair count, must give these gradients bit for bit, and the
    trainable classes' summed BCE over the same count."""
    n_classes = embeddings.shape[0]
    if len(assignments) != n_classes:
        raise ShapeMismatch("one sample assignment per class is required")
    total_pairs = 0
    raw_losses = {}
    per_class_rows = []
    for a in assignments:
        blocks = sampled_rows(layer_grids, a)
        rows = np.concatenate(blocks)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows /= np.where(norms < 1e-12, 1.0, norms)
        targets = np.concatenate([np.arange(len(b)) < n for b, n in zip(blocks, a.n_pos)])
        per_class_rows.append((rows, targets.astype(np.float64)))
        total_pairs += rows.shape[0]
    if total_pairs == 0:
        raise NoSamples("detection loss has no assigned locations")

    grads = np.zeros_like(embeddings)
    for i, (rows, targets) in enumerate(per_class_rows):
        if rows.shape[0] == 0:
            continue
        w = embeddings[i]
        w_norm = float(np.linalg.norm(w))
        w_hat = w / w_norm
        logits = logit_scale * (rows @ w_hat)
        raw_losses[i] = float(np.sum(_softplus(logits) - targets * logits))
        if trainable[i]:
            d_logit = (_sigmoid(logits) - targets) / total_pairs
            d_w_hat = logit_scale * (d_logit @ rows)
            grads[i] = (d_w_hat - float(w_hat @ d_w_hat) * w_hat) / w_norm
    return sum(raw_losses.values()) / total_pairs, grads, raw_losses


def unfolded_project(module, grids):
    """The infer-mode projection with the batchnorm unfolded: the first
    affine map, the batchnorm on the running statistics, its scale and
    shift, ReLU, the second affine map and the normalization, each as its
    own step. `mscal.project` runs on the fold instead, whose first affine
    map takes in the batchnorm, so it matches this up to rounding."""
    if isinstance(grids, FeaturePyramid):
        grids = list(grids.layers)
    _check_grids(module, grids)
    outputs = []
    for j, (grid, p) in enumerate(zip(grids, module.layers)):
        x2d = np.ascontiguousarray(grid, dtype=np.float64).reshape(-1, grid.shape[-1])
        x_hat = (x2d @ p.w1 + p.b1 - p.running_mean) / np.sqrt(p.running_var + BN_EPS)
        y = p.gamma * x_hat + p.beta
        u = np.where(y > 0.0, y, 0.0) @ p.w2 + p.b2
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms < 1e-12):
            raise DegenerateProjection(f"a location collapsed at layer {j}")
        z = u / norms[:, None]
        outputs.append(z.reshape(*grid.shape[:-1], z.shape[-1]))
    return outputs


def unfolded_ood_score_map(modules, grids):
    """OOD score grids from the unfolded infer-mode projection: each
    module's `unfolded_project` rows against its `effective_anchor`, the
    best over the modules, negated. `mscal.ood_score_map` scores against
    `fold_modules`'s folds, so it matches this up to rounding."""
    if not modules:
        raise NoModules("unfolded_ood_score_map needs at least one class module")
    best = None
    for module in modules:
        sims = [z @ module.effective_anchor(j)
                for j, z in enumerate(unfolded_project(module, grids))]
        best = sims if best is None else [np.maximum(b, s) for b, s in zip(best, sims)]
    return [-b for b in best]


def ood_score(modules, zs, layer):
    """Score for one location: negated best anchor similarity across classes.

    `zs[i]` is the location as projected by `modules[i]`.
    """
    if not modules:
        raise NoModules("ood_score needs at least one class module")
    if len(zs) != len(modules):
        raise ShapeMismatch("one projected vector per module is required")
    return -max(float(module.effective_anchor(layer) @ z)
                for module, z in zip(modules, zs))


# ---------------------------------------------------------------------------
# sample masks: the boolean form of a `SampleAssignment`


def assignment_from_masks(positive, negative):
    """The `SampleAssignment` of per-layer disjoint boolean masks: each
    layer's positive flat indices, then its negative ones, both ascending."""
    return SampleAssignment(
        index=[np.concatenate([np.flatnonzero(p), np.flatnonzero(n)])
               for p, n in zip(positive, negative)],
        n_pos=[int(np.count_nonzero(p)) for p in positive])


def masks_of(assignment, shapes):
    """Per-layer (positive, negative) boolean masks of an assignment, each
    layer shaped like the leading axes in `shapes`."""
    positive, negative = [], []
    for idx, n_pos, shape in zip(assignment.index, assignment.n_pos, shapes, strict=True):
        pos = np.zeros(shape, dtype=bool)
        neg = np.zeros(shape, dtype=bool)
        pos.flat[idx[:n_pos]] = True
        neg.flat[idx[n_pos:]] = True
        positive.append(pos)
        negative.append(neg)
    return positive, negative


# ---------------------------------------------------------------------------
# per-scene ownership masks and the assignment masks built from them, the
# loops whose flat indices `training._owned_pairs`, `_owner_index` and
# `_assignment_for_class` must give


def oracle_ownership_masks(geometry, gt_boxes):
    """Per layer: class_id -> mask of centers inside that class's boxes at
    the layer the size rule assigns them to."""
    per_layer = [dict() for _ in geometry.layers]
    centers = [layer_centers(g) for g in geometry.layers]
    for box, cls in gt_boxes:
        level = geometry.level_for_box(box)
        cx, cy = centers[level]
        x1, y1, x2, y2 = box
        inside = (cx >= x1) & (cx < x2) & (cy >= y1) & (cy < y2)
        if cls in per_layer[level]:
            per_layer[level][cls] |= inside
        else:
            per_layer[level][cls] = inside
    return per_layer


def setdiff_assignment_for_class(owners, class_id, neg_cap, rng):
    """`training._assignment_for_class` with the other classes' locations
    taken by `np.setdiff1d`, which the boolean mask must match, draws
    included."""
    positive = owners.cells[owners.classes == class_id]
    cap = int(neg_cap) * max(1, positive.size)
    other_idx = np.setdiff1d(owners.foreground, positive, assume_unique=True)
    if other_idx.size > cap:
        other_idx = other_idx[rng.choice(other_idx.size, size=cap, replace=False)]
    quota = cap - other_idx.size
    bg_idx = owners.background if quota > 0 else owners.background[:0]
    if bg_idx.size > quota:
        bg_idx = bg_idx[rng.choice(bg_idx.size, size=quota, replace=False)]
    negative = np.sort(np.concatenate([other_idx, bg_idx]))
    cuts = owners.starts[1:]
    pos_layers = np.split(positive, np.searchsorted(positive, cuts))
    neg_layers = np.split(negative, np.searchsorted(negative, cuts))
    return SampleAssignment(
        index=[np.concatenate([pos, neg]) - start
               for pos, neg, start in zip(pos_layers, neg_layers, owners.starts)],
        n_pos=[pos.size for pos in pos_layers])


def oracle_assignment_for_class(owners_per_scene, layer_shapes, class_id, neg_cap, rng):
    """Batched (positive, negative) assignment masks for one class from
    per-scene `oracle_ownership_masks`: positives are `class_id`'s
    locations, negatives every other owned location plus background,
    subsampled to `neg_cap * max(1, positives)`."""
    batch = len(owners_per_scene)
    pos, other, bg = [], [], []
    for h, w in layer_shapes:
        pos.append(np.zeros((batch, h, w), dtype=bool))
        other.append(np.zeros((batch, h, w), dtype=bool))
        bg.append(np.zeros((batch, h, w), dtype=bool))
    for b, owners in enumerate(owners_per_scene):
        for j, by_class in enumerate(owners):
            any_fg = np.zeros_like(pos[j][b])
            for cls, mask in by_class.items():
                any_fg |= mask
                if cls == class_id:
                    pos[j][b] |= mask
                else:
                    other[j][b] |= mask
            bg[j][b] = ~any_fg
    for j in range(len(layer_shapes)):
        other[j] &= ~pos[j]

    n_pos = int(sum(m.sum() for m in pos))
    cap = int(neg_cap) * max(1, n_pos)
    flat_other = np.concatenate([m.ravel() for m in other])
    flat_bg = np.concatenate([m.ravel() for m in bg])
    keep = np.zeros(flat_other.size, dtype=bool)
    other_idx = np.flatnonzero(flat_other)
    if other_idx.size > cap:
        other_idx = other_idx[rng.choice(other_idx.size, size=cap, replace=False)]
    keep[other_idx] = True
    quota = cap - other_idx.size
    bg_idx = np.flatnonzero(flat_bg)
    if quota > 0 and bg_idx.size > 0:
        if bg_idx.size > quota:
            bg_idx = bg_idx[rng.choice(bg_idx.size, size=quota, replace=False)]
        keep[bg_idx] = True
    negatives = []
    offset = 0
    for m in other:
        negatives.append(keep[offset:offset + m.size].reshape(m.shape))
        offset += m.size
    return pos, negatives


# ---------------------------------------------------------------------------
# the round-by-round scene generator that the block-drawn `generate_scene`
# must match byte for byte: scalar placement tries, one normal draw per
# rejection round of each background layer, then each GT box's noise (and,
# with `box_jitter`, its per-cell jitter)


def _intersects(a, b):
    return not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1])


def oracle_sample_boxes(world, scene_id, rng):
    spec = world.spec
    geometry = world.geometry
    img_w, img_h = spec.image_extent()
    lo, hi = spec.boxes_per_scene
    n_boxes = int(rng.integers(lo, hi + 1))
    known = [c.name for c in world.known_classes]
    unknown = [c.name for c in world.unknown_classes]
    boxes = []
    for _ in range(n_boxes):
        if unknown and rng.random() < spec.unknown_box_ratio:
            name = unknown[int(rng.integers(len(unknown)))]
        else:
            name = known[int(rng.integers(len(known)))]
        level = int(rng.integers(geometry.num_layers))
        size_lo, size_hi = spec.box_size_ranges[level]
        long_side = float(rng.uniform(size_lo, size_hi))
        stride = geometry.layers[level].stride
        short_side = float(np.clip(long_side * rng.uniform(0.6, 1.0),
                                   stride * 1.05, long_side))
        if rng.random() < 0.5:
            w, h = long_side, short_side
        else:
            w, h = short_side, long_side
        placed = None
        for _ in range(200):
            x1 = float(rng.uniform(0.0, img_w - w))
            y1 = float(rng.uniform(0.0, img_h - h))
            cand = (x1, y1, x1 + w, y1 + h)
            if not any(_intersects(cand, sb.box) for sb in boxes):
                placed = cand
                break
        if placed is not None:
            boxes.append(GtRecord(scene_id, placed, name))
    return boxes


def oracle_background_features(world, count, rng):
    """`count` unit vectors kept dissimilar to every prototype, redrawing
    the rejected cells round by round."""
    spec = world.spec
    protos = np.stack([c.prototype for c in world.classes])
    out = np.empty((count, spec.dim))
    pending = np.arange(count)
    while pending.size:
        draw = rng.normal(size=(pending.size, spec.dim))
        draw /= np.linalg.norm(draw, axis=1, keepdims=True)
        ok = (draw @ protos.T).max(axis=1) < spec.background_max_cos
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return out


def oracle_generate_scene(world, split, index):
    """The (layers, box fields, GT boxes) of scene `index` of `split`."""
    rng = derive_rng(world.seed, "scene", split, index)
    spec = world.spec
    geometry = world.geometry
    gt = oracle_sample_boxes(world, f"{split}-{index:04d}", rng)
    layers, box_fields = [], []
    for g in geometry.layers:
        feats = oracle_background_features(world, g.height * g.width, rng)
        layers.append(feats.reshape(g.height, g.width, spec.dim))
        xs = np.arange(g.width + 1) * g.stride
        ys = np.arange(g.height + 1) * g.stride
        box_fields.append(np.stack(np.broadcast_arrays(
            xs[None, :-1], ys[:-1, None], xs[None, 1:], ys[1:, None]), axis=-1))
    for sb in gt:
        level, cells = geometry.owned_cells(sb.box)
        g = geometry.layers[level]
        rows, cols = np.divmod(cells, g.width)
        proto = {c.name: c for c in world.classes}[sb.class_name].prototype
        scale = spec.noise_sigma / np.sqrt(spec.dim)
        noisy = proto[None, :] + scale * rng.normal(size=(rows.size, spec.dim))
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        layers[level][rows, cols] = noisy
        emitted = np.array(sb.box, dtype=np.float64)
        for r, c in zip(rows, cols):
            if spec.box_jitter > 0.0:
                jitter = rng.uniform(-spec.box_jitter, spec.box_jitter, size=4) * g.stride
                box = box_fields[level][r, c] = emitted + jitter
                if box[2] <= box[0] or box[3] <= box[1]:
                    raise InfeasibleSpec("box_jitter turns a box inside out")
            else:
                box_fields[level][r, c] = emitted
    return layers, box_fields, tuple(gt)


def oracle_fifo_cells(ok, n):
    """The cell each accepted candidate fills when `n` cells queue for the
    candidates in `ok` order: a rejected candidate sends its cell to the
    back of the queue. Stops when the queue is empty."""
    queue = deque(range(n))
    cells = []
    for accepted in ok:
        if not queue:
            break
        cell = queue.popleft()
        if accepted:
            cells.append(cell)
        else:
            queue.append(cell)
    return cells


# ---------------------------------------------------------------------------
# sizes and cell boxes only the tests read


def layer_centers(layer):
    """(cx, cy) arrays of shape (height, width): the image-plane centres of
    a layer's cells."""
    cx = (np.arange(layer.width, dtype=np.float64) + 0.5) * layer.stride
    cy = (np.arange(layer.height, dtype=np.float64) + 0.5) * layer.stride
    return np.broadcast_to(cx[None, :], (layer.height, layer.width)), \
        np.broadcast_to(cy[:, None], (layer.height, layer.width))


def cell_box(layer, row, col):
    """The image-plane box of one cell of a `LayerGeometry`."""
    s = layer.stride
    return (col * s, row * s, (col + 1) * s, (row + 1) * s)



def out_dim(module):
    return int(module.layers[0].w2.shape[1])


def num_negative(assignment):
    return int(sum(idx.size - n for idx, n in zip(assignment.index, assignment.n_pos)))


def location_count(pyramid):
    return sum(g.height * g.width for g in pyramid.geometry.layers)


# ---------------------------------------------------------------------------
# the hand-written [world] and [train] INI schema that `cli.SCHEMA` now
# derives from the `WorldSpec` and `TrainConfig` fields: one parser and one
# default text per key, applied the way the old `RunConfig` did


def _parse_int_tuple(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_float_pair(text):
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers: {text!r}")
    return parts[0], parts[1]


def _parse_float_tuple(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_pyramid(text):
    layers = []
    for tok in text.split(","):
        h, w, s = tok.strip().split("x")
        layers.append((int(h), int(w), float(s)))
    return tuple(layers)


def _parse_size_ranges(text):
    ranges = []
    for tok in text.split(","):
        lo, hi = tok.strip().split("-")
        ranges.append((float(lo), float(hi)))
    return tuple(ranges)


def _parse_splits(text):
    out = []
    for tok in text.split(","):
        name, count = tok.strip().split(":")
        out.append((name, int(count)))
    return tuple(out)


ORACLE_SCHEMA = {
    "world": {
        "dim": (int, "16"),
        "known_per_task": (_parse_int_tuple, "5,5,5"),
        "n_nood": (int, "4"),
        "n_food": (int, "4"),
        "nood_angle": (float, "0.25"),
        "food_min_angle": (float, "1.2"),
        "noise_sigma": (float, "0.1"),
        "text_noise_sigma": (float, "0.05"),
        "pyramid_layers": (_parse_pyramid, "16x16x16,8x8x32"),
        "level_thresholds": (_parse_float_tuple, "0,64"),
        "box_size_ranges": (_parse_size_ranges, "20-56,72-150"),
        "boxes_per_scene": (_parse_int_tuple, "3,6"),
        "scenes_per_split": (_parse_splits, "train:60,cal:20,test:40"),
        "unknown_box_ratio": (float, "0.3"),
        "box_jitter": (float, "0.0"),
        "background_max_cos": (float, "0.3"),
        "known_angle_range": (_parse_float_pair, "1.05,1.3"),
        "food_axis_angle": (float, "1.55"),
        "food_spread": (float, "0.2"),
        "foodward_cap": (float, "0.15"),
        "clearance_slack": (float, "0.1"),
        "food_alignment_alpha": (float, "0.4"),
        "min_unknown_margin": (float, "0.05"),
        "max_draws": (int, "1000000"),
    },
    "train": {
        "learning_rate": (float, "1e-4"),
        "weight_decay": (float, "0.0125"),
        "batch_size": (int, "16"),
        "steps_per_task": (int, "500"),
        "tau": (float, "0.1"),
        "alpha": (float, "0.4"),
        "neg_cap": (int, "10"),
        "logit_scale": (float, "10"),
        "quantile": (float, "0.95"),
        "det_weight": (float, "1.0"),
        "mscal_weight": (float, "1.0"),
        "bn_momentum": (float, "0.1"),
    },
}


def oracle_config_value(section, key, text):
    """The value the hand-written schema gives `section.key` set to `text`,
    or `ValueError` where it rejected the text."""
    parse, _ = ORACLE_SCHEMA[section][key]
    if text == "":
        raise ValueError(f"{section}.{key} needs a value")
    return parse(text)

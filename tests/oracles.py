"""Brute-force metric oracles, independent of the library implementations,
the scalar inference path (one object per candidate detection: decode, OOD
gate, greedy NMS and the json-encoder line) that the columnar path must
match, the per-scene ownership masks and mask-built assignment loop whose
flat indices the batched owner index must give, the conversions between
boolean sample masks and `SampleAssignment` indices, the full-grid
train-mode projection and backward pass that the moment step must match,
the per-scene calibration scores, plus single-scene MSCAL references built
on the library's assignment code.

Shared by the unit tests and the acceptance suite; the metric oracles are
written directly from the metric definitions with plain loops.
"""

import json
from types import SimpleNamespace

import numpy as np

from openworld_kit.detection import (
    UNKNOWN_CLASS_ID,
    Detection,
    DetectionRecord,
    DetectionTable,
)
from openworld_kit.errors import (
    DegenerateProjection,
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
    _gather_samples,
    _logsumexp,
    mscal_loss,
    ood_score_map,
    project,
)
from openworld_kit.pyramid import FeaturePyramid
from openworld_kit.owod_eval import GtRecord, find_overlaps
from openworld_kit.seeding import derive_rng
from openworld_kit.synthetic_world import SceneBox
from openworld_kit.training import _assignment_for_class, _owned_pairs, _owner_index

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


def oracle_gate(dets, ood_layers, theta, mode="relabel"):
    """Per detection: read the score at its source, relabel (or drop) a
    known detection scoring above `theta`."""
    out = []
    for d in dets:
        layer, row, col = d.source
        if not (0 <= layer < len(ood_layers) and 0 <= row < ood_layers[layer].shape[0]
                and 0 <= col < ood_layers[layer].shape[1]):
            raise SourceOutOfRange(f"detection source {d.source} outside map")
        score = float(ood_layers[layer][row, col])
        gated = not d.is_unknown and score > theta
        if gated and mode == "suppress":
            continue
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
    scene = SimpleNamespace(gt=[SceneBox(box, str(cls)) for box, cls in gt_boxes])
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
        smap = ood_score_map(modules, scene.pyramid)
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
        if module.normalize:
            norms = np.linalg.norm(u, axis=1)
            if np.any(norms < 1e-12):
                raise DegenerateProjection(f"a location collapsed at layer {idx}")
            z = u / norms[:, None]
        else:
            norms = None
            z = u
        outputs.append(z.reshape(*lead, z.shape[-1]))
        traces.append({"lead": lead, "x2d": x2d, "inv_std": inv_std, "x_hat": x_hat,
                       "relu_mask": relu_mask, "r": r, "norms": norms, "z": z,
                       "mean": mean, "var": var})
    return (outputs, traces) if with_trace else outputs


def full_grid_loss_gradients(module, traces, assignment):
    """Loss and analytic gradients of every parameter from a
    `train_project(..., with_trace=True)` trace: the sample gradients
    spread over the whole grids, then back through the batch statistics."""
    projected = [t["z"].reshape(*t["lead"], -1) for t in traces]
    records, pos_logits, all_logits = _gather_samples(module, projected, assignment)
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

        mu_raw = module.layers[0].anchor if module.share_anchor else params.anchor
        mu_eff = module.effective_anchor(rec["layer"])
        d_mu_eff = (d_logit @ rec["z"]) / module.tau if n else np.zeros_like(mu_raw)
        if module.normalize:
            mu_norm = float(np.linalg.norm(mu_raw))
            d_anchor = (d_mu_eff - float(mu_eff @ d_mu_eff) * mu_eff) / mu_norm
        else:
            d_anchor = d_mu_eff

        dz = np.zeros_like(trace["z"])
        if n:
            dz[rec["idx"]] = np.outer(d_logit, mu_eff) / module.tau
        if module.normalize:
            z = trace["z"]
            du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / trace["norms"][:, None]
        else:
            du = dz

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
    if module.share_anchor:
        for g in grads[1:]:
            grads[0]["anchor"] = grads[0]["anchor"] + g["anchor"]
            g["anchor"] = np.zeros_like(g["anchor"])
    return loss, grads


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
    centers = [g.centers() for g in geometry.layers]
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
# sizes and cell boxes only the tests read


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


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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
        "normalize_projection": (_parse_bool, "true"),
        "share_anchor": (_parse_bool, "false"),
    },
}


def oracle_config_value(section, key, text):
    """The value the hand-written schema gives `section.key` set to `text`,
    or `ValueError` where it rejected the text."""
    parse, _ = ORACLE_SCHEMA[section][key]
    if text == "":
        raise ValueError(f"{section}.{key} needs a value")
    return parse(text)

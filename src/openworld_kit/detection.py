"""Cosine-similarity detection head, OOD gating, IoU, and NMS.

Inference walks each pyramid location: confidences are sigmoids of scaled
cosine similarity against the prompt matrix, the argmax class (ties to the
lower index) emits the location's box field when above threshold, the OOD
gate relabels suspicious known detections to unknown, and greedy NMS prunes
overlaps. Everything is deterministic for a fixed pyramid and prompt set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeMismatch, SourceOutOfRange, ZeroVector
from .mscal import OodScoreMap
from .pyramid import FeaturePyramid

UNKNOWN_CLASS_ID = -1

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class Detection:
    box: Box
    label: int              # known class index, or UNKNOWN_CLASS_ID
    confidence: float
    source: tuple[int, int, int]  # (layer, row, col)
    ood: float = 0.0

    @property
    def is_unknown(self) -> bool:
        return self.label == UNKNOWN_CLASS_ID


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def classify_locations(
    pyramid: FeaturePyramid,
    prompts: np.ndarray,
    logit_scale: float = 10.0,
) -> list[np.ndarray]:
    """Per-layer (H, W, C) confidence grids.

    confidence(c, location) = sigmoid(logit_scale * cos(prompt_c, feature)).
    Cosines are computed on normalized vectors, so prompt row scale never
    changes a single confidence.
    """
    if logit_scale <= 0:
        raise ValueError(f"logit_scale must be positive, got {logit_scale}")
    prompts = np.asarray(prompts, dtype=np.float64)
    norms = np.linalg.norm(prompts, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVector("prompt matrix contains a zero-norm row")
    unit_prompts = prompts / norms[:, None]
    out = []
    for grid in pyramid.layers:
        if grid.shape[-1] != prompts.shape[1]:
            raise ShapeMismatch(
                f"prompt dim {prompts.shape[1]} != feature dim {grid.shape[-1]}")
        flat = grid.reshape(-1, grid.shape[-1])
        feat_norms = np.linalg.norm(flat, axis=1)
        safe = np.where(feat_norms < 1e-12, 1.0, feat_norms)
        cos = (flat / safe[:, None]) @ unit_prompts.T
        cos[feat_norms < 1e-12] = 0.0
        conf = _sigmoid(logit_scale * cos)
        out.append(conf.reshape(*grid.shape[:-1], prompts.shape[0]))
    return out


def decode_detections(
    pyramid: FeaturePyramid,
    class_scores: list[np.ndarray],
    conf_threshold: float,
    num_known: int,
) -> list[Detection]:
    """One candidate detection per location whose argmax confidence clears
    the threshold. Rows past `num_known` carry the unknown label. Ties go
    to the lower row index (argmax convention), so known beats unknown."""
    if len(class_scores) != len(pyramid.layers):
        raise ShapeMismatch("scores and pyramid disagree on layer count")
    dets: list[Detection] = []
    for j, (scores, boxes) in enumerate(zip(class_scores, pyramid.box_field)):
        if scores.shape[:2] != boxes.shape[:2]:
            raise ShapeMismatch("scores and pyramid disagree on grid shape")
        best_idx = np.argmax(scores, axis=-1)
        best_conf = np.take_along_axis(scores, best_idx[..., None], axis=-1)[..., 0]
        keep = best_conf >= conf_threshold
        for row, col in np.argwhere(keep):
            idx = int(best_idx[row, col])
            label = idx if idx < num_known else UNKNOWN_CLASS_ID
            dets.append(Detection(
                box=tuple(float(v) for v in boxes[row, col]),
                label=label,
                confidence=float(best_conf[row, col]),
                source=(j, int(row), int(col)),
            ))
    return dets


def apply_ood_gate(
    dets: list[Detection],
    ood_map: OodScoreMap,
    theta: float,
    mode: str = "relabel",
) -> list[Detection]:
    """Fill each detection's OOD score from its source location and convert
    known detections scoring above `theta` into unknowns.

    Boxes and confidences are never touched; unknown-labeled detections
    pass through unchanged. `mode="suppress"` drops gated detections
    instead of relabeling them.
    """
    if mode not in ("relabel", "suppress"):
        raise ValueError(f"gate mode must be 'relabel' or 'suppress', got {mode!r}")
    out: list[Detection] = []
    for det in dets:
        layer, row, col = det.source
        try:
            score = ood_map.score_at(layer, row, col)
        except IndexError as exc:
            raise SourceOutOfRange(f"detection source {det.source} outside map") from exc
        gated = (not det.is_unknown) and score > theta
        if gated and mode == "suppress":
            continue
        out.append(Detection(box=det.box,
                             label=UNKNOWN_CLASS_ID if gated else det.label,
                             confidence=det.confidence, source=det.source, ood=score))
    return out


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two well-formed boxes."""
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _suppression_matrix(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """(m, m) bool: entry (i, j) is True iff `iou(boxes[j], boxes[i]) >=
    iou_threshold`, with the float64 operations of `iou` in the same order,
    so every IoU carries the same bits as the scalar one. Built in place so
    that at most three (m, m) float arrays are alive at once."""
    x1, y1, x2, y2 = boxes.T
    inter = np.minimum.outer(x2, x2)
    tmp = np.maximum.outer(x1, x1)
    np.subtract(inter, tmp, out=inter)
    np.fmax(inter, 0.0, out=inter)          # iw; fmax maps NaN to 0 like max(0.0, ·)
    np.minimum.outer(y2, y2, out=tmp)
    np.subtract(tmp, np.maximum.outer(y1, y1), out=tmp)
    np.fmax(tmp, 0.0, out=tmp)              # ih
    np.multiply(inter, tmp, out=inter)
    area = (x2 - x1) * (y2 - y1)
    np.add.outer(area, area, out=tmp)
    np.subtract(tmp, inter, out=tmp)        # union
    empty = inter <= 0.0
    np.divide(inter, tmp, out=tmp, where=~empty)
    tmp[empty] = 0.0
    # `>=`, never keep-if-`<`: a NaN IoU suppresses nothing
    return tmp >= iou_threshold


def _greedy_keep(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Keep mask of greedy NMS over boxes already in visiting order: each
    survivor clears the later boxes it suppresses."""
    spared = ~_suppression_matrix(boxes, iou_threshold)
    alive = np.ones(len(boxes), dtype=bool)
    for i in range(len(boxes) - 1):
        if alive[i]:
            alive[i + 1:] &= spared[i, i + 1:]
    return alive


def nms(dets: list[Detection], iou_threshold: float = 0.7,
        class_wise: bool = True) -> list[Detection]:
    """Greedy suppression by descending confidence.

    A detection survives iff its IoU with every kept detection (of the same
    label when `class_wise`; unknown counts as its own class) stays below
    the threshold. Confidence ties keep the earlier source index. The result
    equals the scalar greedy loop over `iou`; each label group is decided
    from one pairwise suppression matrix.
    """
    n = len(dets)
    if n == 0:
        return []
    conf = np.fromiter((d.confidence for d in dets), dtype=np.float64, count=n)
    order = np.argsort(-conf, kind="stable")   # (-confidence, index)
    boxes = np.array([dets[i].box for i in order], dtype=np.float64)
    if class_wise:
        labels = np.fromiter((dets[i].label for i in order), dtype=np.int64, count=n)
        groups = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]
    else:
        groups = [np.arange(n)]
    keep = np.ones(n, dtype=bool)
    for group in groups:
        if len(group) > 1:
            keep[group] = _greedy_keep(boxes[group], iou_threshold)
    return [dets[i] for i in order[keep]]


# ---------------------------------------------------------------------------
# detection file format: JSON lines, one object per detection

_ENCODER = json.JSONEncoder(sort_keys=True)


def format_detection_line(scene_id: str, det: Detection, label_names: list[str]) -> str:
    name = "unknown" if det.is_unknown else label_names[det.label]
    record = {
        "scene_id": scene_id,
        "x1": round(det.box[0], 4),
        "y1": round(det.box[1], 4),
        "x2": round(det.box[2], 4),
        "y2": round(det.box[3], 4),
        "label": name,
        "confidence": det.confidence,
        "ood": det.ood,
    }
    return _ENCODER.encode(record)


def write_detections_jsonl(path, per_scene: list[tuple[str, list[Detection]]],
                           label_names: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene_id, dets in per_scene:
            for det in dets:
                fh.write(format_detection_line(scene_id, det, label_names))
                fh.write("\n")


@dataclass(frozen=True)
class DetectionRecord:
    """A detection as read back from a detections file (label by name)."""

    scene_id: str
    box: Box
    label: str
    confidence: float
    ood: float


def read_detections_jsonl(path) -> list[DetectionRecord]:
    records: list[DetectionRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(DetectionRecord(
                    scene_id=str(obj["scene_id"]),
                    box=(float(obj["x1"]), float(obj["y1"]),
                         float(obj["x2"]), float(obj["y2"])),
                    label=str(obj["label"]),
                    confidence=float(obj["confidence"]),
                    ood=float(obj.get("ood", 0.0)),
                ))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(f"bad detection record: {exc}",
                                 path=str(path), line=lineno) from exc
    return records

"""Open-world detection metrics: greedy matching, AP/mAP, unknown recall,
wilderness impact, and absolute open-set error.

Aggregation is a deterministic fold in scene-id order and all arithmetic is
plain Python, so results are reproducible bit-for-bit and comparable against
brute-force oracles with exact equality. AP is all-point interpolated at
IoU 0.5. Undefined metrics are reported as None (JSON null), never as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite

from .detection import iou
from .errors import DuplicateClass, ParseError, UndefinedOperatingPoint

UNKNOWN_NAME = "unknown"

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class GtRecord:
    scene_id: str
    box: Box
    class_name: str


def write_gt_jsonl(path, records: list[GtRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "scene_id": rec.scene_id,
                "x1": round(rec.box[0], 4), "y1": round(rec.box[1], 4),
                "x2": round(rec.box[2], 4), "y2": round(rec.box[3], 4),
                "class_name": rec.class_name,
            }, sort_keys=True))
            fh.write("\n")


def read_gt_jsonl(path) -> list[GtRecord]:
    """Every record of a ground-truth file; a line that is not such a
    record, or has a non-finite coordinate, raises `ParseError` naming it."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = GtRecord(
                    scene_id=str(obj["scene_id"]),
                    box=(float(obj["x1"]), float(obj["y1"]),
                         float(obj["x2"]), float(obj["y2"])),
                    class_name=str(obj["class_name"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad ground-truth record: {exc}",
                                 path=str(path), line=lineno) from exc
            x1, y1, x2, y2 = record.box
            if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
                raise ParseError("non-finite coordinate in ground-truth record",
                                 path=str(path), line=lineno)
            records.append(record)
    return records


@dataclass(frozen=True)
class TaskSplitSpec:
    """Known class names per task; everything never listed is unknown."""

    tasks: tuple[tuple[int, tuple[str, ...]], ...]

    def __post_init__(self):
        ids = [t for t, _ in self.tasks]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"task ids must be contiguous from 1, got {ids}")
        seen: set[str] = set()
        for _, names in self.tasks:
            for n in names:
                if n in seen:
                    raise DuplicateClass(f"class {n!r} assigned to two tasks")
                seen.add(n)
        object.__setattr__(self, "tasks",
                           tuple((t, tuple(ns)) for t, ns in self.tasks))

    def current_classes(self, task_id: int) -> tuple[str, ...]:
        for t, names in self.tasks:
            if t == task_id:
                return names
        raise KeyError(task_id)

    def previous_classes(self, task_id: int) -> tuple[str, ...]:
        out: list[str] = []
        for t, names in self.tasks:
            if t < task_id:
                out.extend(names)
        return tuple(out)

    def known_classes(self, task_id: int) -> tuple[str, ...]:
        return self.previous_classes(task_id) + self.current_classes(task_id)


def save_task_split(path, split: TaskSplitSpec) -> None:
    payload = {str(t): list(names) for t, names in split.tasks}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_task_split(path) -> TaskSplitSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    tasks = sorted((int(t), tuple(names)) for t, names in raw.items())
    return TaskSplitSpec(tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# matching


def _claim(box, label, gts, taken, iou_thr: float) -> int | None:
    """Greedy claim of one ground-truth box for one detection.

    Picks the untaken box in `gts` with the highest IoU at or above the
    threshold, restricted to class `label` unless it is None, with IoU ties
    broken toward the lower index; marks it taken and returns its index,
    or None when nothing qualifies.
    """
    best_g, best_iou = None, 0.0
    for g, gt in enumerate(gts):
        if taken[g] or (label is not None and gt.class_name != label):
            continue
        overlap = iou(box, gt.box)
        if overlap >= iou_thr and overlap > best_iou:
            best_g, best_iou = g, overlap
    if best_g is not None:
        taken[best_g] = True
    return best_g


def _untaken(pool: dict[str, list]) -> dict[str, list[bool]]:
    return {sid: [False] * len(boxes) for sid, boxes in pool.items()}


def _group_by_scene(records) -> dict[str, list]:
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(rec.scene_id, []).append(rec)
    return groups


def _global_order(dets) -> list:
    """Detections across scenes in the canonical evaluation order."""
    indexed = list(enumerate(dets))
    indexed.sort(key=lambda pair: (-pair[1].confidence, pair[1].scene_id, pair[0]))
    return [rec for _, rec in indexed]


# ---------------------------------------------------------------------------
# average precision


def average_precision(scored_flags, n_gt: int):
    """All-point interpolated AP from (confidence, is_true_positive) pairs.

    Returns None when the class is undefined (no ground truth and no
    detections); 0.0 when there is no ground truth but detections exist.
    """
    if n_gt == 0:
        return 0.0 if scored_flags else None
    ranked = sorted(range(len(scored_flags)),
                    key=lambda i: (-scored_flags[i][0], i))
    tp = 0
    fp = 0
    recalls: list[float] = []
    precisions: list[float] = []
    for i in ranked:
        if scored_flags[i][1]:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    # precision envelope from the right, then integrate recall steps
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i + 1] > precisions[i]:
            precisions[i] = precisions[i + 1]
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recalls, precisions):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return ap


def class_average_precision(dets, gts, class_name: str, iou_thr: float = 0.5):
    """AP for one class pooled over scenes (greedy matching per scene)."""
    gt_by_scene = _group_by_scene([g for g in gts if g.class_name == class_name])
    n_gt = sum(len(v) for v in gt_by_scene.values())
    class_dets = [d for d in dets if d.label == class_name]
    matched = _untaken(gt_by_scene)
    flags = [(det.confidence,
              _claim(det.box, None, gt_by_scene.get(det.scene_id, []),
                     matched.get(det.scene_id), iou_thr) is not None)
             for det in _global_order(class_dets)]
    return average_precision(flags, n_gt)


def _match_pool(dets, gt_pool, iou_thr: float) -> int:
    """Greedy count of pooled ground-truth boxes covered by `dets`.

    `dets` must already be in evaluation order; each detection claims at
    most one unmatched box from its scene, and a box is released once.
    """
    matched = _untaken(gt_pool)
    return sum(_claim(det.box, None, gt_pool.get(det.scene_id, []),
                      matched.get(det.scene_id), iou_thr) is not None
               for det in dets)


def u_recall(dets, gts, known_names, iou_thr: float = 0.5):
    """Fraction of unknown ground-truth boxes covered by unknown-labeled
    detections; all unknown classes pool into one. None without unknown GT."""
    known = set(known_names)
    unknown_gts = [g for g in gts if g.class_name not in known]
    if not unknown_gts:
        return None
    pool = _group_by_scene(unknown_gts)
    unk_dets = _global_order([d for d in dets if d.label == UNKNOWN_NAME])
    return _match_pool(unk_dets, pool, iou_thr) / len(unknown_gts)


def a_ose(dets, gts, known_names, iou_thr: float = 0.5) -> int:
    """Count of unknown ground-truth boxes claimed by known-labeled
    detections (greedy by confidence, one claim per box)."""
    known = set(known_names)
    unknown_gts = [g for g in gts if g.class_name not in known]
    if not unknown_gts:
        return 0
    pool = _group_by_scene(unknown_gts)
    known_dets = _global_order([d for d in dets if d.label in known])
    return _match_pool(known_dets, pool, iou_thr)


def wilderness_impact(dets, gts, known_names, recall_level: float = 0.8,
                      iou_thr: float = 0.5) -> float:
    """Closed-set over open-set precision, minus one, at the first
    operating point reaching the recall level.

    Known-labeled detections are ranked by confidence; each is a true
    positive (matches its own class), an unknown hit (matches an unknown
    box; ignored by closed-set precision, a false positive in the open
    set), or a plain false positive. The operating point is the shortest
    prefix whose known recall reaches `recall_level`.
    """
    known = set(known_names)
    known_gts = [g for g in gts if g.class_name in known]
    n_known = len(known_gts)
    if n_known == 0:
        raise UndefinedOperatingPoint("no known ground truth in split")
    known_pool = _group_by_scene(known_gts)
    unknown_pool = _group_by_scene([g for g in gts if g.class_name not in known])
    known_matched = _untaken(known_pool)
    unknown_matched = _untaken(unknown_pool)

    ordered = _global_order([d for d in dets if d.label in known])
    tp = 0
    fp_closed = 0
    fp_unknown = 0
    for det in ordered:
        if _claim(det.box, det.label, known_pool.get(det.scene_id, []),
                  known_matched.get(det.scene_id), iou_thr) is not None:
            tp += 1
        elif _claim(det.box, None, unknown_pool.get(det.scene_id, []),
                    unknown_matched.get(det.scene_id), iou_thr) is not None:
            fp_unknown += 1
        else:
            fp_closed += 1
        if tp / n_known >= recall_level:
            p_closed = tp / (tp + fp_closed)
            p_open = tp / (tp + fp_closed + fp_unknown)
            return p_closed / p_open - 1.0
    raise UndefinedOperatingPoint(
        f"known recall {recall_level} unreachable with these detections")


# ---------------------------------------------------------------------------
# task-level report

PROTOCOL = {
    "ap_interpolation": "all-point",
    "iou_threshold": 0.5,
    "wi_recall_level": 0.8,
    "wi_operating_point": "shortest confidence-ranked prefix reaching the recall level",
    "wi_unknown_overlaps": "ignored in closed-set precision, false positives in open set",
    "unknown_pooling": "all unknown classes pooled for U-Recall and A-OSE",
}


@dataclass(frozen=True)
class EvalReport:
    task_id: int
    map_prev: float | None
    map_curr: float | None
    map_both: float | None
    u_recall: float | None
    wi: float | None
    a_ose: int
    per_class_ap: dict[str, float | None]
    config_echo: dict = field(default_factory=dict)
    protocol: dict = field(default_factory=lambda: dict(PROTOCOL))

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "map_prev": self.map_prev,
            "map_curr": self.map_curr,
            "map_both": self.map_both,
            "u_recall": self.u_recall,
            "wi": self.wi,
            "a_ose": self.a_ose,
            "per_class_ap": dict(self.per_class_ap),
            "config": self.config_echo,
            "protocol": self.protocol,
        }


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


def evaluate_task(dets, gts, task_split: TaskSplitSpec, task_id: int,
                  iou_thr: float = 0.5, recall_level: float = 0.8,
                  config_echo: dict | None = None) -> EvalReport:
    """All metrics for one task: mAP split into previously/currently known,
    pooled unknown recall, wilderness impact, and open-set error count."""
    prev = task_split.previous_classes(task_id)
    curr = task_split.current_classes(task_id)
    known = prev + curr
    per_class = {name: class_average_precision(dets, gts, name, iou_thr)
                 for name in known}
    try:
        wi = wilderness_impact(dets, gts, known, recall_level, iou_thr)
    except UndefinedOperatingPoint:
        wi = None
    return EvalReport(
        task_id=task_id,
        map_prev=_mean_defined([per_class[n] for n in prev]) if prev else None,
        map_curr=_mean_defined([per_class[n] for n in curr]) if curr else None,
        map_both=_mean_defined([per_class[n] for n in known]),
        u_recall=u_recall(dets, gts, known, iou_thr),
        wi=wi,
        a_ose=a_ose(dets, gts, known, iou_thr),
        per_class_ap=per_class,
        config_echo=config_echo or {},
    )


def write_report_json(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


REPORT_CSV_HEADER = "task_id,map_prev,map_curr,map_both,u_recall,wi,a_ose"


def csv_cell(v) -> str:
    """A report value as a CSV cell: empty when undefined, floats exact."""
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


def report_csv_row(report: EvalReport) -> str:
    return ",".join([
        str(report.task_id), csv_cell(report.map_prev), csv_cell(report.map_curr),
        csv_cell(report.map_both), csv_cell(report.u_recall), csv_cell(report.wi),
        str(report.a_ose),
    ])


def write_report_csv(path, reports: list[EvalReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        for report in reports:
            fh.write(report_csv_row(report) + "\n")


def render_report(report: EvalReport) -> str:
    """Human-readable summary; undefined metrics render as an em-free dash."""
    def show(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    lines = [
        f"task {report.task_id}",
        f"  mAP previously known: {show(report.map_prev)}",
        f"  mAP currently known:  {show(report.map_curr)}",
        f"  mAP both:             {show(report.map_both)}",
        f"  U-Recall:             {show(report.u_recall)}",
        f"  WI:                   {show(report.wi)}",
        f"  A-OSE:                {report.a_ose}",
    ]
    return "\n".join(lines)

"""Open-world detection metrics: greedy matching, AP/mAP, unknown recall,
wilderness impact, and absolute open-set error.

An eval takes a detections file as columns (`detection.DetectionTable`) and
computes the IoU of every detection against every ground-truth box of its
scene once, in one `detection.box_iou` pass over the paired rows, and
keeps only the pairs that can match (`find_overlaps`). The greedy claims,
the AP envelope and recall steps and the WI operating point stay plain
Python in the canonical order (-confidence, scene_id, index), but walk
only those pairs: a detection without one is a miss that costs no Python
work. Results are reproducible bit-for-bit and equal brute-force oracles
exactly. AP is all-point interpolated at IoU 0.5. Undefined metrics are
reported as None (JSON null), never as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .detection import DetectionTable, box_iou, read_box_columns
from .errors import (ConfigError, DuplicateClass, MissingWorld, ParseError,
                     UndefinedOperatingPoint, dump_json, read_json, write_json)

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
    """Every record of a ground-truth file; malformed records raise
    `ParseError` as `detection.read_box_columns` describes."""
    texts, boxes, _ = read_box_columns(path, ("scene_id", "class_name"), (),
                                       "ground-truth")
    return [GtRecord(scene_id, tuple(box), class_name) for scene_id, box, class_name
            in zip(texts["scene_id"], boxes.tolist(), texts["class_name"])]


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
        raise ConfigError(f"no task {task_id}; the task split has tasks "
                          f"{', '.join(str(t) for t, _ in self.tasks) or 'none'}")

    def previous_classes(self, task_id: int) -> tuple[str, ...]:
        out: list[str] = []
        for t, names in self.tasks:
            if t < task_id:
                out.extend(names)
        return tuple(out)

    def known_classes(self, task_id: int) -> tuple[str, ...]:
        return self.previous_classes(task_id) + self.current_classes(task_id)


def save_task_split(path, split: TaskSplitSpec) -> None:
    write_json(path, {str(t): list(names) for t, names in split.tasks})


def _split_from_json(raw) -> TaskSplitSpec:
    if not isinstance(raw, dict) or not all(
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            for names in raw.values()):
        raise ParseError("not an object of task id -> list of class names")
    try:
        return TaskSplitSpec(tasks=tuple(sorted((int(t), tuple(names))
                                                for t, names in raw.items())))
    except DuplicateClass as exc:
        raise ParseError(str(exc)) from exc


def load_task_split(path) -> TaskSplitSpec:
    """The split `save_task_split` wrote; a file that is not one raises
    `ParseError` naming it."""
    return read_json(path, "task split", _split_from_json, MissingWorld, "; run gen first")


# ---------------------------------------------------------------------------
# matching: which detections can claim which ground-truth boxes


@dataclass(frozen=True, eq=False)
class Overlaps:
    """One eval's detections and ground truth, reduced to what the greedy
    claims read: each detection's label and rank in the canonical order
    (-confidence, scene_id, index), each box's class, and every
    (detection, box) pair that can match, i.e. in one scene with IoU at or
    above the threshold and above zero. Pairs are sorted by detection rank,
    then descending IoU, then box index: the order in which a detection
    prefers its boxes. Labels and classes share one name table."""

    codes: dict[str, int]    # class or label name -> code
    det_label: np.ndarray    # (n,) label code of each detection
    det_rank: np.ndarray     # (n,) rank of each detection
    gt_class: np.ndarray     # (g,) class code of each box
    pair_rank: np.ndarray    # (p,) rank of the pair's detection
    pair_gt: np.ndarray      # (p,) the pair's box index
    pair_label: np.ndarray   # (p,) label code of the pair's detection
    pair_class: np.ndarray   # (p,) class code of the pair's box

    def known_mask(self, known_names) -> np.ndarray:
        """Over the codes: True for the names in `known_names`."""
        known = set(known_names)
        return np.array([name in known for name in self.codes], dtype=bool)


def find_overlaps(dets: DetectionTable, gts: list[GtRecord],
                  iou_thr: float = 0.5) -> Overlaps:
    """The `Overlaps` of a detections table against ground-truth records."""
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


def _claim_walk(ranks: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Indices of the claiming pairs among pairs listed by detection rank,
    each detection's pairs in its order of preference: every detection
    claims the first box of its pairs that no earlier detection took.
    Detections without a pair cost nothing here."""
    taken: set[int] = set()
    claims: list[int] = []
    last = -1
    for i, (rank, g) in enumerate(zip(ranks.tolist(), gts.tolist())):
        if rank != last and g not in taken:
            taken.add(g)
            claims.append(i)
            last = rank
    return np.array(claims, dtype=np.int64)


def _claiming_ranks(ov: Overlaps, pairs: np.ndarray) -> np.ndarray:
    """Ranks of the detections that claim a box through the `pairs` mask."""
    ranks = ov.pair_rank[pairs]
    return ranks[_claim_walk(ranks, ov.pair_gt[pairs])]


# ---------------------------------------------------------------------------
# average precision


def average_precision(tp_positions: list[int], n_gt: int) -> float:
    """All-point interpolated AP over a confidence-ranked detection list,
    given the 0-based positions of its true positives and `n_gt` >= 1.

    Precision only rises at a true positive, so the envelope and the recall
    steps need only those positions; the fold is plain Python, in list
    order, so the result carries the same bits as the full-list fold.
    """
    precisions = [tp / (pos + 1) for tp, pos in enumerate(tp_positions, start=1)]
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i + 1] > precisions[i]:
            precisions[i] = precisions[i + 1]
    ap = 0.0
    prev_recall = 0.0
    for tp, p in enumerate(precisions, start=1):
        recall = tp / n_gt
        ap += (recall - prev_recall) * p
        prev_recall = recall
    return ap


def class_average_precision(ov: Overlaps, class_name: str):
    """AP for one class pooled over scenes (greedy matching per scene).

    None when the class has neither ground truth nor detections; 0.0 when
    it has detections but no ground truth.
    """
    code = ov.codes.get(class_name, -1)
    n_gt = int(np.count_nonzero(ov.gt_class == code))
    ranked = np.sort(ov.det_rank[ov.det_label == code])
    if n_gt == 0:
        return 0.0 if len(ranked) else None
    claims = _claiming_ranks(ov, (ov.pair_label == code) & (ov.pair_class == code))
    return average_precision(np.searchsorted(ranked, claims).tolist(), n_gt)


def u_recall(ov: Overlaps, known_names):
    """Fraction of unknown ground-truth boxes covered by unknown-labeled
    detections; all unknown classes pool into one. None without unknown GT."""
    known = ov.known_mask(known_names)
    n_unknown = int(np.count_nonzero(~known[ov.gt_class]))
    if not n_unknown:
        return None
    unknown_label = ov.codes.get(UNKNOWN_NAME, -1)
    pairs = (ov.pair_label == unknown_label) & ~known[ov.pair_class]
    return len(_claiming_ranks(ov, pairs)) / n_unknown


def a_ose(ov: Overlaps, known_names) -> int:
    """Count of unknown ground-truth boxes claimed by known-labeled
    detections (greedy by confidence, one claim per box)."""
    known = ov.known_mask(known_names)
    return len(_claiming_ranks(ov, known[ov.pair_label] & ~known[ov.pair_class]))


def wilderness_impact(ov: Overlaps, known_names, recall_level: float = 0.8) -> float:
    """Closed-set over open-set precision, minus one, at the first
    operating point reaching the recall level.

    Known-labeled detections are ranked by confidence; each is a true
    positive (matches its own class), an unknown hit (matches an unknown
    box; ignored by closed-set precision, a false positive in the open
    set), or a plain false positive. The operating point is the shortest
    prefix whose known recall reaches `recall_level`; a level of zero or
    below would be the empty prefix, whose precision is undefined.
    """
    known = ov.known_mask(known_names)
    n_known = int(np.count_nonzero(known[ov.gt_class]))
    if n_known == 0:
        raise UndefinedOperatingPoint("no known ground truth in split")
    if not recall_level > 0.0:
        raise UndefinedOperatingPoint(f"recall level {recall_level} is not positive")
    ranked = np.sort(ov.det_rank[known[ov.det_label]])
    gt_known = known[ov.pair_class]
    pairs = known[ov.pair_label] & (~gt_known | (ov.pair_label == ov.pair_class))
    # a detection tries the boxes of its own class before the unknown ones
    ranks, hits_unknown = ov.pair_rank[pairs], ~gt_known[pairs]
    pref = np.lexsort((np.arange(len(ranks)), hits_unknown, ranks))
    ranks, hits_unknown = ranks[pref], hits_unknown[pref]
    claims = _claim_walk(ranks, ov.pair_gt[pairs][pref])
    tp = 0
    fp_unknown = 0
    for pos, unknown_hit in zip(np.searchsorted(ranked, ranks[claims]).tolist(),
                                hits_unknown[claims].tolist()):
        if unknown_hit:
            fp_unknown += 1
            continue
        tp += 1
        if tp / n_known >= recall_level:
            fp_closed = pos + 1 - tp - fp_unknown
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


def evaluate_task(dets: DetectionTable, gts: list[GtRecord], task_split: TaskSplitSpec,
                  task_id: int, iou_thr: float = 0.5, recall_level: float = 0.8,
                  config_echo: dict | None = None) -> EvalReport:
    """All metrics for one task: mAP split into previously/currently known,
    pooled unknown recall, wilderness impact, and open-set error count."""
    prev = task_split.previous_classes(task_id)
    curr = task_split.current_classes(task_id)
    known = prev + curr
    ov = find_overlaps(dets, gts, iou_thr)
    per_class = {name: class_average_precision(ov, name) for name in known}
    try:
        wi = wilderness_impact(ov, known, recall_level)
    except UndefinedOperatingPoint:
        wi = None
    return EvalReport(
        task_id=task_id,
        map_prev=_mean_defined([per_class[n] for n in prev]) if prev else None,
        map_curr=_mean_defined([per_class[n] for n in curr]) if curr else None,
        map_both=_mean_defined([per_class[n] for n in known]),
        u_recall=u_recall(ov, known),
        wi=wi,
        a_ose=a_ose(ov, known),
        per_class_ap=per_class,
        config_echo=config_echo or {},
    )


def write_report_json(fh, report: EvalReport) -> None:
    dump_json(report.to_dict(), fh)


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


def write_report_csv(fh, reports: list[EvalReport]) -> None:
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

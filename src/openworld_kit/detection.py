"""Cosine-similarity detection head, OOD gating, box IoU, and NMS.

Inference walks each pyramid location: confidences are sigmoids of scaled
cosine similarity against the prompt matrix, the argmax class (ties to the
lower index) emits the location's box field when above threshold, the OOD
gate relabels suspicious known detections to unknown, and greedy NMS prunes
overlaps. A scene's detections travel as one structure of arrays
(`Detections`), so each step is a few array passes rather than one Python
object per candidate. Everything is deterministic for a fixed pyramid and
prompt set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import zlib
from contextlib import suppress
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (MissingInput, ParseError, ShapeMismatch, SourceOutOfRange,
                     UnwritableOutput, ZeroVector, atomic_text_file)
from .pyramid import FeaturePyramid

UNKNOWN_CLASS_ID = -1

Box = tuple[float, float, float, float]


class Detection(NamedTuple):
    """One row of `Detections` as a record, for code that walks detections
    one at a time. Inference itself never builds one."""

    box: Box
    label: int              # known class index, or UNKNOWN_CLASS_ID
    confidence: float
    source: tuple[int, int, int]  # (layer, row, col)
    ood: float = 0.0

    @property
    def is_unknown(self) -> bool:
        return self.label == UNKNOWN_CLASS_ID


@dataclass(frozen=True, eq=False)
class Detections:
    """One scene's detections as parallel arrays, row i being detection i."""

    boxes: np.ndarray       # (n, 4) float64 (x1, y1, x2, y2)
    labels: np.ndarray      # (n,) int64 known class index, or UNKNOWN_CLASS_ID
    confidence: np.ndarray  # (n,) float64
    ood: np.ndarray         # (n,) float64 OOD score at the source location
    source: np.ndarray      # (n, 3) int64 (layer, row, col)

    @classmethod
    def from_rows(cls, rows) -> Detections:
        """The columns of a sequence of `Detection` rows, in that order."""
        return cls(
            boxes=np.array([d.box for d in rows], dtype=np.float64).reshape(-1, 4),
            labels=np.array([d.label for d in rows], dtype=np.int64),
            confidence=np.array([d.confidence for d in rows], dtype=np.float64),
            ood=np.array([d.ood for d in rows], dtype=np.float64),
            source=np.array([d.source for d in rows], dtype=np.int64).reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        """The rows as `Detection` records, in order."""
        for box, label, conf, source, ood in zip(
                self.boxes.tolist(), self.labels.tolist(), self.confidence.tolist(),
                self.source.tolist(), self.ood.tolist()):
            yield Detection(tuple(box), label, conf, tuple(source), ood)

    def take(self, idx) -> Detections:
        """The rows `idx` (an index array or a boolean mask), in that order."""
        return Detections(self.boxes[idx], self.labels[idx], self.confidence[idx],
                          self.ood[idx], self.source[idx])


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
) -> Detections:
    """One candidate detection per location whose argmax confidence clears
    the threshold, in (layer, row, col) order. Rows past `num_known` carry
    the unknown label. Ties go to the lower row index (argmax convention),
    so known beats unknown. OOD scores are zero until the gate fills them."""
    if len(class_scores) != len(pyramid.layers):
        raise ShapeMismatch("scores and pyramid disagree on layer count")
    parts = []
    for j, (scores, boxes) in enumerate(zip(class_scores, pyramid.box_field)):
        if scores.shape[:2] != boxes.shape[:2]:
            raise ShapeMismatch("scores and pyramid disagree on grid shape")
        best_idx = np.argmax(scores, axis=-1)
        best_conf = np.take_along_axis(scores, best_idx[..., None], axis=-1)[..., 0]
        row, col = np.nonzero(best_conf >= conf_threshold)
        idx = best_idx[row, col]
        parts.append((boxes[row, col], np.where(idx < num_known, idx, UNKNOWN_CLASS_ID),
                      best_conf[row, col], np.column_stack((np.full_like(row, j), row, col))))
    boxes, labels, conf, source = (np.concatenate(column) for column in zip(*parts))
    return Detections(boxes=boxes.astype(np.float64), labels=labels.astype(np.int64),
                      confidence=conf.astype(np.float64), ood=np.zeros(len(labels)),
                      source=source.astype(np.int64))


def apply_ood_gate(
    dets: Detections,
    ood_layers: list[np.ndarray],
    theta: float,
) -> Detections:
    """Fill each detection's OOD score from its source location in the
    per-layer (H, W) score grids and convert known detections scoring above
    `theta` into unknowns.

    Boxes and confidences are never touched; unknown-labeled detections
    pass through unchanged.
    """
    if not len(dets):
        return dets
    layer, row, col = dets.source.T
    shapes = np.array([grid.shape for grid in ood_layers], dtype=np.int64).reshape(-1, 2)
    outside = (layer < 0) | (layer >= len(shapes))
    if not outside.any():
        height, width = shapes[layer].T
        outside = (row < 0) | (row >= height) | (col < 0) | (col >= width)
    if outside.any():
        bad = tuple(dets.source[np.argmax(outside)].tolist())
        raise SourceOutOfRange(f"detection source {bad} outside map")
    sizes = shapes.prod(axis=1)
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate([grid.ravel() for grid in ood_layers])
    score = flat[starts[layer] + row * width + col]
    gated = (dets.labels != UNKNOWN_CLASS_ID) & (score > theta)
    return replace(dets, labels=np.where(gated, UNKNOWN_CLASS_ID, dets.labels), ood=score)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes `a` against boxes `b` ((..., 4) arrays of x1, y1, x2, y2),
    broadcast over their leading axes: two (p, 4) arrays give p paired IoUs,
    `boxes[:, None]` against `boxes[None, :]` the (m, m) matrix.

    Each IoU is `inter / (area_a + area_b - inter)` with the float64
    operations in that scalar order, the widths clipped at 0 (`fmax` maps
    NaN to 0) and 0 wherever `inter <= 0`. IEEE `+`, `min` and `max`
    commute, so the matrix is bitwise symmetric. Built in place: the matrix
    form holds at most three (m, m) float arrays at once."""
    inter = np.minimum(a[..., 2], b[..., 2])
    tmp = np.maximum(a[..., 0], b[..., 0])
    np.subtract(inter, tmp, out=inter)
    np.fmax(inter, 0.0, out=inter)          # iw
    np.minimum(a[..., 3], b[..., 3], out=tmp)
    np.subtract(tmp, np.maximum(a[..., 1], b[..., 1]), out=tmp)
    np.fmax(tmp, 0.0, out=tmp)              # ih
    np.multiply(inter, tmp, out=inter)
    np.add((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]),
           (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]), out=tmp)
    np.subtract(tmp, inter, out=tmp)        # union
    empty = inter <= 0.0
    np.divide(inter, tmp, out=tmp, where=~empty)
    tmp[empty] = 0.0
    return tmp


def nms(dets: Detections, iou_threshold: float = 0.7,
        class_wise: bool = True) -> Detections:
    """Greedy suppression by descending confidence. `dets` may also be a
    sequence of `Detection` rows.

    A detection survives iff its IoU with every kept detection (of the same
    label when `class_wise`; unknown counts as its own class) stays below
    the threshold. Confidence ties keep the earlier index. The survivors
    come back in visiting order. The result equals the scalar greedy loop
    over pairwise IoU, with `box_iou` run only on the same-group pairs
    whose x-ranges overlap: any other pair of finite boxes has IoU exactly
    0, which suppresses only at a threshold <= 0. At such a threshold, or
    with a non-finite box, every same-group pair is scored.
    """
    if not isinstance(dets, Detections):
        dets = Detections.from_rows(dets)
    n = len(dets)
    if n == 0:
        return dets
    order = np.argsort(-dets.confidence, kind="stable")   # (-confidence, index)
    boxes = dets.boxes[order]
    groups = dets.labels[order] if class_wise else np.zeros(n, dtype=np.int64)
    # positions sorted by (group, x1); each pair is found from its first
    # position, as the later positions of the group up to `end`
    by_x = np.lexsort((boxes[:, 0], groups))
    gid = np.unique(groups, return_inverse=True)[1][by_x]   # ascending
    if iou_threshold > 0 and np.isfinite(boxes).all():
        # only those with x1_b < x2_a, since otherwise the pair has no
        # width. With rank(v) the count of x1 values below v, the keys
        # gid * (n + 1) + rank(x1) below gid_a * (n + 1) + rank(x2_a) are
        # those of the earlier groups and of a's candidates
        x1 = np.sort(boxes[:, 0])
        key = gid * (n + 1) + np.searchsorted(x1, boxes[by_x, 0])
        end = np.searchsorted(key, gid * (n + 1) + np.searchsorted(x1, boxes[by_x, 2]))
    else:
        end = np.searchsorted(gid, gid, side="right")
    count = np.maximum(end - np.arange(1, n + 1), 0)
    first = np.repeat(np.arange(n), count)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    # each pair as (earlier, later) in visiting order, the matrix's [i, j], i < j
    earlier = np.minimum(by_x[first], by_x[second])
    later = np.maximum(by_x[first], by_x[second])
    # `>=`, never keep-if-`<`: a NaN IoU suppresses nothing
    hit = box_iou(boxes[earlier], boxes[later]) >= iou_threshold
    earlier, later = earlier[hit], later[hit]
    walk = np.argsort(earlier, kind="stable")
    # every edge into a box leaves an earlier box, so it is decided by then
    alive = [True] * n
    for e, l in zip(earlier[walk].tolist(), later[walk].tolist()):
        if alive[e]:
            alive[l] = False
    return dets.take(order[np.array(alive)])


# ---------------------------------------------------------------------------
# detection file format: JSON lines, one object per detection, keys sorted;
# beside it, a column file holding the table those lines parse to

# the bytes json.JSONEncoder(sort_keys=True) writes, every value encoded
_LINE = ('{"confidence": %s, "label": %s, "ood": %s, "scene_id": %s, '
         '"x1": %s, "x2": %s, "y1": %s, "y2": %s}\n')


def _json_float(v: float) -> str:
    # json writes NaN / Infinity / -Infinity where repr writes nan / inf / -inf
    return repr(v) if isfinite(v) else json.dumps(v)


def label_texts(label_names: list[str]) -> dict[int, str]:
    """Label id -> its encoded JSON string, `unknown` included."""
    texts = {i: encode_basestring_ascii(name) for i, name in enumerate(label_names)}
    texts[UNKNOWN_CLASS_ID] = encode_basestring_ascii("unknown")
    return texts


def format_detection_lines(scene_id: str, dets: Detections,
                           labels: dict[int, str]) -> tuple[str, Detections]:
    """The scene's JSONL lines, and `dets` with each box as the lines hold
    it: coordinates are `round(v, 4)`."""
    scene = encode_basestring_ascii(scene_id)
    # each distinct coordinate rounded and formatted once: distinct by bit
    # pattern, so -0.0 and 0.0 stay apart (every NaN writes NaN)
    bits, inverse = np.unique(np.asarray(dets.boxes, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    rounded = [round(v, 4) for v in bits.view(np.float64).tolist()]
    inverse = inverse.reshape(-1, 4)
    texts = np.array([_json_float(v) for v in rounded], dtype=object)
    x1, y1, x2, y2 = texts[inverse].T.tolist()
    rows = zip(map(_json_float, dets.confidence.tolist()),
               map(labels.__getitem__, dets.labels.tolist()),
               map(_json_float, dets.ood.tolist()), [scene] * len(dets), x1, x2, y1, y2)
    boxes = np.array(rounded, dtype=np.float64)[inverse]
    return "".join([_LINE % row for row in rows]), replace(dets, boxes=boxes)


def columns_path(path) -> Path:
    """The column file beside the detections file at `path`."""
    return Path(f"{path}.columns")


def write_detections_jsonl(path, scene_lines: list[str], table: DetectionTable) -> None:
    """Write each scene's `format_detection_lines` text to `path`, in
    order, whole or not at all; then `table`, the records of those lines
    (`DetectionTable.from_scenes`), to the column file beside it, whole or
    not at all, keyed by the SHA-256 of the lines' bytes.

    The column file only spares `read_detections_jsonl` the parse: a table
    that the parse would refuse (a value that is not finite, say) writes
    none and removes an old one, and a column file that cannot be written
    leaves the detections file the one output."""
    digest = hashlib.sha256()
    with atomic_text_file(path, binary=True) as fh:
        for lines in scene_lines:
            data = lines.encode("utf-8")
            digest.update(data)
            fh.write(data)
    stored = columns_path(path)
    with suppress(OSError, UnwritableOutput):
        if _usable(table):
            with atomic_text_file(stored, binary=True) as fh:
                _write_columns(fh, table, digest.hexdigest())
        else:
            stored.unlink(missing_ok=True)


@dataclass(frozen=True)
class DetectionRecord:
    """One row of a `DetectionTable` as a record (label by name)."""

    scene_id: str
    box: Box
    label: str
    confidence: float
    ood: float


def _codes(names: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct names in first-seen order and each name's index there."""
    index: dict[str, int] = {}
    codes = [index.setdefault(name, len(index)) for name in names]
    return list(index), np.array(codes, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """A detections file as columns, row i being record i of the file."""

    scene_names: list[str]
    scenes: np.ndarray      # (n,) int64 index into scene_names
    label_names: list[str]  # class names, `unknown` included when present
    labels: np.ndarray      # (n,) int64 index into label_names
    boxes: np.ndarray       # (n, 4) float64 (x1, y1, x2, y2)
    confidence: np.ndarray  # (n,) float64
    ood: np.ndarray         # (n,) float64

    @classmethod
    def from_columns(cls, scene_ids: list[str], labels: list[str], boxes, confidence,
                     ood) -> DetectionTable:
        scene_names, scenes = _codes(scene_ids)
        label_names, label_codes = _codes(labels)
        return cls(scene_names, scenes, label_names, label_codes,
                   np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                   np.asarray(confidence, dtype=np.float64),
                   np.asarray(ood, dtype=np.float64))

    @classmethod
    def from_scenes(cls, scene_ids: list[str], scenes: list[Detections],
                    class_names: list[str]) -> DetectionTable:
        """The table that the parse reads from the lines of `scenes` of
        `scene_ids`, in order (each with the boxes `format_detection_lines`
        hands back), labelled by `class_names` and `unknown`: the names and
        codes of `from_columns`, found without a loop over the rows."""
        counts = [len(dets) for dets in scenes]
        scene_names, codes = _codes([s for s, n in zip(scene_ids, counts) if n])
        label_ids = np.concatenate([np.empty(0, np.int64), *(d.labels for d in scenes)])
        distinct, first, inverse = np.unique(label_ids, return_index=True, return_inverse=True)
        order = np.argsort(first)           # the distinct ids in first-seen order
        names = dict(enumerate(class_names)) | {UNKNOWN_CLASS_ID: "unknown"}
        label_names, label_codes = _codes([names[i] for i in distinct[order].tolist()])
        by_distinct = np.empty_like(label_codes)
        by_distinct[order] = label_codes
        return cls(scene_names, np.repeat(codes, [n for n in counts if n]), label_names,
                   by_distinct[inverse.ravel()],
                   np.concatenate([np.empty((0, 4)), *(d.boxes for d in scenes)]),
                   np.concatenate([np.empty(0), *(d.confidence for d in scenes)]),
                   np.concatenate([np.empty(0), *(d.ood for d in scenes)]))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        """The rows as `DetectionRecord`s, in order."""
        for scene, box, label, conf, ood in zip(
                self.scenes.tolist(), self.boxes.tolist(), self.labels.tolist(),
                self.confidence.tolist(), self.ood.tolist()):
            yield DetectionRecord(self.scene_names[scene], tuple(box),
                                  self.label_names[label], conf, ood)


_DECODER = json.JSONDecoder()


def _loads(line: str):
    """`json.loads(line.strip())`. A line that is one JSON value and its
    newline, as every line the writers emit is, goes to `raw_decode` alone,
    skipping the strip and the whitespace scans and calls of `json.loads`."""
    try:
        obj, end = _DECODER.raw_decode(line)
        if line[end:].isspace():
            return obj
    except ValueError:
        pass
    return json.loads(line.strip())


def _record_line(path, index: int) -> int:
    """The line number of record `index` (blank lines hold no record)."""
    with open(path, "r", encoding="utf-8") as fh:
        records = (lineno for lineno, line in enumerate(fh, start=1)
                   if not line.isspace())
        return next(itertools.islice(records, index, None))


def _first(values: list, ok) -> int:
    return next(i for i, v in enumerate(values) if not ok(v))


def _fits_float(v) -> bool:
    try:
        float(v)
    except OverflowError:
        return False
    return True


def read_box_columns(path, text: tuple[str, ...], numbers: tuple[str, ...], what: str,
                     defaults: dict[str, float] | None = None):
    """The columns of a JSON-lines file of boxed records, one object per
    line (blank lines skipped): `(texts, boxes, values)`, a list of strings
    per `text` key, the `x1, y1, x2, y2` fields as an (n, 4) float64 array
    and a float64 array per `numbers` key (`defaults` fills numbers a record
    may omit).

    A line that is not such an object, a string field that is not a JSON
    string, a number that is not a JSON int or float (`true` is not one) or
    is not finite, and a box with x2 < x1 or y2 < y1 or whose area is not
    finite raise `ParseError` naming the line. Types are checked once per
    column after the read."""
    defaults = defaults or {}
    keys = (*text, "x1", "y1", "x2", "y2", *numbers)
    columns = {key: [] for key in keys}
    required = [(key, columns[key].append) for key in keys if key not in defaults]
    optional = [(key, value, columns[key].append) for key, value in defaults.items()]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    obj = _loads(line)
                    for key, append in required:
                        append(obj[key])
                    for key, value, append in optional:
                        append(obj.get(key, value))
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise ParseError(f"bad {what} record: {exc}",
                                     path=str(path), line=lineno) from exc
    except FileNotFoundError as exc:
        raise MissingInput(f"no {what} file at {path}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file is not UTF-8: {exc}", path=str(path)) from exc
    except OSError as exc:  # a directory, say
        raise ParseError(f"cannot read {what} file: {exc.strerror or exc}",
                         path=str(path)) from exc

    def reject(key, index, problem):
        raise ParseError(f"bad {what} record: {key} {problem}",
                         path=str(path), line=_record_line(path, index))

    for key in text:
        if set(map(type, columns[key])) - {str}:
            reject(key, _first(columns[key], lambda v: type(v) is str), "is not a string")
    arrays = {}
    for key in keys[len(text):]:
        column = columns[key]
        if set(map(type, column)) - {int, float}:
            reject(key, _first(column, lambda v: type(v) in (int, float)),
                   "is not a number")
        try:
            values = np.array(column, dtype=np.float64)
        except OverflowError:
            reject(key, _first(column, _fits_float), "is too large for a float")
        finite = np.isfinite(values)
        if not finite.all():
            reject(key, int(np.argmin(finite)), "is not finite")
        arrays[key] = values
    boxes = np.column_stack([arrays.pop(key) for key in ("x1", "y1", "x2", "y2")])
    inverted = (boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1])
    if inverted.any():
        reject("box", int(np.argmax(inverted)), "has x2 < x1 or y2 < y1")
    finite = _finite_areas(boxes)
    if not finite.all():
        reject("box", int(np.argmin(finite)), "has an area that is not finite")
    return {key: columns[key] for key in text}, boxes, arrays


def _finite_areas(boxes: np.ndarray) -> np.ndarray:
    """Whether each box's area `(x2 - x1) * (y2 - y1)` is finite: `box_iou`
    scores a box whose area overflows against itself as NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]))


# the column file beside a detections file: an 8-byte little-endian header
# length, a sorted-key JSON header, each column's raw little-endian values in
# this order, then the little-endian CRC-32 of every byte before it
_COLUMNS_FORMAT = 1
_COLUMNS = (("scenes", np.int64, 1), ("labels", np.int64, 1), ("boxes", np.float64, 4),
            ("confidence", np.float64, 1), ("ood", np.float64, 1))
_ROW_BYTES = sum(8 * width for _, _, width in _COLUMNS)


def _little(dtype) -> np.dtype:
    return np.dtype(dtype).newbyteorder("<")


def _usable(table: DetectionTable) -> bool:
    """Whether the parse could return `table`: every code indexes its name
    list, every value is finite, and no box has x2 < x1 or y2 < y1 or an
    area that is not finite."""
    boxes = table.boxes
    return bool(all(len(codes) == 0 or (codes.min() >= 0 and codes.max() < len(names))
                    for codes, names in ((table.scenes, table.scene_names),
                                         (table.labels, table.label_names)))
                and np.isfinite(boxes).all() and np.isfinite(table.confidence).all()
                and np.isfinite(table.ood).all()
                and (boxes[:, 2] >= boxes[:, 0]).all() and (boxes[:, 3] >= boxes[:, 1]).all()
                and _finite_areas(boxes).all())


def _write_columns(fh, table: DetectionTable, jsonl_sha256: str) -> None:
    header = json.dumps({"format": _COLUMNS_FORMAT, "jsonl_sha256": jsonl_sha256,
                         "label_names": table.label_names, "rows": len(table),
                         "scene_names": table.scene_names}, sort_keys=True).encode("ascii")
    crc = 0
    for part in (len(header).to_bytes(8, "little"), header,
                 *(np.ascontiguousarray(getattr(table, name), _little(dtype))
                   for name, dtype, _ in _COLUMNS)):
        fh.write(part)
        crc = zlib.crc32(part, crc)
    fh.write(crc.to_bytes(4, "little"))


def _file_sha256(path) -> str:
    # in blocks: a buffer of the whole file is one large allocation, and
    # freeing it slowed the later stages of the same process
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _stored_table(path) -> DetectionTable | None:
    """The table in the column file beside `path` if that file is whole
    (its length and CRC-32), holds a usable table and records the SHA-256
    of the bytes of the detections file at `path`; otherwise None. It never
    raises: a missing, stale, torn or malformed column file only costs the
    parse."""
    try:
        with open(columns_path(path), "rb") as fh:
            length = os.fstat(fh.fileno()).st_size
            head = fh.read(8)
            size = int.from_bytes(head, "little")
            if size > length:
                return None
            text = fh.read(size)
            header = json.loads(text)
            rows, names = header["rows"], (header["scene_names"], header["label_names"])
            if (header["format"] != _COLUMNS_FORMAT or type(rows) is not int or rows < 0
                    or length != 8 + size + _ROW_BYTES * rows + 4
                    or any(type(n) is not list or set(map(type, n)) - {str} for n in names)):
                return None
            crc, columns = zlib.crc32(text, zlib.crc32(head)), {}
            for name, dtype, width in _COLUMNS:
                column = np.empty(rows * width, _little(dtype))
                fh.readinto(column)
                crc = zlib.crc32(column, crc)
                column = column.astype(dtype, copy=False)
                columns[name] = column.reshape(rows, width) if width > 1 else column
            if (crc != int.from_bytes(fh.read(4), "little")
                    or header["jsonl_sha256"] != _file_sha256(path)):
                return None
        table = DetectionTable(names[0], columns["scenes"], names[1], columns["labels"],
                               columns["boxes"], columns["confidence"], columns["ood"])
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return table if _usable(table) else None


def read_detections_jsonl(path) -> DetectionTable:
    """Every record of a detections file as one `DetectionTable`: the table
    of its column file when that file is whole and usable and records the
    SHA-256 of the file's bytes (`_stored_table`), otherwise the parse of
    the file, whose malformed records raise `ParseError` as
    `read_box_columns` describes."""
    table = _stored_table(path)
    if table is not None:
        return table
    texts, boxes, values = read_box_columns(
        path, ("scene_id", "label"), ("confidence", "ood"), "detection", {"ood": 0.0})
    return DetectionTable.from_columns(texts["scene_id"], texts["label"], boxes,
                                       values["confidence"], values["ood"])

"""Feature pyramids: stacked grids of location embeddings with image-plane
geometry, a per-location box field, and a binary blob format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import MissingInput, ParseError, ShapeMismatch

_MAGIC = b"OWKP"
_VERSION = 1


@dataclass(frozen=True)
class LayerGeometry:
    """One pyramid level: grid extent and the stride mapping cells to pixels."""

    height: int
    width: int
    stride: float


@dataclass(frozen=True)
class PyramidGeometry:
    """Layer geometries plus the box-size thresholds assigning boxes to levels.

    `level_thresholds` has one entry per layer boundary: a box with max side
    in [thresholds[j], thresholds[j+1]) belongs to layer j; the final
    boundary is +inf.
    """

    layers: tuple[LayerGeometry, ...]
    level_thresholds: tuple[float, ...]

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("a pyramid needs at least one layer")
        strides = [g.stride for g in self.layers]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must strictly increase, got {strides}")
        th = tuple(float(t) for t in self.level_thresholds)
        if len(th) != len(self.layers) + 1:
            raise ValueError("need len(layers)+1 level thresholds (last may be inf)")
        if any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError(f"level thresholds must strictly increase, got {th}")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "level_thresholds", th)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def owned_cells(self, boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells the (n, 4) `boxes` own, the one ownership rule of the
        toolkit: a box belongs to the layer j whose thresholds hold its max
        side, `thresholds[j] <= side < thresholds[j + 1]`, and owns that
        layer's cells whose centres lie in the half-open box [x1, x2) x
        [y1, y2).

        Returns each box's layer, then the owned (box, cell) pairs as two
        flat int64 arrays: box index ascending, each box's cells as row-major
        flat indices of its layer, ascending. A box whose side lies outside
        the threshold range raises `ValueError`, the first such box first."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        x1, y1, x2, y2 = boxes.T
        w, h = x2 - x1, y2 - y1
        side = np.where(h > w, h, w)   # Python's `max(w, h)`, NaN and all
        levels = np.searchsorted(self.level_thresholds, side, side="right") - 1
        outside = (levels < 0) | (levels >= self.num_layers)
        if np.logical_or.reduce(outside):
            raise ValueError(f"box side {float(side[np.argmax(outside)])} outside "
                             f"threshold range {self.level_thresholds}")
        # each box's level's k-th column (row) centre, (k + 0.5) * stride;
        # the centres inside a box's x- (y-) range are one run of columns
        # (rows): its first index and length
        height, width = np.array([(g.height, g.width) for g in self.layers],
                                 dtype=np.int64)[levels].T
        index = np.arange(max(max(g.height, g.width) for g in self.layers))
        centre = (index + 0.5) * np.array([g.stride for g in self.layers])[levels, None]
        cols = (centre >= x1[:, None]) & (centre < x2[:, None]) & (index < width[:, None])
        rows = (centre >= y1[:, None]) & (centre < y2[:, None]) & (index < height[:, None])
        ncol, nrow = np.add.reduce(cols, axis=1), np.add.reduce(rows, axis=1)
        counts = nrow * ncol
        box = np.repeat(np.arange(len(boxes)), counts)
        k = np.arange(box.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ncol = ncol[box]
        cells = ((rows.argmax(axis=1)[box] + k // ncol) * width[box]
                 + cols.argmax(axis=1)[box] + k % ncol)
        return levels, box, cells


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-layer (H, W, D) embedding grids plus a (H, W, 4) box field giving
    the box each location would emit. A pyramid read from a blob holds them
    as float32, a generated one as float64; every consumer computes in
    float64, widening float32 input exactly."""

    geometry: PyramidGeometry
    layers: tuple[np.ndarray, ...]
    box_field: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.layers) != self.geometry.num_layers:
            raise ShapeMismatch("layer count disagrees with geometry")
        if len(self.box_field) != self.geometry.num_layers:
            raise ShapeMismatch("box field count disagrees with geometry")
        dims = set()
        for g, feat, boxes in zip(self.geometry.layers, self.layers, self.box_field):
            if feat.ndim != 3 or feat.shape[:2] != (g.height, g.width):
                raise ShapeMismatch(
                    f"feature grid {feat.shape} does not match layer {g.height}x{g.width}")
            if boxes.shape != (g.height, g.width, 4):
                raise ShapeMismatch(f"box field {boxes.shape} must be (H, W, 4)")
            if np.logical_or.reduce(boxes[..., 2:] <= boxes[..., :2], axis=None):
                raise ValueError("box field contains degenerate boxes")
            dims.add(feat.shape[2])
        if len(dims) != 1:
            raise ShapeMismatch(f"all layers must share one embedding dim, got {dims}")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "box_field", tuple(self.box_field))


def write_pyramid_blob(path, pyramid: FeaturePyramid) -> None:
    """Serialize a pyramid as little-endian float32.

    Layout: magic, version, layer count; per layer a (H, W, D, stride)
    header; then per layer the feature grid followed by the box field,
    both row-major float32.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<ii", _VERSION, pyramid.geometry.num_layers))
        for g, feat in zip(pyramid.geometry.layers, pyramid.layers):
            fh.write(struct.pack("<iiif", g.height, g.width, feat.shape[2], g.stride))
        for feat, boxes in zip(pyramid.layers, pyramid.box_field):
            fh.write(np.ascontiguousarray(feat, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(boxes, dtype="<f4").tobytes())


def _read_exact(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ParseError(f"truncated pyramid blob: expected {size} more bytes, "
                         f"found {len(data)}", path=str(path))
    return data


def read_pyramid_blob(path, level_thresholds) -> FeaturePyramid:
    """Read a pyramid blob; thresholds come from the world manifest.

    After the header, exactly the grid bytes it declares are read into one
    float32 array, the precision they are stored at, which is checked for
    finite values; each layer's grids are views of it. Bytes past the
    declared grids are never read. A file that cannot be read (a directory,
    say) raises `ParseError` naming it; a missing one, `MissingInput`.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ParseError("not a pyramid blob (bad magic)", path=str(path))
            version, count = struct.unpack("<ii", _read_exact(fh, 8, path))
            if version != _VERSION:
                raise ParseError(f"unsupported blob version {version}", path=str(path))
            # every layer header in one read, of no more bytes than the file
            # holds; each whole header is checked before a short read is told
            length = os.fstat(fh.fileno()).st_size
            wanted = 16 * max(count, 0)
            data = fh.read(min(wanted, max(length - fh.tell(), 0)))
            headers = []
            whole = data[:len(data) - len(data) % 16]
            for h, w, d, stride in struct.iter_unpack("<iiif", whole):
                if min(h, w, d) < 1:
                    raise ParseError(f"non-positive grid size {h}x{w}x{d} in pyramid blob",
                                     path=str(path))
                headers.append((h, w, d, stride))
            if len(data) < wanted:
                raise ParseError(f"truncated pyramid blob: expected 16 more bytes, "
                                 f"found {len(data) % 16}", path=str(path))
            declared = sum(h * w * (d + 4) * 4 for h, w, d, _ in headers)
            held = length - fh.tell()
            if declared > held:
                raise ParseError(f"truncated pyramid blob: the header declares {declared} "
                                 f"bytes of grids, the file holds {held}", path=str(path))
            values = np.empty(declared // 4, dtype="<f4")
            found = fh.readinto(values)
            if found != declared:  # the file shrank since its size was read
                raise ParseError(f"truncated pyramid blob: expected {declared} more "
                                 f"bytes, found {found}", path=str(path))
    except FileNotFoundError as exc:
        raise MissingInput(f"no pyramid blob at {path}") from exc
    except OSError as exc:  # a directory, say
        raise ParseError(f"cannot read pyramid blob: {exc.strerror or exc}",
                         path=str(path)) from exc
    if not np.logical_and.reduce(np.isfinite(values)):
        raise ParseError("non-finite feature or box value in pyramid blob", path=str(path))
    feats: list[np.ndarray] = []
    boxes: list[np.ndarray] = []
    start = 0
    for h, w, d, _ in headers:
        feats.append(values[start:start + h * w * d].reshape(h, w, d))
        start += h * w * d
        boxes.append(values[start:start + h * w * 4].reshape(h, w, 4))
        start += h * w * 4
    try:
        geometry = PyramidGeometry(
            layers=tuple(LayerGeometry(h, w, float(s)) for h, w, _, s in headers),
            level_thresholds=tuple(level_thresholds),
        )
        return FeaturePyramid(geometry=geometry, layers=tuple(feats),
                              box_field=tuple(boxes))
    except ValueError as exc:  # bad strides or a degenerate box field
        raise ParseError(f"bad pyramid blob: {exc}", path=str(path)) from exc

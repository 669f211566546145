"""Feature pyramids: stacked grids of location embeddings with image-plane
geometry, a per-location box field, and a binary blob format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeMismatch

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

    def level_for_box(self, box: tuple[float, float, float, float]) -> int:
        x1, y1, x2, y2 = box
        side = max(x2 - x1, y2 - y1)
        th = self.level_thresholds
        for j in range(self.num_layers):
            if th[j] <= side < th[j + 1]:
                return j
        raise ValueError(f"box side {side} outside threshold range {th}")

    def owned_cells(self, box: tuple[float, float, float, float]) -> tuple[int, np.ndarray]:
        """The cells a box owns: its `level_for_box` layer, and the row-major
        flat indices of that layer's cells whose centres lie in the half-open
        box [x1, x2) x [y1, y2). The one ownership rule of the toolkit."""
        level = self.level_for_box(box)
        g = self.layers[level]
        x1, y1, x2, y2 = box
        cx = (np.arange(g.width, dtype=np.float64) + 0.5) * g.stride
        cy = (np.arange(g.height, dtype=np.float64) + 0.5) * g.stride
        cols = np.flatnonzero((cx >= x1) & (cx < x2))
        rows = np.flatnonzero((cy >= y1) & (cy < y2))
        return level, (rows[:, None] * g.width + cols).ravel()


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-layer (H, W, D) embedding grids plus a (H, W, 4) box field giving
    the box each location would emit."""

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
            if np.any(boxes[..., 2] <= boxes[..., 0]) or np.any(boxes[..., 3] <= boxes[..., 1]):
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

    After the header, exactly the grid bytes it declares are read, in one
    buffer that is checked for finite values and converted to float64 once;
    each layer's grids are views of it. Bytes past the declared grids are
    never read."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ParseError("not a pyramid blob (bad magic)", path=str(path))
        version, count = struct.unpack("<ii", _read_exact(fh, 8, path))
        if version != _VERSION:
            raise ParseError(f"unsupported blob version {version}", path=str(path))
        headers = []
        for _ in range(count):
            h, w, d, stride = struct.unpack("<iiif", _read_exact(fh, 16, path))
            if min(h, w, d) < 1:
                raise ParseError(f"non-positive grid size {h}x{w}x{d} in pyramid blob",
                                 path=str(path))
            headers.append((h, w, d, stride))
        declared = sum(h * w * (d + 4) * 4 for h, w, d, _ in headers)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared > held:
            raise ParseError(f"truncated pyramid blob: the header declares {declared} "
                             f"bytes of grids, the file holds {held}", path=str(path))
        values = np.frombuffer(_read_exact(fh, declared, path), dtype="<f4")
    if not np.isfinite(values).all():
        raise ParseError("non-finite feature or box value in pyramid blob", path=str(path))
    values = values.astype(np.float64)
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

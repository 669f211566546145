import os
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from openworld_kit.errors import MissingInput, ParseError, ShapeMismatch
from openworld_kit.pyramid import (
    FeaturePyramid,
    LayerGeometry,
    PyramidGeometry,
    read_pyramid_blob,
    write_pyramid_blob,
)

from oracles import (cell_box, layer_centers, location_count, oracle_level_for_box,
                     oracle_owned_cells)


def small_geometry():
    return PyramidGeometry(
        layers=(LayerGeometry(4, 4, 8.0), LayerGeometry(2, 2, 16.0)),
        level_thresholds=(0.0, 16.0, float("inf")),
    )


def random_pyramid(seed=0, dim=6):
    rng = np.random.default_rng(seed)
    geo = small_geometry()
    layers, boxes = [], []
    for g in geo.layers:
        layers.append(rng.normal(size=(g.height, g.width, dim)))
        cells = np.zeros((g.height, g.width, 4))
        for r in range(g.height):
            for c in range(g.width):
                cells[r, c] = cell_box(g, r, c)
        boxes.append(cells)
    return FeaturePyramid(geometry=geo, layers=tuple(layers), box_field=tuple(boxes))


# multiples of 4 land on the cell centres and edges of both layers
COORD = st.one_of(st.integers(-2, 12).map(lambda k: k * 4.0), st.floats(-8.0, 48.0))


class TestGeometry:
    def test_centers(self):
        g = LayerGeometry(2, 3, 10.0)
        cx, cy = layer_centers(g)
        np.testing.assert_array_equal(cx[0], [5.0, 15.0, 25.0])
        np.testing.assert_array_equal(cy[:, 0], [5.0, 15.0])

    def test_level_for_box_uses_max_side(self):
        geo = small_geometry()
        levels, _, _ = geo.owned_cells([(0, 0, 10, 4), (0, 0, 10, 20), (0, 0, 200, 10)])
        assert levels.tolist() == [0, 1, 1]

    @given(corner=st.tuples(COORD, COORD), size=st.tuples(COORD, COORD))
    @example(corner=(4.0, 4.0), size=(8.0, 8.0))  # edges on centres: (4, 4) in, (12, 12) out
    def test_owned_cells_is_the_centre_in_box_rule(self, corner, size):
        x1, y1 = corner
        x2, y2 = x1 + abs(size[0]), y1 + abs(size[1])
        geo = small_geometry()
        levels, box, cells = geo.owned_cells([(x1, y1, x2, y2)])
        assert levels.tolist() == [oracle_level_for_box(geo, (x1, y1, x2, y2))]
        assert (box == 0).all()
        g = geo.layers[levels[0]]
        expected = [r * g.width + c for r in range(g.height) for c in range(g.width)
                    if x1 <= (c + 0.5) * g.stride < x2 and y1 <= (r + 0.5) * g.stride < y2]
        assert cells.tolist() == expected

    # boxes whose edges lie on cell centres and cell edges, and whose sides
    # lie on the level threshold (16) or next to it
    EDGE = st.integers(-2, 12).map(lambda k: k * 4.0)
    SIDE = st.sampled_from([0.0, 4.0, 8.0, 15.999999999999998, 16.0, 16.000000000000004,
                            24.0, 40.0])

    @given(boxes=st.lists(st.tuples(EDGE, EDGE, SIDE, SIDE), max_size=8))
    def test_owned_cells_of_many_boxes_are_each_box_alone(self, boxes):
        geo = small_geometry()
        boxes = [(x, y, x + w, y + h) for x, y, w, h in boxes]
        levels, box, cells = geo.owned_cells(boxes)
        assert levels.dtype == box.dtype == cells.dtype == np.int64
        want = [oracle_owned_cells(geo, b) for b in boxes]
        assert levels.tolist() == [level for level, _ in want]
        assert box.tolist() == [i for i, (_, c) in enumerate(want) for _ in c]
        assert cells.tolist() == [k for _, c in want for k in c.tolist()]

    def test_owned_cells_names_the_first_box_outside_the_thresholds(self):
        geo = PyramidGeometry(layers=small_geometry().layers,
                              level_thresholds=(4.0, 16.0, 64.0))
        boxes = [(0.0, 0.0, 8.0, 8.0), (0.0, 0.0, 2.0, 3.0), (0.0, 0.0, 100.0, 1.0)]
        with pytest.raises(ValueError) as got:
            geo.owned_cells(boxes)
        with pytest.raises(ValueError) as want:
            oracle_owned_cells(geo, boxes[1])
        assert str(got.value) == str(want.value) == \
            "box side 3.0 outside threshold range (4.0, 16.0, 64.0)"

    def test_owned_cells_of_no_box(self):
        levels, box, cells = small_geometry().owned_cells(np.empty((0, 4)))
        assert levels.size == box.size == cells.size == 0

    def test_strides_must_increase(self):
        with pytest.raises(ValueError):
            PyramidGeometry(layers=(LayerGeometry(2, 2, 8.0), LayerGeometry(2, 2, 8.0)),
                            level_thresholds=(0.0, 16.0, float("inf")))

    def test_threshold_count(self):
        with pytest.raises(ValueError):
            PyramidGeometry(layers=(LayerGeometry(2, 2, 8.0),),
                            level_thresholds=(0.0,))


class TestFeaturePyramid:
    def test_shape_validation(self):
        geo = small_geometry()
        bad = [np.zeros((4, 4, 6)), np.zeros((3, 2, 6))]
        boxes = [np.tile([0, 0, 1, 1.0], (4, 4, 1)), np.tile([0, 0, 1, 1.0], (2, 2, 1))]
        with pytest.raises(ShapeMismatch):
            FeaturePyramid(geometry=geo, layers=tuple(bad), box_field=tuple(boxes))

    def test_degenerate_box_field_rejected(self):
        geo = small_geometry()
        layers = [np.zeros((4, 4, 6)), np.zeros((2, 2, 6))]
        boxes = [np.tile([0, 0, 1, 1.0], (4, 4, 1)), np.tile([1, 1, 1, 1.0], (2, 2, 1))]
        with pytest.raises(ValueError):
            FeaturePyramid(geometry=geo, layers=tuple(layers), box_field=tuple(boxes))

    def test_location_count(self):
        pyr = random_pyramid()
        assert location_count(pyr) == 16 + 4
        assert sum(g.shape[0] * g.shape[1] for g in pyr.layers) == 16 + 4


class TestBlobFormat:
    def test_round_trip_is_bit_identical(self, tmp_path):
        pyr = random_pyramid(seed=3)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        first = path.read_bytes()
        loaded = read_pyramid_blob(path, pyr.geometry.level_thresholds)
        write_pyramid_blob(path, loaded)
        assert path.read_bytes() == first

    def test_loaded_values_are_float32_cast_of_original(self, tmp_path):
        pyr = random_pyramid(seed=4)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        loaded = read_pyramid_blob(path, pyr.geometry.level_thresholds)
        for orig, back in zip(pyr.layers, loaded.layers):
            np.testing.assert_array_equal(back, orig.astype(np.float32).astype(np.float64))
        for g_orig, g_back in zip(pyr.geometry.layers, loaded.geometry.layers):
            assert g_orig.stride == g_back.stride
            assert (g_orig.height, g_orig.width) == (g_back.height, g_back.width)

    @pytest.mark.parametrize("tail", [b"x", struct.pack("<f", float("nan")) * 64])
    def test_bytes_after_the_grids_are_not_read(self, tmp_path, tail):
        # a trailing NaN would fail the finiteness check if it were read
        pyr = random_pyramid(seed=8)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        want = read_pyramid_blob(path, pyr.geometry.level_thresholds)
        path.write_bytes(path.read_bytes() + tail)
        got = read_pyramid_blob(path, pyr.geometry.level_thresholds)
        assert got.geometry == want.geometry
        for a, b in zip(got.layers + got.box_field, want.layers + want.box_field, strict=True):
            assert a.dtype == b.dtype == np.float32
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cut", [10, 1000])  # inside the header, inside layer 0
    def test_truncated_blob_is_a_parse_error(self, tmp_path, cut):
        pyr = random_pyramid(seed=5, dim=16)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ParseError, match="truncated"):
            read_pyramid_blob(path, pyr.geometry.level_thresholds)

    @pytest.mark.parametrize("where, value", [
        ("feature", float("nan")), ("feature", float("inf")), ("box", float("nan")),
        ("box", float("-inf")),
    ])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, where, value):
        pyr = random_pyramid(seed=6)
        layers, boxes = [g.copy() for g in pyr.layers], [b.copy() for b in pyr.box_field]
        (layers if where == "feature" else boxes)[1][1, 0, 0] = value
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, FeaturePyramid(pyr.geometry, tuple(layers), tuple(boxes)))
        with pytest.raises(ParseError, match="non-finite"):
            read_pyramid_blob(path, pyr.geometry.level_thresholds)

    def test_degenerate_box_field_is_a_parse_error(self, tmp_path):
        pyr = random_pyramid(seed=7)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        data = bytearray(path.read_bytes())
        # layer 0's first box starts after the 4 + 8 + 2 * 16 header bytes
        # and its 4 x 4 x 6 float32 features; set its x2 to its x1
        start = 4 + 8 + 2 * 16 + 4 * 4 * 6 * 4
        data[start + 8:start + 12] = data[start:start + 4]
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="degenerate"):
            read_pyramid_blob(path, pyr.geometry.level_thresholds)

    def one_layer_blob(self, tmp_path):
        pyr = FeaturePyramid(
            PyramidGeometry((LayerGeometry(2, 3, 8.0),), (0.0, float("inf"))),
            (np.ones((2, 3, 4)),), (np.tile([0.0, 0.0, 8.0, 8.0], (2, 3, 1)),))
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        return path, bytearray(path.read_bytes())

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["height", "width", "dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_grid_size_is_a_parse_error(self, tmp_path, field, value):
        path, data = self.one_layer_blob(tmp_path)
        # the layer header (H, W, D, stride) follows the magic, version and count
        data[12 + 4 * field:16 + 4 * field] = struct.pack("<i", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="non-positive grid size"):
            read_pyramid_blob(path, (0.0, float("inf")))

    def test_grid_larger_than_the_file_is_a_parse_error(self, tmp_path):
        # a 2^20 x 2^20 x 1 grid declares 2^42 bytes of features
        path, data = self.one_layer_blob(tmp_path)
        data[12:24] = struct.pack("<iii", 1 << 20, 1 << 20, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="declares"):
            read_pyramid_blob(path, (0.0, float("inf")))

    def test_blob_that_shrinks_after_its_size_is_read_is_a_parse_error(self, tmp_path,
                                                                        monkeypatch):
        # the file's size passes the check against the header, then the grid
        # read comes up short
        pyr = random_pyramid(seed=5, dim=16)
        path = tmp_path / "scene.pyr"
        write_pyramid_blob(path, pyr)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:size - 100])
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        grids = sum(g.height * g.width * (16 + 4) * 4 for g in pyr.geometry.layers)
        with pytest.raises(ParseError, match=f"truncated pyramid blob: expected {grids} more "
                                             f"bytes, found {grids - 100}"):
            read_pyramid_blob(path, pyr.geometry.level_thresholds)

    def test_directory_is_a_parse_error_and_a_missing_file_missing_input(self, tmp_path):
        with pytest.raises(ParseError, match=r"cannot read pyramid blob: Is a directory"):
            read_pyramid_blob(tmp_path, (0.0, 16.0, float("inf")))
        with pytest.raises(MissingInput, match="no pyramid blob at"):
            read_pyramid_blob(tmp_path / "none.pyr", (0.0, 16.0, float("inf")))

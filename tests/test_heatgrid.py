import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import endpoints
from oracles import full_sort_hotspots, reference_grid_counts
from trajstory.geo import BoundingBox, GeoPoint, meters_per_degree
from trajstory.geo import as_coords as coords
from trajstory.errors import ConfigurationError
from trajstory import heatgrid
from trajstory.heatgrid import (HeatGrid, build_grid, grid_files,
                                summarize_for_story, top_hotspots)

# GPS-realistic coordinates: microdegree grid, so no draw ever sits within
# float noise of a cell boundary
micro_lon = st.integers(-8_750_000, -8_450_000).map(lambda v: v / 1e6)
micro_lat = st.integers(41_000_000, 41_300_000).map(lambda v: v / 1e6)
micro_points = st.builds(GeoPoint, micro_lon, micro_lat)


class TestBuildGrid:
    @pytest.mark.parametrize("cell_size_m", [0.5, 1e-3, 1e-300])
    def test_refuses_an_oversized_grid_before_allocating(self, cell_size_m):
        import tracemalloc
        pts = coords([GeoPoint(-8.70, 41.10), GeoPoint(-8.55, 41.20)])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="raise cell_size_m"):
                build_grid(pts, cell_size_m=cell_size_m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("corner, cell_size_m", [
        ((179.9999, 89.9999), 250.0), ((-8.61, 41.15), 3e7)])
    def test_centers_stay_on_the_globe(self, corner, cell_size_m):
        pts = coords([GeoPoint(*corner), GeoPoint(corner[0] - 1e-4, corner[1] - 1e-4)])
        grid = build_grid(pts, cell_size_m=cell_size_m)
        spot, = top_hotspots(grid, 1)
        assert spot.center.lon <= 180.0 and spot.center.lat <= 90.0

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(heatgrid, "MAX_GRID_CELLS", 12)
        kx, ky = meters_per_degree(0.0)
        pts = coords([GeoPoint(0.0, 0.0)])
        # 4 x 3 cells of 100 m fit; 4 x 4 do not
        grid = build_grid(pts, 100.0, bbox=BoundingBox(0.0, 0.0, 350.0 / kx, 250.0 / ky))
        assert (grid.rows, grid.cols) == (3, 4)
        with pytest.raises(ConfigurationError):
            build_grid(pts, 100.0, bbox=BoundingBox(0.0, 0.0, 350.0 / kx, 350.0 / ky))

    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            build_grid(coords([GeoPoint(-8.6, 41.1)]), cell_size_m=0)

    def test_rejects_empty_without_bbox(self):
        with pytest.raises(ValueError):
            build_grid([])

    def test_single_point_makes_degenerate_grid(self):
        grid = build_grid(coords([GeoPoint(-8.6, 41.1)]))
        assert (grid.rows, grid.cols) == (1, 1)
        assert grid.counts[0, 0] == 1
        assert grid.total_in_bbox == 1
        assert grid.out_of_bbox == 0

    def test_explicit_bbox_counts_outsiders(self):
        box = BoundingBox(-8.62, 41.14, -8.60, 41.15)
        pts = [GeoPoint(-8.61, 41.145), GeoPoint(-8.59, 41.145),
               GeoPoint(-8.61, 41.16)]
        grid = build_grid(coords(pts), bbox=box)
        assert grid.total_in_bbox == 1
        assert grid.out_of_bbox == 2
        assert grid.counts.sum() == 1

    def test_bbox_corners_both_land_in_grid(self):
        box = BoundingBox(-8.62, 41.14, -8.60, 41.15)
        grid = build_grid(coords([GeoPoint(-8.62, 41.14), GeoPoint(-8.60, 41.15)]),
                          bbox=box)
        assert grid.counts[0, 0] == 1
        # the max edge closes the last cell instead of spilling out
        assert grid.counts[grid.rows - 1, grid.cols - 1] == 1
        assert grid.out_of_bbox == 0

    def test_cell_count_matches_metric_extent(self):
        # 0.02 deg of longitude at this latitude is ~1.7 km: 7 cells of 250 m
        box = BoundingBox(-8.62, 41.14, -8.60, 41.15)
        grid = build_grid(coords([GeoPoint(-8.61, 41.145)]), bbox=box)
        assert grid.cols == 7
        assert grid.rows == 5

    @given(points=st.lists(micro_points, min_size=1, max_size=200))
    def test_conservation_auto_bbox(self, points):
        grid = build_grid(coords(points))
        assert int(grid.counts.sum()) == len(points)
        assert grid.out_of_bbox == 0
        assert grid.total_in_bbox == len(points)

    @given(points=st.lists(micro_points, min_size=1, max_size=200))
    def test_conservation_with_clipping_bbox(self, points):
        box = BoundingBox(-8.70, 41.05, -8.55, 41.20)
        grid = build_grid(coords(points), bbox=box)
        assert int(grid.counts.sum()) + grid.out_of_bbox == len(points)

    @given(points=st.lists(micro_points, min_size=1, max_size=80),
           shift_milli=st.integers(-40, 40))
    def test_longitude_translation_preserves_counts(self, points, shift_milli):
        delta = shift_milli / 1e3
        moved = [GeoPoint(p.lon + delta, p.lat) for p in points]
        a = build_grid(coords(points))
        b = build_grid(coords(moved))
        assert (a.rows, a.cols) == (b.rows, b.cols)
        assert np.array_equal(a.counts, b.counts)

    @given(points=st.lists(micro_points, min_size=1, max_size=80),
           shift_milli=st.integers(-40, 40))
    def test_latitude_translation_preserves_totals(self, points, shift_milli):
        # cell edges are anchored in meters at the bbox center, so a
        # latitude shift rescales columns; only conservation survives
        delta = shift_milli / 1e3
        moved = [GeoPoint(p.lon, p.lat + delta) for p in points]
        b = build_grid(coords(moved))
        assert int(b.counts.sum()) + b.out_of_bbox == len(points)


    @given(points=st.lists(st.builds(GeoPoint, st.floats(-8.75, -8.45),
                                     st.floats(41.0, 41.3)), min_size=1, max_size=60),
           clip=st.booleans(), cell=st.sampled_from([50.0, 250.0, 333.3, 1000.0]))
    def test_counts_match_the_per_point_loop(self, points, clip, cell):
        # arbitrary floats, so draws land on and beside cell edges
        box = BoundingBox(-8.70, 41.05, -8.55, 41.20) if clip else None
        grid = build_grid(coords(points), cell_size_m=cell, bbox=box)
        counts, out = reference_grid_counts(points, grid.rows, grid.cols, grid.bbox, cell)
        assert grid.counts.tolist() == counts
        assert grid.out_of_bbox == out


class TestTopHotspots:
    def test_negative_k_rejected(self):
        grid = build_grid(coords([GeoPoint(-8.6, 41.1)]))
        with pytest.raises(ValueError):
            top_hotspots(grid, -1)

    def test_k_zero_and_k_beyond_nonzero_cells(self):
        grid = build_grid(coords([GeoPoint(-8.6, 41.1)]))
        assert top_hotspots(grid, 0) == []
        assert len(top_hotspots(grid, 10)) == 1

    def test_ranks_are_sequential_and_counts_descend(self, cluster_dataset):
        grid = build_grid(endpoints(cluster_dataset))
        spots = top_hotspots(grid, 8)
        assert [h.rank for h in spots] == list(range(1, len(spots) + 1))
        assert all(a.count >= b.count for a, b in zip(spots, spots[1:]))

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_full_sort_oracle(self, cluster_dataset, k):
        grid = build_grid(endpoints(cluster_dataset))
        got = [(h.cell_row, h.cell_col, h.count) for h in top_hotspots(grid, k)]
        assert got == full_sort_hotspots(grid, k)

    def test_equal_counts_tie_break_on_row_then_col(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[2, 0] = 4
        counts[0, 2] = 4
        counts[0, 1] = 4
        counts[1, 1] = 9
        grid = HeatGrid(bbox=BoundingBox(-8.7, 41.0, -8.5, 41.2),
                        cell_size_m=250.0, rows=3, cols=3, counts=counts,
                        total_in_bbox=21, out_of_bbox=0)
        order = [(h.cell_row, h.cell_col) for h in top_hotspots(grid, 4)]
        assert order == [(1, 1), (0, 1), (0, 2), (2, 0)]

    def test_hotspot_center_is_cell_center(self):
        grid = build_grid(coords([GeoPoint(-8.6, 41.1)]))
        spot = top_hotspots(grid, 1)[0]
        assert spot.center == grid.cell_center(spot.cell_row, spot.cell_col)


class TestSummary:
    def test_layout_and_share_arithmetic(self, cluster_dataset):
        grid = build_grid(endpoints(cluster_dataset))
        spots = top_hotspots(grid, 3)
        text = summarize_for_story(grid, spots)
        assert text == summarize_for_story(grid, spots)
        lines = text.splitlines()
        assert lines[0].startswith("area: lon [")
        assert lines[1] == f"grid: {grid.rows} x {grid.cols} cells of 250 m"
        assert lines[2] == f"trip endpoints in area: {grid.total_in_bbox} (outside: 0)"
        assert lines[3] == "busiest cells:"
        share = 100.0 * spots[0].count / grid.total_in_bbox
        assert f"share {share:.1f}%" in lines[4]

    def test_no_hotspot_section_when_empty(self):
        grid = build_grid(coords([GeoPoint(-8.6, 41.1)]))
        assert "busiest" not in summarize_for_story(grid, [])


class TestExport:
    def test_csv_and_meta_round_trip(self, cluster_dataset, tmp_path):
        grid = build_grid(endpoints(cluster_dataset))
        files = grid_files(grid)
        assert list(files) == ["grid.csv", "grid_meta.txt"]
        csv_path = tmp_path / "grid.csv"
        meta_path = tmp_path / "grid_meta.txt"
        csv_path.write_text(files["grid.csv"], encoding="utf-8")
        meta_path.write_text(files["grid_meta.txt"], encoding="utf-8")
        # the bytes np.savetxt wrote before the grid went through write_files
        saved = io.StringIO()
        np.savetxt(saved, grid.counts, fmt="%d", delimiter=",")
        assert files["grid.csv"] == saved.getvalue()
        back = np.loadtxt(csv_path, delimiter=",", dtype=np.int64, ndmin=2)
        assert np.array_equal(back, grid.counts)
        meta = dict(line.split(" = ") for line in
                    meta_path.read_text().strip().splitlines())
        assert int(meta["rows"]) == grid.rows
        assert int(meta["cols"]) == grid.cols
        assert float(meta["min_lon"]) == grid.bbox.min_lon
        assert int(meta["total_in_bbox"]) == grid.total_in_bbox

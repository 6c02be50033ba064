"""Aggregate trip endpoints into a counted grid and rank hotspot cells.

Counts, not kernel density: the story pipeline needs countable clusters
whose totals can be checked exactly. Cell indexing uses the local
equirectangular meter scale at the bbox center; a point exactly on a cell's
max edge belongs to the next cell, except on the bbox maximum edge, which
closes the last cell so that no in-bbox point is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .geo import BoundingBox, GeoPoint, bbox_of_coords, meters_per_degree

DEFAULT_CELL_SIZE_M = 250.0
MAX_GRID_CELLS = 10_000_000     # 80 MB of int64 counts


@dataclass
class HeatGrid:
    bbox: BoundingBox
    cell_size_m: float
    rows: int
    cols: int
    counts: np.ndarray          # shape (rows, cols), dtype int64
    total_in_bbox: int
    out_of_bbox: int

    def cell_center(self, row: int, col: int) -> GeoPoint:
        kx, ky = meters_per_degree(self.bbox.center.lat)
        lon = self.bbox.min_lon + (col + 0.5) * self.cell_size_m / kx
        lat = self.bbox.min_lat + (row + 0.5) * self.cell_size_m / ky
        # the last cell can reach past the antimeridian or the pole
        return GeoPoint(min(lon, 180.0), min(lat, 90.0))


@dataclass(frozen=True)
class Hotspot:
    cell_row: int
    cell_col: int
    center: GeoPoint
    count: int
    rank: int


def build_grid(points: np.ndarray, cell_size_m: float = DEFAULT_CELL_SIZE_M,
               bbox: BoundingBox | None = None) -> HeatGrid:
    """Count (lon, lat) points, a float (N, 2) array, into a grid over ``bbox``.

    ``bbox`` defaults to the tightest box around the points.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if bbox is None:
        if not len(points):
            raise ValueError("cannot build a grid from no points and no bbox")
        bbox = bbox_of_coords(points)

    kx, ky = meters_per_degree(bbox.center.lat)
    width_m = (bbox.max_lon - bbox.min_lon) * kx
    height_m = (bbox.max_lat - bbox.min_lat) * ky
    cols, rows = (max(1, math.ceil(min(m / cell_size_m, MAX_GRID_CELLS + 1)))
                  for m in (width_m, height_m))
    if rows * cols > MAX_GRID_CELLS:
        raise ConfigurationError(f"a {cell_size_m} m grid over this area needs more "
                                 f"than {MAX_GRID_CELLS} cells; raise cell_size_m")

    lon, lat = points[:, 0], points[:, 1]
    inside = ((lon >= bbox.min_lon) & (lon <= bbox.max_lon)
              & (lat >= bbox.min_lat) & (lat <= bbox.max_lat))
    lon, lat = lon[inside], lat[inside]
    col = np.minimum(((lon - bbox.min_lon) * kx // cell_size_m).astype(np.int64), cols - 1)
    row = np.minimum(((lat - bbox.min_lat) * ky // cell_size_m).astype(np.int64), rows - 1)
    counts = np.bincount(row * cols + col, minlength=rows * cols).reshape(rows, cols)
    total = len(lon)
    return HeatGrid(bbox=bbox, cell_size_m=cell_size_m, rows=rows, cols=cols,
                    counts=counts.astype(np.int64, copy=False), total_in_bbox=total,
                    out_of_bbox=len(points) - total)


def top_hotspots(grid: HeatGrid, k: int) -> list[Hotspot]:
    """The k highest-count non-empty cells, count descending.

    Ties break on (row, col) ascending; fewer than k come back when the grid
    has fewer non-zero cells.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    nonzero = np.argwhere(grid.counts > 0)
    cells = sorted(((int(grid.counts[r, c]), int(r), int(c)) for r, c in nonzero),
                   key=lambda t: (-t[0], t[1], t[2]))
    return [Hotspot(cell_row=r, cell_col=c, center=grid.cell_center(r, c),
                    count=n, rank=i + 1)
            for i, (n, r, c) in enumerate(cells[:k])]


def summarize_for_story(grid: HeatGrid, hotspots: Sequence[Hotspot]) -> str:
    """Deterministic plain-text digest of the grid for prompt construction.

    Fixed 4-decimal coordinates, stable ordering, no prose; the story
    backend adds the flourish.
    """
    b = grid.bbox
    lines = [
        f"area: lon [{b.min_lon:.4f}, {b.max_lon:.4f}] lat [{b.min_lat:.4f}, {b.max_lat:.4f}]",
        f"grid: {grid.rows} x {grid.cols} cells of {grid.cell_size_m:.0f} m",
        f"trip endpoints in area: {grid.total_in_bbox} (outside: {grid.out_of_bbox})",
    ]
    if hotspots:
        lines.append("busiest cells:")
        for h in hotspots:
            share = 100.0 * h.count / grid.total_in_bbox if grid.total_in_bbox else 0.0
            lines.append(f"  {h.rank}. center ({h.center.lon:.4f}, {h.center.lat:.4f})"
                         f"  endpoints {h.count}  share {share:.1f}%")
    return "\n".join(lines) + "\n"


def grid_files(grid: HeatGrid) -> dict[str, str]:
    """The count matrix as ``grid.csv``, plus a ``grid_meta.txt`` header for renderers."""
    b = grid.bbox
    return {"grid.csv": "".join(",".join(map(str, row)) + "\n" for row in grid.counts.tolist()),
            "grid_meta.txt": (
                f"min_lon = {b.min_lon!r}\nmin_lat = {b.min_lat!r}\n"
                f"max_lon = {b.max_lon!r}\nmax_lat = {b.max_lat!r}\n"
                f"cell_size_m = {grid.cell_size_m!r}\nrows = {grid.rows}\ncols = {grid.cols}\n"
                f"total_in_bbox = {grid.total_in_bbox}\nout_of_bbox = {grid.out_of_bbox}\n")}

"""Independent reference implementations the tests compare against.

Deliberately brute-force and slow: a different algorithm shape from the
library code, so shared bugs are unlikely.
"""

from __future__ import annotations

import csv
import html
import json
import math
from typing import IO

import numpy as np

from helpers import contains
from trajstory.errors import ConfigurationError, NotFoundError, ParseError
from trajstory.geo import (M_PER_DEG_LAT, BoundingBox, GeoPoint, arc_m, as_coords,
                           bbox_of_coords, haversine_h, meters_per_degree)
from trajstory.heatgrid import DEFAULT_CELL_SIZE_M, MAX_GRID_CELLS, HeatGrid
from trajstory.ingest import SELECTION_CRITERIA, Trajectory, _path_lengths_m


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    The scalar formula over Python floats; ``arc_m(geo.haversine_h(a, ...))``
    must give the same bits.
    """
    lon1, lat1, lon2, lat2 = map(math.radians, (a.lon, a.lat, b.lon, b.lat))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return arc_m(h)


def dense_polyline_distance(q: GeoPoint, line: list[GeoPoint],
                            samples: int = 1000) -> float:
    """Min haversine distance over ``samples`` interpolated points per segment."""
    best = min(haversine_distance(q, v) for v in line)
    for a, b in zip(line, line[1:]):
        for i in range(1, samples):
            t = i / samples
            p = GeoPoint(a.lon + (b.lon - a.lon) * t,
                         a.lat + (b.lat - a.lat) * t)
            d = haversine_distance(q, p)
            if d < best:
                best = d
    return best


def dense_polyline_distance_spaced(q: GeoPoint, line: list[GeoPoint],
                                   spacing_m: float = 5.0) -> float:
    """Like dense_polyline_distance but samples every ~spacing_m meters.

    Overestimates the true minimum by at most ~spacing_m / 2 (point between
    two samples), regardless of segment length.
    """
    best = min(haversine_distance(q, v) for v in line)
    for a, b in zip(line, line[1:]):
        n = max(1, math.ceil(haversine_distance(a, b) / spacing_m))
        for i in range(1, n):
            t = i / n
            p = GeoPoint(a.lon + (b.lon - a.lon) * t,
                         a.lat + (b.lat - a.lat) * t)
            d = haversine_distance(q, p)
            if d < best:
                best = d
    return best


def reference_segment_distances(p: GeoPoint, line: list[GeoPoint]) -> list[float]:
    """Distance in meters from ``p`` to each segment of ``line``, in route order.

    The library's scalar formula, one GeoPoint at a time: a locally planar
    foot of the perpendicular (kept only for 0 < t < 1) against both
    endpoints, each measured with ``haversine_distance``. A one-point line is
    one degenerate segment.
    """
    if not line:
        raise ValueError("empty polyline")
    out = []
    d_a = haversine_distance(p, line[0])
    if len(line) == 1:
        out.append(d_a)
    for a, b in zip(line, line[1:]):
        d_b = haversine_distance(p, b)
        best = d_a if d_a <= d_b else d_b
        kx, ky = meters_per_degree((a.lat + b.lat) / 2.0)
        ax, ay = (a.lon - p.lon) * kx, (a.lat - p.lat) * ky
        bx, by = (b.lon - p.lon) * kx, (b.lat - p.lat) * ky
        dx, dy = bx - ax, by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq != 0.0:
            t = -(ax * dx + ay * dy) / seg_len_sq
            if 0.0 < t < 1.0:
                foot = GeoPoint(a.lon + t * (b.lon - a.lon), a.lat + t * (b.lat - a.lat))
                d = haversine_distance(p, foot)
                if d < best:
                    best = d
        out.append(best)
        d_a = d_b
    return out


def full_segment_h(p: GeoPoint, coords: np.ndarray) -> np.ndarray:
    """Haversine term from ``p`` to every segment of a polyline, in route order.

    The full scan the grounding search ran before it had a bound: the same
    elementwise formula over every segment. A one-point line is one
    degenerate segment.
    """
    if not len(coords):
        raise ValueError("empty polyline: a trajectory needs at least one point")
    lon, lat = coords[:, 0], coords[:, 1]
    h = haversine_h(p, lon, lat)
    if len(coords) == 1:
        return h
    best = np.minimum(h[:-1], h[1:])
    a_lon, a_lat, b_lon, b_lat = lon[:-1], lat[:-1], lon[1:], lat[1:]
    kx, ky = M_PER_DEG_LAT * np.cos(np.radians((a_lat + b_lat) / 2.0)), M_PER_DEG_LAT
    ax, ay = (a_lon - p.lon) * kx, (a_lat - p.lat) * ky
    dx, dy = (b_lon - p.lon) * kx - ax, (b_lat - p.lat) * ky - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero-length segment gives NaN here, which the range test drops
        t = -(ax * dx + ay * dy) / (dx * dx + dy * dy)
    inner = np.flatnonzero((t > 0.0) & (t < 1.0))
    t = t[inner]
    a_lon, a_lat = a_lon[inner], a_lat[inner]
    foot = haversine_h(p, a_lon + t * (b_lon[inner] - a_lon), a_lat + t * (b_lat[inner] - a_lat))
    best[inner] = np.minimum(best[inner], foot)
    return best


def full_sort_hotspots(grid, k: int) -> list[tuple[int, int, int]]:
    """(row, col, count) for the k busiest nonzero cells; full sort, no heap."""
    cells = [(r, c, int(grid.counts[r, c]))
             for r in range(grid.rows) for c in range(grid.cols)
             if grid.counts[r, c] > 0]
    cells.sort(key=lambda rc: (-rc[2], rc[0], rc[1]))
    return cells[:k]


def reference_grid_counts(points: list[GeoPoint], rows: int, cols: int, bbox,
                          cell_size_m: float) -> tuple[list[list[int]], int]:
    """(per-cell counts, points outside bbox): one point at a time, Python floats.

    The loop build_grid used before it counted with np.bincount.
    """
    kx, ky = meters_per_degree(bbox.center.lat)
    counts = [[0] * cols for _ in range(rows)]
    out = 0
    for p in points:
        if not contains(bbox, p):
            out += 1
            continue
        col = min(int((p.lon - bbox.min_lon) * kx // cell_size_m), cols - 1)
        row = min(int((p.lat - bbox.min_lat) * ky // cell_size_m), rows - 1)
        counts[row][col] += 1
    return counts, out


def one_pass_build_grid(points: np.ndarray, cell_size_m: float = DEFAULT_CELL_SIZE_M,
                        bbox: BoundingBox | None = None) -> HeatGrid:
    """``build_grid`` as it binned every point in one pass, whole-array
    temporaries and one np.bincount, before it counted in bounded blocks.

    Copied verbatim but for its name and this docstring.
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


def brute_force_clusters(points: list[GeoPoint], threshold_m: float) -> list[set[int]]:
    """Single-linkage by repeated merging until a fixed point."""
    clusters = [{i} for i in range(len(points))]
    changed = True
    while changed:
        changed = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if any(haversine_distance(points[a], points[b]) <= threshold_m
                       for a in clusters[i] for b in clusters[j]):
                    clusters[i] |= clusters[j]
                    del clusters[j]
                    changed = True
                    break
            if changed:
                break
    return clusters


def brute_force_near(center: GeoPoint, radius_m: float, pois) -> set[str]:
    """Names of POIs within the radius, order-free."""
    return {p.name for p in pois if haversine_distance(center, p.location) <= radius_m}


def _reference_point(lon, lat) -> GeoPoint | None:
    try:
        return GeoPoint(float(lon), float(lat))
    except (TypeError, ValueError):
        return None


def _reference_polyline(raw: str) -> list[GeoPoint] | None:
    """Decode a bracketed [[lon,lat],...] list; None if anything is off."""
    try:
        pairs = json.loads(raw)
    except (json.JSONDecodeError, TypeError):
        return None
    if not isinstance(pairs, list):
        return None
    points = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            return None
        p = _reference_point(pair[0], pair[1])
        if p is None:
            return None
        points.append(p)
    return points


def reference_parse_kaggle(stream: IO[str]) -> tuple[list[Trajectory], int]:
    """(trajectories, skipped rows): one GeoPoint per vertex, via csv.DictReader.

    The per-point parser the columnar one replaced, kept as its reference.
    It raises on inputs the columnar parser counts as bad JSON (integers
    too large for a float, nesting deeper than the recursion limit).
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None or "POLYLINE" not in reader.fieldnames:
        raise ParseError("kaggle_porto header is missing the POLYLINE column")
    trajectories, skipped = [], 0
    for row in reader:
        if (row.get("MISSING_DATA") or "").strip().lower() == "true":
            skipped += 1
            continue
        points = _reference_polyline(row.get("POLYLINE") or "")
        if points is None or len(points) < 2:
            skipped += 1
            continue
        trip_id = (row.get("TRIP_ID") or "").strip() or f"row{reader.line_num}"
        start_time = None
        ts = (row.get("TIMESTAMP") or "").strip()
        if ts:
            try:
                start_time = int(ts)
            except ValueError:
                start_time = None
        trajectories.append(Trajectory(id=trip_id, coords=as_coords(points),
                                       start_time=start_time))
    return trajectories, skipped


def reference_path_length_m(traj: Trajectory) -> float:
    """Sum of the scalar haversine over consecutive vertices, in meters.

    The per-point loop the vectorized trip lengths replaced, kept as their
    reference.
    """
    points = [GeoPoint(lon, lat) for lon, lat in traj.coords.tolist()]
    return sum(haversine_distance(a, b) for a, b in zip(points, points[1:]))


def reference_select_trajectory(trajectories: list[Trajectory], criterion: str,
                                trajectory_id: str | None = None) -> Trajectory:
    """Pick one trip out of all of them at once. Ties on the longest_* criteria
    break to the lowest id, and ``by_id`` takes the first trip with that id.

    The selection rule from before a parse folded it block by block, kept as
    its reference over ``reference_parse_kaggle``'s trips. The lengths come
    from one ``_path_lengths_m`` call over all the trips laid end to end: a
    tie is a tie of those bits, which the scalar ``reference_path_length_m``
    does not reproduce to the last bit.
    """
    if criterion not in SELECTION_CRITERIA:
        raise ConfigurationError(f"unknown selection criterion {criterion!r}")
    if not trajectories:
        raise ValueError("cannot select from an empty dataset")
    ids = [t.id for t in trajectories]
    if criterion == "by_id":
        if trajectory_id not in ids:
            raise NotFoundError(f"no trajectory with id {trajectory_id!r}")
        return trajectories[ids.index(trajectory_id)]
    if criterion == "longest_by_points":
        metric = [len(t.coords) for t in trajectories]
    else:
        offsets = np.cumsum([0] + [len(t.coords) for t in trajectories])
        metric = _path_lengths_m(np.concatenate([t.coords for t in trajectories]),
                                 offsets).tolist()
    tied = [i for i, m in enumerate(metric) if m == max(metric)]
    return trajectories[min(tied, key=ids.__getitem__)]


def reference_render_geojson(doc) -> str:
    """The map document through ``json.dumps`` alone, the path as ``path.tolist()``.

    The library's encoder before it formatted path coordinates in bulk: the
    exact bytes ``render_geojson`` must keep.
    """
    names = dict(doc.legend)
    features = []
    if doc.path is not None:
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": doc.path.tolist()},
            "properties": {"role": "trajectory"},
        })
    for marker in doc.markers:
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [marker.center.lon, marker.center.lat]},
            "properties": {
                "role": "poi",
                "numbers": list(marker.numbers),
                "labels": [names[n] for n in marker.numbers],
            },
        })
    collection = {
        "type": "FeatureCollection",
        "bbox": [doc.bbox.min_lon, doc.bbox.min_lat, doc.bbox.max_lon, doc.bbox.max_lat],
        "features": features,
        "legend": [[number, name] for number, name in doc.legend],
    }
    return json.dumps(collection, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def reference_render_html(doc) -> str:
    """The page as one string around the whole reference GeoJSON, escaped in one pass.

    The library's page before it reused the GeoJSON's parts: the exact bytes
    ``render_html`` must keep.
    """
    from trajstory.mapdoc import _HTML_PAGE
    legend_items = "\n".join(f"  <li value=\"{n}\">{html.escape(name, quote=False)}</li>"
                             for n, name in doc.legend)
    geojson = reference_render_geojson(doc).rstrip("\n")
    for char, escape in (("&", "\\u0026"), ("<", "\\u003c"), (">", "\\u003e")):
        geojson = geojson.replace(char, escape)
    return _HTML_PAGE.format(legend_items=legend_items, geojson=geojson)

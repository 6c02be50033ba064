"""Independent reference implementations the tests compare against.

Deliberately brute-force and slow: a different algorithm shape from the
library code, so shared bugs are unlikely.
"""

from __future__ import annotations

import csv
import json
from typing import IO

from trajstory.errors import ParseError
from trajstory.geo import GeoPoint, haversine_distance, meters_per_degree
from trajstory.ingest import Trajectory


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
    import math

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
        if not bbox.contains(p):
            out += 1
            continue
        col = min(int((p.lon - bbox.min_lon) * kx // cell_size_m), cols - 1)
        row = min(int((p.lat - bbox.min_lat) * ky // cell_size_m), rows - 1)
        counts[row][col] += 1
    return counts, out


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
        trajectories.append(Trajectory(id=trip_id, points=points, start_time=start_time))
    return trajectories, skipped

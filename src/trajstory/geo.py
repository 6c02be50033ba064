"""Geodetic primitives: distances, point-to-polyline projection, bounding boxes.

Coordinate order is (lon, lat) everywhere in this package, matching the
polyline encoding of the taxi dataset. All distances are meters on a sphere
of mean radius 6,371,008.8 m (IUGG); good to well under 0.5% at city scale,
which is the only scale this pipeline operates at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 position. ``lon`` east-positive, ``lat`` north-positive."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True)
class BoundingBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self):
        if self.min_lon > self.max_lon:
            raise ValueError(f"min_lon {self.min_lon} > max_lon {self.max_lon}")
        if self.min_lat > self.max_lat:
            raise ValueError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")

    def contains(self, p: GeoPoint) -> bool:
        """Inclusive on all four edges."""
        return (self.min_lon <= p.lon <= self.max_lon
                and self.min_lat <= p.lat <= self.max_lat)

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.min_lon + self.max_lon) / 2.0,
                        (self.min_lat + self.max_lat) / 2.0)


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    lon1, lat1, lon2, lat2 = map(math.radians, (a.lon, a.lat, b.lon, b.lat))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def haversine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise great-circle distances in meters between two (N, 2) lon/lat arrays.

    The same formula as ``haversine_distance``; numpy's trigonometry may
    differ from ``math`` in the last bit.
    """
    lon1, lat1 = np.radians(a[:, 0]), np.radians(a[:, 1])
    lon2, lat2 = np.radians(b[:, 0]), np.radians(b[:, 1])
    h = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


def meters_per_degree(lat: float) -> tuple[float, float]:
    """(m per degree of longitude, m per degree of latitude) at latitude ``lat``."""
    m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
    return m_per_deg_lat * math.cos(math.radians(lat)), m_per_deg_lat


def segment_distances(p: GeoPoint, line: Sequence[GeoPoint]) -> Iterator[float]:
    """Distance in meters from ``p`` to each segment of a polyline, in route order.

    Each segment is treated as locally planar (equirectangular projection
    centered on the segment); the foot of the perpendicular is mapped back to
    geographic coordinates and measured with the haversine. Both endpoint
    distances are always candidates, so a segment is never farther than its
    nearer vertex. The planar approximation is accurate to well below 0.1%
    for segments up to ~50 km. A one-point line is one degenerate segment.
    """
    if not line:
        raise ValueError("empty polyline: a trajectory needs at least one point")
    d_a = haversine_distance(p, line[0])
    if len(line) == 1:
        yield d_a
    for a, b in zip(line, line[1:]):
        d_b = haversine_distance(p, b)
        best = d_a if d_a <= d_b else d_b
        lat0 = (a.lat + b.lat) / 2.0
        kx, ky = meters_per_degree(lat0)
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
        yield best
        d_a = d_b


def point_to_polyline_distance(p: GeoPoint, line: Sequence[GeoPoint]) -> float:
    """Minimum distance in meters from ``p`` to a polyline: its nearest segment."""
    return min(segment_distances(p, line))


def bbox_within(points: Iterable[GeoPoint], radius_m: float) -> BoundingBox:
    """A box holding every point within ``radius_m`` of the box around ``points``."""
    raw = bbox_of(points)
    dlat = math.degrees(radius_m / EARTH_RADIUS_M)
    min_lat, max_lat = max(-90.0, raw.min_lat - dlat), min(90.0, raw.max_lat + dlat)
    half_arc = min(radius_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0)
    ratio = math.sin(half_arc) / math.cos(math.radians(max(-min_lat, max_lat)))
    dlon = math.degrees(2.0 * math.asin(ratio)) if ratio < 1.0 else 360.0
    # clamped to the valid range: the box never wraps across the antimeridian
    return BoundingBox(max(-180.0, raw.min_lon - dlon), min_lat,
                       min(180.0, raw.max_lon + dlon), max_lat)


def bbox_of(points: Iterable[GeoPoint]) -> BoundingBox:
    """Tightest box containing all points. Raises on an empty input."""
    it = iter(points)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("bbox_of needs at least one point") from None
    min_lon = max_lon = first.lon
    min_lat = max_lat = first.lat
    for p in it:
        if p.lon < min_lon:
            min_lon = p.lon
        elif p.lon > max_lon:
            max_lon = p.lon
        if p.lat < min_lat:
            min_lat = p.lat
        elif p.lat > max_lat:
            max_lat = p.lat
    return BoundingBox(min_lon, min_lat, max_lon, max_lat)


def bbox_of_coords(coords: np.ndarray) -> BoundingBox:
    """Tightest box around a float (N, 2) lon/lat array. Raises on an empty input."""
    if not len(coords):
        raise ValueError("bbox_of_coords needs at least one point")
    lo, hi = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    return BoundingBox(lo[0], lo[1], hi[0], hi[1])

"""Geodetic primitives: distances, point-to-polyline projection, bounding boxes.

Coordinate order is (lon, lat) everywhere in this package, matching the
polyline encoding of the taxi dataset. All distances are meters on a sphere
of mean radius 6,371,008.8 m (IUGG); good to well under 0.5% at city scale,
which is the only scale this pipeline operates at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

EARTH_RADIUS_M = 6_371_008.8
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


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

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.min_lon + self.max_lon) / 2.0,
                        (self.min_lat + self.max_lat) / 2.0)


def arc_m(h: float) -> float:
    """Meters of great circle for the haversine term ``h``; increasing in ``h``."""
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def haversine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise great-circle distances in meters between two (N, 2) lon/lat arrays.

    The formula of ``haversine_h``, all in numpy, so a value may differ from
    ``arc_m`` of its term in the last bit.
    """
    lon1, lat1 = np.radians(a[:, 0]), np.radians(a[:, 1])
    lon2, lat2 = np.radians(b[:, 0]), np.radians(b[:, 1])
    h = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


def meters_per_degree(lat: float) -> tuple[float, float]:
    """(m per degree of longitude, m per degree of latitude) at latitude ``lat``."""
    return M_PER_DEG_LAT * math.cos(math.radians(lat)), M_PER_DEG_LAT


def as_coords(points: Iterable[GeoPoint]) -> np.ndarray:
    """GeoPoints as a float64 (N, 2) lon/lat array."""
    return np.array([(p.lon, p.lat) for p in points], dtype=np.float64).reshape(-1, 2)


def haversine_h(p: GeoPoint, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """The haversine term ``h`` from ``p`` to each (lon, lat); ``arc_m`` of an
    element is its distance in meters.

    Each element has the bits of the scalar formula over Python floats, in
    the same operation order: a float's ``** 2`` calls libm ``pow``, which is
    not always the rounded ``x * x`` that numpy's ``** 2`` gives, and
    ``float_power`` calls ``pow`` too.
    """
    lon1, lat1 = math.radians(p.lon), math.radians(p.lat)
    lat2 = np.radians(lat)
    return (np.float_power(np.sin((lat2 - lat1) / 2), 2)
            + math.cos(lat1) * np.cos(lat2)
            * np.float_power(np.sin((np.radians(lon) - lon1) / 2), 2))


# Meters added to a limit before a segment's bound is held against it. Every
# quantity here rounds by well under a micrometre at distances below 10 km,
# and from there up the arc exceeds the chord by more than a millimetre.
BOUND_SLACK_M = 1e-3


class Polyline:
    """A polyline's float (N, 2) lon/lat array, with what bounds a place's
    distance to each of its segments.

    Each vertex is also kept as a 3-D point on the sphere of radius R, and
    each segment gets the length bound ``L = R * hypot(dlat, dlon)`` (radians)
    of its lon/lat-linear path. A chord is never longer than the arc, so every
    point of a segment, where ``segment_h`` puts its foot, lies at least
    ``(c_a + c_b - L) / 2`` from a place whose chords to the segment's ends
    are ``c_a`` and ``c_b``.
    """

    def __init__(self, coords: np.ndarray):
        if not len(coords):
            raise ValueError("empty polyline: a trajectory needs at least one point")
        self.coords = coords
        # In place, with one spare column: R * hypot(diff(lat), diff(lon)), then
        # the sphere points by the operations ``segment_h`` gives ``p``, in order.
        self.xyz = np.empty((3, len(coords)))
        lon, lat, z = self.xyz
        np.radians(coords.T, out=self.xyz[:2])
        self.length_bound = bound = np.subtract(lat[1:], lat[:-1])
        np.hypot(bound, np.subtract(lon[1:], lon[:-1], out=z[1:]), out=bound)
        bound *= EARTH_RADIUS_M
        np.multiply(EARTH_RADIUS_M, np.sin(lat, out=z), out=z)
        r_cos = np.multiply(EARTH_RADIUS_M, np.cos(lat, out=lat), out=lat)
        sin_lon = np.sin(lon)
        np.multiply(r_cos, np.cos(lon, out=lon), out=lon)
        np.multiply(r_cos, sin_lon, out=r_cos)

    def segment_h(self, p: GeoPoint, limit_m: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(index, haversine term) of each segment that may lie within ``limit_m``
        of ``p``, in route order; ``arc_m`` of a term is its distance in meters.

        ``limit_m`` defaults to the distance of the vertex with the smallest
        chord to ``p``, so the nearest segment is among them. A term has the
        bits a scan of every segment gives it: each segment is treated as
        locally planar (equirectangular projection centered on the segment),
        and the foot of the perpendicular is mapped back to geographic
        coordinates and measured with the haversine. Both endpoints are
        always candidates, so a segment is never farther than its nearer
        vertex. The planar approximation is accurate to well below 0.1% for
        segments up to ~50 km. A one-point line is one degenerate segment. A
        segment with a non-finite bound is kept, so non-finite evidence gives
        the NaN a full scan gives.
        """
        coords = self.coords
        if len(coords) == 1:
            return np.zeros(1, dtype=np.intp), haversine_h(p, coords[:, 0], coords[:, 1])
        lon, lat = math.radians(p.lon), math.radians(p.lat)
        r_cos = EARTH_RADIUS_M * np.cos(lat)
        px, py, pz = r_cos * np.cos(lon), r_cos * np.sin(lon), EARTH_RADIUS_M * np.sin(lat)
        x, y, z = self.xyz
        chord = np.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2)
        if limit_m is None:
            j = int(np.argmin(chord))
            h_j = haversine_h(p, coords[j:j + 1, 0], coords[j:j + 1, 1])[0]
            limit_m = arc_m(min(h_j, 1.0))      # a term rounded past 1 has no arc
        far = chord[:-1] + chord[1:] - self.length_bound > 2.0 * (limit_m + BOUND_SLACK_M)
        seg = np.flatnonzero(~far)
        a, b = coords[seg], coords[seg + 1]
        a_lon, a_lat, b_lon, b_lat = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
        best = np.minimum(haversine_h(p, a_lon, a_lat), haversine_h(p, b_lon, b_lat))
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
        return seg, best


def first_within(h: np.ndarray, radius_m: float) -> tuple[int, float] | None:
    """(index, meters) of the first element of ``h`` within ``radius_m``, or None.

    A vectorized bound picks the candidates (a slightly wider cap, so none
    is missed); the exact ``arc_m`` test decides among them in order.
    """
    cap = math.sin(min(radius_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0)) ** 2
    for i in np.flatnonzero(h <= cap * (1.0 + 1e-9)).tolist():
        d = arc_m(h[i])
        if d <= radius_m:
            return i, d
    return None


def bbox_within(coords: np.ndarray, radius_m: float) -> BoundingBox:
    """A box holding every point within ``radius_m`` of the box around a float
    (N, 2) lon/lat array."""
    raw = bbox_of_coords(coords)
    dlat = math.degrees(radius_m / EARTH_RADIUS_M)
    min_lat, max_lat = max(-90.0, raw.min_lat - dlat), min(90.0, raw.max_lat + dlat)
    half_arc = min(radius_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0)
    ratio = math.sin(half_arc) / math.cos(math.radians(max(-min_lat, max_lat)))
    dlon = math.degrees(2.0 * math.asin(ratio)) if ratio < 1.0 else 360.0
    # clamped to the valid range: the box never wraps across the antimeridian
    return BoundingBox(max(-180.0, raw.min_lon - dlon), min_lat,
                       min(180.0, raw.max_lon + dlon), max_lat)


def bbox_of_coords(coords: np.ndarray) -> BoundingBox:
    """Tightest box around a float (N, 2) lon/lat array. Raises on an empty input."""
    if not len(coords):
        raise ValueError("bbox_of_coords needs at least one point")
    lon, lat = coords[:, 0], coords[:, 1]       # a reduction per column, not per row
    return BoundingBox(float(lon.min()), float(lat.min()), float(lon.max()), float(lat.max()))

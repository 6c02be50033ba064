import math
import random
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (backtracking_walk, contains, kept_segments, point_to_polyline_distance,
                     tied_rows)
from oracles import (axis_bbox_of_coords, dense_polyline_distance,
                     dense_polyline_distance_spaced, full_segment_h, haversine_distance,
                     reference_segment_distances, whole_array_polyline_tables)
from trajstory import geo
from trajstory.geo import (EARTH_RADIUS_M, BoundingBox, GeoPoint, Polyline, arc_m,
                           bbox_of_coords, bbox_within, first_within, meters_per_degree)
from trajstory.geo import as_coords as coords
from trajstory.validation import GroundingRule


def segment_h(p, line):
    """The term of every segment: the table searched with no limit."""
    return kept_segments(p, line, math.inf)[1]


# Downtown-to-Boavista pair, checked against two independent high-precision
# great-circle formulas (50-digit arithmetic); they agreed to 20 digits.
GOLDEN_A = GeoPoint(-8.6107, 41.1452)
GOLDEN_B = GeoPoint(-8.6308, 41.1588)
GOLDEN_DISTANCE_M = 2262.5313563278745

# Properties stay inside one metro area: the code's operating domain, and
# far from the antipodal regime where float error would swamp the slack.
city_lon = st.floats(-8.75, -8.45, allow_nan=False, allow_infinity=False)
city_lat = st.floats(41.0, 41.3, allow_nan=False, allow_infinity=False)
city_points = st.builds(GeoPoint, city_lon, city_lat)
city_lines = st.lists(city_points, min_size=2, max_size=6)


class TestGeoPoint:
    def test_fields_in_lon_lat_order(self):
        p = GeoPoint(-8.61, 41.15)
        assert (p.lon, p.lat) == (-8.61, 41.15)

    @pytest.mark.parametrize("lon,lat", [(-181, 0), (181, 0), (0, -91), (0, 91)])
    def test_out_of_range_rejected(self, lon, lat):
        with pytest.raises(ValueError):
            GeoPoint(lon, lat)

    def test_extremes_allowed(self):
        GeoPoint(-180, -90)
        GeoPoint(180, 90)


class TestHaversine:
    def test_radius_constant(self):
        assert EARTH_RADIUS_M == 6_371_008.8

    def test_golden_pair(self):
        assert haversine_distance(GOLDEN_A, GOLDEN_B) == pytest.approx(
            GOLDEN_DISTANCE_M, rel=1e-12)

    def test_zero_for_identical_points(self):
        assert haversine_distance(GOLDEN_A, GOLDEN_A) == 0.0

    def test_one_degree_meridian_arc(self):
        # exact on the sphere: R * pi / 180
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-12)

    @given(a=city_points, b=city_points)
    def test_symmetry(self, a, b):
        assert haversine_distance(a, b) == pytest.approx(
            haversine_distance(b, a), abs=1e-9)

    @given(a=city_points, b=city_points, c=city_points)
    def test_triangle_inequality(self, a, b, c):
        assert (haversine_distance(a, c)
                <= haversine_distance(a, b) + haversine_distance(b, c) + 1e-6)


class TestMetersPerDegree:
    def test_latitude_scale_is_constant(self):
        _, ky0 = meters_per_degree(0.0)
        _, ky60 = meters_per_degree(60.0)
        assert ky0 == ky60 == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-12)

    def test_longitude_scale_shrinks_with_cosine(self):
        kx, ky = meters_per_degree(60.0)
        assert kx == pytest.approx(ky * 0.5, rel=1e-12)

    def test_agrees_with_haversine_on_small_arc(self):
        kx, _ = meters_per_degree(41.15)
        arc = haversine_distance(GeoPoint(-8.60, 41.15), GeoPoint(-8.59, 41.15))
        assert kx * 0.01 == pytest.approx(arc, rel=1e-4)


class TestPointToPolyline:
    def test_empty_line_rejected(self):
        with pytest.raises(ValueError):
            point_to_polyline_distance(GOLDEN_A, coords([]))

    def test_single_vertex_falls_back_to_haversine(self):
        d = point_to_polyline_distance(GOLDEN_A, coords([GOLDEN_B]))
        assert d == pytest.approx(haversine_distance(GOLDEN_A, GOLDEN_B), rel=1e-12)

    def test_vertex_hit_is_zero(self):
        line = [GeoPoint(-8.62, 41.14), GeoPoint(-8.60, 41.15), GeoPoint(-8.59, 41.16)]
        assert point_to_polyline_distance(line[1], coords(line)) == 0.0

    def test_point_on_segment_interior(self):
        a, b = GeoPoint(-8.62, 41.14), GeoPoint(-8.58, 41.16)
        mid = GeoPoint((a.lon + b.lon) / 2, (a.lat + b.lat) / 2)
        assert point_to_polyline_distance(mid, coords([a, b])) < 1.0

    def test_perpendicular_offset_from_parallel_segment(self):
        # segment runs along a parallel; a point 0.01 deg north is one
        # latitude-degree-hundredth away, a pure ky distance
        line = [GeoPoint(-8.62, 41.15), GeoPoint(-8.60, 41.15)]
        q = GeoPoint(-8.61, 41.16)
        _, ky = meters_per_degree(41.15)
        assert point_to_polyline_distance(q, coords(line)) == pytest.approx(0.01 * ky, rel=1e-3)

    def test_beyond_endpoint_clamps_to_vertex(self):
        line = [GeoPoint(-8.62, 41.15), GeoPoint(-8.60, 41.15)]
        q = GeoPoint(-8.55, 41.15)
        assert point_to_polyline_distance(q, coords(line)) == pytest.approx(
            haversine_distance(q, line[-1]), rel=1e-9)

    @given(q=city_points, line=city_lines)
    def test_never_exceeds_best_vertex_distance(self, q, line):
        d = point_to_polyline_distance(q, coords(line))
        assert d <= min(haversine_distance(q, v) for v in line) + 1e-9
        assert d >= 0.0

    @given(q=city_points, line=city_lines)
    def test_reversal_invariance(self, q, line):
        assert point_to_polyline_distance(q, coords(line)) == pytest.approx(
            point_to_polyline_distance(q, coords(reversed(line))), abs=1e-6)

    @given(q=city_points, a=city_lines, b=city_lines)
    def test_concatenation_takes_the_min(self, q, a, b):
        joined = a + b
        d_joined = point_to_polyline_distance(q, coords(joined))
        d_parts = min(point_to_polyline_distance(q, coords(a)),
                      point_to_polyline_distance(q, coords(b)))
        # joined adds one bridging segment, so it can only get closer
        assert d_joined <= d_parts + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_matches_dense_oracle_spot_checks(self, data):
        q = data.draw(city_points)
        line = data.draw(st.lists(city_points, min_size=2, max_size=3))
        got = point_to_polyline_distance(q, coords(line))
        want = dense_polyline_distance_spaced(q, line, spacing_m=5.0)
        # the oracle can overestimate by up to half its sample spacing when
        # the point sits right on the line; 3 m absorbs that
        assert abs(got - want) <= max(3.0, 0.01 * want)

    def test_matches_dense_oracle_frozen_cases(self):
        # fixed seed chosen so no case sits closer than ~200 m, where the
        # sampling oracle itself would be the dominant error source
        rng = random.Random(20260825)
        for _ in range(25):
            line = [GeoPoint(rng.uniform(-8.70, -8.50), rng.uniform(41.05, 41.25))
                    for _ in range(rng.randint(2, 6))]
            q = GeoPoint(rng.uniform(-8.70, -8.50), rng.uniform(41.05, 41.25))
            got = point_to_polyline_distance(q, coords(line))
            want = dense_polyline_distance(q, line)
            assert abs(got - want) <= max(1.0, 0.005 * want)


class TestSegmentDistances:
    def test_empty_line_rejected(self):
        with pytest.raises(ValueError):
            segment_h(GOLDEN_A, coords([]))

    def test_single_vertex_is_one_degenerate_segment(self):
        assert [arc_m(h) for h in segment_h(GOLDEN_A, coords([GOLDEN_B]))] == \
            [haversine_distance(GOLDEN_A, GOLDEN_B)]

    @settings(deadline=None, max_examples=25)
    @given(q=city_points, line=city_lines)
    def test_one_distance_per_segment_in_route_order(self, q, line):
        got = [arc_m(h) for h in segment_h(q, coords(line))]
        assert len(got) == len(line) - 1
        for d, a, b in zip(got, line, line[1:]):
            want = dense_polyline_distance_spaced(q, [a, b], spacing_m=5.0)
            assert abs(d - want) <= max(3.0, 0.01 * want)
        assert min(got) == point_to_polyline_distance(q, coords(line))


# Routes in the Porto box drawn from a small pool of places, so vertices
# repeat (zero-length segments) and routes double back on themselves.
porto_places = st.builds(GeoPoint, st.floats(-8.70, -8.50), st.floats(41.10, 41.25))


@st.composite
def porto_routes(draw):
    pool = draw(st.lists(porto_places, min_size=1, max_size=5))
    line = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                           min_size=1, max_size=12))]
    if draw(st.booleans()):
        line = line + line[::-1]            # out and back
    return line


@st.composite
def queries_near(draw, line):
    """A free point, a vertex, or a point off a segment with its foot at ``t``."""
    kind = draw(st.sampled_from(["free", "vertex", "foot"]))
    if kind == "free":
        return draw(porto_places)
    if kind == "vertex":
        return draw(st.sampled_from(line))
    i = draw(st.integers(0, len(line) - 1))
    a, b = line[i], line[min(i + 1, len(line) - 1)]
    t = draw(st.sampled_from([0.0, 5e-324, 1e-15, 1e-9, 1e-6, 0.5,
                              1 - 1e-6, 1 - 1e-9, 1 - 1e-15, 1.0]) | st.floats(0.0, 1.0))
    off = draw(st.floats(-400.0, 400.0))
    kx, ky = meters_per_degree((a.lat + b.lat) / 2.0)
    dx, dy = (b.lon - a.lon) * kx, (b.lat - a.lat) * ky
    norm = math.hypot(dx, dy) or 1.0
    nx, ny = (-dy / norm, dx / norm) if dx or dy else (0.0, 1.0)
    return GeoPoint(a.lon + t * (b.lon - a.lon) + off * nx / kx,
                    a.lat + t * (b.lat - a.lat) + off * ny / ky)


def reference_first_in_reach(distances, threshold_m):
    return next(((i, d) for i, d in enumerate(distances) if d <= threshold_m), None)


class TestAgainstScalarReference:
    """The array kernels give exactly the scalar formula's distances."""

    @staticmethod
    def thresholds(data, distances):
        exact = st.sampled_from(distances)
        return data.draw(st.floats(0.0, 3000.0) | exact
                         | exact.map(lambda d: math.nextafter(d, -math.inf)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), line=porto_routes())
    def test_route_grading_and_discovery(self, data, line):
        q = data.draw(queries_near(line))
        want = reference_segment_distances(q, line)
        assert [arc_m(h) for h in segment_h(q, coords(line))] == want
        assert point_to_polyline_distance(q, coords(line)) == min(want)
        threshold = self.thresholds(data, want)
        rule = GroundingRule(coords(line), max(threshold, 0.0), along_path=True)
        assert rule.nearest(q) == min(want)
        assert rule.first_in_reach(q) == reference_first_in_reach(want, rule.threshold_m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), centers=st.lists(porto_places, min_size=1, max_size=6))
    def test_hotspot_grading_and_discovery(self, data, centers):
        q = data.draw(porto_places | st.sampled_from(centers))
        want = [haversine_distance(q, c) for c in centers]
        threshold = self.thresholds(data, want)
        rule = GroundingRule(coords(centers), max(threshold, 0.0), along_path=False)
        assert rule.nearest(q) == min(want)
        assert rule.first_in_reach(q) == reference_first_in_reach(want, rule.threshold_m)

    def test_long_backtracking_walk(self):
        rng = random.Random(20261018)
        line = backtracking_walk(rng)
        arr = coords(line)
        for _ in range(20):
            q = GeoPoint(rng.uniform(-8.64, -8.59), rng.uniform(41.13, 41.16))
            want = reference_segment_distances(q, line)
            assert point_to_polyline_distance(q, arr) == min(want)
            assert [arc_m(h) for h in segment_h(q, arr)] == want


# Where the bounded search's lines lie: downtown Porto, the equator at the
# prime meridian, next to the north pole, and on the antimeridian.
ANCHORS = [(-8.61, 41.14), (0.0, 0.0), (45.0, 89.9), (179.95, -20.0)]


def _place(lon: float, lat: float) -> GeoPoint:
    """A valid GeoPoint at ``lon, lat``: latitude clamped, longitude wrapped."""
    return GeoPoint((lon + 180.0) % 360.0 - 180.0, min(90.0, max(-90.0, lat)))


@st.composite
def bounded_lines(draw):
    """1 to 8 vertices around an anchor, with steps from 0 (a repeated vertex)
    up to about 50 km; near the antimeridian a step can cross it."""
    lon0, lat0 = draw(st.sampled_from(ANCHORS))
    scale = draw(st.sampled_from([1e-8, 1e-6, 1e-3, 0.2]))       # degrees
    offsets = st.floats(-scale, scale)
    line = []
    for _ in range(draw(st.integers(1, 8))):
        if line and draw(st.booleans()):
            line.append(draw(st.sampled_from(line)))
        else:
            p = _place(lon0 + draw(offsets), lat0 + draw(offsets))
            line.append((p.lon, p.lat))
    return line


@st.composite
def bounded_places(draw, line):
    """A vertex, a point off a segment with its foot at ``t``, or a place 1,000 km away."""
    kind = draw(st.sampled_from(["vertex", "foot", "far"]))
    i = draw(st.integers(0, len(line) - 1))
    (a_lon, a_lat), (b_lon, b_lat) = line[i], line[min(i + 1, len(line) - 1)]
    if kind == "vertex":
        return GeoPoint(a_lon, a_lat)
    if kind == "far":
        return _place(a_lon, a_lat + draw(st.sampled_from([-1.0, 1.0])) * 1e6 / 111_195.0)
    t = draw(st.sampled_from([0.0, 1e-9, 0.5, 1 - 1e-9, 1.0]) | st.floats(-0.5, 1.5))
    off = draw(st.sampled_from([0.0, 1e-6, 1e-3]) | st.floats(-2000.0, 2000.0))
    kx, ky = meters_per_degree((a_lat + b_lat) / 2.0)
    dx, dy = (b_lon - a_lon) * kx, (b_lat - a_lat) * ky
    norm = math.hypot(dx, dy) or 1.0
    nx, ny = (-dy / norm, dx / norm) if dx or dy else (0.0, 1.0)
    return _place(a_lon + t * (b_lon - a_lon) + off * nx / max(kx, 1e-9),
                  a_lat + t * (b_lat - a_lat) + off * ny / ky)


class TestBoundedSearch:
    """The chord bound leaves out only segments a full scan would not pick, and
    the ones it keeps get the full scan's bits."""

    @staticmethod
    def assert_a_full_scan(arr, q, threshold):
        """Grading, discovery and the kept terms give what a scan of every
        segment gives; a NaN term makes the distance NaN, as the scan's min."""
        full = full_segment_h(q, arr)
        distances = [arc_m(h) for h in full]
        want = arc_m(full.min())
        rule = GroundingRule(arr, threshold, along_path=True)
        assert np.array_equal([rule.nearest(q), point_to_polyline_distance(q, arr)], [want] * 2,
                              equal_nan=True)
        assert rule.first_in_reach(q) == first_within(full, threshold)
        kept, h = kept_segments(q, arr, threshold)
        assert h.tobytes() == full[kept].tobytes()
        assert all(distances[i] > threshold for i in set(range(len(full))) - set(kept.tolist()))

    @staticmethod
    def thresholds(data, arr, q):
        exact = st.sampled_from([arc_m(h) for h in full_segment_h(q, arr)])
        return max(0.0, data.draw(st.floats(0.0, 2e6) | exact
                                  | exact.map(lambda d: math.nextafter(d, -math.inf))))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), line=bounded_lines())
    def test_equals_a_full_scan(self, data, line):
        arr = np.array(line, dtype=np.float64)
        q = data.draw(bounded_places(line))
        self.assert_a_full_scan(arr, q, self.thresholds(data, arr, q))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), line=bounded_lines(), block=st.integers(1, 8), batch=st.integers(1, 8))
    def test_equals_a_full_scan_across_block_edges(self, data, line, block, batch):
        """Blocks of 1-8 vertices and batches of 1-8 segments cut the lines
        above wherever they can: the joined scan is still the full scan."""
        arr = np.array(line, dtype=np.float64)
        q = data.draw(bounded_places(line))
        threshold = self.thresholds(data, arr, q)
        with mock.patch.object(geo, "_BLOCK", block), mock.patch.object(geo, "_BATCH", batch):
            self.assert_a_full_scan(arr, q, threshold)

    # Lines of about a metre where the bound, the chord and the vertex
    # distance agree to their rounding: without the slack the bound drops the
    # segment that holds the nearest point, or every segment.
    @pytest.mark.parametrize("line,q", [
        ([(0.0, 0.0), (-1.0099571516816227e-07, 9.685910701296663e-07)],
         (9.90684761152376e-08, -9.501080430669851e-07)),
        ([(0.0, 0.0), (3.209406466054491e-08, 1.6891594705829395e-08),
          (6.418812932108982e-08, 3.378318941165879e-08)],
         (-9.510788837220767e-11, -5.0056729202193856e-11)),
    ])
    def test_slack_keeps_segments_that_rounding_would_drop(self, line, q):
        arr, q = np.array(line), GeoPoint(*q)
        full = full_segment_h(q, arr)
        assert point_to_polyline_distance(q, arr) == arc_m(full.min())

    def test_a_long_segment_is_kept_by_its_length(self):
        # the place sits at the middle of a 40 km segment, 20 km from either end
        arr = np.array([(-8.8, 41.0), (-8.8, 41.36)])
        q = GeoPoint(-8.8, 41.18)
        assert point_to_polyline_distance(q, arr) == arc_m(full_segment_h(q, arr).min()) < 1e-6

    # Blocks of two vertices: the finite minimum is in the first, and the bad
    # vertex ends the last partial block, or it is in the first block and the
    # finite minimum, with the first piece in reach, in the last partial one.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("line,q", [
        ([(-8.61, 41.14), (-8.62, 41.15), (-8.63, 41.16), (-8.64, 41.17), (-8.65, 41.18),
          (None, 41.18)], (-8.611, 41.141)),
        ([(-8.65, 41.18), (None, 41.18), (-8.64, 41.17), (-8.63, 41.16), (-8.62, 41.15),
          (-8.61, 41.14)], (-8.611, 41.141)),
    ], ids=["later", "earlier"])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_a_bad_vertex_in_another_block_gives_a_full_scan(self, bad, line, q, batch):
        arr = np.array([(bad if lon is None else lon, lat) for lon, lat in line])
        with np.errstate(invalid="ignore"), mock.patch.object(geo, "_BLOCK", 2), \
                mock.patch.object(geo, "_BATCH", batch):
            rule = GroundingRule(arr, 500.0, along_path=True)
            assert math.isnan(rule.nearest(GeoPoint(*q)))
            assert rule.first_in_reach(GeoPoint(*q)) is not None
            self.assert_a_full_scan(arr, GeoPoint(*q), 500.0)

    @pytest.mark.parametrize("shape", ["walk", "uniform"])
    def test_a_search_holds_a_fixed_number_of_blocks(self, shape):
        """Beside its output, grading's and discovery's search of a 50k-vertex
        line holds at most eight blocks of floats, one block's chords and one
        batch's exact terms; the whole-array search held 1.06-4.9 times the
        coordinates' bytes on these lines."""
        if shape == "walk":         # a walk that doubles back inside downtown Porto
            arr = coords(backtracking_walk(random.Random(50_000), steps=49_999))
        else:
            arr = np.random.default_rng(41).uniform((-8.7, 41.1), (-8.5, 41.25), (50_000, 2))
        rule = GroundingRule(arr, 500.0, along_path=True)
        for q in (GeoPoint(-8.6744, 41.1488), GeoPoint(-8.615, 41.145), GeoPoint(-8.6, 41.2)):
            for search in (rule.nearest, rule.first_in_reach):
                search(q)                       # builds the tables; warms up
                tracemalloc.start()
                try:
                    search(q)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 * geo._BLOCK * 8 < arr.nbytes, (search.__name__, q, peak)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_evidence_gives_what_a_full_scan_gives(self, bad):
        # nearest is NaN, as a full scan's min is; a piece in reach before the
        # bad vertex is still found first
        arr = np.array([(-8.61, 41.14), (-8.62, 41.15), (bad, 41.15), (-8.60, 41.14)])
        q = GeoPoint(-8.615, 41.145)
        rule = GroundingRule(arr, 500.0, along_path=True)
        with np.errstate(invalid="ignore"):
            full = full_segment_h(q, arr)
            assert math.isnan(rule.nearest(q)) and math.isnan(arc_m(full.min()))
            hit = first_within(full, 500.0)
            assert hit[0] == 0 and rule.first_in_reach(q) == hit


class TestBboxWithin:
    @settings(max_examples=200)
    @given(evidence=st.lists(st.builds(GeoPoint, st.floats(-170.0, 170.0),
                                       st.floats(-80.0, 80.0)), min_size=1, max_size=4),
           radius=st.floats(0.0, 50_000.0),
           pick=st.integers(0, 3),
           bearing=st.floats(0.0, 2 * math.pi),
           fraction=st.floats(0.0, 1.0))
    def test_holds_every_point_within_the_radius(self, evidence, radius, pick,
                                                 bearing, fraction):
        box = bbox_within(coords(evidence), radius)
        assert all(contains(box, p) for p in evidence)
        # a point up to ``radius`` from an evidence point, in any direction
        c = evidence[pick % len(evidence)]
        kx, ky = meters_per_degree(c.lat)
        r = radius * fraction
        q = GeoPoint(c.lon + r * math.cos(bearing) / kx, c.lat + r * math.sin(bearing) / ky)
        if haversine_distance(q, c) <= radius:
            assert contains(box, q)

    def test_pads_by_the_radius_and_clamps(self):
        box = bbox_within(coords([GOLDEN_A]), 1000.0)
        kx, ky = meters_per_degree(GOLDEN_A.lat)
        assert box.max_lat - GOLDEN_A.lat == pytest.approx(1000.0 / ky, rel=1e-9)
        assert box.max_lon - GOLDEN_A.lon == pytest.approx(1000.0 / kx, rel=1e-3)
        polar = bbox_within(coords([GeoPoint(179.9, 89.9)]), 50_000.0)
        assert (polar.min_lon, polar.max_lon, polar.max_lat) == (-180.0, 180.0, 90.0)

    @pytest.mark.parametrize("radius_m", [2.1e7, 4.5e7, 1e308])
    def test_a_radius_past_the_antipode_covers_the_globe(self, radius_m):
        assert bbox_within(coords([GOLDEN_A]), radius_m) == BoundingBox(-180.0, -90.0, 180.0, 90.0)


# The signs of a column of zeros whose contiguous copy numpy 2.4 reduces (in
# SIMD lanes) to another zero than the row-by-row reduction keeps.
SIMD_ZEROS = "-+--+-+-+----+--+--+---+---++-+-+"


def box_bits(box):
    return [v.hex() if v == v else "nan" for v in astuple(box)]


class TestBoundingBox:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_lon -8.5 > max_lon -8.7"):
            BoundingBox(-8.5, 41.0, -8.7, 41.3)
        with pytest.raises(ValueError, match="min_lat 41.3 > max_lat 41.0"):
            BoundingBox(-8.7, 41.3, -8.5, 41.0)

    def test_contains_is_inclusive(self):
        box = BoundingBox(-8.7, 41.0, -8.5, 41.3)
        assert contains(box, GeoPoint(-8.7, 41.0))
        assert contains(box, GeoPoint(-8.5, 41.3))
        assert not contains(box, GeoPoint(-8.4999, 41.1))

    def test_center(self):
        box = BoundingBox(-8.7, 41.0, -8.5, 41.3)
        assert box.center == GeoPoint(-8.6, 41.15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bbox_of_coords(coords([]))

    def test_single_point_degenerates(self):
        box = bbox_of_coords(coords([GOLDEN_A]))
        assert (box.min_lon, box.min_lat) == (box.max_lon, box.max_lat)

    @given(points=st.lists(city_points, min_size=1, max_size=30))
    def test_contains_all_inputs_and_is_tight(self, points):
        box = bbox_of_coords(coords(points))
        assert all(contains(box, p) for p in points)
        assert box.min_lon in {p.lon for p in points}
        assert box.max_lat in {p.lat for p in points}

    @settings(max_examples=300, deadline=None)
    @given(rows=tied_rows(), layout=st.sampled_from(["C", "F", "every other row"]))
    @example(rows=[(-0.0 if sign == "-" else 0.0, 1.0) for sign in SIMD_ZEROS], layout="C")
    def test_same_bits_as_the_axis_reduction(self, rows, layout):
        """One reduction per column gives each bound's bits, a zero's sign
        included, past any SIMD width: grid_meta.txt prints them with repr."""
        array = np.array(rows, dtype=float)
        array = {"C": array, "F": np.asfortranarray(array),
                 "every other row": np.repeat(array, 2, axis=0)[::2]}[layout]
        assert box_bits(bbox_of_coords(array)) == box_bits(axis_bbox_of_coords(array))


# Longitudes at the antimeridian and latitudes at the poles, and anywhere.
edge_lons = st.sampled_from([180.0, -180.0, 179.99999999, -179.99999999, 0.0, -0.0]) | \
    st.floats(-180.0, 180.0)
edge_lats = st.sampled_from([90.0, -90.0, 89.99999999, -89.99999999, 0.0, -0.0]) | \
    st.floats(-90.0, 90.0)


class TestPolylineTables:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(edge_lons, edge_lats) | st.tuples(st.floats(), st.floats()),
                         min_size=1, max_size=100))
    def test_same_bits_as_the_whole_array_formulas(self, rows):
        coords = np.array(rows, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):      # non-finite rows
            line = Polyline(coords)
            xyz, bound = whole_array_polyline_tables(coords)
        assert line.xyz.tobytes() == xyz.tobytes()
        assert line.length_bound.tobytes() == bound.tobytes()

    def test_tables_are_built_in_place(self):
        """A 50k-vertex line's tables peak at 2.15x its coordinates' bytes: the
        tables themselves (2x) and one spare block, no whole-array temporaries."""
        coords = np.random.default_rng(41).uniform((-8.7, 41.1), (-8.5, 41.25), (50_000, 2))
        Polyline(coords[:10])                   # warm up
        tracemalloc.start()
        try:
            Polyline(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.15 * coords.nbytes, (peak, coords.nbytes)

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import backtracking_walk, contains
from oracles import (dense_polyline_distance, dense_polyline_distance_spaced,
                     haversine_distance, reference_segment_distances)
from trajstory.geo import (EARTH_RADIUS_M, BoundingBox, GeoPoint, arc_m, bbox_of_coords,
                           bbox_within, meters_per_degree,
                           point_to_polyline_distance, segment_h)
from trajstory.geo import as_coords as coords
from trajstory.validation import GroundingPolicy, GroundingRule

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
        rule = GroundingRule(GroundingPolicy(trajectory_threshold_m=max(threshold, 0.0)),
                             coords(line), along_path=True)
        assert rule.nearest(q) == min(want)
        assert rule.first_in_reach(q) == reference_first_in_reach(want, rule.threshold_m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), centers=st.lists(porto_places, min_size=1, max_size=6))
    def test_hotspot_grading_and_discovery(self, data, centers):
        q = data.draw(porto_places | st.sampled_from(centers))
        want = [haversine_distance(q, c) for c in centers]
        threshold = self.thresholds(data, want)
        rule = GroundingRule(GroundingPolicy(hotspot_threshold_m=max(threshold, 0.0)),
                             coords(centers), along_path=False)
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


class TestBoundingBox:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(-8.5, 41.0, -8.7, 41.3)

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

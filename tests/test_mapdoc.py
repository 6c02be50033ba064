import itertools
import json
import math
import random
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import contains, tied_rows
from oracles import (brute_force_clusters, concatenated_map_bbox, haversine_distance,
                     reference_render_geojson, reference_render_html)
from trajstory.gazetteer import POI
from trajstory.geo import BoundingBox, GeoPoint, meters_per_degree
from trajstory.geo import as_coords as coords
from trajstory.ingest import Trajectory
from trajstory.mapdoc import (BBOX_PAD_FRACTION, DEFAULT_CLUSTER_DISTANCE_M,
                              MapDocument, Marker, _SLICE_VERTICES, _shared, emit_map,
                              map_files, render_geojson, render_html)
from trajstory.pipeline import write_files

BASE = GeoPoint(-8.6100, 41.1500)
_, KY = meters_per_degree(BASE.lat)
KX = meters_per_degree(BASE.lat)[0]


def poi_at(name, east_m=0.0, north_m=0.0):
    """Fixture POI displaced from BASE by meters east/north."""
    return POI(name=name, location=GeoPoint(BASE.lon + east_m / KX,
                                            BASE.lat + north_m / KY))


# Places anywhere on the globe, and within a few kilometers of BASE.
places = st.one_of(st.builds(GeoPoint, st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
                   st.builds(GeoPoint, st.floats(-8.63, -8.59), st.floats(41.13, 41.17)))


class TestClustering:
    def test_near_pair_shares_one_marker(self):
        doc = emit_map([poi_at("A"), poi_at("B", east_m=50.0)])
        (marker,) = doc.markers
        assert marker.numbers == (1, 2)
        mid = marker.center
        assert mid.lon == pytest.approx((doc.legend and BASE.lon + 25.0 / KX), abs=1e-9)
        assert doc.legend == [(1, "A"), (2, "B")]

    def test_far_pair_keeps_two_markers(self):
        doc = emit_map([poi_at("A"), poi_at("B", east_m=400.0)])
        assert [m.numbers for m in doc.markers] == [(1,), (2,)]

    def test_zero_threshold_merges_only_coincident_points(self):
        pois = [poi_at("A"), poi_at("B"), poi_at("C", north_m=1.0)]
        doc = emit_map(pois, cluster_distance_m=0.0)
        assert [m.numbers for m in doc.markers] == [(1, 2), (3,)]

    def test_single_linkage_chains_transitively(self):
        pois = [poi_at("A"), poi_at("B", east_m=100.0), poi_at("C", east_m=200.0)]
        doc = emit_map(pois)
        (marker,) = doc.markers
        assert marker.numbers == (1, 2, 3)
        # pulling the middle point out breaks the chain
        doc2 = emit_map([pois[0], pois[2]])
        assert len(doc2.markers) == 2

    def test_random_layouts_match_the_brute_force_oracle(self):
        rng = random.Random(20260825)
        for trial in range(15):
            n = rng.randint(2, 14)
            pts = [GeoPoint(BASE.lon + rng.uniform(-0.004, 0.004),
                            BASE.lat + rng.uniform(-0.004, 0.004))
                   for _ in range(n)]
            pois = [POI(name=f"P{i}", location=p) for i, p in enumerate(pts)]
            doc = emit_map(pois, cluster_distance_m=150.0)
            got = {frozenset(i - 1 for i in m.numbers) for m in doc.markers}
            want = {frozenset(g) for g in brute_force_clusters(pts, 150.0)}
            assert got == want, f"trial {trial}"

    @settings(max_examples=300, deadline=None)
    @given(a=places, b=places)
    @example(a=BASE, b=BASE)
    @example(a=BASE, b=poi_at("B", east_m=150.0).location)
    def test_threshold_at_the_pair_distance_keeps_the_scalar_bits(self, a, b):
        """The reference scalar distance merges the pair; one ulp less splits it."""
        pois = [POI(name="A", location=a), POI(name="B", location=b)]
        d = haversine_distance(a, b)
        merged = emit_map(pois, cluster_distance_m=d)
        assert [m.numbers for m in merged.markers] == [(1, 2)]
        if d > 0:
            split = emit_map(pois, cluster_distance_m=math.nextafter(d, 0))
            assert [m.numbers for m in split.markers] == [(1,), (2,)]

    def test_marker_numbers_partition_the_legend(self):
        rng = random.Random(7)
        pois = [POI(name=f"P{i}",
                    location=GeoPoint(BASE.lon + rng.uniform(-0.01, 0.01),
                                      BASE.lat + rng.uniform(-0.01, 0.01)))
                for i in range(20)]
        doc = emit_map(pois)
        seen = [n for m in doc.markers for n in m.numbers]
        assert sorted(seen) == list(range(1, 21))
        for m in doc.markers:
            assert list(m.numbers) == sorted(m.numbers)

    def test_centroid_is_the_member_mean(self):
        doc = emit_map([poi_at("A"), poi_at("B", east_m=60.0, north_m=80.0)])
        (marker,) = doc.markers
        want_lon = (BASE.lon + (BASE.lon + 60.0 / KX)) / 2
        want_lat = (BASE.lat + (BASE.lat + 80.0 / KY)) / 2
        assert marker.center.lon == pytest.approx(want_lon, abs=1e-12)
        assert marker.center.lat == pytest.approx(want_lat, abs=1e-12)


class TestDocumentShape:
    def test_rejects_negative_cluster_distance(self):
        with pytest.raises(ValueError):
            emit_map([poi_at("A")], cluster_distance_m=-1.0)

    def test_rejects_a_mapless_call(self):
        with pytest.raises(ValueError, match="nothing to map"):
            emit_map([])

    def test_path_only_map(self):
        track = Trajectory(id="t", coords=coords([BASE, GeoPoint(-8.60, 41.16)]))
        doc = emit_map([], trajectory=track)
        assert doc.markers == [] and doc.legend == []
        assert np.array_equal(doc.path, track.coords)
        assert contains(doc.bbox, BASE)

    def test_bbox_pads_ten_percent_per_side(self):
        pois = [poi_at("A"), POI(name="B", location=GeoPoint(-8.6000, 41.1600))]
        doc = emit_map(pois, cluster_distance_m=0.0)
        assert doc.bbox.min_lon == pytest.approx(-8.6100 - 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.max_lon == pytest.approx(-8.6000 + 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.min_lat == pytest.approx(41.1500 - 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.max_lat == pytest.approx(41.1600 + 0.0100 * BBOX_PAD_FRACTION)

    def test_bbox_covers_markers_and_paths(self):
        vertices = [GeoPoint(-8.65, 41.12), BASE]
        track = Trajectory(id="t", coords=coords(vertices))
        doc = emit_map([poi_at("A", east_m=900.0)], trajectory=track)
        for m in doc.markers:
            assert contains(doc.bbox, m.center)
        for p in vertices:
            assert contains(doc.bbox, p)

    def test_default_threshold_exported(self):
        assert DEFAULT_CLUSTER_DISTANCE_M == 150.0


# Coordinates whose bounds tie but for a zero's sign, and some that do not tie.
zero_lons = st.sampled_from([0.0, -0.0, 1e-300, -1e-300]) | st.floats(-180.0, 180.0)
zero_lats = st.sampled_from([0.0, -0.0, 1e-300, -1e-300]) | st.floats(-90.0, 90.0)


class TestBbox:
    @settings(max_examples=300, deadline=None)
    @given(places=tied_rows(zero_lons, zero_lats, min_size=0, max_size=6),
           path=st.none() | tied_rows(zero_lons, zero_lats, max_size=80))
    def test_the_box_of_places_and_path_has_the_bits_of_one_box_around_both(self, places,
                                                                             path):
        """The map's bbox prints with repr, so a zero keeps its sign."""
        if not places and path is None:
            return
        places = [GeoPoint(lon, lat) for lon, lat in places]
        path = None if path is None else np.array(path, dtype=float)
        doc = emit_map([POI(name=f"p{i}", location=p) for i, p in enumerate(places)],
                       trajectory=None if path is None else Trajectory(id="t", coords=path))
        want = concatenated_map_bbox(coords(places), path)
        assert [v.hex() for v in astuple(doc.bbox)] == [v.hex() for v in astuple(want)]


class TestGeoJson:
    def build(self):
        track = Trajectory(id="t", coords=coords([BASE, GeoPoint(-8.6000, 41.1550)]))
        pois = [poi_at("Bolhão Market"), poi_at("Ribeira", east_m=40.0),
                poi_at("Sé", east_m=500.0)]
        return emit_map(pois, trajectory=track)

    def test_structure(self):
        doc = self.build()
        data = json.loads("".join(render_geojson(doc)))
        assert data["type"] == "FeatureCollection"
        assert data["bbox"] == [doc.bbox.min_lon, doc.bbox.min_lat,
                                doc.bbox.max_lon, doc.bbox.max_lat]
        assert data["legend"] == [[1, "Bolhão Market"], [2, "Ribeira"], [3, "Sé"]]
        roles = [f["properties"]["role"] for f in data["features"]]
        assert roles == ["trajectory", "poi", "poi"]
        line = data["features"][0]["geometry"]
        assert line["type"] == "LineString"
        assert line["coordinates"][0] == [BASE.lon, BASE.lat]
        first_marker = data["features"][1]
        assert first_marker["geometry"]["type"] == "Point"
        assert first_marker["properties"]["numbers"] == [1, 2]
        assert first_marker["properties"]["labels"] == ["Bolhão Market", "Ribeira"]

    def test_serialization_is_byte_stable(self):
        text = "".join(render_geojson(self.build()))
        assert text == "".join(render_geojson(self.build()))
        assert text.endswith("\n")
        assert "Bolhão" in text  # not ascii-escaped
        assert text.index('"bbox"') < text.index('"features"') < text.index('"legend"')

    def test_render_html_embeds_map_and_legend(self):
        doc = self.build()
        html = "".join(render_html(doc, render_geojson(doc)))
        assert "<title>trajstory map</title>" in html
        assert "https://tile.openstreetmap.org/{z}/{x}/{y}.png" in html
        assert "leaflet@1.9.4" in html
        assert '<li value="1">Bolhão Market</li>' in html
        assert '"type": "FeatureCollection"' in html

    def test_write_files(self, tmp_path):
        doc = self.build()
        geojson = list(render_geojson(doc))
        geo = tmp_path / "m.geojson"
        html = tmp_path / "m.html"
        write_files(tmp_path, {"m.geojson": geojson})
        assert geo.exists() and not html.exists()
        write_files(tmp_path, {"m.geojson": geojson, "m.html": render_html(doc, geojson)})
        assert json.loads(geo.read_text())["type"] == "FeatureCollection"
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.geojson", "m.html"]


# The text the encoder replaces in the dumped document: as a legend name it
# must come out as a name, not as the path.
SPLICE_TEXT = '"coordinates": []'
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e308, -1e308,
               180.0, -180.0, 90.0, -90.0]
EDGE_NAMES = ["", "nul\x00byte", 'say "hi"', "back\\slash", "Pier</script>",
              "Bolhão São Bento ✓", SPLICE_TEXT]

coordinates = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-180.0, 180.0),
                        st.floats(allow_nan=False, allow_infinity=False))
path_arrays = st.lists(st.tuples(coordinates, coordinates), max_size=40).map(
    lambda rows: np.array(rows, dtype=float).reshape(-1, 2))
legend_names = st.one_of(st.sampled_from(EDGE_NAMES), st.text())
lons, lats = st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)


@st.composite
def map_documents(draw):
    """Any document ``emit_map`` could build, and ones it never would."""
    names = draw(st.lists(legend_names, max_size=6))
    markers, number = [], 1
    while number <= len(names):
        size = draw(st.integers(1, len(names) - number + 1))
        markers.append(Marker(GeoPoint(draw(lons), draw(lats)),
                              tuple(range(number, number + size))))
        number += size
    lon_a, lon_b, lat_a, lat_b = draw(lons), draw(lons), draw(lats), draw(lats)
    return MapDocument(markers=markers, path=draw(st.none() | path_arrays),
                       legend=list(enumerate(names, start=1)),
                       bbox=BoundingBox(min(lon_a, lon_b), min(lat_a, lat_b),
                                        max(lon_a, lon_b), max(lat_a, lat_b)))


def document(path, names=("Ribeira",)):
    return MapDocument(markers=[Marker(BASE, tuple(range(1, len(names) + 1)))] if names else [],
                       path=None if path is None else np.asarray(path, dtype=float).reshape(-1, 2),
                       legend=list(enumerate(names, start=1)),
                       bbox=BoundingBox(-180.0, -90.0, 180.0, 90.0))


class TestBulkPathEncoder:
    """``render_geojson`` writes the path in bulk, to the bytes of plain ``json.dumps``."""

    @settings(max_examples=300, deadline=None)
    @given(doc=map_documents())
    @example(doc=document(None, names=("Ribeira", "Sé")))
    @example(doc=document([]))
    @example(doc=document([EDGE_FLOATS[:2]]))
    @example(doc=document(np.reshape(EDGE_FLOATS, (-1, 2)), names=EDGE_NAMES))
    @example(doc=document([[-8.61, 41.15]], names=EDGE_NAMES))
    @example(doc=document([[1e-7, 1e16]], names=(SPLICE_TEXT, SPLICE_TEXT)))
    def test_matches_the_json_dumps_reference(self, doc):
        assert "".join(render_geojson(doc)) == reference_render_geojson(doc)
        assert "".join(render_html(doc, render_geojson(doc))) == reference_render_html(doc)

    def test_long_path_matches_the_reference(self):
        walk = np.cumsum(np.random.default_rng(9).normal(0.0, 1e-4, (5_000, 2)), axis=0)
        doc = document(walk + (BASE.lon, BASE.lat), names=EDGE_NAMES)
        parts = list(render_geojson(doc))
        text = "".join(parts)
        assert text == reference_render_geojson(doc)
        assert "".join(render_html(doc, parts)) == reference_render_html(doc)
        assert [name for _, name in json.loads(text)["legend"]] == EDGE_NAMES
        # a head, the path in slices, a tail
        assert len(parts) == 2 + math.ceil(5_000 / _SLICE_VERTICES)

    def test_non_finite_values_are_spelled_as_json_dumps_spells_them(self):
        doc = document([[float("nan"), 41.15], [float("inf"), float("-inf")], [-0.0, 1.0]])
        text = "".join(render_geojson(doc))
        assert text == reference_render_geojson(doc)
        assert "NaN" in text and "-Infinity" in text
        assert "nan" not in text and "inf" not in text

    def test_non_finite_values_past_the_first_slice(self):
        path = np.full((_SLICE_VERTICES + 1, 2), 41.15)
        path[-1] = float("nan"), float("-inf")
        doc = document(path)
        assert "".join(render_geojson(doc)) == reference_render_geojson(doc)
        assert "".join(render_html(doc, render_geojson(doc))) == reference_render_html(doc)

    def test_writing_a_long_map_holds_its_path_text_once(self, tmp_path):
        """Both map files of a 50k-vertex trip, rendered and written, peak at 0.3x
        the GeoJSON's bytes: each slice of the path's text is made once, written
        to both files and dropped, with no whole-document string and no
        whole-file encode."""
        walk = np.cumsum(np.random.default_rng(50).normal(0.0, 1e-4, (50_000, 2)), axis=0)
        doc = emit_map([poi_at("Ribeira"), poi_at("Sé", east_m=500.0)],
                       trajectory=Trajectory(id="shift", coords=walk + (BASE.lon, BASE.lat)))
        tracemalloc.start()
        try:
            write_files(tmp_path, map_files(doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * (tmp_path / "map.geojson").stat().st_size
        assert (tmp_path / "map.geojson").read_bytes() == reference_render_geojson(doc).encode()
        assert (tmp_path / "map.html").read_bytes() == reference_render_html(doc).encode()

    @settings(max_examples=100, deadline=None)
    @given(doc=map_documents(), slice_vertices=st.integers(1, 4))
    def test_map_files_are_the_rendered_texts(self, tmp_path_factory, doc, slice_vertices):
        out = tmp_path_factory.mktemp("map")
        with mock.patch("trajstory.mapdoc._SLICE_VERTICES", slice_vertices):
            write_files(out, map_files(doc))
        assert (out / "map.geojson").read_bytes() == reference_render_geojson(doc).encode()
        assert (out / "map.html").read_bytes() == reference_render_html(doc).encode()

    @given(parts=st.lists(st.text(), max_size=8), order=st.lists(st.booleans(), max_size=20))
    def test_shared_parts_reach_both_iterators_in_any_order(self, parts, order):
        columns = _shared(iter(parts))
        got = ([], [])
        for pick in order:              # an interleaving, then the rest of each
            got[pick].extend(itertools.islice(columns[pick], 1))
        for column, seen in zip(columns, got):
            seen.extend(column)
        assert got == (parts, parts)


class TestHtmlEscaping:
    """Legend names come from story text; none of them can inject markup."""

    EVIL = "Pier</script><script>alert(1)</script>"

    def test_names_and_title_cannot_inject_script(self):
        doc = emit_map([poi_at(self.EVIL), poi_at("Fish & Chips <Bar>", east_m=500.0)])
        page = "".join(render_html(doc, render_geojson(doc)))
        assert "alert(1)" in page
        assert "<script>alert" not in page
        plain_doc = emit_map([poi_at("A")])
        plain = "".join(render_html(plain_doc, render_geojson(plain_doc)))
        assert page.count("</script>") == plain.count("</script>")
        assert "<title>trajstory map</title>" in page
        assert ('<li value="1">Pier&lt;/script&gt;&lt;script&gt;alert(1)&lt;/script&gt;</li>'
                in page)
        assert '<li value="2">Fish &amp; Chips &lt;Bar&gt;</li>' in page

    def test_embedded_geojson_decodes_to_the_same_document(self):
        doc = emit_map([poi_at(self.EVIL), poi_at("Fish & Chips", east_m=500.0)])
        page = "".join(render_html(doc, render_geojson(doc)))
        embedded = page.split("var data = ", 1)[1].split(";\nvar map", 1)[0]
        assert "<" not in embedded and ">" not in embedded and "&" not in embedded
        assert json.loads(embedded) == json.loads("".join(render_geojson(doc)))

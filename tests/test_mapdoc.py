import json
import random

import pytest

from oracles import brute_force_clusters
from trajstory.gazetteer import POI
from trajstory.geo import GeoPoint, haversine_distance, meters_per_degree
from trajstory.ingest import Trajectory
from trajstory.mapdoc import (BBOX_PAD_FRACTION, DEFAULT_CLUSTER_DISTANCE_M,
                              MapDocument, Marker, emit_map, render_geojson,
                              render_html, write_map)

BASE = GeoPoint(-8.6100, 41.1500)
_, KY = meters_per_degree(BASE.lat)
KX = meters_per_degree(BASE.lat)[0]


def poi_at(name, east_m=0.0, north_m=0.0):
    """Fixture POI displaced from BASE by meters east/north."""
    return POI(name=name, location=GeoPoint(BASE.lon + east_m / KX,
                                            BASE.lat + north_m / KY))


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
        track = Trajectory(id="t", points=[BASE, GeoPoint(-8.60, 41.16)])
        doc = emit_map([], trajectory=track)
        assert doc.markers == [] and doc.legend == []
        assert doc.paths == [track.points]
        assert doc.bbox.contains(BASE)

    def test_bbox_pads_ten_percent_per_side(self):
        pois = [poi_at("A"), POI(name="B", location=GeoPoint(-8.6000, 41.1600))]
        doc = emit_map(pois, cluster_distance_m=0.0)
        assert doc.bbox.min_lon == pytest.approx(-8.6100 - 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.max_lon == pytest.approx(-8.6000 + 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.min_lat == pytest.approx(41.1500 - 0.0100 * BBOX_PAD_FRACTION)
        assert doc.bbox.max_lat == pytest.approx(41.1600 + 0.0100 * BBOX_PAD_FRACTION)

    def test_bbox_covers_markers_and_paths(self):
        track = Trajectory(id="t", points=[GeoPoint(-8.65, 41.12), BASE])
        doc = emit_map([poi_at("A", east_m=900.0)], trajectory=track)
        for m in doc.markers:
            assert doc.bbox.contains(m.center)
        for p in track.points:
            assert doc.bbox.contains(p)

    def test_default_threshold_exported(self):
        assert DEFAULT_CLUSTER_DISTANCE_M == 150.0


class TestGeoJson:
    def build(self):
        track = Trajectory(id="t", points=[BASE, GeoPoint(-8.6000, 41.1550)])
        pois = [poi_at("Bolhão Market"), poi_at("Ribeira", east_m=40.0),
                poi_at("Sé", east_m=500.0)]
        return emit_map(pois, trajectory=track)

    def test_structure(self):
        doc = self.build()
        data = json.loads(render_geojson(doc))
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
        text = render_geojson(self.build())
        assert text == render_geojson(self.build())
        assert text.endswith("\n")
        assert "Bolhão" in text  # not ascii-escaped
        assert text.index('"bbox"') < text.index('"features"') < text.index('"legend"')

    def test_render_html_embeds_map_and_legend(self):
        doc = self.build()
        html = render_html(doc, render_geojson(doc), title="porto endpoints")
        assert "<title>porto endpoints</title>" in html
        assert "https://tile.openstreetmap.org/{z}/{x}/{y}.png" in html
        assert "leaflet@1.9.4" in html
        assert '<li value="1">Bolhão Market</li>' in html
        assert '"type": "FeatureCollection"' in html

    def test_write_map(self, tmp_path):
        doc = self.build()
        geo = tmp_path / "m.geojson"
        html = tmp_path / "m.html"
        write_map(doc, geo)
        assert geo.exists() and not html.exists()
        write_map(doc, geo, html)
        assert json.loads(geo.read_text())["type"] == "FeatureCollection"
        assert html.read_text().startswith("<!DOCTYPE html>")


class TestHtmlEscaping:
    """Legend names come from story text; none of them can inject markup."""

    EVIL = "Pier</script><script>alert(1)</script>"

    def test_names_and_title_cannot_inject_script(self):
        doc = emit_map([poi_at(self.EVIL), poi_at("Fish & Chips <Bar>", east_m=500.0)])
        page = render_html(doc, render_geojson(doc), title="<b>map</b> & more")
        assert "alert(1)" in page
        assert "<script>alert" not in page
        plain_doc = emit_map([poi_at("A")])
        plain = render_html(plain_doc, render_geojson(plain_doc))
        assert page.count("</script>") == plain.count("</script>")
        assert "<title>&lt;b&gt;map&lt;/b&gt; &amp; more</title>" in page
        assert ('<li value="1">Pier&lt;/script&gt;&lt;script&gt;alert(1)&lt;/script&gt;</li>'
                in page)
        assert '<li value="2">Fish &amp; Chips &lt;Bar&gt;</li>' in page

    def test_embedded_geojson_decodes_to_the_same_document(self):
        doc = emit_map([poi_at(self.EVIL), poi_at("Fish & Chips", east_m=500.0)])
        page = render_html(doc, render_geojson(doc))
        embedded = page.split("var data = ", 1)[1].split(";\nvar map", 1)[0]
        assert "<" not in embedded and ">" not in embedded and "&" not in embedded
        assert json.loads(embedded) == json.loads(render_geojson(doc))

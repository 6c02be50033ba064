import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CENTRAL_ROUTE_NAMES
from trajstory.errors import (ConfigurationError, InfrastructureError,
                              ParseError, StoryValidationError)
from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import (BoundingBox, GeoPoint, haversine_distance,
                           point_to_polyline_distance)
from trajstory.geo import as_coords as coords
from trajstory.ingest import select_trajectory
from trajstory.pipeline import (StoryRequest, discover, execute, plan, run_steps,
                                write_bundle)
from trajstory.story import (NarrativeSpec, Story, TemplateBackend, count_words,
                             extract_mentions)
from trajstory.synth import ScriptedBackend, write_kaggle_csv
from trajstory.validation import (GROUNDED, GroundingContext, GroundingPolicy,
                                  grounding_rule, validate_story)

GOOD_STORY = "The day ends at [[POI: Avenida dos Aliados]].\n"
UNPARSEABLE = "a story with no markup at all\n"
UNKNOWN_POI = "All roads lead to [[POI: Atlantis Pier]].\n"

FB_MARKUP = "Fix markup: story contains no POI markup spans."
FB_UNKNOWN = "Do not mention Atlantis Pier: it could not be located."


def heatmap_request(csv_path, **kw):
    kw.setdefault("spec", NarrativeSpec())
    return StoryRequest(dataset_path=str(csv_path), mode="heatmap", **kw)


def lenient_heatmap_request(csv_path, **kw):
    return heatmap_request(csv_path,
                           spec=NarrativeSpec(min_pois=1, max_words=10_000), **kw)


@pytest.fixture()
def route_file(tmp_path, central_route):
    path = tmp_path / "downtown.txt"
    path.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in central_route))
    return path


STEP_NAMES = ["ingest", "analytics", "discovery", "generate", "validate", "emit"]


def far_story(mode):
    """A story naming one place about 6 km from downtown Porto."""
    text = "All roads lead to [[POI: Matosinhos Beach]].\n"
    return Story(text=text, mentions=extract_mentions(text), word_count=count_words(text),
                 spec=NarrativeSpec(mode=mode, min_pois=0), backend_id="external")


class TestPlan:
    def test_heatmap_steps(self, cluster_csv):
        req = heatmap_request(cluster_csv)
        assert [name for name, _ in plan(req)] == STEP_NAMES
        run = run_steps(req, ("ingest", "analytics", "discovery"))
        # analytics builds the grid and grounds on its hotspots
        assert run.traj is None and run.grid is not None
        centers = [h.center for h in run.hotspots]
        assert run.grounding.hotspot_centers == centers
        # discovery offers the places within the hotspot threshold of a center
        assert run.story_ctx.candidate_pois
        for poi in run.story_ctx.candidate_pois:
            assert min(haversine_distance(poi.location, c) for c in centers) <= 1000.0
        # validate grades against the hotspot threshold
        lenient = replace(req, policy=GroundingPolicy(trajectory_threshold_m=0.0,
                                                      hotspot_threshold_m=1e7))
        graded = run_steps(lenient, ("ingest", "analytics", "validate"),
                           story=far_story("heatmap"))
        assert graded.report.overall

    def test_single_trajectory_steps(self, cluster_csv):
        req = StoryRequest(dataset_path=str(cluster_csv), mode="single_trajectory",
                           spec=NarrativeSpec(mode="single_trajectory"))
        assert [name for name, _ in plan(req)] == STEP_NAMES
        run = run_steps(req, ("ingest", "analytics", "discovery"))
        # analytics selects the trip by the default criterion, longest_by_points
        assert run.traj.id == select_trajectory(run.ds, "longest_by_points").id
        assert run.grounding.trajectory == run.traj.points
        # discovery offers the places within the trajectory threshold of the path
        for poi in run.story_ctx.candidate_pois:
            assert point_to_polyline_distance(poi.location, coords(run.traj.points)) <= 500.0
        # validate grades against the trajectory threshold
        lenient = replace(req, policy=GroundingPolicy(trajectory_threshold_m=1e7,
                                                      hotspot_threshold_m=0.0))
        graded = run_steps(lenient, ("ingest", "analytics", "validate"),
                           story=far_story("single_trajectory"))
        assert graded.report.overall

    def test_same_request_same_plan(self, cluster_csv):
        req = heatmap_request(cluster_csv)
        assert plan(req) == plan(req)
        assert all(callable(fn) for _, fn in plan(req))

    def test_all_violations_reported_at_once(self, cluster_csv):
        req = heatmap_request(cluster_csv, max_retries=0,
                              cluster_distance_m=-5.0, cell_size_m=0.0)
        with pytest.raises(ConfigurationError) as err:
            plan(req)
        msg = str(err.value)
        assert msg.startswith("invalid request: ")
        assert "max_retries" in msg
        assert "cluster_distance_m" in msg
        assert "cell_size_m" in msg

    def test_mode_mismatch_with_spec(self, cluster_csv):
        req = StoryRequest(dataset_path=str(cluster_csv), mode="single_trajectory",
                           spec=NarrativeSpec(mode="heatmap"))
        with pytest.raises(ConfigurationError, match="narrative spec mode"):
            plan(req)

    def test_by_id_needs_an_id(self, cluster_csv):
        req = StoryRequest(dataset_path=str(cluster_csv), mode="single_trajectory",
                           spec=NarrativeSpec(mode="single_trajectory"),
                           selection="by_id")
        with pytest.raises(ConfigurationError, match="selection_id"):
            plan(req)


class TestExecuteHeatmap:
    def test_first_attempt_passes_offline(self, cluster_csv):
        result = execute(heatmap_request(cluster_csv), TemplateBackend())
        assert result.attempts == 1
        assert result.report.overall
        assert result.story.word_count <= 150
        assert len({m.name for m in result.story.mentions}) >= 15
        assert [t.step for t in result.trace] == \
            ["ingest", "analytics", "discovery", "generate", "validate", "emit"]
        assert all(t.seconds >= 0.0 for t in result.trace)

    def test_map_reflects_the_grounded_story(self, cluster_csv):
        result = execute(heatmap_request(cluster_csv), TemplateBackend())
        mentioned = {m.name for m in result.story.mentions}
        assert len(result.map.legend) == len(mentioned)
        assert {name for _, name in result.map.legend} == mentioned
        assert result.map.paths == []
        for marker in result.map.markers:
            assert result.map.bbox.contains(marker.center)

    def test_replay_is_deterministic(self, cluster_csv):
        from trajstory.mapdoc import render_geojson
        a = execute(heatmap_request(cluster_csv), TemplateBackend())
        b = execute(heatmap_request(cluster_csv), TemplateBackend())
        assert a.story.text == b.story.text
        assert a.report == b.report
        assert render_geojson(a.map) == render_geojson(b.map)
        assert a.attempts == b.attempts


class TestExecuteSingleTrajectory:
    def request(self, route_file):
        return StoryRequest(
            dataset_path=str(route_file), mode="single_trajectory",
            dataset_schema="point_list",
            spec=NarrativeSpec(mode="single_trajectory", min_pois=5,
                               max_words=200),
            policy=GroundingPolicy(trajectory_threshold_m=300.0))

    def test_route_story_grounds_on_the_path(self, route_file, central_route):
        result = execute(self.request(route_file), TemplateBackend())
        assert result.attempts == 1
        assert result.report.overall
        assert result.map.paths == [central_route]
        for verdict in result.report.per_poi:
            assert verdict.distance_m <= 300.0


    def test_shipped_defaults_pass_on_the_first_attempt(self, tmp_path, gazetteer,
                                                        central_route):
        # A stub vertex 30% of the way from the first stop toward a market
        # leaves that market 759 m off the path: near a sampled vertex, but
        # outside the 500 m grounding threshold.
        a = central_route[0]
        b = gazetteer.geocode("Mercado do Bom Sucesso").location
        stub = GeoPoint(a.lon + 0.3 * (b.lon - a.lon), a.lat + 0.3 * (b.lat - a.lat))
        route = [stub] + central_route
        assert point_to_polyline_distance(b, coords(route)) == pytest.approx(759.1, abs=0.1)
        path = tmp_path / "stub.txt"
        path.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in route))
        req = StoryRequest(dataset_path=str(path), dataset_schema="point_list",
                           mode="single_trajectory",
                           spec=NarrativeSpec(mode="single_trajectory"))
        result = execute(req, TemplateBackend())
        assert result.attempts == 1
        assert result.report.overall
        assert [p.verdict for p in result.report.per_poi] == [GROUNDED] * 15
        assert "Mercado do Bom Sucesso" not in {p.name for p in result.report.per_poi}


# Places near downtown Porto, where the fixture lives, and grounding
# thresholds from nothing to well past the fixture's spread.
porto_points = st.builds(GeoPoint, st.floats(-8.70, -8.57), st.floats(41.13, 41.18))


class TestDiscovery:
    """Discovery offers exactly the places the validator grounds."""

    @staticmethod
    def rule(evidence, threshold_m, along_path):
        if along_path:
            ctx, mode = GroundingContext(trajectory=evidence), "single_trajectory"
        else:
            ctx, mode = GroundingContext(hotspot_centers=evidence), "heatmap"
        policy = GroundingPolicy(trajectory_threshold_m=threshold_m,
                                 hotspot_threshold_m=threshold_m)
        return ctx, mode, policy

    @settings(max_examples=60, deadline=None)
    @given(evidence=st.lists(porto_points, min_size=1, max_size=6),
           threshold_m=st.floats(0.0, 3000.0), along_path=st.booleans())
    def test_discovered_iff_grounded(self, gazetteer, evidence, threshold_m, along_path):
        ctx, mode, policy = self.rule(evidence, threshold_m, along_path)
        discovered = [p.name for p in discover(gazetteer, grounding_rule(ctx, mode, policy))]
        assert len(discovered) == len(set(discovered))
        names = [p.name for p in gazetteer.known_pois(BoundingBox(-180, -90, 180, 90))]
        text = " ".join(f"[[POI: {name}]]" for name in names)
        story = Story(text=text, mentions=extract_mentions(text),
                      word_count=count_words(text), backend_id="test",
                      spec=NarrativeSpec(mode=mode, min_pois=0, max_words=10**6))
        report = validate_story(story, ctx, policy, gazetteer)
        grounded = {p.name for p in report.per_poi if p.verdict == GROUNDED}
        assert set(discovered) == grounded

    def test_route_order(self, gazetteer, central_route):
        # every route vertex is a fixture place: it is first in reach of the
        # segment that ends at it (the first place, of the segment it starts)
        ctx, mode, policy = self.rule(central_route, 1.0, along_path=True)
        got = [p.name for p in discover(gazetteer, grounding_rule(ctx, mode, policy))]
        want = sorted(CENTRAL_ROUTE_NAMES,
                      key=lambda n: (max(0, CENTRAL_ROUTE_NAMES.index(n) - 1), n))
        assert got == want

    def test_heatmap_order_is_by_hotspot_rank_then_distance(self, gazetteer):
        centers = [GeoPoint(-8.6290, 41.1580), GeoPoint(-8.6107, 41.1480)]
        ctx, mode, policy = self.rule(centers, 600.0, along_path=False)
        got = discover(gazetteer, grounding_rule(ctx, mode, policy))
        firsts = [next(i for i, c in enumerate(centers)
                       if haversine_distance(p.location, c) <= 600.0) for p in got]
        assert firsts == sorted(firsts) and firsts[0] == 0 and firsts[-1] == 1
        for rank in (0, 1):
            dists = [haversine_distance(p.location, centers[rank])
                     for p, first in zip(got, firsts) if first == rank]
            assert dists == sorted(dists)

    @pytest.mark.parametrize("along_path", [False, True])
    def test_online_sends_one_area_query_covering_the_threshold(self, gazetteer,
                                                                along_path):
        calls = []

        def fetch(url, params):
            calls.append(params)
            return [{"name": "Pop-up Market", "lon": "-8.6105", "lat": "41.1482"}]

        gaz = Gazetteer(GazetteerConfig(offline_only=False, base_url="https://geo.example"),
                        fetch=fetch)
        evidence = [GeoPoint(-8.6290, 41.1580), GeoPoint(-8.6107, 41.1480),
                    GeoPoint(-8.5855, 41.1486)]
        ctx, mode, policy = self.rule(evidence, 800.0, along_path)
        rule = grounding_rule(ctx, mode, policy)
        got = {p.name for p in discover(gaz, rule)}
        assert len(calls) == 1
        params = calls[0]
        assert (params["q"], params["limit"], params["bounded"]) == ("", "50", "1")
        box = BoundingBox(*map(float, params["viewbox"].split(",")))
        reachable = [p for p in gazetteer.known_pois(box)
                     if rule.nearest(p.location) <= 800.0]
        assert reachable and all(box.contains(p.location) for p in reachable)
        assert {p.name for p in reachable} | {"Pop-up Market"} == got


class TestRetryLoop:
    def test_feedback_accumulates_across_attempts(self, cluster_csv):
        backend = ScriptedBackend([UNPARSEABLE, UNKNOWN_POI, GOOD_STORY])
        result = execute(lenient_heatmap_request(cluster_csv), backend)

        assert result.attempts == 3
        assert backend.call_count == 3
        assert [t.step for t in result.trace] == \
            ["ingest", "analytics", "discovery",
             "generate", "feedback",
             "generate", "validate", "feedback",
             "generate", "validate", "emit"]
        feedback = [t.detail for t in result.trace if t.step == "feedback"]
        assert feedback == [FB_MARKUP, FB_UNKNOWN]

        assert "Additional instructions" not in backend.prompts[0]
        assert FB_MARKUP in backend.prompts[1]
        assert FB_UNKNOWN not in backend.prompts[1]
        p3 = backend.prompts[2]
        assert FB_MARKUP in p3 and FB_UNKNOWN in p3
        assert p3.index(FB_MARKUP) < p3.index(FB_UNKNOWN)

    def test_unparseable_attempt_is_traced(self, cluster_csv):
        backend = ScriptedBackend([UNPARSEABLE, GOOD_STORY])
        result = execute(lenient_heatmap_request(cluster_csv), backend)
        gen1 = [t for t in result.trace if t.step == "generate"][0]
        assert "attempt 1: unparseable story" in gen1.detail

    def test_request_spec_is_not_mutated(self, cluster_csv):
        req = lenient_heatmap_request(cluster_csv)
        backend = ScriptedBackend([UNKNOWN_POI, GOOD_STORY])
        execute(req, backend)
        assert req.spec.extra_instructions == []

    def test_exhaustion_raises_with_the_final_report(self, cluster_csv):
        backend = ScriptedBackend([UNKNOWN_POI, UNKNOWN_POI, GOOD_STORY])
        req = lenient_heatmap_request(cluster_csv, max_retries=2)
        with pytest.raises(StoryValidationError) as err:
            execute(req, backend)
        assert backend.call_count == 2          # the third response stays unused
        assert "2 attempt(s)" in str(err.value)
        assert err.value.report is not None
        assert not err.value.report.overall
        assert err.value.story.text == UNKNOWN_POI
        feedback = [t for t in err.value.trace if t.step == "feedback"]
        assert len(feedback) == 1               # none after the final attempt

    def test_backend_outage_is_tagged_infrastructure(self, cluster_csv):
        class DownBackend:
            backend_id = "down"

            def generate(self, prompt, ctx, spec):
                raise InfrastructureError("backend down")

        with pytest.raises(InfrastructureError) as err:
            execute(lenient_heatmap_request(cluster_csv), DownBackend())
        assert err.value.step == "generate"


class TestIngestFailures:
    def test_missing_file(self, tmp_path):
        req = heatmap_request(tmp_path / "nope.csv")
        with pytest.raises(ConfigurationError, match="cannot read dataset"):
            execute(req, TemplateBackend())

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,"
                        "TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n")
        with pytest.raises(ParseError, match="no usable trajectories"):
            execute(heatmap_request(path), TemplateBackend())


    def test_trace_counts_skipped_rows_by_reason(self, cluster_dataset, tmp_path):
        path = tmp_path / "salted.csv"
        write_kaggle_csv(cluster_dataset, path, bad_rows=8, seed=1)
        result = execute(heatmap_request(path), TemplateBackend())
        ingest = result.trace[0]
        assert ingest.step == "ingest"
        assert ingest.detail == ("400 trajectories, 8 rows skipped "
                                 "(2 missing_data, 2 bad_json, 4 too_short)")


class TestWriteBundle:
    def test_full_bundle(self, cluster_csv, tmp_path):
        result = execute(heatmap_request(cluster_csv), TemplateBackend())
        out = tmp_path / "bundle"
        written = write_bundle(result, out)
        assert [p.name for p in written] == \
            ["story.txt", "story.json", "report.json", "report.txt",
             "map.geojson", "map.html", "trace.json"]
        assert (out / "story.txt").read_text(encoding="utf-8") == result.story.text
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["overall"] == "pass"
        geo = json.loads((out / "map.geojson").read_text(encoding="utf-8"))
        assert geo["type"] == "FeatureCollection"
        trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
        assert trace["attempts"] == 1
        assert trace["steps"][0]["step"] == "ingest"

    def test_html_is_optional(self, cluster_csv, tmp_path):
        result = execute(heatmap_request(cluster_csv), TemplateBackend())
        written = write_bundle(result, tmp_path / "nohtml", with_html=False)
        assert all(p.name != "map.html" for p in written)
        assert not (tmp_path / "nohtml" / "map.html").exists()

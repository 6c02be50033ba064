"""Release gate: the eight end-to-end guarantees this package ships under.

Each test prints its own verdict line (see the hook in conftest), so a full
run reads as a checklist. Everything here is offline and seeded.
"""

import random
import time

import pytest

from conftest import FAR_POI_NAMES, PORTO_CLUSTERS
from oracles import (brute_force_clusters, dense_polyline_distance,
                     full_sort_hotspots)
from trajstory.errors import StoryValidationError
from trajstory.geo import GeoPoint, point_to_polyline_distance
from trajstory.geo import as_coords as coords
from trajstory.heatgrid import build_grid, top_hotspots
from trajstory.ingest import parse_dataset, trip_endpoints
from trajstory.mapdoc import emit_map, render_geojson
from trajstory.pipeline import StoryRequest, discover, execute, write_bundle
from trajstory.story import (NarrativeSpec, StoryContext, TemplateBackend,
                             generate_story)
from trajstory.synth import (PORTO_BBOX, ScriptedBackend, SyntheticSpec,
                             generate_dataset, inject_hallucinations,
                             write_kaggle_csv)
from trajstory.validation import (GroundingContext, GroundingPolicy,
                                  grounding_rule, validate_story)

SEED = 20260825


def heatmap_request(csv_path, **kw):
    kw.setdefault("spec", NarrativeSpec())
    return StoryRequest(dataset_path=str(csv_path), mode="heatmap", **kw)


def test_criterion_1_offline_heatmap_story(cluster_csv):
    """Template backend, fixture gazetteer, no network: rich story, fast."""
    t0 = time.perf_counter()
    result = execute(heatmap_request(cluster_csv), TemplateBackend())
    elapsed = time.perf_counter() - t0

    assert result.report.overall, "validation must pass"
    distinct = {m.name for m in result.story.mentions}
    assert len(distinct) >= 15, f"only {len(distinct)} distinct POIs"
    assert result.story.word_count <= 150, f"{result.story.word_count} words"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_hallucination_separation(gazetteer, central_route):
    """Legit mentions hug the route; five planted far POIs get flagged, exactly."""
    route = GroundingContext(trajectory=central_route)
    candidates = discover(gazetteer, grounding_rule(
        route, "single_trajectory", GroundingPolicy(trajectory_threshold_m=250.0)))
    assert len(candidates) >= 10
    for poi in candidates:
        d = point_to_polyline_distance(poi.location, coords(central_route))
        assert d < 250.0, f"{poi.name} at {d:.1f} m"

    spec = NarrativeSpec(mode="single_trajectory", min_pois=10, max_words=400)
    ctx = StoryContext(data_summary="a downtown walking route",
                       candidate_pois=candidates, region_name="Porto")
    story = generate_story("", TemplateBackend(), spec, ctx)

    far = [gazetteer.geocode(name) for name in FAR_POI_NAMES]
    for poi in far:
        d = point_to_polyline_distance(poi.location, coords(central_route))
        assert d > 2000.0, f"{poi.name} only {d:.1f} m out"
    doctored = inject_hallucinations(story, far)

    report = validate_story(doctored, route, GroundingPolicy(), gazetteer)
    flagged = {p.name for p in report.flagged()}
    planted = set(FAR_POI_NAMES)
    assert flagged == planted
    precision = len(flagged & planted) / len(flagged)
    recall = len(flagged & planted) / len(planted)
    assert precision == 1.0 and recall == 1.0
    assert not report.overall


def test_criterion_3_grid_conservation_and_hotspot_order():
    """Every one of 10,000 endpoints lands in exactly one bucket."""
    spec = SyntheticSpec(seed=SEED, n_trajectories=10_000,
                         endpoint_clusters=list(PORTO_CLUSTERS))
    endpoints = trip_endpoints(generate_dataset(spec))
    assert len(endpoints) == 10_000

    grid = build_grid(endpoints)
    assert int(grid.counts.sum()) + grid.out_of_bbox == 10_000
    assert grid.total_in_bbox == int(grid.counts.sum())

    for k in (1, 5, 10):
        got = [(h.cell_row, h.cell_col, h.count) for h in top_hotspots(grid, k)]
        assert got == full_sort_hotspots(grid, k), f"k={k}"
        assert [h.rank for h in top_hotspots(grid, k)] == list(range(1, len(got) + 1))


def test_criterion_4_distance_against_dense_oracle():
    """100 frozen random cases in a 0.2 degree box, 1,000 samples per segment."""
    rng = random.Random(SEED)

    def pt():
        return GeoPoint(rng.uniform(-8.70, -8.50), rng.uniform(41.05, 41.25))

    for case in range(100):
        line = [pt() for _ in range(rng.randint(2, 6))]
        q = pt()
        got = point_to_polyline_distance(q, coords(line))
        want = dense_polyline_distance(q, line, samples=1000)
        tol = max(1.0, 0.005 * want)
        assert got == pytest.approx(want, abs=tol), f"case {case}"


def test_criterion_5_retry_loop_counts(cluster_csv):
    """Two failures then a pass: 3 calls, 2 feedback injections; hard cap honored."""
    bad = "A stop at [[POI: Atlantis Pier]].\n"
    bad2 = "A stop at [[POI: Sunken Lighthouse]].\n"
    good = "The day ends at [[POI: Avenida dos Aliados]].\n"
    spec = NarrativeSpec(min_pois=1, max_words=10_000)

    backend = ScriptedBackend([bad, bad2, good])
    result = execute(heatmap_request(cluster_csv, spec=spec), backend)
    assert result.attempts == 3
    assert backend.call_count == 3
    feedback = [t.detail for t in result.trace if t.step == "feedback"]
    assert len(feedback) == 2
    assert feedback[0] in backend.prompts[1]
    assert feedback[0] in backend.prompts[2] and feedback[1] in backend.prompts[2]
    assert backend.prompts[2].index(feedback[0]) \
        < backend.prompts[2].index(feedback[1])

    stubborn = ScriptedBackend([bad, bad2, good])
    with pytest.raises(StoryValidationError) as err:
        execute(heatmap_request(cluster_csv, spec=spec, max_retries=2), stubborn)
    assert stubborn.call_count == 2
    assert "2 attempt(s)" in str(err.value)


def test_criterion_6_map_emission(gazetteer):
    """18 fixture POIs: full legend, oracle-identical clusters, stable bytes."""
    pois = gazetteer.known_pois(PORTO_BBOX)[:18]
    doc = emit_map(pois, cluster_distance_m=150.0)

    assert doc.legend == [(i + 1, poi.name) for i, poi in enumerate(pois)]
    got = {frozenset(n - 1 for n in m.numbers) for m in doc.markers}
    want = {frozenset(g)
            for g in brute_force_clusters([p.location for p in pois], 150.0)}
    assert got == want
    for marker in doc.markers:
        assert PORTO_BBOX.contains(marker.center)

    again = emit_map(gazetteer.known_pois(PORTO_BBOX)[:18], cluster_distance_m=150.0)
    assert render_geojson(doc).encode() == render_geojson(again).encode()


def test_criterion_7_ingestion_counts(tmp_path):
    """1,000-row Kaggle-schema file, 63 rows known bad."""
    ds = generate_dataset(SyntheticSpec(seed=SEED, n_trajectories=937))
    path = tmp_path / "trips.csv"
    total = write_kaggle_csv(ds, path, bad_rows=63, seed=SEED)
    assert total == 1000

    parsed = parse_dataset(str(path), "kaggle_porto")
    assert len(parsed) == 937
    assert parsed.skipped_rows == 63
    assert len(trip_endpoints(parsed)) == 937


def test_criterion_8_determinism_sweep(cluster_csv, tmp_path):
    """Same config twice: story, report, and GeoJSON byte-identical."""
    outs = []
    for name in ("one", "two"):
        result = execute(heatmap_request(cluster_csv), TemplateBackend())
        out = tmp_path / name
        write_bundle(result, out)
        outs.append(out)
    for artifact in ("story.txt", "report.json", "map.geojson"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, artifact

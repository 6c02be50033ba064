"""Per-layer microbenchmarks, outside the test suite.

Run from the repository root:

    PYTHONPATH=src python -m pytest microbench -p no:cacheprovider

Each input is seeded: a 50,000-vertex walk that doubles back inside
downtown Porto, as one vehicle's shift would, and a Kaggle-schema file of
20,000 synthetic trips with 1% bad rows (ten decode blocks).
"""

from __future__ import annotations

import numpy as np
import pytest

from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import GeoPoint, point_to_polyline_distance
from trajstory.heatgrid import build_grid, top_hotspots
from trajstory.ingest import (Trajectory, parse_dataset, select_trajectory,
                              trip_endpoints)
from trajstory.mapdoc import emit_map, render_geojson
from trajstory.story import NarrativeSpec, Story, count_words, extract_mentions
from trajstory.synth import SyntheticSpec, generate_dataset, write_kaggle_csv
from trajstory.validation import GroundingContext, GroundingPolicy, validate_story

DOWNTOWN = (-8.6260, 41.1390, -8.6050, 41.1500)
# 13 places on the walk's ground and 5 well away from it
NAMES = ["Palácio de Cristal Gardens", "Igreja do Carmo", "Livraria Lello",
         "Clérigos Tower", "Praça da Liberdade", "Avenida dos Aliados",
         "São Bento Station", "Bolhão Market", "Rua de Santa Catarina",
         "Porto Cathedral", "Igreja de São Francisco", "Ribeira", "Dom Luís I Bridge",
         "Foz do Douro", "Matosinhos Beach", "Estádio do Dragão",
         "Serralves Museum", "Parque da Cidade"]


@pytest.fixture(scope="module")
def walk() -> np.ndarray:
    rng = np.random.default_rng(50_000)
    steps = rng.normal(0.0, 1.5e-4, (50_000, 2))
    steps[0] = ((DOWNTOWN[0] + DOWNTOWN[2]) / 2, (DOWNTOWN[1] + DOWNTOWN[3]) / 2)
    coords = np.cumsum(steps, axis=0)
    # fold the walk back into the box, so it doubles back at the edges
    for axis, lo, hi in ((0, DOWNTOWN[0], DOWNTOWN[2]), (1, DOWNTOWN[1], DOWNTOWN[3])):
        span = hi - lo
        x = np.mod(coords[:, axis] - lo, 2 * span)
        coords[:, axis] = lo + np.where(x > span, 2 * span - x, x)
    return coords


@pytest.fixture(scope="module")
def points(walk) -> list[GeoPoint]:
    return [GeoPoint(lon, lat) for lon, lat in walk.tolist()]


@pytest.fixture(scope="module")
def kaggle_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("kaggle") / "trips.csv"
    write_kaggle_csv(generate_dataset(SyntheticSpec(seed=20_000, n_trajectories=20_000)),
                     path, bad_rows=200, seed=1)
    return str(path)


@pytest.fixture(scope="module")
def trips(kaggle_file):
    return parse_dataset(kaggle_file, "kaggle_porto")


@pytest.fixture(scope="module")
def gazetteer() -> Gazetteer:
    return Gazetteer(GazetteerConfig())


def test_point_to_polyline_distance(benchmark, walk):
    benchmark(point_to_polyline_distance, GeoPoint(-8.6744, 41.1488), walk)


def test_validate_story_18_names(benchmark, points, gazetteer):
    text = " ".join(f"[[POI: {name}]]" for name in NAMES)
    story = Story(text=text, mentions=extract_mentions(text), word_count=count_words(text),
                  backend_id="microbench",
                  spec=NarrativeSpec(mode="single_trajectory", min_pois=0, max_words=10**6))
    ctx = GroundingContext(trajectory=points)
    report = benchmark(validate_story, story, ctx, GroundingPolicy(), gazetteer)
    assert len(report.per_poi) == len(NAMES)


def test_render_geojson_50k_path(benchmark, points, gazetteer):
    doc = emit_map([gazetteer.geocode(name) for name in NAMES[:13]],
                   Trajectory(id="shift", points=points))
    benchmark(render_geojson, doc)


def test_parse_dataset_20k_trips(benchmark, kaggle_file):
    ds = benchmark.pedantic(parse_dataset, (kaggle_file, "kaggle_porto"), rounds=3)
    assert len(ds) == 20_000


def test_build_grid_20k_endpoints(benchmark, trips):
    benchmark(build_grid, trip_endpoints(trips))


def test_top_hotspots(benchmark, trips):
    benchmark(top_hotspots, build_grid(trip_endpoints(trips)), 5)


def test_select_trajectory_longest_by_length(benchmark, trips):
    benchmark(select_trajectory, trips, "longest_by_length")

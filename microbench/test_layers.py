"""Per-layer microbenchmarks, outside the test suite.

Run from the repository root:

    PYTHONPATH=src python -m pytest microbench -p no:cacheprovider

Each input is seeded: a 50,000-vertex walk that doubles back inside
downtown Porto, as one vehicle's shift would, and a Kaggle-schema file of
20,000 synthetic trips with 1% bad rows (about 22 MB: six 4 MiB decode
chunks), and a million trip endpoints around downtown Porto.
"""

from __future__ import annotations

import numpy as np
import pytest

from trajstory import ingest
from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import GeoPoint, Polyline
from trajstory.heatgrid import build_grid, top_hotspots
from trajstory.ingest import Trajectory, parse_dataset, trajectory_digest
from trajstory.mapdoc import emit_map, map_files, render_geojson, render_html
from trajstory.pipeline import StoryRequest, write_files
from trajstory.story import NarrativeSpec, Story, count_words, extract_mentions
from trajstory.synth import PORTO_BBOX, SyntheticSpec, generate_dataset, write_kaggle_csv
from trajstory.validation import GroundingRule, validate_story

THRESHOLD_M = StoryRequest().trajectory_threshold_m

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
def kaggle_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("kaggle") / "trips.csv"
    write_kaggle_csv(generate_dataset(SyntheticSpec(seed=20_000, n_trajectories=20_000)),
                     path, bad_rows=200, seed=1)
    return str(path)


@pytest.fixture(scope="module")
def trips(kaggle_file):
    return parse_dataset(kaggle_file, "kaggle_porto")


@pytest.fixture(scope="module")
def kaggle_chunk(kaggle_file) -> tuple[str, tuple]:
    """The first decode chunk of ``kaggle_file``, as a worker reads it, and its columns."""
    with open(kaggle_file, "rb") as fh:
        columns = ingest._columns(ingest._header(fh.readline()))
        data = fh.read(ingest._CHUNK_BYTES) + fh.readline()
    return data.decode("utf-8"), columns


@pytest.fixture(scope="module")
def gazetteer() -> Gazetteer:
    return Gazetteer(GazetteerConfig())


def test_nearest_segment_search(benchmark, walk):
    # the Polyline table is built in each call, as a fresh grounding rule builds it
    place = GeoPoint(-8.6744, 41.1488)
    benchmark(lambda: list(Polyline(walk).segment_h(place)))


def test_validate_story_18_names(benchmark, walk, gazetteer):
    text = " ".join(f"[[POI: {name}]]" for name in NAMES)
    story = Story(text=text, mentions=extract_mentions(text), word_count=count_words(text),
                  backend_id="microbench",
                  spec=NarrativeSpec(mode="single_trajectory", min_pois=0, max_words=10**6))

    def grade():        # a fresh rule builds its Polyline table, as one validate run does
        return validate_story(story, GroundingRule(walk, THRESHOLD_M, along_path=True),
                              gazetteer)
    report = benchmark(grade)
    assert len(report.per_poi) == len(NAMES)


@pytest.fixture(scope="module")
def walk_file(walk, tmp_path_factory) -> str:
    """The walk as a point_list file, every float at full precision."""
    path = tmp_path_factory.mktemp("walk") / "shift.txt"
    flat = list(map(repr, walk.ravel().tolist()))
    path.write_text("".join(map("{},{}\n".format, flat[0::2], flat[1::2])), encoding="utf-8")
    return str(path)


def test_parse_point_list_50k(benchmark, walk_file, walk):
    ds = benchmark(parse_dataset, walk_file, "point_list", ("longest_by_points", None))
    assert ds.selected.coords.tobytes() == walk.tobytes()


def test_first_in_reach_fixture_pool(benchmark, walk, gazetteer):
    """Discovery's search on the walk: the first segment in reach of each known place."""
    rule = GroundingRule(walk, THRESHOLD_M, along_path=True)
    pois = gazetteer.known_pois(PORTO_BBOX)
    reach = benchmark(lambda: [rule.first_in_reach(poi.location) for poi in pois])
    assert any(reach)


@pytest.fixture(scope="module")
def shift_map(walk, gazetteer):
    return emit_map([gazetteer.geocode(name) for name in NAMES[:13]],
                    Trajectory(id="shift", coords=walk))


def test_render_geojson_50k_path(benchmark, shift_map):
    benchmark(lambda: list(render_geojson(shift_map)))


def test_render_html_50k_path(benchmark, shift_map):
    geojson = list(render_geojson(shift_map))
    page = benchmark(lambda: list(render_html(shift_map, geojson)))
    assert page[0].startswith("<!DOCTYPE html>")


def test_write_map_50k_path(benchmark, shift_map, tmp_path):
    """Both map files, rendered and written, as one ``map`` command writes them."""
    assert len(benchmark(lambda: write_files(tmp_path, map_files(shift_map)))) == 2


def test_trajectory_digest_50k_path(benchmark, walk):
    benchmark(trajectory_digest, Trajectory(id="shift", coords=walk))


def test_known_pois_porto(benchmark, gazetteer):
    assert benchmark(gazetteer.known_pois, PORTO_BBOX)


def test_emit_map_fixture_pool(benchmark, gazetteer):
    pois = gazetteer.known_pois(PORTO_BBOX)
    doc = benchmark(emit_map, pois, cluster_distance_m=150.0)
    assert len(doc.legend) == len(pois)


def test_parse_dataset_20k_trips(benchmark, kaggle_file):
    ds = benchmark.pedantic(parse_dataset, (kaggle_file, "kaggle_porto"), rounds=3)
    assert len(ds) == 20_000


def test_read_chunk_4mib(benchmark, kaggle_chunk):
    """A decode worker's work on one chunk, in-process: read its rows, screen and reduce."""
    text, columns = kaggle_chunk

    def read():
        return ingest._reduce(ingest._read_rows(text, (None,), columns, False, None),
                              ingest._Fold(None))
    chunk = benchmark(read)
    assert chunk[1] and len(chunk[2]) > 3_000        # read in bulk; the kept trips' ends


def test_parse_dataset_20k_trips_longest_by_length(benchmark, kaggle_file):
    ds = benchmark.pedantic(parse_dataset,
                            (kaggle_file, "kaggle_porto", ("longest_by_length", None)),
                            rounds=3)
    assert ds.selected is not None


def test_build_grid_20k_endpoints(benchmark, trips):
    benchmark(build_grid, trips.endpoints)


def test_build_grid_1m_endpoints(benchmark):
    """Paper scale: a million endpoints, counted block by block."""
    rng = np.random.default_rng(1_000_000)
    ends = np.column_stack([rng.normal(-8.61, 0.03, 1_000_000), rng.normal(41.15, 0.02, 1_000_000)])
    assert benchmark(build_grid, ends).total_in_bbox == 1_000_000


def test_top_hotspots(benchmark, trips):
    benchmark(top_hotspots, build_grid(trips.endpoints), 5)

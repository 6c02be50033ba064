"""The package and the CLI import lazily: each check runs a fresh interpreter."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
# What a run that never touches data may load of the package.
START_UP = {"trajstory", "trajstory.cli", "trajstory.errors"}
# Each module and the public names the README documents at it: their one import path.
PUBLIC = {
    "errors": "ConfigurationError InfrastructureError MalformedStoryError NotFoundError "
              "ParseError ProtocolError StoryValidationError TrajstoryError",
    "gazetteer": "POI Gazetteer GazetteerConfig normalize_name",
    "geo": "EARTH_RADIUS_M BoundingBox GeoPoint meters_per_degree",
    "heatgrid": "HeatGrid Hotspot build_grid summarize_for_story top_hotspots",
    "ingest": "Dataset Trajectory parse_dataset",
    "mapdoc": "MapDocument emit_map render_geojson render_html",
    "pipeline": "RunState StoryRequest execute plan write_bundle",
    "story": "NarrativeSpec RemoteBackend Story StoryBackend StoryContext TemplateBackend "
             "build_prompt count_words extract_mentions generate_story strip_markup",
    "validation": "GroundingRule ValidationReport feedback_text validate_story",
}


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          timeout=60)


def cli_imports(*argv: str) -> tuple[int, set[str]]:
    """Exit code of ``python -m trajstory.cli *argv`` and every module it imported."""
    proc = python("-X", "importtime", "-m", "trajstory.cli", *argv)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def loaded_after(code: str) -> set[str]:
    """``numpy`` and the ``trajstory`` modules, of those loaded once ``code`` has run."""
    proc = python("-c", f"{code}\nimport json, sys\n"
                        "print(json.dumps([m for m in sys.modules if m == 'numpy' "
                        "or m.split('.')[0] == 'trajstory']))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["story", "--help"], 0),
                                        (["story", "--no-such-flag"], 2), ([], 2)],
                         ids=["help", "story-help", "unknown-flag", "no-command"])
def test_help_and_usage_errors_load_no_data_module(argv, code):
    got, names = cli_imports(*argv)
    assert got == code
    assert "numpy" not in names
    assert {n for n in names if n.startswith("trajstory")} <= START_UP


def test_import_trajstory_loads_no_submodule():
    assert loaded_after("import trajstory") == {"trajstory"}


def test_the_package_defines_no_name_but_its_version():
    proc = python("-c", "import json, trajstory\n"
                        "print(json.dumps([n for n in vars(trajstory) if not n.startswith('__')]"
                        " + [n for n in ('__all__', '__getattr__', '__dir__')"
                        " if n in vars(trajstory)]))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert python("-c", "import trajstory; print(trajstory.__version__)").stdout == "0.1.0\n"


def test_every_exported_name_resolves():
    """Each public name imports from its module, and is defined there, not re-exported."""
    for module, names in PUBLIC.items():
        namespace = {}
        exec(f"from trajstory.{module} import {', '.join(names.split())}", namespace)
        for name in names.split():
            value = namespace[name]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"trajstory.{module}", name


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_one_name_loads_its_module_and_what_that_imports(module):
    name = PUBLIC[module].split()[0]
    touched = loaded_after(f"from trajstory.{module} import {name}")
    assert f"trajstory.{module}" in touched
    assert touched == loaded_after(f"import trajstory.{module}")


@pytest.fixture
def story_and_route(tmp_path, central_route):
    route = tmp_path / "route.txt"
    route.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in central_route))
    story = tmp_path / "story.txt"
    story.write_text("Past [[POI: Ribeira]] to [[POI: Clérigos Tower]].\n", encoding="utf-8")
    return story, route


@pytest.mark.parametrize("command", ["validate", "map"])
def test_validate_and_map_never_import_synth(tmp_path, story_and_route, command):
    story, route = story_and_route
    code, names = cli_imports(command, str(story), "--dataset", str(route), "--schema",
                              "point_list", "--offline", "--output-dir", str(tmp_path / "out"))
    assert code == 0
    assert {"trajstory.pipeline", "numpy"} <= names
    assert "trajstory.synth" not in names


@pytest.mark.skipif(not hasattr(os, "fork"), reason="decode workers are forked")
def test_a_worker_parse_imports_no_multiprocessing(tmp_path):
    """Two decode workers parse a file of six chunks, forked without importing
    multiprocessing and the modules it brings."""
    from trajstory.synth import SyntheticSpec, generate_dataset, write_kaggle_csv
    path = tmp_path / "trips.csv"
    write_kaggle_csv(generate_dataset(SyntheticSpec(seed=11, n_trajectories=300)), path,
                     bad_rows=40, seed=4)
    proc = python("-c", "import logging, os, sys\n"
                        "from trajstory import ingest\n"
                        "logging.basicConfig(level=logging.INFO)\n"
                        "ingest._CHUNK_BYTES = 65536\n"
                        "os.sched_getaffinity = lambda pid: {0, 1}   # two usable cores\n"
                        f"ingest.parse_dataset({str(path)!r}, 'kaggle_porto')\n"
                        "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert "in 6 chunks, 2 decode workers, " in proc.stderr
    assert proc.stdout == "False\n"

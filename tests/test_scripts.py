"""Smoke tests: the two scripts in ``scripts/`` and the microbenchmarks run end
to end, offline."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_offline_demo_writes_the_bundle(tmp_path, capsys):
    assert load("run_offline_demo").main(["--out", str(tmp_path)]) == 0
    for name in ("trips.csv", "story.txt", "story.json", "report.json", "report.txt",
                 "map.geojson", "map.html", "trace.json"):
        assert (tmp_path / name).exists(), name
    assert "validation: PASS" in capsys.readouterr().out


def test_threshold_sweep_separates_the_planted_places(capsys):
    assert load("threshold_sweep").main(["--thresholds", "0", "500", "8000"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines()[2:]:
        threshold, flagged, precision, recall = line.split()
        rows[float(threshold)] = (int(flagged), float(precision), float(recall))
    assert rows[500.0] == (5, 1.0, 1.0)
    assert rows[0.0][1] < 1.0 and rows[0.0][2] == 1.0
    assert rows[8000.0][2] < 1.0


def test_microbenchmarks_run_against_the_current_api():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "pytest", "microbench", "--benchmark-disable",
                           "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]

"""Seeded benchmark inputs, cached on disk and checked by digest.

The generators are the benchmark's own and never import ``trajstory``: a
change to the program cannot change what the program is fed, so a parent
commit and a change see identical bytes for the same seed. They follow the
walk model of ``trajstory.synth`` (a start drawn uniformly in the Porto
extent, a final point drawn from an endpoint cluster, straight-line
interpolation with 25 m Gaussian jitter on the interior points) and write
the same Kaggle-schema CSV layout, full float precision included.

Each cache entry lives in its own directory named by workload, seed, size
and generator version, and carries a ``manifest.json`` with the SHA-256 of
every file plus the time generation took. Entries are written to a
temporary sibling and renamed into place, so a killed run leaves no torn
entry behind.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1
CACHE_ENTRIES_PER_WORKLOAD = 12

EARTH_RADIUS_M = 6_371_008.8
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

PORTO_BBOX = (-8.70, 41.10, -8.50, 41.25)
# The endpoint mixture of the test suite: downtown avenue, Boavista
# roundabout, the east rail station and the river mouth.
PORTO_CLUSTERS = np.array([
    # lon, lat, weight, stddev_m
    [-8.6107, 41.1480, 0.4, 120.0],
    [-8.6290, 41.1580, 0.3, 120.0],
    [-8.5855, 41.1486, 0.2, 120.0],
    [-8.6769, 41.1508, 0.1, 120.0],
])
# Box around the thirteen downtown fixture POIs of the test suite's walking
# route; every far POI below lies more than 1.5 km outside it.
DOWNTOWN_BBOX = (-8.6260, 41.1390, -8.6050, 41.1500)
FAR_NAMES = ["Foz do Douro", "Matosinhos Beach", "Estádio do Dragão",
             "Serralves Museum", "Parque da Cidade"]

KAGGLE_HEADER = ("TRIP_ID,CALL_TYPE,ORIGIN_CALL,ORIGIN_STAND,TAXI_ID,"
                 "TIMESTAMP,DAY_TYPE,MISSING_DATA,POLYLINE\n")
# Four row shapes the parser must skip: truncated JSON, MISSING_DATA flag,
# a single point, an empty list.
BAD_POLYLINES = (("False", "[[-8.61,41.14],["),
                 ("True", "[[-8.61,41.14],[-8.62,41.15]]"),
                 ("False", "[[-8.61,41.14]]"),
                 ("False", "[]"))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _meters_to_degrees(lat: np.ndarray) -> np.ndarray:
    """Per-row (deg/m of lon, deg/m of lat) at latitude ``lat``."""
    kx = M_PER_DEG_LAT * np.cos(np.radians(lat))
    return np.stack([1.0 / kx, np.full_like(kx, 1.0 / M_PER_DEG_LAT)], axis=1)


def _walks(rng: np.random.Generator, start: np.ndarray, end: np.ndarray,
           npts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jittered straight walks from each start to each end, end point exact.

    Returns the (P, 2) coordinates of every walk in order and the offsets
    of each walk into them.
    """
    offsets = np.concatenate([[0], np.cumsum(npts)])
    walk = np.repeat(np.arange(len(npts)), npts)
    step = np.arange(offsets[-1]) - offsets[walk]
    t = (step / (npts[walk] - 1))[:, None]
    scale = _meters_to_degrees((start[walk, 1] + end[walk, 1]) / 2.0)
    jitter = rng.normal(0.0, 25.0, (offsets[-1], 2)) * scale
    interior = ((step > 0) & (step < npts[walk] - 1))[:, None]
    pts = start[walk] + (end[walk] - start[walk]) * t + jitter * interior
    return pts, offsets


def cluster_trips(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` trips with 12 to 40 points whose final points follow the mix."""
    lo_lon, lo_lat, hi_lon, hi_lat = PORTO_BBOX
    cluster = PORTO_CLUSTERS[rng.choice(len(PORTO_CLUSTERS), size=n,
                                        p=PORTO_CLUSTERS[:, 2])]
    end = cluster[:, :2] + (rng.normal(0.0, 1.0, (n, 2)) * cluster[:, 3:4]
                            * _meters_to_degrees(cluster[:, 1]))
    start = np.stack([rng.uniform(lo_lon, hi_lon, n),
                      rng.uniform(lo_lat, hi_lat, n)], axis=1)
    return _walks(rng, start, end, rng.integers(12, 41, n))


def shift_trace(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """One vehicle's shift: trips between random downtown spots, chained.

    Every point is clipped to the downtown box, so the trace covers it
    densely and never leaves it.
    """
    lo_lon, lo_lat, hi_lon, hi_lat = DOWNTOWN_BBOX
    legs = n_points // 12 + 2
    stops = np.stack([rng.uniform(lo_lon, hi_lon, legs + 1),
                      rng.uniform(lo_lat, hi_lat, legs + 1)], axis=1)
    npts = rng.integers(12, 41, legs)
    pts, offsets = _walks(rng, stops[:-1], stops[1:], npts)
    # consecutive legs share their stop; keep it once
    keep = np.ones(len(pts), dtype=bool)
    keep[offsets[1:-1]] = False
    pts = pts[keep][:n_points]
    np.clip(pts[:, 0], lo_lon, hi_lon, out=pts[:, 0])
    np.clip(pts[:, 1], lo_lat, hi_lat, out=pts[:, 1])
    return pts


def _pair_strings(pts: np.ndarray) -> list[str]:
    flat = list(map(repr, pts.ravel().tolist()))
    return list(map("[{}, {}]".format, flat[0::2], flat[1::2]))


def write_kaggle_csv(path: Path, rng: np.random.Generator, pts: np.ndarray,
                     offsets: np.ndarray, bad_rows: int) -> int:
    """Kaggle taxi schema, ``bad_rows`` skippable rows at seeded positions.

    Returns the number of data rows written.
    """
    pairs = _pair_strings(pts)
    off = offsets.tolist()
    n_good = len(off) - 1
    total = n_good + bad_rows
    bad_at = set(rng.choice(total, size=bad_rows, replace=False).tolist())
    good = bad = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(KAGGLE_HEADER)
        for row in range(total):
            if row in bad_at:
                flag, poly = BAD_POLYLINES[bad % len(BAD_POLYLINES)]
                fh.write(f'bad{bad:06d},A,,,20000100,1372636800,A,{flag},"{poly}"\n')
                bad += 1
            else:
                poly = ", ".join(pairs[off[good]:off[good + 1]])
                fh.write(f'synt{good:06d},A,,,20000100,{1372636800 + 600 * good},'
                         f'A,False,"[{poly}]"\n')
                good += 1
    return total


def write_point_list(path: Path, pts: np.ndarray) -> None:
    flat = list(map(repr, pts.ravel().tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("{},{}\n".format, flat[0::2], flat[1::2])))


# -- heatmap hotspots, for the scripted drafts of story-batch ---------------

def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    lon1, lat1, lon2, lat2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    h = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def hotspot_centers(ends: list[tuple[float, float]], k: int = 5,
                    cell_m: float = 250.0) -> list[tuple[float, float]]:
    """Centres of the ``k`` busiest cells, as the shipped heatmap defaults rank them.

    Counts endpoints on a grid over their tight bounding box, with cells
    sized at the box-centre latitude and the box maximum edge closing the
    last cell; ties break on (row, col).
    """
    lons = [e[0] for e in ends]
    lats = [e[1] for e in ends]
    min_lon, max_lon, min_lat, max_lat = min(lons), max(lons), min(lats), max(lats)
    ky = M_PER_DEG_LAT
    kx = ky * math.cos(math.radians((min_lat + max_lat) / 2.0))
    cols = max(1, math.ceil((max_lon - min_lon) * kx / cell_m))
    rows = max(1, math.ceil((max_lat - min_lat) * ky / cell_m))
    counts = Counter((min(int((lat - min_lat) * ky // cell_m), rows - 1),
                      min(int((lon - min_lon) * kx // cell_m), cols - 1))
                     for lon, lat in ends)
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [(min_lon + (col + 0.5) * cell_m / kx, min_lat + (row + 0.5) * cell_m / ky)
            for (row, col), _ in top]


def load_fixture(path: Path) -> dict[str, tuple[float, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["name"]: (float(row["lon"]), float(row["lat"]))
                for row in csv.DictReader(fh)}


# -- cache --------------------------------------------------------------------

class InputError(Exception):
    """A cached input no longer matches its recorded digest."""


class Inputs:
    """One cache entry: its directory and its manifest."""

    def __init__(self, directory: Path, manifest: dict):
        self.dir = directory
        self.manifest = manifest

    def path(self, name: str) -> Path:
        return self.dir / name

    def verify(self) -> None:
        for name, digest in self.manifest["files"].items():
            if sha256(self.dir / name) != digest:
                raise InputError(f"input {self.dir / name} does not match its digest")


def cached(cache_root: Path, workload: str, seed: int, size: int, make) -> Inputs:
    """The verified entry for (workload, seed, size), generated on a miss.

    ``make(directory, rng, final)`` writes the files into ``directory``, which
    is renamed to ``final`` once complete, and returns the manifest facts
    including ``generate_s`` and ``write_s``.
    """
    key = f"{workload}-seed{seed}-n{size}-g{GENERATOR_VERSION}"
    final = cache_root / key
    if (final / "manifest.json").exists():
        entry = Inputs(final, json.loads((final / "manifest.json").read_text()))
        try:
            entry.verify()
            os.utime(final)
            return entry
        except (InputError, OSError):
            shutil.rmtree(final, ignore_errors=True)
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = cache_root / f".tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    facts = make(tmp, np.random.default_rng([GENERATOR_VERSION, seed, size]), final)
    files = {p.name: sha256(p) for p in sorted(tmp.iterdir())}
    manifest = {"workload": workload, "seed": seed, "size": size,
                "generator_version": GENERATOR_VERSION, "files": files, **facts}
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    try:
        tmp.rename(final)
    except OSError:                 # a concurrent run placed it first
        shutil.rmtree(tmp, ignore_errors=True)
    _evict(cache_root, workload)
    return Inputs(final, json.loads((final / "manifest.json").read_text()))


def _evict(cache_root: Path, workload: str) -> None:
    entries = sorted((p for p in cache_root.glob(f"{workload}-seed*") if p.is_dir()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_ENTRIES_PER_WORKLOAD:]:
        shutil.rmtree(old, ignore_errors=True)

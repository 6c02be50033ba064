"""Seeded synthetic data and scripted backends for tests and demos.

Everything here produces ordinary pipeline inputs (trajectories, story drafts,
Kaggle-schema CSV files); nothing downstream can tell synthetic from real.
Default geometry mimics the Porto metro extent so the distance thresholds
carry over unchanged.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geo import BoundingBox, GeoPoint, meters_per_degree
from .ingest import KAGGLE_COLUMNS, Trajectory
from .story import NarrativeSpec, StoryContext

PORTO_BBOX = BoundingBox(-8.70, 41.10, -8.50, 41.25)


class ScriptedBackend:
    """Plays back a fixed response list; also records every prompt it saw.

    Running past its end is a ConfigurationError: the run wanted more drafts.
    """

    backend_id = "scripted"

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.prompts: list[str] = []

    def generate(self, prompt: str, ctx: StoryContext, spec: NarrativeSpec) -> str:
        if len(self.prompts) >= len(self.responses):
            raise ConfigurationError(
                f"scripted backend exhausted after {len(self.responses)} responses; "
                "add drafts to responses_file or lower max_retries")
        self.prompts.append(prompt)
        return self.responses[len(self.prompts) - 1]


@dataclass(frozen=True)
class EndpointCluster:
    center: GeoPoint
    weight: float
    stddev_m: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"cluster weight must be >= 0, got {self.weight}")
        if self.stddev_m < 0:
            raise ValueError(f"stddev_m must be >= 0, got {self.stddev_m}")


@dataclass
class SyntheticSpec:
    seed: int = 0
    n_trajectories: int = 100
    bbox: BoundingBox = field(default_factory=lambda: PORTO_BBOX)
    endpoint_clusters: list[EndpointCluster] = field(default_factory=list)
    min_points: int = 12
    max_points: int = 40

    def __post_init__(self):
        if self.n_trajectories < 0:
            raise ValueError(f"n_trajectories must be >= 0, got {self.n_trajectories}")
        if not 2 <= self.min_points <= self.max_points:
            raise ValueError("need 2 <= min_points <= max_points")
        if self.endpoint_clusters:
            total = sum(c.weight for c in self.endpoint_clusters)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"cluster weights must sum to 1, got {total}")


def _pick_cluster(rng: random.Random, clusters: list[EndpointCluster]) -> EndpointCluster:
    r = rng.random()
    acc = 0.0
    for c in clusters:
        acc += c.weight
        if r < acc:
            return c
    return clusters[-1]


def generate_dataset(spec: SyntheticSpec) -> list[Trajectory]:
    """Random-walk trajectories whose final points follow the cluster mix.

    One seeded generator drives every draw in sequence, so equal specs give
    equal trajectories. Without clusters, endpoints fall uniformly in the bbox.
    The last point of each walk is exactly the sampled endpoint; the
    endpoint statistics downstream depend on that.
    """
    rng = random.Random(spec.seed)
    bbox = spec.bbox
    trajectories = []
    for i in range(spec.n_trajectories):
        if spec.endpoint_clusters:
            cluster = _pick_cluster(rng, spec.endpoint_clusters)
            kx, ky = meters_per_degree(cluster.center.lat)
            end = (cluster.center.lon + rng.gauss(0.0, cluster.stddev_m) / kx,
                   cluster.center.lat + rng.gauss(0.0, cluster.stddev_m) / ky)
        else:
            end = (rng.uniform(bbox.min_lon, bbox.max_lon),
                   rng.uniform(bbox.min_lat, bbox.max_lat))
        start = (rng.uniform(bbox.min_lon, bbox.max_lon),
                 rng.uniform(bbox.min_lat, bbox.max_lat))
        n = rng.randint(spec.min_points, spec.max_points)
        kx, ky = meters_per_degree((start[1] + end[1]) / 2.0)
        points = [start]
        for step in range(1, n - 1):
            t = step / (n - 1)
            points.append((start[0] + (end[0] - start[0]) * t + rng.gauss(0.0, 25.0) / kx,
                           start[1] + (end[1] - start[1]) * t + rng.gauss(0.0, 25.0) / ky))
        points.append(end)
        trajectories.append(Trajectory(id=f"synt{i:05d}", coords=np.array(points),
                                       start_time=1_372_636_800 + 600 * i))
    return trajectories


_BAD_ROW_KINDS = 4


def _bad_row(kind: int, i: int) -> dict:
    """A row parse_dataset is guaranteed to skip, varied across four shapes."""
    row = {c: "" for c in KAGGLE_COLUMNS}
    row.update(TRIP_ID=f"bad{i:05d}", CALL_TYPE="A", TAXI_ID="20000100",
               TIMESTAMP="1372636800", DAY_TYPE="A", MISSING_DATA="False")
    kind %= _BAD_ROW_KINDS
    if kind == 0:
        row["POLYLINE"] = "[[-8.61,41.14],["          # truncated JSON
    elif kind == 1:
        row["POLYLINE"] = "[[-8.61,41.14],[-8.62,41.15]]"
        row["MISSING_DATA"] = "True"
    elif kind == 2:
        row["POLYLINE"] = "[[-8.61,41.14]]"           # single point
    else:
        row["POLYLINE"] = "[]"
    return row


def write_kaggle_csv(trajectories: list[Trajectory], path: str | Path, bad_rows: int = 0,
                     seed: int = 0) -> int:
    """Write the trajectories in Kaggle taxi schema, salting in known-bad rows.

    Bad-row positions are seeded draws, so a file is reproducible from
    (trajectories, bad_rows, seed). A trip without a start time gets an empty
    TIMESTAMP cell. Returns the total data-row count.
    """
    good = []
    for traj in trajectories:
        row = {c: "" for c in KAGGLE_COLUMNS}
        row.update(TRIP_ID=traj.id, CALL_TYPE="A", TAXI_ID="20000100",
                   TIMESTAMP="" if traj.start_time is None else str(traj.start_time),
                   DAY_TYPE="A", MISSING_DATA="False",
                   POLYLINE=json.dumps(traj.coords.tolist()))
        good.append(row)
    rows = list(good)
    rng = random.Random(seed)
    for i in range(bad_rows):
        rows.insert(rng.randint(0, len(rows)), _bad_row(i, i))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(KAGGLE_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)

"""Test-side conveniences over the library's columnar types."""

from __future__ import annotations

import io
from typing import Iterable

import numpy as np

from trajstory.geo import GeoPoint
from trajstory.ingest import Dataset, Trajectory, parse_dataset, to_point_list


def trajectories(ds: Dataset) -> list[Trajectory]:
    """Every trip of ``ds`` as a Trajectory of GeoPoints."""
    return [ds.trajectory(i) for i in range(len(ds))]


def coords(points: Iterable[GeoPoint]) -> np.ndarray:
    """GeoPoints as the float (N, 2) lon/lat array build_grid takes."""
    return np.array([(p.lon, p.lat) for p in points], dtype=np.float64).reshape(-1, 2)


def point_list_round_trip(traj: Trajectory) -> Trajectory:
    """Serialize then re-parse; pins the round-trip contract."""
    ds = parse_dataset(io.StringIO(to_point_list(traj)), "point_list")
    return ds.trajectory(0)


def iter_points(trajs: Iterable[Trajectory]) -> Iterable[GeoPoint]:
    for t in trajs:
        yield from t.points

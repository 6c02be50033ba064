"""Test-side conveniences over the library's columnar types."""

from __future__ import annotations

import io
from typing import Iterable

from trajstory.geo import GeoPoint
from trajstory.ingest import Dataset, Trajectory, parse_dataset
from trajstory.story import MARKUP_CLOSE, MARKUP_OPEN, Mention


def trajectories(ds: Dataset) -> list[Trajectory]:
    """Every trip of ``ds`` as a Trajectory of GeoPoints."""
    return [ds.trajectory(i) for i in range(len(ds))]


def point_list_round_trip(traj: Trajectory) -> Trajectory:
    """Serialize then re-parse; pins the round-trip contract."""
    ds = parse_dataset(io.StringIO(to_point_list(traj)), "point_list")
    return ds.trajectory(0)


def iter_points(trajs: Iterable[Trajectory]) -> Iterable[GeoPoint]:
    for t in trajs:
        yield from t.points


def to_point_list(traj: Trajectory) -> str:
    """Serialize to point_list text; floats round-trip exactly via repr."""
    return "".join(f"{p.lon!r},{p.lat!r}\n" for p in traj.points)


def write_point_list(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_point_list(traj))


def reinsert_markup(plain: str, mentions: list[Mention]) -> str:
    """Inverse of strip_markup for canonically written spans.

    ``mentions`` carry offsets into the marked-up text; exact for spans
    written as ``[[POI: name]]`` (the only form the backends emit).
    """
    out = []
    pos = 0
    delta = 0
    for m in mentions:
        p_start = m.start - delta
        out.append(plain[pos:p_start])
        out.append(f"{MARKUP_OPEN} {m.name}{MARKUP_CLOSE}")
        pos = p_start + len(m.name)
        delta += (m.end - m.start) - len(m.name)
    out.append(plain[pos:])
    return "".join(out)

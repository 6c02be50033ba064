"""Test-side conveniences over the library's types."""

from __future__ import annotations

import io
import math
import random
from typing import Iterable

import numpy as np
from hypothesis import strategies as st

from trajstory.gazetteer import POI
from trajstory.geo import BoundingBox, GeoPoint, Polyline, arc_m, as_coords
from trajstory.ingest import Trajectory, parse_dataset
from trajstory.story import (MARKUP_CLOSE, MARKUP_OPEN, Mention, Story, count_words,
                             extract_mentions)


def contains(box: BoundingBox, p: GeoPoint) -> bool:
    """Whether ``box`` holds ``p``, inclusive on all four edges."""
    return box.min_lon <= p.lon <= box.max_lon and box.min_lat <= p.lat <= box.max_lat


def point_to_polyline_distance(p: GeoPoint, coords: np.ndarray) -> float:
    """Meters from ``p`` to the nearest segment of the polyline ``coords``."""
    return arc_m(Polyline(coords).segment_h(p)[1].min())


def inject_hallucinations(story: Story, far_pois: list[POI]) -> Story:
    """Append one marked sentence per far POI; the failure mode on demand.

    The returned story re-parses cleanly, so validators see the injected
    names exactly as they would see genuine model output.
    """
    if not far_pois:
        return story
    text = story.text.rstrip("\n")
    for poi in far_pois:
        text += f" The route also claims a detour at [[POI: {poi.name}]]."
    text += "\n"
    return Story(text=text, mentions=extract_mentions(text),
                 word_count=count_words(text), spec=story.spec,
                 backend_id=story.backend_id)


def endpoints(trajs: Iterable[Trajectory]) -> np.ndarray:
    """The final point of each trip, as a float64 (T, 2) array."""
    return np.array([t.coords[-1] for t in trajs], dtype=np.float64).reshape(-1, 2)


def track(id: str, points: Iterable[GeoPoint], start_time: int | None = None) -> Trajectory:
    """A Trajectory through ``points``."""
    return Trajectory(id=id, coords=as_coords(points), start_time=start_time)


def points(traj: Trajectory) -> list[GeoPoint]:
    """The trip's vertices as GeoPoints, in order."""
    return [GeoPoint(lon, lat) for lon, lat in traj.coords.tolist()]


def records(trajs: Iterable[Trajectory]) -> list[tuple[str, list[GeoPoint], int | None]]:
    """Each trip as a comparable (id, points, start time) record."""
    return [(t.id, points(t), t.start_time) for t in trajs]


def point_list_round_trip(traj: Trajectory) -> Trajectory:
    """Serialize then re-parse; pins the round-trip contract."""
    ds = parse_dataset(io.StringIO(to_point_list(traj)), "point_list",
                       ("longest_by_points", None))
    return ds.selected


def backtracking_walk(rng: random.Random, steps: int = 3000) -> list[GeoPoint]:
    """A walk of ``steps + 1`` points, drawn from ``rng``, that doubles back
    inside downtown Porto."""
    line = [GeoPoint(-8.615, 41.145)]
    for _ in range(steps):
        p = line[-1]
        line.append(GeoPoint(min(-8.605, max(-8.626, p.lon + rng.gauss(0, 2e-4))),
                             min(41.150, max(41.139, p.lat + rng.gauss(0, 2e-4)))))
    return line


def iter_points(trajs: Iterable[Trajectory]) -> Iterable[GeoPoint]:
    for t in trajs:
        yield from points(t)


def to_point_list(traj: Trajectory) -> str:
    """Serialize to point_list text; floats round-trip exactly via repr."""
    return "".join(f"{lon!r},{lat!r}\n" for lon, lat in traj.coords.tolist())


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


# Values whose bounds tie but for a zero's sign, and some that do not tie.
signed_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.nan,
                                 math.inf]) | st.floats(-180.0, 180.0)


@st.composite
def tied_rows(draw, lons=signed_values, lats=signed_values, min_size=1, max_size=300):
    """Rows drawn from two or three values a column, so the bounds often tie."""
    lon_values = draw(st.lists(lons, min_size=1, max_size=3))
    lat_values = draw(st.lists(lats, min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from(lon_values), st.sampled_from(lat_values)),
                         min_size=min_size, max_size=max_size))

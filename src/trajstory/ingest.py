"""Parse trajectory datasets into columns and pull out the pieces the pipeline needs.

Two source schemas:

* ``kaggle_porto`` -- the taxi trip CSV export. Header row with a POLYLINE
  column holding a bracketed list of ``[lon, lat]`` pairs. Only TRIP_ID,
  TIMESTAMP and POLYLINE are consumed; rows flagged MISSING_DATA are skipped.
* ``point_list`` -- one ``lon,lat`` pair per line (header optional), the
  whole file being a single trajectory.

A parsed ``Dataset`` keeps every trip in one coordinate array; ``GeoPoint``
objects are built only for the trip a caller selects.

Rows that cannot yield a usable trajectory (empty or malformed polyline,
fewer than 2 points, coordinates outside WGS84 range, MISSING_DATA flag) are
counted in ``skipped_rows``, by reason, never silently dropped. Real GPS
exports are dirty; a bad row is data about the data.

A Kaggle file of more than one block of rows has its POLYLINE JSON decoded
by up to two forked worker processes, one per usable core, while this
process reads the CSV; the result is the same as decoding in-process.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import itertools
import json
import logging
import os
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import ConfigurationError, NotFoundError, ParseError
from .geo import GeoPoint, as_coords, haversine_distance, haversine_distances

log = logging.getLogger(__name__)

SCHEMAS = ("kaggle_porto", "point_list")
SELECTION_CRITERIA = ("longest_by_points", "longest_by_length", "by_id")

KAGGLE_COLUMNS = ("TRIP_ID", "CALL_TYPE", "ORIGIN_CALL", "ORIGIN_STAND",
                  "TAXI_ID", "TIMESTAMP", "DAY_TYPE", "MISSING_DATA", "POLYLINE")

# Why a row gave no trajectory, in the order the checks run: a row counts
# under the first reason that applies. A point_list line that is not two
# numbers counts as bad_json.
SKIP_REASONS = ("missing_data", "bad_json", "too_short", "out_of_range")

# csv's default field limit (131,072 characters) cuts off POLYLINEs of
# about 3,200 points; real trips can be longer.
_MAX_FIELD_CHARS = 2**31 - 1
# Kaggle rows per decoded block: one vectorized range check each, and the
# unit sent to a worker, so it bounds the POLYLINE text in flight.
_BLOCK_ROWS = 2048


@dataclass
class Trajectory:
    """One GPS trace. ``points`` keeps source order; consumers get >= 2 points."""

    id: str
    points: list[GeoPoint]
    start_time: int | None = None

    def path_length_m(self) -> float:
        return sum(haversine_distance(a, b) for a, b in zip(self.points, self.points[1:]))


def _no_skips() -> dict[str, int]:
    return dict.fromkeys(SKIP_REASONS, 0)


@dataclass(eq=False)
class Dataset:
    """Trips as columns: trip ``i`` is ``coords[offsets[i]:offsets[i + 1]]``.

    ``coords`` is a float64 (N, 2) array of (lon, lat) rows and ``offsets`` an
    int64 array of ``len(ids) + 1`` entries starting at 0. Every trip has at
    least 2 points. ``skipped_by_reason`` counts the source rows that gave no
    trip, one key per SKIP_REASONS entry.
    """

    coords: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    ids: list[str] = field(default_factory=list)
    start_times: list[int | None] = field(default_factory=list)
    source_path: str = ""
    skipped_by_reason: dict[str, int] = field(default_factory=_no_skips)

    @property
    def skipped_rows(self) -> int:
        return sum(self.skipped_by_reason.values())

    def __len__(self) -> int:
        return len(self.ids)

    def trajectory(self, i: int) -> Trajectory:
        """Trip ``i`` as a Trajectory of GeoPoints."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        points = [GeoPoint(lon, lat) for lon, lat in self.coords[lo:hi].tolist()]
        return Trajectory(id=self.ids[i], points=points, start_time=self.start_times[i])

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory],
                          source_path: str = "") -> Dataset:
        """Pack Trajectory objects into columns, in order."""
        trajectories = list(trajectories)
        offsets = _offsets([len(t.points) for t in trajectories])
        coords = as_coords(p for t in trajectories for p in t.points)
        return cls(coords=coords, offsets=offsets, ids=[t.id for t in trajectories],
                   start_times=[t.start_time for t in trajectories],
                   source_path=source_path)


def _offsets(lengths) -> np.ndarray:
    """Trip offsets (0, then the running total) for the given trip lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    return offsets


def _in_range(xy: np.ndarray) -> np.ndarray:
    """Per point: inside WGS84 range (NaN is not)."""
    lon, lat = xy[:, 0], xy[:, 1]
    return (lon >= -180.0) & (lon <= 180.0) & (lat >= -90.0) & (lat <= 90.0)


def _decode_polyline(raw: str) -> np.ndarray | str:
    """The (n, 2) coordinates of a POLYLINE, or the reason it gives no trip.

    Each value converts as ``float()`` would, so numeric strings and
    booleans pass; null becomes NaN, which the range check rejects.
    """
    try:
        pairs = json.loads(raw)
    except (ValueError, RecursionError):
        # ValueError also covers integers past the str-to-int digit limit
        return "bad_json"
    if not isinstance(pairs, list):
        return "bad_json"
    if not pairs:
        return "too_short"
    try:
        xy = np.array(pairs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return "bad_json"
    if xy.ndim != 2 or xy.shape[1] != 2:
        return "bad_json"
    return xy if len(xy) >= 2 else "too_short"


def _parse_kaggle(lines: Iterable[str], source_path: str) -> Dataset:
    reader = csv.reader(lines)
    limit = csv.field_size_limit(_MAX_FIELD_CHARS)
    try:
        return _read_kaggle(reader, source_path)
    except csv.Error as exc:
        raise ParseError(f"{source_path}: line {reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _decode_block(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                              dict[str, int]]:
    """Decode a block of POLYLINE texts into the trips it keeps.

    Returns the kept trips' coordinates, one after another, their lengths,
    their positions in ``texts``, and the texts skipped, by reason.
    """
    skipped = _no_skips()
    xys, rows = [np.empty((0, 2))], []
    for i, text in enumerate(texts):
        xy = _decode_polyline(text)
        if isinstance(xy, str):
            skipped[xy] += 1
        else:
            xys.append(xy)
            rows.append(i)
    n = np.array([len(xy) for xy in xys[1:]], dtype=np.int64)
    xy = np.concatenate(xys)
    keep = np.logical_and.reduceat(_in_range(xy), np.cumsum(n) - n)
    skipped["out_of_range"] += int(len(keep) - keep.sum())
    return xy[np.repeat(keep, n)], n[keep], np.array(rows, dtype=np.int64)[keep], skipped


def _decode_worker(conn) -> None:
    """Worker process: answer each block of texts with ``_decode_block``, until None."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the parent's to handle
    while (texts := conn.recv()) is not None:
        conn.send(_decode_block(texts))


def _fork_workers() -> int:
    """Decode workers for a file of more than one block: up to two, one per usable core.

    0, to decode in-process, where one core is usable or no worker can be forked.
    """
    try:
        workers = min(2, len(os.sched_getaffinity(0)))
    except AttributeError:                          # no affinity on this platform
        workers = min(2, os.cpu_count() or 1)
    if workers < 2:
        return 0
    import multiprocessing                          # only multi-block files pay for it
    if "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.current_process().daemon:   # a daemon may not fork workers
        return 0
    return workers


def _decode_in_workers(blocks, workers: int):
    """``(rest, _decode_block(texts))`` per ``(texts, rest)`` block, in block order.

    Blocks go round-robin to forked workers, each with its own pipe and at
    most one block in flight, so results arrive in block order on this
    thread and neither end of a pipe can block the other. No worker
    outlives the generator.
    """
    import multiprocessing
    # forked, not spawned: a worker starts with numpy already imported, and
    # runs only json and numpy code
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    pending = collections.deque()                   # (block number, rest) in flight
    finished = False

    def stopped(i: int) -> ParseError:
        procs[i].join()                 # its end of the pipe is closed: it has exited
        return ParseError(f"a POLYLINE decoding worker stopped (exit code {procs[i].exitcode})")

    def send(i: int, texts: list[str] | None) -> None:
        try:
            conns[i].send(texts)
        except OSError:
            raise stopped(i) from None

    def receive():
        k, rest = pending.popleft()
        try:
            return rest, conns[k % workers].recv()
        except (EOFError, OSError):
            raise stopped(k % workers) from None

    try:
        for _ in range(workers):
            conn, child = ctx.Pipe()
            conns.append(conn)
            proc = ctx.Process(target=_decode_worker, args=(child,), daemon=True)
            proc.start()
            procs.append(proc)
            child.close()
        for k, (texts, rest) in enumerate(blocks):
            done = receive() if len(pending) == workers else None
            send(k % workers, texts)
            pending.append((k, rest))
            if done is not None:
                yield done
        while pending:
            yield receive()
        for i in range(workers):
            send(i, None)
        finished = True
    finally:
        for proc in procs:
            if not finished:
                proc.kill()
            proc.join()
        for conn in conns:
            conn.close()


def _read_kaggle(reader, source_path: str) -> Dataset:
    header = next(reader, None)
    if header is None or "POLYLINE" not in header:
        raise ParseError("kaggle_porto header is missing the POLYLINE column")
    # a repeated column name reads its last column, as csv.DictReader does
    column = {name: i for i, name in enumerate(header)}
    polyline, trip, timestamp, missing = (
        column.get(name) for name in ("POLYLINE", "TRIP_ID", "TIMESTAMP", "MISSING_DATA"))
    skipped = _no_skips()

    def cell(row: list[str], i: int | None) -> str:
        return row[i] if i is not None and i < len(row) else ""

    def row_blocks():
        """Rows not flagged MISSING_DATA, in blocks of (POLYLINE texts, (trip ids, start times))."""
        texts, ids, times = [], [], []
        for row in reader:
            if not row:
                continue                # a blank line is not a row
            if cell(row, missing).strip().lower() == "true":
                skipped["missing_data"] += 1
                continue
            start_time = None
            ts = cell(row, timestamp).strip()
            if ts:
                try:
                    start_time = int(ts)
                except ValueError:
                    start_time = None
            texts.append(cell(row, polyline))
            ids.append(cell(row, trip).strip() or f"row{reader.line_num}")
            times.append(start_time)
            if len(texts) == _BLOCK_ROWS:
                yield texts, (ids, times)
                texts, ids, times = [], [], []
        if texts:
            yield texts, (ids, times)

    blocks = row_blocks()
    head = list(itertools.islice(blocks, 2))
    workers = _fork_workers() if len(head) > 1 else 0
    blocks = itertools.chain(head, blocks)
    decoded = (_decode_in_workers(blocks, workers) if workers else
               ((rest, _decode_block(texts)) for texts, rest in blocks))

    chunks, lengths = [np.empty((0, 2))], [np.zeros(0, dtype=np.int64)]
    ids: list[str] = []
    start_times: list[int | None] = []
    with contextlib.closing(decoded):               # stops the workers on any error
        for (block_ids, block_times), (xy, n, kept, block_skipped) in decoded:
            chunks.append(xy)
            lengths.append(n)
            kept = kept.tolist()
            ids += map(block_ids.__getitem__, kept)
            start_times += map(block_times.__getitem__, kept)
            for reason, count in block_skipped.items():
                skipped[reason] += count
    log.info("%s: %d rows in %d blocks, %d decode workers, skipped %s", source_path,
             len(ids) + sum(skipped.values()), len(chunks) - 1, workers, skipped)
    return Dataset(coords=np.concatenate(chunks), offsets=_offsets(np.concatenate(lengths)),
                   ids=ids, start_times=start_times, source_path=source_path,
                   skipped_by_reason=skipped)


def _parse_point_list(lines: Iterable[str], source_path: str) -> Dataset:
    skipped = _no_skips()
    values: list[float] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) == 2:
            try:
                lon, lat = float(parts[0]), float(parts[1])
            except ValueError:
                pass
            else:
                values += (lon, lat)
                continue
        # a header line ("lon,lat") lands here too, which is fine
        skipped["bad_json"] += 1
    xy = np.array(values, dtype=np.float64).reshape(-1, 2)
    ok = _in_range(xy)
    skipped["out_of_range"] = int(len(ok) - ok.sum())
    xy = xy[ok]
    log.info("%s: %d points kept, skipped %s", source_path, len(xy), skipped)
    if len(xy) < 2:
        return Dataset(source_path=source_path, skipped_by_reason=skipped)
    name = os.path.splitext(os.path.basename(source_path))[0] or "trajectory"
    return Dataset(coords=xy, offsets=_offsets([len(xy)]), ids=[name], start_times=[None],
                   source_path=source_path, skipped_by_reason=skipped)


def parse_dataset(source: str | IO[str], schema: str) -> Dataset:
    """Parse ``source`` (path or text stream) under the given schema.

    A leading byte-order mark is not part of the data.

    For kaggle_porto, skipped_rows + len(dataset) equals the number of data
    rows. For point_list, rows are points: the file parses to at most one
    trajectory and skipped_rows counts unusable lines.
    """
    if schema not in SCHEMAS:
        raise ConfigurationError(f"unknown dataset schema {schema!r}; expected one of {SCHEMAS}")
    parser = _parse_kaggle if schema == "kaggle_porto" else _parse_point_list
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8-sig", newline="") as fh:
                return parser(fh, source)
        first = source.readline().removeprefix("\ufeff")     # a byte-order mark is no data
        return parser(itertools.chain([first], source), getattr(source, "name", "<stream>"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"dataset is not UTF-8 text: {exc}") from None


def trip_endpoints(ds: Dataset) -> np.ndarray:
    """Final point of each trajectory as a float64 (T, 2) array, dataset order."""
    return ds.coords[ds.offsets[1:] - 1]


def _path_lengths_m(ds: Dataset) -> np.ndarray:
    """Haversine path length of every trip, in meters."""
    hops = haversine_distances(ds.coords[:-1], ds.coords[1:])
    hops[ds.offsets[1:-1] - 1] = 0.0        # from one trip's end to the next one's start
    return np.add.reduceat(hops, ds.offsets[:-1])


def select_trajectory(ds: Dataset, criterion: str, trajectory_id: str | None = None) -> Trajectory:
    """Pick one trajectory. Ties on the longest_* criteria break to the lowest id."""
    if criterion not in SELECTION_CRITERIA:
        raise ConfigurationError(
            f"unknown selection criterion {criterion!r}; expected one of {SELECTION_CRITERIA}")
    if not len(ds):
        raise ValueError("cannot select from an empty dataset")
    if criterion == "by_id":
        if trajectory_id is None:
            raise ConfigurationError("selection criterion by_id needs a trajectory id")
        if trajectory_id not in ds.ids:
            raise NotFoundError(f"no trajectory with id {trajectory_id!r}")
        return ds.trajectory(ds.ids.index(trajectory_id))
    if criterion == "longest_by_points":
        metric = np.diff(ds.offsets)
    else:
        metric = _path_lengths_m(ds)
    tied = np.flatnonzero(metric == metric.max()).tolist()
    return ds.trajectory(min(tied, key=ds.ids.__getitem__))


def trajectory_digest(traj: Trajectory) -> str:
    """Deterministic plain-text summary of one trajectory for prompting."""
    start, end = traj.points[0], traj.points[-1]
    lines = [
        f"trajectory id: {traj.id}",
        f"points: {len(traj.points)}",
        f"start: ({start.lon:.4f}, {start.lat:.4f})",
        f"end: ({end.lon:.4f}, {end.lat:.4f})",
        f"path length: {traj.path_length_m():.0f} m",
    ]
    if traj.start_time is not None:
        lines.insert(1, f"start time (unix): {traj.start_time}")
    return "\n".join(lines) + "\n"

"""Parse trajectory datasets into what a run reads of them.

Two source schemas:

* ``kaggle_porto`` -- the taxi trip CSV export. Header row with a POLYLINE
  column holding a bracketed list of ``[lon, lat]`` pairs. Only TRIP_ID,
  TIMESTAMP and POLYLINE are consumed; rows flagged MISSING_DATA are skipped.
* ``point_list`` -- one ``lon,lat`` pair per line (header optional), the
  whole file being a single trajectory.

A parse folds the file, one block of trips at a time, into a ``Dataset``
that keeps each trip's final point and, when a selection is asked for, the
one selected ``Trajectory``: so memory grows with the number of trips, not
of points, and the selected trip stays one (N, 2) array from here to the map.

Rows that cannot yield a usable trajectory (empty or malformed polyline,
fewer than 2 points, coordinates outside WGS84 range, MISSING_DATA flag) are
counted in ``skipped_rows``, by reason, never silently dropped. Real GPS
exports are dirty; a bad row is data about the data.

Of a POLYLINE in the common form (``_CANON``) only the point count and the
final pair are read. Every other row, and every row when trip lengths are
needed, is decoded exactly by ``_decode_polyline``, which defines every skip
reason and every bit. A Kaggle file of more than one block of rows is
decoded by up to two forked worker processes, one per usable core, while
this process reads the CSV; they send back per-trip reductions, not
coordinates, and the result is the same as decoding in-process.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import itertools
import json
import logging
import os
import re
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import ConfigurationError, ParseError
from .geo import haversine_distances

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

# A POLYLINE the screen certifies: two or more [lon, lat] pairs, separated by
# "," or ", ", each number a JSON number with a fraction and no exponent that
# is lexically inside WGS84 (|lon| < 180, |lat| < 90). Such a row decodes to
# a kept trip, and float() of its final pair's digits gives the bits JSON
# does. [0-9], not \d: float() reads other Unicode digits, JSON does not. The
# fraction is required: JSON reads -0 as the integer 0, float() as -0.0.
_LON = r"-?(?:1[0-7][0-9]|[1-9]?[0-9])\.[0-9]+"
_LAT = r"-?[1-8]?[0-9]\.[0-9]+"
_CANON = re.compile(rf"\[\[{_LON}, ?{_LAT}\](?:, ?\[({_LON}), ?({_LAT})\])+\]")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One GPS trace: ``coords`` is its float64 (N, 2) lon/lat array in source
    order; consumers get N >= 2."""

    id: str
    coords: np.ndarray
    start_time: int | None = None


def _no_skips() -> dict[str, int]:
    return dict.fromkeys(SKIP_REASONS, 0)


@dataclass(eq=False)
class Dataset:
    """What one parse keeps: each trip's final point, the rows that gave no
    trip, and the trip a selection asked for.

    ``endpoints`` is a float64 (T, 2) array of (lon, lat) rows, one per kept
    trip, in file order. ``skipped_by_reason`` counts the source rows that
    gave no trip, one key per SKIP_REASONS entry. ``selected`` is the trip the
    parse's selection picked: None when no selection was asked for, the file
    kept no trip, or no trip has the ``by_id`` id.
    """

    endpoints: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    source_path: str = ""
    skipped_by_reason: dict[str, int] = field(default_factory=_no_skips)
    selected: Trajectory | None = None

    @property
    def skipped_rows(self) -> int:
        return sum(self.skipped_by_reason.values())

    def __len__(self) -> int:
        return len(self.endpoints)


class _Fold:
    """Folds blocks of trips, in file order, into what a Dataset keeps.

    A block gives each kept trip's final point, point count and path length
    (under ``longest_by_length``); only a trip the selection takes is decoded.
    The selection rules: ``longest_by_points`` and ``longest_by_length`` take
    the largest, ties going to the lowest id (the earliest trip, among equal
    ids); ``by_id`` takes the first trip with that id.
    """

    def __init__(self, selection: tuple[str, str | None] | None):
        self.criterion, self.wanted = selection or (None, None)
        self.by_length = self.criterion == "longest_by_length"    # blocks measure their trips
        self.ends = [np.empty((0, 2))]
        self.key: tuple | None = None           # (-metric, id) of ``selected``
        self.selected: Trajectory | None = None

    def add(self, ends: np.ndarray, n: np.ndarray, lengths: np.ndarray | None,
            ids: list[str], start_times: list[int | None], coords_of) -> None:
        """Fold one block's kept trips; ``coords_of(i)`` gives trip i's coordinates."""
        self.ends.append(ends)
        if not ids or self.criterion is None:
            return
        if self.criterion == "by_id":
            if self.selected is not None or self.wanted not in ids:
                return
            i = ids.index(self.wanted)
        else:
            metric = lengths if self.by_length else n
            top = metric.max()
            i = min(np.flatnonzero(metric == top).tolist(), key=ids.__getitem__)
            key = (-top.item(), ids[i])
            if self.key is not None and not key < self.key:
                return
            self.key = key
        coords = coords_of(i)
        coords.flags.writeable = False
        self.selected = Trajectory(id=ids[i], coords=coords, start_time=start_times[i])

    def dataset(self, source_path: str, skipped: dict[str, int]) -> Dataset:
        return Dataset(endpoints=np.concatenate(self.ends), source_path=source_path,
                       skipped_by_reason=skipped, selected=self.selected)


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


def _parse_kaggle(lines: Iterable[str], source_path: str, fold: _Fold) -> Dataset:
    reader = csv.reader(lines)
    limit = csv.field_size_limit(_MAX_FIELD_CHARS)
    try:
        return _read_kaggle(reader, source_path, fold)
    except csv.Error as exc:
        raise ParseError(f"{source_path}: line {reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _decode_block(texts: list[str], by_length: bool = False):
    """Reduce a block of POLYLINE texts to what the fold reads of the trips it keeps.

    Returns the kept trips' final points (k, 2), point counts, path lengths
    (None unless ``by_length``, which decodes every row exactly) and positions
    in ``texts``, the texts skipped, by reason, and how many ``_CANON`` certified.
    """
    skipped = _no_skips()
    ends, n, rows = [], [], []
    exact, xys = [], [np.empty((0, 2))]     # the decoded trips: places in ``rows``, coordinates
    for i, text in enumerate(texts):
        m = None if by_length else _CANON.fullmatch(text)
        if m is not None:
            ends.append((float(m[1]), float(m[2])))
            n.append(text.count("[") - 1)
        else:
            xy = _decode_polyline(text)
            if isinstance(xy, str):
                skipped[xy] += 1
                continue
            exact.append(len(rows))
            xys.append(xy)
            ends.append(xy[-1])
            n.append(len(xy))
        rows.append(i)
    n = np.array(n, dtype=np.int64)
    xy, n_exact = np.concatenate(xys), n[exact]
    ok = np.logical_and.reduceat(_in_range(xy), np.cumsum(n_exact) - n_exact)
    skipped["out_of_range"] += int(len(ok) - ok.sum())
    keep = np.ones(len(rows), dtype=bool)
    keep[exact] = ok
    n = n[keep]
    path_m = (_path_lengths_m(xy[np.repeat(ok, n_exact)], np.concatenate(([0], np.cumsum(n))))
              if by_length else None)      # every kept trip was decoded, in order
    return (np.array(ends, dtype=np.float64).reshape(-1, 2)[keep], n, path_m,
            np.array(rows, dtype=np.int64)[keep], skipped, len(rows) - len(exact))


def _decode_worker(conn, by_length: bool) -> None:
    """Worker process: answer each block of texts with ``_decode_block``, until None."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the parent's to handle
    while (texts := conn.recv()) is not None:
        conn.send(_decode_block(texts, by_length))


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


def _decode_in_workers(blocks, workers: int, by_length: bool):
    """``(rest, _decode_block(texts, by_length))`` per ``(texts, rest)`` block, in block order.

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
            proc = ctx.Process(target=_decode_worker, args=(child, by_length), daemon=True)
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


def _read_kaggle(reader, source_path: str, fold: _Fold) -> Dataset:
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
        """Rows not flagged MISSING_DATA, in blocks of (POLYLINE texts, (trip ids,
        start times, and the texts if a selection may decode one)))."""
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
                yield texts, (ids, times, fold.criterion and texts)
                texts, ids, times = [], [], []
        if texts:
            yield texts, (ids, times, fold.criterion and texts)

    blocks = row_blocks()
    head = list(itertools.islice(blocks, 2))
    workers = _fork_workers() if len(head) > 1 else 0
    blocks = itertools.chain(head, blocks)
    decoded = (_decode_in_workers(blocks, workers, fold.by_length) if workers else
               ((rest, _decode_block(texts, fold.by_length)) for texts, rest in blocks))
    certified = 0

    with contextlib.closing(decoded):               # stops the workers on any error
        for (block_ids, block_times, texts), (ends, n, lengths, kept, block_skipped,
                                              block_certified) in decoded:
            kept = kept.tolist()
            fold.add(ends, n, lengths, list(map(block_ids.__getitem__, kept)),
                     list(map(block_times.__getitem__, kept)),
                     lambda i: _decode_polyline(texts[kept[i]]))
            for reason, count in block_skipped.items():
                skipped[reason] += count
            certified += block_certified
    ds = fold.dataset(source_path, skipped)
    rows = len(ds) + ds.skipped_rows
    log.info("%s: %d rows in %d blocks, %d decode workers, %d certified by the screen, "
             "%d decoded exactly, skipped %s", source_path, rows, len(fold.ends) - 1,
             workers, certified, rows - skipped["missing_data"] - certified, skipped)
    return ds


def _parse_point_list(lines: Iterable[str], source_path: str, fold: _Fold) -> Dataset:
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
    if len(xy) >= 2:
        name = os.path.splitext(os.path.basename(source_path))[0] or "trajectory"
        lengths = _path_lengths_m(xy, np.array([0, len(xy)])) if fold.by_length else None
        fold.add(xy[-1:], np.array([len(xy)]), lengths, [name], [None], lambda i: xy)
    return fold.dataset(source_path, skipped)


def parse_dataset(source: str | IO[str], schema: str,
                  selection: tuple[str, str | None] | None = None) -> Dataset:
    """Parse ``source`` (path or text stream) under the given schema.

    ``selection`` is a ``(criterion, trajectory_id)`` pair naming the one
    trip to keep whole, as ``Dataset.selected``; the id is read only by
    ``by_id``. A leading byte-order mark is not part of the data.

    For kaggle_porto, skipped_rows + len(dataset) equals the number of data
    rows. For point_list, rows are points: the file parses to at most one
    trajectory and skipped_rows counts unusable lines.
    """
    if schema not in SCHEMAS:
        raise ConfigurationError(f"unknown dataset schema {schema!r}; expected one of {SCHEMAS}")
    if selection is not None:
        criterion, trajectory_id = selection
        if criterion not in SELECTION_CRITERIA:
            raise ConfigurationError(f"unknown selection criterion {criterion!r}; "
                                     f"expected one of {SELECTION_CRITERIA}")
        if criterion == "by_id" and trajectory_id is None:
            raise ConfigurationError("selection criterion by_id needs a trajectory id")
    parser = _parse_kaggle if schema == "kaggle_porto" else _parse_point_list
    fold = _Fold(selection)
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8-sig", newline="") as fh:
                return parser(fh, source, fold)
        first = source.readline().removeprefix("\ufeff")     # a byte-order mark is no data
        return parser(itertools.chain([first], source), getattr(source, "name", "<stream>"),
                      fold)
    except UnicodeDecodeError as exc:
        raise ParseError(f"dataset is not UTF-8 text: {exc}") from None


def _path_lengths_m(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Haversine path length of every trip ``coords[offsets[i]:offsets[i + 1]]``, in meters.

    Each trip sums its own hops and nothing else, so its length has the same
    bits wherever the trip sits in ``coords``.
    """
    hops = np.delete(haversine_distances(coords[:-1], coords[1:]),
                     offsets[1:-1] - 1)     # from one trip's end to the next one's start
    return np.add.reduceat(hops, offsets[:-1] - np.arange(len(offsets) - 1))


def trajectory_digest(traj: Trajectory) -> str:
    """Deterministic plain-text summary of one trajectory for prompting."""
    (lon0, lat0), (lon1, lat1) = traj.coords[[0, -1]].tolist()
    length_m = _path_lengths_m(traj.coords, np.array([0, len(traj.coords)]))[0]
    lines = [
        f"trajectory id: {traj.id}",
        f"points: {len(traj.coords)}",
        f"start: ({lon0:.4f}, {lat0:.4f})",
        f"end: ({lon1:.4f}, {lat1:.4f})",
        f"path length: {length_m:.0f} m",
    ]
    if traj.start_time is not None:
        lines.insert(1, f"start time (unix): {traj.start_time}")
    return "\n".join(lines) + "\n"

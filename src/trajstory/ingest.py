"""Parse trajectory datasets into what a run reads of them.

Two source schemas:

* ``kaggle_porto`` -- the taxi trip CSV export. Header row with a POLYLINE
  column holding a bracketed list of ``[lon, lat]`` pairs. Only TRIP_ID,
  TIMESTAMP and POLYLINE are consumed; rows flagged MISSING_DATA are skipped.
* ``point_list`` -- one ``lon,lat`` pair per line (header optional), the
  whole file being a single trajectory.

A parse folds the file, one chunk of trips at a time, into a ``Dataset``
that keeps each trip's final point and, when a selection is asked for, the
one selected ``Trajectory``: so memory grows with the number of trips, not
of points, and the selected trip stays one (N, 2) array from here to the map.

Rows that cannot yield a usable trajectory (empty or malformed polyline,
fewer than 2 points, coordinates outside WGS84 range, MISSING_DATA flag) are
counted in ``skipped_rows``, by reason, never silently dropped. Real GPS
exports are dirty; a bad row is data about the data.

A Kaggle line that csv.reader provably reads as one whole record is split
by ``_fields``; any other line goes to csv.reader. Of a POLYLINE in the
common form (``_CANON``) only the point count and the final pair are read.
Every other row, and every row when trip lengths are needed, is decoded
exactly by ``_decode_polyline``, which defines every skip reason and every
bit.

A Kaggle file of two chunks or more is parsed by up to two forked workers,
one per usable core: this process reads the header line, cuts the body into
chunks at line ends and folds, in file order, what the workers send back
from reading their own chunks. Where a chunk cannot be read alone (it is
not UTF-8, csv.reader fails on it, or a quoted line end crosses a cut), or
the selection takes a trip no worker decoded, the parse restarts in-process,
so every error and ``row<N>`` id comes from the in-process path, which also
parses text streams, named pipes, one-chunk files and files on one-core
machines.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import itertools
import json
import logging
import math
import os
import re
import stat
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

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
# Bytes of a Kaggle file's body per chunk: the byte range a decode worker
# reads, and, counted in characters of lines, the rows decoded at once.
_CHUNK_BYTES = 4 << 20
_LINE_ENDS = ("", "\n", "\r", "\r\n")

# A POLYLINE the screen certifies: two or more [lon, lat] pairs, separated by
# "," or ", ", each number a JSON number with a fraction and no exponent that
# is lexically inside WGS84 (|lon| < 180, |lat| < 90). Such a row decodes to
# a kept trip, and float() of its final pair's digits gives the bits JSON
# does. [0-9], not \d: float() reads other Unicode digits, JSON does not. The
# fraction is required: JSON reads -0 as the integer 0, float() as -0.0.
_LON = r"-?(?:1[0-7][0-9]|[1-9]?[0-9])\.[0-9]+"
_LAT = r"-?[1-8]?[0-9]\.[0-9]+"
_CANON = re.compile(rf"\[\[{_LON}, ?{_LAT}\](?:, ?\[{_LON}, ?{_LAT}\])+\]")


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
    """Folds chunks of trips, in file order, into what a Dataset keeps.

    A chunk gives each kept trip's final point, point count and path length
    (under ``longest_by_length``), and the one trip the selection takes of
    the chunk alone, decoded.
    The selection rules: ``longest_by_points`` and ``longest_by_length`` take
    the largest, ties going to the lowest id (the earliest trip, among equal
    ids); ``by_id`` takes the first trip with that id.
    """

    def __init__(self, selection: tuple[str, str | None] | None):
        self.criterion, self.wanted = selection or (None, None)
        self.by_length = self.criterion == "longest_by_length"    # chunks measure their trips
        self.ends = [np.empty((0, 2))]
        self.skipped = _no_skips()
        self.certified = 0                      # rows the screen certified
        self.key: tuple | None = None           # (-metric, id) of ``selected``
        self.selected: Trajectory | None = None

    def best(self, n: np.ndarray, lengths: np.ndarray | None, ids: list[str]) -> int | None:
        """The position in ``ids`` of the trip the selection takes of one chunk alone."""
        if not ids or self.criterion is None:
            return None
        if self.criterion == "by_id":
            return ids.index(self.wanted) if self.wanted in ids else None
        metric = lengths if self.by_length else n
        return min(np.flatnonzero(metric == metric.max()).tolist(), key=ids.__getitem__)

    def add(self, ends: np.ndarray, n: np.ndarray, lengths: np.ndarray | None,
            ids: list[str], start_times: list[int | None], pick) -> None:
        """Fold one chunk's kept trips; ``pick`` is ``(i, coordinates)`` of the trip
        ``best`` takes of them, or None. Raises _Restart if the fold takes another."""
        self.ends.append(ends)
        if self.criterion == "by_id" and self.selected is not None:
            return
        i = self.best(n, lengths, ids)
        if i is None:
            return
        if self.criterion != "by_id":
            key = (-(lengths if self.by_length else n)[i].item(), ids[i])
            if self.key is not None and not key < self.key:
                return
            self.key = key
        if pick is None or pick[0] != i:
            raise _Restart("the selection takes a trip no worker decoded")
        coords = pick[1]
        coords.flags.writeable = False
        self.selected = Trajectory(id=ids[i], coords=coords, start_time=start_times[i])

    def add_chunk(self, base: int, chunk) -> None:
        """Fold a ``_reduce`` result whose lines follow line ``base`` of the file."""
        _, ends, n, lengths, ids, times, blank, skipped, certified, pick = chunk
        for i, line in blank:
            ids[i] = f"row{base + line}"
        self.add(ends, n, lengths, ids, times, pick)
        for reason, count in skipped.items():
            self.skipped[reason] += count
        self.certified += certified

    def dataset(self, source_path: str) -> Dataset:
        return Dataset(endpoints=np.concatenate(self.ends), source_path=source_path,
                       skipped_by_reason=self.skipped, selected=self.selected)


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
        if not by_length and _CANON.fullmatch(text):
            lon, lat = text[text.rfind("[") + 1:-2].split(",")
            ends.append((float(lon), float(lat)))
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


class _Restart(Exception):
    """What the decode workers read cannot be folded: the parse restarts in-process."""


def _cell(row: list[str], i: int | None) -> str:
    return row[i] if i is not None and i < len(row) else ""


def _fields(line: str) -> list[str] | None:
    """The fields of ``line`` if csv.reader reads it as one whole record, else None.

    Proven only for a line with no ``"``, or with two that quote its last field
    (the first follows a ``,``, the second ends the line), and no NUL: Python
    3.10's csv rejects a NUL and 3.11's reads it. A line longer than the field
    limit is refused too, so that csv.reader raises its error.
    """
    if "\0" in line or len(line) > _MAX_FIELD_CHARS:
        return None
    q = line.find('"')
    if q < 0:
        body = line.rstrip("\r\n")    # a line holds no line end but its last
        return body.split(",") if body else []      # csv reads a blank line as []
    e = line.rfind('"')
    if 0 < q < e and line[q - 1] == "," and line[e + 1:] in _LINE_ENDS \
            and line.find('"', q + 1, e) < 0:
        row = line[:q - 1].split(",")
        row.append(line[q + 1:e])
        return row
    return None


def _read_rows(lines, columns: tuple[int | None, ...], selecting: bool, size: float,
               base: int | None, tail: tuple = ()):
    """Read Kaggle records from the text ``lines`` until they pass ``size`` characters.

    None when no line is left, else ``(texts, ids, times, blank, lines, flagged)``:
    the POLYLINE texts of the rows not flagged MISSING_DATA, with their trip
    ids and start times when ``selecting``; the lines read, and the rows
    flagged. ``base`` is the number of lines before ``lines``; a worker does
    not know it, so there a blank trip id stays "" and ``blank`` maps its row
    to the line its record ends on, counted from here. ``tail`` follows
    ``lines``: ``(None,)`` makes a record still open at their end a csv.Error.
    """
    polyline, trip, timestamp, missing = columns
    texts, ids, times, blank = [], [], [], {}
    num = chars = flagged = 0
    for line in lines:
        num += 1
        chars += len(line)
        row = _fields(line)
        if row is None:
            reader = csv.reader(itertools.chain([line], lines, tail))
            try:
                row = next(reader)
            except csv.Error as exc:
                raise csv.Error(f"line {(base or 0) + num - 1 + reader.line_num}: {exc}") from None
            num += reader.line_num - 1
        if not row:
            pass                                # a blank line is not a row
        elif _cell(row, missing).strip().lower() == "true":
            flagged += 1
        else:
            texts.append(_cell(row, polyline))
            if selecting:
                trip_id = _cell(row, trip).strip()
                if not trip_id and base is not None:
                    trip_id = f"row{base + num}"
                elif not trip_id:
                    blank[len(ids)] = num
                ids.append(trip_id)
                ts = _cell(row, timestamp).strip()
                try:
                    times.append(int(ts) if ts else None)
                except ValueError:
                    times.append(None)
        if chars > size:
            break
    return (texts, ids, times, blank, num, flagged) if num else None


def _reduce(rows, fold: _Fold):
    """What ``fold`` reads of the rows ``_read_rows`` gave.

    ``(lines, ends, n, lengths, ids, times, blank, skipped, certified, pick)``:
    ``_decode_block``'s reductions with the kept trips' ids and start times,
    ``blank`` as ``(kept position, line)``, and ``pick``, ``(i, coordinates)``
    of the trip ``fold.best`` takes of them.
    """
    texts, ids, times, blank, lines, flagged = rows
    ends, n, lengths, kept, skipped, certified = _decode_block(texts, fold.by_length)
    skipped["missing_data"] = flagged
    kept, pick = kept.tolist(), None
    blank = [(i, blank[k]) for i, k in enumerate(kept) if k in blank] if blank else []
    if ids:
        ids, times = [ids[k] for k in kept], [times[k] for k in kept]
        i = fold.best(n, lengths, ids)
        if i is not None:
            pick = i, _decode_polyline(texts[kept[i]])
    return lines, ends, n, lengths, ids, times, blank, skipped, certified, pick


def _columns(header: list[str] | None) -> tuple[int | None, ...]:
    """Where POLYLINE, TRIP_ID, TIMESTAMP and MISSING_DATA sit in a row."""
    if header is None or "POLYLINE" not in header:
        raise ParseError("kaggle_porto header is missing the POLYLINE column")
    # a repeated column name reads its last column, as csv.DictReader does
    column = {name: i for i, name in enumerate(header)}
    return tuple(column.get(name) for name in ("POLYLINE", "TRIP_ID", "TIMESTAMP", "MISSING_DATA"))


def _kaggle_dataset(fold: _Fold, source_path: str, workers: int) -> Dataset:
    ds = fold.dataset(source_path)
    rows = len(ds) + ds.skipped_rows
    log.info("%s: %d rows in %d chunks, %d decode workers, %d certified by the screen, "
             "%d decoded exactly, skipped %s", source_path, rows, len(fold.ends) - 1,
             workers, fold.certified, rows - fold.skipped["missing_data"] - fold.certified,
             fold.skipped)
    return ds


def _parse_kaggle(lines: Iterator[str], source_path: str, fold: _Fold) -> Dataset:
    """A Kaggle file parsed in this process, from its text ``lines``."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"{source_path}: line {reader.line_num}: {exc}") from None
    columns, base, selecting = _columns(header), reader.line_num, fold.criterion is not None
    try:
        while (rows := _read_rows(lines, columns, selecting, _CHUNK_BYTES, base)) is not None:
            chunk = _reduce(rows, fold)
            fold.add_chunk(base, chunk)
            base += chunk[0]
    except csv.Error as exc:
        raise ParseError(f"{source_path}: {exc}") from None
    return _kaggle_dataset(fold, source_path, 0)


def _header(line: bytes) -> list[str] | None:
    """The header record, if csv.reader reads the UTF-8 ``line`` alone as one record."""
    if not line.endswith(b"\n"):                   # the file's end, or cut short
        return None
    try:
        lines = io.StringIO(line.decode("utf-8-sig"), newline="").readlines()
        return next(csv.reader(lines + [None])) if len(lines) == 1 else None
    except (UnicodeDecodeError, csv.Error):
        return None


def _decode_worker(conn, path: str, columns: tuple[int | None, ...], fold: _Fold) -> None:
    """Worker process: answer each ``(start, end)`` byte range of ``path`` with the
    ``_reduce`` of its rows, or None where they cannot be read alone: they are
    not UTF-8, csv.reader fails on one, or a record runs past their end."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the parent's to handle
    with open(path, "rb") as fh:
        while (job := conn.recv()) is not None:
            start, end = job
            fh.seek(start)
            try:
                text = fh.read(end - start).decode("utf-8")
                rows = _read_rows(io.StringIO(text, newline=""), columns,
                                  fold.criterion is not None, math.inf, None, (None,))
            except (UnicodeDecodeError, csv.Error):
                conn.send(None)
            else:
                conn.send(_reduce(rows, fold))


def _fork_workers() -> int:
    """Decode workers for a file of more than one chunk: up to two, one per usable core.

    0, to decode in-process, where one core is usable or no worker can be forked.
    """
    try:
        workers = min(2, len(os.sched_getaffinity(0)))
    except AttributeError:                          # no affinity on this platform
        workers = min(2, os.cpu_count() or 1)
    if workers < 2:
        return 0
    import multiprocessing                          # only multi-chunk files pay for it
    if "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.current_process().daemon:   # a daemon may not fork workers
        return 0
    return workers


def _decode_in_workers(path: str, jobs: list[tuple[int, int]], workers: int,
                       columns: tuple[int | None, ...], fold: _Fold):
    """The worker's answer to each ``(start, end)`` byte range of ``path``, in file order.

    Jobs go round-robin to forked workers, each with its own pipe and at
    most two jobs in flight, so results arrive in file order on this thread
    and neither end of a pipe can block the other. No worker outlives the
    generator.
    """
    import multiprocessing
    # forked, not spawned: a worker starts with numpy already imported, and
    # runs only csv, json and numpy code
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    pending = collections.deque()                   # job numbers in flight
    finished = False

    def stopped(i: int) -> ParseError:
        procs[i].join()                 # its end of the pipe is closed: it has exited
        return ParseError(f"a POLYLINE decoding worker stopped (exit code {procs[i].exitcode})")

    def send(i: int, job: tuple[int, int] | None) -> None:
        try:
            conns[i].send(job)
        except OSError:
            raise stopped(i) from None

    def receive():
        i = pending.popleft() % workers
        try:
            return conns[i].recv()
        except (EOFError, OSError):
            raise stopped(i) from None

    try:
        for _ in range(workers):
            conn, child = ctx.Pipe()
            conns.append(conn)
            proc = ctx.Process(target=_decode_worker, args=(child, path, columns, fold),
                               daemon=True)
            proc.start()
            procs.append(proc)
            child.close()
        for k, job in enumerate(jobs):
            if len(pending) == 2 * workers:
                yield receive()
            send(k % workers, job)
            pending.append(k)
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


def _parse_in_workers(path: str, fold: _Fold) -> Dataset | None:
    """The Kaggle file at ``path``, its body read by forked decode workers.

    This process reads the header line and cuts the body into chunks of
    about ``_CHUNK_BYTES`` at line ends, a seek and a readline each; the
    workers read, parse and reduce the chunks, and this process folds them
    in file order. None, to parse in-process, where the file is not a
    regular file of two chunks or more, no worker can be forked, its first
    line is not the whole header in UTF-8, or a chunk cannot be read alone.
    """
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):    # a FIFO can be opened only once: the in-process parse does
        return None
    with open(path, "rb") as fh:
        header = _header(fh.readline(1 << 20))      # a longer first line parses in-process
        cuts = [fh.tell()]
        while cuts[-1] < st.st_size:
            fh.seek(cuts[-1] + _CHUNK_BYTES)
            fh.readline()
            cuts.append(min(fh.tell(), st.st_size))
    if len(cuts) < 3 or header is None or "POLYLINE" not in header:
        return None
    workers = _fork_workers()
    if not workers:
        return None
    base = 1                                        # the header is line 1
    chunks = _decode_in_workers(path, list(zip(cuts, cuts[1:])), workers,
                                _columns(header), fold)
    try:
        with contextlib.closing(chunks):            # stops the workers on any error
            for chunk in chunks:
                if chunk is None:
                    raise _Restart("a chunk cannot be read alone")
                fold.add_chunk(base, chunk)
                base += chunk[0]
    except _Restart as exc:
        log.info("%s: %s; parsing in-process", path, exc)
        return None
    return _kaggle_dataset(fold, path, workers)


def _parse_point_list(lines: Iterable[str], source_path: str, fold: _Fold) -> Dataset:
    skipped = fold.skipped
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
        fold.add(xy[-1:], np.array([len(xy)]), lengths, [name], [None], (0, xy))
    return fold.dataset(source_path)


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
    limit = csv.field_size_limit(_MAX_FIELD_CHARS)
    try:
        if isinstance(source, str):
            ds = _parse_in_workers(source, _Fold(selection)) if parser is _parse_kaggle else None
            if ds is None:
                with open(source, encoding="utf-8-sig", newline="") as fh:
                    ds = parser(fh, source, _Fold(selection))
            return ds
        first = source.readline().removeprefix("\ufeff")     # a byte-order mark is no data
        return parser(itertools.chain([first], source), getattr(source, "name", "<stream>"),
                      _Fold(selection))
    except UnicodeDecodeError as exc:
        raise ParseError(f"dataset is not UTF-8 text: {exc}") from None
    finally:
        csv.field_size_limit(limit)


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

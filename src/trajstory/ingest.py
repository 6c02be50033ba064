"""Parse trajectory datasets into what a run reads of them.

Two source schemas:

* ``kaggle_porto`` -- the taxi trip CSV export. Header row with a POLYLINE
  column holding a bracketed list of ``[lon, lat]`` pairs. Only TRIP_ID,
  TIMESTAMP and POLYLINE are consumed; rows flagged MISSING_DATA are skipped.
* ``point_list`` -- one ``lon,lat`` pair per line (header optional), the
  whole file being a single trajectory. A file, or what is left of a text
  stream, is read whole as bytes, in blocks that end at a line end: a block
  of plain numbers by ``np.fromstring``, any other line by line.

A parse folds the file, one chunk of trips at a time, into a ``Dataset``
that keeps each trip's final point and, when a selection is asked for, the
one selected ``Trajectory``: so memory grows with the number of trips, not
of points, and the selected trip stays one (N, 2) array from here to the map.

Rows that cannot yield a usable trajectory (empty or malformed polyline,
fewer than 2 points, coordinates outside WGS84 range, MISSING_DATA flag) are
counted in ``skipped_rows``, by reason, never silently dropped. Real GPS
exports are dirty; a bad row is data about the data.

A Kaggle chunk whose lines csv.reader provably reads as whole records, all
of as many fields, is read in bulk, by one split on ``"`` (``_bulk_columns``);
any other chunk by csv.reader. Workers and the in-process parse (runs of
lines by ``readlines(_CHUNK_BYTES)``) read either's columns through the one
``_read_rows``. Of a POLYLINE in the common form (``_CANON``) only the final
pair is read, and the point count when a selection is asked for. Every other
row, and every row when trip lengths are needed, is decoded exactly by
``_decode_polyline``, which defines every skip reason and every bit.

This process reads the Kaggle header. The body of a regular file that
``parse_dataset`` opened, its header on line 1, of two chunks or more, is
parsed by up to two workers forked by ``os.fork``, one per usable core: of
``w`` workers, worker ``i`` reads chunks ``i``, ``i + w``, ... and pickles on
its own one-way ``os.pipe`` each one's kept trips' final points, skip counts
and pick (``_Fold.pick``), and this process folds chunk ``k`` from pipe
``k % w``, so in file order, naming a blank-id pick ``row<N>``. Where a chunk
cannot be read alone (it is not UTF-8, csv.reader fails on it, a quoted line
end crosses a cut, or a blank id, whose ``row<N>`` no worker knows, could
change its pick), the parse goes on in-process, so every error comes from
the in-process path, which also parses text streams, named pipes, one-chunk
files and files on one-core machines. Any process forks workers, a daemonic
``multiprocessing`` one too.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import logging
import os
import pickle
import re
import signal
import stat
import traceback
import warnings
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, NoReturn

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
# Bytes of a plain point_list file numpy reads at once, up to the next line end:
# "\n", "\r\n" or a lone "\r", as a universal-newlines read ends a line.
_POINT_BLOCK_BYTES = 1 << 16
_LINE_END = re.compile(rb"\r\n?|\n")

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

    A chunk gives each kept trip's final point and ``pick``, the trip the
    selection takes of the chunk alone, decoded, with its key.
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
        self.bulk = 0                           # chunks read in bulk
        self.key: tuple | None = None           # the key of ``selected``
        self.selected: Trajectory | None = None

    def pick(self, n: np.ndarray, lengths: np.ndarray | None, ids: list,
             times: list[int | None], decode) -> tuple[tuple, Trajectory] | None:
        """``(key, trip)`` of the trip the selection takes of one chunk's kept trips
        alone, or None; ``decode(i)`` gives trip ``i``'s coordinates. The fold
        keeps the smaller key: ``(-metric, id)``, or ``()`` under ``by_id``.
        A worker's blank id is the int line of its record (see ``_read_rows``);
        raises _Restart where such an id's ``row<N>`` could change the pick: a
        blank-id trip ties for the maximum, or ``by_id`` wants a ``row...`` id."""
        if not ids or self.criterion is None:
            return None
        if self.criterion == "by_id":
            if self.wanted.startswith("row") and not all(isinstance(i, str) for i in ids):
                raise _Restart
            if self.wanted not in ids:
                return None
            i, key = ids.index(self.wanted), ()
        else:
            metric = lengths if self.by_length else n
            tied = np.flatnonzero(metric == metric.max()).tolist()
            if len(tied) > 1 and not all(isinstance(ids[i], str) for i in tied):
                raise _Restart
            i = min(tied, key=ids.__getitem__)
            key = (-metric[i].item(), ids[i])
        return key, Trajectory(id=ids[i], coords=decode(i), start_time=times[i])

    def add(self, ends: np.ndarray, pick: tuple[tuple, Trajectory] | None) -> None:
        """Fold one chunk's kept trips' final points and its ``pick``."""
        self.ends.append(ends)
        if pick is not None and (self.key is None or pick[0] < self.key):
            self.key, self.selected = pick
            self.selected.coords.flags.writeable = False

    def add_chunk(self, base: int, chunk) -> None:
        """Fold a ``_reduce`` result whose lines follow line ``base`` of the file."""
        _, bulk, ends, skipped, certified, pick = chunk
        if pick is not None and isinstance(pick[1].id, int):    # a worker's blank id
            trip = replace(pick[1], id=f"row{base + pick[1].id}")
            pick = (pick[0][0], trip.id), trip
        self.add(ends, pick)
        for reason, count in skipped.items():
            self.skipped[reason] += count
        self.certified += certified
        self.bulk += bulk

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


def _decode_block(texts: list[str], criterion: str | None):
    """Reduce a block of POLYLINE texts to what the fold reads of the trips it keeps,
    under the selection ``criterion`` (None: no selection).

    Returns the kept trips' final points (k, 2), point counts (None without a
    selection), path lengths (None unless ``longest_by_length``, which decodes
    every row exactly) and positions in ``texts``, the texts skipped, by
    reason, and how many ``_CANON`` certified.
    """
    by_length = criterion == "longest_by_length"
    skipped = _no_skips()
    screen = [None] * len(texts) if by_length else list(map(_CANON.fullmatch, texts))
    certified = list(itertools.compress(texts, screen))
    keep = np.array([match is not None for match in screen], dtype=bool)
    ends, n = np.empty((len(texts), 2)), np.empty(len(texts), dtype=np.int64)
    if certified:       # of each, float() of its final pair's digits, and its point count
        pairs = ",".join([text[text.rfind("[") + 1:-2] for text in certified]).split(",")
        ends[keep] = np.array(list(map(float, pairs))).reshape(-1, 2)
        if criterion is not None:
            n[keep] = np.fromiter(map(str.count, certified, itertools.repeat("[")), np.int64) - 1
    exact, xys = [], [np.empty((0, 2))]     # the decoded trips: rows, coordinates
    for i in np.flatnonzero(~keep).tolist():
        xy = _decode_polyline(texts[i])
        if isinstance(xy, str):
            skipped[xy] += 1
            continue
        exact.append(i)
        xys.append(xy)
        ends[i], n[i] = xy[-1], len(xy)
    xy, n_exact = np.concatenate(xys), n[exact]
    ok = np.logical_and.reduceat(_in_range(xy), np.cumsum(n_exact) - n_exact)
    skipped["out_of_range"] += int(len(ok) - ok.sum())
    keep[exact] = ok
    n = n[keep] if criterion is not None else None
    path_m = (_path_lengths_m(xy[np.repeat(ok, n_exact)], np.concatenate(([0], np.cumsum(n))))
              if by_length else None)      # every kept trip was decoded, in order
    return ends[keep], n, path_m, np.flatnonzero(keep), skipped, len(certified)


class _Restart(Exception):
    """A chunk's pick needs what only the in-process parse knows: it restarts there."""


def _bulk_columns(text: str) -> tuple[list[list[str]], range, int] | None:
    """``(columns, the line each record ends on, lines)`` where csv.reader provably
    reads each line of ``text`` as one whole record, all of as many fields:
    ``columns[i]`` holds field ``i`` of each. Else None.

    Proven where every ``"`` opens a field (at a line start or after a ``,``)
    or closes one (before a ``,`` or a line end), so that a doubled ``""``
    inside a field, which leaves two quoted parts side by side, is refused
    (``""`` between separators is an empty field); no quoted part holds a CR
    or LF; the text holds no NUL (Python 3.10's csv rejects one, 3.11's reads
    it); every line ends in ``\\n`` or ``\\r\\n`` (the last may have no end); no
    line is blank or longer than the field limit, so that csv.reader raises
    its error; and every line has as many fields.
    """
    if "\0" in text:
        return None
    parts = text.split('"')
    quoted = parts[1::2]
    bare = '"'.join(parts[0::2])                 # each quoted field one ``"``
    if any("\n" in part or "\r" in part for part in quoted):
        return None
    bare = bare.replace("\r\n", "\n")
    bare += "" if bare.endswith("\n") else "\n"      # the last line may have no end
    opened = bare.count(',"') + bare.count('\n"') + bare.startswith('"')
    closed = bare.count('",') + bare.count('"\n')
    if not opened == closed == len(quoted) or "\r" in bare or "\n\n" in bare \
            or bare.startswith("\n"):
        return None
    if len(text) > _MAX_FIELD_CHARS and max(map(len, text.split("\n"))) > _MAX_FIELD_CHARS:
        return None
    cells = bare.replace("\n", ",\n,").split(",")
    cells.pop()                                 # what follows the last line end
    lines, width = bare.count("\n"), cells.index("\n")
    if len(cells) != lines * (width + 1) or cells[width::width + 1].count("\n") != lines:
        return None
    if quoted:                  # put each quoted field back, in row order
        quoted = iter(quoted)
        cells = [next(quoted) if cell == '"' else cell for cell in cells]
    return [cells[i::width + 1] for i in range(width)], range(1, lines + 1), lines


def _csv_rows(text: str, more: Iterable, base: int | None) -> tuple[list, list[int], int]:
    """csv.reader's records of the lines of ``text``, a record still open at their
    end continuing into ``more``: ``(columns, the line each record ends on, lines
    read)``, blank lines giving no record and short records filled with ``""``."""
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(itertools.chain(lines, more))
    rows, ends = [], []
    try:
        while reader.line_num < len(lines):
            if row := next(reader):
                rows.append(row)
                ends.append(reader.line_num)
    except csv.Error as exc:
        raise csv.Error(f"line {(base or 0) + reader.line_num}: {exc}") from None
    return list(itertools.zip_longest(*rows, fillvalue="")), ends, reader.line_num


def _start_time(cell: str) -> int | None:
    try:
        return int(cell) if cell.strip() else None
    except ValueError:
        return None


def _read_rows(text: str, more: Iterable, columns: tuple[int | None, ...], selecting: bool,
               base: int | None):
    """Read the Kaggle records of ``text``, whole lines: in bulk where ``_bulk_columns``
    proves them, else by csv.reader, a record still open at their end continuing
    into ``more``; ``(None,)`` makes that a csv.Error.

    ``(texts, ids, times, lines, flagged, bulk)``: the POLYLINE texts of the
    rows not flagged MISSING_DATA, with their trip ids and start times when
    ``selecting``; the lines read, the rows flagged and whether they were read
    in bulk. ``base`` is the number of lines before ``text``; a blank trip id
    becomes ``row<N>``, N the line its record ends on, except in a worker,
    which does not know ``base``: there it is the int line within ``text``.
    """
    polyline, trip, timestamp, missing = columns
    bulk = _bulk_columns(text)
    fields, ends, num = bulk or _csv_rows(text, more, base)

    def column(i):
        return fields[i] if i is not None and i < len(fields) else [""] * len(ends)
    keep = [cell.strip().lower() != "true" for cell in column(missing)]
    texts = list(itertools.compress(column(polyline), keep))
    ids, times = [], []
    if selecting:
        named = zip(itertools.compress(column(trip), keep), itertools.compress(ends, keep))
        ids = [cell.strip() or (line if base is None else f"row{base + line}")
               for cell, line in named]
        times = [_start_time(cell) for cell in itertools.compress(column(timestamp), keep)]
    return texts, ids, times, num, keep.count(False), bulk is not None


def _reduce(rows, fold: _Fold):
    """What ``fold`` reads of the rows ``_read_rows`` gave: ``(lines, bulk, ends,
    skipped, certified, pick)``, the lines read and whether in bulk, the kept
    trips' final points, the skips by reason, the rows the screen certified,
    and ``fold.pick`` of the kept trips."""
    texts, ids, times, lines, flagged, bulk = rows
    ends, n, lengths, kept, skipped, certified = _decode_block(texts, fold.criterion)
    skipped["missing_data"] = flagged
    kept = kept.tolist()
    pick = fold.pick(n, lengths, [ids[k] for k in kept], [times[k] for k in kept],
                     lambda i: _decode_polyline(texts[kept[i]])) if ids else None
    return lines, bulk, ends, skipped, certified, pick


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
    chunks = len(fold.ends) - 1
    log.info("%s: %d rows in %d chunks, %d decode workers, %d chunks read in bulk, %d line "
             "by line, %d certified by the screen, %d decoded exactly, skipped %s",
             source_path, rows, chunks, workers, fold.bulk, chunks - fold.bulk, fold.certified,
             rows - fold.skipped["missing_data"] - fold.certified, fold.skipped)
    return ds


def _parse_kaggle(fh: IO[str], source_path: str, selection: tuple[str, str | None] | None,
                  owned: bool = False) -> Dataset:
    """A Kaggle file from where the text stream ``fh`` stands; its body by the workers
    where ``parse_dataset`` opened ``fh`` (``owned``), else in runs of lines."""
    first = fh.readline()       # a byte-order mark is no data; the utf-8-sig codec drops it
    if getattr(fh, "encoding", None) != "utf-8-sig":
        first = first.removeprefix("\ufeff")
    reader = csv.reader(itertools.chain([first], fh))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"{source_path}: line {reader.line_num}: {exc}") from None
    columns, base, selecting = _columns(header), reader.line_num, selection is not None
    if owned and base == 1 and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        ds = _parse_in_workers(source_path, first, columns, _Fold(selection))
        if ds is not None:
            return ds
    fold = _Fold(selection)
    try:
        while run := fh.readlines(_CHUNK_BYTES):
            chunk = _reduce(_read_rows("".join(run), fh, columns, selecting, base), fold)
            fold.add_chunk(base, chunk)
            base += chunk[0]
    except csv.Error as exc:
        raise ParseError(f"{source_path}: {exc}") from None
    return _kaggle_dataset(fold, source_path, 0)


def _decode_worker(out, path: str, jobs: list[tuple[int, int]],
                   columns: tuple[int | None, ...], fold: _Fold) -> NoReturn:
    """Forked worker process: pickle to ``out``, in order, the ``_reduce`` of the rows of
    each ``(start, end)`` byte range of ``path`` in ``jobs``, or None where they cannot
    be read alone: they are not UTF-8, csv.reader fails on one, a record runs past
    their end, or a blank id could change their pick (``_Fold.pick``). A full pipe
    blocks the write until the parent reads. Exits 0, or 1 with a traceback on stderr."""
    code = 1
    try:                                # it never returns into the code that forked it
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the parent's to handle
        with open(path, "rb") as fh:
            for start, end in jobs:
                fh.seek(start)
                try:
                    chunk = _reduce(_read_rows(fh.read(end - start).decode("utf-8"), (None,),
                                               columns, fold.criterion is not None, None), fold)
                except (UnicodeDecodeError, csv.Error, _Restart):
                    chunk = None
                pickle.dump(chunk, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def _fork_workers() -> int:
    """Decode workers for a file of more than one chunk: up to two, one per usable core.

    0, to decode in-process, where one core is usable or no worker can be forked.
    """
    try:
        workers = min(2, len(os.sched_getaffinity(0)))
    except AttributeError:                          # no affinity on this platform
        workers = min(2, os.cpu_count() or 1)
    return workers if workers > 1 and hasattr(os, "fork") else 0


def _parse_in_workers(path: str, first: str, columns: tuple[int | None, ...],
                      fold: _Fold) -> Dataset | None:
    """The body of the Kaggle file at ``path``, read by forked decode workers.

    This process checks that the header record ``first``, the first text line,
    is the first byte line too, less one byte-order mark, and cuts the body into
    chunks of about ``_CHUNK_BYTES`` at line ends. Worker ``i`` of ``w`` is
    forked with chunks ``i``, ``i + w``, ... and pickles its answers on a
    one-way pipe; this process folds chunk ``k`` from pipe ``k % w``, so in file
    order. A full pipe is the only flow control: a worker waits on its write
    until this process reads. No worker outlives the call. None, to parse
    in-process, where ``first`` is not the first byte line, the body is one
    chunk, no worker can be forked, or a chunk cannot be read alone.
    """
    with open(path, "rb") as fh:        # a lone CR ends a text line, not a byte line
        if first[-1:] != "\n" or fh.readline().removeprefix(codecs.BOM_UTF8) != first.encode():
            return None
        size = os.fstat(fh.fileno()).st_size
        cuts = [fh.tell()]
        while cuts[-1] < size:
            fh.seek(cuts[-1] + _CHUNK_BYTES)
            fh.readline()
            cuts.append(min(fh.tell(), size))
    workers = _fork_workers() if len(cuts) > 2 else 0
    if not workers:
        return None
    jobs = list(zip(cuts, cuts[1:]))
    pids, pipes = [], []
    base = 1                                        # the header is line 1
    try:
        for i in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as out:      # this process's copy closes once forked
                if (pid := os.fork()) == 0:
                    _decode_worker(out, path, jobs[i::workers], columns, fold)
            pids.append(pid)
        for k in range(len(jobs)):
            i = k % workers
            try:
                chunk = pickle.load(pipes[i])
            except (EOFError, pickle.UnpicklingError):      # cut short: the worker has exited
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(i), 0)[1])
                raise ParseError(f"a POLYLINE decoding worker stopped (exit code {code})") from None
            if chunk is None:
                log.info("%s: a chunk cannot be read alone; parsing in-process", path)
                return None
            fold.add_chunk(base, chunk)
            base += chunk[0]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return _kaggle_dataset(fold, path, workers)


def _block_points(block: bytes, skipped: dict[str, int]) -> np.ndarray:
    """The numbers of ``block``, whole point_list lines: read by ``np.fromstring``
    when they hold only ``[-.0-9,\n]``, one comma a line and no blank line, and
    numpy reads two numbers a line; else line by line, which defines every skip."""
    seps = block.translate(None, b"-.0123456789")
    if seps and seps == b",\n" * (len(seps) // 2) + b"," * (len(seps) % 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy < 2: a short read warns
            try:
                numbers = np.fromstring(block.replace(b"\n", b","), sep=",")
            except (DeprecationWarning, ValueError):  # an empty field, "-", "1.2.3", ...
                numbers = ()
        if len(numbers) == 2 * seps.count(b","):           # a comma a line
            return numbers
    values: list[float] = []
    for line in io.StringIO(block.decode("utf-8"), newline=""):
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
    return np.array(values)


def _parse_point_list(fh: IO, source_path: str,
                      selection: tuple[str, str | None] | None) -> Dataset:
    """The rest of ``fh`` read whole, a text stream encoded as UTF-8, in blocks that end at
    a line end (``_block_points``): beside the bytes, only the numbers and a block are held."""
    fold = _Fold(selection)
    data = fh.read()
    data = (data.encode("utf-8") if isinstance(data, str) else data).removeprefix(codecs.BOM_UTF8)
    # two numbers a line, and a line that holds them has three bytes and a line end at least
    values = np.empty(2 * min(data.count(b"\n") + data.count(b"\r") + 1, (len(data) + 1) // 4))
    start = filled = 0
    while start < len(data):
        cut = _LINE_END.search(data, start + _POINT_BLOCK_BYTES)
        end = cut.end() if cut else len(data)
        try:
            numbers = _block_points(data[start:end], fold.skipped)
        except UnicodeDecodeError as exc:       # placed in the file's data, not the block
            exc.object, exc.start, exc.end = data, start + exc.start, start + exc.end
            raise
        values[filled:filled + len(numbers)] = numbers
        start, filled = end, filled + len(numbers)
    del data
    xy = values[:filled].reshape(-1, 2)
    ok = _in_range(xy)
    fold.skipped["out_of_range"] = int(len(ok) - ok.sum())
    xy = xy[ok]
    log.info("%s: %d points kept, skipped %s", source_path, len(xy), fold.skipped)
    if len(xy) >= 2:
        name = os.path.splitext(os.path.basename(source_path))[0] or "trajectory"
        lengths = _path_lengths_m(xy, np.array([0, len(xy)])) if fold.by_length else None
        fold.add(xy[-1:], fold.pick(np.array([len(xy)]), lengths, [name], [None], lambda i: xy))
    return fold.dataset(source_path)


def parse_dataset(source: str | os.PathLike | IO[str], schema: str,
                  selection: tuple[str, str | None] | None = None) -> Dataset:
    """Parse ``source`` (a path, a ``str`` or path-like, or a text stream) under ``schema``.

    ``selection`` is a ``(criterion, trajectory_id)`` pair naming the one
    trip to keep whole, as ``Dataset.selected``; the id is read only by
    ``by_id``. A leading byte-order mark is not part of the data: the codec a
    Kaggle file is opened in, ``utf-8-sig``, drops it, and a parser any other's.

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
    source = os.fspath(source) if isinstance(source, os.PathLike) else source
    limit = csv.field_size_limit(_MAX_FIELD_CHARS)
    try:
        if not isinstance(source, str):
            return parser(source, getattr(source, "name", "<stream>"), selection)
        if parser is _parse_point_list:
            with open(source, "rb") as fh:
                return _parse_point_list(fh, source, selection)
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return _parse_kaggle(fh, source, selection, owned=True)
    except UnicodeError as exc:     # a stream's lone surrogate, too, which UTF-8 cannot encode
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

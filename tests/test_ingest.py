import collections
import contextlib
import csv
import io
import json
import logging
import os
import pickle
import random
import re
import signal
import sys
import tempfile
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (backtracking_walk, endpoints, iter_points, point_list_round_trip,
                     points, to_point_list, track, write_point_list)
from oracles import (reference_parse_kaggle, reference_path_length_m,
                     reference_select_trajectory)
from trajstory import ingest
from trajstory.cli import main
from trajstory.errors import ConfigurationError, NotFoundError, ParseError
from trajstory.geo import GeoPoint
from trajstory.ingest import KAGGLE_COLUMNS, SKIP_REASONS, parse_dataset, trajectory_digest
from trajstory.synth import SyntheticSpec, generate_dataset, write_kaggle_csv

HEADER = ["TRIP_ID", "CALL_TYPE", "ORIGIN_CALL", "ORIGIN_STAND", "TAXI_ID",
          "TIMESTAMP", "DAY_TYPE", "MISSING_DATA", "POLYLINE"]


def kaggle_csv(rows):
    """Rows are (trip_id, timestamp, missing, polyline_text) tuples."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    for trip_id, ts, missing, poly in rows:
        writer.writerow([trip_id, "A", "", "", "20000542", ts, "A", missing, poly])
    buf.seek(0)
    return buf


GOOD_POLY = "[[-8.61,41.14],[-8.62,41.15],[-8.63,41.16]]"
# keep the trip with the most points, whole, as ``Dataset.selected``
LONGEST = ("longest_by_points", None)


def kaggle_rows(trips):
    """Kaggle rows for ``kaggle_csv`` that carry each trip's id, start time and points."""
    return [(t.id, "" if t.start_time is None else str(t.start_time), "False",
             json.dumps(t.coords.tolist())) for t in trips]


def select(trips, criterion, trajectory_id=None):
    """The trip a parse of ``trips``, written as a Kaggle file, selects."""
    return parse_dataset(kaggle_csv(kaggle_rows(trips)), "kaggle_porto",
                         (criterion, trajectory_id)).selected

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="decode workers are forked")


@contextlib.contextmanager
def deadline(seconds=60):
    """Fail the test, rather than stall the suite, if the body hangs.

    pytest.fail raises an exception no ``except Exception`` in the program
    can catch, so the CLI cannot turn it into an exit code.
    """
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def logged(name):
    """The messages logger ``name`` logs at INFO or above in the body, as a list."""
    lines = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger(name)
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestKaggleParsing:
    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dataset(io.StringIO(""), "tsv")

    def test_missing_polyline_column(self):
        buf = io.StringIO("TRIP_ID,TIMESTAMP\n1,1372636858\n")
        with pytest.raises(ParseError):
            parse_dataset(buf, "kaggle_porto")

    def test_happy_path(self):
        ds = parse_dataset(kaggle_csv([("t1", "1372636858", "False", GOOD_POLY)]),
                           "kaggle_porto", LONGEST)
        assert len(ds) == 1
        assert ds.endpoints.tolist() == [[-8.63, 41.16]]
        traj = ds.selected
        assert traj.id == "t1"
        assert traj.start_time == 1372636858
        assert points(traj)[0] == GeoPoint(-8.61, 41.14)
        assert points(traj)[-1] == GeoPoint(-8.63, 41.16)
        assert ds.skipped_rows == 0

    def test_missing_data_flag_skips_row_case_insensitively(self):
        ds = parse_dataset(kaggle_csv([
            ("t1", "1", "True", GOOD_POLY),
            ("t2", "2", "TRUE", GOOD_POLY),
            ("t3", "3", "False", GOOD_POLY),
        ]), "kaggle_porto", LONGEST)
        assert (len(ds), ds.selected.id) == (1, "t3")
        assert ds.skipped_rows == 2

    @pytest.mark.parametrize("poly", [
        "[[-8.61,41.14],[",            # truncated JSON
        "[[-8.61,41.14]]",             # one point is not a path
        "[]",                          # empty
        "not json",
        "{\"lon\": 1}",                # wrong shape
        "[[-8.61,95.0],[-8.62,41.15]]",  # latitude out of range
        "[[-8.61],[-8.62,41.15]]",     # pair arity
    ])
    def test_unusable_polylines_are_counted_not_raised(self, poly):
        ds = parse_dataset(kaggle_csv([("bad", "1", "False", poly),
                                       ("ok", "2", "False", GOOD_POLY)]),
                           "kaggle_porto", LONGEST)
        assert (len(ds), ds.selected.id) == (1, "ok")
        assert ds.skipped_rows == 1

    def test_row_count_conservation(self):
        rows = [("a", "1", "False", GOOD_POLY),
                ("b", "2", "True", GOOD_POLY),
                ("c", "3", "False", "oops"),
                ("d", "4", "False", GOOD_POLY)]
        ds = parse_dataset(kaggle_csv(rows), "kaggle_porto")
        assert len(ds) + ds.skipped_rows == len(rows)

    def test_blank_trip_id_gets_row_fallback(self):
        ds = parse_dataset(kaggle_csv([("", "1", "False", GOOD_POLY)]),
                           "kaggle_porto", LONGEST)
        assert ds.selected.id.startswith("row")

    def test_unparseable_timestamp_becomes_none(self):
        ds = parse_dataset(kaggle_csv([("t1", "later", "False", GOOD_POLY)]),
                           "kaggle_porto", LONGEST)
        assert ds.selected.start_time is None

    @pytest.mark.parametrize("from_path", [True, False])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, from_path):
        text = "\ufeff" + kaggle_csv([("t1", "1", "False", GOOD_POLY)]).getvalue()
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ds = parse_dataset(str(path) if from_path else io.StringIO(text, newline=""),
                           "kaggle_porto", LONGEST)
        assert (len(ds), ds.selected.id) == (1, "t1")


class TestPointListParsing:
    def test_header_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "walk.txt"
        path.write_text("lon,lat\n-8.61,41.14\n\n-8.62,41.15\n-8.63,41.16\n")
        ds = parse_dataset(str(path), "point_list", LONGEST)
        assert len(ds) == 1
        traj = ds.selected
        assert traj.id == "walk"
        assert len(traj.coords) == 3
        assert ds.skipped_rows == 1  # the header line

    @pytest.mark.parametrize("from_path", [True, False])
    def test_byte_order_mark_is_not_part_of_the_first_point(self, tmp_path, from_path):
        text = "\ufeff-8.61,41.14\n-8.62,41.15\n"
        path = tmp_path / "walk.txt"
        path.write_text(text, encoding="utf-8")
        ds = parse_dataset(str(path) if from_path else io.StringIO(text), "point_list",
                           LONGEST)
        assert ds.selected.coords.tolist() == [[-8.61, 41.14], [-8.62, 41.15]]
        assert ds.skipped_rows == 0

    def test_single_usable_point_yields_no_trajectory(self):
        ds = parse_dataset(io.StringIO("-8.61,41.14\n"), "point_list", LONGEST)
        assert len(ds) == 0 and ds.selected is None

    def test_malformed_lines_counted(self):
        ds = parse_dataset(io.StringIO("-8.61,41.14\nxyz\n-8.62;41.15\n-8.63,41.16\n"),
                           "point_list", LONGEST)
        assert ds.skipped_rows == 2
        assert len(ds.selected.coords) == 2

    @given(vertices=st.lists(
        st.builds(GeoPoint,
                  st.floats(-8.75, -8.45, allow_nan=False),
                  st.floats(41.0, 41.3, allow_nan=False)),
        min_size=2, max_size=20))
    def test_serialization_round_trips_exactly(self, vertices):
        traj = track("t", vertices)
        back = point_list_round_trip(traj)
        assert [(p.lon, p.lat) for p in points(back)] == \
               [(p.lon, p.lat) for p in vertices]

    def test_write_then_parse_from_disk(self, tmp_path):
        traj = track("t", [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15)])
        path = tmp_path / "t.txt"
        write_point_list(traj, str(path))
        ds = parse_dataset(str(path), "point_list")
        assert ds.endpoints.tolist() == [[-8.62, 41.15]]


# Fields of a point_list line: plain numbers (long digit strings too, so
# rounding shows) and the forms the one-pass read must leave to the loop.
plain_numbers = st.builds("{}{}{}".format, st.sampled_from(["", "-"]),
                          st.text("0123456789", min_size=1, max_size=3),
                          st.just("") | st.text("0123456789", max_size=25).map(".".__add__))
odd_fields = st.sampled_from(["", " 1.5", "+1.5", "1_0", "1e5", "2E-3", "nan", "inf", "-",
                              ".", "-.", "1.2.3", "1-2", "--1", "-0", ".5", "5.", "lon", "lat"])


@st.composite
def point_list_texts(draw):
    """(text, plain): point_list text in the plain form, or with odd fields,
    line ends, blank lines, a header, a BOM or no final newline mixed in."""
    lines = draw(st.lists(st.tuples(plain_numbers, plain_numbers).map(",".join), max_size=30))
    plain = draw(st.booleans())
    if not plain:
        for _ in range(draw(st.integers(1, 4))):
            odd = draw(st.sampled_from(["field", "fields", "one and three", "blank", "header"]))
            numbers = st.lists(plain_numbers, min_size=4, max_size=4).map(
                lambda n: [n[0], ",".join(n[1:])])     # as many numbers as two pairs
            new = {"field": lambda: [",".join(draw(st.permutations(
                       [draw(odd_fields), draw(plain_numbers)])))],
                   "fields": lambda: [",".join(draw(st.lists(plain_numbers | odd_fields,
                                                             max_size=3)))],
                   "one and three": lambda: draw(numbers),
                   "blank": lambda: [draw(st.sampled_from(["", " ", "\t"]))],
                   "header": lambda: ["lon,lat"]}[odd]()
            for line in new:
                lines.insert(draw(st.integers(0, len(lines))), line)
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines)
    if lines and (plain or draw(st.booleans())):
        text += end
    if not plain and draw(st.booleans()):
        text = "\ufeff" + text
    return text, plain


def walk_path(tmp_path_factory):
    """One file that every example of a property overwrites."""
    folder = tmp_path_factory.getbasetemp() / "point_list"
    folder.mkdir(exist_ok=True)
    return folder / "walk.txt"


def same_dataset(a, b) -> bool:
    """Equal down to coordinate bits, skips by reason and the selected trip."""
    if (a.selected is None) != (b.selected is None):
        return False
    if a.selected is not None and (a.selected.id != b.selected.id or
                                   a.selected.coords.tobytes() != b.selected.coords.tobytes()):
        return False
    return (a.endpoints.tobytes() == b.endpoints.tobytes()
            and a.skipped_by_reason == b.skipped_by_reason)


class TestBulkPointList:
    """A point_list file is read in one pass when every line is two plain
    numbers, and gives what the line-by-line loop gives."""

    @settings(max_examples=300, deadline=None)
    @given(case=point_list_texts(), selection=st.sampled_from([None, LONGEST,
                                                               ("longest_by_length", None)]))
    def test_same_dataset_as_the_loop(self, tmp_path_factory, case, selection):
        text, plain = case
        path = walk_path(tmp_path_factory)
        path.write_bytes(text.encode("utf-8"))
        assert (ingest._plain_points(text.removeprefix("\ufeff")) is not None) >= plain
        bulk = parse_dataset(str(path), "point_list", selection)
        with open(path, encoding="utf-8", newline="") as fh:   # a stream: the loop
            loop = parse_dataset(fh, "point_list", selection)
        assert same_dataset(bulk, loop)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(plain_numbers, plain_numbers).map(",".join), max_size=8),
           extra=st.lists(plain_numbers, min_size=4, max_size=4),
           at=st.tuples(st.integers(0, 8), st.integers(0, 8)))
    def test_a_line_of_one_number_and_one_of_three_go_to_the_loop(self, tmp_path_factory,
                                                                  pairs, extra, at):
        # as many numbers as whole pairs, so only the per-line count tells
        lines = list(pairs)
        lines.insert(at[0] % (len(lines) + 1), extra[0])
        lines.insert(at[1] % (len(lines) + 1), ",".join(extra[1:]))
        text = "\n".join(lines) + "\n"
        assert ingest._plain_points(text) is None
        path = walk_path(tmp_path_factory)
        path.write_text(text, encoding="utf-8")
        ds = parse_dataset(str(path), "point_list", LONGEST)
        assert ds.skipped_by_reason["bad_json"] == 2

    def test_plain_text_is_read_in_one_pass(self):
        values = ingest._plain_points("-8.61,41.14\n-8.62,41.15")
        assert values.tolist() == [-8.61, 41.14, -8.62, 41.15]

    @pytest.mark.parametrize("text", ["-8.61,41.14\n\n-8.62,41.15\n", "-8.61,41.14\r\n",
                                      "-8.61,\n41.14,1\n", "1,2,\n", ",1\n", "1.2.3,4\n",
                                      "-,1\n", "1,2\n3\n4,5,6\n", "lon,lat\n1,2\n"])
    def test_other_text_goes_to_the_loop(self, text):
        assert ingest._plain_points(text) is None

    @pytest.mark.parametrize("warn", [True, False])
    def test_a_short_read_sends_the_text_to_the_loop(self, monkeypatch, warn):
        # numpy before 2 warns and returns what it read; later ones raise
        def fromstring(data, sep):
            if warn:
                warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([1.0, 2.0])
        monkeypatch.setattr(ingest.np, "fromstring", fromstring)
        assert ingest._plain_points("1,2\n3,4\n") is None


class TestSelection:
    @staticmethod
    def trips():
        short_far = track("b", [GeoPoint(-8.60, 41.10), GeoPoint(-8.60, 41.20)])
        long_near = track("a", [GeoPoint(-8.61, 41.14), GeoPoint(-8.611, 41.141),
                                GeoPoint(-8.612, 41.142)])
        return [short_far, long_near]

    def test_unknown_criterion(self):
        with pytest.raises(ConfigurationError):
            select(self.trips(), "shortest")

    def test_empty_dataset(self):
        assert select([], "longest_by_points") is None

    def test_longest_by_points_vs_length_disagree(self):
        assert select(self.trips(), "longest_by_points").id == "a"
        assert select(self.trips(), "longest_by_length").id == "b"

    def test_tie_breaks_to_lowest_id(self):
        p = [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15)]
        assert select([track("z", p), track("a", p)], "longest_by_points").id == "a"

    def test_length_tie_breaks_to_lowest_id(self):
        p = [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15), GeoPoint(-8.60, 41.16)]
        trips = [track("m", p[:2]), track("z", p), track("a", p)]
        assert select(trips, "longest_by_length").id == "a"
        # 128 hops, the file's last trip: a trip's length must not depend on
        # where it sits (summing a trailing 0.0 hop can move the last bit)
        walk = backtracking_walk(random.Random(0), steps=128)
        assert select([track("b", walk), track("a", walk)], "longest_by_length").id == "a"

    @given(trips=st.lists(st.lists(st.builds(GeoPoint, st.floats(-8.75, -8.45),
                                             st.floats(41.0, 41.3)),
                                   min_size=2, max_size=8), min_size=1, max_size=12))
    def test_longest_by_length_matches_the_per_point_lengths(self, trips):
        trips = [track(f"t{i:02d}", p) for i, p in enumerate(trips)]
        lengths = [reference_path_length_m(t) for t in trips]
        chosen = select(trips, "longest_by_length")
        # numpy's trigonometry and summation order may move the last bits
        assert lengths[int(chosen.id[1:])] >= max(lengths) * (1 - 1e-12)
        want = trips[int(chosen.id[1:])]
        assert (chosen.id, chosen.start_time) == (want.id, want.start_time)
        assert np.array_equal(chosen.coords, want.coords)

    def test_selected_trip_is_a_read_only_copy(self):
        chosen = select(self.trips(), "longest_by_points")
        assert chosen.coords.tolist() == [[-8.61, 41.14], [-8.611, 41.141], [-8.612, 41.142]]
        assert chosen.coords.base is None       # it keeps no decoded block alive
        with pytest.raises(ValueError):
            chosen.coords[0, 0] = 0.0

    def test_by_id(self):
        assert select(self.trips(), "by_id", "b").id == "b"
        assert select(self.trips(), "by_id", "nope") is None
        with pytest.raises(ConfigurationError):
            select(self.trips(), "by_id")


class TestDigest:
    def test_contents_and_determinism(self):
        traj = track("t9", [GeoPoint(-8.61, 41.14), GeoPoint(-8.63, 41.16)],
                     start_time=1372636858)
        digest = trajectory_digest(traj)
        assert digest == trajectory_digest(traj)
        assert "trajectory id: t9" in digest
        assert "start time (unix): 1372636858" in digest
        assert "points: 2" in digest
        assert "start: (-8.6100, 41.1400)" in digest
        assert "end: (-8.6300, 41.1600)" in digest
        assert "path length:" in digest

    def test_no_start_time_line_without_timestamp(self):
        traj = track("t", [GeoPoint(-8.61, 41.14), GeoPoint(-8.63, 41.16)])
        assert "start time" not in trajectory_digest(traj)

    @staticmethod
    def length_line(traj):
        (line,) = [x for x in trajectory_digest(traj).splitlines()
                   if x.startswith("path length:")]
        return line

    def test_path_length_matches_the_scalar_reference_on_a_long_walk(self):
        traj = track("walk", backtracking_walk(random.Random(20261018)))
        assert len(traj.coords) == 3001
        assert self.length_line(traj) == f"path length: {reference_path_length_m(traj):.0f} m"

    def test_path_length_matches_the_scalar_reference_on_synthetic_trips(self):
        for traj in generate_dataset(SyntheticSpec(seed=31, n_trajectories=500,
                                                   max_points=200)):
            assert self.length_line(traj) == \
                f"path length: {reference_path_length_m(traj):.0f} m"


class TestSynthCsvRoundTrip:
    def test_generated_file_parses_back_identically(self, tmp_path):
        trips = generate_dataset(SyntheticSpec(seed=5, n_trajectories=20))
        path = tmp_path / "synt.csv"
        total = write_kaggle_csv(trips, path, bad_rows=7, seed=2)
        assert total == 27
        back = parse_dataset(str(path), "kaggle_porto")
        assert len(back) == 20
        assert back.skipped_rows == 7
        assert back.endpoints.tobytes() == endpoints(trips).tobytes()
        for traj in trips:
            got = parse_dataset(str(path), "kaggle_porto", ("by_id", traj.id)).selected
            assert (got.id, got.start_time) == (traj.id, traj.start_time)
            assert got.coords.tobytes() == traj.coords.tobytes()

    def test_iter_points_covers_every_vertex(self):
        trips = generate_dataset(SyntheticSpec(seed=5, n_trajectories=4))
        assert len(list(iter_points(trips))) == sum(len(t.coords) for t in trips)


def test_to_point_list_uses_full_precision():
    p = GeoPoint(-8.612345678901234, 41.14)
    traj = track("t", [p])
    assert f"{p.lon!r},{p.lat!r}" in to_point_list(traj)
    assert float(to_point_list(traj).split(",")[0]) == p.lon


SKIP_CASES = [
    ("True", GOOD_POLY, "missing_data"),
    ("False", "[[-8.61,41.14],[", "bad_json"),
    ("False", "not json", "bad_json"),
    ("False", "{\"lon\": 1}", "bad_json"),
    ("False", "[[-8.61],[-8.62,41.15]]", "bad_json"),
    ("False", "[[-8.61,41.14,0],[-8.62,41.15,0]]", "bad_json"),
    ("False", "[[-8.61,\"north\"],[-8.62,41.15]]", "bad_json"),
    ("False", "[[-8.61,[41.14]],[-8.62,41.15]]", "bad_json"),
    # integers no float can hold, and nesting past the recursion limit
    ("False", "[[1" + "0" * 400 + ",41.14],[-8.62,41.15]]", "bad_json"),
    ("False", "[[1" + "0" * 5000 + ",41.14],[-8.62,41.15]]", "bad_json"),
    ("False", "[" * 100_000 + "]" * 100_000, "bad_json"),
    ("False", "[]", "too_short"),
    ("False", "[[-8.61,41.14]]", "too_short"),
    ("False", "[[-8.61,95.0],[-8.62,41.15]]", "out_of_range"),
    ("False", "[[-8.61,NaN],[-8.62,41.15]]", "out_of_range"),
    ("False", "[[-8.61,null],[-8.62,41.15]]", "out_of_range"),
    ("False", "[[-Infinity,41.14],[-8.62,41.15]]", "out_of_range"),
]


class TestSkipReasons:
    @pytest.mark.parametrize("missing,poly,reason", SKIP_CASES)
    def test_each_unusable_row_counts_under_one_reason(self, missing, poly, reason):
        ds = parse_dataset(kaggle_csv([("bad", "1", missing, poly),
                                       ("ok", "2", "False", GOOD_POLY)]),
                           "kaggle_porto", LONGEST)
        assert (len(ds), ds.selected.id) == (1, "ok")
        assert ds.skipped_by_reason == {**dict.fromkeys(SKIP_REASONS, 0), reason: 1}

    def test_planted_bad_rows_sum_to_skipped_rows(self, tmp_path):
        trips = generate_dataset(SyntheticSpec(seed=5, n_trajectories=20))
        path = tmp_path / "synt.csv"
        write_kaggle_csv(trips, path, bad_rows=8, seed=2)   # two of each of four shapes
        back = parse_dataset(str(path), "kaggle_porto")
        assert back.skipped_by_reason == {"missing_data": 2, "bad_json": 2,
                                          "too_short": 4, "out_of_range": 0}
        assert sum(back.skipped_by_reason.values()) == back.skipped_rows == 8
        assert len(back) + back.skipped_rows == 28

    def test_point_list_lines(self):
        ds = parse_dataset(io.StringIO("lon,lat\n-8.61,41.14\n200,41.1\nnan,41.1\n"
                                       "-8.62,41.15\n"), "point_list", LONGEST)
        assert ds.skipped_by_reason == {"missing_data": 0, "bad_json": 1,
                                        "too_short": 0, "out_of_range": 2}
        assert ds.selected.coords.tolist() == [[-8.61, 41.14], [-8.62, 41.15]]

    def test_range_check_spans_block_boundaries(self, monkeypatch):
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 100)
        # row i's trip ends at latitude 41 + i
        rows = [(f"t{i}", str(i), "False",
                 f"[[-8.61,{95.0 if i % 3 == 1 else 41.14}],[-8.62,41.15],[-8.63,{41 + i}]]")
                for i in range(7)]
        ds = parse_dataset(kaggle_csv(rows), "kaggle_porto")
        assert ds.endpoints.tolist() == [[-8.63, 41 + i] for i in (0, 2, 3, 5, 6)]
        assert ds.skipped_by_reason["out_of_range"] == 2
        t5 = parse_dataset(kaggle_csv(rows), "kaggle_porto", ("by_id", "t5")).selected
        assert (t5.start_time, len(t5.coords)) == (5, 3)


# -- the columnar parser against the per-point reference ----------------------

in_range_pair = st.tuples(
    st.one_of(st.floats(-180, 180), st.sampled_from([-0.0, -180.0, 180.0])),
    st.one_of(st.floats(-90, 90), st.sampled_from([-0.0, -90.0, 90.0]))).map(list)
coordinate = st.one_of(
    st.floats(-180, 180),
    st.floats(),                                # NaN, infinities, out of range
    st.integers(-400, 400),
    st.booleans(),
    st.none(),
    st.floats(-200, 200).map(repr),             # numeric strings
    st.sampled_from([" 1.5 ", "1_0", "nan", "-inf", "0x1", "", "１２"]),
    st.text(max_size=3),
    st.lists(st.floats(-10, 10), max_size=2),   # nested
)
value_pair = st.lists(coordinate, min_size=2, max_size=2)
any_pair = st.lists(coordinate, max_size=3)     # ragged, nested or malformed
polyline_value = st.one_of(
    st.lists(in_range_pair, min_size=2, max_size=6),
    st.lists(in_range_pair, max_size=1),
    st.lists(st.one_of(in_range_pair, value_pair), min_size=2, max_size=4),
    st.lists(st.one_of(in_range_pair, any_pair), max_size=4),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
)
polyline_json = polyline_value.map(json.dumps)
polyline_text = st.one_of(
    polyline_json,
    polyline_json,
    polyline_json.map(lambda t: t.replace(",", ", ").replace("[", " [ ")),
    polyline_json.flatmap(lambda t: st.integers(0, len(t)).map(lambda n: t[:n])),
    st.sampled_from(["[[-8.61,41.14],[", "[[-8.61,41.14],[-8.62,41.15]]",
                     "[[-8.61,41.14]]", "[]"]),     # the four bad-row shapes of synth
    st.text(max_size=8),
)
column_values = {
    "TRIP_ID": st.one_of(st.sampled_from(["t1", "t2", "", " t3 "]), st.text(max_size=3)),
    "TIMESTAMP": st.one_of(st.integers().map(str), st.sampled_from(["", " 42 ", "later"]),
                           st.text(max_size=3)),
    "MISSING_DATA": st.sampled_from(["False", "True", "TRUE", " true ", "", "no"]),
    "POLYLINE": polyline_text,
}


@st.composite
def kaggle_files(draw):
    """Kaggle-schema CSV text: shuffled, missing and repeated columns; short and blank rows."""
    header = draw(st.permutations(["POLYLINE"] + draw(
        st.lists(st.sampled_from(KAGGLE_COLUMNS), max_size=len(KAGGLE_COLUMNS) + 2))))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(column_values.get(c, st.just("x"))) for c in header]
        short = draw(st.integers(0, 4)) == 0
        writer.writerow(row[:draw(st.integers(0, len(row)))] if short else row)
    return buf.getvalue()


class TestAgainstReferenceParser:
    @settings(max_examples=300, deadline=None)
    @given(text=kaggle_files())
    # two trips each half a meridian long: their lengths tie on paper, and the
    # pick follows the bits of the vectorized lengths, not of the scalar ones
    @example(text='TRIP_ID,POLYLINE\r\n'
                  't2,"[[0.0, 0.0], [0.0, -90.0], [0.0, 0.0]]"\r\n'
                  't1,"[[0.0, 90.0], [0.0, 2.0], [0.0, -90.0]]"\r\n')
    def test_same_trips_bits_and_skips(self, text):
        self.check(text)

    # 1-byte chunks make each body line a chunk, so every example of two
    # lines or more goes to two forked workers; each such parse forks, so
    # fewer examples. Most such parses must be read by the workers, not
    # restarted in-process.
    @needs_fork
    def test_same_through_the_decode_workers(self):
        took = collections.Counter()

        @settings(max_examples=100, deadline=None)
        @given(text=kaggle_files())
        # ties across chunks go to the lowest id, then the earliest trip; a
        # later trip of an id does not replace the first under by_id
        @example(text='TRIP_ID,TIMESTAMP,POLYLINE\r\n'
                      f't4,1,"{SHAPES[1]}"\r\nt3,2,"{SHAPES[2]}"\r\n'
                      f't2,3,"{SHAPES[0]}"\r\nt3,4,"{SHAPES[1]}"\r\n')
        # a blank-id trip, row3, alone the longest: the fold names a worker's pick
        @example(text='TRIP_ID,TIMESTAMP,POLYLINE\r\n'
                      f't1,1,"{SHAPES[0]}"\r\n,2,"{SHAPES[1]}"\r\nt2,3,"{SHAPES[0]}"\r\n')
        def same_through_the_workers(text):
            with deadline(), pytest.MonkeyPatch.context() as mp, \
                    tempfile.TemporaryDirectory() as tmp, logged("trajstory.ingest") as lines:
                mp.setattr("trajstory.ingest._CHUNK_BYTES", 1)
                forks = decode_workers(mp, 2)
                path = os.path.join(tmp, "trips.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                self.check(text, path)
            assert forks.reaped()
            # a parse that forks logs "2 decode workers" unless it restarts
            read = sum(", 2 decode workers, " in line for line in lines)
            restarted = sum(line.endswith("; parsing in-process") for line in lines)
            assert read + restarted == len(forks)
            took["workers"] += read
            took["in-process"] += restarted

        same_through_the_workers()
        assert took["workers"] > took["in-process"], took

    @staticmethod
    def check(text, path=None):
        """Endpoints and skips; then the bits of the first trip of each id, and of
        each longest_* pick, one selecting parse each, of ``path`` if given."""
        def source():
            return path or io.StringIO(text, newline="")
        want, want_skipped = reference_parse_kaggle(io.StringIO(text, newline=""))
        ds = parse_dataset(source(), "kaggle_porto")
        assert len(ds) == len(want)
        assert ds.endpoints.dtype == np.float64
        assert ds.endpoints.tobytes() == endpoints(want).tobytes()
        assert ds.skipped_rows == want_skipped
        assert sum(ds.skipped_by_reason.values()) == ds.skipped_rows
        selections = [("by_id", trip_id) for trip_id in dict.fromkeys(t.id for t in want)]
        if want:
            selections += [("longest_by_points", None), ("longest_by_length", None)]
        for selection in selections:
            got = parse_dataset(source(), "kaggle_porto", selection).selected
            pick = reference_select_trajectory(want, *selection)
            assert (got.id, got.start_time) == (pick.id, pick.start_time), selection
            assert got.coords.tobytes() == pick.coords.tobytes(), selection


# -- the screen: a certified row parses as the exact path decodes it --------------

def screen_row(lon="-8.62", lat="41.15", first_lat="41.14", sep=", "):
    """A four-point POLYLINE, the longest trip of ``screen_file``, with the given
    final pair and first latitude."""
    pairs = [("-8.61", first_lat), ("-8.615", "41.145"), ("-8.618", "41.148"), (lon, lat)]
    return "[" + sep.join(f"[{x}{sep}{y}]" for x, y in pairs) + "]"


# (POLYLINE, whether the screen certifies it): the JSON number grammar, the
# WGS84 edges, the separators and the shape
SCREEN_CASES = [
    (screen_row(), True),
    (screen_row(sep=","), True),
    ("[[-8.61, 41.14],[-8.62,41.15]]", True),
    ("[[-8.61,41.14]]", False),                         # one pair: too_short
    ("[]", False),
    (screen_row(lon="+1.5"), False),
    (screen_row(lon=".5"), False),
    (screen_row(lon="5."), False),
    (screen_row(lon="01.5"), False),
    (screen_row(lat="05.5"), False),
    (screen_row(lat="-0"), False),                      # JSON: the integer 0, so +0.0
    (screen_row(lat="-0.0"), True),
    (screen_row(lon="-.5"), False),
    (screen_row(lon="-8"), False),
    (screen_row(lon="1e5"), False),
    (screen_row(lat="1E+05"), False),
    (screen_row(lat="1e400"), False),
    (screen_row(lat="NaN"), False),
    (screen_row(lon="Infinity"), False),
    (screen_row(lon="-Infinity"), False),
    (screen_row(lon='"-8.62"'), False),
    (screen_row(lat="true"), False),
    (screen_row(lon="-８.６２"), False),    # fullwidth digits
    (screen_row(lat="٤١.١٥"), False),   # Arabic-Indic digits
    (screen_row().replace(", ", ",\t", 1), False),
    (screen_row().replace(", ", ",\n", 1), False),
    (screen_row().replace(", ", ",  ", 1), False),
    (screen_row().replace("[[", "[ [", 1), False),
    (" " + screen_row(), False),
    (screen_row() + " ", False),
    (screen_row(lon="0.5"), True),
    (screen_row(lon="99.5"), True),
    (screen_row(lon="100.5"), True),
    (screen_row(lon="179.99"), True),
    (screen_row(lon="-179.99"), True),
    (screen_row(lon="180"), False),
    (screen_row(lon="180.0"), False),
    (screen_row(lon="180.0000001"), False),
    (screen_row(lon="-180.0"), False),
    (screen_row(lon="-180"), False),
    (screen_row(lat="89.99"), True),
    (screen_row(lat="-89.99"), True),
    (screen_row(lat="90"), False),
    (screen_row(lat="90.0"), False),
    (screen_row(lat="90.0000001"), False),
    (screen_row(lat="-90.0"), False),
    (screen_row(first_lat="90.5"), False),
]
NO_SCREEN = re.compile(r"(?!)")         # certifies nothing: every row takes the exact path


def screen_file(polylines):
    """Kaggle text: each POLYLINE as trip c<i>, between three-point trips."""
    rows = [("g", "1", "False", GOOD_POLY)]
    for i, poly in enumerate(polylines):
        rows += [(f"c{i}", str(10 + i), "False", poly), (f"g{i}", "2", "False", GOOD_POLY)]
    return kaggle_csv(rows).getvalue()


def outcome(text, by_id, path=None):
    """Endpoint bytes, skips, and (id, start time, coordinate bytes) of each pick,
    parsing ``text`` from a stream, or written to ``path`` and parsed from there."""
    if path is not None:
        path.write_text(text, encoding="utf-8", newline="")

    def parse(selection=None):
        source = io.StringIO(text, newline="") if path is None else str(path)
        return parse_dataset(source, "kaggle_porto", selection)
    picks = []
    for selection in [("longest_by_points", None), ("longest_by_length", None)] + [
            ("by_id", trip_id) for trip_id in by_id]:
        t = parse(selection).selected
        picks.append(t and (t.id, t.start_time, t.coords.tobytes()))
    ds = parse()
    return ds.endpoints.tobytes(), ds.skipped_by_reason, picks


def certified(text):
    """Whether the block decode certifies ``text``, checked against its final point
    and point count from the exact path when it does; without a selection it
    gives the same final point and no point counts."""
    ends, n, _, _, _, screened = ingest._decode_block([text], "longest_by_points")
    unselected, no_counts = ingest._decode_block([text], None)[:2]
    assert no_counts is None and unselected.tobytes() == ends.tobytes()
    if screened:
        xy = ingest._decode_polyline(text)
        assert (n.tolist(), ends.tobytes()) == ([len(xy)], xy[-1].tobytes())
    return screened == 1


class TestScreen:
    @pytest.mark.parametrize("poly,screened", SCREEN_CASES)
    def test_a_row_parses_as_the_exact_path_decodes_it(self, poly, screened, monkeypatch):
        assert certified(poly) == screened
        text = screen_file([poly])
        got = outcome(text, ["c0"])
        monkeypatch.setattr("trajstory.ingest._CANON", NO_SCREEN)
        assert not certified(poly)
        assert got == outcome(text, ["c0"])

    @needs_fork
    def test_every_row_through_the_workers(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        text = screen_file([poly for poly, _ in SCREEN_CASES])
        ids = [f"c{i}" for i in range(len(SCREEN_CASES))]
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 512)
        calls = decode_workers(monkeypatch, 2)
        with deadline():
            got = outcome(text, ids, tmp_path / "screen.csv")
        assert calls == [2] * (len(ids) + 3) and calls.reaped()
        assert "cannot be read alone" not in caplog.text
        decode_workers(monkeypatch, 0)
        monkeypatch.setattr("trajstory.ingest._CANON", NO_SCREEN)
        assert got == outcome(text, ids)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_random_decimal_rows(self, data):
        """The screen certifies a row exactly when it has two pairs or more and
        every number is a plain JSON decimal lexically inside WGS84. Rows of
        random plain decimals, with at most one number a near miss in its sign,
        its integer part or its fraction."""
        def decimal(limit, signs, wholes, fractions):
            def spelled(parts):
                sign, whole, frac = parts
                plain = (sign != "+" and (whole == "0" or whole[0] != "0") and int(whole) < limit
                         and len(frac) > 1 and frac.isascii())
                return sign + whole + frac, plain
            return st.tuples(signs, wholes, fractions).map(spelled)

        def number(limit, odd):
            signs, wholes = st.sampled_from(["", "-"]), st.integers(0, limit - 1).map(str)
            fractions = st.text("0123456789", min_size=1, max_size=20).map(lambda f: "." + f)
            if not odd:
                return decimal(limit, signs, wholes, fractions)
            return st.one_of(
                decimal(limit, st.just("+"), wholes, fractions),
                decimal(limit, signs, st.one_of(st.integers(limit, 999).map(str),
                                                st.from_regex(r"0[0-9]{1,2}", fullmatch=True)),
                        fractions),
                decimal(limit, signs, wholes, st.one_of(
                    st.sampled_from(["", "."]),
                    st.text("٠١٢٣٤٥٦٧٨٩０１２３", min_size=1, max_size=3).map(lambda f: "." + f))))

        n = data.draw(st.integers(1, 5), label="pairs")
        odd = data.draw(st.one_of(st.none(), st.integers(0, 2 * n - 1)), label="odd number")
        values = [data.draw(number(90 if k % 2 else 180, k == odd)) for k in range(2 * n)]
        seps = st.sampled_from([",", ", "])
        poly = "[" + data.draw(seps).join(f"[{values[k][0]}{data.draw(seps)}{values[k + 1][0]}]"
                                          for k in range(0, 2 * n, 2)) + "]"
        assert certified(poly) == (n >= 2 and all(plain for _, plain in values)), poly


class TestScreenCoversTheCommonForms:
    """The exact decode sees only the rows that are not in the common forms."""

    @staticmethod
    def counted_parse(path, monkeypatch):
        seen, decode = [], ingest._decode_polyline

        def counting(text):
            seen.append(text)
            return decode(text)
        monkeypatch.setattr("trajstory.ingest._decode_polyline", counting)
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 16384)
        decode_workers(monkeypatch, 0)
        return parse_dataset(str(path), "kaggle_porto"), seen

    def test_synth_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trips.csv"
        write_kaggle_csv(generate_dataset(SyntheticSpec(seed=13, n_trajectories=300)),
                         path, bad_rows=16, seed=6)
        with open(path, encoding="utf-8", newline="") as fh:
            bad = [row["POLYLINE"] for row in csv.DictReader(fh)
                   if row["TRIP_ID"].startswith("bad") and row["MISSING_DATA"] != "True"]
        ds, seen = self.counted_parse(path, monkeypatch)
        assert (len(ds), len(bad)) == (300, 12)
        assert seen == bad

    def test_compact_kaggle_style_file(self, tmp_path, monkeypatch):
        trips = generate_dataset(SyntheticSpec(seed=14, n_trajectories=200))
        bad = ["[]", "[[-8.618643,41.141412]]", "[[-8.618643,41.141412],[",
               "[[-8.618643,95.0],[-8.618499,41.141376]]", "[[-8.618643,41.141412],null]"]
        rows = [(t.id, "1", "False", json.dumps(np.round(t.coords, 6).tolist(),
                                                separators=(",", ":"))) for t in trips]
        for i, poly in enumerate(bad):
            rows.insert(40 * i + 7, (f"bad{i}", "2", "False", poly))
        path = tmp_path / "compact.csv"
        path.write_text(kaggle_csv(rows).getvalue(), encoding="utf-8", newline="")
        assert rows[0][3].startswith("[[-8.")
        ds, seen = self.counted_parse(path, monkeypatch)
        assert (len(ds), ds.skipped_rows) == (200, 5)
        assert seen == bad

    def test_the_log_line_counts_both_sides(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "trips.csv"
        write_kaggle_csv(generate_dataset(SyntheticSpec(seed=13, n_trajectories=300)),
                         path, bad_rows=16, seed=6)
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        self.counted_parse(path, monkeypatch)
        assert ("316 rows in 20 chunks, 0 decode workers, 20 chunks read in bulk, 0 line by "
                "line, 300 certified by the screen, 12 decoded exactly, skipped") in caplog.text
        parse_dataset(str(path), "kaggle_porto", ("longest_by_length", None))
        assert "0 certified by the screen, 312 decoded exactly" in caplog.text


# -- the chunk-parallel parse ----------------------------------------------------

class Forks(list):
    """The worker count of each multi-chunk parse; ``pids``, the workers they forked."""

    def __init__(self):
        super().__init__()
        self.pids = []

    def reaped(self) -> bool:
        """Whether each parse forked its workers, and each of them has exited and
        been waited for. ``os.waitpid`` raises ChildProcessError for a pid that
        is no longer a child of this process; a worker still running, or exited
        but not waited for, still is one."""
        def waited(pid):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            return False
        return len(self.pids) == sum(self) and all(map(waited, self.pids))


_fork = os.fork


def decode_workers(monkeypatch, workers):
    """Make every multi-chunk parse use ``workers`` forked workers (0: in-process),
    whatever the machine's cores; returns the ``Forks`` each such parse appends to."""
    calls = Forks()

    def fork_workers():
        calls.append(workers)
        return workers

    def fork():
        pid = _fork()
        if pid:
            calls.pids.append(pid)
        return pid
    monkeypatch.setattr("trajstory.ingest._fork_workers", fork_workers)
    monkeypatch.setattr(os, "fork", fork)
    return calls


@needs_fork
class TestParallelDecode:
    @pytest.fixture(autouse=True)
    def _deadline(self):
        with deadline():
            yield

    @staticmethod
    def synth_csv(path):
        """A seeded synth file with bad rows, plus rows with no trip id and out of range."""
        ds = generate_dataset(SyntheticSpec(seed=11, n_trajectories=300))
        write_kaggle_csv(ds, path, bad_rows=40, seed=4)
        with open(path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for i in range(30):
                poly = "[[-8.61,95.0],[-8.62,41.15]]" if i % 3 else GOOD_POLY
                writer.writerow(["" if i % 2 else f"x{i}", "A", "", "", "1", str(i), "A",
                                 "False", poly])
        return path

    def test_workers_and_in_process_give_the_same_dataset(self, tmp_path, monkeypatch,
                                                          caplog):
        path = str(self.synth_csv(tmp_path / "trips.csv"))
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        # a blank trip id falls back to the number of the line its row ends
        # on, which a worker does not know: asking by_id for such an id (the
        # last good row's) restarts the parse in-process
        for trip_id, start_time, read in [("x24", 24, "in 6 chunks, 2 decode workers"),
                                          ("row369", 27, "read alone; parsing in-process")]:
            caplog.clear()
            forks = decode_workers(monkeypatch, 2)
            parallel = parse_dataset(path, "kaggle_porto", ("by_id", trip_id))
            assert read in caplog.text
            assert forks.reaped()
            decode_workers(monkeypatch, 0)
            serial = parse_dataset(path, "kaggle_porto", ("by_id", trip_id))
            assert len(parallel) == len(serial) == 310
            assert parallel.endpoints.tobytes() == serial.endpoints.tobytes()
            assert parallel.skipped_by_reason == serial.skipped_by_reason
            assert serial.skipped_by_reason == {"missing_data": 10, "bad_json": 10,
                                                "too_short": 20, "out_of_range": 20}
            for ds in (parallel, serial):
                assert (ds.selected.id, ds.selected.start_time) == (trip_id, start_time)
                assert ds.selected.coords.tolist() == json.loads(GOOD_POLY)

    def test_a_file_quoting_every_field_is_read_in_bulk(self, tmp_path, monkeypatch, caplog):
        """As the Kaggle export quotes every field, "" for an empty one."""
        path = self.synth_csv(tmp_path / "trips.csv")
        quote_all = tmp_path / "quote_all.csv"
        with open(path, encoding="utf-8", newline="") as src, \
                open(quote_all, "w", encoding="utf-8", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert quote_all.read_text(encoding="utf-8").count('""') > 600
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        got = []
        for source, workers in [(path, 0), (quote_all, 0), (quote_all, 2)]:
            forks = decode_workers(monkeypatch, workers)
            for selection in [None, ("by_id", "x24"), ("longest_by_length", None)]:
                caplog.clear()
                ds = parse_dataset(str(source), "kaggle_porto", selection)
                assert re.search(rf"in (\d+) chunks, {workers} decode workers, \1 chunks read "
                                 "in bulk, 0 line by line", caplog.text), caplog.text
                got.append((ds.endpoints.tobytes(), ds.skipped_by_reason,
                            ds.selected and (ds.selected.id, ds.selected.start_time,
                                             ds.selected.coords.tobytes())))
            assert forks.reaped()
        assert got[3:6] == got[6:] == got[:3]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_fifo_is_opened_once_and_parsed_in_process(self, tmp_path, monkeypatch):
        path = self.synth_csv(tmp_path / "trips.csv")
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        calls = decode_workers(monkeypatch, 2)
        want = parse_dataset(str(path), "kaggle_porto", LONGEST)
        fifo = tmp_path / "trips.fifo"
        os.mkfifo(fifo)
        opened = []

        def logged_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)
        monkeypatch.setattr(ingest, "open", logged_open, raising=False)
        # the writer's open waits for the parse's; a second open by the parse
        # can lose what the writer wrote, or wait forever for another writer
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        got = parse_dataset(str(fifo), "kaggle_porto", LONGEST)
        writer.join()
        assert opened == [str(fifo)]
        assert calls == [2]                     # the regular file's parse alone forks
        assert got.endpoints.tobytes() == want.endpoints.tobytes()
        assert got.skipped_by_reason == want.skipped_by_reason
        assert (got.selected.id, got.selected.coords.tobytes()) == (
            want.selected.id, want.selected.coords.tobytes())

    def test_one_block_or_one_core_forks_nothing(self, tmp_path, monkeypatch, caplog):
        path = str(self.synth_csv(tmp_path / "trips.csv"))
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        parse_dataset(path, "kaggle_porto")                 # 370 rows: one chunk
        assert "in 1 chunks, 0 decode workers, 1 chunks read in bulk, 0 line by line" \
            in caplog.text
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        parse_dataset(path, "kaggle_porto")
        assert "in 6 chunks, 0 decode workers, 6 chunks read in bulk, 0 line by line" \
            in caplog.text
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert ingest._fork_workers() == 2
        # a daemonic process, such as a multiprocessing.Pool worker, may not fork
        monkeypatch.setattr("multiprocessing.current_process",
                            lambda: types.SimpleNamespace(daemon=True))
        assert ingest._fork_workers() == 0
        # a process that never imported multiprocessing is no daemon of it
        monkeypatch.delitem(sys.modules, "multiprocessing")
        assert ingest._fork_workers() == 2
        monkeypatch.delattr(os, "fork")
        assert ingest._fork_workers() == 0

    @staticmethod
    def third_block_fault_csv(path, fault: bytes):
        """150 rows of 20 points; ``fault`` replaces row 120's POLYLINE."""
        poly = json.dumps([[-8.61 + i * 1e-4, 41.14 + i * 1e-4] for i in range(20)])
        lines = [",".join(KAGGLE_COLUMNS).encode()]
        for i in range(150):
            text = fault if i == 120 else b'"' + poly.encode() + b'"'
            lines.append(f"t{i},A,,,1,{i},A,False,".encode() + text)
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def run_both_ways(self, monkeypatch, capsys, path):
        """(exit code, stderr) of ``trajstory ingest`` with workers, then in-process.

        In three chunks: the fault is in the third."""
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", path.stat().st_size // 3)
        results = []
        for workers in (2, 0):
            calls = decode_workers(monkeypatch, workers)
            code = main(["ingest", str(path)])
            results.append((code, capsys.readouterr().err))
            assert calls == [workers]
            assert calls.reaped()
        return results

    def test_csv_error_in_the_third_block(self, tmp_path, monkeypatch, capsys):
        path = self.third_block_fault_csv(tmp_path / "long.csv", b'"' + b"[" * 2000 + b'"')
        monkeypatch.setattr("trajstory.ingest._MAX_FIELD_CHARS", 1000)
        parallel, serial = self.run_both_ways(monkeypatch, capsys, path)
        assert parallel == serial
        assert parallel[0] == 3
        assert "line 122: field larger than field limit (1000)" in parallel[1]

    def test_non_utf8_byte_in_the_third_block(self, tmp_path, monkeypatch, capsys):
        path = self.third_block_fault_csv(tmp_path / "latin1.csv", b"S\xe3o")
        assert path.stat().st_size > 3 * 8192           # past the first read of the text layer
        parallel, serial = self.run_both_ways(monkeypatch, capsys, path)
        assert parallel == serial
        assert parallel[0] == 3
        assert "not UTF-8" in parallel[1]

    # A worker dies on its first job, while its sibling still decodes ahead of
    # the reader, on the file's last chunk, once the reader has folded all
    # that its sibling sent, or after writing half its first answer.
    @pytest.mark.parametrize("dies_on", ["first job", "last chunk", "half an answer"])
    def test_a_worker_that_dies_is_a_parse_error(self, tmp_path, monkeypatch, capsys, dies_on):
        path = self.synth_csv(tmp_path / "trips.csv")
        last = "[[-8.6001,41.1001],[-8.6002,41.1002]]"
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write(f'last,A,,,1,0,A,False,"{last}"\n')
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        parent, decode, dump = os.getpid(), ingest._decode_block, pickle.dump

        def die_in_a_worker(texts, criterion):
            if os.getpid() != parent and (dies_on == "first job" or texts[-1] == last):
                os._exit(7)
            return decode(texts, criterion)

        def die_mid_answer(obj, file, *args):
            if os.getpid() != parent:
                data = pickle.dumps(obj, *args)
                file.write(data[:len(data) // 2])
                file.flush()
                os._exit(7)
            dump(obj, file, *args)
        if dies_on == "half an answer":
            monkeypatch.setattr(pickle, "dump", die_mid_answer)
        else:
            monkeypatch.setattr("trajstory.ingest._decode_block", die_in_a_worker)
        calls = decode_workers(monkeypatch, 2)
        code = main(["ingest", str(path)])
        assert code == 3
        assert "decoding worker stopped (exit code 7)" in capsys.readouterr().err
        assert calls.reaped()

    def test_an_error_in_a_worker_prints_its_traceback(self, tmp_path, monkeypatch, capfd):
        path = self.synth_csv(tmp_path / "trips.csv")
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        parent, decode = os.getpid(), ingest._decode_block

        def fail_in_a_worker(texts, criterion):
            if os.getpid() != parent:
                raise ValueError("not a decode")
            return decode(texts, criterion)
        monkeypatch.setattr("trajstory.ingest._decode_block", fail_in_a_worker)
        calls = decode_workers(monkeypatch, 2)
        assert main(["ingest", str(path)]) == 3
        err = capfd.readouterr().err
        assert "decoding worker stopped (exit code 1)" in err
        assert "Traceback (most recent call last):" in err and "ValueError: not a decode" in err
        assert calls.reaped()

    def test_an_interrupt_leaves_no_worker(self, tmp_path, monkeypatch):
        path = self.synth_csv(tmp_path / "trips.csv")
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 65536)
        parent, decode, add_chunk = os.getpid(), ingest._decode_block, ingest._Fold.add_chunk
        decoded = []                            # a worker counts its jobs in its own copy

        def stall_in_a_worker(texts, criterion):
            decoded.append(len(texts))
            if os.getpid() != parent and len(decoded) > 1:
                time.sleep(600)                 # still busy when the interrupt comes
            return decode(texts, criterion)

        def interrupt_at_the_second_chunk(fold, base, chunk):
            if base > 1:
                raise KeyboardInterrupt
            add_chunk(fold, base, chunk)
        monkeypatch.setattr("trajstory.ingest._decode_block", stall_in_a_worker)
        monkeypatch.setattr(ingest._Fold, "add_chunk", interrupt_at_the_second_chunk)
        calls = decode_workers(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            parse_dataset(str(path), "kaggle_porto")
        assert calls == [2] and calls.reaped()


# -- the bulk reader and the chunk cuts --------------------------------------

def csv_rows(text, columns):
    """What ``_read_rows`` gives of ``text`` with ``base`` 0, record by record from
    csv.reader; a record still open at the end of ``text`` is a csv.Error."""
    def cell(row, i):
        return row[i] if i is not None and i < len(row) else ""
    polyline, trip, timestamp, missing = columns
    texts, ids, times, flagged = [], [], [], 0
    lines = io.StringIO(text, newline="").readlines()     # as the file iterator splits them
    reader = csv.reader(lines + [None])
    while reader.line_num < len(lines):
        row = next(reader)
        if not row:
            continue
        if cell(row, missing).strip().lower() == "true":
            flagged += 1
            continue
        texts.append(cell(row, polyline))
        ids.append(cell(row, trip).strip() or f"row{reader.line_num}")
        ts = cell(row, timestamp).strip()
        try:
            times.append(int(ts) if ts else None)
        except ValueError:
            times.append(None)
    return texts, ids, times, reader.line_num, flagged


def bulk_records(text):
    """The records ``_bulk_columns`` proves of ``text``, or None."""
    bulk = ingest._bulk_columns(text)
    if bulk is None:
        return None
    columns, lines = bulk
    assert {len(column) for column in columns} == {lines}
    return [list(row) for row in zip(*columns)]


column_index = st.one_of(st.none(), st.integers(0, 3))


class TestBulkReader:
    """``_bulk_columns`` reads text in bulk only where csv.reader would read each of
    its lines as one whole record; ``_read_rows`` leaves the rest to csv.reader."""

    @settings(max_examples=1000, deadline=None)
    @given(text=st.text(alphabet='a,"\r\n\0[]1. ', max_size=60), cut=st.integers(0, 60),
           columns=st.tuples(st.integers(0, 3), column_index, column_index, column_index))
    @example(text='a,"b,c"\r\n,"[1, 2]"\rx\n', cut=9, columns=(1, 0, None, None))
    @example(text='"a",b\na,"b"c\na,b"c\n,""\n"",\na,"b""c"\n', cut=6, columns=(1, 0, 1, None))
    @example(text='"1","a","[1]"\r\n"","true",""\r\n', cut=17, columns=(2, 0, 0, 1))
    def test_proven_text_reads_as_csv_reads_it(self, text, cut, columns):
        """Whole, and cut at ``cut`` as a chunk end would cut it: where the proof
        holds, csv.reader reads each line as one record of the same fields; else
        ``_read_rows`` reads it by csv.reader."""
        for piece in (text, text[:cut], text[cut:]):
            records = bulk_records(piece)
            try:
                want = csv_rows(piece, columns)
            except csv.Error:
                assert records is None
                with pytest.raises(csv.Error):
                    ingest._read_rows(piece, (None,), columns, True, 0)
                continue
            assert ingest._read_rows(piece, (None,), columns, True, 0) == (
                *want, records is not None)
            if records is None:
                continue
            assert "\0" not in piece                # Python 3.10's csv rejects a NUL
            lines = io.StringIO(piece, newline="").readlines()
            reader = csv.reader(lines + [None])
            assert [next(reader) for _ in lines] == records
            assert reader.line_num == len(lines)             # each record ends on its line

    def test_the_common_forms_are_read_in_bulk(self):
        poly = "[[-8.6, 41.1], [-8.7, 41.2]]"
        assert bulk_records(f't1,A,,,1,5,A,False,"{poly}"\r\nt2,,,,,,A,False,[]\n') == [
            ["t1", "A", "", "", "1", "5", "A", "False", poly],
            ["t2", "", "", "", "", "", "A", "False", "[]"]]
        quote_all = f'"t1","A","","","1","5","A","False","{poly}"\n'
        assert bulk_records(quote_all * 2) == [
            ["t1", "A", "", "", "1", "5", "A", "False", poly]] * 2
        assert bulk_records(',\r\n"",""\n') == [["", ""], ["", ""]]
        assert bulk_records("k9,19") == [["k9", "19"]]           # the last line of a file

    @pytest.mark.parametrize("text", [
        'a,"b\nc"\n',          # a quoted line end
        'a,"b\rc"\n',
        'a,"b\n',               # a record open at the end
        "a\rb\n",               # a bare CR ends a line
        "a,b\n\nc,d\n",         # a blank line
        "\r\na,b\n",
        "a,b\nc\n",              # lines of different widths
        'a,b"c\n',              # a quote inside a field
        'a,"b"c\n',
        'a, "b"\n',
        'a,"b""c"\n',           # an escaped quote
        'a,"""b"\n',
        "a,\0\n",
    ])
    def test_other_text_is_left_to_csv(self, text):
        assert bulk_records(text) is None

    def test_a_line_longer_than_the_field_limit_is_left_to_csv(self, monkeypatch):
        monkeypatch.setattr("trajstory.ingest._MAX_FIELD_CHARS", 8)
        assert bulk_records("a,b,c\nd,e,f\n") == [["a", "b", "c"], ["d", "e", "f"]]
        assert bulk_records('a,"bcdefg"\n') is None
        assert bulk_records('a,"b"\ncdefghi,"j"\n') is None


def poly(*pairs):
    return json.dumps([list(p) for p in pairs])


A, B, C = (-8.61, 41.14), (-8.62, 41.15), (-8.64, 41.17)
# Kaggle rows, as bytes, that csv.reader reads differently from a plain split:
# quoted line ends inside TRIP_ID and POLYLINE fields, "\r\n", bare "\r" and
# "\n" line ends, blank lines and blank trip ids, a first field in quotes, a
# form feed and a U+2028 inside an id (str.splitlines would end a line there),
# rows quoting every field, with "" for an empty one and an escaped quote in
# an id, and a last line with no line end. The two four-point trips with blank ids
# tie on points with k9; as "row<line>" they rank "k9" < "row15" < "row4", which
# a worker, not knowing their lines, cannot rank: it restarts the parse.
CUT_ROWS = [
    "\ufeffTRIP_ID,TIMESTAMP,MISSING_DATA,POLYLINE\r\n",
    f'a1,10,False,"{poly(A, B, C)}"\r\n',
    "\r\n",
    f',11,False,"{poly(A, B, C, (-8.65, 41.18))}"\n',
    f'"t\nx",12,False,"{poly(A)[:-1]},\n {poly((-8.66, 41.19))[1:]}"\r',
    f'b2,13,True,"{poly(A, B)}"\r\n',
    f'b3,14,False,"{poly(A)}"\n',
    f'"c4",15,False,"{poly(A, (-8.7, 41.2))}"\r\n',
    f'f\x0cg,16,False,"{poly(A, (-8.9, 41.3))}"\n',
    f'u\u2028v,17,False,"{poly(A, (-8.91, 41.31))}"\r\n',
    "\n\n",
    f'"",18,False,"{poly(A, B, C, (-8.652, 41.182))}"\r\n',
    f'"q""1","20","","{poly(A, B)}"\r\n',
    f'"q2","","False","{poly(B, A)}"\n',
    f'k9,19,False,"{poly(A, B, C, (-8.651, 41.181))}"',
]


@needs_fork
class TestChunkCuts:
    """Cut anywhere, a file parses through the workers as it does in-process."""

    CHUNK_BYTES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377)
    SELECTIONS = [None, ("longest_by_points", None), ("longest_by_length", None),
                  ("by_id", "t\nx"), ("by_id", "row15")]

    @pytest.fixture(autouse=True)
    def _deadline(self):
        with deadline(120):
            yield

    @staticmethod
    def parse_all(path, selections):
        """(endpoint bytes, skips, the selected trip's id, start time and coordinate
        bytes) under each selection."""
        got = []
        for selection in selections:
            ds = parse_dataset(str(path), "kaggle_porto", selection)
            t = ds.selected
            got.append((ds.endpoints.tobytes(), ds.skipped_by_reason,
                        t and (t.id, t.start_time, t.coords.tobytes())))
        return got

    # How each parse, in the order of SELECTIONS, is read at each chunk size:
    # "w" by the workers to the end; "c" restarted in-process, where a chunk
    # cannot be read alone: a cut falls inside the record with quoted line
    # ends, or a blank id could change the chunk's pick: by_id row15 always,
    # and longest_by_points where a blank-id four-point trip shares its chunk
    # with another four-point trip (a worker, without the lines, cannot rank them).
    READ = {1: "ccccc", 2: "ccccc", 3: "ccccc", 5: "ccccc", 8: "ccccc", 13: "ccccc",
            21: "ccccc", 34: "wwwwc", 55: "wwwwc", 89: "wwwwc", 144: "ccccc",
            233: "wwwwc", 377: "wcwwc"}
    # the same file with that record's quoted line ends bare "\r"s: no cut,
    # made at "\n" bytes, falls inside it
    READ_FLAT = {**dict.fromkeys(CHUNK_BYTES, "wwwwc"), 377: "wcwwc"}

    @staticmethod
    def how_read(lines):
        """"w" or "c" (see READ) for the one parse that logged ``lines``."""
        restarts = [line for line in lines if line.endswith("; parsing in-process")]
        if not restarts:
            assert [", 2 decode workers, " in line for line in lines] == [True]
            return "w"
        assert "a chunk cannot be read alone" in restarts[0]
        return "c"

    def check_cuts(self, path, selections, read, monkeypatch):
        """Each chunk size reads every parse as ``read`` says, and gives what the
        parse in-process gives, which it returns."""
        decode_workers(monkeypatch, 0)
        want = self.parse_all(path, selections)
        for chunk_bytes in self.CHUNK_BYTES:
            monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", chunk_bytes)
            calls = decode_workers(monkeypatch, 2)
            how = ""
            for selection, parse in zip(selections, want):
                with logged("trajstory.ingest") as lines:
                    got = self.parse_all(path, [selection])
                assert got == [parse], (chunk_bytes, selection)
                how += self.how_read(lines)
            assert how == read[chunk_bytes], chunk_bytes
            assert calls == [2] * len(selections) and calls.reaped()
        return want

    def test_same_trips_skips_and_picks(self, tmp_path, monkeypatch):
        path = tmp_path / "cuts.csv"
        path.write_bytes("".join(CUT_ROWS).encode())
        want = self.check_cuts(path, self.SELECTIONS, self.READ, monkeypatch)
        with open(path, encoding="utf-8-sig", newline="") as fh:
            ref, ref_skipped = reference_parse_kaggle(fh)
        assert want[0][:2] == (endpoints(ref).tobytes(), {
            "missing_data": 1, "bad_json": 0, "too_short": 1, "out_of_range": 0})
        assert [w[2][:2] for w in want[1:]] == [("k9", 19), ("u\u2028v", 17),
                                                ("t\nx", 12), ("row15", 18)]
        for (_, _, got), selection in zip(want[1:], self.SELECTIONS[1:]):
            t = reference_select_trajectory(ref, *selection)
            assert got == (t.id, t.start_time, t.coords.tobytes())

    def test_a_record_no_cut_can_fall_inside_is_read_by_the_workers(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "flat.csv"
        path.write_bytes("".join(row.replace("\n", "\r") if row.startswith('"t\n') else row
                                 for row in CUT_ROWS).encode())
        selections = [("by_id", "t\rx") if s == ("by_id", "t\nx") else s
                      for s in self.SELECTIONS]
        want = self.check_cuts(path, selections, self.READ_FLAT, monkeypatch)
        assert [w[2][:2] for w in want[1:]] == [("k9", 19), ("u\u2028v", 17),
                                                ("t\rx", 12), ("row15", 18)]

    def test_same_exit_code_and_output(self, tmp_path, monkeypatch, capsys):
        """``trajstory ingest``, also where one row is a csv.Error (its POLYLINE is
        over the field limit)."""
        ok = tmp_path / "cuts.csv"
        ok.write_bytes("".join(CUT_ROWS).encode())
        error = tmp_path / "error.csv"
        long_row = f'e5,20,False,"{poly(A, B, C, A, B, C, A, B)}"\n'
        error.write_bytes("".join(CUT_ROWS[:9] + [long_row] + CUT_ROWS[9:]).encode())
        monkeypatch.setattr("trajstory.ingest._MAX_FIELD_CHARS", 100)

        def ingest_outputs(path):
            code = main(["ingest", str(path)])
            return code, *capsys.readouterr()
        decode_workers(monkeypatch, 0)
        want = [ingest_outputs(ok), ingest_outputs(error)]
        assert want[0][0] == 0 and "trajectories: 10\n" in want[0][1]
        assert want[1][0] == 3
        assert "error.csv: line 12: field larger than field limit (100)" in want[1][2]
        for chunk_bytes in self.CHUNK_BYTES:
            monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", chunk_bytes)
            calls = decode_workers(monkeypatch, 2)
            assert [ingest_outputs(ok), ingest_outputs(error)] == want, chunk_bytes
            assert calls.reaped()


# -- the fold: chunk by chunk, the same as all at once ---------------------------

def zigzag(lat):
    """16 points a few meters apart: the most points, a short way."""
    return [[-8.61 + 1e-4 * (i % 2), lat + 1e-5 * i] for i in range(16)]


FAR = [[-8.68, 41.12], [-8.60, 41.18], [-8.52, 41.23]]      # 3 points, the longest way


def short(lat):
    return [[-8.62, 41.15], [-8.621, lat], [-8.622, lat], [-8.623, lat]]


# In 300-byte chunks, most of four rows each, the trips tied on points (p*)
# and on length (l*) sit in different chunks, with the lowest id in a later
# one, and p5 last in its chunk; "dup" spans two chunks, and so does "p1",
# whose second trip ties the first on points and id; the file's last trip
# ties with nothing. 1-byte chunks hold a row each; in 1000-byte chunks p5
# and p1 tie within one.
FOLD_ROWS = [
    ("p9", "False", zigzag(41.10)), ("l7", "False", FAR),
    ("f0", "False", short(41.160)), ("bj", "False", "[[-8.6,41.1],["),
    ("f1", "False", short(41.161)), ("dup", "False", short(41.170)),
    ("md", "True", FAR), ("f2", "False", short(41.162)), ("p5", "False", zigzag(41.10)),
    ("l2", "False", FAR), ("dup", "False", short(41.171)),
    ("ts", "False", [[-8.6, 41.1]]), ("f3", "False", short(41.163)),
    ("p1", "False", zigzag(41.10)), ("or", "False", [[-8.6, 91.0], [-8.6, 41.1]]),
    ("f4", "False", short(41.164)), ("l9", "False", FAR),
    ("p1", "False", zigzag(41.11)), ("f5", "False", short(41.165)),
]


@needs_fork
class TestFoldAcrossBlocks:
    @pytest.fixture(autouse=True)
    def _deadline(self):
        with deadline():
            yield

    @staticmethod
    def write(path):
        rows = [(trip_id, str(1_000 + i), missing,
                 poly if isinstance(poly, str) else json.dumps(poly))
                for i, (trip_id, missing, poly) in enumerate(FOLD_ROWS)]
        path.write_text(kaggle_csv(rows).getvalue(), encoding="utf-8", newline="")
        return str(path)

    def fold(self, path, monkeypatch, workers):
        """(endpoints bytes, skips, (id, start time, coordinate bytes) per selection)."""
        calls = decode_workers(monkeypatch, workers)
        picks = {}
        for selection in [None, ("longest_by_points", None), ("longest_by_length", None),
                          ("by_id", "dup")]:
            ds = parse_dataset(path, "kaggle_porto", selection)
            if selection is None:
                ends, skips, n = ds.endpoints.tobytes(), ds.skipped_by_reason, len(ds)
            else:
                t = ds.selected
                picks[selection[0]] = (t.id, t.start_time, t.coords.tobytes())
        assert calls == [workers] * 4 and calls.reaped()
        return ends, skips, n, picks

    def test_same_as_the_reference_rule_in_process_and_through_the_workers(
            self, tmp_path, monkeypatch, caplog):
        path = self.write(tmp_path / "fold.csv")
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        results = []
        for chunk_bytes, chunks in [(300, 7), (1, 19), (1000, 3)]:
            monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", chunk_bytes)
            for workers in (0, 2):
                caplog.clear()
                results.append(self.fold(path, monkeypatch, workers))
                assert f"19 rows in {chunks} chunks, {workers} decode workers" in caplog.text
                assert "cannot be read alone" not in caplog.text
        serial = results[0]
        assert results == [serial] * 6

        with open(path, encoding="utf-8", newline="") as fh:
            want, want_skipped = reference_parse_kaggle(fh)
        ends, skips, n, picks = serial
        assert (n, ends) == (len(want), endpoints(want).tobytes())
        assert skips == dict.fromkeys(SKIP_REASONS, 1)
        assert sum(skips.values()) == want_skipped
        for criterion, trajectory_id in [("longest_by_points", None),
                                         ("longest_by_length", None), ("by_id", "dup")]:
            t = reference_select_trajectory(want, criterion, trajectory_id)
            assert picks[criterion] == (t.id, t.start_time, t.coords.tobytes()), criterion
        assert {c: p[:2] for c, p in picks.items()} == {
            "longest_by_points": ("p1", 1013), "longest_by_length": ("l2", 1009),
            "by_id": ("dup", 1005)}

    def test_a_missing_by_id_trip_is_not_found(self, tmp_path, monkeypatch):
        from trajstory.pipeline import StoryRequest, run_steps
        from trajstory.story import NarrativeSpec
        path = self.write(tmp_path / "fold.csv")
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 300)
        calls = decode_workers(monkeypatch, 2)
        req = StoryRequest(dataset_path=path, spec=NarrativeSpec(mode="single_trajectory"),
                           selection="by_id", selection_id="nope")
        with pytest.raises(NotFoundError, match="nope"):
            run_steps(req, ("ingest", "analytics"))
        assert calls == [2] and calls.reaped()


def test_parse_memory_grows_with_trips_not_points(tmp_path, monkeypatch):
    """An in-process parse in chunks of about eight rows peaks below half its
    coordinates' bytes: it holds one chunk's coordinates at a time, plus one
    point per trip."""
    rng = np.random.default_rng(32)
    xy = np.round(rng.uniform((-8.7, 41.1), (-8.5, 41.25), (1024, 40, 2)), 4)
    rows = [(f"t{i:04d}", str(i), "False", json.dumps(trip.tolist()))
            for i, trip in enumerate(xy)]
    path = tmp_path / "trips.csv"
    path.write_text(kaggle_csv(rows).getvalue(), encoding="utf-8", newline="")
    monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", path.stat().st_size // 128)
    decode_workers(monkeypatch, 0)
    parse_dataset(str(path), "kaggle_porto")          # warm up: lazy imports and caches
    tracemalloc.start()
    try:
        ds = parse_dataset(str(path), "kaggle_porto")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < xy.nbytes / 2, (peak, xy.nbytes)
    assert ds.endpoints.tobytes() == np.ascontiguousarray(xy[:, -1]).tobytes()


# -- the pick rule: each chunk's reader picks, the fold compares keys ------------

# Two-point and three-point trips; SHAPES[1] and SHAPES[2] tie on points and,
# one the other's reverse, on length; SHAPES[3] is too short to keep.
SHAPES = ["[[-8.61,41.14],[-8.62,41.15]]", "[[-8.61,41.14],[-8.62,41.15],[-8.63,41.16]]",
          "[[-8.63,41.16],[-8.62,41.15],[-8.61,41.14]]", "[]"]
PICK_SELECTIONS = [LONGEST, ("longest_by_length", None)] + [
    ("by_id", trip_id) for trip_id in ("", "a", "row2", "row3", "row5", "row10", "row12")]


class TestPickRule:
    """``_Fold.pick`` applies the selection rule to one chunk where it is read,
    a worker's blank id standing for its line; the fold names it ``row<N>``."""

    @needs_fork
    @pytest.mark.parametrize("trip_id, want", [("", None), ("row2", ("row2", 0, SHAPES[0])),
                                               ("row4", None), ("row5", ("row5", 2, SHAPES[2]))])
    def test_by_a_blank_or_row_id_the_workers_give_the_in_process_trip(
            self, tmp_path, monkeypatch, trip_id, want):
        """Line 2's and line 5's trips have blank ids, so they are row2 and row5;
        line 4's is literally "row5", and comes first; a blank id names no trip.
        Through the workers a row id restarts the parse; a blank one does not."""
        path = tmp_path / "picks.csv"
        rows = [("", 0), ("a", 1), ("row5", 2), ("  ", 1), ("b", 2)]
        path.write_text(kaggle_csv([(trip_id, str(i), "False", SHAPES[shape])
                                    for i, (trip_id, shape) in enumerate(rows)]).getvalue(),
                        encoding="utf-8", newline="")
        monkeypatch.setattr("trajstory.ingest._CHUNK_BYTES", 1)
        want = want and (*want[:2], json.loads(want[2]))
        for workers in (0, 2):
            calls = decode_workers(monkeypatch, workers)
            with deadline(), logged("trajstory.ingest") as lines:
                t = parse_dataset(str(path), "kaggle_porto", ("by_id", trip_id)).selected
            assert calls == [workers] and calls.reaped()
            assert (t and (t.id, t.start_time, t.coords.tolist())) == want
            assert any("a chunk cannot be read alone" in line for line in lines) == \
                (workers > 0 and trip_id.startswith("row"))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["", " ", "a", "b", "row3", "row10"]),
                                   st.integers(0, 3), st.booleans()), min_size=1, max_size=8),
           base=st.integers(1, 12))
    def test_a_worker_picks_as_in_process_or_restarts(self, rows, base):
        """Rows with blank ids in random places, after line ``base``: read as a
        worker reads them, without line numbers, and named by the fold, they
        give the in-process pick or restart, under every selection. Read
        in-process, they never restart."""
        text = kaggle_csv([(trip_id, str(i), "True" if missing else "False", SHAPES[shape])
                           for i, (trip_id, shape, missing) in enumerate(rows)]).getvalue()
        body = "".join(io.StringIO(text, newline="").readlines()[1:])
        columns = ingest._columns(HEADER)
        for selection in PICK_SELECTIONS:
            here, alone = ingest._Fold(selection), ingest._Fold(selection)
            here.add_chunk(base, ingest._reduce(
                ingest._read_rows(body, (None,), columns, True, base), here))
            try:
                alone.add_chunk(base, ingest._reduce(
                    ingest._read_rows(body, (None,), columns, True, None), alone))
            except ingest._Restart:
                continue
            t, u = here.selected, alone.selected
            assert (here.key, t and (t.id, t.start_time, t.coords.tobytes())) == \
                (alone.key, u and (u.id, u.start_time, u.coords.tobytes())), selection

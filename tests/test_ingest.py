import contextlib
import csv
import io
import itertools
import json
import logging
import multiprocessing
import os
import signal
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (iter_points, point_list_round_trip, to_point_list, trajectories,
                     write_point_list)
from oracles import reference_parse_kaggle
from trajstory import ingest
from trajstory.cli import main
from trajstory.errors import ConfigurationError, NotFoundError, ParseError
from trajstory.geo import GeoPoint
from trajstory.ingest import (KAGGLE_COLUMNS, SKIP_REASONS, Dataset, Trajectory,
                              parse_dataset, select_trajectory, trajectory_digest,
                              trip_endpoints)
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

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="decode workers are forked")


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
                           "kaggle_porto")
        assert len(ds) == 1
        traj = trajectories(ds)[0]
        assert traj.id == "t1"
        assert traj.start_time == 1372636858
        assert traj.points[0] == GeoPoint(-8.61, 41.14)
        assert traj.points[-1] == GeoPoint(-8.63, 41.16)
        assert ds.skipped_rows == 0

    def test_missing_data_flag_skips_row_case_insensitively(self):
        ds = parse_dataset(kaggle_csv([
            ("t1", "1", "True", GOOD_POLY),
            ("t2", "2", "TRUE", GOOD_POLY),
            ("t3", "3", "False", GOOD_POLY),
        ]), "kaggle_porto")
        assert [t.id for t in trajectories(ds)] == ["t3"]
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
                           "kaggle_porto")
        assert [t.id for t in trajectories(ds)] == ["ok"]
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
                           "kaggle_porto")
        assert trajectories(ds)[0].id.startswith("row")

    def test_unparseable_timestamp_becomes_none(self):
        ds = parse_dataset(kaggle_csv([("t1", "later", "False", GOOD_POLY)]),
                           "kaggle_porto")
        assert trajectories(ds)[0].start_time is None

    @pytest.mark.parametrize("from_path", [True, False])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, from_path):
        text = "\ufeff" + kaggle_csv([("t1", "1", "False", GOOD_POLY)]).getvalue()
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ds = parse_dataset(str(path) if from_path else io.StringIO(text, newline=""),
                           "kaggle_porto")
        assert ds.ids == ["t1"]


class TestPointListParsing:
    def test_header_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "walk.txt"
        path.write_text("lon,lat\n-8.61,41.14\n\n-8.62,41.15\n-8.63,41.16\n")
        ds = parse_dataset(str(path), "point_list")
        assert len(ds) == 1
        traj = trajectories(ds)[0]
        assert traj.id == "walk"
        assert len(traj.points) == 3
        assert ds.skipped_rows == 1  # the header line

    @pytest.mark.parametrize("from_path", [True, False])
    def test_byte_order_mark_is_not_part_of_the_first_point(self, tmp_path, from_path):
        text = "\ufeff-8.61,41.14\n-8.62,41.15\n"
        path = tmp_path / "walk.txt"
        path.write_text(text, encoding="utf-8")
        ds = parse_dataset(str(path) if from_path else io.StringIO(text), "point_list")
        assert ds.coords.tolist() == [[-8.61, 41.14], [-8.62, 41.15]]
        assert ds.skipped_rows == 0

    def test_single_usable_point_yields_no_trajectory(self):
        ds = parse_dataset(io.StringIO("-8.61,41.14\n"), "point_list")
        assert trajectories(ds) == []

    def test_malformed_lines_counted(self):
        ds = parse_dataset(io.StringIO("-8.61,41.14\nxyz\n-8.62;41.15\n-8.63,41.16\n"),
                           "point_list")
        assert ds.skipped_rows == 2
        assert len(trajectories(ds)[0].points) == 2

    @given(points=st.lists(
        st.builds(GeoPoint,
                  st.floats(-8.75, -8.45, allow_nan=False),
                  st.floats(41.0, 41.3, allow_nan=False)),
        min_size=2, max_size=20))
    def test_serialization_round_trips_exactly(self, points):
        traj = Trajectory(id="t", points=points)
        back = point_list_round_trip(traj)
        assert [(p.lon, p.lat) for p in back.points] == \
               [(p.lon, p.lat) for p in points]

    def test_write_then_parse_from_disk(self, tmp_path):
        traj = Trajectory(id="t", points=[GeoPoint(-8.61, 41.14),
                                          GeoPoint(-8.62, 41.15)])
        path = tmp_path / "t.txt"
        write_point_list(traj, str(path))
        ds = parse_dataset(str(path), "point_list")
        assert trip_endpoints(ds).tolist() == [[-8.62, 41.15]]


class TestSelection:
    @staticmethod
    def dataset():
        short_far = Trajectory(id="b", points=[GeoPoint(-8.60, 41.10),
                                               GeoPoint(-8.60, 41.20)])
        long_near = Trajectory(id="a", points=[GeoPoint(-8.61, 41.14),
                                               GeoPoint(-8.611, 41.141),
                                               GeoPoint(-8.612, 41.142)])
        return Dataset.from_trajectories([short_far, long_near])

    def test_unknown_criterion(self):
        with pytest.raises(ConfigurationError):
            select_trajectory(self.dataset(), "shortest")

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            select_trajectory(Dataset(), "longest_by_points")

    def test_longest_by_points_vs_length_disagree(self):
        ds = self.dataset()
        assert select_trajectory(ds, "longest_by_points").id == "a"
        assert select_trajectory(ds, "longest_by_length").id == "b"

    def test_tie_breaks_to_lowest_id(self):
        p = [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15)]
        ds = Dataset.from_trajectories([Trajectory(id="z", points=list(p)),
                                        Trajectory(id="a", points=list(p))])
        assert select_trajectory(ds, "longest_by_points").id == "a"

    def test_length_tie_breaks_to_lowest_id(self):
        p = [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15), GeoPoint(-8.60, 41.16)]
        ds = Dataset.from_trajectories([Trajectory(id="m", points=p[:2]),
                                        Trajectory(id="z", points=list(p)),
                                        Trajectory(id="a", points=list(p))])
        assert select_trajectory(ds, "longest_by_length").id == "a"

    @given(trips=st.lists(st.lists(st.builds(GeoPoint, st.floats(-8.75, -8.45),
                                             st.floats(41.0, 41.3)),
                                   min_size=2, max_size=8), min_size=1, max_size=12))
    def test_longest_by_length_matches_the_per_point_lengths(self, trips):
        ds = Dataset.from_trajectories(
            Trajectory(id=f"t{i:02d}", points=p) for i, p in enumerate(trips))
        lengths = [t.path_length_m() for t in trajectories(ds)]
        chosen = select_trajectory(ds, "longest_by_length")
        # numpy's trigonometry and summation order may move the last bits
        assert lengths[int(chosen.id[1:])] >= max(lengths) * (1 - 1e-12)
        assert chosen == ds.trajectory(int(chosen.id[1:]))

    def test_by_id(self):
        ds = self.dataset()
        assert select_trajectory(ds, "by_id", "b").id == "b"
        with pytest.raises(NotFoundError):
            select_trajectory(ds, "by_id", "nope")
        with pytest.raises(ConfigurationError):
            select_trajectory(ds, "by_id")


class TestDigest:
    def test_contents_and_determinism(self):
        traj = Trajectory(id="t9", points=[GeoPoint(-8.61, 41.14),
                                           GeoPoint(-8.63, 41.16)],
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
        traj = Trajectory(id="t", points=[GeoPoint(-8.61, 41.14),
                                          GeoPoint(-8.63, 41.16)])
        assert "start time" not in trajectory_digest(traj)


class TestSynthCsvRoundTrip:
    def test_generated_file_parses_back_identically(self, tmp_path):
        ds = generate_dataset(SyntheticSpec(seed=5, n_trajectories=20))
        path = tmp_path / "synt.csv"
        total = write_kaggle_csv(ds, path, bad_rows=7, seed=2)
        assert total == 27
        back = parse_dataset(str(path), "kaggle_porto")
        assert len(back) == 20
        assert back.skipped_rows == 7
        assert [t.id for t in trajectories(back)] == [t.id for t in trajectories(ds)]
        assert [len(t.points) for t in trajectories(back)] == \
               [len(t.points) for t in trajectories(ds)]

    def test_iter_points_covers_every_vertex(self):
        ds = generate_dataset(SyntheticSpec(seed=5, n_trajectories=4))
        assert len(list(iter_points(trajectories(ds)))) == \
               sum(len(t.points) for t in trajectories(ds))


def test_to_point_list_uses_full_precision():
    p = GeoPoint(-8.612345678901234, 41.14)
    traj = Trajectory(id="t", points=[p])
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
                           "kaggle_porto")
        assert ds.ids == ["ok"]
        assert ds.skipped_by_reason == {**dict.fromkeys(SKIP_REASONS, 0), reason: 1}

    def test_planted_bad_rows_sum_to_skipped_rows(self, tmp_path):
        ds = generate_dataset(SyntheticSpec(seed=5, n_trajectories=20))
        path = tmp_path / "synt.csv"
        write_kaggle_csv(ds, path, bad_rows=8, seed=2)   # two of each of four shapes
        back = parse_dataset(str(path), "kaggle_porto")
        assert back.skipped_by_reason == {"missing_data": 2, "bad_json": 2,
                                          "too_short": 4, "out_of_range": 0}
        assert sum(back.skipped_by_reason.values()) == back.skipped_rows == 8
        assert len(back) + back.skipped_rows == 28

    def test_point_list_lines(self):
        ds = parse_dataset(io.StringIO("lon,lat\n-8.61,41.14\n200,41.1\nnan,41.1\n"
                                       "-8.62,41.15\n"), "point_list")
        assert ds.skipped_by_reason == {"missing_data": 0, "bad_json": 1,
                                        "too_short": 0, "out_of_range": 2}
        assert ds.coords.tolist() == [[-8.61, 41.14], [-8.62, 41.15]]

    def test_range_check_spans_block_boundaries(self, monkeypatch):
        monkeypatch.setattr("trajstory.ingest._BLOCK_ROWS", 2)
        rows = [(f"t{i}", str(i), "False",
                 "[[-8.61,95.0],[-8.62,41.15]]" if i % 3 == 1 else GOOD_POLY)
                for i in range(7)]
        ds = parse_dataset(kaggle_csv(rows), "kaggle_porto")
        assert ds.ids == ["t0", "t2", "t3", "t5", "t6"]
        assert ds.start_times == [0, 2, 3, 5, 6]
        assert ds.offsets.tolist() == [0, 3, 6, 9, 12, 15]
        assert ds.skipped_by_reason["out_of_range"] == 2


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
    def test_same_trips_bits_and_skips(self, text):
        self.check(text)

    # two-row blocks send every example of more than two rows through two
    # forked decode workers; each such parse forks, so fewer examples
    @needs_fork
    @settings(max_examples=100, deadline=None)
    @given(text=kaggle_files())
    def test_same_through_the_decode_workers(self, text):
        with deadline(), pytest.MonkeyPatch.context() as mp:
            mp.setattr("trajstory.ingest._BLOCK_ROWS", 2)
            mp.setattr("trajstory.ingest._fork_workers", lambda: 2)
            self.check(text)
        assert multiprocessing.active_children() == []

    @staticmethod
    def check(text):
        want, want_skipped = reference_parse_kaggle(io.StringIO(text, newline=""))
        ds = parse_dataset(io.StringIO(text, newline=""), "kaggle_porto")
        assert ds.ids == [t.id for t in want]
        assert ds.start_times == [t.start_time for t in want]
        assert ds.offsets.tolist() == [0] + list(
            itertools.accumulate(len(t.points) for t in want))
        want_xy = np.array([(p.lon, p.lat) for t in want for p in t.points],
                           dtype=np.float64).reshape(-1, 2)
        assert ds.coords.dtype == np.float64
        assert ds.coords.tobytes() == want_xy.tobytes()
        assert ds.skipped_rows == want_skipped
        assert sum(ds.skipped_by_reason.values()) == ds.skipped_rows


# -- the block-parallel decode ---------------------------------------------------

def decode_workers(monkeypatch, workers):
    """Make every multi-block parse use ``workers`` forked workers (0: in-process),
    whatever the machine's cores; returns the list each such parse appends to."""
    calls = []

    def fork_workers():
        calls.append(workers)
        return workers
    monkeypatch.setattr("trajstory.ingest._fork_workers", fork_workers)
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
        monkeypatch.setattr("trajstory.ingest._BLOCK_ROWS", 64)
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        decode_workers(monkeypatch, 2)
        parallel = parse_dataset(path, "kaggle_porto")
        assert "in 6 blocks, 2 decode workers" in caplog.text
        assert multiprocessing.active_children() == []
        decode_workers(monkeypatch, 0)
        serial = parse_dataset(path, "kaggle_porto")
        assert parallel.ids == serial.ids
        assert parallel.start_times == serial.start_times
        assert parallel.offsets.tobytes() == serial.offsets.tobytes()
        assert parallel.coords.tobytes() == serial.coords.tobytes()
        assert parallel.skipped_by_reason == serial.skipped_by_reason
        assert serial.skipped_by_reason == {"missing_data": 10, "bad_json": 10,
                                            "too_short": 20, "out_of_range": 20}
        assert parallel.ids[-3:] == ["row363", "x24", "row369"]

    def test_one_block_or_one_core_forks_nothing(self, tmp_path, monkeypatch, caplog):
        path = str(self.synth_csv(tmp_path / "trips.csv"))
        caplog.set_level(logging.INFO, logger="trajstory.ingest")
        parse_dataset(path, "kaggle_porto")                 # 370 rows: one block
        assert "in 1 blocks, 0 decode workers" in caplog.text
        monkeypatch.setattr("trajstory.ingest._BLOCK_ROWS", 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        parse_dataset(path, "kaggle_porto")
        assert "in 6 blocks, 0 decode workers" in caplog.text
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert ingest._fork_workers() == 2
        # a daemonic process, such as a multiprocessing.Pool worker, may not fork
        monkeypatch.setattr("multiprocessing.current_process",
                            lambda: types.SimpleNamespace(daemon=True))
        assert ingest._fork_workers() == 0

    @staticmethod
    def third_block_fault_csv(path, fault: bytes):
        """Three blocks of 50 rows of 20 points; ``fault`` replaces row 120's POLYLINE."""
        poly = json.dumps([[-8.61 + i * 1e-4, 41.14 + i * 1e-4] for i in range(20)])
        lines = [",".join(KAGGLE_COLUMNS).encode()]
        for i in range(150):
            text = fault if i == 120 else b'"' + poly.encode() + b'"'
            lines.append(f"t{i},A,,,1,{i},A,False,".encode() + text)
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def run_both_ways(self, monkeypatch, capsys, path):
        """(exit code, stderr) of ``trajstory ingest`` with workers, then in-process."""
        monkeypatch.setattr("trajstory.ingest._BLOCK_ROWS", 50)
        results = []
        for workers in (2, 0):
            calls = decode_workers(monkeypatch, workers)
            code = main(["ingest", str(path)])
            results.append((code, capsys.readouterr().err))
            assert calls == [workers]       # the fault was read after the first two blocks
            assert multiprocessing.active_children() == []
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

    def test_a_worker_that_dies_is_a_parse_error(self, tmp_path, monkeypatch, capsys):
        path = self.synth_csv(tmp_path / "trips.csv")
        monkeypatch.setattr("trajstory.ingest._BLOCK_ROWS", 64)
        parent, decode = os.getpid(), ingest._decode_block

        def die_in_a_worker(texts):
            if os.getpid() != parent:
                os._exit(7)
            return decode(texts)
        monkeypatch.setattr("trajstory.ingest._decode_block", die_in_a_worker)
        decode_workers(monkeypatch, 2)
        code = main(["ingest", str(path)])
        assert code == 3
        assert "decoding worker stopped (exit code 7)" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

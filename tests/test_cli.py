import ast
import contextlib
import csv
import io
import json
import logging
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import ALIASED_NAMES, CENTRAL_ROUTE_NAMES, FAR_POI_NAMES
from helpers import backtracking_walk
from oracles import reference_segment_distances
from trajstory import cli, errors, mapdoc, pipeline
from trajstory.cli import COMMAND_FLAGS, CONFIG_KEYS, main, parse_config
from trajstory.errors import ConfigurationError
from trajstory.gazetteer import default_fixture_path
from trajstory.geo import BoundingBox, GeoPoint
from trajstory.ingest import KAGGLE_COLUMNS, parse_dataset
from trajstory.story import TemplateBackend
from trajstory.synth import SyntheticSpec, generate_dataset, write_kaggle_csv
from trajstory.validation import GroundingRule


@pytest.fixture()
def route_file(tmp_path, central_route):
    path = tmp_path / "downtown.txt"
    path.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in central_route))
    return path


@pytest.fixture()
def aliased_story(tmp_path):
    """A story marking two places under five names, and a 100-point route past both."""
    route = tmp_path / "aliados.txt"
    route.write_text("".join(f"{-8.6107 + i * 1e-6!r},{41.1480 - i * 2.5e-5!r}\n"
                             for i in range(100)))
    story = tmp_path / "aliased.txt"
    story.write_text(" ".join(f"[[POI: {name}]]." for name in ALIASED_NAMES) + "\n",
                     encoding="utf-8")
    return story, route


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_parse_with_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n"
                       "mode = heatmap   # trailing comment\n"
                       "max_words = 120\n"
                       "\n"
                       "max_words = 130\n")
        assert parse_config(cfg) == {"mode": "heatmap", "max_words": "130"}

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        text = "mode = heatmap\nmax_words = 120\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfmode")
        assert parse_config(marked) == parse_config(plain) == {"mode": "heatmap",
                                                                "max_words": "120"}

    def test_a_byte_order_mark_is_not_part_of_the_responses_file(self, tmp_path):
        drafts = ["A stop at [[POI: Ribeira]].\n"]
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps(drafts), encoding="utf-8-sig")
        assert responses.read_bytes().startswith(b"\xef\xbb\xbf[")
        backend = cli.build_backend({"backend": "scripted", "responses_file": str(responses)})
        assert backend.responses == drafts

    def test_bad_line_is_rejected_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = heatmap\njust words\n")
        with pytest.raises(ConfigurationError, match=r"run\.cfg:2"):
            parse_config(cfg)


class TestIngestCommand:
    def test_stats_match_the_library(self, capsys, cluster_csv):
        code, out, _ = run(capsys, "ingest", str(cluster_csv))
        assert code == 0
        ds = parse_dataset(str(cluster_csv), "kaggle_porto")
        lines = out.splitlines()
        assert f"trajectories: {len(ds)}" in lines
        assert f"skipped rows: {ds.skipped_rows}" in lines
        assert "skipped by reason: missing_data 0, bad_json 0, too_short 0, " \
               "out_of_range 0" in lines
        assert f"endpoints: {len(ds.endpoints)}" in lines
        assert lines[-1].startswith("endpoint bbox: lon [")

    def test_point_list_schema(self, capsys, route_file):
        code, out, _ = run(capsys, "ingest", str(route_file),
                           "--schema", "point_list")
        assert code == 0
        assert "trajectories: 1" in out

    def test_missing_file_is_a_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "absent.csv" in err

    @staticmethod
    def long_row_csv(path):
        """One trip of 5,000 full-precision points: a POLYLINE over csv's default limit."""
        poly = json.dumps([[-8.6 + i * 1.234567e-6, 41.1 + i * 7.654321e-7]
                           for i in range(5000)])
        assert len(poly) > 131_072
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(KAGGLE_COLUMNS)
            writer.writerow(["long", "A", "", "", "20000100", "1372636800", "A",
                             "False", poly])
        return path

    def test_long_polyline_row_parses(self, capsys, tmp_path):
        code, out, _ = run(capsys, "ingest", str(self.long_row_csv(tmp_path / "long.csv")))
        assert code == 0
        assert "trajectories: 1" in out.splitlines()

    def test_csv_error_is_a_parse_error(self, capsys, tmp_path, monkeypatch):
        path = self.long_row_csv(tmp_path / "long.csv")
        limit = csv.field_size_limit()
        monkeypatch.setattr("trajstory.ingest._MAX_FIELD_CHARS", 100_000)
        code, _, err = run(capsys, "ingest", str(path))
        assert code == 3
        assert "line 2" in err and "field larger than field limit" in err
        assert csv.field_size_limit() == limit

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(",".join(KAGGLE_COLUMNS).encode() + b"\nS\xe3o,A\n")
        code, _, err = run(capsys, "ingest", str(path))
        assert code == 3
        assert "not UTF-8" in err


class TestHeatmapCommand:
    def test_prints_summary_and_writes_the_grid(self, capsys, cluster_csv,
                                                tmp_path):
        out_dir = tmp_path / "grid"
        code, out, _ = run(capsys, "heatmap", str(cluster_csv),
                           "--output-dir", str(out_dir))
        assert code == 0
        assert out.startswith("area: lon [")
        assert "busiest cells:" in out
        assert (out_dir / "grid.csv").exists()
        meta = (out_dir / "grid_meta.txt").read_text()
        assert "rows = " in meta and "cell_size_m = " in meta

    def test_writes_a_trace_of_its_steps(self, capsys, caplog, cluster_csv, tmp_path):
        caplog.set_level(logging.INFO, logger="trajstory")
        out_dir = tmp_path / "grid"
        code, _, _ = run(capsys, "heatmap", str(cluster_csv), "--output-dir", str(out_dir))
        assert code == 0
        trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
        assert [s["step"] for s in trace["steps"]] == ["ingest", "analytics"]
        assert trace["attempts"] == 0                       # no story drafted or graded
        assert trace["steps"][0]["detail"].startswith(
            f"{len(parse_dataset(str(cluster_csv), 'kaggle_porto'))} trajectories")
        assert str(out_dir / "trace.json") in caplog.text


class TestStoryCommand:
    def test_offline_template_run_writes_the_bundle(self, capsys, cluster_csv,
                                                    tmp_path):
        out_dir = tmp_path / "bundle"
        code, out, _ = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--offline", "--output-dir", str(out_dir))
        assert code == 0
        assert "story passed validation after 1 attempt(s)" in out
        for name in ("story.txt", "story.json", "report.json", "report.txt",
                     "map.geojson", "map.html", "trace.json"):
            assert (out_dir / name).exists(), name
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["overall"] == "pass"

    def test_identical_runs_write_identical_artifacts(self, capsys, cluster_csv,
                                                      tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(capsys, "story", "--dataset", str(cluster_csv),
                             "--offline", "--output-dir", str(d))
            assert code == 0
        for name in ("story.txt", "map.geojson", "report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_cache_line_with_a_non_string_name_is_skipped(self, capsys, cluster_csv,
                                                          tmp_path):
        bad = json.dumps({"key": "k|none", "name": 7, "lon": -8.6, "lat": 41.1}) + "\n"
        bundles = []
        for journal in ("", bad):
            run_dir = tmp_path / str(len(bundles))
            run_dir.mkdir()
            (run_dir / "cache.jsonl").write_text(journal, encoding="utf-8")
            (run_dir / "run.cfg").write_text(f"cache = {run_dir / 'cache.jsonl'}\n")
            code, _, err = run(capsys, "story", "--dataset", str(cluster_csv), "--offline",
                               "--config", str(run_dir / "run.cfg"),
                               "--output-dir", str(run_dir / "out"))
            assert (code, err) == (0, "")
            bundles.append({p.name: p.read_bytes() for p in (run_dir / "out").iterdir()
                            if p.name != "trace.json"})
        assert bundles[0] == bundles[1]

    def test_flags_override_config_values(self, capsys, cluster_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {cluster_csv}\nmin_pois = 15\nmax_words = 150\n")
        out_dir = tmp_path / "short"
        code, _, _ = run(capsys, "story", "--config", str(cfg), "--offline",
                         "--min-pois", "5", "--max-words", "80",
                         "--output-dir", str(out_dir))
        assert code == 0
        story = json.loads((out_dir / "story.json").read_text(encoding="utf-8"))
        assert story["spec"]["min_pois"] == 5
        assert story["spec"]["max_words"] == 80

    @staticmethod
    def scripted_story(capsys, tmp_path, dataset, drafts):
        """A two-attempt scripted ``story`` run playing ``drafts``, output in ``failed/``."""
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps(drafts))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"responses_file = {responses}\nmin_pois = 1\n")
        return run(capsys, "story", "--dataset", str(dataset),
                   "--config", str(cfg), "--backend", "scripted",
                   "--max-retries", "2", "--offline",
                   "--output-dir", str(tmp_path / "failed"))

    def test_validation_exhaustion_exits_5_and_keeps_the_report(
            self, capsys, cluster_csv, tmp_path):
        out_dir = tmp_path / "failed"
        code, _, err = self.scripted_story(capsys, tmp_path, cluster_csv,
                                           ["A stop at [[POI: Atlantis Pier]].\n"] * 2)
        assert code == 5
        assert "2 attempt(s)" in err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["overall"] == "fail"
        assert (out_dir / "story.txt").read_text(encoding="utf-8") \
            == "A stop at [[POI: Atlantis Pier]].\n"

    def test_validation_exhaustion_keeps_the_trace_of_every_attempt(
            self, capsys, cluster_csv, tmp_path):
        code, _, _ = self.scripted_story(capsys, tmp_path, cluster_csv,
                                         ["A stop at [[POI: Atlantis Pier]].\n"] * 2)
        assert code == 5
        out_dir = tmp_path / "failed"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "report.json", "report.txt", "story.txt", "trace.json"]
        trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
        assert trace["attempts"] == 2                       # --max-retries 2
        assert [s["step"] for s in trace["steps"]].count("generate") == 2

    def test_validation_exhaustion_reports_through_the_one_exit_handler(
            self, capsys, cluster_csv, tmp_path):
        code, out, err = self.scripted_story(capsys, tmp_path, cluster_csv,
                                             ["A stop at [[POI: Atlantis Pier]].\n"] * 2)
        assert (code, out) == (5, "")
        assert err.splitlines() == [
            f"failing report written to {tmp_path / 'failed' / 'report.txt'}",
            "validation failure: story failed validation after 2 attempt(s)"]

    def test_running_out_of_drafts_is_a_config_error(self, capsys, cluster_csv, tmp_path):
        code, _, err = self.scripted_story(capsys, tmp_path, cluster_csv,
                                           ["A stop at [[POI: Atlantis Pier]].\n"])
        assert code == 2
        assert err.splitlines()[0].startswith(
            "configuration error: scripted backend exhausted")
        assert "Traceback" not in err

    def test_a_cached_place_is_graded_under_the_name_discovery_offers(self, capsys,
                                                                      tmp_path):
        # a remote search for "sea terminal" found a place with another name
        trace = tmp_path / "leixoes.txt"
        trace.write_text("-8.6919,41.1734\n-8.696,41.178\n-8.7,41.182\n-8.7037,41.1855\n")
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"key": "sea terminal|none",
                                     "name": "Terminal de Cruzeiros",
                                     "lon": -8.7037, "lat": 41.1855}) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache = {cache}\n")
        code, _, err = run(capsys, "story", "--dataset", str(trace), "--schema", "point_list",
                           "--mode", "single_trajectory", "--min-pois", "2", "--offline",
                           "--config", str(cfg), "--output-dir", str(tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        verdicts = {p["name"]: p["verdict"] for p in report["per_poi"]}
        assert verdicts["Terminal de Cruzeiros"] == "grounded"
        assert (code, err) == (0, "")

    def test_too_few_places_stop_at_the_first_generation(self, capsys, tmp_path,
                                                         cluster_csv):
        # the seed-7 set's longest trip passes 11 fixture places within 500 m
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--mode", "single_trajectory", "--offline",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "only 11 candidate POIs for min_pois=15" in err
        assert "trajectory_threshold_m" in err and "min_pois" in err
        assert not (tmp_path / "out" / "report.txt").exists()

    @staticmethod
    def counted_drafts(monkeypatch):
        """The list each template draft of a run appends to."""
        drafts, generate = [], TemplateBackend.generate
        monkeypatch.setattr(TemplateBackend, "generate",
                            lambda self, *args: drafts.append(1) or generate(self, *args))
        return drafts

    def test_no_place_for_min_pois_0_stops_at_the_first_generation(self, capsys, tmp_path,
                                                                   monkeypatch):
        # a story must mark one place, and no known place lies within 500 m of this trip
        trip = tmp_path / "offshore.txt"
        trip.write_text("-9.5,40.9\n-9.51,40.91\n")
        drafts = self.counted_drafts(monkeypatch)
        code, _, err = run(capsys, "story", "--dataset", str(trip), "--schema", "point_list",
                           "--mode", "single_trajectory", "--min-pois", "0", "--offline",
                           "--output-dir", str(tmp_path / "out"))
        assert (code, len(drafts)) == (2, 1)
        assert err == ("configuration error: only 0 candidate POIs for min_pois=0; "
                       "raise trajectory_threshold_m\n")
        assert not (tmp_path / "out").exists()

    def test_no_room_for_one_place_stops_at_the_first_generation(self, capsys, tmp_path,
                                                                 monkeypatch, cluster_csv):
        drafts = self.counted_drafts(monkeypatch)
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv), "--min-pois", "0",
                           "--max-words", "30", "--offline",
                           "--output-dir", str(tmp_path / "out"))
        assert (code, len(drafts)) == (2, 1)
        assert err == "configuration error: word cap 30 cannot fit 1 POI mentions\n"
        assert not (tmp_path / "out").exists()

    def test_removed_discovery_radius_flag(self, capsys, cluster_csv):
        with pytest.raises(SystemExit) as exit_:
            main(["story", "--dataset", str(cluster_csv), "--discovery-radius", "300"])
        assert exit_.value.code == 2
        assert "--discovery-radius" in capsys.readouterr().err

    def test_missing_dataset_is_a_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "story", "--offline",
                           "--output-dir", str(tmp_path / "x"))
        assert code == 2
        assert "no dataset given" in err

    def test_unknown_backend_is_a_config_error(self, capsys, cluster_csv,
                                               tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backend = psychic\n")
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--config", str(cfg), "--offline",
                           "--output-dir", str(tmp_path / "x"))
        assert code == 2
        assert "unknown backend" in err

    def test_scripted_backend_needs_a_responses_file(self, capsys, cluster_csv,
                                                     tmp_path):
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--backend", "scripted", "--offline",
                           "--output-dir", str(tmp_path / "x"))
        assert code == 2
        assert "responses_file" in err

    @pytest.mark.parametrize("config, responses, message", [
        ("backend = remote\n", None, "backend 'remote' needs config key backend_url"),
        ("backend = scripted\n", b"[not json", "responses.json: Expecting value"),
        ("backend = scripted\n", b'{"draft": "A stop."}',
         "responses.json: expected a JSON array of strings"),
        ("backend = scripted\n", b'["A stop.", 7]',
         "responses.json: expected a JSON array of strings"),
    ], ids=["remote-without-url", "responses-not-json", "responses-an-object",
            "responses-not-all-strings"])
    def test_a_backend_it_cannot_build_is_a_config_error(self, capsys, cluster_csv, tmp_path,
                                                          config, responses, message):
        if responses is not None:
            (tmp_path / "responses.json").write_bytes(responses)
            config += f"responses_file = {tmp_path / 'responses.json'}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv), "--config", str(cfg),
                           "--offline", "--output-dir", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("configuration error: ") and message in err


class TestValidateCommand:
    def write_story(self, tmp_path, text):
        path = tmp_path / "story.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_clean_story_passes(self, capsys, tmp_path, route_file):
        story = self.write_story(
            tmp_path, "Past [[POI: Ribeira]] to [[POI: São Bento Station]].\n")
        code, out, _ = run(capsys, "validate", str(story),
                           "--dataset", str(route_file),
                           "--schema", "point_list")
        assert code == 0
        assert out.startswith("validation: PASS")

    def test_far_poi_fails_and_is_named(self, capsys, tmp_path, route_file):
        story = self.write_story(
            tmp_path, "Past [[POI: Ribeira]] to [[POI: Foz do Douro]].\n")
        out_dir = tmp_path / "rep"
        code, out, _ = run(capsys, "validate", str(story),
                           "--dataset", str(route_file),
                           "--schema", "point_list",
                           "--output-dir", str(out_dir))
        assert code == 5
        assert "validation: FAIL" in out
        assert "Foz do Douro: spatial_hallucination" in out
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["overall"] == "fail"

    def test_writes_a_trace_of_its_steps_even_when_it_fails(self, capsys, tmp_path,
                                                            monkeypatch, route_file):
        story = self.write_story(
            tmp_path, "Past [[POI: Ribeira]] to [[POI: Foz do Douro]].\n")
        code, _, _ = run(capsys, "validate", str(story), "--dataset", str(route_file),
                         "--schema", "point_list", "--output-dir", str(tmp_path / "rep"))
        assert code == 5
        trace = json.loads((tmp_path / "rep" / "trace.json").read_text(encoding="utf-8"))
        assert trace["attempts"] == 1
        assert [s["step"] for s in trace["steps"]] == ["ingest", "analytics", "validate"]
        assert all(s["seconds"] >= 0 for s in trace["steps"])
        assert trace["steps"][2]["detail"] == "attempt 1: fail, grounded fraction 0.50"
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "validate", str(story), "--dataset", str(route_file),
                         "--schema", "point_list")
        assert code == 5 and not (tmp_path / "out").exists()    # no --output-dir, no files

    def test_a_name_and_its_aliases_cannot_pad_the_poi_quota(self, capsys, aliased_story):
        story, route = aliased_story
        code, out, _ = run(capsys, "validate", str(story), "--dataset", str(route),
                           "--schema", "point_list", "--min-pois", "5")
        assert code == 5
        assert out.startswith("validation: FAIL\nPOIs: 5 grounded, 0 flagged")
        assert "  - min_pois: FAIL (2 distinct POIs, need at least 5)\n" in out

    def test_markup_free_story_is_a_parse_error(self, capsys, tmp_path,
                                                route_file):
        story = self.write_story(tmp_path, "nothing marked here\n")
        code, _, err = run(capsys, "validate", str(story),
                           "--dataset", str(route_file),
                           "--schema", "point_list")
        assert code == 3
        assert "no POI markup" in err

    def test_heatmap_mode_grounds_on_hotspots(self, capsys, tmp_path,
                                              cluster_csv):
        story = self.write_story(
            tmp_path, "Crowds end the day at [[POI: Avenida dos Aliados]].\n")
        code, out, _ = run(capsys, "validate", str(story),
                           "--dataset", str(cluster_csv), "--mode", "heatmap")
        assert code == 0
        assert "validation: PASS" in out

    def test_report_distances_equal_the_scalar_reference(self, capsys, tmp_path):
        # a seeded 2,500-point walk that doubles back inside downtown Porto
        rng = random.Random(41)
        trace = [GeoPoint(-8.6150, 41.1450)]
        for _ in range(2499):
            p = trace[-1]
            trace.append(GeoPoint(min(-8.6050, max(-8.6260, p.lon + rng.gauss(0, 1e-4))),
                                  min(41.1500, max(41.1390, p.lat + rng.gauss(0, 1e-4)))))
        data = tmp_path / "trace.txt"
        data.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in trace))
        names = CENTRAL_ROUTE_NAMES + FAR_POI_NAMES
        story = self.write_story(tmp_path, " ".join(f"[[POI: {n}]]" for n in names))
        out_dir = tmp_path / "rep"
        code, _, _ = run(capsys, "validate", str(story), "--dataset", str(data),
                         "--mode", "single_trajectory", "--schema", "point_list",
                         "--offline", "--output-dir", str(out_dir))
        assert code == 5
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert [p["name"] for p in report["per_poi"]] == names
        for p in report["per_poi"]:
            want = min(reference_segment_distances(GeoPoint(p["lon"], p["lat"]), trace))
            assert p["distance_m"] == want, p["name"]

    def test_unknown_trajectory_id_maps_to_exit_2(self, capsys, tmp_path,
                                                  route_file):
        story = self.write_story(tmp_path, "Past [[POI: Ribeira]].\n")
        code, _, err = run(capsys, "validate", str(story),
                           "--dataset", str(route_file),
                           "--schema", "point_list",
                           "--selection", "by_id",
                           "--trajectory-id", "no-such-trip")
        assert code == 2
        assert "no-such-trip" in err


class TestMapCommand:
    def test_writes_map_files_and_warns_on_unknown_names(self, capsys, tmp_path):
        story = tmp_path / "story.txt"
        story.write_text("See [[POI: Ribeira]], [[POI: Bolhão Market]] "
                         "and [[POI: Atlantis Pier]].\n", encoding="utf-8")
        out_dir = tmp_path / "map"
        code, out, err = run(capsys, "map", str(story),
                             "--output-dir", str(out_dir))
        assert code == 0
        assert "legend rows: 2" in out
        assert "Atlantis Pier" in err
        geo = json.loads((out_dir / "map.geojson").read_text(encoding="utf-8"))
        assert {f["properties"]["role"] for f in geo["features"]} == {"poi"}
        assert (out_dir / "map.html").exists()

    def test_dataset_overlay_adds_the_path(self, capsys, tmp_path, route_file):
        story = tmp_path / "story.txt"
        story.write_text("Down to [[POI: Ribeira]].\n", encoding="utf-8")
        out_dir = tmp_path / "map"
        code, _, _ = run(capsys, "map", str(story),
                         "--dataset", str(route_file),
                         "--schema", "point_list",
                         "--output-dir", str(out_dir))
        assert code == 0
        geo = json.loads((out_dir / "map.geojson").read_text(encoding="utf-8"))
        roles = [f["properties"]["role"] for f in geo["features"]]
        assert roles[0] == "trajectory"

    LEGEND_STORY = ("Past [[POI: Ribeira]], [[POI: RIBEIRA]], [[POI: Aliados Avenue]], "
                    "[[POI: Foz do Douro]], [[POI: Atlantis Pier]] "
                    "and [[POI: Avenida dos Aliados]].\n")
    LEGEND = ["Ribeira", "Aliados Avenue", "Foz do Douro", "Avenida dos Aliados"]

    def test_legend_names_the_places_validation_grades(self, capsys, tmp_path,
                                                      route_file):
        story = tmp_path / "story.txt"
        story.write_text(self.LEGEND_STORY, encoding="utf-8")
        data = ["--dataset", str(route_file), "--schema", "point_list"]
        code, _, err = run(capsys, "map", str(story), *data,
                           "--output-dir", str(tmp_path / "map"))
        assert code == 0
        assert err == "warning: cannot geocode 'Atlantis Pier'; leaving it off the map\n"
        code, _, _ = run(capsys, "validate", str(story), *data,
                         "--output-dir", str(tmp_path / "rep"))
        assert code == 5
        geo = json.loads((tmp_path / "map" / "map.geojson").read_text(encoding="utf-8"))
        report = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        located = [p for p in report["per_poi"] if p["lon"] is not None]
        assert [name for _, name in geo["legend"]] == [p["name"] for p in located] \
            == self.LEGEND
        assert {p["name"]: p["verdict"] for p in report["per_poi"]
                if p["verdict"] != "grounded"} == {"Foz do Douro": "spatial_hallucination",
                                                   "Atlantis Pier": "ungeocodable"}

    def test_without_a_dataset_the_same_places_are_drawn_ungraded(self, capsys, tmp_path,
                                                                 monkeypatch):
        story = tmp_path / "story.txt"
        story.write_text(self.LEGEND_STORY, encoding="utf-8")
        reports = []
        real_validate = pipeline.validate_story

        def validate_story(*args):
            reports.append(real_validate(*args))
            return reports[-1]
        monkeypatch.setattr(pipeline, "validate_story", validate_story)
        code, _, err = run(capsys, "map", str(story), "--output-dir", str(tmp_path / "map"))
        assert code == 0
        assert err == "warning: cannot geocode 'Atlantis Pier'; leaving it off the map\n"
        geo = json.loads((tmp_path / "map" / "map.geojson").read_text(encoding="utf-8"))
        assert [name for _, name in geo["legend"]] == self.LEGEND
        (report,) = reports
        assert {p.verdict for p in report.per_poi if p.location is not None} == {"ungraded"}
        assert all(p.distance_m is None for p in report.per_poi)

    @pytest.mark.parametrize("with_dataset", [True, False])
    def test_writes_a_trace_of_its_steps(self, capsys, tmp_path, route_file, with_dataset):
        story = tmp_path / "story.txt"
        story.write_text("Down to [[POI: Ribeira]].\n", encoding="utf-8")
        data = ["--dataset", str(route_file), "--schema", "point_list"] if with_dataset else []
        code, out, _ = run(capsys, "map", str(story), *data, "--output-dir", str(tmp_path / "map"))
        assert code == 0
        trace = json.loads((tmp_path / "map" / "trace.json").read_text(encoding="utf-8"))
        steps = (["ingest", "analytics"] if with_dataset else []) + ["validate", "emit"]
        assert [s["step"] for s in trace["steps"]] == steps
        assert trace["attempts"] == 1
        assert trace["steps"][-1]["detail"] == "1 markers, 1 legend rows"
        assert f"wrote {tmp_path / 'map' / 'trace.json'}" in out

    def test_grades_as_validate_grades(self, capsys, tmp_path, aliased_story):
        """Under validate's defaults: no POI quota and no word cap."""
        story, route = aliased_story
        rows = []
        for command in ("validate", "map"):
            out_dir = tmp_path / command
            code, _, _ = run(capsys, command, str(story), "--dataset", str(route),
                             "--schema", "point_list", "--output-dir", str(out_dir))
            assert code == 0
            trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
            rows.append(next(s["detail"] for s in trace["steps"] if s["step"] == "validate"))
        assert rows == ["attempt 1: pass, grounded fraction 1.00"] * 2

    def test_nothing_mappable_is_a_config_error(self, capsys, tmp_path):
        story = tmp_path / "story.txt"
        story.write_text("Only [[POI: Atlantis Pier]] here.\n", encoding="utf-8")
        code, _, err = run(capsys, "map", str(story),
                           "--output-dir", str(tmp_path / "map"))
        assert code == 2
        assert "nothing to map" in err


class TestArtifactsAreWholeOrUnchanged:
    """A write or a rename that fails part way leaves the previous files byte for byte."""

    OLD = {"story": ["story.txt", "story.json", "report.json", "report.txt",
                     "map.geojson", "map.html", "trace.json"],
           "map": ["map.geojson", "map.html", "trace.json"],
           "validate": ["report.json", "trace.json"],
           "heatmap": ["grid.csv", "grid_meta.txt", "trace.json"]}

    @pytest.fixture
    def command(self, tmp_path, cluster_csv, route_file):
        """Run ``command`` over an output directory holding old files and a user's note;
        returns that directory, the bytes it held and the command's result."""
        story = tmp_path / "story.txt"
        story.write_text("Past [[POI: Ribeira]] to [[POI: São Bento Station]].\n",
                         encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def command(capsys, name, files=None):
            argv = {"story": ["story", "--dataset", str(cluster_csv)],
                    "map": ["map", str(story)],
                    "validate": ["validate", str(story), "--dataset", str(route_file),
                                 "--schema", "point_list"],
                    "heatmap": ["heatmap", str(cluster_csv)]}[name]
            for file in (self.OLD[name] if files is None else files) + ["notes.txt"]:
                (out_dir / file).write_bytes(f"old {file}\n".encode())
            before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            result = run(capsys, *argv, "--offline", "--output-dir", str(out_dir))
            return out_dir, before, result
        return command

    @pytest.mark.parametrize("name, fail_at", [("story", 2), ("map", 2), ("validate", 2),
                                               ("heatmap", 2)])
    def test_failed_write_keeps_the_old_files(self, capsys, monkeypatch, command,
                                              name, fail_at):
        written = []

        def stage(file, *args, **kwargs):       # write_files opens only staged files
            fh = open(file, *args, **kwargs)
            write = fh.write

            def first_write(part):
                written.append(Path(file).name)
                if len(written) == fail_at:
                    write(part[:7])             # a torn file
                    raise OSError(28, "No space left on device")
                fh.write = write
                return write(part)
            fh.write = first_write
            return fh

        monkeypatch.setattr(pipeline, "open", stage, raising=False)
        out_dir, before, (code, _, err) = command(capsys, name)
        assert code == 2
        assert "No space left on device" in err
        assert len(written) == fail_at
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("name", ["story", "map"])
    def test_a_part_that_fails_to_come_keeps_the_old_files(self, capsys, monkeypatch,
                                                           command, name):
        real_render = mapdoc.render_geojson
        made = []

        def render_geojson(doc):                # the map's head, then a failure
            for part in real_render(doc):
                made.append(part)
                yield part
                raise OSError(5, "Input/output error")

        monkeypatch.setattr(mapdoc, "render_geojson", render_geojson)
        out_dir, before, (code, _, err) = command(capsys, name)
        assert code == 2
        assert "Input/output error" in err
        assert len(made) == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("name, fail_at", [(name, n) for name, files in OLD.items()
                                               for n in range(1, len(files) + 1)])
    @pytest.mark.parametrize("old_files", ["all", "none"])
    def test_failed_rename_puts_the_old_files_back(self, capsys, monkeypatch, command,
                                                   name, fail_at, old_files):
        real_replace = os.replace
        renamed = []

        def replace(src, dst):
            if Path(src).name.endswith(".tmp"):
                renamed.append(Path(dst).name)
                if len(renamed) == fail_at:
                    raise OSError(5, "Input/output error")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out_dir, before, (code, _, err) = command(
            capsys, name, None if old_files == "all" else [])
        assert code == 2
        assert "Input/output error" in err
        assert renamed == self.OLD[name][:fail_at]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


LATIN1_STORY = "Past [[POI: São Bento Station]].\n".encode("latin-1")


@pytest.mark.parametrize("command, config, story, flags, code, message, fixture", [
    ("story", None, None, ["--max-words", "0"], 2, "max_words must be positive", None),
    ("story", b"rate_limit = 0\n", None, [], 2, "rate_limit must be positive", None),
    ("story", b"rate_limit = 1e-300\n", None, [], 2,
     "rate_limit must be positive, with at most", None),
    ("story", b"require_geocode = false\n", None, [], 2,
     "unknown config key 'require_geocode'", None),
    ("story", b"min_grounded_fraction = 0.5\n", None, [], 2,
     "unknown config key 'min_grounded_fraction'", None),
    ("validate", None, b"[[POI: Ribeira]]\n", ["--trajectory-threshold", "-1"], 2,
     "trajectory_threshold_m must be >= 0", None),
    ("validate", None, b"[[POI: Ribeira]]\n", ["--hotspot-threshold", "-0.5"], 2,
     "hotspot_threshold_m must be >= 0", None),
    ("story", b"hotspot_threshold_m = nan\n", None, [], 2, "expected a finite number", None),
    ("story", b"max_words = many\n", None, [], 2, "config key max_words", None),
    ("story", b"max_word = 80\n", None, [], 2, "unknown config key 'max_word'", None),
    ("story", "audience = S\xe3o Paulo\n".encode("latin-1"), None, [], 2, "not UTF-8", None),
    ("validate", "tone = s\xe9rieux\n".encode("latin-1"), b"[[POI: Ribeira]]\n", [], 2,
     "not UTF-8", None),
    ("validate", None, LATIN1_STORY, [], 3, "not UTF-8", None),
    ("map", None, LATIN1_STORY, [], 3, "not UTF-8", None),
    ("map", None, b"[[POI: Ribeira]]\n", ["--cluster-distance", "-1"], 2,
     "invalid request: cluster_distance_m must be >= 0", None),
    ("map", b"selection = fastest\n", b"[[POI: Ribeira]]\n", [], 2,
     "unknown selection criterion 'fastest'", None),
    ("story", b"discovery_radius_m = 300\n", None, [], 2,
     "unknown config key 'discovery_radius_m'", None),
    ("story", b"trajectory_samples = 20\n", None, [], 2,
     "unknown config key 'trajectory_samples'", None),
    ("story", b"cell_size_m = 0.5\n", None, [], 2, "raise cell_size_m", None),
    ("story", b"hotspot_threshold_m = 1e308\nmin_pois = 30\n", None, [], 2,
     "only 25 candidate POIs for min_pois=30", None),
    ("validate", None, b"[[POI: Ribeira]]\n", [], 2,
     "places.csv: line 3: could not convert string to float: 'west'",
     b"name,lon,lat\nRibeira,-8.6132,41.1406\nBolhao,west,41.1497\n"),
    ("validate", None, b"[[POI: Ribeira]]\n", [], 2,
     "places.csv: line 2: latitude out of range: 95.0", b"name,lon,lat\nRibeira,-8.6,95\n"),
    ("validate", None, b"[[POI: Ribeira]]\n", [], 2,
     "places.csv: line 2: no 'name' column", b"title,lon,lat\nRibeira,-8.6,41.1\n"),
    ("validate", None, b"[[POI: Ribeira]]\n", [], 2,
     "places.csv: line 2: POI name must be non-empty", b"name,lon,lat\n,-8.6,41.1\n"),
    ("validate", None, b"[[POI: Ribeira]]\n", [], 2,
     "places.csv: line 3: not UTF-8 text",
     "name,lon,lat\nRibeira,-8.6,41.1\nS\xe3o Bento,-8.61,41.15\n".encode("latin-1")),
], ids=["max-words-0", "rate-limit-0", "rate-limit-1e-300", "removed-require-geocode",
        "removed-min-grounded-fraction", "negative-trajectory-threshold",
        "negative-hotspot-threshold", "nan", "not-a-number",
        "unknown-key", "latin1-config", "latin1-config-validate",
        "latin1-story-validate", "latin1-story-map", "map-negative-cluster-distance",
        "map-bad-selection",
        "removed-discovery-radius", "removed-trajectory-samples", "oversized-grid",
        "threshold-past-the-antipode", "fixture-non-numeric-lon", "fixture-lat-95",
        "fixture-no-name-column", "fixture-empty-name", "fixture-latin1"])
def test_hostile_input_gets_a_stable_exit_code(capsys, tmp_path, cluster_csv, command,
                                               config, story, flags, code, message,
                                               fixture):
    if fixture is not None:
        (tmp_path / "places.csv").write_bytes(fixture)
        config = (config or b"") + f"fixture = {tmp_path / 'places.csv'}\n".encode()
    argv = [command]
    if story is not None:
        (tmp_path / "story.txt").write_bytes(story)
        argv.append(str(tmp_path / "story.txt"))
    if command != "map":
        argv += ["--dataset", str(cluster_csv)]
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    got, _, err = run(capsys, *argv, "--offline", "--output-dir", str(tmp_path / "out"),
                      *flags)
    assert got == code
    assert message in err


def _with_step(exc, step):
    exc.step = step
    return exc


# Each error class with the exit code the README gives it and the first line
# it prints on stderr.
EXIT_TABLE = [
    (errors.TrajstoryError("boom"), 2, "error: boom"),
    (errors.ConfigurationError("boom"), 2, "configuration error: boom"),
    (errors.ParseError("boom"), 3, "error: boom"),
    (errors.NotFoundError("boom"), 2, "error: boom"),
    (errors.InfrastructureError("boom"), 4, "infrastructure error: boom"),
    (errors.ProtocolError("boom"), 4, "infrastructure error: boom"),
    (_with_step(errors.ProtocolError("boom"), "generate"), 4,
     "infrastructure error (step: generate): boom"),
    (errors.MalformedStoryError("boom"), 2, "error: boom"),
    (errors.StoryValidationError("boom"), 5, "validation failure: boom"),
    (OSError("boom"), 2, "error: boom"),
]


def test_exit_table_covers_every_error_class():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, Exception)}
    assert classes == {type(exc) for exc, _, _ in EXIT_TABLE} - {OSError}


@pytest.mark.parametrize("exc, code, line", EXIT_TABLE,
                         ids=[f"{type(e).__name__}{'-step' if getattr(e, 'step', None) else ''}"
                              for e, _, _ in EXIT_TABLE])
def test_each_error_class_maps_to_its_exit_code_and_label(capsys, monkeypatch, exc, code,
                                                          line):
    def stub(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_ingest", stub)
    got, out, err = run(capsys, "ingest", "trips.csv")
    assert (got, out, err.splitlines()[0]) == (code, "", line)


def online_config(tmp_path, loopback, extra=""):
    cfg = tmp_path / "online.cfg"
    cfg.write_text(f"offline = false\ngazetteer_url = {loopback.url}\n"
                   f"rate_limit = 1000\n{extra}")
    return cfg


class TestStepTags:
    """A gazetteer outage reaches the CLI tagged with the step it hit."""

    def test_outage_in_discovery(self, capsys, tmp_path, cluster_csv, loopback):
        loopback.reply = lambda r: (500, b"{}")
        cfg = online_config(tmp_path, loopback)
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--config", str(cfg), "--output-dir", str(tmp_path / "out"))
        assert code == 4
        assert "(step: discovery)" in err

    def test_outage_in_validate(self, capsys, tmp_path, cluster_csv, loopback):
        # area searches (discovery) succeed; looking up a name fails
        loopback.reply = lambda r: (200, b"[]") if r["query"]["q"] == "" else (500, b"{}")
        story = "A stop at [[POI: Atlantis Pier]].\n"
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps([story]))
        cfg = online_config(tmp_path, loopback,
                            f"responses_file = {responses}\nmin_pois = 1\n")
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--backend", "scripted", "--config", str(cfg),
                           "--output-dir", str(tmp_path / "out"))
        assert code == 4
        assert "(step: validate)" in err
        (tmp_path / "story.txt").write_text(story, encoding="utf-8")
        code, _, err = run(capsys, "validate", str(tmp_path / "story.txt"),
                           "--dataset", str(cluster_csv), "--config", str(cfg))
        assert code == 4
        assert "(step: validate)" in err

    def test_grading_stops_at_the_first_failed_lookup(self, capsys, tmp_path, route_file,
                                                      loopback):
        loopback.reply = lambda r: (500, b"{}")
        story = tmp_path / "story.txt"
        story.write_text("[[POI: Ghost Pier]], [[POI: Ghost Mill]] and [[POI: Ghost Quay]].\n",
                         encoding="utf-8")
        code, _, err = run(capsys, "validate", str(story), "--dataset", str(route_file),
                           "--schema", "point_list",
                           "--config", str(online_config(tmp_path, loopback)))
        assert code == 4
        assert "(step: validate)" in err
        assert [r["query"]["q"] for r in loopback.seen] == ["Ghost Pier"]


class TestOnlineDiscovery:
    """Online discovery asks the gazetteer for the evidence area exactly once."""

    def test_region_bias_bounds_the_remote_search(self, capsys, tmp_path, loopback):
        cfg = online_config(tmp_path, loopback, "region_bias = -8.7,41.0,-8.5,41.3\n")
        story = tmp_path / "story.txt"
        story.write_text("A stop at [[POI: Atlantis Pier]].\n", encoding="utf-8")
        argv = ["map", str(story), "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        req = cli.build_request(cli.load_settings(cli._build_parser().parse_args(argv)))
        assert req.gazetteer.region_bias == BoundingBox(-8.7, 41.0, -8.5, 41.3)
        hit = [{"name": "Atlantis Pier", "lon": "-8.6", "lat": "41.1"}]
        loopback.reply = lambda r: (200, json.dumps(hit).encode())
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert [(r["query"]["q"], r["query"]["viewbox"], r["query"]["bounded"])
                for r in loopback.seen] == [("Atlantis Pier", "-8.7,41.0,-8.5,41.3", "1")]

    @pytest.mark.parametrize("mode", ["heatmap", "single_trajectory"])
    def test_one_area_query_per_story(self, capsys, tmp_path, cluster_csv, route_file,
                                      loopback, mode):
        dataset = ["--dataset", str(cluster_csv)] if mode == "heatmap" else \
            ["--dataset", str(route_file), "--schema", "point_list", "--min-pois", "5"]
        cfg = online_config(tmp_path, loopback)
        code, _, _ = run(capsys, "story", *dataset, "--mode", mode, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out"))
        assert code == 0
        assert [r["query"]["q"] for r in loopback.seen] == [""]
        assert loopback.seen[0]["query"]["bounded"] == "1"


class TestStoryValidateParity:
    """``story --config C`` and ``validate --config C`` grade a story the same way."""

    @pytest.mark.parametrize("mode", ["heatmap", "single_trajectory"])
    def test_same_config_same_report(self, capsys, tmp_path, cluster_csv, route_file,
                                     mode):
        if mode == "heatmap":
            keys = (f"dataset = {cluster_csv}\nmode = heatmap\n"
                    "min_pois = 15\nmax_words = 150\nhotspot_threshold_m = 900\n")
        else:
            keys = (f"dataset = {route_file}\nschema = point_list\n"
                    "mode = single_trajectory\n"
                    "trajectory_threshold_m = 400\nmin_pois = 5\nmax_words = 200\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(keys)
        story_dir, validate_dir = tmp_path / "story", tmp_path / "validate"
        code, _, _ = run(capsys, "story", "--config", str(cfg),
                         "--output-dir", str(story_dir))
        assert code == 0
        code, _, _ = run(capsys, "validate", str(story_dir / "story.txt"),
                         "--config", str(cfg), "--output-dir", str(validate_dir))
        assert code == 0
        assert (validate_dir / "report.json").read_bytes() \
            == (story_dir / "report.json").read_bytes()

    def test_validate_honours_the_configured_threshold(self, capsys, tmp_path,
                                                       route_file):
        story = tmp_path / "story.txt"
        story.write_text("Past [[POI: Ribeira]] to [[POI: Foz do Douro]].\n",
                         encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schema = point_list\ntrajectory_threshold_m = 100000000\n")
        code, out, _ = run(capsys, "validate", str(story), "--dataset", str(route_file),
                           "--config", str(cfg))
        assert code == 0
        assert "Foz do Douro: grounded" in out


class TestTripStaysAnArray:
    """``validate`` and ``map`` build GeoPoints for places and markers, not per trace point."""

    def test_geopoints_are_bounded_by_names_and_markers(self, capsys, tmp_path,
                                                        monkeypatch):
        names = CENTRAL_ROUTE_NAMES + FAR_POI_NAMES
        # a gazetteer that knows exactly the story's places
        with open(default_fixture_path(), encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["name"] in names]
        assert len(rows) == len(names)
        fixture = tmp_path / "places.csv"
        with open(fixture, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fixture = {fixture}\nschema = point_list\n", encoding="utf-8")
        trace = tmp_path / "walk.txt"
        walk = backtracking_walk(random.Random(3000), steps=2999)
        trace.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in walk))
        story = tmp_path / "story.txt"
        story.write_text(" ".join(f"[[POI: {name}]]." for name in names) + "\n",
                         encoding="utf-8")

        built = [0]
        check_range = GeoPoint.__post_init__

        def counted(point):
            built[0] += 1
            check_range(point)

        monkeypatch.setattr(GeoPoint, "__post_init__", counted)
        common = ["--dataset", str(trace), "--config", str(cfg), "--offline"]
        code, out, _ = run(capsys, "validate", str(story), *common,
                           "--output-dir", str(tmp_path / "validate"))
        assert code in (0, 5) and f"{len(names)} spans parsed" in out
        assert built[0] <= len(names) < len(walk)
        built[0] = 0
        code, out, _ = run(capsys, "map", str(story), *common,
                           "--output-dir", str(tmp_path / "map"))
        assert code == 0
        markers = int(re.search(r"markers: (\d+)", out).group(1))
        assert built[0] <= len(names) + markers < len(walk)


class TestOneRulePerRun:
    """Each run builds one grounding rule, however many attempts it grades."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built = []
        init = GroundingRule.__init__

        def counted(rule, *args, **kwargs):
            built.append(rule)
            init(rule, *args, **kwargs)

        monkeypatch.setattr(GroundingRule, "__init__", counted)
        return built

    def test_scripted_heatmap_story_with_three_graded_attempts(self, capsys, tmp_path,
                                                               cluster_csv, built):
        unknown = "All roads lead to [[POI: Atlantis Pier]].\n"
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps(
            [unknown, unknown, "The day ends at [[POI: Avenida dos Aliados]].\n"]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"responses_file = {responses}\nmin_pois = 1\n")
        code, out, _ = run(capsys, "story", "--dataset", str(cluster_csv), "--offline",
                           "--backend", "scripted", "--config", str(cfg),
                           "--output-dir", str(tmp_path / "out"))
        assert code == 0 and "after 3 attempt(s)" in out
        assert len(built) == 1

    def test_shipped_default_single_trajectory_story(self, capsys, tmp_path, route_file,
                                                     built):
        code, out, _ = run(capsys, "story", "--dataset", str(route_file), "--offline",
                           "--schema", "point_list", "--mode", "single_trajectory",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 0 and "after 1 attempt(s)" in out
        assert len(built) == 1

    def test_validate_command(self, capsys, tmp_path, route_file, built):
        story = tmp_path / "story.txt"
        story.write_text("Past [[POI: Ribeira]] to [[POI: Foz do Douro]].\n",
                         encoding="utf-8")
        code, _, _ = run(capsys, "validate", str(story), "--dataset", str(route_file),
                         "--schema", "point_list", "--offline")
        assert code == 5
        assert len(built) == 1


class TestReadme:
    """The README's config key list and flag table match the CLI's table, and
    each test its guarantee table names exists."""

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_lists_every_config_key(self):
        section = self.readme.split("### Config files", 1)[1]
        key_list = section.split("Recognized keys:", 1)[1].strip().split("\n\n", 1)[0]
        assert set(re.findall(r"`([a-z_]+)`", key_list)) == set(CONFIG_KEYS)

    def test_names_an_existing_test_for_each_guarantee(self):
        section = self.readme.split("### Guarantees and their tests", 1)[1]
        table = section[section.index("\n| "):].split("\n\n", 1)[0]
        rows = table.strip().splitlines()[2:]
        assert len(rows) >= 9
        root = Path(__file__).resolve().parents[1]
        for row in rows:
            ids = re.findall(r"`(tests/\w+\.py(?:::\w+)+)`", row)
            assert ids, row
            for test_id in ids:
                path, *names = test_id.split("::")
                scope = ast.parse((root / path).read_text(encoding="utf-8")).body
                for name in names:
                    node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                                 and n.name == name), None)
                    assert node is not None, test_id
                    scope = node.body

    def test_lists_each_commands_flags(self):
        rows = dict(re.findall(r"^\| `([a-z]+)` \| (.*) \|$", self.readme, re.M))
        assert rows.keys() == COMMAND_FLAGS.keys()
        for command, keys in COMMAND_FLAGS.items():
            assert set(re.findall(r"`(--[a-z-]+)`", rows[command])) \
                == {CONFIG_KEYS[key][1] for key in keys}, command


# Values a hand-edited config might hold: numbers of every size and sign,
# booleans, the enumerated words, boxes and free text.
_config_values = st.one_of(
    st.sampled_from(["0", "-1", "1", "3", "0.5", "1e-9", "1e-300", "1e308", "nan", "-inf",
                     "true", "off", "", "heatmap", "single_trajectory", "point_list",
                     "kaggle_porto", "by_id", "longest_by_length", "synt000001",
                     "-8.7,41.0,-8.5,41.3", "1,2,3"]),
    st.integers(-10**9, 10**9).map(str),
    st.floats(allow_nan=False).map(repr),
    st.text(st.characters(blacklist_characters="#=\r\n", blacklist_categories=("Cs",)),
            max_size=12),
)


@pytest.fixture(scope="module")
def tiny_trips(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "trips.csv"
    write_kaggle_csv(generate_dataset(SyntheticSpec(seed=3, n_trajectories=12)), path,
                     bad_rows=2, seed=3)
    story = path.with_name("story.txt")
    story.write_text("By [[POI: Ribeira]] and [[POI: Atlantis Pier]].\n", encoding="utf-8")
    return path, story


# ``backend`` stays the offline template: a fuzzed remote backend could reach out.
@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["ingest", "heatmap", "story", "validate", "map"]),
       config=st.dictionaries(st.sampled_from(sorted(set(CONFIG_KEYS) - {"backend"})),
                              _config_values, max_size=6))
def test_fuzzed_config_ends_in_a_documented_exit_code(tiny_trips, tmp_path_factory,
                                                      command, config):
    trips, story = tiny_trips
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    argv = {"ingest": [str(trips)], "heatmap": [str(trips)],
            "story": ["--dataset", str(trips)],
            "validate": [str(story), "--dataset", str(trips)],
            "map": [str(story), "--dataset", str(trips)]}[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *argv, "--config", str(cfg), "--offline",
                     "--output-dir", str(cfg.parent / "out")])
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()


# The markup pieces of tests/test_story.py's fuzzer, as whole story files.
_hostile_story = st.lists(st.sampled_from(["[[POI:", "]]", "[[", "\x00", "é", "\n", " ",
                                           "Ribeira", "Atlantis Pier"]),
                          max_size=30).map("".join)


@settings(max_examples=150, deadline=None)
@given(text=_hostile_story)
def test_fuzzed_story_markup_ends_in_a_documented_exit_code(tiny_trips, tmp_path_factory, text):
    trips, _ = tiny_trips
    story = tmp_path_factory.mktemp("story") / "story.txt"
    story.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(story), "--dataset", str(trips), "--offline",
                     "--output-dir", str(story.parent / "out")])
    event(f"exit {code}")
    assert code in (0, 2, 3, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()

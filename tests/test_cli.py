import contextlib
import csv
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import CENTRAL_ROUTE_NAMES, FAR_POI_NAMES
from oracles import reference_segment_distances
from trajstory.cli import COMMAND_FLAGS, CONFIG_KEYS, main, parse_config
from trajstory.errors import ConfigurationError
from trajstory.geo import GeoPoint
from trajstory.ingest import KAGGLE_COLUMNS, parse_dataset, trip_endpoints
from trajstory.synth import SyntheticSpec, generate_dataset, write_kaggle_csv


@pytest.fixture()
def route_file(tmp_path, central_route):
    path = tmp_path / "downtown.txt"
    path.write_text("".join(f"{p.lon!r},{p.lat!r}\n" for p in central_route))
    return path


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
        assert f"endpoints: {len(trip_endpoints(ds))}" in lines
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

    def test_validation_exhaustion_exits_5_and_keeps_the_report(
            self, capsys, cluster_csv, tmp_path):
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps(
            ["A stop at [[POI: Atlantis Pier]].\n"] * 2))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"responses_file = {responses}\nmin_pois = 1\n")
        out_dir = tmp_path / "failed"
        code, _, err = run(capsys, "story", "--dataset", str(cluster_csv),
                           "--config", str(cfg), "--backend", "scripted",
                           "--max-retries", "2", "--offline",
                           "--output-dir", str(out_dir))
        assert code == 5
        assert "2 attempt(s)" in err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["overall"] == "fail"
        assert (out_dir / "story.txt").read_text(encoding="utf-8") \
            == "A stop at [[POI: Atlantis Pier]].\n"

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

    def test_legend_names_the_places_validation_grades(self, capsys, tmp_path,
                                                      route_file):
        story = tmp_path / "story.txt"
        story.write_text("Past [[POI: Ribeira]], [[POI: RIBEIRA]], [[POI: Aliados Avenue]] "
                         "and [[POI: Avenida dos Aliados]].\n", encoding="utf-8")
        data = ["--dataset", str(route_file), "--schema", "point_list"]
        code, _, _ = run(capsys, "map", str(story), *data,
                         "--output-dir", str(tmp_path / "map"))
        assert code == 0
        code, _, _ = run(capsys, "validate", str(story), *data,
                         "--output-dir", str(tmp_path / "rep"))
        assert code == 0
        geo = json.loads((tmp_path / "map" / "map.geojson").read_text(encoding="utf-8"))
        report = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        assert [name for _, name in geo["legend"]] == [p["name"] for p in report["per_poi"]] \
            == ["Ribeira", "Aliados Avenue", "Avenida dos Aliados"]

    def test_nothing_mappable_is_a_config_error(self, capsys, tmp_path):
        story = tmp_path / "story.txt"
        story.write_text("Only [[POI: Atlantis Pier]] here.\n", encoding="utf-8")
        code, _, err = run(capsys, "map", str(story),
                           "--output-dir", str(tmp_path / "map"))
        assert code == 2
        assert "nothing to map" in err


LATIN1_STORY = "Past [[POI: São Bento Station]].\n".encode("latin-1")


@pytest.mark.parametrize("command, config, story, flags, code, message", [
    ("story", None, None, ["--max-words", "0"], 2, "max_words must be positive"),
    ("story", b"rate_limit = 0\n", None, [], 2, "rate_limit must be positive"),
    ("story", b"min_grounded_fraction = 2\n", None, [], 2,
     "min_grounded_fraction must be in [0, 1]"),
    ("story", b"hotspot_threshold_m = nan\n", None, [], 2, "expected a finite number"),
    ("story", b"max_words = many\n", None, [], 2, "config key max_words"),
    ("story", b"max_word = 80\n", None, [], 2, "unknown config key 'max_word'"),
    ("story", "audience = S\xe3o Paulo\n".encode("latin-1"), None, [], 2, "not UTF-8"),
    ("validate", "tone = s\xe9rieux\n".encode("latin-1"), b"[[POI: Ribeira]]\n", [], 2,
     "not UTF-8"),
    ("validate", None, LATIN1_STORY, [], 3, "not UTF-8"),
    ("map", None, LATIN1_STORY, [], 3, "not UTF-8"),
    ("map", None, b"[[POI: Ribeira]]\n", ["--cluster-distance", "-1"], 2,
     "cluster_distance_m must be >= 0"),
    ("story", b"discovery_radius_m = 300\n", None, [], 2,
     "unknown config key 'discovery_radius_m'"),
    ("story", b"trajectory_samples = 20\n", None, [], 2,
     "unknown config key 'trajectory_samples'"),
    ("story", b"cell_size_m = 0.5\n", None, [], 2, "raise cell_size_m"),
    ("story", b"hotspot_threshold_m = 1e308\nmin_pois = 30\n", None, [], 2,
     "only 25 candidate POIs for min_pois=30"),
], ids=["max-words-0", "rate-limit-0", "fraction-2", "nan", "not-a-number",
        "unknown-key", "latin1-config", "latin1-config-validate",
        "latin1-story-validate", "latin1-story-map", "map-negative-cluster-distance",
        "removed-discovery-radius", "removed-trajectory-samples", "oversized-grid",
        "threshold-past-the-antipode"])
def test_hostile_input_gets_a_stable_exit_code(capsys, tmp_path, cluster_csv, command,
                                               config, story, flags, code, message):
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


class TestOnlineDiscovery:
    """Online discovery asks the gazetteer for the evidence area exactly once."""

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
        cfg.write_text(keys + "require_geocode = false\nmin_grounded_fraction = 0.9\n")
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


class TestReadme:
    """The README's config key list and flag table match the CLI's table."""

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_lists_every_config_key(self):
        section = self.readme.split("### Config files", 1)[1]
        key_list = section.split("Recognized keys:", 1)[1].strip().split("\n\n", 1)[0]
        assert set(re.findall(r"`([a-z_]+)`", key_list)) == set(CONFIG_KEYS)

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

import json
import math
import multiprocessing
import threading

import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import brute_force_near, haversine_distance
from trajstory.errors import ConfigurationError, InfrastructureError, ProtocolError
from trajstory.gazetteer import (Gazetteer, GazetteerConfig, POI,
                                 default_fixture_path, normalize_name)
from trajstory.geo import BoundingBox, GeoPoint, as_coords
from trajstory.pipeline import discover
from trajstory.validation import GroundingRule

ALIADOS = GeoPoint(-8.6107, 41.1480)
WORLD = BoundingBox(-180.0, -90.0, 180.0, 90.0)


class RecordingFetch:
    def __init__(self, payload=None, errors=None):
        self.calls = []
        self.payload = payload if payload is not None else []
        self.errors = errors or {}

    def __call__(self, url, params):
        self.calls.append((url, dict(params)))
        q = params.get("q", "")
        if q in self.errors:
            raise self.errors[q]
        if callable(self.payload):
            return self.payload(q)
        return self.payload


def online_cfg(**kw):
    kw.setdefault("offline_only", False)
    kw.setdefault("base_url", "https://geo.example/api")
    return GazetteerConfig(**kw)


def remote_item(name, lon, lat, category="attraction"):
    return {"name": name, "lon": str(lon), "lat": str(lat), "category": category}


class TestNormalization:
    @pytest.mark.parametrize("raw,expected", [
        ("São Bento Station", "sao bento station"),
        ("  CLÉRIGOS   Tower ", "clerigos tower"),
        ("Praça da Liberdade", "praca da liberdade"),
        ("plain name", "plain name"),
    ])
    def test_folds_case_diacritics_and_whitespace(self, raw, expected):
        assert normalize_name(raw) == expected

    def test_poi_requires_a_name(self):
        with pytest.raises(ValueError):
            POI(name="", location=ALIADOS)


class TestConfig:
    def test_rate_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            GazetteerConfig(rate_limit=0)

    @pytest.mark.parametrize("rate_limit", [1e-300, 5e-324, float("nan")])
    def test_a_rate_limit_time_sleep_cannot_wait_out_is_rejected(self, rate_limit):
        # time.sleep(1e300) raises OverflowError; nan compares false with everything
        with pytest.raises(ValueError, match="rate_limit must be positive, with at most"):
            GazetteerConfig(rate_limit=rate_limit, offline_only=False)

    def test_the_smallest_rate_limit_waits_its_interval(self):
        smallest = 2.0 / threading.TIMEOUT_MAX
        with pytest.raises(ValueError, match="rate_limit"):
            GazetteerConfig(rate_limit=math.nextafter(smallest, 0.0), offline_only=False)
        ft = FakeTime()
        gaz = Gazetteer(online_cfg(rate_limit=smallest), fetch=RecordingFetch([]),
                        clock=ft.clock, sleep=ft.sleep)
        gaz.geocode("one")
        gaz.geocode("two")
        assert ft.sleeps == [threading.TIMEOUT_MAX / 2]

    def test_offline_needs_a_fixture(self):
        with pytest.raises(ValueError):
            GazetteerConfig(offline_only=True, fixture_path="")


class TestFixtureLookups:
    def test_packaged_fixture_loads(self, gazetteer):
        pois = gazetteer.known_pois(WORLD)
        assert len(pois) == 25
        assert all(p.source == "fixture" for p in pois)

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """The shipped fixture saved with a BOM loads as it is; a byte that is not
        UTF-8 is still reported on its own line."""
        marked = tmp_path / "pois.csv"
        with open(default_fixture_path(), "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert Gazetteer._load_fixture(str(marked)) == \
            Gazetteer._load_fixture(default_fixture_path())
        marked.write_bytes(b"\xef\xbb\xbfname,lon,lat\n\xff,-8.6,41.1\n")
        with pytest.raises(ConfigurationError, match="line 2: not UTF-8"):
            Gazetteer._load_fixture(str(marked))

    def test_alias_and_diacritic_insensitive_hits(self, gazetteer):
        direct = gazetteer.geocode("Avenida dos Aliados")
        via_alias = gazetteer.geocode("Aliados Avenue")
        sloppy = gazetteer.geocode("  avenida  DOS aliados ")
        assert direct is via_alias is sloppy
        assert direct.location == ALIADOS

    def test_unknown_name_offline_is_none(self, gazetteer):
        assert gazetteer.geocode("Atlantis Pier") is None

    def test_empty_name_rejected(self, gazetteer):
        with pytest.raises(ValueError):
            gazetteer.geocode("   ")

    def test_offline_never_touches_the_network(self):
        fetch = RecordingFetch()
        gaz = Gazetteer(GazetteerConfig(), fetch=fetch)
        gaz.geocode("Atlantis Pier")
        gaz.known_pois(WORLD)
        pois_near(gaz, ALIADOS, 2000.0)
        assert fetch.calls == []


class TestRemoteLeg:
    def test_search_params_and_result(self):
        fetch = RecordingFetch([remote_item("Sea Terminal", -8.65, 41.18)])
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        poi = gaz.geocode("Sea Terminal")
        assert poi.source == "remote"
        assert poi.location == GeoPoint(-8.65, 41.18)
        url, params = fetch.calls[0]
        assert url == "https://geo.example/api/search"
        assert params == {"q": "Sea Terminal", "format": "json", "limit": "1"}

    def test_an_online_gazetteer_needs_no_fixture(self):
        fetch = RecordingFetch([remote_item("Ribeira", -8.61, 41.14)])
        gaz = Gazetteer(online_cfg(fixture_path=""), fetch=fetch)
        poi = gaz.geocode("Ribeira")        # a name the packaged fixture knows
        assert (poi.source, poi.location) == ("remote", GeoPoint(-8.61, 41.14))
        assert [params["q"] for _, params in fetch.calls] == ["Ribeira"]

    def test_region_bias_adds_bounded_viewbox(self):
        box = BoundingBox(-8.7, 41.0, -8.5, 41.3)
        fetch = RecordingFetch([])
        gaz = Gazetteer(online_cfg(region_bias=box), fetch=fetch)
        gaz.geocode("Sea Terminal")
        _, params = fetch.calls[0]
        assert params["viewbox"] == "-8.7,41.0,-8.5,41.3"
        assert params["bounded"] == "1"

    def test_remote_hit_is_cached_in_memory(self):
        fetch = RecordingFetch([remote_item("Sea Terminal", -8.65, 41.18)])
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        first = gaz.geocode("Sea Terminal")
        second = gaz.geocode("sea terminal")
        assert len(fetch.calls) == 1
        assert second.location == first.location
        assert second.source == "cache"

    def test_fixture_beats_remote(self):
        fetch = RecordingFetch([remote_item("Wrong Place", 0.0, 0.0)])
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        poi = gaz.geocode("Clérigos Tower")
        assert poi.source == "fixture"
        assert fetch.calls == []

    def test_no_results_returns_none_and_caches_nothing(self):
        fetch = RecordingFetch([])
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        assert gaz.geocode("Sea Terminal") is None
        assert gaz.geocode("Sea Terminal") is None
        assert len(fetch.calls) == 2

    def test_non_list_payload_is_a_protocol_error(self):
        gaz = Gazetteer(online_cfg(), fetch=RecordingFetch({"error": "teapot"}))
        with pytest.raises(ProtocolError):
            gaz.geocode("Sea Terminal")

    def test_malformed_item_is_a_protocol_error(self):
        gaz = Gazetteer(online_cfg(), fetch=RecordingFetch([{"name": "x"}]))
        with pytest.raises(ProtocolError):
            gaz.geocode("Sea Terminal")

    @pytest.mark.parametrize("name", [5, ["x"]])
    def test_non_string_name_is_a_protocol_error(self, name):
        item = {**remote_item("Sea Terminal", -8.65, 41.18), "name": name}
        gaz = Gazetteer(online_cfg(), fetch=RecordingFetch([item]))
        with pytest.raises(ProtocolError):
            gaz.geocode("Sea Terminal")
        with pytest.raises(ProtocolError):
            gaz.known_pois(WORLD)

    def test_a_number_too_large_for_a_float_is_a_protocol_error(self):
        item = {**remote_item("Sea Terminal", -8.65, 41.18), "lon": 10**400}
        gaz = Gazetteer(online_cfg(), fetch=RecordingFetch([item]))
        with pytest.raises(ProtocolError, match="malformed search result"):
            gaz.geocode("Sea Terminal")

    def test_transport_error_propagates(self):
        fetch = RecordingFetch(errors={"Sea Terminal": InfrastructureError("down")})
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        with pytest.raises(InfrastructureError):
            gaz.geocode("Sea Terminal")


class TestCacheJournal:
    def test_remote_hit_lands_in_the_journal_and_survives_restart(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        fetch = RecordingFetch([remote_item("Sea Terminal", -8.65, 41.18)])
        gaz = Gazetteer(online_cfg(cache_path=str(cache)), fetch=fetch)
        gaz.geocode("Sea Terminal")
        assert len(fetch.calls) == 1

        fetch2 = RecordingFetch([])
        gaz2 = Gazetteer(online_cfg(cache_path=str(cache)), fetch=fetch2)
        poi = gaz2.geocode("Sea Terminal")
        assert poi is not None
        assert poi.source == "cache"
        assert fetch2.calls == []

    def test_last_journal_entry_wins(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        lines = [
            {"key": "sea terminal|none", "name": "Sea Terminal",
             "lon": -8.65, "lat": 41.18, "category": None, "blurb": None,
             "ts": "2026-01-01T00:00:00+00:00"},
            {"key": "sea terminal|none", "name": "Sea Terminal",
             "lon": -8.66, "lat": 41.19, "category": None, "blurb": None,
             "ts": "2026-01-02T00:00:00+00:00"},
        ]
        cache.write_text("".join(json.dumps(e) + "\n" for e in lines))
        gaz = Gazetteer(online_cfg(cache_path=str(cache)), fetch=RecordingFetch([]))
        assert gaz.geocode("Sea Terminal").location == GeoPoint(-8.66, 41.19)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = {"key": "sea terminal|none", "name": "Sea Terminal",
                "lon": -8.65, "lat": 41.18, "category": None, "blurb": None,
                "ts": "2026-01-01T00:00:00+00:00"}
        cache.write_text(json.dumps(good) + "\n" + '{"key": "half')
        gaz = Gazetteer(online_cfg(cache_path=str(cache)), fetch=RecordingFetch([]))
        assert gaz.geocode("Sea Terminal") is not None

    def test_blank_lines_are_skipped(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        lines = [json.dumps({"key": f"{name.lower()}|none", "name": name,
                             "lon": -8.65, "lat": 41.18}) for name in ("Sea Terminal", "Ribeira")]
        cache.write_text("\n" + lines[0] + "\n\n \t\r\n" + lines[1] + "\n\n")
        assert sorted(Gazetteer._load_cache(str(cache))) == ["ribeira|none", "sea terminal|none"]

    def test_foreign_lines_are_skipped_like_torn_ones(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        entry = {"key": "sea terminal|none", "name": "Sea Terminal",
                 "lon": -8.65, "lat": 41.18, "category": None, "blurb": None}
        no_key = {k: v for k, v in entry.items() if k != "key"}
        list_key = {**entry, "key": ["sea terminal", "none"]}
        int_key = {**entry, "key": 7}
        int_name = {**entry, "key": "k|none", "name": 7}
        list_name = {**entry, "key": "x|none", "name": ["x"]}
        huge_lon = {**entry, "key": "x|none", "lon": 10**400}   # too large for a float
        surrogate = {**entry, "key": "y|none", "name": "\ud800"}  # no UTF-8 file holds it
        latin1 = json.dumps({**entry, "key": "s\xe3o bento|none"},
                            ensure_ascii=False).encode("latin-1")
        cache.write_bytes(b"\n".join([json.dumps(no_key).encode(), json.dumps(list_key).encode(),
                                      json.dumps(int_key).encode(),
                                      json.dumps(int_name).encode(),
                                      json.dumps(list_name).encode(),
                                      json.dumps(huge_lon).encode(),
                                      json.dumps(surrogate).encode(),
                                      b"[" * 100_000 + b"]" * 100_000,     # nested too deep
                                      latin1, json.dumps(entry).encode(), b""]))
        index = Gazetteer._load_cache(str(cache))
        assert list(index) == ["sea terminal|none"]
        assert index["sea terminal|none"].location == GeoPoint(-8.65, 41.18)

    def test_coordinates_are_read_as_numbers_like_the_other_legs(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"key": "sea terminal|none", "name": "Sea Terminal",
                                     "lon": "-8.65", "lat": "41.18"}) + "\n")
        poi = Gazetteer._load_cache(str(cache))["sea terminal|none"]
        assert poi.location == GeoPoint(-8.65, 41.18)
        assert type(poi.location.lon) is type(poi.location.lat) is float


BIAS_BOX = BoundingBox(-8.7, 41.0, -8.5, 41.3)
_journal_names = st.sampled_from(["Sea Terminal", "Terminal de Cruzeiros", "Ribeira",
                                  "  RIBEIRA", "Sé do Porto", "Porto Cathedral",
                                  "Atlantis Pier"])
_journal_entries = st.fixed_dictionaries({
    "key": st.builds(lambda query, bias: f"{normalize_name(query)}|{bias}", _journal_names,
                     st.sampled_from(["none", "-8.7,41.0,-8.5,41.3"])),
    "name": _journal_names,
    "lon": st.floats(-8.70, -8.55), "lat": st.floats(41.10, 41.20)}).map(json.dumps)
_journal_lines = st.one_of(
    _journal_entries,
    st.tuples(_journal_entries, st.integers(1, 40)).map(lambda t: t[0][:t[1]]))


class TestCacheOffersWhatItResolves:
    """Every place ``known_pois`` offers, ``geocode`` of its name resolves to it."""

    def test_a_hit_named_apart_from_its_query_is_found_by_its_name(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"key": "sea terminal|none",
                                     "name": "Terminal de Cruzeiros",
                                     "lon": -8.7037, "lat": 41.1855}) + "\n")
        gaz = Gazetteer(GazetteerConfig(cache_path=str(cache)))
        terminal = gaz.geocode("Terminal de Cruzeiros")
        assert terminal == gaz.geocode("Sea Terminal")
        assert terminal.location == GeoPoint(-8.7037, 41.1855)
        assert terminal in gaz.known_pois(WORLD)

    def test_a_remote_hit_is_found_by_its_name_in_the_same_run(self):
        fetch = RecordingFetch([remote_item("Terminal de Cruzeiros", -8.7037, 41.1855)])
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        gaz.geocode("Sea Terminal")
        assert gaz.geocode("Terminal de Cruzeiros").source == "cache"
        assert len(fetch.calls) == 1

    def test_a_query_key_wins_over_another_entry_named_like_it(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        entries = [{"key": "pier|none", "name": "Sea Terminal", "lon": -8.66, "lat": 41.19},
                   {"key": "sea terminal|none", "name": "Sea Terminal",
                    "lon": -8.65, "lat": 41.18}]
        for order in (entries, entries[::-1]):
            cache.write_text("".join(json.dumps(e) + "\n" for e in order))
            gaz = Gazetteer(GazetteerConfig(cache_path=str(cache)))
            assert gaz.geocode("Sea Terminal").location == GeoPoint(-8.65, 41.18)
            assert gaz.geocode("pier").location == GeoPoint(-8.66, 41.19)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_journal_lines, max_size=8),
           bias=st.sampled_from([None, BIAS_BOX]))
    def test_every_offered_place_geocodes_to_itself(self, tmp_path_factory, lines, bias):
        cache = tmp_path_factory.mktemp("journal") / "cache.jsonl"
        cache.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        gaz = Gazetteer(GazetteerConfig(cache_path=str(cache), region_bias=bias))
        offered = gaz.known_pois(WORLD)
        event(f"{sum(p.source == 'cache' for p in offered)} cached places offered")
        for poi in offered:
            assert gaz.geocode(poi.name) == poi, poi.name


def _append_entries(cache_path, worker, count):
    """One writer process: ``count`` remote hits, each appended to the journal."""
    def fetch(url, params):
        i = int(params["q"].rsplit("-", 1)[1])
        return [{"name": params["q"], "lon": str(-8.0 - worker / 10),
                 "lat": str(41.0 + i / 1000), "blurb": f"entry {i} of writer {worker} " * 40}]
    gaz = Gazetteer(online_cfg(cache_path=cache_path), fetch=fetch, sleep=lambda s: None)
    for i in range(count):
        gaz.geocode(f"place {worker}-{i}")


class TestConcurrentWriters:
    def test_four_processes_append_without_tearing(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        context = multiprocessing.get_context("spawn")
        writers = [context.Process(target=_append_entries, args=(str(cache), w, 200))
                   for w in range(4)]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
        assert [p.exitcode for p in writers] == [0] * 4

        lines = cache.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 800
        assert len({json.loads(line)["key"] for line in lines}) == 800
        gaz = Gazetteer(GazetteerConfig(cache_path=str(cache)))
        for w in range(4):
            for i in range(200):
                poi = gaz.geocode(f"place {w}-{i}")
                assert poi.source == "cache"
                assert poi.location == GeoPoint(-8.0 - w / 10, 41.0 + i / 1000)
                assert poi.blurb == f"entry {i} of writer {w} " * 40


class FakeTime:
    def __init__(self):
        self.t = 0.0
        self.sleeps = []

    def clock(self):
        return self.t

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.t += seconds


class TestRateLimit:
    def test_min_interval_enforced_between_remote_calls(self):
        ft = FakeTime()
        gaz = Gazetteer(online_cfg(rate_limit=2.0), fetch=RecordingFetch([]),
                        clock=ft.clock, sleep=ft.sleep)
        gaz.geocode("one")
        assert ft.sleeps == []
        gaz.geocode("two")
        assert ft.sleeps == [pytest.approx(0.5)]

    def test_sleeps_outside_the_lock_and_keeps_the_interval(self):
        ft = FakeTime()
        held, starts = [], []

        def sleep(seconds):
            held.append(gaz._lock.locked())
            ft.sleep(seconds)

        def fetch(url, params):
            starts.append(ft.t)
            return []

        gaz = Gazetteer(online_cfg(rate_limit=4.0), fetch=fetch,
                        clock=ft.clock, sleep=sleep)
        gaz.geocode("one")
        gaz.geocode("two")
        assert held == [False]
        assert starts[1] - starts[0] >= 1.0 / 4.0

    def test_no_sleep_after_enough_wall_time(self):
        ft = FakeTime()
        gaz = Gazetteer(online_cfg(rate_limit=2.0), fetch=RecordingFetch([]),
                        clock=ft.clock, sleep=ft.sleep)
        gaz.geocode("one")
        ft.t += 10.0
        gaz.geocode("two")
        assert ft.sleeps == []


def pois_near(gaz, center, radius_m):
    """The pipeline's discovery around one hotspot center grounded within ``radius_m``."""
    rule = GroundingRule(as_coords([center]), radius_m, along_path=False)
    return discover(gaz, rule)


class TestPoisNear:
    """Discovery around one hotspot center: the known POIs within its threshold."""

    def test_negative_radius_rejected(self, gazetteer):
        with pytest.raises(ValueError):
            pois_near(gazetteer, ALIADOS, -1.0)

    def test_membership_matches_brute_force(self, gazetteer):
        for radius in (0.0, 300.0, 1000.0, 3000.0):
            got = {p.name for p in pois_near(gazetteer, ALIADOS, radius)}
            want = brute_force_near(ALIADOS, radius, gazetteer.known_pois(WORLD))
            assert got == want, f"radius {radius}"

    def test_sorted_by_distance_then_name(self, gazetteer):
        hits = pois_near(gazetteer, ALIADOS, 2000.0)
        dists = [haversine_distance(ALIADOS, p.location) for p in hits]
        assert dists == sorted(dists)

    def test_online_merges_remote_results_with_fixture_priority(self):
        remote = [remote_item("Avenida dos Aliados", 0.0, 0.0),
                  remote_item("Pop-up Market", -8.6105, 41.1482)]
        fetch = RecordingFetch(remote)
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        hits = pois_near(gaz, ALIADOS, 500.0)
        by_name = {p.name: p for p in hits}
        assert by_name["Avenida dos Aliados"].source == "fixture"
        assert by_name["Pop-up Market"].source == "remote"
        _, params = fetch.calls[0]
        assert params["bounded"] == "1"
        assert params["limit"] == "50"
        assert "viewbox" in params


class TestBulkGeocode:
    def test_results_keyed_by_given_names(self, gazetteer):
        res = gazetteer.bulk_geocode(["Clérigos Tower", "Atlantis Pier",
                                      "Clérigos Tower"])
        assert res["Clérigos Tower"].name == "Clérigos Tower"
        assert res["Atlantis Pier"] is None

    def test_transport_failures_are_aggregated_after_all_attempts(self):
        fetch = RecordingFetch(
            payload=[],
            errors={"ghost one": InfrastructureError("down"),
                    "ghost two": InfrastructureError("down")})
        gaz = Gazetteer(online_cfg(), fetch=fetch)
        with pytest.raises(InfrastructureError) as err:
            gaz.bulk_geocode(["ghost one", "Clérigos Tower", "ghost two"])
        assert "ghost one" in str(err.value)
        assert "ghost two" in str(err.value)
        assert len(fetch.calls) == 2  # both unknowns attempted despite errors


def test_default_fixture_path_points_at_packaged_data():
    assert default_fixture_path().endswith("porto_pois.csv")

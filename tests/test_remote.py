"""The README's wire protocols, pinned against a loopback HTTP server."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from trajstory.cli import main
from trajstory.errors import ProtocolError
from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import BoundingBox, GeoPoint
from trajstory.story import (NarrativeSpec, RemoteBackend, StoryContext,
                             TOKEN_ENV_VAR)
from trajstory.synth import (EndpointCluster, SyntheticSpec, generate_dataset,
                             write_kaggle_csv)

CTX = StoryContext(data_summary="endpoints: 400")


def online(url, **kw):
    return Gazetteer(GazetteerConfig(base_url=url, offline_only=False, **kw))


class TestGazetteerSearch:
    def test_get_search_with_region_bias(self, loopback):
        loopback.reply = lambda r: (200, json.dumps(
            [{"name": "Pop-up Market", "lon": "-8.61", "lat": "41.14"}]).encode())
        bias = BoundingBox(-8.7, 41.1, -8.5, 41.25)
        poi = online(loopback.url + "/", region_bias=bias).geocode("Pop-up Market")
        assert poi.location == GeoPoint(-8.61, 41.14)
        assert poi.source == "remote"
        (req,) = loopback.seen
        assert req["method"] == "GET"
        assert req["path"] == "/search"
        assert req["query"] == {"q": "Pop-up Market", "format": "json", "limit": "1",
                                "viewbox": "-8.7,41.1,-8.5,41.25", "bounded": "1"}
        assert req["headers"]["user-agent"] == "trajstory/0.1"

    def test_no_region_bias_sends_no_viewbox(self, loopback):
        assert online(loopback.url).geocode("Atlantis Pier") is None
        (req,) = loopback.seen
        assert req["query"] == {"q": "Atlantis Pier", "format": "json", "limit": "1"}


class TestStoryBackendPost:
    def test_post_body_and_bearer_token(self, loopback, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "s3cret")
        loopback.reply = lambda r: (200, b'{"text": "A stop at [[POI: Ribeira]]."}')
        backend = RemoteBackend(loopback.url + "/v1/complete", max_tokens=64,
                                temperature=0.25)
        assert backend.generate("the prompt", CTX, NarrativeSpec()) \
            == "A stop at [[POI: Ribeira]]."
        (req,) = loopback.seen
        assert req["method"] == "POST"
        assert req["path"] == "/v1/complete"
        assert json.loads(req["body"]) == {"prompt": "the prompt", "max_tokens": 64,
                                           "temperature": 0.25}
        assert req["headers"]["authorization"] == "Bearer s3cret"
        assert req["headers"]["content-type"] == "application/json"

    def test_no_token_no_authorization_header(self, loopback, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        loopback.reply = lambda r: (200, b'{"text": "x"}')
        RemoteBackend(loopback.url).generate("p", CTX, NarrativeSpec())
        assert "authorization" not in loopback.seen[0]["headers"]


@pytest.mark.parametrize("call", [
    lambda url: online(url).geocode("Atlantis Pier"),
    lambda url: RemoteBackend(url).generate("p", CTX, NarrativeSpec()),
], ids=["gazetteer", "story-backend"])
@pytest.mark.parametrize("body", [b"<html>busy</html>", b"[" * 100_000 + b"]" * 100_000,
                                  b'[{"text": "\\ud800", "name": "\\ud800", "lon": 0, "lat": 0}]'],
                         ids=["html", "nested too deep", "lone surrogate"])
def test_non_json_reply_is_a_protocol_error(loopback, call, body):
    loopback.reply = lambda r: (200, body)
    with pytest.raises(ProtocolError, match="non-JSON"):
        call(loopback.url)


def test_backend_http_500_exits_4(loopback, cluster_csv, tmp_path, capsys):
    loopback.reply = lambda r: (500, b'{"error": "overloaded"}')
    cfg = tmp_path / "remote.cfg"
    cfg.write_text(f"backend = remote\nbackend_url = {loopback.url}/v1\n")
    code = main(["story", "--dataset", str(cluster_csv), "--config", str(cfg),
                 "--offline", "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert "(step: generate)" in err and "500" in err


# -- hostile replies ----------------------------------------------------------

# JSON values of every type, with numbers a float cannot hold, NaN, ±Infinity
# and a lone surrogate escape among them.
_hostile_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([10**400, -10**400, "\ud800", "", " ", "-8.61", "41.14", "Ribeira",
                     "[[POI: Ribeira]]", "[[POI: Atlantis Pier]] [[POI:", "]]"]),
    st.text(max_size=12),
    st.lists(st.none() | st.integers() | st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.none() | st.integers(), max_size=2),
)


def _mostly(good):
    """A draw of ``good`` three times in four, else a hostile value."""
    return st.tuples(st.integers(0, 3), good, _hostile_values).map(
        lambda draw: draw[1] if draw[0] else draw[2])


# Hits and drafts that are mostly well formed get a draw past the first check
# and into discovery, grading, the map and the bundle. The hits lie by
# Ribeira, or at a number too large for a float.
_search_hits = st.fixed_dictionaries(
    {"name": _mostly(st.sampled_from(["Pop-up Market", "Ribeira", "Cais ]] [[POI: Novo",
                                      "Cais \ud800"])),
     "lon": _mostly(st.sampled_from([-8.612, "-8.612", -8.612, 10**400])),
     "lat": _mostly(st.sampled_from([41.141, "41.141", 41.141, -10**400]))},
    optional={"category": _hostile_values, "blurb": _hostile_values})
_search_payloads = _mostly(st.lists(_mostly(_search_hits), max_size=3))
_drafts = st.lists(st.sampled_from(["[[POI: Ribeira]]", "[[POI: São Bento Station]]",
                                    "[[POI: Atlantis Pier]]", "[[POI:", "]]", "\n\n", " and ",
                                    "\ud800", "\x00"]), max_size=8).map("".join)
_backend_payloads = _mostly(st.fixed_dictionaries({}, optional={"text": _mostly(_drafts)}))


@st.composite
def _bodies(draw, payloads):
    """A reply body: a payload's JSON, whole, cut short or with a byte that is not
    UTF-8; or a number with more digits, or arrays nested deeper, than
    ``json.loads`` reads."""
    body = json.dumps(draw(payloads)).encode("ascii")
    shape = draw(st.sampled_from(["whole"] * 4 + ["cut short", "not UTF-8",
                                                  "too many digits", "nested too deep"]))
    if shape == "cut short":
        body = body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    elif shape == "not UTF-8":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b"\xff" + body[at:]
    elif shape == "too many digits":
        body = b'[{"name": "Ribeira", "lon": 1' + b"0" * 5000 + b', "lat": 0, "text": 1}]'
    elif shape == "nested too deep":
        body = b"[" * 100_000 + b"]" * 100_000
    return body


@pytest.fixture(scope="module")
def ribeira_trips(tmp_path_factory):
    """Twelve trips ending by Ribeira, and a story naming it and a place only a
    search finds."""
    spec = SyntheticSpec(seed=3, n_trajectories=12, endpoint_clusters=[
        EndpointCluster(GeoPoint(-8.6134, 41.1406), 1.0, 100.0)])
    path = tmp_path_factory.mktemp("trips") / "trips.csv"
    write_kaggle_csv(generate_dataset(spec), path)
    story = path.with_name("story.txt")
    story.write_text("By [[POI: Ribeira]] and [[POI: Pop-up Market]].\n", encoding="utf-8")
    return path, story


def _ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)       # any other exception fails the test with its traceback
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["story", "map"]), body=_bodies(_search_payloads))
def test_fuzzed_search_reply_ends_in_a_documented_exit_code(loopback, ribeira_trips,
                                                            tmp_path_factory, command, body):
    trips, story = ribeira_trips
    loopback.reply = lambda r: (200, body)
    out = tmp_path_factory.mktemp("search")
    cfg = out / "online.cfg"
    cfg.write_text(f"offline = false\ngazetteer_url = {loopback.url}\nrate_limit = 1000\n"
                   f"cache = {out / 'cache.jsonl'}\nmin_pois = 1\n", encoding="utf-8")
    argv = ["--dataset", str(trips)] if command == "story" else [str(story)]
    _ends_in_a_documented_exit_code([command, *argv, "--config", str(cfg),
                                     "--output-dir", str(out / "out")])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_bodies(_backend_payloads))
def test_fuzzed_backend_reply_ends_in_a_documented_exit_code(loopback, ribeira_trips,
                                                             tmp_path_factory, body):
    trips, _ = ribeira_trips
    loopback.reply = lambda r: (200, body)
    out = tmp_path_factory.mktemp("backend")
    cfg = out / "remote.cfg"
    cfg.write_text(f"backend = remote\nbackend_url = {loopback.url}/v1\nmin_pois = 1\n"
                   "max_retries = 2\n", encoding="utf-8")
    _ends_in_a_documented_exit_code(["story", "--dataset", str(trips), "--config", str(cfg),
                                     "--offline", "--output-dir", str(out / "out")])

"""The README's wire protocols, pinned against a loopback HTTP server."""

import json

import pytest

from trajstory.cli import main
from trajstory.errors import ProtocolError
from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import BoundingBox, GeoPoint
from trajstory.story import (NarrativeSpec, RemoteBackend, StoryContext,
                             TOKEN_ENV_VAR)

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
def test_non_json_reply_is_a_protocol_error(loopback, call):
    loopback.reply = lambda r: (200, b"<html>busy</html>")
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

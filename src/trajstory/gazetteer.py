"""Resolve place names to coordinates: fixture store, journal cache, remote API.

Lookup order is cache, then fixture, then remote; the first hit wins and
remote hits are appended to the cache journal. Under ``offline_only`` the
remote leg is never taken, which makes every lookup a pure function of two
files -- the property the deterministic tests lean on.

The fixture is a UTF-8 CSV with columns name, aliases, lon, lat, category,
blurb; aliases are separated by ``|``. The cache is a JSON-lines journal,
append-only so concurrent writers cannot corrupt each other; on load the
last entry per key wins.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
import unicodedata
import urllib.parse
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable

from .errors import ConfigurationError, InfrastructureError, ProtocolError
from .geo import BoundingBox, GeoPoint

FetchFn = Callable[[str, dict], object]


def default_fixture_path() -> str:
    """The Porto fixture shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", "porto_pois.csv")


def normalize_name(name: str) -> str:
    """Matching key: case-folded, trimmed, diacritics stripped, spaces collapsed."""
    decomposed = unicodedata.normalize("NFD", name)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.casefold().split())


@dataclass(frozen=True)
class POI:
    """A named place. ``source`` records which lookup leg produced it."""

    name: str
    location: GeoPoint
    category: str | None = None
    source: str = "fixture"     # fixture | cache | remote
    blurb: str | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"POI name must be a string, got {type(self.name).__name__}")
        if not self.name:
            raise ValueError("POI name must be non-empty")


@dataclass
class GazetteerConfig:
    base_url: str = "https://nominatim.openstreetmap.org"
    region_bias: BoundingBox | None = None
    rate_limit: float = 1.0     # remote requests per second
    offline_only: bool = True
    fixture_path: str = field(default_factory=default_fixture_path)
    cache_path: str = ""        # empty disables the journal

    def __post_init__(self):
        # time.sleep adds the interval to the monotonic clock in int64 ns: half is the clock's
        longest = threading.TIMEOUT_MAX / 2
        if not self.rate_limit > 0 or 1.0 / self.rate_limit > longest:
            raise ValueError(f"rate_limit must be positive, with at most {longest:.0f} s "
                             f"between requests, got {self.rate_limit}")
        if self.offline_only and not self.fixture_path:
            raise ValueError("offline_only requires a fixture_path")


def _poi(record: dict, source: str) -> POI:
    """The POI a fixture row, journal line or search result describes: its name,
    lon and lat, and its category and blurb when given (an empty one is none)."""
    return POI(name=record["name"],
               location=GeoPoint(float(record["lon"]), float(record["lat"])),
               category=record.get("category") or None, source=source,
               blurb=record.get("blurb") or None)


def _file_cache_entry(index: dict[str, POI], key: str, poi: POI) -> None:
    """File ``poi`` under ``key``, and under its name with that key's bias unless taken."""
    index.setdefault(f"{normalize_name(poi.name)}|{key.rpartition('|')[2]}", poi)
    index[key] = poi


def _viewbox_param(b: BoundingBox) -> str:
    return f"{b.min_lon!r},{b.min_lat!r},{b.max_lon!r},{b.max_lat!r}"


def _json_value(data: bytes | str) -> object:
    """``json.loads(data)``; ValueError also for data nested deeper than the decoder
    reads, or holding a lone surrogate escape (``"\\ud800"``), which UTF-8 cannot write."""
    try:
        value = json.loads(data)
    except RecursionError as exc:
        raise ValueError(exc) from None
    json.dumps(value, ensure_ascii=False).encode("utf-8")
    return value


def request_json(url: str, what: str, timeout: float, body: dict | None = None,
                 headers: dict | None = None) -> object:
    """GET ``url``, or POST ``body`` as JSON when given, and decode the JSON reply.

    Transport failures and HTTP error statuses raise InfrastructureError; a
    reply that is not JSON (``_json_value``) raises ProtocolError. ``what``
    names the service in the message.
    """
    # Imported here: urllib.request loads ssl, about 7 MB of resident memory
    # that an offline run never needs.
    import http.client
    import urllib.request

    data = None if body is None else json.dumps(body).encode("utf-8")
    sent = {"User-Agent": "trajstory/0.1", **(headers or {})}
    if data is not None:
        sent["Content-Type"] = "application/json"
    try:
        request = urllib.request.Request(url, data=data, headers=sent)
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            payload = resp.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise InfrastructureError(f"{what} request failed: {exc}") from exc
    try:
        return _json_value(payload)
    except ValueError as exc:
        raise ProtocolError(f"{what} returned non-JSON payload: {exc}") from exc


def _http_fetch(url: str, params: dict) -> object:
    return request_json(f"{url}?{urllib.parse.urlencode(params)}", "gazetteer", timeout=20)


class Gazetteer:
    """Loaded fixture + cache with an optional remote leg.

    ``fetch`` takes (url, params) and returns the decoded JSON payload;
    tests inject a fake, production uses the urllib-based default. Reads
    are safe to share across threads; cache appends are serialized.
    """

    def __init__(self, cfg: GazetteerConfig, fetch: FetchFn | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.cfg = cfg
        self._fetch = fetch or _http_fetch
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._last_remote: float | None = None
        self._fixture = self._load_fixture(cfg.fixture_path)
        self._cache = self._load_cache(cfg.cache_path)

    # -- stores ------------------------------------------------------------

    @staticmethod
    def _load_fixture(path: str) -> dict[str, POI]:
        index: dict[str, POI] = {}
        if not path:
            return index
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(b"\xef\xbb\xbf")    # a byte-order mark is no data
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConfigurationError(f"fixture {path}: line {line}: not UTF-8 text") from None
        reader = csv.DictReader(io.StringIO(text, newline=""))
        for row in reader:
            try:
                poi = _poi(row, "fixture")
            except KeyError as exc:
                raise ConfigurationError(
                    f"fixture {path}: line {reader.line_num}: no {exc} column") from None
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"fixture {path}: line {reader.line_num}: {exc}") from None
            index.setdefault(normalize_name(poi.name), poi)
            for alias in (row.get("aliases") or "").split("|"):
                if alias.strip():
                    index.setdefault(normalize_name(alias), poi)
        return index

    @staticmethod
    def _load_cache(path: str) -> dict[str, POI]:
        index: dict[str, POI] = {}
        if not path or not os.path.exists(path):
            return index
        with open(path, "rb") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = _json_value(line.decode("utf-8"))
                    _file_cache_entry(index, entry["key"], _poi(entry, "cache"))
                except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                    continue    # a torn or foreign line must not poison the journal
        return index

    def _cache_key(self, name: str) -> str:
        bias = _viewbox_param(self.cfg.region_bias) if self.cfg.region_bias else "none"
        return f"{normalize_name(name)}|{bias}"

    def _append_cache(self, key: str, poi: POI) -> None:
        with self._lock:
            _file_cache_entry(self._cache, key, replace(poi, source="cache"))
            if self.cfg.cache_path:
                entry = {"key": key, "name": poi.name,
                         "lon": poi.location.lon, "lat": poi.location.lat,
                         "category": poi.category, "blurb": poi.blurb,
                         "ts": datetime.now(timezone.utc).isoformat()}
                with open(self.cfg.cache_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, ensure_ascii=False) + "\n")

    # -- remote ------------------------------------------------------------

    def _throttle(self) -> None:
        """Reserve the next remote slot under the lock, then wait for it outside."""
        with self._lock:
            now = self._clock()
            slot = now
            if self._last_remote is not None:
                slot = max(now, self._last_remote + 1.0 / self.cfg.rate_limit)
            self._last_remote = slot
        if slot > now:
            self._sleep(slot - now)

    def _search_remote(self, query: str, viewbox: BoundingBox | None, limit: int) -> list[POI]:
        params = {"q": query, "format": "json", "limit": str(limit)}
        if viewbox is not None:
            params["viewbox"] = _viewbox_param(viewbox)
            params["bounded"] = "1"
        self._throttle()
        payload = self._fetch(self.cfg.base_url.rstrip("/") + "/search", params)
        if not isinstance(payload, list):
            raise ProtocolError(f"search payload must be a JSON array, got {type(payload).__name__}")
        results = []
        for item in payload:
            try:
                results.append(_poi(item, "remote"))
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
                raise ProtocolError(f"malformed search result {item!r}: {exc}") from exc
        return results

    # -- lookups -----------------------------------------------------------

    def geocode(self, name: str) -> POI | None:
        """Resolve one name; None when it is unknown everywhere."""
        if not name or not name.strip():
            raise ValueError("cannot geocode an empty name")
        hit = self._lookup(name)
        if hit is not None or self.cfg.offline_only:
            return hit
        results = self._search_remote(name.strip(), self.cfg.region_bias, limit=1)
        if not results:
            return None
        self._append_cache(self._cache_key(name), results[0])
        return results[0]

    def _lookup(self, name: str) -> POI | None:
        """What ``geocode`` finds without the remote leg: the cache, then the fixture."""
        return self._cache.get(self._cache_key(name)) or self._fixture.get(normalize_name(name))

    def known_pois(self, area: BoundingBox) -> list[POI]:
        """Every place known by name: cache and fixture, one POI per normalized name.

        Each is offered under a name ``geocode`` resolves to it offline. When
        online, the hits of one bounded search over ``area`` join under new names.
        """
        pool: dict[str, POI] = {}
        for poi in [*self._cache.values(), *self._fixture.values()]:
            if self._lookup(poi.name) == poi:
                pool.setdefault(normalize_name(poi.name), poi)
        if not self.cfg.offline_only:
            for poi in self._search_remote("", area, limit=50):
                pool.setdefault(normalize_name(poi.name), poi)
        return list(pool.values())

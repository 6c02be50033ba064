from __future__ import annotations

import http.server
import re
import threading
import urllib.parse
from pathlib import Path

import pytest

from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import GeoPoint
from trajstory.synth import EndpointCluster, SyntheticSpec, generate_dataset, write_kaggle_csv

DATA_DIR = Path(__file__).parent / "data"
STORY_FIXTURE = DATA_DIR / "porto_story.txt"

# The 18 place names highlighted in the reference narrative, reading order.
# Two of them name the same avenue, which is what makes dedup interesting.
STORY18_NAMES = [
    "Avenida dos Aliados",
    "São Bento Station",
    "Rua de Santa Catarina",
    "Porto Cathedral",
    "Ribeira district",
    "Dom Luís I Bridge",
    "Clérigos Tower",
    "Livraria Lello",
    "Bolhão Market",
    "Aliados Avenue",
    "Rotunda da Boavista",
    "Casa da Música",
    "Hospital de Santo António",
    "Campanhã Station",
    "Estádio do Dragão",
    "Palácio de Cristal Gardens",
    "Matosinhos Beach",
    "Foz do Douro",
]

# Endpoint mixture centered on four fixture POI sites: the downtown avenue,
# the Boavista roundabout, the east rail station, and the river mouth.
PORTO_CLUSTERS = [
    EndpointCluster(GeoPoint(-8.6107, 41.1480), 0.4, 120.0),
    EndpointCluster(GeoPoint(-8.6290, 41.1580), 0.3, 120.0),
    EndpointCluster(GeoPoint(-8.5855, 41.1486), 0.2, 120.0),
    EndpointCluster(GeoPoint(-8.6769, 41.1508), 0.1, 120.0),
]

# Downtown walking route threading thirteen fixture POIs; its vertices are
# the POI locations themselves.
CENTRAL_ROUTE_NAMES = [
    "Palácio de Cristal Gardens",
    "Igreja do Carmo",
    "Livraria Lello",
    "Clérigos Tower",
    "Praça da Liberdade",
    "Avenida dos Aliados",
    "São Bento Station",
    "Bolhão Market",
    "Rua de Santa Catarina",
    "Porto Cathedral",
    "Igreja de São Francisco",
    "Ribeira",
    "Dom Luís I Bridge",
]

# Fixture POIs far from the downtown route, for hallucination injection.
FAR_POI_NAMES = [
    "Foz do Douro",
    "Matosinhos Beach",
    "Estádio do Dragão",
    "Serralves Museum",
    "Parque da Cidade",
]

# Two downtown places, each under its fixture name and then its aliases.
ALIASED_NAMES = [
    "Avenida dos Aliados",
    "Aliados Avenue",
    "Aliados",
    "São Bento Station",
    "Estação de São Bento",
]


def pytest_runtest_logreport(report):
    """One uncaptured verdict line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    m = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if not m:
        return
    label = m.group(2).replace("_", " ")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nacceptance criterion {m.group(1)} ({label}): {verdict}")


@pytest.fixture(scope="session")
def gazetteer() -> Gazetteer:
    return Gazetteer(GazetteerConfig())


@pytest.fixture(scope="session")
def cluster_dataset():
    return generate_dataset(SyntheticSpec(seed=7, n_trajectories=400,
                                          endpoint_clusters=PORTO_CLUSTERS))


@pytest.fixture
def cluster_csv(cluster_dataset, tmp_path) -> Path:
    path = tmp_path / "trips.csv"
    write_kaggle_csv(cluster_dataset, path)
    return path


@pytest.fixture(scope="session")
def central_route(gazetteer) -> list[GeoPoint]:
    return [gazetteer.geocode(name).location for name in CENTRAL_ROUTE_NAMES]


class _RecordingHandler(http.server.BaseHTTPRequestHandler):
    """Records each request on the server and answers with ``server.reply``."""

    def _answer(self):
        url = urllib.parse.urlsplit(self.path)
        request = {
            "method": self.command,
            "path": url.path,
            "query": dict(urllib.parse.parse_qsl(url.query, keep_blank_values=True)),
            "headers": {k.lower(): v for k, v in self.headers.items()},
            "body": self.rfile.read(int(self.headers.get("Content-Length") or 0)),
        }
        self.server.seen.append(request)
        status, payload = self.server.reply(request)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """An HTTP server on 127.0.0.1. Set ``reply(request) -> (status, bytes)``;
    ``seen`` lists the requests received, ``url`` is the server's base URL."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    server = http.server.HTTPServer(("127.0.0.1", 0), _RecordingHandler)
    server.seen = []
    server.reply = lambda request: (200, b"[]")
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()

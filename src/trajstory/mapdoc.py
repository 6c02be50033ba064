"""Turn a grounded story into a map artifact: numbered markers plus legend.

Markers carry numbers only; the legend maps each number back to a POI name
in story order. POIs within ``cluster_distance_m`` of each other collapse
into a single marker so that neighboring labels do not pile up, which is
why a marker can carry several numbers. Output is a GeoJSON feature
collection and, on request, a static HTML page over public map tiles.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path

from .gazetteer import POI
from .geo import BoundingBox, GeoPoint, bbox_of, haversine_distance
from .ingest import Trajectory

DEFAULT_CLUSTER_DISTANCE_M = 150.0
BBOX_PAD_FRACTION = 0.10


@dataclass(frozen=True)
class Marker:
    center: GeoPoint
    numbers: tuple[int, ...]


@dataclass
class MapDocument:
    markers: list[Marker]
    paths: list[list[GeoPoint]]
    legend: list[tuple[int, str]]
    bbox: BoundingBox


def _cluster_indices(points: list[GeoPoint], cluster_distance_m: float) -> list[list[int]]:
    """Single-linkage clusters over point indices, via union-find.

    A pair closer than the threshold links its two clusters, so chains of
    nearby points merge transitively. At threshold 0 only coincident points
    share a cluster.
    """
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if haversine_distance(points[i], points[j]) <= cluster_distance_m:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _padded_bbox(points: list[GeoPoint]) -> BoundingBox:
    raw = bbox_of(points)
    pad_lon = (raw.max_lon - raw.min_lon) * BBOX_PAD_FRACTION
    pad_lat = (raw.max_lat - raw.min_lat) * BBOX_PAD_FRACTION
    return BoundingBox(max(-180.0, raw.min_lon - pad_lon),
                       max(-90.0, raw.min_lat - pad_lat),
                       min(180.0, raw.max_lon + pad_lon),
                       min(90.0, raw.max_lat + pad_lat))


def emit_map(pois: list[POI], trajectory: Trajectory | None = None,
             cluster_distance_m: float = DEFAULT_CLUSTER_DISTANCE_M) -> MapDocument:
    """Build the document: one legend row per POI, markers merged by proximity.

    ``pois`` must already be in story order; marker numbers are 1-based
    positions in that order. A POI-free call still works when a trajectory
    is present (path-only map).
    """
    if cluster_distance_m < 0:
        raise ValueError(f"cluster_distance_m must be >= 0, got {cluster_distance_m}")
    if not pois and trajectory is None:
        raise ValueError("nothing to map: no POIs and no trajectory")

    legend = [(i + 1, poi.name) for i, poi in enumerate(pois)]
    locations = [poi.location for poi in pois]
    markers = [Marker(center=_centroid([locations[i] for i in group]),
                      numbers=tuple(i + 1 for i in group))
               for group in _cluster_indices(locations, cluster_distance_m)]

    extent = list(locations)
    paths = []
    if trajectory is not None:
        paths.append(list(trajectory.points))
        extent.extend(trajectory.points)
    return MapDocument(markers=markers, paths=paths, legend=legend,
                       bbox=_padded_bbox(extent))


def _centroid(points: list[GeoPoint]) -> GeoPoint:
    return GeoPoint(sum(p.lon for p in points) / len(points),
                    sum(p.lat for p in points) / len(points))


def render_geojson(doc: MapDocument) -> str:
    """Serialize as a FeatureCollection; byte-stable for equal documents.

    Paths come first (drawn under the markers), then markers in number
    order. The legend rides along as a foreign member, which the format
    grammar permits.
    """
    names = dict(doc.legend)
    features = []
    for path in doc.paths:
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": [[p.lon, p.lat] for p in path]},
            "properties": {"role": "trajectory"},
        })
    for marker in doc.markers:
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [marker.center.lon, marker.center.lat]},
            "properties": {
                "role": "poi",
                "numbers": list(marker.numbers),
                "labels": [names[n] for n in marker.numbers],
            },
        })
    collection = {
        "type": "FeatureCollection",
        "bbox": [doc.bbox.min_lon, doc.bbox.min_lat, doc.bbox.max_lon, doc.bbox.max_lat],
        "features": features,
        "legend": [[number, name] for number, name in doc.legend],
    }
    return json.dumps(collection, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_HTML_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<link rel="stylesheet" href="https://unpkg.com/leaflet@1.9.4/dist/leaflet.css">
<script src="https://unpkg.com/leaflet@1.9.4/dist/leaflet.js"></script>
<style>
  body {{ margin: 0; font-family: sans-serif; }}
  #map {{ height: 80vh; }}
  .poi-number {{ background: #d43; color: #fff; border-radius: 50%;
                 text-align: center; line-height: 22px; font-size: 12px;
                 border: 1px solid #fff; }}
  #legend {{ padding: 8px 16px; columns: 2; }}
</style>
</head>
<body>
<div id="map"></div>
<ol id="legend">
{legend_items}
</ol>
<script>
var data = {geojson};
var map = L.map('map');
L.tileLayer('https://tile.openstreetmap.org/{{z}}/{{x}}/{{y}}.png', {{
  attribution: '&copy; OpenStreetMap contributors'
}}).addTo(map);
map.fitBounds([[data.bbox[1], data.bbox[0]], [data.bbox[3], data.bbox[2]]]);
data.features.forEach(function (f) {{
  if (f.geometry.type === 'LineString') {{
    L.polyline(f.geometry.coordinates.map(function (c) {{ return [c[1], c[0]]; }}),
               {{color: '#36c', weight: 3}}).addTo(map);
  }} else if (f.geometry.type === 'Point') {{
    var label = f.properties.numbers.join(',');
    L.marker([f.geometry.coordinates[1], f.geometry.coordinates[0]], {{
      icon: L.divIcon({{className: 'poi-number', html: label,
                        iconSize: [24, 24]}})
    }}).bindTooltip(f.properties.labels.join(', ')).addTo(map);
  }}
}});
</script>
</body>
</html>
"""


def render_html(doc: MapDocument, geojson: str, title: str = "trajstory map") -> str:
    """Self-contained page over OpenStreetMap raster tiles; no server needed.

    ``geojson`` is ``render_geojson(doc)``, encoded once by the caller for
    both files. Names are text: the legend and title are HTML-escaped, and
    the embedded GeoJSON spells ``&<>`` as JSON escapes, so no name can
    close ``<script>``.
    """
    legend_items = "\n".join(f"  <li value=\"{n}\">{html.escape(name, quote=False)}</li>"
                             for n, name in doc.legend)
    geojson = geojson.rstrip("\n")
    for char, escape in (("&", "\\u0026"), ("<", "\\u003c"), (">", "\\u003e")):
        geojson = geojson.replace(char, escape)
    return _HTML_PAGE.format(title=html.escape(title, quote=False),
                             legend_items=legend_items, geojson=geojson)


def write_map(doc: MapDocument, geojson_path: str | Path,
              html_path: str | Path | None = None) -> None:
    geojson = render_geojson(doc)
    Path(geojson_path).write_text(geojson, encoding="utf-8")
    if html_path is not None:
        Path(html_path).write_text(render_html(doc, geojson), encoding="utf-8")

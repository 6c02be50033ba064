"""Turn a grounded story into a map artifact: numbered markers plus legend.

Markers carry numbers only; the legend maps each number back to a POI name
in story order. POIs within ``cluster_distance_m`` of each other collapse
into a single marker so that neighboring labels do not pile up, which is
why a marker can carry several numbers. Output is a GeoJSON feature
collection and a static HTML page over public map tiles, both made in
parts as they are written: each slice of the path's coordinates is
formatted once, written to both files and dropped (``map_files``).
"""

from __future__ import annotations

import html
import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .gazetteer import POI
from .geo import BoundingBox, GeoPoint, arc_m, as_coords, bbox_of_coords, haversine_h
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
    path: np.ndarray | None             # the trajectory's float (N, 2) lon/lat array
    legend: list[tuple[int, str]]
    bbox: BoundingBox


def _cluster_indices(points: list[GeoPoint], cluster_distance_m: float) -> list[list[int]]:
    """Single-linkage clusters over point indices, via union-find.

    A pair closer than the threshold links its two clusters, so chains of
    nearby points merge transitively. At threshold 0 only coincident points
    share a cluster. Pairs are measured with grounding's haversine kernel.
    """
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    coords = as_coords(points)
    lon, lat = coords[:, 0], coords[:, 1]
    for i, p in enumerate(points):
        h = haversine_h(p, lon[i + 1:], lat[i + 1:])
        for j, h_ij in enumerate(h.tolist(), i + 1):
            if arc_m(h_ij) <= cluster_distance_m:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _padded_bbox(coords: np.ndarray) -> BoundingBox:
    raw = bbox_of_coords(coords)
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

    extent = as_coords(locations)
    path = None if trajectory is None else trajectory.coords
    if path is not None:
        # the path's corners stand for it: numpy's min and max keep the later of
        # equal values (a zero's two signs), so the box has the whole path's bits
        box = bbox_of_coords(path)
        extent = np.concatenate([extent, [[box.min_lon, box.min_lat], [box.max_lon, box.max_lat]]])
    return MapDocument(markers=markers, path=path, legend=legend,
                       bbox=_padded_bbox(extent))


def _centroid(points: list[GeoPoint]) -> GeoPoint:
    return GeoPoint(sum(p.lon for p in points) / len(points),
                    sum(p.lat for p in points) / len(points))


# The path's place in the dumped document. A JSON string never holds a bare
# '"', so this text can only be a "coordinates" key over an empty list, which
# no marker has: a document with a path holds it once.
_PATH_SLOT = '"coordinates": []'
# One vertex as json.dumps(indent=2) lays it out inside a LineString feature.
_VERTEX = "\n          [\n            %r,\n            %r\n          ]"
# Vertices per coordinate part: the path's text is held once, in parts this size.
_SLICE_VERTICES = 2048


def _coordinate_slices(path: np.ndarray) -> Iterator[str]:
    """The indented JSON of ``path.tolist()``'s items, in parts of ``_SLICE_VERTICES``,
    each formatted as it is read.

    ``%r`` and ``json.dumps`` both write a finite float as ``float.__repr__``;
    non-finite values are respelled the way ``json.dumps`` spells them. A part
    holds only numbers, brackets, commas, whitespace, ``Infinity`` and ``NaN``.
    """
    for start in range(0, len(path), _SLICE_VERTICES):
        chunk = path[start:start + _SLICE_VERTICES]
        text = ("," if start else "") + ",".join([_VERTEX] * len(chunk))
        text %= tuple(chunk.ravel().tolist())
        if not np.isfinite(chunk).all():
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        yield text


def render_geojson(doc: MapDocument) -> Iterator[str]:
    """Serialize as a FeatureCollection, in parts made as they are read;
    byte-stable for equal documents.

    The path comes first (drawn under the markers), then markers in number
    order. The legend rides along as a foreign member, which the format
    grammar permits. Joined, the parts are the ``json.dumps`` text of the
    collection with ``path.tolist()`` as the path's coordinates: the head of
    that text, the path's coordinates in bulk-formatted slices, then the tail.
    """
    names = dict(doc.legend)
    features = []
    if doc.path is not None:
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": []},
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
    text = json.dumps(collection, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if doc.path is None or not len(doc.path):
        yield text
        return
    head, _, tail = text.partition(_PATH_SLOT)
    yield head + '"coordinates": ['
    yield from _coordinate_slices(doc.path)
    yield "\n        ]" + tail


_HTML_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>trajstory map</title>
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


# The page around the embedded GeoJSON, as format strings.
_HTML_HEAD, _HTML_TAIL = _HTML_PAGE.split("{geojson}")


def _embedded(part: str) -> str:
    """A GeoJSON part as the page embeds it: no final newline, ``&<>`` as JSON escapes."""
    part = part.rstrip("\n")
    for char, escape in (("&", "\\u0026"), ("<", "\\u003c"), (">", "\\u003e")):
        part = part.replace(char, escape)
    return part


def render_html(doc: MapDocument, geojson: Iterable[str]) -> Iterator[str]:
    """Self-contained page over OpenStreetMap raster tiles, in parts; no server needed.

    ``geojson`` is ``render_geojson(doc)``'s parts, each embedded as it is
    read. Names are text: the legend is HTML-escaped, and the embedded
    GeoJSON spells ``&<>`` as JSON escapes, so no name can close
    ``<script>``. Only the head and tail parts can hold a name or end in the
    text's final newline; the coordinate slices between them hold neither,
    so they pass as they are.
    """
    legend_items = "\n".join(f"  <li value=\"{n}\">{html.escape(name, quote=False)}</li>"
                             for n, name in doc.legend)
    yield _HTML_HEAD.format(legend_items=legend_items)
    parts = iter(geojson)
    yield from map(_embedded, itertools.islice(parts, 1))      # the head, or the whole text
    if doc.path is not None:
        yield from itertools.islice(parts, -(-len(doc.path) // _SLICE_VERTICES))
    yield from map(_embedded, parts)                            # the tail
    yield _HTML_TAIL.format()


def _shared(parts: Iterator[str]) -> tuple[Iterator[str], Iterator[str]]:
    """Two iterators over ``parts``, each part drawn once and held only until
    both have yielded it (``itertools.tee`` holds parts in blocks of 57)."""
    queues = deque(), deque()

    def column(mine: deque, other: deque) -> Iterator[str]:
        while True:
            if mine:
                yield mine.popleft()
                continue
            part = next(parts, None)
            if part is None:
                return
            other.append(part)
            yield part
    return column(*queues), column(*queues[::-1])


def map_files(doc: MapDocument) -> dict[str, Iterator[str]]:
    """``map.geojson`` and ``map.html`` as parts for ``write_files``, drawn from
    one ``render_geojson``: read in lockstep, as ``write_files`` reads them,
    the path's text is formatted once and held a slice or two at a time."""
    geojson, page = _shared(render_geojson(doc))
    return {"map.geojson": geojson, "map.html": render_html(doc, page)}

"""Spans and counts recorded around calls into trajstory's public functions.

The program itself carries no instrumentation. ``install`` replaces each
target function, in every ``trajstory`` module that holds a reference to it,
by a wrapper that records a span (name, start, end, parent, operation) in
memory and, for some targets, a count taken from the call's arguments or
result. Targets missing from the program are skipped, so their metrics read
0 rather than stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


# -- count hooks: (counts, args, result) ---------------------------------------

def _parse(c, args, ds):
    c["ingest.rows"] += len(ds.trajectories) + ds.skipped_rows
    c["ingest.skipped_rows"] += ds.skipped_rows
    c["ingest.points"] += sum(len(t.points) for t in ds.trajectories)


def _grid(c, args, grid):
    c["heatgrid.points_binned"] += grid.total_in_bbox + grid.out_of_bbox
    c["heatgrid.nonzero_cells"] += int((grid.counts > 0).sum())


def _pois_near(c, args, pois):
    c["gazetteer.pois_near_calls"] += 1
    c["gazetteer.candidates"] += len(pois)


def _geocode(c, args, poi):
    c["gazetteer.geocode_calls"] += 1
    c[f"gazetteer.lookups.{poi.source if poi is not None else 'miss'}"] += 1


def _polyline(c, args, _):
    c["geo.vertex_evals"] += len(args[1])


def _validate(c, args, report):
    c["validation.calls"] += 1
    c["validation.names"] += len(report.per_poi)
    c["validation.flagged"] += len(report.flagged())
    c["validation.ungeocodable"] += len(report.ungeocodable())
    c["validation.grounded_fraction_sum"] += report.grounded_fraction


def _feedback(c, args, _):
    c["pipeline.feedback_rounds"] += 1


def _prompt(c, args, prompt):
    c["story.prompts"] += 1
    c["story.prompt_chars_sum"] += len(prompt)


def _generate(c, args, story):
    c["story.words"] += story.word_count
    c["story.mentions"] += len(story.mentions)


def _bundle(c, args, paths):
    c["pipeline.bundle_bytes"] += sum(os.path.getsize(p) for p in paths)


def _emit(c, args, doc):
    c["mapdoc.path_points"] += sum(len(p) for p in doc.paths)
    c["mapdoc.markers"] += len(doc.markers)


def _geojson(c, args, text):
    c["mapdoc.geojson_bytes"] += len(text.encode("utf-8"))


# layer, module, attribute ("Class.method" for methods), time metric, count hook
TARGETS = [
    ("cli", "cli", "main", None, None),
    ("cli", "cli", "cmd_story", "cli.story_s", None),
    ("cli", "cli", "cmd_validate", "cli.validate_s", None),
    ("cli", "cli", "cmd_map", "cli.map_s", None),
    ("ingest", "ingest", "parse_dataset", "ingest.parse_s", _parse),
    ("ingest", "ingest", "trip_endpoints", "ingest.endpoints_s", None),
    ("ingest", "ingest", "select_trajectory", "ingest.select_s", None),
    ("ingest", "ingest", "trajectory_digest", None, None),
    ("heatgrid", "heatgrid", "build_grid", "heatgrid.build_grid_s", _grid),
    ("heatgrid", "heatgrid", "top_hotspots", "heatgrid.top_hotspots_s", None),
    ("heatgrid", "heatgrid", "summarize_for_story", None, None),
    ("heatgrid", "heatgrid", "export_grid", None, None),
    ("gazetteer", "gazetteer", "Gazetteer.__init__", "gazetteer.load_s", None),
    ("gazetteer", "gazetteer", "Gazetteer.pois_near", "gazetteer.pois_near_s", _pois_near),
    ("gazetteer", "gazetteer", "Gazetteer.geocode", None, _geocode),
    ("gazetteer", "gazetteer", "Gazetteer.bulk_geocode", None, None),
    ("geo", "geo", "point_to_polyline_distance", "geo.polyline_distance_s", _polyline),
    ("geo", "ingest", "Trajectory.path_length_m", "geo.path_length_s", None),
    ("geo", "geo", "bbox_of", None, None),
    ("validation", "validation", "validate_story", "validation.validate_s", _validate),
    ("validation", "validation", "feedback_text", None, _feedback),
    ("validation", "validation", "report_to_dict", None, None),
    ("validation", "validation", "summarize_report", None, None),
    ("story", "story", "build_prompt", "story.build_prompt_s", _prompt),
    ("story", "story", "generate_story", "story.generate_s", _generate),
    ("pipeline", "pipeline", "execute", None, None),
    ("pipeline", "pipeline", "write_bundle", "pipeline.write_bundle_s", _bundle),
    ("mapdoc", "mapdoc", "emit_map", "mapdoc.emit_s", _emit),
    ("mapdoc", "mapdoc", "render_geojson", "mapdoc.render_geojson_s", _geojson),
    ("mapdoc", "mapdoc", "render_html", "mapdoc.render_html_s", None),
    ("mapdoc", "mapdoc", "write_map", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0

    def wrap(self, fn, name, hook, measure_rss):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            before = rss_bytes() if measure_rss else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if measure_rss:
                self.counts["ingest.rss_growth_bytes"] += rss_bytes() - before
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError):
                    # the program changed shape; keep the run, lose the count
                    self.counts["trace.hook_errors"] += 1
            return result
        return traced

    def install(self) -> None:
        importlib.import_module("trajstory.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "trajstory" or n.startswith("trajstory.")]
        for layer, module, attr, _, hook in TARGETS:
            owner = importlib.import_module(f"trajstory.{module}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self.wrap(fn, f"{layer}.{attr}", hook,
                                measure_rss=attr == "parse_dataset")
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def summary(self) -> dict[str, float]:
        """Inclusive time per target, self time per layer, and the counts."""
        out: dict[str, float] = defaultdict(float, self.counts)
        time_metric = {f"{layer}.{attr}": metric for layer, _, attr, metric, _ in TARGETS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = end - start - child_time[i]
            out["cli.overhead_s" if layer == "cli" else f"{layer}.self_s"] += own
            out[f"{name}.calls"] += 1
            if time_metric.get(name):
                out[time_metric[name]] += end - start
        out["trace.spans"] = len(self.spans)
        return dict(out)

"""Command-line front end: each pipeline stage, plus the full story run.

Configuration is a flat key=value file with ``#`` comments; flags override
file values, and the backend auth token only ever comes from the
environment. ``CONFIG_KEYS`` is the one list of keys: it converts their
text, spells their flags and says which dataclass field each one sets, so
every default is that field's default. Exit codes are stable: 0 on
success, else the ``exit_code`` that the error's class in ``errors`` declares.
Each command imports the modules it runs, so ``--help`` never loads numpy.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ParseError, StoryValidationError, TrajstoryError

if TYPE_CHECKING:
    from .geo import BoundingBox
    from .pipeline import StoryRequest
    from .story import Story

log = logging.getLogger("trajstory")

BACKENDS = ("template", "remote", "scripted")


def parse_config(path: str | Path) -> dict[str, str]:
    """Flat key=value file; ``#`` starts a comment, later keys win."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")     # a byte-order mark is no key
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from None
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _bbox(text: str) -> BoundingBox:
    from .geo import BoundingBox
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected min_lon,min_lat,max_lon,max_lat, got {text!r}")
    return BoundingBox(*map(_float, parts))


# Every config key: (converter from text, command-line flag or None, the name of
# the class whose field it sets, that field). The field's default is the key's
# default. ``backend`` and ``responses_file`` set no field; build_backend reads them.
CONFIG_KEYS = {
    "dataset": (str, "--dataset", "StoryRequest", "dataset_path"),
    "schema": (str, "--schema", "StoryRequest", "dataset_schema"),
    "mode": (str, "--mode", "NarrativeSpec", "mode"),
    "selection": (str, "--selection", "StoryRequest", "selection"),
    "trajectory_id": (str, "--trajectory-id", "StoryRequest", "selection_id"),
    "hotspot_k": (int, "--top", "StoryRequest", "hotspot_k"),
    "cell_size_m": (_float, "--cell-size", "StoryRequest", "cell_size_m"),
    "cluster_distance_m": (_float, "--cluster-distance", "StoryRequest", "cluster_distance_m"),
    "max_retries": (int, "--max-retries", "StoryRequest", "max_retries"),
    "region_name": (str, None, "StoryRequest", "region_name"),
    "audience": (str, "--audience", "NarrativeSpec", "audience"),
    "tone": (str, None, "NarrativeSpec", "tone"),
    "max_words": (int, "--max-words", "NarrativeSpec", "max_words"),
    "min_pois": (int, "--min-pois", "NarrativeSpec", "min_pois"),
    "include_blurbs": (_bool, "--include-blurbs", "NarrativeSpec", "include_blurbs"),
    "trajectory_threshold_m": (_float, "--trajectory-threshold", "StoryRequest",
                               "trajectory_threshold_m"),
    "hotspot_threshold_m": (_float, "--hotspot-threshold", "StoryRequest",
                            "hotspot_threshold_m"),
    "offline": (_bool, "--offline", "GazetteerConfig", "offline_only"),
    "gazetteer_url": (str, None, "GazetteerConfig", "base_url"),
    "rate_limit": (_float, None, "GazetteerConfig", "rate_limit"),
    "region_bias": (_bbox, None, "GazetteerConfig", "region_bias"),
    "fixture": (str, None, "GazetteerConfig", "fixture_path"),
    "cache": (str, None, "GazetteerConfig", "cache_path"),
    "backend": (str, "--backend", None, None),
    "backend_url": (str, None, "RemoteBackend", "url"),
    "backend_max_tokens": (int, None, "RemoteBackend", "max_tokens"),
    "backend_temperature": (_float, None, "RemoteBackend", "temperature"),
    "responses_file": (str, None, None, None),
}

# The keys each command takes as flags; every command reads its keys from
# the config file too. ``--offline`` is common to all of them.
COMMAND_FLAGS = {
    "ingest": ("schema",),
    "heatmap": ("schema", "cell_size_m", "hotspot_k"),
    "story": ("dataset", "schema", "mode", "backend", "audience", "max_words",
              "min_pois", "max_retries", "include_blurbs", "selection", "trajectory_id"),
    "validate": ("dataset", "schema", "mode", "selection", "trajectory_id",
                 "cell_size_m", "hotspot_k", "trajectory_threshold_m",
                 "hotspot_threshold_m", "min_pois", "max_words"),
    "map": ("dataset", "schema", "selection", "trajectory_id", "cluster_distance_m"),
}

# validate and map grade a story written elsewhere: unless the config file or a
# flag says otherwise, against one trip, with no POI quota and no word cap.
_EXTERNAL_STORY = {"mode": "single_trajectory", "min_pois": "0", "max_words": "1000000"}
COMMAND_DEFAULTS = {"validate": _EXTERNAL_STORY, "map": _EXTERNAL_STORY}


def load_settings(args: argparse.Namespace) -> dict[str, object]:
    """Converted key values: flags over the config file over command defaults."""
    raw = dict(COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        raw.update(parse_config(args.config))
    raw.update((key, getattr(args, key)) for key in CONFIG_KEYS
               if getattr(args, key, None) is not None)
    values = {}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigurationError(f"config key {key}: {exc}") from None
    return values


def _build(cls, values: dict[str, object], **given):
    """``cls`` with every field whose key is in ``values``; the rest keep their defaults."""
    fields = {name: values[key] for key, (_, _, owner, name) in CONFIG_KEYS.items()
              if owner == cls.__name__ and key in values}
    try:
        return cls(**fields, **given)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def build_request(values: dict[str, object]) -> StoryRequest:
    from . import gazetteer, pipeline, story
    spec = _build(story.NarrativeSpec, values)
    return _build(pipeline.StoryRequest, values, spec=spec,
                  gazetteer=_build(gazetteer.GazetteerConfig, values))


def build_backend(values: dict[str, object]):
    name = values.get("backend", "template")
    if name not in BACKENDS:
        raise ConfigurationError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    from .story import RemoteBackend, TemplateBackend
    if name == "template":
        return TemplateBackend()
    if name == "remote":
        if not values.get("backend_url"):
            raise ConfigurationError("backend 'remote' needs config key backend_url")
        return _build(RemoteBackend, values)
    responses_file = values.get("responses_file")
    if not responses_file:
        raise ConfigurationError("backend 'scripted' needs config key responses_file")
    try:
        responses = json.loads(Path(responses_file).read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ConfigurationError(f"responses file {responses_file}: {exc}") from exc
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise ConfigurationError(f"responses file {responses_file}: "
                                 "expected a JSON array of strings")
    from .synth import ScriptedBackend
    return ScriptedBackend(responses)


def _read_story(path: str, req: StoryRequest) -> Story:
    from .story import Story, count_words, extract_mentions
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"story file {path!r} is not UTF-8 text: {exc}") from None
    mentions = extract_mentions(text)
    if not mentions:
        raise ParseError(f"story file {path!r} contains no POI markup")
    return Story(text=text, mentions=mentions, word_count=count_words(text),
                 spec=req.spec, backend_id="external")


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.output_dir or "out")


# -- commands --------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    from . import geo, ingest
    req = build_request(load_settings(args))
    ds = ingest.parse_dataset(req.dataset_path, req.dataset_schema)
    endpoints = ds.endpoints
    print(f"source: {ds.source_path}")
    print(f"trajectories: {len(ds)}")
    print(f"skipped rows: {ds.skipped_rows}")
    print("skipped by reason: " + ", ".join(f"{reason} {n}"
                                            for reason, n in ds.skipped_by_reason.items()))
    print(f"endpoints: {len(endpoints)}")
    if len(endpoints):
        box = geo.bbox_of_coords(endpoints)
        print(f"endpoint bbox: lon [{box.min_lon:.4f}, {box.max_lon:.4f}] "
              f"lat [{box.min_lat:.4f}, {box.max_lat:.4f}]")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    from . import heatgrid, pipeline
    req = build_request({**load_settings(args), "mode": "heatmap"})
    run = pipeline.run_steps(req, ("ingest", "analytics"))
    print(heatgrid.summarize_for_story(run.grid, run.hotspots), end="")
    paths = pipeline.write_files(_out_dir(args), {**heatgrid.grid_files(run.grid),
                                                  "trace.json": pipeline.trace_json(run)})
    log.info("wrote %s", " and ".join(map(str, paths)))
    return 0


def cmd_story(args: argparse.Namespace) -> int:
    from .pipeline import execute, write_bundle, write_failure
    values = load_settings(args)
    req = build_request(values)
    out = _out_dir(args)
    try:
        run = execute(req, build_backend(values))
    except StoryValidationError as exc:
        write_failure(exc.run, out)
        print(f"failing report written to {out / 'report.txt'}", file=sys.stderr)
        raise
    paths = write_bundle(run, out)
    print(f"story passed validation after {run.attempt} attempt(s)")
    print(f"words: {run.story.word_count}  "
          f"POIs: {len(run.report.per_poi)}  markers: {len(run.doc.markers)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .pipeline import report_files, run_steps, trace_json, write_files
    req = build_request(load_settings(args))
    run = run_steps(req, ("ingest", "analytics", "validate"), story=_read_story(args.story, req))
    files = report_files(run.report)
    print(files["report.txt"], end="")
    if args.output_dir:
        paths = write_files(_out_dir(args), {"report.json": files["report.json"],
                                             "trace.json": trace_json(run)})
        log.info("wrote %s", " and ".join(map(str, paths)))
    return 0 if run.report.overall else StoryValidationError.exit_code


def cmd_map(args: argparse.Namespace) -> int:
    from . import mapdoc, pipeline
    req = build_request({**load_settings(args), "mode": "single_trajectory"})
    steps = (("ingest", "analytics") if req.dataset_path else ()) + ("validate", "emit")
    run = pipeline.run_steps(req, steps, story=_read_story(args.story, req))
    for p in run.report.ungeocodable():
        print(f"warning: cannot geocode {p.name!r}; leaving it off the map", file=sys.stderr)
    paths = pipeline.write_files(_out_dir(args), {**mapdoc.map_files(run.doc),
                                                  "trace.json": pipeline.trace_json(run)})
    print(f"markers: {len(run.doc.markers)}  legend rows: {len(run.doc.legend)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


# -- argument wiring -------------------------------------------------------

def _add_flag(parser: argparse.ArgumentParser, key: str, **kw) -> None:
    convert, flag, _, _ = CONFIG_KEYS[key]
    if convert is _bool:
        kw.update(action="store_const", const="true")
    parser.add_argument(flag, dest=key, **kw)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_flag(common, "offline", help="never touch remote services")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--output-dir", help="where artifacts are written")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="trajstory",
        description="Turn GPS trajectories into validated, mapped data stories.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("ingest", cmd_ingest, "dataset", "parse a dataset and print its stats"),
        ("heatmap", cmd_heatmap, "dataset",
         "build the endpoint heat grid and print hotspots"),
        ("story", cmd_story, None, "run the full pipeline and write the result bundle"),
        ("validate", cmd_validate, "story",
         "ground an existing story file against a dataset"),
        ("map", cmd_map, "story", "geocode a story's POIs and write the map files"),
    ]
    for name, func, positional, help_text in commands:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if positional:
            p.add_argument(positional)
        for key in COMMAND_FLAGS[name]:
            _add_flag(p, key)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except TrajstoryError as exc:
        step = f" (step: {exc.step})" if exc.step else ""
        print(f"{exc.label}{step}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{TrajstoryError.label}: {exc}", file=sys.stderr)
        return TrajstoryError.exit_code


if __name__ == "__main__":
    sys.exit(main())

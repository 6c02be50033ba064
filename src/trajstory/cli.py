"""Command-line front end: each pipeline stage, plus the full story run.

Configuration is a flat key=value file with ``#`` comments; flags override
file values, and the backend auth token only ever comes from the
environment. Exit codes are stable: 0 success, 2 configuration, 3 parse,
4 infrastructure, 5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import (ConfigurationError, EXIT_CONFIG, EXIT_INFRA, EXIT_OK,
                     EXIT_PARSE, EXIT_VALIDATION, InfrastructureError,
                     NotFoundError, ParseError, StoryValidationError,
                     TrajstoryError)
from .gazetteer import Gazetteer, GazetteerConfig, default_fixture_path
from .geo import BoundingBox, bbox_of_coords
from .heatgrid import build_grid, export_grid, summarize_for_story, top_hotspots
from .ingest import SCHEMAS, parse_dataset, select_trajectory, trip_endpoints
from .mapdoc import emit_map, write_map
from .pipeline import StoryRequest, execute, write_bundle
from .story import (NarrativeSpec, RemoteBackend, Story, TemplateBackend,
                    count_words, extract_mentions)
from .synth import ScriptedBackend
from .validation import (GroundingContext, GroundingPolicy, report_to_dict,
                         summarize_report, validate_story)

log = logging.getLogger("trajstory")

BACKENDS = ("template", "remote", "scripted")


def parse_config(path: str | Path) -> dict[str, str]:
    """Flat key=value file; ``#`` starts a comment, later keys win."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _to_bool(value: str, key: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"config key {key}: expected a boolean, got {value!r}")


def _to_num(value: str, key: str, conv):
    try:
        return conv(value)
    except ValueError:
        raise ConfigurationError(
            f"config key {key}: expected a number, got {value!r}") from None


def _parse_bbox(value: str, key: str) -> BoundingBox:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ConfigurationError(
            f"config key {key}: expected min_lon,min_lat,max_lon,max_lat")
    nums = [_to_num(p, key, float) for p in parts]
    return BoundingBox(*nums)


def build_request(cfg: dict[str, str], args: argparse.Namespace) -> StoryRequest:
    """Merge config file and flags into a StoryRequest; flags win."""

    def pick(key: str, flag, default):
        if flag is not None:
            return flag
        return cfg.get(key, default)

    mode = pick("mode", getattr(args, "mode", None), "heatmap")
    spec = NarrativeSpec(
        mode=mode,
        audience=pick("audience", getattr(args, "audience", None),
                      "a professional analyst"),
        max_words=int(_to_num(str(pick("max_words", getattr(args, "max_words", None),
                                       150)), "max_words", int)),
        min_pois=int(_to_num(str(pick("min_pois", getattr(args, "min_pois", None),
                                      15)), "min_pois", int)),
        tone=str(pick("tone", None, "neutral professional")),
        include_blurbs=_to_bool(str(pick("include_blurbs",
                                         getattr(args, "include_blurbs", None),
                                         "false")), "include_blurbs"),
    )
    policy = GroundingPolicy(
        trajectory_threshold_m=_to_num(str(cfg.get("trajectory_threshold_m", 500.0)),
                                       "trajectory_threshold_m", float),
        hotspot_threshold_m=_to_num(str(cfg.get("hotspot_threshold_m", 1000.0)),
                                    "hotspot_threshold_m", float),
        require_geocode=_to_bool(str(cfg.get("require_geocode", "true")),
                                 "require_geocode"),
        min_grounded_fraction=_to_num(str(cfg.get("min_grounded_fraction", 1.0)),
                                      "min_grounded_fraction", float),
    )
    gazetteer = build_gazetteer_config(cfg, args)
    dataset = pick("dataset", getattr(args, "dataset", None), None)
    if not dataset:
        raise ConfigurationError("no dataset given (config key 'dataset' or --dataset)")
    return StoryRequest(
        dataset_path=str(dataset),
        mode=mode,
        spec=spec,
        policy=policy,
        gazetteer=gazetteer,
        selection=str(pick("selection", getattr(args, "selection", None),
                           "longest_by_points")),
        selection_id=pick("trajectory_id", getattr(args, "trajectory_id", None), None),
        hotspot_k=int(_to_num(str(cfg.get("hotspot_k", 5)), "hotspot_k", int)),
        max_retries=int(_to_num(str(pick("max_retries",
                                         getattr(args, "max_retries", None), 3)),
                                "max_retries", int)),
        discovery_radius_m=_to_num(str(pick("discovery_radius_m",
                                            getattr(args, "discovery_radius", None),
                                            1000.0)), "discovery_radius_m", float),
        dataset_schema=str(pick("schema", getattr(args, "schema", None),
                                "kaggle_porto")),
        cell_size_m=_to_num(str(cfg.get("cell_size_m", 250.0)), "cell_size_m", float),
        cluster_distance_m=_to_num(str(cfg.get("cluster_distance_m", 150.0)),
                                   "cluster_distance_m", float),
        trajectory_samples=int(_to_num(str(cfg.get("trajectory_samples", 20)),
                                       "trajectory_samples", int)),
        region_name=str(cfg.get("region_name", "Porto")),
    )


def build_gazetteer_config(cfg: dict[str, str], args: argparse.Namespace) -> GazetteerConfig:
    offline = True
    if "offline" in cfg:
        offline = _to_bool(cfg["offline"], "offline")
    if getattr(args, "offline", False):
        offline = True
    region_bias = None
    if "region_bias" in cfg:
        region_bias = _parse_bbox(cfg["region_bias"], "region_bias")
    return GazetteerConfig(
        base_url=cfg.get("gazetteer_url", "https://nominatim.openstreetmap.org"),
        region_bias=region_bias,
        rate_limit=_to_num(str(cfg.get("rate_limit", 1.0)), "rate_limit", float),
        offline_only=offline,
        fixture_path=cfg.get("fixture", str(default_fixture_path())),
        cache_path=cfg.get("cache", ""),
    )


def build_backend(cfg: dict[str, str], args: argparse.Namespace):
    name = getattr(args, "backend", None) or cfg.get("backend", "template")
    if name not in BACKENDS:
        raise ConfigurationError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "template":
        return TemplateBackend()
    if name == "remote":
        url = cfg.get("backend_url")
        if not url:
            raise ConfigurationError("backend 'remote' needs config key backend_url")
        return RemoteBackend(
            url,
            max_tokens=int(_to_num(str(cfg.get("backend_max_tokens", 512)),
                                   "backend_max_tokens", int)),
            temperature=_to_num(str(cfg.get("backend_temperature", 0.7)),
                                "backend_temperature", float))
    responses_file = cfg.get("responses_file")
    if not responses_file:
        raise ConfigurationError("backend 'scripted' needs config key responses_file")
    try:
        responses = json.loads(Path(responses_file).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"responses file {responses_file}: {exc}") from exc
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise ConfigurationError(f"responses file {responses_file}: "
                                 "expected a JSON array of strings")
    return ScriptedBackend(responses)


def _load_config(args: argparse.Namespace) -> dict[str, str]:
    if getattr(args, "config", None):
        return parse_config(args.config)
    return {}


def _out_dir(args: argparse.Namespace, default: str = "out") -> Path:
    out = Path(args.output_dir or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands --------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    ds = parse_dataset(args.dataset, args.schema)
    endpoints = trip_endpoints(ds)
    print(f"source: {ds.source_path}")
    print(f"trajectories: {len(ds)}")
    print(f"skipped rows: {ds.skipped_rows}")
    print("skipped by reason: " + ", ".join(f"{reason} {n}"
                                            for reason, n in ds.skipped_by_reason.items()))
    print(f"endpoints: {len(endpoints)}")
    if len(endpoints):
        box = bbox_of_coords(endpoints)
        print(f"endpoint bbox: lon [{box.min_lon:.4f}, {box.max_lon:.4f}] "
              f"lat [{box.min_lat:.4f}, {box.max_lat:.4f}]")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    ds = parse_dataset(args.dataset, args.schema)
    endpoints = trip_endpoints(ds)
    if not len(endpoints):
        raise ParseError(f"dataset {args.dataset!r} produced no usable trajectories")
    grid = build_grid(endpoints, cell_size_m=args.cell_size)
    hotspots = top_hotspots(grid, args.top)
    print(summarize_for_story(grid, hotspots), end="")
    out = _out_dir(args)
    export_grid(grid, out / "grid.csv", out / "grid_meta.txt")
    log.info("wrote %s and %s", out / "grid.csv", out / "grid_meta.txt")
    return EXIT_OK


def cmd_story(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    req = build_request(cfg, args)
    backend = build_backend(cfg, args)
    out = _out_dir(args)
    try:
        result = execute(req, backend)
    except StoryValidationError as exc:
        if exc.report is not None:
            (out / "report.json").write_text(
                json.dumps(report_to_dict(exc.report), indent=2, sort_keys=True,
                           ensure_ascii=False) + "\n", encoding="utf-8")
            (out / "report.txt").write_text(summarize_report(exc.report) + "\n",
                                            encoding="utf-8")
        if exc.story is not None:
            (out / "story.txt").write_text(exc.story.text, encoding="utf-8")
        print(f"error: {exc}", file=sys.stderr)
        print(f"failing report written to {out / 'report.txt'}", file=sys.stderr)
        return EXIT_VALIDATION
    paths = write_bundle(result, out)
    print(f"story passed validation after {result.attempts} attempt(s)")
    print(f"words: {result.story.word_count}  "
          f"POIs: {len(result.report.per_poi)}  markers: {len(result.map.markers)}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    text = Path(args.story).read_text(encoding="utf-8")
    mentions = extract_mentions(text)
    if not mentions:
        raise ParseError(f"story file {args.story!r} contains no POI markup")
    spec = NarrativeSpec(mode=args.mode, max_words=args.max_words,
                         min_pois=args.min_pois)
    story = Story(text=text, mentions=mentions, word_count=count_words(text),
                  spec=spec, backend_id="external")
    ds = parse_dataset(args.dataset, args.schema)
    if args.mode == "single_trajectory":
        traj = select_trajectory(ds, args.selection, args.trajectory_id)
        ctx = GroundingContext(trajectory=traj.points)
    else:
        endpoints = trip_endpoints(ds)
        if not len(endpoints):
            raise ParseError(f"dataset {args.dataset!r} produced no usable trajectories")
        grid = build_grid(endpoints, cell_size_m=args.cell_size)
        hotspots = top_hotspots(grid, args.top)
        ctx = GroundingContext(hotspot_centers=[h.center for h in hotspots])
    policy = GroundingPolicy(trajectory_threshold_m=args.trajectory_threshold,
                             hotspot_threshold_m=args.hotspot_threshold)
    gaz = Gazetteer(build_gazetteer_config(cfg, args))
    report = validate_story(story, ctx, policy, gaz)
    print(summarize_report(report))
    if args.output_dir:
        out = _out_dir(args)
        (out / "report.json").write_text(
            json.dumps(report_to_dict(report), indent=2, sort_keys=True,
                       ensure_ascii=False) + "\n", encoding="utf-8")
        log.info("wrote %s", out / "report.json")
    return EXIT_OK if report.overall else EXIT_VALIDATION


def cmd_map(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    text = Path(args.story).read_text(encoding="utf-8")
    mentions = extract_mentions(text)
    if not mentions:
        raise ParseError(f"story file {args.story!r} contains no POI markup")
    gaz = Gazetteer(build_gazetteer_config(cfg, args))
    seen = set()
    pois = []
    for m in mentions:
        poi = gaz.geocode(m.name)
        key = poi.name if poi else m.name
        if key in seen:
            continue
        seen.add(key)
        if poi is None:
            print(f"warning: cannot geocode {m.name!r}; leaving it off the map",
                  file=sys.stderr)
        else:
            pois.append(poi)
    traj = None
    if args.dataset:
        ds = parse_dataset(args.dataset, args.schema)
        traj = select_trajectory(ds, args.selection, args.trajectory_id)
    if not pois and traj is None:
        raise ConfigurationError("nothing to map: no geocodable POIs and no dataset")
    doc = emit_map(pois, trajectory=traj, cluster_distance_m=args.cluster_distance)
    out = _out_dir(args)
    write_map(doc, out / "map.geojson", out / "map.html")
    print(f"markers: {len(doc.markers)}  legend rows: {len(doc.legend)}")
    print(f"wrote {out / 'map.geojson'}")
    print(f"wrote {out / 'map.html'}")
    return EXIT_OK


# -- argument wiring -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--offline", action="store_true",
                        help="never touch remote services")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--output-dir", help="where artifacts are written")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="trajstory",
        description="Turn GPS trajectories into validated, mapped data stories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse a dataset and print its stats")
    p.add_argument("dataset")
    p.add_argument("--schema", choices=SCHEMAS, default="kaggle_porto")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("heatmap", parents=[common],
                       help="build the endpoint heat grid and print hotspots")
    p.add_argument("dataset")
    p.add_argument("--schema", choices=SCHEMAS, default="kaggle_porto")
    p.add_argument("--cell-size", type=float, default=250.0)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("story", parents=[common],
                       help="run the full pipeline and write the result bundle")
    p.add_argument("--dataset")
    p.add_argument("--schema", choices=SCHEMAS)
    p.add_argument("--mode", choices=("heatmap", "single_trajectory"))
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--audience")
    p.add_argument("--max-words", type=int, dest="max_words")
    p.add_argument("--min-pois", type=int, dest="min_pois")
    p.add_argument("--max-retries", type=int, dest="max_retries")
    p.add_argument("--discovery-radius", type=float, dest="discovery_radius")
    p.add_argument("--include-blurbs", action="store_const", const="true",
                   dest="include_blurbs")
    p.add_argument("--selection")
    p.add_argument("--trajectory-id", dest="trajectory_id")
    p.set_defaults(func=cmd_story)

    p = sub.add_parser("validate", parents=[common],
                       help="ground an existing story file against a dataset")
    p.add_argument("story")
    p.add_argument("--dataset", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default="kaggle_porto")
    p.add_argument("--mode", choices=("heatmap", "single_trajectory"),
                   default="single_trajectory")
    p.add_argument("--selection", default="longest_by_points")
    p.add_argument("--trajectory-id", dest="trajectory_id")
    p.add_argument("--cell-size", type=float, default=250.0)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--trajectory-threshold", type=float, default=500.0)
    p.add_argument("--hotspot-threshold", type=float, default=1000.0)
    p.add_argument("--min-pois", type=int, dest="min_pois", default=0)
    p.add_argument("--max-words", type=int, dest="max_words", default=1_000_000)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("map", parents=[common],
                       help="geocode a story's POIs and write the map files")
    p.add_argument("story")
    p.add_argument("--dataset", help="adds the selected trajectory as an overlay")
    p.add_argument("--schema", choices=SCHEMAS, default="kaggle_porto")
    p.add_argument("--selection", default="longest_by_points")
    p.add_argument("--trajectory-id", dest="trajectory_id")
    p.add_argument("--cluster-distance", type=float, default=150.0)
    p.set_defaults(func=cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, NotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_CONFIG
    except InfrastructureError as exc:
        step = f" (step: {exc.step})" if exc.step else ""
        print(f"infrastructure error{step}: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except StoryValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrajstoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

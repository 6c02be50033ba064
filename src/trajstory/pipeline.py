"""Orchestration: plan the expert steps, run them, retry on bad stories.

The planner is deliberately deterministic. With only two modes there is
nothing to learn, and a fixed plan keeps every run replayable. The retry
loop closes the generate-validate circuit: each failing report is distilled
into corrective instructions that ride along in the next prompt.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import (ConfigurationError, InfrastructureError, MalformedStoryError,
                     ParseError, StoryValidationError)
from .gazetteer import Gazetteer, GazetteerConfig, POI
from .geo import GeoPoint
from .heatgrid import DEFAULT_CELL_SIZE_M, build_grid, summarize_for_story, top_hotspots
from .ingest import (SCHEMAS, SELECTION_CRITERIA, Trajectory, parse_dataset,
                     select_trajectory, trajectory_digest, trip_endpoints)
from .mapdoc import (DEFAULT_CLUSTER_DISTANCE_M, MapDocument, _padded_bbox, emit_map,
                     render_geojson, render_html)
from .story import (MODES, NarrativeSpec, Story, StoryBackend, StoryContext,
                    build_prompt, generate_story, story_to_dict)
from .validation import (GroundingContext, GroundingPolicy, ValidationReport,
                         feedback_text, malformed_story_report, report_to_dict,
                         summarize_report, validate_story)


@dataclass
class StoryRequest:
    """Everything one run needs; the CLI builds this from config + flags."""

    dataset_path: str
    mode: str = "heatmap"
    spec: NarrativeSpec = field(default_factory=NarrativeSpec)
    policy: GroundingPolicy = field(default_factory=GroundingPolicy)
    gazetteer: GazetteerConfig = field(default_factory=GazetteerConfig)
    selection: str = "longest_by_points"
    selection_id: str | None = None
    hotspot_k: int = 5
    max_retries: int = 3
    discovery_radius_m: float = 1000.0
    dataset_schema: str = "kaggle_porto"
    cell_size_m: float = DEFAULT_CELL_SIZE_M
    cluster_distance_m: float = DEFAULT_CLUSTER_DISTANCE_M
    trajectory_samples: int = 20
    region_name: str = "Porto"


@dataclass(frozen=True)
class PlanStep:
    name: str
    params: dict


@dataclass
class AgentPlan:
    steps: list[PlanStep]

    def names(self) -> list[str]:
        return [s.name for s in self.steps]


@dataclass
class TraceEntry:
    step: str
    detail: str
    seconds: float


@dataclass
class StoryResult:
    story: Story
    report: ValidationReport
    map: MapDocument
    attempts: int
    trace: list[TraceEntry]


def plan(req: StoryRequest) -> AgentPlan:
    """Derive the fixed six-step plan for the request's mode.

    All request validation happens here; every violation is reported in one
    ConfigurationError rather than surfacing piecemeal.
    """
    problems = []
    if req.mode not in MODES:
        problems.append(f"unknown mode {req.mode!r}")
    if req.spec.mode != req.mode:
        problems.append(f"request mode {req.mode!r} != narrative spec mode {req.spec.mode!r}")
    if req.dataset_schema not in SCHEMAS:
        problems.append(f"unknown dataset schema {req.dataset_schema!r}")
    if req.max_retries < 1:
        problems.append(f"max_retries must be >= 1, got {req.max_retries}")
    if req.discovery_radius_m <= 0:
        problems.append(f"discovery_radius_m must be > 0, got {req.discovery_radius_m}")
    if req.cell_size_m <= 0:
        problems.append(f"cell_size_m must be > 0, got {req.cell_size_m}")
    if req.cluster_distance_m < 0:
        problems.append(f"cluster_distance_m must be >= 0, got {req.cluster_distance_m}")
    if req.mode == "heatmap" and req.hotspot_k < 1:
        problems.append(f"hotspot_k must be >= 1, got {req.hotspot_k}")
    if req.mode == "single_trajectory":
        if req.selection not in SELECTION_CRITERIA:
            problems.append(f"unknown selection criterion {req.selection!r}")
        if req.selection == "by_id" and not req.selection_id:
            problems.append("selection 'by_id' needs selection_id")
        if req.trajectory_samples < 1:
            problems.append(f"trajectory_samples must be >= 1, got {req.trajectory_samples}")
    if problems:
        raise ConfigurationError("invalid request: " + "; ".join(problems))

    steps = [PlanStep("ingest", {"path": req.dataset_path, "schema": req.dataset_schema})]
    if req.mode == "heatmap":
        steps.append(PlanStep("analytics", {"op": "grid_hotspots",
                                            "cell_size_m": req.cell_size_m,
                                            "hotspot_k": req.hotspot_k}))
        steps.append(PlanStep("discovery", {"centers": "hotspots",
                                            "radius_m": req.discovery_radius_m}))
    else:
        steps.append(PlanStep("analytics", {"op": "select_trajectory",
                                            "criterion": req.selection,
                                            "trajectory_id": req.selection_id}))
        steps.append(PlanStep("discovery", {"centers": "trajectory_samples",
                                            "samples": req.trajectory_samples,
                                            "radius_m": req.discovery_radius_m}))
    steps.append(PlanStep("generate", {"max_words": req.spec.max_words,
                                       "min_pois": req.spec.min_pois,
                                       "max_retries": req.max_retries}))
    steps.append(PlanStep("validate", {
        "threshold_m": (req.policy.hotspot_threshold_m if req.mode == "heatmap"
                        else req.policy.trajectory_threshold_m)}))
    steps.append(PlanStep("emit", {"cluster_distance_m": req.cluster_distance_m}))
    return AgentPlan(steps=steps)


def _sample_points(traj: Trajectory, n_samples: int) -> list[GeoPoint]:
    """Every k-th point plus the final one; caps gazetteer queries per path."""
    step = max(1, len(traj.points) // n_samples)
    sampled = traj.points[::step]
    if sampled[-1] is not traj.points[-1]:
        sampled.append(traj.points[-1])
    return sampled


def _merge_candidates(batches: list[list[POI]]) -> list[POI]:
    """Flatten per-center discovery results, first occurrence of a name wins."""
    from .gazetteer import normalize_name

    seen: dict[str, POI] = {}
    for batch in batches:
        for poi in batch:
            seen.setdefault(normalize_name(poi.name), poi)
    return list(seen.values())


def execute(req: StoryRequest, backend: StoryBackend) -> StoryResult:
    """Run the plan end to end; at most ``max_retries`` generation attempts.

    Raises StoryValidationError (carrying the final report and trace) when
    every attempt fails; infrastructure errors propagate tagged with the
    step that hit them.
    """
    plan(req)
    trace: list[TraceEntry] = []

    def record(step: str, detail: str, t0: float) -> None:
        trace.append(TraceEntry(step, detail, time.perf_counter() - t0))

    t0 = time.perf_counter()
    try:
        ds = parse_dataset(req.dataset_path, req.dataset_schema)
    except OSError as exc:
        raise ConfigurationError(f"cannot read dataset {req.dataset_path!r}: {exc}") from exc
    if not len(ds):
        raise ParseError(f"dataset {req.dataset_path!r} produced no usable trajectories")
    reasons = ", ".join(f"{n} {reason}" for reason, n in ds.skipped_by_reason.items() if n)
    record("ingest", f"{len(ds)} trajectories, {ds.skipped_rows} rows skipped"
                     + (f" ({reasons})" if reasons else ""), t0)

    t0 = time.perf_counter()
    traj: Trajectory | None = None
    if req.mode == "heatmap":
        endpoints = trip_endpoints(ds)
        grid = build_grid(endpoints, cell_size_m=req.cell_size_m)
        hotspots = top_hotspots(grid, req.hotspot_k)
        summary = summarize_for_story(grid, hotspots)
        centers = [h.center for h in hotspots]
        grounding = GroundingContext(hotspot_centers=centers)
        record("analytics", f"{grid.rows}x{grid.cols} grid, {len(hotspots)} hotspots", t0)
    else:
        traj = select_trajectory(ds, req.selection, req.selection_id)
        summary = trajectory_digest(traj)
        centers = _sample_points(traj, req.trajectory_samples)
        grounding = GroundingContext(trajectory=traj.points)
        record("analytics", f"selected {traj.id} ({len(traj.points)} points)", t0)

    t0 = time.perf_counter()
    gaz = Gazetteer(req.gazetteer)
    try:
        candidates = _merge_candidates(
            [gaz.pois_near(c, req.discovery_radius_m) for c in centers])
    except InfrastructureError as exc:
        raise InfrastructureError(str(exc), step="discovery") from exc
    record("discovery", f"{len(candidates)} candidate POIs "
                        f"within {req.discovery_radius_m:.0f} m", t0)

    spec = replace(req.spec, extra_instructions=list(req.spec.extra_instructions))
    story_ctx = StoryContext(data_summary=summary, candidate_pois=candidates,
                             region_name=req.region_name)
    story: Story | None = None
    report: ValidationReport | None = None
    attempts = 0
    for attempt in range(1, req.max_retries + 1):
        attempts = attempt
        prompt = build_prompt(spec, story_ctx)
        t0 = time.perf_counter()
        try:
            story = generate_story(prompt, backend, spec, story_ctx)
        except MalformedStoryError as exc:
            story = None
            report = malformed_story_report(str(exc))
            record("generate", f"attempt {attempt}: unparseable story ({exc})", t0)
        except InfrastructureError as exc:
            raise InfrastructureError(str(exc), step="generate") from exc
        else:
            record("generate", f"attempt {attempt}: {story.word_count} words, "
                               f"{len(story.mentions)} mentions", t0)
            t0 = time.perf_counter()
            report = validate_story(story, grounding, req.policy, gaz)
            record("validate", f"attempt {attempt}: "
                               f"{'pass' if report.overall else 'fail'}, "
                               f"grounded fraction {report.grounded_fraction:.2f}", t0)
        if report.overall:
            break
        if attempt < req.max_retries:
            fb = feedback_text(report)
            spec.extra_instructions.append(fb)
            trace.append(TraceEntry("feedback", fb, 0.0))

    if report is None or not report.overall:
        raise StoryValidationError(
            f"story failed validation after {attempts} attempt(s)",
            report=report, trace=trace, story=story)

    t0 = time.perf_counter()
    grounded = [POI(name=p.name, location=p.location, source="report")
                for p in report.per_poi if p.verdict == "grounded"]
    if grounded or traj is not None:
        doc = emit_map(grounded, trajectory=traj,
                       cluster_distance_m=req.cluster_distance_m)
    else:
        doc = MapDocument(markers=[], paths=[], legend=[],
                          bbox=_padded_bbox(centers))
    record("emit", f"{len(doc.markers)} markers, {len(doc.legend)} legend rows", t0)
    return StoryResult(story=story, report=report, map=doc,
                       attempts=attempts, trace=trace)


def write_bundle(result: StoryResult, out_dir: str | Path,
                 with_html: bool = True) -> list[Path]:
    """Drop the run's artifacts in ``out_dir``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    emit("story.txt", result.story.text)
    emit("story.json", json.dumps(story_to_dict(result.story), indent=2,
                                  sort_keys=True, ensure_ascii=False) + "\n")
    emit("report.json", json.dumps(report_to_dict(result.report), indent=2,
                                   sort_keys=True, ensure_ascii=False) + "\n")
    emit("report.txt", summarize_report(result.report) + "\n")
    emit("map.geojson", render_geojson(result.map))
    if with_html:
        emit("map.html", render_html(result.map))
    trace_rows = [{"step": t.step, "detail": t.detail, "seconds": t.seconds}
                  for t in result.trace]
    emit("trace.json", json.dumps({"attempts": result.attempts, "steps": trace_rows},
                                  indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return written

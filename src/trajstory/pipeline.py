"""Orchestration: plan the expert steps, run them, retry on bad stories.

The planner is deliberately deterministic. With only two modes there is
nothing to learn, and a fixed plan keeps every run replayable. The plan is
the list of steps that runs: each step reads and fills one ``RunState``,
and one helper times it, traces it and tags its infrastructure failures
with the step's name. The retry loop closes the generate-validate circuit:
each failing report is distilled into corrective instructions that ride
along in the next prompt.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import (ConfigurationError, InfrastructureError, MalformedStoryError,
                     ParseError, StoryValidationError)
from .gazetteer import Gazetteer, GazetteerConfig, POI
from .geo import bbox_within
from .heatgrid import (DEFAULT_CELL_SIZE_M, HeatGrid, Hotspot, build_grid,
                       summarize_for_story, top_hotspots)
from .ingest import (SCHEMAS, SELECTION_CRITERIA, Dataset, Trajectory, parse_dataset,
                     select_trajectory, trajectory_digest, trip_endpoints)
from .mapdoc import (DEFAULT_CLUSTER_DISTANCE_M, MapDocument, _padded_bbox, emit_map,
                     render_geojson, render_html)
from .story import (MODES, NarrativeSpec, Story, StoryBackend, StoryContext,
                    build_prompt, generate_story, story_to_dict)
from .validation import (GroundingContext, GroundingPolicy, GroundingRule,
                         ValidationReport, feedback_text, grounding_rule,
                         malformed_story_report, report_to_dict, summarize_report,
                         validate_story)


@dataclass
class StoryRequest:
    """Everything one run needs; the CLI builds this from config + flags."""

    dataset_path: str = ""
    mode: str = "heatmap"
    spec: NarrativeSpec = field(default_factory=NarrativeSpec)
    policy: GroundingPolicy = field(default_factory=GroundingPolicy)
    gazetteer: GazetteerConfig = field(default_factory=GazetteerConfig)
    selection: str = "longest_by_points"
    selection_id: str | None = None
    hotspot_k: int = 5
    max_retries: int = 3
    dataset_schema: str = "kaggle_porto"
    cell_size_m: float = DEFAULT_CELL_SIZE_M
    cluster_distance_m: float = DEFAULT_CLUSTER_DISTANCE_M
    region_name: str = "Porto"


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


@dataclass
class RunState:
    """What the steps of one run hand each other; each step fills its part."""

    req: StoryRequest
    backend: StoryBackend | None = None
    story: Story | None = None          # the latest draft, or the story being graded
    attempt: int = 1
    trace: list[TraceEntry] = field(default_factory=list)
    ds: Dataset | None = None
    grid: HeatGrid | None = None        # heatmap analytics
    hotspots: list[Hotspot] = field(default_factory=list)
    traj: Trajectory | None = None      # single_trajectory analytics
    grounding: GroundingContext | None = None
    story_ctx: StoryContext | None = None
    report: ValidationReport | None = None
    doc: MapDocument | None = None
    # The run's own copy of the spec: retry feedback accumulates here.
    spec: NarrativeSpec = field(init=False)

    def __post_init__(self):
        self.spec = replace(self.req.spec,
                            extra_instructions=list(self.req.spec.extra_instructions))

    @cached_property
    def gazetteer(self) -> Gazetteer:
        return Gazetteer(self.req.gazetteer)


Step = tuple[str, Callable[[RunState], str]]


# -- steps: each fills its part of the run and returns its trace detail -------

def _ingest(run: RunState) -> str:
    req = run.req
    try:
        ds = parse_dataset(req.dataset_path, req.dataset_schema)
    except OSError as exc:
        raise ConfigurationError(f"cannot read dataset {req.dataset_path!r}: {exc}") from exc
    if not len(ds):
        raise ParseError(f"dataset {req.dataset_path!r} produced no usable trajectories")
    run.ds = ds
    reasons = ", ".join(f"{n} {reason}" for reason, n in ds.skipped_by_reason.items() if n)
    return (f"{len(ds)} trajectories, {ds.skipped_rows} rows skipped"
            + (f" ({reasons})" if reasons else ""))


def _hotspot_analytics(run: RunState) -> str:
    run.grid = build_grid(trip_endpoints(run.ds), cell_size_m=run.req.cell_size_m)
    run.hotspots = top_hotspots(run.grid, run.req.hotspot_k)
    run.grounding = GroundingContext(hotspot_centers=[h.center for h in run.hotspots])
    return f"{run.grid.rows}x{run.grid.cols} grid, {len(run.hotspots)} hotspots"


def _route_analytics(run: RunState) -> str:
    run.traj = select_trajectory(run.ds, run.req.selection, run.req.selection_id)
    run.grounding = GroundingContext(trajectory=run.traj.points)
    return f"selected {run.traj.id} ({len(run.traj.points)} points)"


def discover(gazetteer: Gazetteer, rule: GroundingRule) -> list[POI]:
    """The known POIs ``rule`` grounds, by (first piece in reach, distance to it, name)."""
    ranked = []
    for poi in gazetteer.known_pois(bbox_within(rule.evidence, rule.threshold_m)):
        reach = rule.first_in_reach(poi.location)
        if reach is not None:
            ranked.append((*reach, poi.name, poi))
    ranked.sort(key=lambda t: t[:3])
    return [t[3] for t in ranked]


def _discover(run: RunState) -> str:
    """Gather the story's material: the data digest and the places validation grounds."""
    rule = grounding_rule(run.grounding, run.req.mode, run.req.policy)
    candidates = discover(run.gazetteer, rule)
    summary = (trajectory_digest(run.traj) if run.traj is not None
               else summarize_for_story(run.grid, run.hotspots))
    run.story_ctx = StoryContext(data_summary=summary, candidate_pois=candidates,
                                 region_name=run.req.region_name)
    return f"{len(candidates)} candidate POIs within {rule.threshold_m:.0f} m"


def _generate(run: RunState) -> str:
    prompt = build_prompt(run.spec, run.story_ctx)
    try:
        run.story = generate_story(prompt, run.backend, run.spec, run.story_ctx)
    except MalformedStoryError as exc:
        run.story = None
        run.report = malformed_story_report(str(exc))
        return f"attempt {run.attempt}: unparseable story ({exc})"
    return (f"attempt {run.attempt}: {run.story.word_count} words, "
            f"{len(run.story.mentions)} mentions")


def _validate(run: RunState) -> str:
    run.report = validate_story(run.story, run.grounding, run.req.policy, run.gazetteer)
    return (f"attempt {run.attempt}: {'pass' if run.report.overall else 'fail'}, "
            f"grounded fraction {run.report.grounded_fraction:.2f}")


def _emit(run: RunState) -> str:
    grounded = [POI(name=p.name, location=p.location, source="report")
                for p in run.report.per_poi if p.verdict == "grounded"]
    if grounded or run.traj is not None:
        run.doc = emit_map(grounded, trajectory=run.traj,
                           cluster_distance_m=run.req.cluster_distance_m)
    else:
        run.doc = MapDocument(markers=[], paths=[], legend=[],
                              bbox=_padded_bbox(run.grounding.hotspot_centers))
    return f"{len(run.doc.markers)} markers, {len(run.doc.legend)} legend rows"


# -- planning and running ------------------------------------------------------

def plan(req: StoryRequest) -> list[Step]:
    """The ``(name, fn)`` steps that run for this request, in order.

    All request validation happens here; every violation is reported in one
    ConfigurationError rather than surfacing piecemeal.
    """
    problems = []
    if not req.dataset_path:
        problems.append("no dataset given (config key 'dataset' or --dataset)")
    if req.mode not in MODES:
        problems.append(f"unknown mode {req.mode!r}")
    if req.spec.mode != req.mode:
        problems.append(f"request mode {req.mode!r} != narrative spec mode {req.spec.mode!r}")
    if req.dataset_schema not in SCHEMAS:
        problems.append(f"unknown dataset schema {req.dataset_schema!r}")
    if req.max_retries < 1:
        problems.append(f"max_retries must be >= 1, got {req.max_retries}")
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
    if problems:
        raise ConfigurationError("invalid request: " + "; ".join(problems))

    analytics = _hotspot_analytics if req.mode == "heatmap" else _route_analytics
    return [("ingest", _ingest), ("analytics", analytics), ("discovery", _discover),
            ("generate", _generate), ("validate", _validate), ("emit", _emit)]


def _run_step(run: RunState, step: Step) -> None:
    """Run one step: time it, trace it, tag its infrastructure failures."""
    name, fn = step
    t0 = time.perf_counter()
    try:
        detail = fn(run)
    except InfrastructureError as exc:
        exc.step = name
        raise
    run.trace.append(TraceEntry(name, detail, time.perf_counter() - t0))


def run_steps(req: StoryRequest, names: tuple[str, ...],
              story: Story | None = None) -> RunState:
    """Run only the named steps of ``plan(req)``, in plan order, on a fresh run.

    This is how a command reuses part of the pipeline: grading an existing
    ``story`` takes ingest, analytics and validate, with no digest and no
    discovery.
    """
    run = RunState(req, story=story)
    for step in plan(req):
        if step[0] in names:
            _run_step(run, step)
    return run


def execute(req: StoryRequest, backend: StoryBackend) -> StoryResult:
    """Run the plan end to end; at most ``max_retries`` generation attempts.

    Raises StoryValidationError (carrying the final report and trace) when
    every attempt fails; infrastructure errors propagate tagged with the
    step that hit them.
    """
    *setup, generate, validate, emit = plan(req)
    run = RunState(req, backend=backend)
    for step in setup:
        _run_step(run, step)
    for attempt in range(1, req.max_retries + 1):
        run.attempt = attempt
        _run_step(run, generate)
        if run.story is not None:
            _run_step(run, validate)
        if run.report.overall:
            break
        if attempt < req.max_retries:
            fb = feedback_text(run.report)
            run.spec.extra_instructions.append(fb)
            run.trace.append(TraceEntry("feedback", fb, 0.0))
    if not run.report.overall:
        raise StoryValidationError(
            f"story failed validation after {run.attempt} attempt(s)",
            report=run.report, trace=run.trace, story=run.story)
    _run_step(run, emit)
    return StoryResult(story=run.story, report=run.report, map=run.doc,
                       attempts=run.attempt, trace=run.trace)


# -- artifacts -----------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def report_files(report: ValidationReport) -> dict[str, str]:
    """``report.json`` and ``report.txt``, by file name."""
    return {"report.json": _json_text(report_to_dict(report)),
            "report.txt": summarize_report(report) + "\n"}


def write_files(out_dir: str | Path, files: dict[str, str]) -> list[Path]:
    """Write each ``name: text`` as UTF-8 in ``out_dir``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def write_bundle(result: StoryResult, out_dir: str | Path,
                 with_html: bool = True) -> list[Path]:
    """Drop the run's artifacts in ``out_dir``; returns the paths written."""
    geojson = render_geojson(result.map)
    files = {"story.txt": result.story.text,
             "story.json": _json_text(story_to_dict(result.story)),
             **report_files(result.report),
             "map.geojson": geojson}
    if with_html:
        files["map.html"] = render_html(result.map, geojson)
    trace_rows = [{"step": t.step, "detail": t.detail, "seconds": t.seconds}
                  for t in result.trace]
    files["trace.json"] = _json_text({"attempts": result.attempts, "steps": trace_rows})
    return write_files(out_dir, files)


def write_failure(exc: StoryValidationError, out_dir: str | Path) -> list[Path]:
    """What a run that failed validation leaves: its last report and draft."""
    files = report_files(exc.report) if exc.report is not None else {}
    if exc.story is not None:
        files["story.txt"] = exc.story.text
    return write_files(out_dir, files)

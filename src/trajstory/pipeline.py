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

import contextlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

from .errors import (ConfigurationError, InfrastructureError, MalformedStoryError,
                     NotFoundError, ParseError, StoryValidationError)
from .gazetteer import Gazetteer, GazetteerConfig, POI
from .geo import as_coords, bbox_within
from .heatgrid import (DEFAULT_CELL_SIZE_M, HeatGrid, Hotspot, build_grid,
                       summarize_for_story, top_hotspots)
from .ingest import (SCHEMAS, SELECTION_CRITERIA, Dataset, Trajectory, parse_dataset,
                     trajectory_digest)
from .mapdoc import DEFAULT_CLUSTER_DISTANCE_M, MapDocument, emit_map, map_files
from .story import (NarrativeSpec, Story, StoryBackend, StoryContext,
                    build_prompt, generate_story, story_to_dict)
from .validation import (GroundingRule, ValidationReport, feedback_text,
                         malformed_story_report, report_to_dict, summarize_report,
                         validate_story)


@dataclass
class StoryRequest:
    """Everything one run needs; the CLI builds this from config + flags."""

    dataset_path: str = ""
    spec: NarrativeSpec = field(default_factory=NarrativeSpec)
    gazetteer: GazetteerConfig = field(default_factory=GazetteerConfig)
    selection: str = "longest_by_points"
    selection_id: str | None = None
    hotspot_k: int = 5
    max_retries: int = 3
    dataset_schema: str = "kaggle_porto"
    cell_size_m: float = DEFAULT_CELL_SIZE_M
    cluster_distance_m: float = DEFAULT_CLUSTER_DISTANCE_M
    trajectory_threshold_m: float = 500.0     # grounding reach along the selected trip
    hotspot_threshold_m: float = 1000.0       # grounding reach around each hotspot center
    region_name: str = "Porto"


@dataclass
class TraceEntry:
    step: str
    detail: str
    seconds: float


@dataclass
class RunState:
    """One run: what its steps hand each other, each filling its part; ``execute`` returns it."""

    req: StoryRequest
    backend: StoryBackend | None = None
    story: Story | None = None          # the latest draft, or the story being graded
    attempt: int = 1
    trace: list[TraceEntry] = field(default_factory=list)
    ds: Dataset | None = None
    grid: HeatGrid | None = None        # heatmap analytics
    hotspots: list[Hotspot] = field(default_factory=list)
    traj: Trajectory | None = None      # single_trajectory analytics
    rule: GroundingRule | None = None   # built by analytics; discovery and validation share it
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
    if not req.dataset_path:
        raise ConfigurationError("no dataset given (config key 'dataset' or --dataset)")
    # a heatmap reads only the endpoints; a route story keeps its one trip
    selection = ((req.selection, req.selection_id)
                 if req.spec.mode == "single_trajectory" else None)
    try:
        ds = parse_dataset(req.dataset_path, req.dataset_schema, selection)
    except OSError as exc:
        raise ConfigurationError(f"cannot read dataset {req.dataset_path!r}: {exc}") from exc
    if not len(ds):
        raise ParseError(f"dataset {req.dataset_path!r} produced no usable trajectories")
    run.ds = ds
    reasons = ", ".join(f"{n} {reason}" for reason, n in ds.skipped_by_reason.items() if n)
    return (f"{len(ds)} trajectories, {ds.skipped_rows} rows skipped"
            + (f" ({reasons})" if reasons else ""))


def _hotspot_analytics(run: RunState) -> str:
    run.grid = build_grid(run.ds.endpoints, cell_size_m=run.req.cell_size_m)
    run.hotspots = top_hotspots(run.grid, run.req.hotspot_k)
    run.rule = GroundingRule(as_coords(h.center for h in run.hotspots),
                             run.req.hotspot_threshold_m, along_path=False)
    return f"{run.grid.rows}x{run.grid.cols} grid, {len(run.hotspots)} hotspots"


def _route_analytics(run: RunState) -> str:
    run.traj = run.ds.selected
    if run.traj is None:        # a dataset with trips lacks only a by_id trip
        raise NotFoundError(f"no trajectory with id {run.req.selection_id!r}")
    run.rule = GroundingRule(run.traj.coords, run.req.trajectory_threshold_m, along_path=True)
    return f"selected {run.traj.id} ({len(run.traj.coords)} points)"


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
    candidates = discover(run.gazetteer, run.rule)
    summary = (trajectory_digest(run.traj) if run.traj is not None
               else summarize_for_story(run.grid, run.hotspots))
    run.story_ctx = StoryContext(data_summary=summary, candidate_pois=candidates,
                                 region_name=run.req.region_name)
    return f"{len(candidates)} candidate POIs within {run.rule.threshold_m:.0f} m"


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
    run.report = validate_story(run.story, run.rule, run.gazetteer)
    return (f"attempt {run.attempt}: {'pass' if run.report.overall else 'fail'}, "
            f"grounded fraction {run.report.grounded_fraction:.2f}")


def _emit(run: RunState) -> str:
    """Map each located place, in report order; grading is done, so drop its evidence."""
    run.rule = None
    located = [POI(name=p.name, location=p.location, source="report")
               for p in run.report.per_poi if p.location is not None]
    try:
        run.doc = emit_map(located, trajectory=run.traj,
                           cluster_distance_m=run.req.cluster_distance_m)
    except ValueError as exc:   # nothing to map: no place located and no trip
        raise ConfigurationError(str(exc)) from None
    return f"{len(run.doc.markers)} markers, {len(run.doc.legend)} legend rows"


# -- planning and running ------------------------------------------------------

def plan(req: StoryRequest) -> list[Step]:
    """The ``(name, fn)`` steps that run for this request, in order.

    All request validation happens here, but for the dataset, which the
    ingest step checks; every violation is reported in one
    ConfigurationError rather than surfacing piecemeal.
    """
    mode = req.spec.mode        # NarrativeSpec has checked it is one of MODES
    problems = []
    if req.dataset_schema not in SCHEMAS:
        problems.append(f"unknown dataset schema {req.dataset_schema!r}")
    if req.max_retries < 1:
        problems.append(f"max_retries must be >= 1, got {req.max_retries}")
    if req.cell_size_m <= 0:
        problems.append(f"cell_size_m must be > 0, got {req.cell_size_m}")
    for key in ("cluster_distance_m", "trajectory_threshold_m", "hotspot_threshold_m"):
        if getattr(req, key) < 0:
            problems.append(f"{key} must be >= 0, got {getattr(req, key)}")
    if mode == "heatmap" and req.hotspot_k < 1:
        problems.append(f"hotspot_k must be >= 1, got {req.hotspot_k}")
    if mode == "single_trajectory":
        if req.selection not in SELECTION_CRITERIA:
            problems.append(f"unknown selection criterion {req.selection!r}")
        if req.selection == "by_id" and not req.selection_id:
            problems.append("selection 'by_id' needs selection_id")
    if problems:
        raise ConfigurationError("invalid request: " + "; ".join(problems))

    analytics = _hotspot_analytics if mode == "heatmap" else _route_analytics
    return [("ingest", _ingest), ("analytics", analytics), ("discovery", _discover),
            ("generate", _generate), ("validate", _validate), ("emit", _emit)]


def run_step(run: RunState, step: Step) -> None:
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
    discovery; mapping one adds emit, or takes only validate and emit
    when there is no dataset.
    """
    run = RunState(req, story=story)
    for step in plan(req):
        if step[0] in names:
            run_step(run, step)
    return run


def execute(req: StoryRequest, backend: StoryBackend) -> RunState:
    """Run the plan end to end and return the run; at most ``max_retries`` attempts.

    Raises StoryValidationError carrying the run (its last report, draft and
    trace) when every attempt fails; infrastructure errors propagate tagged
    with the step that hit them.
    """
    *setup, generate, validate, emit = plan(req)
    run = RunState(req, backend=backend)
    for step in setup:
        run_step(run, step)
    for attempt in range(1, req.max_retries + 1):
        run.attempt = attempt
        run_step(run, generate)
        if run.story is not None:
            run_step(run, validate)
        if run.report.overall:
            break
        if attempt < req.max_retries:
            fb = feedback_text(run.report)
            run.spec.extra_instructions.append(fb)
            run.trace.append(TraceEntry("feedback", fb, 0.0))
    if not run.report.overall:
        raise StoryValidationError(
            f"story failed validation after {run.attempt} attempt(s)", run=run)
    run_step(run, emit)
    return run


# -- artifacts -----------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def report_files(report: ValidationReport) -> dict[str, str]:
    """``report.json`` and ``report.txt``, by file name."""
    return {"report.json": _json_text(report_to_dict(report)),
            "report.txt": summarize_report(report) + "\n"}


def trace_json(run: RunState) -> str:
    """``trace.json``: how many story drafts the run generated or graded (0 where
    it ran neither step) and one row per step it ran."""
    rows = [{"step": t.step, "detail": t.detail, "seconds": t.seconds} for t in run.trace]
    graded = any(t.step in ("generate", "validate") for t in run.trace)
    return _json_text({"attempts": run.attempt if graded else 0, "steps": rows})


def write_files(out_dir: str | Path, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """Write each ``name: text`` as UTF-8 in ``out_dir``; returns the paths written.

    A text may come as an iterable of parts. The files are staged side by
    side, one part of each in turn, so iterables that share their parts
    (``map_files``) hold each only until every file has written it. All or
    nothing: every text goes to a temporary sibling first, and only once all
    of them are written is each renamed over its target, with each old target
    hard-linked aside beforehand. A failed write, or a part that fails to come,
    removes the temporaries; a failed rename also puts the old files back and
    removes the new ones, so the old files are left as they were.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in files]
    staged = [out / f".{name}.{os.getpid()}.tmp" for name in files]
    saved = [out / f".{name}.{os.getpid()}.old" for name in files]
    renamed = 0
    try:
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(tmp, "w", encoding="utf-8")) for tmp in staged]
            texts = [[text] if isinstance(text, str) else text for text in files.values()]
            for row in itertools.zip_longest(*texts, fillvalue=""):
                for fh, part in zip(handles, row):
                    fh.write(part)
        for path, old in zip(paths, saved):
            old.unlink(missing_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.link(path, old)
        for tmp, path in zip(staged, paths):
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for path, old in zip(paths[:renamed], saved):
            if old.exists():
                os.replace(old, path)
            else:
                path.unlink()
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    finally:
        for old in saved:
            old.unlink(missing_ok=True)
    return paths


def write_bundle(run: RunState, out_dir: str | Path) -> list[Path]:
    """Drop a finished run's artifacts in ``out_dir``; returns the paths written."""
    return write_files(out_dir, {"story.txt": run.story.text,
                                 "story.json": _json_text(story_to_dict(run.story)),
                                 **report_files(run.report),
                                 **map_files(run.doc),
                                 "trace.json": trace_json(run)})


def write_failure(run: RunState, out_dir: str | Path) -> list[Path]:
    """What a run that failed validation leaves: its last report, draft and trace."""
    files = report_files(run.report)
    if run.story is not None:
        files["story.txt"] = run.story.text
    files["trace.json"] = trace_json(run)
    return write_files(out_dir, files)

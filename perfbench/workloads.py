"""The workloads: their inputs, the commands they run, their gates.

Each workload puts a different set of modules on the hot path, so a gain in
one layer shows in one workload and is predicted to leave the others alone
(see README.md for the layer-to-metric predictions). ``story-batch`` runs on
request only; README.md says why BENCHMARK.json leaves it out.

An iteration is a list of processes, each a list of CLI operations. Every
process starts fresh; an operation is one ``trajstory`` command with the
exit code its inputs call for.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs as gen

# Files that must come out byte-identical across iterations and between the
# traced and untraced runs.
ARTIFACTS = ("story.txt", "report.json", "map.geojson")
# The CLI's documented exit codes; anything else is a crash.
EXIT_CODES = (0, 2, 3, 4, 5)


@dataclass
class Op:
    label: str
    argv: list[str]       # arguments to ``trajstory``
    expected: int         # exit code the inputs call for
    out: str              # output directory, relative to the checkout root


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _trace_rows(out: Path) -> tuple[int, int] | None:
    """(trajectories, skipped rows) from the ingest step of a run's trace.json."""
    trace = _read_json(out / "trace.json")
    for step in trace["steps"]:
        m = re.match(r"(\d+) trajectories, (\d+) rows skipped", step["detail"])
        if step["step"] == "ingest" and m:
            return int(m.group(1)), int(m.group(2))
    return None


class Workload:
    name = ""
    size = 0
    latency = "iteration"   # a story's latency: the whole iteration, or one op
    stories = 1             # stories handled per iteration

    def checks(self, inp: gen.Inputs, out: str) -> list[Op]:
        """CLI operations run once per run, outside the timed loop."""
        return []

    def check_result(self, inp: gen.Inputs, ops: list[Op]) -> list[str]:
        return []


class HeatmapCity(Workload):
    """One shipped-default heatmap story over a city-scale trip file."""

    name = "heatmap-city"
    size = trips = 100_000
    bad_rows = 1_000                  # 1% of the good rows

    def make(self, d: Path, rng: np.random.Generator, final: Path) -> dict:
        t0 = time.perf_counter()
        pts, off = gen.cluster_trips(rng, self.trips)
        t1 = time.perf_counter()
        rows = gen.write_kaggle_csv(d / "trips.csv", rng, pts, off, self.bad_rows)
        # every endpoint again, as a two-point trip, for the grid check
        ends = np.repeat(pts[off[1:] - 1], 2, axis=0)
        gen.write_kaggle_csv(d / "endpoints.csv", rng, ends,
                             np.arange(0, len(ends) + 1, 2), bad_rows=0)
        return {"rows_written": rows, "bad_rows": self.bad_rows,
                "points": int(off[-1]), "trajectories": self.trips,
                "generate_s": t1 - t0, "write_s": time.perf_counter() - t1}

    def processes(self, inp: gen.Inputs, out: str) -> list[list[Op]]:
        return [[Op("story", ["story", "--dataset", str(inp.path("trips.csv")),
                              "--mode", "heatmap", "--offline", "--output-dir", out],
                    0, out)]]

    def points(self, inp: gen.Inputs) -> int:
        return inp.manifest["points"]

    def gates(self, inp: gen.Inputs, ops: list[Op], codes: list[int]) -> list[str]:
        out = Path(ops[0].out)
        if codes[0] != 0:
            return [f"heatmap story exited {codes[0]}"]
        bad = []
        if _read_json(out / "report.json")["overall"] != "pass":
            bad.append("bundle does not pass validation")
        story = _read_json(out / "story.json")
        distinct = {m["name"] for m in story["mentions"]}
        if len(distinct) < 15 or story["word_count"] > 150:
            bad.append(f"story has {len(distinct)} distinct POIs and "
                       f"{story['word_count']} words")
        rows = _trace_rows(out)
        m = inp.manifest
        if rows is None or sum(rows) != m["rows_written"] or rows[1] != m["bad_rows"]:
            bad.append(f"ingest counted {rows} for {m['rows_written']} rows written "
                       f"({m['bad_rows']} bad)")
        return bad

    def checks(self, inp: gen.Inputs, out: str) -> list[Op]:
        return [Op("grid", ["heatmap", str(inp.path("endpoints.csv")), "--offline",
                            "--output-dir", out], 0, out)]

    def check_result(self, inp: gen.Inputs, ops: list[Op]) -> list[str]:
        """Grid conservation: every endpoint lands in exactly one bucket."""
        out = Path(ops[0].out)
        meta = dict(line.split(" = ") for line in
                    (out / "grid_meta.txt").read_text().splitlines())
        binned = int(np.loadtxt(out / "grid.csv", delimiter=",", ndmin=2).sum())
        in_bbox, outside = int(meta["total_in_bbox"]), int(meta["out_of_bbox"])
        if binned == in_bbox and in_bbox + outside == self.trips:
            return []
        return [f"grid holds {binned} of {in_bbox} in-box endpoints, {outside} "
                f"outside, for {self.trips} endpoints"]


TRACE_STORY = (
    "Before dawn the cab leaves [[POI: Palácio de Cristal Gardens]] and drops a "
    "baker by [[POI: Igreja do Carmo]]. A queue is already forming at "
    "[[POI: Livraria Lello]] below [[POI: Clérigos Tower]].\n\n"
    "By noon the fares circle [[POI: Praça da Liberdade]] and "
    "[[POI: Avenida dos Aliados]], meet trains at [[POI: São Bento Station]], load "
    "crates at [[POI: Bolhão Market]] and shoppers on [[POI: Rua de Santa Catarina]]. "
    "Visitors ask for [[POI: Porto Cathedral]], [[POI: Igreja de São Francisco]] and "
    "the quays of [[POI: Ribeira]].\n\n"
    "At dusk the last fare crosses [[POI: Dom Luís I Bridge]]. The dispatcher's log "
    "also claims stops at [[POI: Foz do Douro]], [[POI: Matosinhos Beach]], "
    "[[POI: Estádio do Dragão]], [[POI: Serralves Museum]] and "
    "[[POI: Parque da Cidade]].\n")


class TraceGrounding(Workload):
    """Ground an externally written story against one long trace, then map it."""

    name = "trace-grounding"
    size = trace_points = 50_000

    def make(self, d: Path, rng: np.random.Generator, final: Path) -> dict:
        t0 = time.perf_counter()
        pts = gen.shift_trace(rng, self.trace_points)
        t1 = time.perf_counter()
        gen.write_point_list(d / "shift.txt", pts)
        (d / "story.txt").write_text(TRACE_STORY, encoding="utf-8")
        return {"points": len(pts), "generate_s": t1 - t0,
                "write_s": time.perf_counter() - t1}

    def processes(self, inp: gen.Inputs, out: str) -> list[list[Op]]:
        story, trace = str(inp.path("story.txt")), str(inp.path("shift.txt"))
        v, m = f"{out}/validate", f"{out}/map"
        return [[Op("validate", ["validate", story, "--dataset", trace,
                                 "--mode", "single_trajectory", "--schema", "point_list",
                                 "--offline", "--output-dir", v], 5, v)],
                [Op("map", ["map", story, "--dataset", trace, "--schema", "point_list",
                            "--offline", "--output-dir", m], 0, m)]]

    def points(self, inp: gen.Inputs) -> int:
        return 2 * inp.manifest["points"]        # validate and map each parse it

    def gates(self, inp: gen.Inputs, ops: list[Op], codes: list[int]) -> list[str]:
        if codes != [op.expected for op in ops]:
            return [f"validate/map exited {codes}"]
        report = _read_json(Path(ops[0].out) / "report.json")
        bad = []
        flagged = [p["name"] for p in report["per_poi"]
                   if p["verdict"] == "spatial_hallucination"]
        if sorted(flagged) != sorted(gen.FAR_NAMES):
            bad.append(f"flagged {flagged}, planted {gen.FAR_NAMES}")
        geocoded = [p["name"] for p in report["per_poi"] if p["lon"] is not None]
        legend = [name for _, name in _read_json(Path(ops[1].out) / "map.geojson")["legend"]]
        if sorted(legend) != sorted(geocoded):
            bad.append(f"map legend {legend} != geocoded names {geocoded}")
        return bad


class StoryBatch(Workload):
    """A closed loop, one client: a rotating mix of small story runs in one process."""

    name = "story-batch"
    csvs = 8
    trips = 60
    size = csvs * trips
    stories = 3 * csvs
    latency = "op"
    unknown_place = "Atlantis Pier"
    far_place = "Matosinhos Beach"

    def make(self, d: Path, rng: np.random.Generator, final: Path) -> dict:
        fixture = gen.load_fixture(Path("src/trajstory/data/porto_pois.csv"))
        t_gen = t_write = 0.0
        points = []
        for i in range(self.csvs):
            t0 = time.perf_counter()
            pts, off, grounded = self._storyable(rng, fixture)
            t1 = time.perf_counter()
            gen.write_kaggle_csv(d / f"trips{i}.csv", rng, pts, off, bad_rows=0)
            drafts = self._drafts(grounded)
            (d / f"drafts{i}.json").write_text(json.dumps(drafts, ensure_ascii=False),
                                               encoding="utf-8")
            (d / f"scripted{i}.conf").write_text(
                f"responses_file = {final / f'drafts{i}.json'}\n", encoding="utf-8")
            points.append(int(off[-1]))
            t_gen += t1 - t0
            t_write += time.perf_counter() - t1
        return {"points_per_csv": points, "generate_s": t_gen, "write_s": t_write}

    def _storyable(self, rng, fixture):
        """A 60-trip set with at least 15 fixture POIs near its hotspots.

        Such a set calls for a passing shipped-default heatmap story, which
        the scripted drafts rely on; about 3% of draws fall short and are
        drawn again. Places within 950 m (50 m inside the grounding
        threshold) count, so rounding can never decide a verdict.
        """
        while True:
            pts, off = gen.cluster_trips(rng, self.trips)
            centers = gen.hotspot_centers([tuple(p) for p in pts[off[1:] - 1].tolist()])
            near = sorted((min(gen.haversine(loc, c) for c in centers), name)
                          for name, loc in fixture.items())
            grounded = [name for dist, name in near if dist <= 950.0][:18]
            far = min(gen.haversine(fixture[self.far_place], c) for c in centers)
            if len(grounded) >= 15 and far > 1500.0:
                return pts, off, grounded

    def _drafts(self, names: list[str]) -> list[str]:
        """Two drafts that each name one bad place, then the grounded one."""
        marked = [f"[[POI: {n}]]" for n in names]
        body = ("Sixty fares cross Porto, and their endings crowd a few busy blocks.\n\n"
                f"The busiest corners are {', '.join(marked[:-1])} and {marked[-1]}.{{}}\n\n"
                "By night the same corners are still busy.\n")
        return [body.format(f" One fare claims a detour to [[POI: {self.far_place}]]."),
                body.format(f" Another swears by [[POI: {self.unknown_place}]]."),
                body.format("")]

    def processes(self, inp: gen.Inputs, out: str) -> list[list[Op]]:
        ops = []
        for i in range(self.csvs):
            csv = str(inp.path(f"trips{i}.csv"))
            base = ["story", "--dataset", csv, "--offline", "--output-dir"]
            ops += [
                Op(f"template{i}", base + [f"{out}/t{i}", "--mode", "heatmap"], 0, f"{out}/t{i}"),
                Op(f"scripted{i}", base + [f"{out}/s{i}", "--mode", "heatmap",
                                           "--backend", "scripted",
                                           "--config", str(inp.path(f"scripted{i}.conf"))],
                   0, f"{out}/s{i}"),
                # shipped defaults, known to fail today; kept so the defect shows
                Op(f"single{i}", base + [f"{out}/c{i}", "--mode", "single_trajectory"],
                   0, f"{out}/c{i}"),
            ]
        return [ops]

    def points(self, inp: gen.Inputs) -> int:
        return 3 * sum(inp.manifest["points_per_csv"])

    def gates(self, inp: gen.Inputs, ops: list[Op], codes: list[int]) -> list[str]:
        bad = []
        for op, code in zip(ops, codes):
            if not op.label.startswith("scripted") or code != 0:
                continue
            trace = _read_json(Path(op.out) / "trace.json")
            feedback = sum(1 for s in trace["steps"] if s["step"] == "feedback")
            if trace["attempts"] != 3 or feedback != 2:
                bad.append(f"{op.label}: {trace['attempts']} attempts, "
                           f"{feedback} feedback rounds, expected 3 and 2")
        return bad


WORKLOADS = {w.name: w for w in (HeatmapCity(), TraceGrounding(), StoryBatch())}

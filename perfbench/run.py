"""trajstory benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload heatmap-city --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It generates (or reuses) the seeded
inputs under ``.perfbench_work/``, measures set-up time, then runs fresh
single-threaded iterations of the workload for ``--seconds``, stopping at the
iteration boundary nearest to it, and checks every iteration's outputs. With ``--trace 1`` it alternates
untraced and traced iterations and reports per-layer metrics, with the
spans written to ``.perfbench_work/results/``.

Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when every correctness gate passed, 1 when one failed, and 2 when
the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs as gen
from workloads import ARTIFACTS, EXIT_CODES, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SETUP_SAMPLES = 9
PROCESS_TIMEOUT_S = 150.0

@dataclass
class Iteration:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    peak_kb: int = 0
    ops: list[Op] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    spans: list[list] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    gate_failures: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, log) -> tuple[int, float, float]:
    """Run one process to the end: exit code, wall s, CPU s."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:           # interrupted or terminated: take the child along
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "trajstory.cli", *argv]


def measure_setup(env: dict, log) -> list[float]:
    """Fresh interpreter to a ready CLI: import plus argument parser."""
    spawn(cli_argv(["--help"]), env, log)           # compiles the bytecode once
    return [spawn(cli_argv(["--help"]), env, log)[1] for _ in range(SETUP_SAMPLES)]


def run_process(ops: list[Op], traced: bool, run_dir: Path, env: dict, log,
                it: Iteration) -> None:
    """One fresh process running ``ops`` through ``child.py``."""
    job = run_dir / f"job{len(it.ops)}.json"
    result_path = run_dir / f"result{len(it.ops)}.json"
    job.write_text(json.dumps({"ops": [op.argv for op in ops], "trace": traced,
                               "result": str(result_path)}))
    code, wall, cpu = spawn([sys.executable, str(HERE / "child.py"), str(job)], env, log)
    if code == 0:
        result = json.loads(result_path.read_text())
    else:
        it.gate_failures.append(f"benchmark child exited {code}; see {log.name}")
        result = {"codes": [1] * len(ops), "ms": [wall * 1000.0] * len(ops),
                  "peak_rss_kb": 0}
    it.wall += wall
    it.cpu += cpu
    it.peak_kb = max(it.peak_kb, result["peak_rss_kb"])
    for name, value in result.get("summary", {}).items():
        it.layer[name] += value
    span_base = len(it.spans)
    for name, start, end, parent, op in result.get("spans", []):
        it.spans.append([name, start, end, parent + span_base if parent >= 0 else -1,
                         len(it.ops) + op])
    it.ops += ops
    it.codes += result["codes"]
    it.op_ms += result["ms"]


def run_iteration(wl, inp: gen.Inputs, traced: bool, run_dir: Path, env: dict,
                  log) -> Iteration:
    inp.verify()
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    it = Iteration(traced)
    for ops in wl.processes(inp, str(out)):
        run_process(ops, traced, run_dir, env, log, it)
    for op, code in zip(it.ops, it.codes):
        if code not in EXIT_CODES:
            it.gate_failures.append(f"{op.label} crashed with exit code {code}")
        for name in ARTIFACTS:
            path = Path(op.out) / name
            if path.exists():
                it.artifacts[f"{op.label}/{name}"] = gen.sha256(path)
        steps = Path(op.out) / "trace.json"
        if traced and steps.exists():
            for step in json.loads(steps.read_text())["steps"]:
                if step["step"] != "feedback":
                    it.layer[f"pipeline.step.{step['step']}_s"] += step["seconds"]
    try:
        it.gate_failures += wl.gates(inp, it.ops, it.codes)
    except (OSError, KeyError, ValueError) as exc:
        it.gate_failures.append(f"cannot read the outputs: {exc!r}")
    return it


def run_checks(wl, inp: gen.Inputs, run_dir: Path, env: dict, log) -> list[str]:
    ops = wl.checks(inp, str(run_dir / "check"))
    for op in ops:
        code = spawn(cli_argv(op.argv), env, log)[0]
        if code != op.expected:
            return [f"check {op.label} exited {code}"]
    try:
        return wl.check_result(inp, ops)
    except (OSError, KeyError, ValueError) as exc:
        return [f"cannot read the check outputs: {exc!r}"]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, inp: gen.Inputs, setup: list[float], its: list[Iteration]) -> dict:
    plain = [it for it in its if not it.traced]
    wall = statistics.median(it.wall for it in plain)
    if wl.latency == "op":
        latencies = [ms for it in plain for ms in it.op_ms]
    else:
        latencies = [it.wall * 1000.0 for it in plain]
    ops = [(op, code) for it in plain for op, code in zip(it.ops, it.codes)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": wl.points(inp) / wall,
        "stories_per_s": wl.stories / wall,
        "story_ms_p50": statistics.median(latencies),
        "story_ms_p90": p90(latencies),
        "peak_rss_mb": statistics.median(it.peak_kb for it in plain) / 1024.0,
        "ok_fraction": sum(code == op.expected for op, code in ops) / len(ops),
    }


def per_layer(names: list[str], inp: gen.Inputs, its: list[Iteration]) -> dict:
    traced = [it for it in its if it.traced]
    plain = [it for it in its if not it.traced]
    rows = []
    for it in traced:
        c = it.layer
        ops = list(zip(it.ops, it.codes))
        rows.append({
            **{name: c.get(name, 0.0) for name in names},
            "ingest.bytes_per_point":
                c.get("ingest.rss_growth_bytes", 0.0) / max(c.get("ingest.points", 0.0), 1.0),
            "validation.grounded_fraction":
                c.get("validation.grounded_fraction_sum", 0.0)
                / max(c.get("validation.calls", 0.0), 1.0),
            "story.prompt_chars":
                c.get("story.prompt_chars_sum", 0.0) / max(c.get("story.prompts", 0.0), 1.0),
            "pipeline.attempts": c.get("story.generate_story.calls", 0.0)
                / max(c.get("pipeline.execute.calls", 0.0), 1.0),
            "cli.failed_fraction": sum(code != op.expected for op, code in ops) / len(ops),
            "synth.generate_s": inp.manifest["generate_s"],
            "synth.write_s": inp.manifest["write_s"],
            "trace.overhead_s": it.wall - statistics.median(p.wall for p in plain),
        })
    return {name: statistics.median(row[name] for row in rows) for name in names}


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in Path("src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not Path("src/trajstory/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("no src/trajstory or BENCHMARK.json here: run from the root of a "
              "trajstory checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    declared = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    inp = gen.cached(WORK / "inputs", wl.name, args.seed, wl.size, wl.make)
    run_dir = WORK / "runs" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    failures: list[str] = []
    with open(run_dir / "stderr.log", "w") as log:
        setup = measure_setup(env, log)
        its: list[Iteration] = []
        start = time.perf_counter()
        # stop at the iteration boundary nearest to --seconds
        while (not its or (args.trace and len({it.traced for it in its}) < 2)
               or time.perf_counter() - start
               + statistics.median(it.wall for it in its) / 2 < args.seconds):
            its.append(run_iteration(wl, inp, bool(args.trace and len(its) % 2),
                                     run_dir, env, log))
        failures += run_checks(wl, inp, run_dir, env, log)
    for i, it in enumerate(its):
        failures += [f"iteration {i}: {msg}" for msg in it.gate_failures]
        if it.artifacts != its[0].artifacts:
            failures.append(f"iteration {i} ({'traced' if it.traced else 'untraced'}) "
                            "outputs differ from iteration 0")

    e2e = end_to_end(wl, inp, setup, its)
    layers = per_layer([m["name"] for m in declared["per_layer"]], inp, its) \
        if args.trace else {}
    all_ops = [(op, code) for it in its for op, code in zip(it.ops, it.codes)]
    exits = Counter(code for _, code in all_ops)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": inp.manifest,
        "setup_samples_s": setup,
        "iterations": [{"traced": it.traced, "wall_s": it.wall, "cpu_s": it.cpu,
                        "peak_rss_kb": it.peak_kb, "codes": it.codes, "op_ms": it.op_ms}
                       for it in its],
        "exit_codes": {str(code): exits[code] for code in sorted(exits)},
        "end_to_end": e2e, "per_layer": layers, "gate_failures": failures,
        "spans": [[*span, i] for i, it in enumerate(its) for span in it.spans],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    if not failures:                # a failing run keeps its outputs and stderr.log
        shutil.rmtree(run_dir, ignore_errors=True)

    for key, value in record["environment"].items():
        print(f"env {key}: {value}")
    failed = sum(code != op.expected for op, code in all_ops)
    print(f"iterations: {len(its)} ({sum(it.traced for it in its)} traced), "
          f"operations: {len(all_ops)}, failed: {failed} "
          f"(failed_fraction {failed / len(all_ops):.4f})")
    print("exit codes: " + ", ".join(f"{code}: {exits[code]}" for code in EXIT_CODES))
    print(f"cpu_s per iteration (diagnostic): "
          f"{statistics.median(it.cpu for it in its):.4f}")
    for name, value in {**e2e, **layers}.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    for msg in failures:
        print(f"GATE FAILED: {msg}")
    metrics = layers if args.trace else e2e
    print(json.dumps({"correct": not failures, "attempted": len(all_ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

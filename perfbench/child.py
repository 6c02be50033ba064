"""One fresh benchmark process: runs trajstory CLI operations in-process.

    python3 perfbench/child.py JOB.json

The job names the CLI argument lists to run one after another through
``trajstory.cli.main``, whether to trace them, and where to write the
result: each operation's exit code and latency and the process's peak
RSS, plus, when traced, the spans and the per-layer summary. The package is imported from the
checkout's ``src`` directory, and from nowhere else.
"""

import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own high-water RSS since exec.

    The rusage a parent reads back also counts the parent's pages when the
    child was started by (v)fork, so the process reports its own figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import trajstory.cli
    if src not in Path(trajstory.cli.__file__).resolve().parents:
        print(f"trajstory was imported from {trajstory.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    codes, ms = [], []
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, argv in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                code = trajstory.cli.main(argv)
            except SystemExit as exc:               # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:                       # a crash the real CLI would show
                traceback.print_exc(file=sys.__stderr__)
                code = 1
            ms.append((time.perf_counter() - t0) * 1000.0)
            codes.append(code)
    result = {"codes": codes, "ms": ms, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""One timed round of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload, the program's source directory, the inputs
made at set-up, the round's output directory and whether to trace. The
round's operations are built first; the clock, the CPU counters and the
tracer then cover only the operations themselves. RESULT_JSON receives the
wall and CPU seconds, the peak resident memory of this process (plus that
of the largest worker process it waited for), each operation's outcome and,
when traced, the per-layer metrics; the spans go to the path in the spec.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import workloads

    if spec.get("warmup"):  # set-up's warm-up: load the program, run nothing
        import compresslens.cli  # noqa: F401

        Path(result_path).write_text("{}\n")
        return 0
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    # built after install, so the operations call the wrapped functions
    ops = workloads.WORKLOADS[spec["workload"]].ops(spec, out)
    if tracer:
        tracer.spans.clear()

    outcomes = []
    cpu0 = tracing.cpu_s()
    t0 = time.perf_counter()
    for span, op in ops:
        try:
            with tracer.span(span) if tracer and span else nullcontext():
                rc = op()
            outcomes.append({"ok": rc in (None, 0), "error": None if rc in (None, 0) else f"exit {rc}"})
        except Exception:  # a failed operation is counted, the round goes on
            outcomes.append({"ok": False, "error": traceback.format_exc(limit=3)})
    wall = time.perf_counter() - t0
    cpu = tracing.cpu_s() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": (own + kids) / 1024.0, "ops": outcomes}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(spec["trace_path"])
    Path(result_path).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

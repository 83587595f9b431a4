"""One benchmark process: set up a workload, then time or trace its rounds.

Started by run.py, never by hand. It prints ``READY`` when set-up is done
(run.py times set-up from process start to that line), ``TIMED`` when the
timed rounds are over (run.py samples the memory of the process tree between
the two lines) and, unless the mode is ``setup``, one ``RESULT <json>`` line at
the end.

Modes:
  setup    set up and exit (an extra set-up sample)
  measure  whole rounds for --seconds with tracing off, then the checks
  trace    whole rounds for --seconds, alternately traced and untraced
           (workers=1), then the checks; reports per-layer metrics
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READY, TIMED, RESULT = "READY", "TIMED", "RESULT "


def host_metadata() -> dict:
    import numpy as np
    import scipy

    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_runtime()
    simd = {key: re.findall(r"'(\w+)'", m.group(1)) for key in ("baseline", "found")
            for m in [re.search(rf"'{key}': \[([^\]]*)\]", text.getvalue())] if m}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "start_method": multiprocessing.get_start_method(), "simd": simd}


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(wl, seconds: float) -> dict:
    from tailseries.errors import TailSeriesError

    import checks
    import tracing

    walls, outputs, failed, last = [], [], 0, None
    deadline = time.perf_counter() + seconds
    while len(walls) + failed == 0 or time.perf_counter() < deadline:
        try:
            wall, last = timed(wl.run_round)
        except TailSeriesError as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        walls.append(wall)
        outputs.append(wl.output_bytes(last))
    print(TIMED, flush=True)
    if not walls:
        raise SystemExit("every round failed")
    failures = checks.identical("outputs of the timed rounds", outputs)
    if wl.workers > 1:
        with tracing.Tracer().active():
            ref = wl.run_round(workers=1)
        failures += checks.identical(
            f"workers={wl.workers} vs traced workers=1 outputs", [outputs[0], wl.output_bytes(ref)])
    failures += wl.check(last)
    return {"walls": walls, "steps_per_round": wl.steps_per_round,
            "attempted": len(walls) + failed, "failed": failed, "failures": failures}


def trace(wl, tracer, seconds: float, out_path: Path) -> dict:
    from tailseries.errors import TailSeriesError

    import checks

    traced, untraced, outputs, failed, last = [], [], [], 0, None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        on = i % 2 == 0
        tracer.group = i
        try:
            with tracer.active() if on else contextlib.nullcontext():
                wall, last = timed(lambda: wl.run_round(workers=1))
        except TailSeriesError as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            failed += 1
        else:
            (traced if on else untraced).append((i, wall))
            outputs.append(wl.output_bytes(last))
        i += 1
    if not traced or not untraced:
        raise SystemExit("every traced or every untraced round failed")
    rounds = [g for g, _ in traced]
    failures = checks.identical("outputs of traced and untraced rounds", outputs)
    failures += checks.identical("per-round counts of the traced rounds",
                                 [json.dumps(tracer.round_counts(g), sort_keys=True)
                                  for g in rounds])
    if wl.workers > 1:
        failures += checks.identical(
            f"traced workers=1 vs workers={wl.workers} outputs",
            [outputs[0], wl.output_bytes(wl.run_round(workers=wl.workers))])
    failures += wl.check(last)
    metrics = tracer.layer_metrics(rounds)
    overhead = (statistics.median(w for _, w in traced)
                - statistics.median(w for _, w in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    tracer.dump(out_path)
    return {"metrics": metrics, "attempted": i, "failed": failed, "failures": failures,
            "traced_walls": [w for _, w in traced], "untraced_walls": [w for _, w in untraced]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        with tracer.active():
            import workloads

            wl = workloads.make(args.workload, args.seed)
    else:
        import workloads

        wl = workloads.make(args.workload, args.seed)
    print(READY, flush=True)
    try:
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
            result = trace(wl, tracer, args.seconds, out)
    finally:
        workloads.close(wl)
    result["host"] = host_metadata()
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

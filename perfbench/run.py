"""Benchmark of the tailseries study presets and the SRE extremal functionals.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each workload runs in fresh processes (worker.py). With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics setup_s, wall_s,
model_steps_per_s and peak_rss_mb; with --trace 1 it holds the per-layer
metrics of a traced run. The line before it records the host, the raw
samples and any failed check. The exit code is 0 only when every check
passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study-linear", "study-nonlinear", "power", "extremal-all")
SETUP_BEFORE, SETUP_AFTER = 1, 2  # set-up-only processes before and after the timed one
TIME_LIMIT_S = 170  # a run ends within this many seconds or fails
MEMORY_INTERVAL_S = 0.02


def tree_pss_kib(root: int) -> int:
    """Summed proportional set size (PSS) of process ``root`` and its descendants.

    PSS splits each shared page among the processes that map it, so pages a
    forked pool worker shares with its parent are counted once.
    """
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with contextlib.suppress(OSError):
                stat = Path(f"/proc/{entry}/stat").read_text()
                parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root], {root}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier}
        tree += frontier
    total = 0
    for pid in tree:
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                if line.startswith("Pss:"):
                    total += int(line.split()[1])
                    break
    return total


class MemorySampler(threading.Thread):
    """Samples ``tree_pss_kib(pid)`` every MEMORY_INTERVAL_S and keeps the peak."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.peak_kib, self.samples = pid, 0, 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(MEMORY_INTERVAL_S):
            kib = tree_pss_kib(self.pid)
            if kib:
                self.peak_kib, self.samples = max(self.peak_kib, kib), self.samples + 1


def run_worker(args: list[str], deadline: float,
               sample_memory: bool = False) -> tuple[float, dict | None, float | None]:
    """Start worker.py; return (seconds from start to READY, its RESULT or None,
    and with ``sample_memory`` the peak PSS in MiB of its process tree between
    READY and TIMED, else None)."""
    t0 = time.perf_counter()
    # A session of its own, so that a kill also reaches the worker's pool processes.
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)

    def kill_group():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill_group)
    killer.start()
    ready, result, sampler, peak_mb = None, None, None, None
    try:
        for line in proc.stdout:
            if ready is None and line.rstrip("\n") == "READY":
                ready = time.perf_counter() - t0
                if sample_memory:
                    sampler = MemorySampler(proc.pid)
                    sampler.start()
            elif sampler and line.rstrip("\n") == "TIMED":
                sampler.done.set()
                sampler.join()
                if not sampler.samples:
                    raise SystemExit("perfbench: no memory samples (needs /proc/<pid>/smaps_rollup)")
                peak_mb = sampler.peak_kib / 1024.0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        if sampler:
            sampler.done.set()
            sampler.join()
        killer.cancel()
        kill_group()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise SystemExit(f"perfbench: worker {' '.join(args)} failed (exit code {code})")
    return ready, result, peak_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tailseries" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        _, res, _ = run_worker(common + ["--mode", "trace", "--seconds", str(args.seconds)],
                               deadline)
        metrics = res["metrics"]
        details = {"traced_walls": res["traced_walls"], "untraced_walls": res["untraced_walls"]}
    else:
        # Set-up is sampled before and after the timed process, so that its
        # median spans the run rather than one moment of it.
        def setup_only():
            return run_worker(common + ["--mode", "setup"], deadline)[0]

        setups = [setup_only() for _ in range(SETUP_BEFORE)]
        ready, res, peak_mb = run_worker(
            common + ["--mode", "measure", "--seconds", str(args.seconds)], deadline,
            sample_memory=True)
        setups += [ready] + [setup_only() for _ in range(SETUP_AFTER)]
        wall = statistics.median(res["walls"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "model_steps_per_s": {"value": res["steps_per_round"] / wall, "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
        }
        details = {"setup_samples": setups, "walls": res["walls"],
                   "steps_per_round": res["steps_per_round"]}
    correct = not res["failures"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host": res["host"], "failed_checks": res["failures"], **details}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

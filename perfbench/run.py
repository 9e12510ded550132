"""Benchmark entry point for algebroid-mech.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload runs in its own worker
process (``worker.py``).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics: ``setup_s`` (median over several fresh processes
of process start to ready), ``ops_per_ref_s``, ``op_p50_ref_s``,
``op_p90_ref_s`` and ``peak_rss_mb``.  Times are in reference seconds
(see reference.py); the lines before the result also give wall seconds.
With ``--trace 1`` the result carries the per-layer metrics of a traced
run.  NOTES.md describes the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REF_START_S, start_time, to_reference  # noqa: E402

WORKLOADS = ("constrained_flows", "point_checks", "trajectories")
SETUP_SAMPLES = 11
# a run must end within 180 s; the worker gets what is left after set-up
RUN_TIMEOUT_S = 170.0
# the longest --seconds that set-up, a round past the budget and a traced
# run's derived measurements still fit into RUN_TIMEOUT_S
MAX_SECONDS = 150.0


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def spawn(args, setup_only):
    """Start a worker; returns it and its wall time from start to ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start: {line.strip()!r}")
    return proc, ready_s


def finish(proc, timeout):
    """Wait for a worker and return its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure(args):
    """Set-up samples as (wall s, reference s), then the worker's stdout.

    Set-up is sampled in setup-only workers, each between two reference
    interpreter starts; a traced run takes no samples."""
    start = perf_counter()
    setup = []
    if not args.trace:
        ref_before = start_time()
        for _ in range(SETUP_SAMPLES):
            proc, ready_s = spawn(args, setup_only=True)
            finish(proc, 60.0)
            ref_after = start_time()
            setup.append((ready_s, to_reference(ready_s, ref_before, ref_after, REF_START_S)))
            ref_before = ref_after
    proc, _ = spawn(args, setup_only=False)
    return setup, finish(proc, max(1.0, RUN_TIMEOUT_S - (perf_counter() - start)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "algebroid_mech" / "__init__.py").is_file():
        print(f"error: no algebroid_mech source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS:g}")

    try:
        units = declared_units(args.trace)
        setup, out = measure(args)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    values = result["metrics"]
    if setup:
        print(f"setup wall s: {' '.join(f'{wall:.4f}' for wall, _ in setup)}")
        print(f"setup ref s:  {' '.join(f'{ref:.4f}' for _, ref in setup)}")
        values = {"setup_s": statistics.median(ref for _, ref in setup), **values}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, then run rounds of CLI ops.

Started by ``run.py``.  Prints ``ready`` once setup is done (imports,
parser build, the first instantiate of every system the workload uses),
then runs the closed loop: one client, each op sent after the previous
one returns, each op a cold ``cli.main`` call writing to a temp file.  The
last stdout line is a JSON object with the ops attempted and failed and
the run's metric values by name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from reference import reference_time, to_reference  # noqa: E402

THREADS_ENV = "ALGEBROID_MECH_THREADS"
# shares of --seconds in a traced run: untraced rounds, then traced rounds;
# the fixed-size derived measurements take the rest
UNTRACED_SHARE = 0.4
TRACED_SHARE = 0.45
DERIVED_REPEATS = 3


class Runner:
    """Runs ops through ``cli.main`` and gates their output."""

    def __init__(self, cli, sections, tmpdir):
        self.cli = cli
        self.sections = sections
        self.out = Path(tmpdir) / "out"
        self.tracer = None  # set during the traced rounds
        self.attempted = 0
        self.failed = 0
        self.ref_before = None

    def run(self, op):
        """Latency of one op in seconds and in reference seconds, its gate
        problems and its output text."""
        argv = list(op.argv) + ["--out", str(self.out)]
        if self.ref_before is None:
            self.ref_before = reference_time()
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # an uncaught error is a failed op, not a crashed run
            code = None
            traceback.print_exc()
        latency = perf_counter() - t0
        ref_after = reference_time()
        ref_latency = to_reference(latency, self.ref_before, ref_after)
        self.ref_before = ref_after
        text = self.out.read_text() if self.out.exists() else ""
        if self.out.exists():
            self.out.unlink()
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            problems = gate.check_op(op, code, text, self.sections)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.label}: {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
        return latency, ref_latency, problems, text

    def rounds(self, workload, seed, budget):
        """Whole rounds from index 0 until ``budget`` seconds have passed;
        returns one list of (label, latency_s, latency_ref_s) per round."""
        out = []
        start = perf_counter()
        while not out or perf_counter() - start < budget:
            ops = workloads.round_ops(workload, seed, len(out))
            out.append([(op.label, *self.run(op)[:2]) for op in ops])
        return out


def ops_per_ref_s(rounds) -> float:
    """Median over rounds of ops per reference second of CLI time."""
    return statistics.median(len(r) / sum(ref for *_, ref in r) for r in rounds)


def setup(workload):
    os.environ.pop(THREADS_ENV, None)
    from algebroid_mech import cli, gallery

    cli.build_parser()
    sections = {}
    for system, omega in workloads.systems_used(workload):
        gs = gallery.instantiate(system, omega=omega)
        if "reference" in gs.reference_sections:
            sections[(system, omega)] = gs.reference_sections["reference"]
    return cli, sections


def untraced_metrics(rounds) -> dict:
    p50, p90 = np.percentile([ref for r in rounds for *_, ref in r], [50, 90])
    return {
        "ops_per_ref_s": ops_per_ref_s(rounds),
        "op_p50_ref_s": float(p50),
        "op_p90_ref_s": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def warm_over_cold(seed) -> float:
    """One rolling-ball lift repeated on the same system object: warm time
    over cold time, median of a few fresh systems."""
    from algebroid_mech import gallery, hamilton_jacobi

    rng = np.random.default_rng([seed, 1_000_000])
    ratios = []
    for _ in range(DERIVED_REPEATS):
        gs = gallery.instantiate("rolling_ball")
        alpha = gs.reference_sections["reference"]
        q0 = np.array(workloads.random_point(rng, gs.default_box))
        times = []
        for _ in range(2):
            t0 = perf_counter()
            hamilton_jacobi.verify_lift(gs.system, alpha, q0, 0.0, workloads.BALL_T1, 1e-2)
            times.append(perf_counter() - t0)
        ratios.append(times[1] / times[0])
    return statistics.median(ratios)


def thread_speedup(runner, seed) -> float:
    """point_checks hj-check ops untraced: time with the thread cap unset
    over time with it at the number of usable cores.  The two outputs of
    each op must be byte-identical."""
    ops = [op for op in workloads.round_ops("point_checks", seed, 0) if op.kind == "hj-check"]
    nproc = str(len(os.sched_getaffinity(0)))
    times = {None: [], nproc: []}
    for _ in range(DERIVED_REPEATS):
        for cap in times:
            if cap is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = cap
            total, texts = 0.0, []
            for op in ops:
                _, latency, _, text = runner.run(op)
                total += latency
                texts.append(text)
            times[cap].append((total, texts))
    os.environ.pop(THREADS_ENV, None)
    for (_, seq), (_, par) in zip(times[None], times[nproc]):
        if seq != par:
            runner.attempted += 1
            runner.failed += 1
            print("FAILED hj-check output depends on the thread cap", file=sys.stderr)
    seq_s = statistics.median(t for t, _ in times[None])
    par_s = statistics.median(t for t, _ in times[nproc])
    return seq_s / par_s


def traced_metrics(runner, workload, seed, seconds) -> dict:
    from tracer import Tracer

    base = runner.rounds(workload, seed, UNTRACED_SHARE * seconds)
    tracer = Tracer()
    runner.tracer = tracer
    with tracer:
        traced = runner.rounds(workload, seed, TRACED_SHARE * seconds)
    runner.tracer = None
    layers = tracer.layer_metrics(per=len(traced))
    layers["constructions.warm_over_cold"] = warm_over_cold(seed)
    layers["util.parallel_map.speedup_nproc"] = thread_speedup(runner, seed)
    layers["trace.overhead"] = ops_per_ref_s(traced) / ops_per_ref_s(base)
    _print_layers(tracer, layers, len(traced))
    return layers


def _print_layers(tracer, layers, rounds):
    print(f"traced rounds: {rounds}; per round, by self time:")
    print(f"  {'layer':44s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(tracer.names, key=lambda n: -layers[f"{n}.self_s"]):
        print(f"  {name:44s} {layers[name + '.calls']:10.0f} "
              f"{layers[name + '.total_s']:10.4f} {layers[name + '.self_s']:10.4f}")
    for name in sorted(layers):
        if not name.endswith((".calls", ".total_s", ".self_s")):
            print(f"  {name:44s} {layers[name]:.6g}")
    if tracer.absent:
        print(f"  absent layers: {', '.join(tracer.absent)}")


def _print_ops(rounds):
    by_label = {}
    for r in rounds:
        for label, *lat in r:
            by_label.setdefault(label, []).append(lat)
    print(f"rounds: {len(rounds)}; median op latency by op type:")
    for label, lat in sorted(by_label.items(), key=lambda kv: statistics.median(x[1] for x in kv[1])):
        sec = statistics.median(x[0] for x in lat)
        ref = statistics.median(x[1] for x in lat)
        print(f"  {label:40s} {sec:.4f} s  {ref:.4f} ref_s  (n={len(lat)})")
    p50, p90 = np.percentile([x[1] for r in rounds for x in r], [50, 90])
    print(f"  all ops, wall seconds: p50 {p50:.4f} s, p90 {p90:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, sections = setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        runner = Runner(cli, sections, tmpdir)
        if args.trace:
            metrics = traced_metrics(runner, args.workload, args.seed, args.seconds)
        else:
            rounds = runner.rounds(args.workload, args.seed, args.seconds)
            _print_ops(rounds)
            metrics = untraced_metrics(rounds)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

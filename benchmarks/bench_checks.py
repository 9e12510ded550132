"""Time the README's CLI commands and the sampled checks of one or more
source trees and write wall times, output hashes and accuracy numbers to
JSON.

The commands are the nine in README.md's CLI section, then the disk's
default ``hj-check`` and a 5 s ``lift-verify``, then ``simulate`` and
``dissipation`` of the four systems built without a constraint kernel at
their default horizons (three_body_drag from its ``dS`` section, as it has
no reference section), then the ops of the benchmark's ``constrained_flows``
workload at its sizes from the default starts (the ball's 0.3 s lift under
both ``--omega`` laws, the disk's 0.6 s lift and its 0.15 s ``simulate``
and ``dissipation``), then the checks at the benchmark's
``point_checks`` sizes: the ``hj-check`` grids of its five systems
(4 points per axis on the ball, 3 on the disk and 8 on the three 2-D
systems, whose residuals read the operands their systems bind once over
constant data), the disk's ``flag-rank`` at two off-axis points
(the workload draws its points from [-pi, pi]^4): at 0.3,-0.2,0.5,0.1,
as at the README's 0,0,0,0, every flag step is 1e-3 and 41 of the 100
nested stencil points are distinct; at 2.1,-1.3,0.4,-2.9 the steps
scale with the coordinates beyond 1 and 46 are), the disk's ``dissipation``
at K = 2.5, J = 0.7 and its ``lift-verify`` at K = 2.5, kappa = 0.3, both
from q0 = (0.3, -0.2, 0.5, 0.4), where its force rows are not ~0 as they
are at the default start phi = pi/2, the ball's ``hj-check`` (4 points per
axis) and cocycle check under ``--omega linear``, whose stacked kernel
builds contract a C_E that varies with q, every gallery system's
adapted-frame cocycle and the ball's kernel section at 16 samples, the
four morphism checks at 8, and four handler paths that no command above takes (a JSON
``simulate``, the ball's ``mu-projection`` morphism, a ``--x0``
start, and a ``dissipation`` whose first row's H is non-finite, which
exits 3), then three checks at 1,100 samples, more than one sweep chunk
(``PREFETCH_CHUNK``, 1,024), so that the stack forms of the disk's and the
morphism's declared callables run on a full chunk and on a short one: the
disk's cocycle and identity morphism checks and the ball's
``mu-projection`` morphism.  Each run is a fresh interpreter, so the
constructed algebroids start with nothing built.  A tree's time for a
command is the best of k runs, and the trees alternate run by run so that
drift in the machine's speed falls on all of them alike.  Every tree is
byte-compiled (``compileall``) before the first timed run, so that no
tree's ``wall_s`` includes compiling the package on every command (a tree
without bytecode read 20-30 ms higher per command); each entry's
``bytecode_compiled`` records that it was.  The bytecode goes to a
temporary cache prefix (``sys.pycache_prefix`` here, PYTHONPYCACHEPREFIX in
the children, which one untimed run per tree of the CLI's import and of a
sampled check fills with the bytecode of the standard library and numpy
modules the commands import, ``locale`` and ``numpy.random`` among them; it
runs without PYTHONDONTWRITEBYTECODE so that it writes it whatever the
environment sets, and the timed children keep the environment's setting),
so the measured trees are left as they were: a tree holding ``__pycache__``
reads a lower perfbench ``setup_s``.

    python benchmarks/bench_checks.py --tree parent=OLD/src --tree change=src --out BENCH_13.json

``run_s`` times the ``cli.main`` call inside the child; ``wall_s`` also
includes interpreter start-up and the package import.  Each command also
records the median ``run_s`` of its k runs, and with two trees
``run_s_ratio`` holds the median and quartiles over rounds of the second
tree's ``run_s`` over the first's, per command and for the round's total:
the trees run back to back in each round, so the per-round ratio cancels
most of the machine's drift, which a best of k does not (it did not
resolve changes below about 1.5x at k = 3).  The SHA-256 of every
output (JSON or CSV) and of every command's stderr (run with numpy's
RuntimeWarnings ignored, as they name the tree's files) is recorded, and so
are the accuracy numbers of each JSON report (``max_violation`` per
named report, the HJ residual's ``max_norm`` and the lift's
``max_deviation``), so a speed-up that changes results shows up;
``outputs_equal`` says whether every command gave the same exit code,
output bytes and stderr bytes in every tree, and ``outputs_differ``
lists the commands that did not.  The script exits 1 when any did, after
writing the JSON and printing them, and 0 otherwise.

``src_lines`` counts the lines of a tree's ``algebroid_mech/*.py`` and
``src_code_lines`` those that hold code: no blank line, no comment-only line
and no docstring line.

``constructions`` holds the in-process ``gallery.instantiate`` time of
every gallery system, and of the ball under ``--omega linear``, from
fresh children that alternate trees as the commands do: ``cold_s`` is
the first build after the import, ``warm_s`` the mean of the next
BUILD_REPS builds, each the best of k.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

GALLERY = ("cylinder_friction", "riemannian_flat", "rolling_ball", "three_body_drag",
           "time_dependent_free", "vertical_disk")
CHECK_SAMPLES = "16"
MORPHISM_SAMPLES = "8"
# more samples than one sweep chunk (algebroid_mech.algebroid.PREFETCH_CHUNK, 1,024) holds
CHUNK_BOUNDARY_SAMPLES = "1100"
README = (
    ["gallery", "list"],
    ["simulate", "vertical_disk", "--section", "reference", "--t1", "5", "--dt", "1e-3"],
    ["hj-check", "rolling_ball", "--section", "reference", "--tol", "1e-9"],
    ["lift-verify", "rolling_ball", "--t1", "10", "--dt", "1e-2"],
    ["cocycle-check", "rolling_ball"],
    ["cocycle-check", "rolling_ball", "--on", "v", "--section", "reference"],
    ["flag-rank", "vertical_disk", "--point", "0,0,0,0", "--depth", "4"],
    ["morphism-check", "cylinder_friction", "--morphism", "momentum-scale"],
    ["dissipation", "vertical_disk", "--t1", "5"],
)
ACCURACY = (
    ["hj-check", "vertical_disk"],
    ["lift-verify", "vertical_disk", "--t1", "5", "--dt", "1e-2"],
)
# the ops of the benchmark's ``constrained_flows`` workload at its sizes; the linear law is the one
# gallery kernel whose ambient C varies with q
CONSTRAINED_FLOWS = (
    ["lift-verify", "rolling_ball", "--omega", "constant", "--t1", "0.3", "--dt", "1e-2"],
    ["lift-verify", "rolling_ball", "--omega", "linear", "--t1", "0.3", "--dt", "1e-2"],
    ["lift-verify", "vertical_disk", "--t1", "0.6", "--dt", "1e-2"],
    ["simulate", "vertical_disk", "--t1", "0.15", "--dt", "0.001"],
    ["dissipation", "vertical_disk", "--t1", "0.15", "--dt", "0.001"],
)
# the grid sizes of the benchmark's ``point_checks`` workload: the two kernel systems, then the three
# constant ones
POINT_CHECK_GRIDS = (
    ["hj-check", "rolling_ball", "--resolution", "4"],
    ["hj-check", "vertical_disk", "--resolution", "3"],
    ["hj-check", "cylinder_friction", "--resolution", "8"],
    ["hj-check", "time_dependent_free", "--resolution", "8"],
    ["hj-check", "riemannian_flat", "--resolution", "8"],
)
# the benchmark's ``point_checks`` flag-rank op at off-axis points, the second with its steps scaled beyond |q| = 1
OFF_AXIS_FLAGS = (
    ["flag-rank", "vertical_disk", "--point", "0.3,-0.2,0.5,0.1", "--depth", "4"],
    ["flag-rank", "vertical_disk", "--point", "2.1,-1.3,0.4,-2.9", "--depth", "4"],
)
# the systems of the benchmark's ``trajectories`` workload
TRAJECTORY_SECTIONS = {"time_dependent_free": "reference", "riemannian_flat": "reference",
                       "cylinder_friction": "reference", "three_body_drag": "dS"}
TRAJECTORIES = tuple([kind, g, "--section", section] for g, section in TRAJECTORY_SECTIONS.items()
                     for kind in ("simulate", "dissipation"))
# the disk's force rows away from phi = pi/2, where every command above starts and cos(phi) ~ 6e-17 makes F ~ 0
FORCED_DISK = (
    ["dissipation", "vertical_disk", "--param", "K=2.5", "--param", "J=0.7", "--q0=0.3,-0.2,0.5,0.4", "--t1", "1"],
    ["lift-verify", "vertical_disk", "--param", "K=2.5", "--param", "kappa=0.3", "--q0=0.3,-0.2,0.5,0.4",
     "--t1", "1", "--dt", "1e-2"],
)
# the stacked kernel build of the one gallery kernel whose ambient C_E varies with q: its per-stack contraction
LINEAR_BALL_GRID = ("hj-check", "rolling_ball", "--omega", "linear", "--resolution", "4")
# CLI handler paths that none of the commands above take; the last is an error path, whose exit code 3 and
# stderr are compared like any output
HANDLER_PATHS = (
    ["simulate", "rolling_ball", "--t1", "1", "--dt", "1e-2", "--format", "json"],
    ["simulate", "riemannian_flat", "--x0", "1,0.3,0.1,0.2"],
    ["dissipation", "cylinder_friction", "--x0", "0,0,1e200,0", "--t1", "2e-3", "--dt", "1e-3"],
)

CHILD = """
import json, sys, time, warnings
warnings.simplefilter("ignore", RuntimeWarning)
from algebroid_mech.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "run_s": time.perf_counter() - t}))
"""
# every gallery system's construction, and the ball's under the linear omega law
CONSTRUCTIONS = tuple((g, "constant") for g in GALLERY) + (("rolling_ball", "linear"),)
BUILD_REPS = 50
# the CLI's import, then a sampled check, which imports numpy.random, and a file write, which imports locale, at
# run time: every module a command imports
WARM_UP = """
import json, os, time, warnings
from algebroid_mech.cli import main
main(["cocycle-check", "rolling_ball", "--samples", "1", "--out", os.devnull])
"""
BUILD_CHILD = """
import json, sys, time
from algebroid_mech.gallery import instantiate
system, omega, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
t = time.perf_counter()
instantiate(system, omega=omega)
cold = time.perf_counter() - t
t = time.perf_counter()
for _ in range(reps):
    instantiate(system, omega=omega)
print(json.dumps({"cold_s": cold, "warm_s": (time.perf_counter() - t) / reps}))
"""


def commands(seed: int) -> list:
    s = str(seed)
    cmds = [list(argv) for argv in README + ACCURACY + TRAJECTORIES + CONSTRAINED_FLOWS + POINT_CHECK_GRIDS
            + OFF_AXIS_FLAGS + FORCED_DISK + (LINEAR_BALL_GRID,)]
    cmds += [["cocycle-check", g, "--samples", CHECK_SAMPLES, "--seed", s] for g in GALLERY]
    cmds.append(["cocycle-check", "rolling_ball", "--omega", "linear", "--samples", CHECK_SAMPLES, "--seed", s])
    cmds.append(["cocycle-check", "rolling_ball", "--on", "v", "--section", "reference",
                 "--samples", CHECK_SAMPLES, "--seed", s])
    for g in ("cylinder_friction", "rolling_ball", "vertical_disk"):
        cmds.append(["morphism-check", g, "--morphism", "identity", "--samples", MORPHISM_SAMPLES, "--seed", s])
    cmds.append(["morphism-check", "cylinder_friction", "--morphism", "momentum-scale",
                 "--samples", MORPHISM_SAMPLES, "--seed", s])
    cmds += [list(argv) for argv in HANDLER_PATHS]
    cmds.append(["morphism-check", "rolling_ball", "--morphism", "mu-projection",
                 "--samples", MORPHISM_SAMPLES, "--seed", s])
    cmds += [["cocycle-check", "vertical_disk", "--samples", CHUNK_BOUNDARY_SAMPLES, "--seed", s],
             ["morphism-check", "vertical_disk", "--samples", CHUNK_BOUNDARY_SAMPLES, "--seed", s],
             ["morphism-check", "rolling_ball", "--morphism", "mu-projection",
              "--samples", CHUNK_BOUNDARY_SAMPLES, "--seed", s]]
    return cmds


@contextlib.contextmanager
def bytecode_outside_the_trees():
    """Point ``sys.pycache_prefix``, where ``compileall`` writes and ``child_env`` sends every child, at a
    temporary directory for the duration, so that no measured tree gets a ``__pycache__``."""
    saved = sys.pycache_prefix
    with tempfile.TemporaryDirectory() as prefix:
        sys.pycache_prefix = prefix
        try:
            yield
        finally:
            sys.pycache_prefix = saved


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=sys.pycache_prefix)


def compile_tree(src: Path) -> bool:
    """Byte-compile ``src`` into the cache prefix, then run WARM_UP once, untimed, so that the prefix also
    holds the bytecode of the standard library and numpy modules the children import; it writes it even
    where the environment sets PYTHONDONTWRITEBYTECODE."""
    compiled = bool(compileall.compile_dir(str(src), quiet=1))
    env = child_env(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", WARM_UP], env=env, capture_output=True,
                   check=False)  # a tree that cannot run fails in its first timed run
    return compiled


def run_once(src: Path, argv: list, out: Path) -> dict:
    out.unlink(missing_ok=True)  # a command that writes nothing must not read the last one's output
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", str(out)],
                          env=child_env(src), capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} crashed in {src}: {proc.stderr.strip()}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    data = out.read_bytes() if out.exists() else b""
    return {
        "exit": child["exit"],
        "run_s": child["run_s"],
        "wall_s": wall,
        **accuracy(data),
        "output_sha256": hashlib.sha256(data).hexdigest(),
        "stderr_sha256": hashlib.sha256(proc.stderr.encode()).hexdigest(),
    }


def build_once(src: Path, system: str, omega: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", BUILD_CHILD, system, omega, str(BUILD_REPS)],
                          env=child_env(src), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"instantiate({system!r}, omega={omega!r}) crashed in {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def accuracy(data: bytes) -> dict:
    """``max_violation`` (report name -> value), ``max_norm`` and
    ``max_deviation`` of the JSON reports in an output; empty or None for
    CSV and for reports without them."""
    try:
        payload = json.loads(data)
    except ValueError:
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    report = payload.get("report", {})
    reports = list(payload.get("reports", {}).values()) + [report]
    return {
        "max_violation": {r["name"]: r["max_violation"] for r in reports if "max_violation" in r},
        "max_norm": report.get("max_norm"),
        "max_deviation": report.get("max_deviation"),
    }


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"q1": q1, "median": median, "q3": q3}


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "algebroid_mech").glob("*.py")))


def code_lines(path: Path) -> int:
    """The lines of a Python file that hold code: not blank, not a comment alone, not part of a docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(
                node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def src_code_lines(src: Path) -> int:
    return sum(code_lines(p) for p in sorted((src / "algebroid_mech").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a label and the src directory holding algebroid_mech (repeatable)")
    ap.add_argument("--k", type=int, default=5, help="runs per command and tree; the best and the median are kept")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("--k must be >= 1")
    trees = {}
    for spec in args.tree:
        label, sep, src = spec.partition("=")
        if not sep or not label:
            ap.error(f"--tree needs LABEL=SRC, got {spec!r}")
        trees[label] = Path(src).resolve()

    cmds = commands(args.seed)
    runs = {label: [[] for _ in cmds] for label in trees}
    builds = {label: [[] for _ in CONSTRUCTIONS] for label in trees}
    with bytecode_outside_the_trees(), tempfile.TemporaryDirectory() as tmp:
        compiled = {label: compile_tree(src) for label, src in trees.items()}
        out = Path(tmp) / "output"
        for rnd in range(args.k):
            order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
            for c, argv in enumerate(cmds):
                for label in order:
                    runs[label][c].append(run_once(trees[label], argv, out))
            for b, (system, omega) in enumerate(CONSTRUCTIONS):
                for label in order:
                    builds[label][b].append(build_once(trees[label], system, omega))

    entries = {}
    for label, src in trees.items():
        rows = []
        for argv, rs in zip(cmds, runs[label]):
            first = rs[0]
            stable = {key: first[key] for key in first if key not in ("run_s", "wall_s")}
            for r in rs[1:]:
                if {key: r[key] for key in stable} != stable:
                    raise RuntimeError(f"{label}: {' '.join(argv)} gave different results across runs")
            rows.append({
                "argv": argv,
                **stable,
                "run_s": min(r["run_s"] for r in rs),
                "wall_s": min(r["wall_s"] for r in rs),
                "median_run_s": float(np.median([r["run_s"] for r in rs])),
            })
        entries[label] = {
            "bytecode_compiled": compiled[label],
            "src_lines": src_lines(src),
            "src_code_lines": src_code_lines(src),
            "total_run_s": sum(r["run_s"] for r in rows),
            "total_wall_s": sum(r["wall_s"] for r in rows),
            "commands": rows,
            "constructions": [
                {"system": system, "omega": omega, "cold_s": min(r["cold_s"] for r in rs),
                 "warm_s": min(r["warm_s"] for r in rs)}
                for (system, omega), rs in zip(CONSTRUCTIONS, builds[label])
            ],
        }

    outcomes = [[(r["exit"], r["output_sha256"], r["stderr_sha256"]) for r in e["commands"]]
                for e in entries.values()]
    differ = [" ".join(argv) for c, argv in enumerate(cmds) if any(o[c] != outcomes[0][c] for o in outcomes)]
    result = {
        "benchmark": "README commands and sampled checks, fresh process per run, best and median of k",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "k": args.k,
        "seed": args.seed,
        "entries": entries,
        "outputs_equal": not differ,
        "outputs_differ": differ,
    }
    if len(trees) == 2:
        first, second = (np.array([[r["run_s"] for r in rs] for rs in runs[label]]) for label in trees)  # (commands, k)
        result["run_s_ratio"] = {
            "of": "{1}/{0}".format(*trees),
            "total": quartiles(second.sum(axis=0) / first.sum(axis=0)),
            "commands": [{"argv": argv, **quartiles(r)} for argv, r in zip(cmds, second / first)],
        }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for label, e in entries.items():
        print(f"{label}: run {e['total_run_s']:.3f} s, wall {e['total_wall_s']:.3f} s, src {e['src_lines']} lines, "
              f"{e['src_code_lines']} code lines")
        for c in e["constructions"]:
            print(f"  instantiate {c['system']} ({c['omega']}): cold {c['cold_s'] * 1e3:.2f} ms, "
                  f"warm {c['warm_s'] * 1e3:.2f} ms")
    if "run_s_ratio" in result:
        total = result["run_s_ratio"]["total"]
        print(f"run_s ratio {result['run_s_ratio']['of']} per round: median {total['median']:.3f} "
              f"(quartiles {total['q1']:.3f}-{total['q3']:.3f})")
    print(f"outputs equal across trees: {result['outputs_equal']}")
    for argv in differ:
        print(f"  differs: {argv}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

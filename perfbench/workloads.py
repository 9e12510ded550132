"""Seeded op generators for the three benchmark workloads.

An op is one ``algebroid_mech.cli.main(argv)`` call plus what the
correctness gate needs to judge its output.  A workload is a fixed round
of ops; the runner repeats rounds, and round ``i`` of seed ``s`` always
draws its numeric arguments from ``default_rng([s, i])``, so the same seed
gives the same inputs while the op mix never changes.

Vector-valued flags are always emitted as ``--flag=value``: argparse
rejects a separate token that starts with ``-`` (``--box -0.5:0.5,...``
exits 2 with "expected one argument").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from algebroid_mech import gallery


@functools.cache
def default_box(system: str) -> tuple:
    """The gallery system's default box; inputs are drawn from it."""
    return gallery.instantiate(system).default_box


# systems whose ``reference`` section is an exact Hamilton-Jacobi solution
REFERENCE_SYSTEMS = (
    "vertical_disk",
    "rolling_ball",
    "cylinder_friction",
    "time_dependent_free",
    "riemannian_flat",
)


@dataclass(frozen=True)
class Op:
    """One CLI call and its expected outcome.

    ``kind`` names the op type in reports; ``expect`` holds the facts the
    gate compares against (expected exit code, sizes, starting point,
    whether the lift property p = alpha(q) must hold).
    """

    kind: str
    argv: tuple
    system: str
    omega: str = "constant"
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        suffix = f"/{self.omega}" if self.system == "rolling_ball" else ""
        return f"{self.kind} {self.system}{suffix}"


def _vec(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def random_point(rng, box):
    return [lo + (hi - lo) * rng.random() for lo, hi in box]


def _sub_box(rng, box, min_share=0.3):
    """A random axis-aligned sub-box covering at least ``min_share`` of
    each axis of ``box``."""
    out = []
    for lo, hi in box:
        width = (hi - lo) * (min_share + (1.0 - min_share) * rng.random())
        start = lo + (hi - lo - width) * rng.random()
        out.append((start, start + width))
    return out


def _box_arg(box) -> str:
    return ",".join(f"{lo:.6f}:{hi:.6f}" for lo, hi in box)


def _steps(t1, dt) -> int:
    return int(round(t1 / dt))


def _flow_op(kind, system, q0, t1, dt, section="reference"):
    """simulate (trajectory CSV) or dissipation (t, H, rate CSV) from q0."""
    argv = [kind, system, f"--q0={_vec(q0)}", "--t1", repr(t1), "--dt", repr(dt)]
    if section != "reference":
        argv.append(f"--section={section}")
    expect = {"exit": 0, "rows": _steps(t1, dt) + 1, "dt": dt, "q0": [float(f"{v:.6f}") for v in q0]}
    if kind == "simulate":
        expect["lift"] = section == "reference"
    return Op(kind=kind, argv=tuple(argv), system=system, expect=expect)


# ---------------------------------------------------------------------------
# constrained_flows: lifts and flows on the two constructed systems


BALL_T1 = 0.3
DISK_LIFT_T1 = 0.6
DISK_FLOW_T1 = 0.15


def constrained_flows(rng) -> list:
    ops = []
    for omega in ("constant", "linear"):
        q0 = random_point(rng, default_box("rolling_ball"))
        argv = ["lift-verify", "rolling_ball", "--omega", omega, f"--q0={_vec(q0)}",
                "--t1", repr(BALL_T1), "--dt", "1e-2"]
        ops.append(Op("lift-verify", tuple(argv), "rolling_ball", omega, {"exit": 0}))
    q0 = random_point(rng, default_box("vertical_disk"))
    argv = ["lift-verify", "vertical_disk", f"--q0={_vec(q0)}", "--t1", repr(DISK_LIFT_T1), "--dt", "1e-2"]
    ops.append(Op("lift-verify", tuple(argv), "vertical_disk", expect={"exit": 0}))
    for kind in ("simulate", "dissipation"):
        ops.append(_flow_op(kind, "vertical_disk", random_point(rng, default_box("vertical_disk")), DISK_FLOW_T1, 1e-3))
    return ops


# ---------------------------------------------------------------------------
# point_checks: residual, cocycle, morphism and flag sweeps, no integration

HJ_RESOLUTION = {
    "vertical_disk": 3,
    "rolling_ball": 4,
    "cylinder_friction": 8,
    "time_dependent_free": 8,
    "riemannian_flat": 8,
}
CHECK_SAMPLES = 16
MORPHISM_SAMPLES = 8


def point_checks(rng) -> list:
    ops = []
    for system in REFERENCE_SYSTEMS:
        res = HJ_RESOLUTION[system]
        argv = ["hj-check", system, f"--box={_box_arg(_sub_box(rng, default_box(system)))}",
                "--resolution", str(res)]
        expect = {"exit": 0, "points": res ** len(default_box(system))}
        ops.append(Op("hj-check", tuple(argv), system, expect=expect))
    for system in sorted(gallery.GALLERY_IDS):
        seed = int(rng.integers(0, 2**31 - 1))
        argv = ["cocycle-check", system, "--samples", str(CHECK_SAMPLES), "--seed", str(seed)]
        ops.append(Op("cocycle-check", tuple(argv), system, expect={"exit": 0}))
    # README: the ball's reference section is not a cocycle of the kernel
    # algebroid, so this check must keep failing
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["cocycle-check", "rolling_ball", "--on", "v", "--section", "reference",
            "--samples", str(CHECK_SAMPLES), "--seed", str(seed)]
    ops.append(Op("cocycle-check-v", tuple(argv), "rolling_ball", expect={"exit": 1}))
    for system in ("cylinder_friction", "rolling_ball", "vertical_disk"):
        seed = int(rng.integers(0, 2**31 - 1))
        argv = ["morphism-check", system, "--morphism", "identity",
                "--samples", str(MORPHISM_SAMPLES), "--seed", str(seed)]
        ops.append(Op("morphism-check", tuple(argv), system, expect={"exit": 0}))
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["morphism-check", "cylinder_friction", "--morphism", "momentum-scale",
            "--samples", str(MORPHISM_SAMPLES), "--seed", str(seed)]
    ops.append(Op("morphism-check-scale", tuple(argv), "cylinder_friction",
                  expect={"exit": 1, "failing": ["cocycle_related", "hamiltonian_pullback", "poisson_morphism"]}))
    point = random_point(rng, ((-math.pi, math.pi),) * 4)
    argv = ["flag-rank", "vertical_disk", f"--point={_vec(point)}", "--depth", "4"]
    ops.append(Op("flag-rank", tuple(argv), "vertical_disk", expect={"exit": 0, "dim": 4}))
    return ops


# ---------------------------------------------------------------------------
# trajectories: RK4 on the four systems built without a constraint kernel

TRAJECTORY_SYSTEMS = ("time_dependent_free", "riemannian_flat", "cylinder_friction", "three_body_drag")
TRAJECTORY_T1 = 0.5


def trajectories(rng) -> list:
    ops = []
    for system in TRAJECTORY_SYSTEMS:
        # three_body_drag has no exact section; dS is its probe section
        section = "dS" if system == "three_body_drag" else "reference"
        for kind in ("simulate", "dissipation"):
            q0 = random_point(rng, default_box(system))
            ops.append(_flow_op(kind, system, q0, TRAJECTORY_T1, 1e-3, section=section))
    return ops


WORKLOADS = {
    "constrained_flows": constrained_flows,
    "point_checks": point_checks,
    "trajectories": trajectories,
}


def round_ops(workload: str, seed: int, index: int) -> list:
    """The ops of round ``index`` for ``seed``; deterministic."""
    return WORKLOADS[workload](np.random.default_rng([seed, index]))


def systems_used(workload: str) -> list:
    """(system, omega) pairs a workload instantiates, in a stable order."""
    pairs = {(op.system, op.omega) for op in round_ops(workload, 0, 0)}
    return sorted(pairs)

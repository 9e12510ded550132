"""Command-line front end.

Subcommands: ``gallery list``, ``simulate``, ``hj-check``, ``lift-verify``,
``cocycle-check``, ``flag-rank``, ``morphism-check``, ``dissipation``.

Exit codes: 0 success / check passed, 1 check failed (report still
written), 2 usage error, 3 numeric failure.  JSON reports embed the fully
resolved configuration and are pretty-printed with sorted keys, so a rerun
with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .algebroid import DualSection, check_cocycle, flag_rank, v_restriction
from .constructions import MorphismEndpoint, MorphismPair, morphism_check
from .errors import AlgebroidError, DomainError, NumericFailure
from .gallery import GALLERY_IDS, gallery_index, instantiate
from .hamilton import dissipation_rate, integrate_hamilton
from .hamilton_jacobi import hj_grid_check, verify_lift
from .io import curve_json_dict, dump_json, table_csv, trajectory_csv, trajectory_header

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _finite(text):
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def _parse_params(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        out[name.strip()] = float(val)
    return out


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"expected comma-separated decimals, got {text!r}")


def _box(gs, args):
    if not args.box:
        return gs.default_box
    box = []
    for axis in args.box.split(","):
        lo, sep, hi = axis.partition(":")
        if not sep:
            raise ValueError(f"box axis must be lo:hi, got {axis!r}")
        box.append((float(lo), float(hi)))
    if len(box) != gs.system.chart.dim:
        raise ValueError(f"--box needs {gs.system.chart.dim} axes for {gs.id}")
    return tuple(box)


def _horizon(gs, args):
    return (gs.horizon[0] if args.t0 is None else args.t0, gs.horizon[1] if args.t1 is None else args.t1)


def _write(out_path, text):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolved_config(args, **extra):
    # everything that determines the computation; the destination path is
    # deliberately excluded so reruns are byte-identical wherever written
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in ("handler", "command", "out") or callable(val):
            continue
        if isinstance(val, np.ndarray):
            val = [float(v) for v in val]
        cfg[key] = val
    cfg.update(extra)
    cfg["version"] = __version__
    return cfg


def _load_system(args):
    params = _parse_params(getattr(args, "param", None))
    return instantiate(args.system, params or None, omega=getattr(args, "omega", "constant"))


def _initial_state(gs, args):
    sys_ = gs.system
    if getattr(args, "x0", None):
        x0 = _parse_vector(args.x0)
        if len(x0) != sys_.chart.dim + sys_.n_momenta:
            raise ValueError(
                f"--x0 needs {sys_.chart.dim + sys_.n_momenta} components for {gs.id}"
            )
        return x0
    q0 = _q0(gs, args)
    section = gs.section(getattr(args, "section", None) or "reference")
    return np.concatenate([q0, section(q0)])


def _q0(gs, args):
    q0 = _parse_vector(args.q0) if getattr(args, "q0", None) else np.array(gs.default_q0)
    if len(q0) != gs.system.chart.dim:
        raise ValueError(f"--q0 needs {gs.system.chart.dim} components for {gs.id}")
    return q0


def _cmd_gallery(args):
    if args.action != "list":
        raise ValueError("gallery supports only the 'list' action")
    _write(args.out, dump_json(gallery_index()))
    return EXIT_OK


def _cmd_simulate(args):
    gs = _load_system(args)
    sys_ = gs.system
    curve = integrate_hamilton(sys_, _initial_state(gs, args), *_horizon(gs, args), args.dt)
    header = trajectory_header(sys_.chart, sys_.n_momenta)
    if args.format == "csv":
        _write(args.out, trajectory_csv(curve, header))
    else:
        payload = {"config": _resolved_config(args, system_params=gs.params), "trajectory": curve_json_dict(curve, header)}
        _write(args.out, dump_json(payload))
    return EXIT_OK


def _cmd_dissipation(args):
    gs = _load_system(args)
    sys_ = gs.system
    curve = integrate_hamilton(sys_, _initial_state(gs, args), *_horizon(gs, args), args.dt)
    rows = []
    for t, state in zip(curve.times, curve.points):
        rows.append((t, sys_.H(state), dissipation_rate(sys_, state)))
    _write(args.out, table_csv(["t", "H", "rate"], rows))
    return EXIT_OK


def _cmd_hj_check(args):
    gs = _load_system(args)
    section = gs.section(args.section)
    resolution = [int(v) for v in args.resolution.split(",")] if "," in args.resolution else int(args.resolution)
    report = hj_grid_check(gs.system, section, _box(gs, args), resolution=resolution, tol=args.tol)
    payload = {"config": _resolved_config(args, system_params=gs.params), "report": report.to_json_dict()}
    _write(args.out, dump_json(payload))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_lift_verify(args):
    gs = _load_system(args)
    section = gs.section(args.section)
    report = verify_lift(gs.system, section, _q0(gs, args), *_horizon(gs, args), args.dt, tol=args.tol)
    payload = {"config": _resolved_config(args, system_params=gs.params), "report": report.to_json_dict()}
    _write(args.out, dump_json(payload))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_cocycle_check(args):
    gs = _load_system(args)
    sys_ = gs.system
    if args.on == "e":
        A = sys_.algebroid
        phi = np.zeros(A.rank)
        phi[0] = 1.0
        section = DualSection(components=lambda q, v=phi: v, space="E*")
        name = "adapted-frame cocycle"
    else:
        A = v_restriction(sys_.algebroid)
        if not args.section:
            raise ValueError("--on v requires --section")
        named = gs.section(args.section)
        section = DualSection(components=named.components, space="E*", jacobian=named.jacobian)
        name = f"section {args.section} on the kernel algebroid"
    report = check_cocycle(A, section, _box(gs, args), samples=args.samples, seed=args.seed, tol=args.tol)
    payload = {
        "config": _resolved_config(args, system_params=gs.params, checked=name),
        "report": report.to_json_dict(),
    }
    _write(args.out, dump_json(payload))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_flag_rank(args):
    gs = _load_system(args)
    A = gs.extras.get("constraint_algebroid", gs.system.algebroid)
    q = _parse_vector(args.point)
    if len(q) != A.chart.dim:
        raise ValueError(f"--point needs {A.chart.dim} components for {gs.id}")
    ranks = flag_rank(A, q, args.depth)
    payload = {
        "config": _resolved_config(args, system_params=gs.params),
        "report": {
            "ranks": ranks,
            "dim": A.chart.dim,
            "full_rank": bool(ranks and ranks[-1] == A.chart.dim),
        },
    }
    _write(args.out, dump_json(payload))
    return EXIT_OK


def _make_morphism(gs, args):
    sys_ = gs.system
    m = sys_.chart.dim
    if args.morphism == "identity":
        src = MorphismEndpoint.from_system(sys_)
        dst = MorphismEndpoint.from_system(sys_)
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
    elif args.morphism == "mu-projection":
        src = MorphismEndpoint.from_system(sys_)
        dst = MorphismEndpoint.v_side(sys_)
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p[1:])
    elif args.morphism == "momentum-scale":
        factor = args.factor
        src = MorphismEndpoint.from_system(sys_)
        dst = MorphismEndpoint.from_system(sys_)
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: factor * p)
    else:
        raise ValueError(f"unknown morphism {args.morphism!r}")
    return src, dst, pair


def _cmd_morphism_check(args):
    gs = _load_system(args)
    src, dst, pair = _make_morphism(gs, args)
    reports = morphism_check(src, dst, pair, _box(gs, args), samples=args.samples, seed=args.seed, tol=args.tol)
    payload = {
        "config": _resolved_config(args, system_params=gs.params),
        "reports": {r.name: r.to_json_dict() for r in reports},
    }
    _write(args.out, dump_json(payload))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _add_system_arg(parser):
    parser.add_argument("system", choices=sorted(GALLERY_IDS), help="gallery system id")
    parser.add_argument("--param", action="append", metavar="NAME=VALUE", help="parameter override (repeatable)")
    parser.add_argument("--omega", choices=["constant", "linear"], default="constant",
                        help="angular-velocity law for the rolling ball; other systems take only 'constant'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="algebroid-mech",
        description="Simulate and verify Hamiltonian dynamics on skew-symmetric algebroids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw)

    p = sub.add_parser("gallery", help="inspect the systems gallery")
    p.add_argument("action", choices=["list"])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(handler=_cmd_gallery)

    p = add_parser("simulate", help="integrate the Hamilton equations, emit a trajectory")
    _add_system_arg(p)
    p.add_argument("--x0", help="initial state q1..qm,p1..pn (comma-separated)")
    p.add_argument("--q0", help="initial base point; momenta from --section")
    p.add_argument("--section", default=None, help="section supplying momenta (default: reference)")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = add_parser("dissipation", help="H and its rate of change along a trajectory (CSV)")
    _add_system_arg(p)
    p.add_argument("--x0")
    p.add_argument("--q0")
    p.add_argument("--section", default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_dissipation)

    p = add_parser("hj-check", help="Hamilton-Jacobi residual of a section over a grid")
    _add_system_arg(p)
    p.add_argument("--section", default="reference")
    p.add_argument("--box", default=None, help="per-axis lo:hi, comma-separated")
    p.add_argument("--resolution", default="11", help="grid points per axis (int or comma list)")
    p.add_argument("--tol", type=_finite, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_hj_check)

    p = add_parser("lift-verify", help="compare the lifted base flow with the Hamilton flow")
    _add_system_arg(p)
    p.add_argument("--section", default="reference")
    p.add_argument("--q0", default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=_finite, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_lift_verify)

    p = add_parser("cocycle-check", help="verify a section is a cocycle")
    _add_system_arg(p)
    p.add_argument("--on", choices=["e", "v"], default="e",
                   help="check the adapted cocycle on E, or a named section on the kernel")
    p.add_argument("--section", default=None)
    p.add_argument("--box", default=None)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_finite, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_cocycle_check)

    p = add_parser("flag-rank", help="bracket-generating flag ranks at a point")
    _add_system_arg(p)
    p.add_argument("--point", required=True, help="chart point, comma-separated")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_flag_rank)

    p = add_parser("morphism-check", help="numeric hamiltonian-morphism conditions")
    _add_system_arg(p)
    p.add_argument("--morphism", choices=["identity", "mu-projection", "momentum-scale"],
                   default="identity")
    p.add_argument("--factor", type=_finite, default=2.0)
    p.add_argument("--box", default=None)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_finite, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_morphism_check)

    return parser


def _attach_vector_values(argv):
    """``--box -1:1,...`` -> ``--box=-1:1,...``: argparse takes a separated
    value that starts with '-' and is not a plain number for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--box", "--q0", "--x0", "--point") and re.match(r"-[0-9.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_vector_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args)
    except (NumericFailure, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, AlgebroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

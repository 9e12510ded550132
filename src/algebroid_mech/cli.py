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
from .algebroid import FLAG_FIELD_CAP, _Stacked, adapted_cocycle, check_cocycle, flag_rank, sweep, v_restriction
from .calculus import require_finite
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


def _tolerance(text):
    if _finite(text) < 0.0:  # no value could pass a check against it
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return float(text)


def _integer(lo, hi, expected):
    """An argparse type: an integer in lo..hi, else an error naming ``expected``."""
    def parse(text):
        try:
            val = int(text)
        except ValueError:
            val = None
        if val is None or not lo <= val <= hi:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return val

    return parse


_seed = _integer(0, math.inf, "a non-negative integer")
# deeper levels than the field cap can only repeat the last rank
_depth = _integer(1, FLAG_FIELD_CAP, f"an integer in 1..{FLAG_FIELD_CAP}")


def _parse_params(pairs):
    out = {}
    for name, sep, val in (item.partition("=") for item in pairs or []):
        if not sep:
            raise ValueError(f"--param expects name=value, got {name!r}")
        try:
            out[name.strip()] = float(val)
        except ValueError:
            raise ValueError(f"--param {name.strip()} expects a number, got {val!r}") from None
    return out


def _parse_vector(text, flag):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated decimals, got {text!r}") from None


def _resolution(text):
    try:
        return [int(v) for v in text.split(",")] if "," in text else int(text)
    except ValueError:
        raise ValueError(f"--resolution expects an integer or comma-separated integers, got {text!r}") from None


def _box(gs, args):
    if args.box is None:
        return gs.default_box
    try:  # an axis without exactly one ':' fails to unpack
        box = tuple((float(lo), float(hi)) for lo, hi in (axis.split(":") for axis in args.box.split(",")))
    except ValueError:
        raise ValueError(f"--box expects comma-separated lo:hi numbers, got {args.box!r}") from None
    if len(box) != gs.system.chart.dim:
        raise ValueError(f"--box needs {gs.system.chart.dim} axes for {gs.id}")
    return box


def _horizon(gs, args):
    return (gs.horizon[0] if args.t0 is None else args.t0, gs.horizon[1] if args.t1 is None else args.t1)


def _write(out_path, text):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, gs, key, body, passed=True, **extra):
    """Write ``{"config": ..., key: body}`` as JSON and return the exit code.
    The config excludes the destination path, so reruns are byte-identical
    wherever written."""
    config = {k: v for k, v in vars(args).items() if k not in ("handler", "command", "out")}
    config.update(system_params=gs.params, **extra, version=__version__)
    _write(args.out, dump_json({"config": config, key: body}))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _load_system(args):
    return instantiate(args.system, _parse_params(args.param) or None, omega=args.omega)


def _q0(gs, args):
    q0 = np.array(gs.default_q0) if args.q0 is None else _parse_vector(args.q0, "--q0")
    if len(q0) != gs.system.chart.dim:
        raise ValueError(f"--q0 needs {gs.system.chart.dim} components for {gs.id}")
    return q0


def _integrate(args):
    """The system and its Hamilton flow from --x0, or from --q0 and --section."""
    gs = _load_system(args)
    sys_ = gs.system
    if args.x0 is not None and (args.q0 is not None or args.section is not None):
        raise ValueError("--x0 gives the whole initial state; it excludes --q0 and --section")
    if args.x0 is not None:
        x0 = _parse_vector(args.x0, "--x0")
        if len(x0) != sys_.chart.dim + sys_.n_momenta:
            raise ValueError(f"--x0 needs {sys_.chart.dim + sys_.n_momenta} components for {gs.id}")
    else:
        q0 = _q0(gs, args)
        x0 = np.concatenate([q0, gs.section("reference" if args.section is None else args.section)(q0)])
    return gs, integrate_hamilton(sys_, x0, *_horizon(gs, args), args.dt)


def _cmd_gallery(args):
    _write(args.out, dump_json(gallery_index()))
    return EXIT_OK


def _cmd_simulate(args):
    gs, curve = _integrate(args)
    header = trajectory_header(gs.system.chart, gs.system.n_momenta)
    if args.format == "csv":
        _write(args.out, trajectory_csv(curve, header))
        return EXIT_OK
    return _emit(args, gs, "trajectory", curve_json_dict(curve, header))


def _cmd_dissipation(args):
    gs, curve = _integrate(args)
    sys_ = gs.system
    rows = sweep(curve.points,  # a chunk's H column beside its rate column from one stacked call
                 lambda X: np.column_stack([[sys_.H(x) for x in X], dissipation_rate(sys_, X)]),
                 lambda x: (require_finite(sys_.H(x), "H", x),  # H before the rate
                            require_finite(dissipation_rate(sys_, x), "dissipation rate", x)))
    _write(args.out, table_csv(["t", "H", "rate"], np.column_stack([curve.times, rows])))
    return EXIT_OK


def _cmd_hj_check(args):
    gs = _load_system(args)
    section = gs.section(args.section)
    resolution = _resolution(args.resolution)
    report = hj_grid_check(gs.system, section, _box(gs, args), resolution=resolution, tol=args.tol)
    return _emit(args, gs, "report", report.to_json_dict(), report.passed)


def _cmd_lift_verify(args):
    gs = _load_system(args)
    section = gs.section(args.section)
    report = verify_lift(gs.system, section, _q0(gs, args), *_horizon(gs, args), args.dt, tol=args.tol)
    return _emit(args, gs, "report", report.to_json_dict(), report.passed)


def _cmd_cocycle_check(args):
    gs = _load_system(args)
    sys_ = gs.system
    if args.on == "e":
        if args.section is not None:
            raise ValueError("--section applies only to --on v; --on e checks the adapted-frame cocycle")
        A = sys_.algebroid
        section = adapted_cocycle(A)
        name = "adapted-frame cocycle"
    else:
        A = v_restriction(sys_.algebroid)
        if not args.section:
            raise ValueError("--on v requires --section")
        section = gs.section(args.section)
        name = f"section {args.section} on the kernel algebroid"
    report = check_cocycle(A, section, _box(gs, args), samples=args.samples, seed=args.seed, tol=args.tol)
    return _emit(args, gs, "report", report.to_json_dict(), report.passed, checked=name)


def _cmd_flag_rank(args):
    gs = _load_system(args)
    A = gs.extras.get("constraint_algebroid", gs.system.algebroid)
    q = _parse_vector(args.point, "--point")
    if len(q) != A.chart.dim:
        raise ValueError(f"--point needs {A.chart.dim} components for {gs.id}")
    ranks = flag_rank(A, q, args.depth)
    return _emit(args, gs, "report", {"ranks": ranks, "dim": A.chart.dim, "full_rank": ranks[-1] == A.chart.dim})


# --morphism name -> the fiber map p -> p' for --factor (read by momentum-scale alone);
# every base map is the identity, and only mu-projection lands on the kernel side V
_FIBER_MAPS = {
    "identity": lambda factor: lambda q, p: p,
    "mu-projection": lambda factor: lambda q, p: p[..., 1:],
    "momentum-scale": lambda factor: lambda q, p: factor * p,
}


def _cmd_morphism_check(args):
    if args.factor is not None and args.morphism != "momentum-scale":
        raise ValueError(f"--factor applies only to --morphism momentum-scale, not {args.morphism}")
    factor = 2.0 if args.factor is None else args.factor
    gs = _load_system(args)
    sys_ = gs.system
    src = MorphismEndpoint.from_system(sys_)
    dst = MorphismEndpoint.v_side(sys_) if args.morphism == "mu-projection" else MorphismEndpoint.from_system(sys_)
    # each map is one formula over a leading axis, and so is its own stack form
    pair = MorphismPair(base_map=_Stacked(lambda q: q), fiber_map=_Stacked(_FIBER_MAPS[args.morphism](factor)))
    reports = morphism_check(src, dst, pair, _box(gs, args), samples=args.samples, seed=args.seed, tol=args.tol)
    return _emit(args, gs, "reports", {r.name: r.to_json_dict() for r in reports}, all(r.passed for r in reports),
                 factor=factor)


def _add_start_flags(p):
    """The initial state and horizon of simulate and dissipation."""
    p.add_argument("--x0", help="initial state q1..qm,p1..pn (comma-separated); excludes --q0 and --section")
    p.add_argument("--q0", help="initial base point; momenta from --section")
    p.add_argument("--section", default=None, help="section supplying momenta (default: reference)")
    _add_horizon_flags(p)


def _add_horizon_flags(p):
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)


def _add_sample_flags(p, samples, tol):
    p.add_argument("--box", default=None, help="per-axis lo:hi, comma-separated")
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--tol", type=_tolerance, default=tol)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="algebroid-mech",
        description="Simulate and verify Hamiltonian dynamics on skew-symmetric algebroids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, help, system=True):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        if system:
            p.add_argument("system", choices=sorted(GALLERY_IDS), help="gallery system id")
            p.add_argument("--param", action="append", metavar="NAME=VALUE", help="parameter override (repeatable)")
            p.add_argument("--omega", choices=["constant", "linear"], default="constant",
                           help="angular-velocity law for the rolling ball; other systems take only 'constant'")
        return p

    p = add_parser("gallery", _cmd_gallery, "inspect the systems gallery", system=False)
    p.add_argument("action", choices=["list"])

    p = add_parser("simulate", _cmd_simulate, "integrate the Hamilton equations, emit a trajectory")
    _add_start_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    _add_start_flags(add_parser("dissipation", _cmd_dissipation, "H and its rate of change along a trajectory (CSV)"))

    p = add_parser("hj-check", _cmd_hj_check, "Hamilton-Jacobi residual of a section over a grid")
    p.add_argument("--section", default="reference")
    p.add_argument("--box", default=None, help="per-axis lo:hi, comma-separated")
    p.add_argument("--resolution", default="11", help="grid points per axis (int or comma list)")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add_parser("lift-verify", _cmd_lift_verify, "compare the lifted base flow with the Hamilton flow")
    p.add_argument("--section", default="reference")
    p.add_argument("--q0", default=None)
    _add_horizon_flags(p)
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = add_parser("cocycle-check", _cmd_cocycle_check, "verify a section is a cocycle")
    p.add_argument("--on", choices=["e", "v"], default="e",
                   help="check the adapted cocycle on E, or a named section on the kernel")
    p.add_argument("--section", default=None, help="the section checked with --on v")
    _add_sample_flags(p, samples=128, tol=1e-9)

    p = add_parser("flag-rank", _cmd_flag_rank, "bracket-generating flag ranks at a point")
    p.add_argument("--point", required=True, help="chart point, comma-separated")
    p.add_argument("--depth", type=_depth, default=4, help=f"flag levels, 1..{FLAG_FIELD_CAP}")

    p = add_parser("morphism-check", _cmd_morphism_check, "numeric hamiltonian-morphism conditions")
    p.add_argument("--morphism", choices=list(_FIBER_MAPS), default="identity")
    p.add_argument("--factor", type=_finite, default=None, help="momentum-scale's factor; 2.0 if unset")
    _add_sample_flags(p, samples=64, tol=1e-6)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path; stdout if unset or '-'")
    return parser


def _attach_vector_values(argv):
    """``--box -1:1,...`` -> ``--box=-1:1,...``: argparse takes a separated
    value that starts with '-' and is not a plain number (-inf, -1e-3) for an
    option; every option but --help and --version (or "--") takes one value."""
    out = []
    for tok in argv:
        flag = out[-1] if out else ""  # prefixes of --help and --version abbreviate them
        if (flag.startswith("--") and "=" not in flag and not any(f.startswith(flag) for f in ("--help", "--version"))
                and re.match(r"(?i)-([0-9.]|inf|nan)", tok)):
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
    try:  # non-finite values are raised by the checks, so numpy's RuntimeWarnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except (NumericFailure, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, AlgebroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

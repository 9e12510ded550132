"""Correctness gate: judges the output of one op.

``check_op`` returns a list of problems; an op with any problem counts as
failed.  Why each expectation holds is written in NOTES.md.  Every number
in a parsed report or CSV must be finite, whatever the report's own
``pass`` flag says.
"""

from __future__ import annotations

import json
import math

import numpy as np

# max |p(t) - alpha(q(t))| along a simulated trajectory started on the
# reference section: the exact flow keeps it at 0 (the lift property);
# RK4 at dt = 1e-3 over at most 0.5 time units stays far below this.
LIFT_TOL = 1e-8
# |H(t1) - H(t0) - integral of the reported rate|: trapezoid rule at
# dt = 1e-3 on a smooth rate, relative to the size of H.
ENERGY_TOL = 1e-6


def check_op(op, code: int, text: str, sections) -> list:
    """Problems with one op's exit code and output ``text``.

    ``sections`` maps (system, omega) to the gallery's reference section,
    used for the lift property.
    """
    want = op.expect["exit"]
    if code != want:
        return [f"exit code {code}, expected {want}"]
    command = op.argv[0]
    try:
        if command in ("simulate", "dissipation"):
            rows, header = _parse_csv(text)
            problems = _non_finite(rows)
            if problems:
                return problems
            if command == "simulate":
                return _check_trajectory(op, rows, header, sections)
            return _check_dissipation(op, rows, header)
        data = json.loads(text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    problems = _non_finite(data)
    if problems:
        return problems
    return _REPORT_CHECKS[command](op, data)


def _non_finite(obj, path="") -> list:
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"non-finite value {obj!r} at {path or 'top'}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, np.ndarray):
        return [] if np.all(np.isfinite(obj)) else [f"non-finite value in {path or 'table'}"]
    return []


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("ragged CSV")
    return rows, header


def _check_times(op, rows) -> list:
    if len(rows) != op.expect["rows"]:
        return [f"{len(rows)} rows, expected {op.expect['rows']}"]
    steps = np.diff(rows[:, 0])
    if np.max(np.abs(steps - op.expect["dt"])) > 1e-9:
        return ["time column does not advance by dt"]
    return []


def _check_trajectory(op, rows, header, sections) -> list:
    problems = _check_times(op, rows)
    q0 = np.array(op.expect["q0"])
    m = len(q0)
    if header[1 : m + 1] != [f"q{i + 1}" for i in range(m)]:
        problems.append(f"header {header} does not match a {m}-dim chart")
        return problems
    if np.max(np.abs(rows[0, 1 : m + 1] - q0)) > 1e-12:
        problems.append("first row does not start at --q0")
    if op.expect.get("lift"):
        alpha = sections[(op.system, op.omega)]
        q, p = rows[:, 1 : m + 1], rows[:, m + 1 :]
        dev = max(float(np.max(np.abs(pp - alpha(qq)))) for qq, pp in zip(q, p))
        if not dev <= LIFT_TOL:
            problems.append(f"lift property broken: max |p - alpha(q)| = {dev:.3g} > {LIFT_TOL:g}")
    return problems


def _check_dissipation(op, rows, header) -> list:
    if header != ["t", "H", "rate"]:
        return [f"header {header}, expected t,H,rate"]
    problems = _check_times(op, rows)
    t, H, rate = rows[:, 0], rows[:, 1], rows[:, 2]
    integral = float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t)))
    gap = abs(H[-1] - H[0] - integral)
    if not gap <= ENERGY_TOL * max(1.0, float(np.max(np.abs(H)))):
        problems.append(f"rate does not integrate to the change of H: gap {gap:.3g}")
    return problems


def _check_hj(op, data) -> list:
    rep = data["report"]
    problems = []
    if not rep["max_norm"] <= rep["tol"] or rep["pass"] is not True:
        problems.append(f"HJ residual {rep['max_norm']:.3g} above tol {rep['tol']:g}")
    if rep["grid"]["points"] != op.expect["points"]:
        problems.append(f"{rep['grid']['points']} grid points, expected {op.expect['points']}")
    return problems


def _check_lift(op, data) -> list:
    rep = data["report"]
    if not rep["max_deviation"] <= rep["tol"] or rep["pass"] is not True:
        return [f"lift deviation {rep['max_deviation']:.3g} above tol {rep['tol']:g}"]
    return []


def _violation(rep, should_fail) -> list:
    over = not rep["max_violation"] <= rep["tol"]
    if over != should_fail or rep["pass"] is not (not should_fail):
        state = "fails" if over else "passes"
        return [f"{rep['name']} {state} with {rep['max_violation']:.3g} (tol {rep['tol']:g})"]
    return []


def _check_cocycle(op, data) -> list:
    return _violation(data["report"], op.expect["exit"] == 1)


def _check_morphism(op, data) -> list:
    failing = set(op.expect.get("failing", ()))
    return [p for name, rep in sorted(data["reports"].items()) for p in _violation(rep, name in failing)]


def _check_flag(op, data) -> list:
    ranks = data["report"]["ranks"]
    if ranks != sorted(ranks) or ranks[-1] != op.expect["dim"] or data["report"]["full_rank"] is not True:
        return [f"flag ranks {ranks} do not reach {op.expect['dim']}"]
    return []


_REPORT_CHECKS = {
    "hj-check": _check_hj,
    "lift-verify": _check_lift,
    "cocycle-check": _check_cocycle,
    "morphism-check": _check_morphism,
    "flag-rank": _check_flag,
}

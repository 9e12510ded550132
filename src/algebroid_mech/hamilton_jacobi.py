"""Hamilton-Jacobi residuals, lift verification and the riemannian
auto-parallel residual.

The central equivalence being exercised: a section alpha of the reduced
dual has zero residual exactly when composing it with integral curves of
the projected field on the base yields integral curves of the hamiltonian
field.  The residual is computed as

    residual_a(q) = (transport of alpha_a along the projected field)
                    - (momentum equation RHS at p = alpha(q)),

so the lift property itself, not transcription of index conventions,
fixes the signs; ``verify_lift`` checks the equivalence directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from .algebroid import (GRID_POINT_CAP, DualSection, ESection, _at_point, _d_oneform, _five_largest, _read_at,
                        _Stacked, box_bounds, on_stack, sweep)
from .calculus import Curve, fd_jacobian, integrate_rk4, require_finite
from .errors import DomainError
from .hamilton import HamiltonianSystem, _operands, _pdot_rhs, _zeta, integrate_hamilton, projected_field
from .util import parallel_map


@dataclass(frozen=True)
class HJReport:
    """Residuals of a section over a coordinate grid."""

    residual_grid: tuple  # ((q, residual vector), ...)
    max_norm: float
    tol: float
    box: tuple
    resolution: tuple

    @property
    def passed(self) -> bool:
        return self.max_norm <= self.tol

    def to_json_dict(self) -> dict:
        peaks = np.abs(np.array([r for _, r in self.residual_grid])).max(axis=1)
        worst = [self.residual_grid[i] for i in _five_largest(peaks)]
        return {
            "max_norm": self.max_norm,
            "tol": self.tol,
            "pass": self.passed,
            "grid": {
                "box": [[float(lo), float(hi)] for lo, hi in self.box],
                "resolution": list(self.resolution),
                "points": len(self.residual_grid),
            },
            "worst": [
                {"q": list(map(float, q)), "residual": list(map(float, r))} for q, r in worst
            ],
        }


@dataclass(frozen=True)
class LiftReport:
    """Comparison of the lifted base curve against the hamiltonian flow."""

    base_curve: Curve
    lifted_curve: Curve
    hamilton_curve: Curve
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def to_json_dict(self) -> dict:
        dev = np.max(np.abs(self.lifted_curve.points - self.hamilton_curve.points), axis=1)
        return {
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "pass": self.passed,
            "times": {
                "t0": float(self.base_curve.times[0]),
                "t1": float(self.base_curve.times[-1]),
                "samples": len(self.base_curve),
            },
            "worst": [
                {"t": float(self.lifted_curve.times[i]), "deviation": float(dev[i])}
                for i in sorted(_five_largest(dev))
            ],
        }


def zeta_eval(sys: HamiltonianSystem, alpha: DualSection, q) -> np.ndarray:
    """The characteristic section evaluated at q: component 0 is exactly 1,
    component a is (dH/dp_a)(q, alpha(q))."""
    return _zeta(sys.h_partials(q, alpha(q))[1])


def hj_residual(sys: HamiltonianSystem, alpha: DualSection, q) -> np.ndarray:
    """Hamilton-Jacobi residual of a reduced-dual section at q.

    Zero for all q in a neighborhood exactly when alpha lifts integral
    curves of the projected field to solutions of the Hamilton equations.
    Over a bound ``_field`` the momentum rates are F's lower rows on (dH, q, p).
    """
    if alpha.space != "V*":
        raise ValueError("hj_residual expects a reduced-dual section (space 'V*')")
    q = np.asarray(q, dtype=float)
    _, _, rhoVT, CV = _operands(sys, q)  # first, so that the projected field's anchor read finds its build
    p = alpha(q)
    R = projected_field(sys, alpha, q)
    J = alpha.jac(q)  # (n-1, m)
    dHq, dHp = sys.h_partials(q, p)
    if sys._field is not None:
        return J @ R - sys._field[0][len(q):] @ np.concatenate((dHq, dHp, q, p))
    return J @ R - _pdot_rhs(p, dHq, dHp, rhoVT, CV)


def hj_residual_dual(sys: HamiltonianSystem, beta: DualSection, q) -> np.ndarray:
    """Hamilton-Jacobi residual for a full-dual section beta:

        component a = d beta (zeta, e_a) + rho_a^i d(F o beta)/dq^i,

    where (F o beta)(q) = beta_0(q) + H(q, beta_1..beta_{n-1}(q)) and
    zeta = (1, dH/dp).  d beta is the matrix ``d_oneform_matrix`` from
    ``beta.jac``, contracted with zeta; the gradient of F o beta is
    d beta_0 + dH/dq + (d beta_{1..})^T dH/dp; one partial of H, one ``_read_at``.
    """
    q = np.asarray(q, dtype=float)
    if beta.space != "E*":
        raise ValueError("hj_residual_dual expects a full-dual section")
    b, J = beta(q), beta.jac(q)
    dHq, dHp = sys.h_partials(q, b[1:])
    rho, C = _read_at(sys.algebroid, q)
    out = _zeta(dHp) @ _d_oneform(rho, C, b, J) + rho.T @ (J[0] + dHq + J[1:].T @ dHp)
    return out[1:]


def hj_forced_residual(sys: HamiltonianSystem, F, alpha: DualSection, q) -> np.ndarray:
    """Hamilton-Jacobi residual in the forced form, on the base algebroid of
    a force extension:

        component a = d alpha (zeta_H, e_a) + rho_a^i d(H o alpha)/dq^i
                      + F_a^b alpha_b,

    with zeta_H = dH/dp, d alpha the matrix ``d_oneform_matrix`` from
    ``alpha.jac`` and d(H o alpha) = dH/dq + (d alpha)^T dH/dp, from one
    partial of H and one ``_read_at`` of the extension, sliced to its kernel
    as ``v_restriction``'s point forms slice it.  Algebraically identical to
    ``hj_residual`` on the extended system; kept as an independent path.
    """
    q = np.asarray(q, dtype=float)
    av, J = alpha(q), alpha.jac(q)
    dHq, dHp = sys.h_partials(q, av)
    rho, C = _read_at(sys.algebroid, q)
    rho, C = rho[:, 1:], C[1:, 1:, 1:]
    return dHp @ _d_oneform(rho, C, av, J) + rho.T @ (dHq + J.T @ dHp) + F.at(q) @ av


def grid_points(box, resolution) -> tuple:
    """Inclusive cartesian grid over the box, resolution per axis: the box, the
    resolution and the (K, m) points in ``itertools.product`` order."""
    box = box_bounds(box)
    if isinstance(resolution, int):
        resolution = [resolution] * len(box)
    resolution = [int(r) for r in resolution]
    if len(resolution) != len(box):
        raise ValueError("resolution must match the box dimension")
    if any(r < 2 for r in resolution):
        raise ValueError("resolution must be >= 2 per axis")
    total = math.prod(resolution)  # a Python int: an int64 product wraps round past the cap
    if total > GRID_POINT_CAP:
        raise ValueError(f"grid of {total} points exceeds the cap {GRID_POINT_CAP}")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
    pts = np.array(list(itertools.product(*axes)))
    return tuple(box), tuple(resolution), pts


def hj_grid_check(
    sys: HamiltonianSystem,
    alpha: DualSection,
    box,
    resolution=11,
    tol: float = 1e-9,
) -> HJReport:
    """The HJ residual over a grid and its max norm, as a ``sweep`` in grid
    order whose stacked pass runs a declared C's stack form on a chunk, then
    ``hj_residual`` per point; a non-finite one raises NumericFailure naming it."""
    if alpha.space != "V*":  # before the sweep, whose rerun would make it a NumericFailure
        raise ValueError("hj_residual expects a reduced-dual section (space 'V*')")
    box, resolution, pts = grid_points(box, resolution)

    def stacked(Q):
        if type(sys.algebroid._structure) is _Stacked:  # an undeclared C would be read twice per point
            on_stack(sys.algebroid._structure, Q)
        return parallel_map(lambda q: hj_residual(sys, alpha, q), Q)

    residuals = sweep(pts, stacked, lambda q: require_finite(hj_residual(sys, alpha, q), "HJ residual", q))
    max_norm = float(np.abs(np.array(residuals)).max(initial=0.0))
    return HJReport(residual_grid=tuple(zip(pts, residuals)), max_norm=max_norm, tol=float(tol), box=box,
                    resolution=resolution)


def verify_lift(
    sys: HamiltonianSystem,
    alpha: DualSection,
    q0,
    t0: float,
    t1: float,
    dt: float,
    tol: float = 1e-6,
) -> LiftReport:
    """Integrate the base curve under the projected field, lift it through
    alpha, and compare with the hamiltonian flow started at alpha(q0).  A
    non-finite section value, or a ValueError or ArithmeticError of the
    section (math's domain error), raises NumericFailure naming its base point."""
    q0 = np.asarray(q0, dtype=float)
    base = integrate_rk4(lambda t, q: projected_field(sys, alpha, q), q0, t0, t1, dt)
    sections = [require_finite(_at_point(alpha, qq, qq), "lifted section", qq) for qq in base.points]
    lifted_pts = np.array([np.concatenate([qq, a]) for qq, a in zip(base.points, sections)])
    lifted = Curve(times=base.times, points=lifted_pts)
    ham = integrate_hamilton(sys, lifted_pts[0], t0, t1, dt)
    dev = float(np.max(np.abs(lifted.points - ham.points)))
    return LiftReport(
        base_curve=base,
        lifted_curve=lifted,
        hamilton_curve=ham,
        max_deviation=dev,
        tol=float(tol),
    )


def christoffel_at(G, q) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the Levi-Civita connection of a
    riemannian metric, by finite differences of the metric matrix."""
    q = np.asarray(q, dtype=float)
    g = G.at(q)
    m = g.shape[0]
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise DomainError(f"metric not positive-definite at q={list(map(float, q))}")
    dg = fd_jacobian(lambda qq: G.at(qq).ravel(), q).reshape(m, m, m)  # dg[i, j, k] = d_k g_ij
    # Gamma^k_ij = (1/2) g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    rhs = 0.5 * (
        np.einsum("lji->lij", dg) + np.einsum("lij->lij", dg) - np.einsum("ijl->lij", dg)
    )
    return np.linalg.solve(g, rhs.reshape(m, -1)).reshape(m, m, m)


def autoparallel_residual(G, X, q) -> np.ndarray:
    """Residual of the auto-parallel condition for a vector field X:

        residual^k = X^i d_i X^k + Gamma^k_ij X^i X^j.

    Zero exactly when the integral curves of X are geodesics of G.
    """
    q = np.asarray(q, dtype=float)
    fn = X.components if isinstance(X, ESection) else X
    Xq = np.asarray(fn(q), dtype=float)
    JX = fd_jacobian(fn, q)
    Gamma = christoffel_at(G, q)
    return JX @ Xq + np.einsum("kij,i,j->k", Gamma, Xq, Xq)

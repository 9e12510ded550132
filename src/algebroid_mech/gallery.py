"""Ready-built instances of the worked mechanical examples.

Each gallery system packages: the HamiltonianSystem, exact reference
sections (with analytic jacobians), closed-form reference solutions with
validity domains, a default coordinate box for grid checks, and a default
base point + horizon for lift verification.  Extras carry system-specific
objects (constraint algebroids, original-coordinate equations, metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebroid import DualSection, ESection, SkewAlgebroid, _Constant, _Stacked, constant_section, tangent_algebroid
from .calculus import Chart, ScalarField
from .constructions import (
    Homomorphism,
    MetricField,
    affine_constraints,
    force_extension,
    projector_restriction,
)
from .errors import DomainError
from .hamilton import HamiltonianSystem
from .lambertw import lambert_w

@dataclass(frozen=True)
class RefSolution:
    """A closed-form function of one variable with a validity domain."""

    fn: Callable[[float], object]
    domain: tuple = (-math.inf, math.inf)
    description: str = ""

    def __call__(self, t: float):
        t = float(t)
        lo, hi = self.domain
        if not (lo <= t <= hi):
            raise DomainError(f"argument {t:g} outside validity domain [{lo:g}, {hi:g}]")
        return self.fn(t)


@dataclass(frozen=True)
class GallerySystem:
    id: str
    params: dict
    system: HamiltonianSystem
    reference_sections: dict = field(default_factory=dict)
    probe_sections: dict = field(default_factory=dict)
    reference_solutions: dict = field(default_factory=dict)
    default_box: tuple = ()
    default_q0: tuple = ()
    horizon: tuple = (0.0, 1.0)
    extras: dict = field(default_factory=dict)

    def section(self, name: str) -> DualSection:
        if name in self.reference_sections:
            return self.reference_sections[name]
        if name in self.probe_sections:
            return self.probe_sections[name]
        known = sorted({*self.reference_sections, *self.probe_sections})
        raise ValueError(f"unknown section {name!r}; known: {known}")


def _require_positive(params, names):
    for nm in names:
        if params[nm] <= 0:
            raise ValueError(f"parameter {nm} must be positive, got {params[nm]!r}")


def _merge(defaults: dict, params: Optional[dict]) -> dict:
    out = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r}; known: {sorted(defaults)}")
        out[key] = float(val)  # every default is a float
        if not math.isfinite(out[key]):
            raise ValueError(f"parameter {key} must be finite, got {val!r}")
    return out


# ---------------------------------------------------------------------------
# vertical rolling disk with a spin torque


def _build_vertical_disk(params):
    p = _merge(
        {"m": 1.0, "I": 1.0, "J": 1.0, "R": 1.0, "K": 1.0, "k": 1.0, "kappa": 0.0}, params
    )
    _require_positive(p, ["m", "I", "J", "R"])
    m, I, J, R, K, k, kappa = (p[nm] for nm in ["m", "I", "J", "R", "K", "k", "kappa"])
    chart = Chart(dim=4, coord_names=("x", "y", "theta", "phi"))
    TQ = tangent_algebroid(chart)
    s = math.sqrt(R * R * m + I)
    sJ = math.sqrt(J)

    def X1(q):
        return np.array([R * math.cos(q[3]) / s, R * math.sin(q[3]) / s, 1.0 / s, 0.0])

    def X1_rows(Q):  # X1 at a stack Q (K, 4) in X1's arithmetic, as dX1_rows and F_rows are for dX1 and F
        out = np.zeros((len(Q), 4))
        out[:, 0], out[:, 1], out[:, 2] = R * np.cos(Q[:, 3]) / s, R * np.sin(Q[:, 3]) / s, 1.0 / s
        return out

    def dX1(q):
        out = np.zeros((4, 4))
        out[0, 3] = -R * math.sin(q[3]) / s
        out[1, 3] = R * math.cos(q[3]) / s
        return out

    def dX1_rows(Q):
        out = np.zeros((len(Q), 4, 4))
        out[:, 0, 3], out[:, 1, 3] = -R * np.sin(Q[:, 3]) / s, R * np.cos(Q[:, 3]) / s
        return out

    D_basis = [ESection(components=_Stacked(X1, X1_rows), jacobian=_Stacked(dX1, dX1_rows)),
               ESection(components=_Constant([0.0, 0.0, 0.0, 1.0 / sJ]), jacobian=_Constant(np.zeros((4, 4))))]
    G = np.diag([m, m, I, J])

    def P(q, v, M):  # M: the frame X1(q), X2(q) at q
        Gv = G @ np.asarray(v, dtype=float)
        return np.array([float(M[0] @ Gv), float(M[1] @ Gv)])

    D = projector_restriction(TQ, D_basis, P)
    def F_rows(Q):
        out = np.zeros((len(Q), 2, 2))
        out[:, 1, 1] = K * np.cos(Q[:, 3]) / J
        return out

    F = Homomorphism(coeff=_Stacked(lambda q: np.array([[0.0, 0.0], [0.0, K * math.cos(q[3]) / J]]), F_rows))
    A = force_extension(D, F)
    H = ScalarField(
        eval=lambda x: 0.5 * (x[4] ** 2 + x[5] ** 2),
        grad=lambda x: np.array([0.0, 0.0, 0.0, 0.0, x[4], x[5]]),
    )
    system = HamiltonianSystem(algebroid=A, H=H)

    def alpha_comps(q):
        return np.array([k, -(K / sJ) * math.sin(q[3]) + kappa])

    def alpha_jac(q):
        out = np.zeros((2, 4))
        out[1, 3] = -(K / sJ) * math.cos(q[3])
        return out

    alpha = DualSection(components=alpha_comps, space="V*", jacobian=alpha_jac)

    # closed forms for kappa = 0, with integration constants fixed to zero
    def phi_t(t):
        return 2.0 * math.atan(math.exp(-(K / J) * t))

    if K == 0.0:  # the unforced disk: phi stays at pi/2, so the contact point moves on a line
        def x_t(t):
            return (R * k / s) * t * math.cos(phi_t(t))

        def y_t(t):
            return (R * k / s) * t * math.sin(phi_t(t))
    else:
        def x_t(t):
            return (R * k / s) * (t + (J / K) * math.log1p(math.exp(-2.0 * (K / J) * t)))

        def y_t(t):
            # sign fixed so that dy/dt = R k sin(phi)/s along the flow
            return -(J / K) * (R * k / s) * phi_t(t)

    def theta_t(t):
        return k * t / s

    def p2_t(t):
        return -(K / sJ) * math.sin(phi_t(t))

    def dissipation_t(t):
        return -(K * math.cos(phi_t(t)) / J) * p2_t(t) ** 2

    solutions = {
        "phi": RefSolution(fn=phi_t, description="orientation angle, kappa=0"),
        "x": RefSolution(fn=x_t, description="contact point x, kappa=0"),
        "y": RefSolution(fn=y_t, description="contact point y, kappa=0"),
        "theta": RefSolution(fn=theta_t, description="rolling angle, kappa=0"),
        "p2": RefSolution(fn=p2_t, description="spin momentum along the reference"),
        "dissipation": RefSolution(fn=dissipation_t, description="energy rate along the reference"),
    }
    q0 = np.array([x_t(0.0), y_t(0.0), theta_t(0.0), phi_t(0.0)])
    return GallerySystem(
        id="vertical_disk",
        params=p,
        system=system,
        reference_sections={"reference": alpha},
        reference_solutions=solutions,
        default_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        default_q0=tuple(q0),
        horizon=(0.0, 5.0),
        extras={"constraint_algebroid": D, "constraint_basis": D_basis, "projector": P, "force": F,
                "metric": MetricField.constant(G)},
    )


# ---------------------------------------------------------------------------
# homogeneous ball rolling on a rotating table


def _build_rolling_ball(params, omega_mode="constant"):
    p = _merge({"m": 1.0, "r": 1.0, "k": 1.0, "Omega0": 1.0, "C1": 1.0, "C2": 0.0}, params)
    _require_positive(p, ["m", "r", "k"])
    if omega_mode not in ("constant", "linear"):
        raise ValueError("omega mode must be 'constant' or 'linear'")
    m, r, k, Om0, C1, C2 = (p[nm] for nm in ["m", "r", "k", "Omega0", "C1", "C2"])
    chart = Chart(dim=3, coord_names=("t", "q1", "q2"))

    if omega_mode == "constant":
        omega = lambda t: Om0
        domega = lambda t: 0.0
        phase = lambda t: r * r * Om0 * t / (k * k + r * r)
    else:
        omega = lambda t: Om0 * t
        domega = lambda t: Om0
        phase = lambda t: r * r * Om0 * t * t / (2.0 * (k * k + r * r))

    def anchor(q):
        out = np.zeros((3, 6))
        out[:, 0] = (1.0, -omega(q[0]) * q[2], omega(q[0]) * q[1])
        out[1, 1] = out[2, 2] = 1.0
        return out

    def anchor_rows(Q):  # the anchor at a stack Q (K, 3) in its arithmetic, as structure_rows is for C_E
        out = np.zeros((len(Q), 3, 6))
        out[:, 0, 0] = out[:, 1, 1] = out[:, 2, 2] = 1.0
        out[:, 1, 0], out[:, 2, 0] = -omega(Q[:, 0]) * Q[:, 2], omega(Q[:, 0]) * Q[:, 1]
        return out

    template = np.zeros((6, 6, 6))  # all but the four omega entries, with the -0.0 of the skew rows
    template[3, 4, 5] = template[4, 5, 3] = 1.0
    template[3, 5, 4] = -1.0  # [[e3, e5]] = -[[e5, e3]] = -e4
    for a, b in ((0, 1), (0, 2), (3, 4), (4, 5), (3, 5)):
        template[b, a] = -template[a, b]

    def structure(q):
        C = template.copy()
        C[0, 1, 2] = C[2, 0, 1] = -omega(q[0])  # C[b, a] = -C[a, b]
        C[0, 2, 1] = C[1, 0, 2] = omega(q[0])
        return C

    def structure_rows(Q):
        C = np.repeat(template[None], len(Q), axis=0)
        C[:, 0, 1, 2] = C[:, 2, 0, 1] = -omega(Q[:, 0])
        C[:, 0, 2, 1] = C[:, 1, 0, 2] = omega(Q[:, 0])
        return C

    # a constant law's C_E is built once; the anchor and a linear law's C_E take stacks in second forms (README)
    C_E = _Constant(structure(np.zeros(3))) if omega_mode == "constant" else _Stacked(structure, structure_rows)
    E = SkewAlgebroid(chart=chart, rank=6, anchor=_Stacked(anchor, anchor_rows), structure=C_E, adapted=False)
    G = MetricField.constant(np.diag([1.0, m, m, m * k * k, m * k * k, m * k * k]))
    U_basis = [
        constant_section([0.0, 0.0, -r, 1.0, 0.0, 0.0]),
        constant_section([0.0, r, 0.0, 0.0, 1.0, 0.0]),
        constant_section([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
    ]
    X0 = constant_section([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    system = affine_constraints(E, G, U_basis, X0)

    N = math.sqrt(m * (k * k + r * r))

    def phi1(t):
        return C1 * math.cos(phase(t)) - C2 * math.sin(phase(t))

    def phi2(t):
        return C1 * math.sin(phase(t)) + C2 * math.cos(phase(t))

    def dphase(t):
        return r * r * omega(t) / (k * k + r * r)

    def alpha_comps(q):
        t = q[0]
        return np.array([-(r / N) * phi2(t), (r / N) * phi1(t), 0.0])

    def alpha_jac(q):
        t = q[0]
        out = np.zeros((3, 3))
        out[0, 0] = -(r / N) * dphase(t) * phi1(t)
        out[1, 0] = -(r / N) * dphase(t) * phi2(t)
        return out

    alpha = DualSection(components=alpha_comps, space="V*", jacobian=alpha_jac)
    alpha_on_u = DualSection(components=alpha_comps, space="E*", jacobian=alpha_jac)

    def alpha34(t):
        return np.array([-(r / N) * phi2(t), (r / N) * phi1(t)])

    solutions = {
        "alpha34": RefSolution(fn=alpha34, description="momenta along the lifted reference"),
        "phi12": RefSolution(fn=lambda t: np.array([phi1(t), phi2(t)]), description="cocycle factors"),
    }
    if omega_mode == "constant" and Om0 != 0.0:  # a still table has no orbit period
        period = 2.0 * math.pi * (k * k + r * r) / (r * r * Om0)
        solutions["period"] = RefSolution(fn=lambda t: period, description="base-orbit period")

    c_big = m * k * k / (k * k + r * r)

    def original_rhs(t, u):
        # state (t, q1, q2, p1, p2, pi1, pi2, pi3) in the unreduced chart
        tt, q1, q2, p1, p2 = u[0], u[1], u[2], u[3], u[4]
        Om, dOm = omega(tt), domega(tt)
        drive1 = dOm * q1 + Om * p1 / m
        drive2 = dOm * q2 + Om * p2 / m
        return np.array(
            [
                1.0,
                p1 / m,
                p2 / m,
                -c_big * drive2,
                c_big * drive1,
                r * c_big * drive1,
                r * c_big * drive2,
                0.0,
            ]
        )

    def constraints(u):
        tt, q1, q2, p1, p2, pi1, pi2 = u[0], u[1], u[2], u[3], u[4], u[5], u[6]
        Om = omega(tt)
        psi1 = Om * q2 + p1 / m - r * pi2 / (m * k * k)
        psi2 = -Om * q1 + p2 / m + r * pi1 / (m * k * k)
        return np.array([psi1, psi2])

    def to_original(q, pbar):
        """Map a reduced phase point to the unreduced momenta state."""
        tt, q1, q2 = q
        Om = omega(tt)
        p1 = m * (-Om * q2 + r * pbar[1] / N)
        p2 = m * (Om * q1 - r * pbar[0] / N)
        pi1 = m * k * k * pbar[0] / N
        pi2 = m * k * k * pbar[1] / N
        pi3 = k * math.sqrt(m) * pbar[2]
        return np.array([tt, q1, q2, p1, p2, pi1, pi2, pi3])

    params_out = dict(p)
    params_out["omega_mode"] = omega_mode
    return GallerySystem(
        id="rolling_ball",
        params=params_out,
        system=system,
        reference_sections={"reference": alpha},
        reference_solutions=solutions,
        default_box=((0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0)),
        default_q0=(0.0, 1.0, 0.0),
        horizon=(0.0, 10.0),
        extras={
            "alpha_on_u": alpha_on_u,
            "original_rhs": original_rhs,
            "constraints": constraints,
            "to_original": to_original,
            "frame_norm": N,
            "ambient": E,
            "metric": G,
        },
    )


# ---------------------------------------------------------------------------
# particle on a vertical cylinder with friction


def _build_cylinder(params):
    p = _merge(
        {"m": 1.0, "r": 1.0, "g": 1.0, "K1": 1.0, "K2": 1.0, "C1": 0.0, "C2": 0.0, "branch": 1.0},
        params,
    )
    _require_positive(p, ["m", "r", "g"])
    m, r, g, K1, K2, C1, C2, branch = (
        p[nm] for nm in ["m", "r", "g", "K1", "K2", "C1", "C2", "branch"]
    )
    sign = 1.0 if branch >= 0 else -1.0
    chart = Chart(dim=2, coord_names=("x", "theta"))
    base = tangent_algebroid(chart)
    F = Homomorphism.constant(np.diag([K1, K2]))
    A = force_extension(base, F)
    H = ScalarField(
        eval=lambda x: x[2] ** 2 / (2.0 * m) + x[3] ** 2 / (2.0 * m * r * r) + m * g * x[0],
        grad=lambda x: np.array([m * g, 0.0, x[2] / m, x[3] / (m * r * r)]),
    )
    system = HamiltonianSystem(algebroid=A, H=H)

    if K1 != 0.0:
        x_max = (g / (K1 * K1)) * math.log(g * m) + C2 / m

        def _w(x):
            if x > x_max:
                raise DomainError(f"x={x:g} beyond the solution domain (x <= {x_max:g})")
            z = -math.exp(-1.0 + K1 * K1 * x / g - K1 * K1 * C2 / (g * m)) / (g * m)
            return lambert_w(z)

        def s1(x):
            W = _w(x)
            return -(g * m / K1) * x - (g * g * m / K1 ** 3) * (W + 0.5 * W * W)

        def s1p(x):
            return -(g * m / K1) * (1.0 + _w(x))

        def s1pp(x):
            W = _w(x)
            if W == -1.0:
                raise DomainError(f"x={x:g} at the Lambert branch point x_max: S1'' is unbounded there")
            return -m * K1 * W / (1.0 + W)

        s1_domain = (-math.inf, x_max)
    else:
        x_max = C2 / (g * m * m)

        def _root(x):
            val = -g * m * m * x + C2
            if val <= 0.0:
                raise DomainError(f"x={x:g} beyond the solution domain (x < {x_max:g})")
            return math.sqrt(val)

        def s1(x):
            return -sign * (2.0 * math.sqrt(2.0) / (3.0 * g * m * m)) * _root(x) ** 3

        def s1p(x):
            return sign * math.sqrt(2.0) * _root(x)

        def s1pp(x):
            return -sign * g * m * m / (math.sqrt(2.0) * _root(x))

        s1_domain = (-math.inf, x_max)

    def s2(th):
        return -K2 * m * r * r * th * th / 2.0 + C1

    def s2p(th):
        return -K2 * m * r * r * th

    def s2pp(th):
        return -K2 * m * r * r

    def alpha_comps(q):
        return np.array([s1p(q[0]), s2p(q[1])])

    def alpha_jac(q):
        return np.array([[s1pp(q[0]), 0.0], [0.0, s2pp(q[1])]])

    alpha = DualSection(components=alpha_comps, space="V*", jacobian=alpha_jac)

    solutions = {
        "S1": RefSolution(fn=s1, domain=s1_domain, description="separated x-part (antiderivative)"),
        "S1p": RefSolution(fn=s1p, domain=s1_domain, description="x momentum component"),
        "S1pp": RefSolution(fn=s1pp, domain=s1_domain, description="second derivative of S1"),
        "S2": RefSolution(fn=s2, description="separated theta-part"),
        "S2p": RefSolution(fn=s2p, description="theta momentum component"),
        "S2pp": RefSolution(fn=s2pp, description="second derivative of S2"),
    }
    box = ((x_max - 2.0, x_max - 0.1), (-1.0, 1.0))
    return GallerySystem(
        id="cylinder_friction",
        params=p,
        system=system,
        reference_sections={"reference": alpha},
        reference_solutions=solutions,
        default_box=box,
        default_q0=(x_max - 0.5, 0.3),
        horizon=(0.0, 2.0),
        extras={"force": F, "x_max": x_max},
    )


# ---------------------------------------------------------------------------
# restricted three-body problem with drag


def _build_three_body(params):
    p = _merge({"mu1": 0.7, "mu2": 0.3, "k": 1.0}, params)
    _require_positive(p, ["mu1", "mu2"])
    mu1, mu2, k = p["mu1"], p["mu2"], p["k"]
    chart = Chart(dim=2, coord_names=("x", "y"))
    base = tangent_algebroid(chart)
    F = Homomorphism.scalar(k, 2)
    A = force_extension(base, F)

    def r13(x, y):
        return ((x + mu2) ** 2 + y * y) ** 1.5

    def r23(x, y):
        return ((x - mu1) ** 2 + y * y) ** 1.5

    def U(x, y):
        return mu1 / math.sqrt((x + mu2) ** 2 + y * y) + mu2 / math.sqrt((x - mu1) ** 2 + y * y)

    def grad(s):  # each distance power once, shared by dU/dx and dU/dy
        x, y = s[0], s[1]
        a, b = r13(x, y), r23(x, y)
        Ux = -mu1 * (x + mu2) / a - mu2 * (x - mu1) / b
        Uy = -mu1 * y / a - mu2 * y / b
        return np.array([-s[3] + Ux, s[2] + Uy, s[2] + s[1], s[3] - s[0]])

    H = ScalarField(
        eval=lambda s: 0.5 * (s[2] ** 2 + s[3] ** 2) + s[1] * s[2] - s[0] * s[3] + U(s[0], s[1]),
        grad=grad,
    )
    system = HamiltonianSystem(algebroid=A, H=H)

    # quadratic probe for the cocycle identity; not a solution of anything
    def S(x, y):
        return 0.3 * x * x - 0.2 * x * y + 0.4 * y * y + 0.1 * x - 0.25 * y

    def Sx(x, y):
        return 0.6 * x - 0.2 * y + 0.1

    def Sy(x, y):
        return -0.2 * x + 0.8 * y - 0.25

    def beta_comps(q):
        x, y = q
        return np.array([k * S(x, y), Sx(x, y), Sy(x, y)])

    def beta_jac(q):
        x, y = q
        return np.array([[k * Sx(x, y), k * Sy(x, y)], [0.6, -0.2], [-0.2, 0.8]])

    beta = DualSection(components=beta_comps, space="E*", jacobian=beta_jac)
    dS = DualSection(
        components=lambda q: np.array([Sx(q[0], q[1]), Sy(q[0], q[1])]),
        space="V*",
        jacobian=lambda q: np.array([[0.6, -0.2], [-0.2, 0.8]]),
    )

    def invariant(q):
        x, y = q
        px, py = Sx(x, y), Sy(x, y)
        return k * S(x, y) + 0.5 * (px * px + py * py) + y * px - x * py + U(x, y)

    return GallerySystem(
        id="three_body_drag",
        params=p,
        system=system,
        probe_sections={"beta_probe": beta, "dS": dS},
        default_box=((0.4, 1.4), (0.4, 1.4)),
        default_q0=(1.0, 1.0),
        horizon=(0.0, 2.0),
        extras={"force": F, "probe_invariant": invariant},
    )


# ---------------------------------------------------------------------------
# time-dependent free particle


def _build_time_dependent(params):
    p = _merge({}, params)
    chart = Chart(dim=2, coord_names=("t", "q"))
    A = tangent_algebroid(chart, adapted=True)
    H = ScalarField(eval=lambda s: 0.5 * s[2] ** 2, grad=lambda s: np.array([0.0, 0.0, s[2]]))
    system = HamiltonianSystem(algebroid=A, H=H)

    def alpha_comps(q):
        t = q[0]
        if t <= 0.0:
            raise DomainError("the generating function is defined for t > 0 only")
        return np.array([q[1] / t])

    def alpha_jac(q):
        t = q[0]
        if t <= 0.0:
            raise DomainError("the generating function is defined for t > 0 only")
        return np.array([[-q[1] / (t * t), 1.0 / t]])

    alpha = DualSection(components=alpha_comps, space="V*", jacobian=alpha_jac)

    def W(t, q):
        if t <= 0.0:
            raise DomainError("W is defined for t > 0 only")
        return q * q / (2.0 * t)

    return GallerySystem(
        id="time_dependent_free",
        params=p,
        system=system,
        reference_sections={"reference": alpha},
        default_box=((0.5, 3.5), (-2.0, 2.0)),
        default_q0=(1.0, 1.0),
        horizon=(0.0, 2.0),
        extras={"W": W},
    )


# ---------------------------------------------------------------------------
# flat riemannian geometry in polar coordinates


def _build_riemannian(params):
    p = _merge({}, params)
    chart = Chart(dim=2, coord_names=("r", "theta"))
    base = tangent_algebroid(chart)
    A = force_extension(base, None)
    H = ScalarField(
        eval=lambda s: 0.5 * (s[2] ** 2 + (s[3] / s[0]) ** 2),
        grad=lambda s: np.array([-s[3] ** 2 / s[0] ** 3, 0.0, s[2], s[3] / s[0] ** 2]),
    )
    system = HamiltonianSystem(algebroid=A, H=H)

    # the straight-line field d/dx expressed in polar coordinates
    def X_comps(q):
        r, th = q
        return np.array([math.cos(th), -math.sin(th) / r])

    def alpha_comps(q):
        r, th = q
        return np.array([math.cos(th), -r * math.sin(th)])

    def alpha_jac(q):
        r, th = q
        return np.array([[0.0, -math.sin(th)], [-math.sin(th), -r * math.cos(th)]])

    alpha = DualSection(components=alpha_comps, space="V*", jacobian=alpha_jac)
    metric = MetricField(matrix=lambda q: np.diag([1.0, q[0] ** 2]))

    return GallerySystem(
        id="riemannian_flat",
        params=p,
        system=system,
        reference_sections={"reference": alpha},
        default_box=((0.5, 2.0), (-1.2, 1.2)),
        default_q0=(1.0, 0.3),
        horizon=(0.0, 1.0),
        extras={"metric": metric, "field": X_comps},
    )


_BUILDERS = {
    "cylinder_friction": _build_cylinder,
    "three_body_drag": _build_three_body,
    "rolling_ball": _build_rolling_ball,
    "vertical_disk": _build_vertical_disk,
    "time_dependent_free": _build_time_dependent,
    "riemannian_flat": _build_riemannian,
}
GALLERY_IDS = tuple(_BUILDERS)


def instantiate(system_id: str, params: Optional[dict] = None, omega: str = "constant") -> GallerySystem:
    """Build a gallery system by id with parameter overrides.

    ``omega`` selects the table's angular-velocity law for the rolling
    ball ('constant' or 'linear'); any other system accepts only
    'constant' and raises ValueError otherwise.
    """
    if system_id not in _BUILDERS:
        raise ValueError(f"unknown system {system_id!r}; known: {sorted(_BUILDERS)}")
    if system_id == "rolling_ball":
        return _build_rolling_ball(params, omega_mode=omega)
    if omega != "constant":
        raise ValueError(f"omega {omega!r} applies only to rolling_ball; {system_id} takes 'constant'")
    return _BUILDERS[system_id](params)


def reference_solution(gs: GallerySystem, name: str, t: float):
    """Evaluate a named closed-form reference at t (DomainError outside)."""
    if name not in gs.reference_solutions:
        raise ValueError(
            f"unknown reference {name!r} for {gs.id}; known: {sorted(gs.reference_solutions)}"
        )
    return gs.reference_solutions[name](t)


def gallery_index() -> list:
    """Machine-readable catalogue of the gallery (defaults only)."""
    out = []
    for system_id in GALLERY_IDS:
        gs = instantiate(system_id)
        out.append(
            {
                "id": gs.id,
                "params": {k: v for k, v in gs.params.items()},
                "references": {
                    "sections": sorted({*gs.reference_sections, *gs.probe_sections}),
                    "solutions": sorted(gs.reference_solutions),
                },
                "domains": {
                    "box": [[float(lo), float(hi)] for lo, hi in gs.default_box],
                    "q0": [float(v) for v in gs.default_q0],
                    "horizon": [float(gs.horizon[0]), float(gs.horizon[1])],
                },
            }
        )
    return out

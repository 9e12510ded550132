"""Independent oracles: the gallery systems built symbolically in sympy.

The library assembles the disk from its constructions (projector
restriction of the tangent bundle onto X1, X2, then a force extension)
with numpy, one point at a time.  Here the same system is written out by
hand: the constrained frame X1, X2, the projector P(v) = (X1.Gv, X2.Gv),
the projected Lie bracket, the force rows, H and the reference section.
The expressions are lambdified once and compared with the library on
seeded points; the Hamilton-Jacobi residual of the reference section is
simplified symbolically, for every parameter value.

The two systems built over constant data (the free particle on a
time-fibered chart, flat space in polar coordinates) are checked the same
way, and the force rows of the two friction systems against their damped
Hamilton equations written by hand.

The ball's kernel C is the first non-zero one: the library orthonormalizes
its constant U basis by Gram-Schmidt, brackets the frame in the ambient
algebroid and projects with the metric.  Here that frame is written in
closed form, under both angular-velocity laws of the table.
"""

import numpy as np
import pytest

from algebroid_mech import hamilton_rhs, hj_residual, instantiate

from conftest import seeded_points

sp = pytest.importorskip("sympy")

PARAMS = (*sp.symbols("m I J R", positive=True), *sp.symbols("K k kappa", real=True))
Q = sp.symbols("x y theta phi", real=True)
P1, P2 = sp.symbols("p1 p2", real=True)


def _disk():
    """Anchor (4, 3), structure C (3, 3, 3), H, the reference section and
    the Hamilton-Jacobi residual of that section, as sympy expressions."""
    m, I, J, R, K, k, kappa = PARAMS
    phi = Q[3]
    s, sJ = sp.sqrt(R**2 * m + I), sp.sqrt(J)
    X = [sp.Matrix([R * sp.cos(phi) / s, R * sp.sin(phi) / s, 1 / s, 0]), sp.Matrix([0, 0, 0, 1 / sJ])]
    G = sp.diag(m, m, I, J)

    def P(v):
        return [(Xa.T * G * v)[0] for Xa in X]

    lie = X[1].jacobian(Q) * X[0] - X[0].jacobian(Q) * X[1]  # [X1, X2]
    F = sp.Matrix([[0, 0], [0, K * sp.cos(phi) / J]])
    rho = sp.zeros(4, 3)
    rho[:, 1], rho[:, 2] = X[0], X[1]
    C = sp.MutableDenseNDimArray.zeros(3, 3, 3)
    C[1, 2, 1], C[1, 2, 2] = P(lie)
    C[2, 1, 1], C[2, 1, 2] = -C[1, 2, 1], -C[1, 2, 2]
    for a in range(2):
        for c in range(2):
            C[0, a + 1, c + 1] = -F[a, c]
            C[a + 1, 0, c + 1] = F[a, c]
    H = (P1**2 + P2**2) / 2
    alpha = [k, -(K / sJ) * sp.sin(phi) + kappa]
    return rho, C, H, alpha, _residual(rho, C, H, alpha, Q, (P1, P2))


def _residual(rho, C, H, alpha, q, p):
    """The Hamilton-Jacobi residual of the section alpha over the chart q:
    residual_b = alpha_b's transport along R^alpha minus the momentum rate
    at p = alpha, where zeta = (1, dH/dp)."""
    on_alpha = dict(zip(p, alpha))
    zeta = [1] + [sp.diff(H, pa).subs(on_alpha) for pa in p]
    field = rho * sp.Matrix(zeta)
    residual = []
    for b in range(1, len(zeta)):
        pdot = -sum(rho[i, b] * sp.diff(H, q[i]).subs(on_alpha) for i in range(len(q)))
        pdot += sum(zeta[a] * C[a, b, c] * alpha[c - 1] for a in range(len(zeta)) for c in range(1, len(zeta)))
        residual.append(sum(alpha[b - 1].diff(q[i]) * field[i] for i in range(len(q))) - pdot)
    return residual


@pytest.fixture(scope="module")
def disk():
    rho, C, H, alpha, residual = _disk()
    values = dict(zip(PARAMS, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)))  # the gallery's defaults
    fns = {name: sp.lambdify([Q], sp.Array(expr).subs(values), "numpy")
           for name, expr in (("anchor", rho), ("C", C), ("alpha", alpha))}
    fns["H"] = sp.lambdify([(*Q, P1, P2)], H, "numpy")
    return fns, residual


def test_the_gallery_defaults_are_the_oracles():
    assert instantiate("vertical_disk").params == {"m": 1.0, "I": 1.0, "J": 1.0, "R": 1.0, "K": 1.0, "k": 1.0,
                                                   "kappa": 0.0}


def test_anchor_and_structure_match(disk):
    fns, _ = disk
    A = instantiate("vertical_disk").system.algebroid
    worst_anchor = worst_C = 0.0
    for q in seeded_points(4, n=256, seed=2026):
        worst_anchor = max(worst_anchor, np.max(np.abs(A.anchor_at(q) - np.array(fns["anchor"](q), dtype=float))))
        worst_C = max(worst_C, np.max(np.abs(A.structure_at(q) - np.array(fns["C"](q), dtype=float))))
    assert worst_anchor <= 1e-15
    assert worst_C <= 1e-16


def test_hamiltonian_section_and_rates_match(disk):
    fns, _ = disk
    gs = instantiate("vertical_disk")
    sys_, alpha = gs.system, gs.section("reference")
    for x in seeded_points(6, n=64, seed=2027):
        q = x[:4]
        assert abs(sys_.H(x) - fns["H"](x)) <= 1e-15
        assert np.max(np.abs(alpha(q) - np.array(fns["alpha"](q), dtype=float))) <= 1e-15
        # the library's Hamilton equations read the oracle's anchor and C
        rho, C = np.array(fns["anchor"](q), dtype=float), np.array(fns["C"](q), dtype=float)
        w = np.concatenate([[1.0], x[4:]])
        want = np.concatenate([rho @ w, np.einsum("abc,a,c->b", C[:, 1:, 1:], w, x[4:])])
        assert np.max(np.abs(hamilton_rhs(sys_, 0.0, x) - want)) <= 1e-15
        assert np.max(np.abs(hj_residual(sys_, alpha, q))) <= 1e-15


def test_reference_residual_simplifies_to_zero(disk):
    _, residual = disk
    assert [sp.simplify(r) for r in residual] == [0, 0]


BALL_PARAMS = (*sp.symbols("m r k", positive=True), *sp.symbols("Omega0 C1 C2", real=True))
TQ = sp.symbols("t q1 q2", real=True)
PB = sp.symbols("p1 p2 p3", real=True)
BALL_VALUES = {  # the gallery's defaults, and a set without unit values
    "defaults": (1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
    "generic": (1.7, 0.6, 0.8, 1.3, 0.4, -0.9),
}


def _ball(law):
    """Anchor (3, 4), structure C (4, 4, 4), H, the reference section and
    its Hamilton-Jacobi residual, as sympy expressions, under the table's
    ``law`` ('constant' or 'linear')."""
    m, r, k, Om0, C1, C2 = BALL_PARAMS
    t, q1, q2 = TQ
    omega = Om0 if law == "constant" else Om0 * t
    phase = r**2 * Om0 * t / (k**2 + r**2) if law == "constant" else r**2 * Om0 * t**2 / (2 * (k**2 + r**2))
    # the ambient rank-6 algebroid: the table's frame e0 and the two translations, then so(3)
    rhoE = sp.zeros(3, 6)
    rhoE[:, 0] = sp.Matrix([1, -omega * q2, omega * q1])
    rhoE[1, 1] = rhoE[2, 2] = 1
    CE = sp.MutableDenseNDimArray.zeros(6, 6, 6)
    for (a, b, c), v in {(0, 1, 2): -omega, (0, 2, 1): omega, (3, 4, 5): 1, (4, 5, 3): 1, (3, 5, 4): -1}.items():
        CE[a, b, c], CE[b, a, c] = v, -v
    G = sp.diag(1, m, m, m * k**2, m * k**2, m * k**2)
    # the drift X0 = e0, then U's basis, already G-orthogonal, normalized
    N = sp.sqrt(m * (k**2 + r**2))
    f = [sp.Matrix([1, 0, 0, 0, 0, 0]), sp.Matrix([0, 0, -r, 1, 0, 0]) / N, sp.Matrix([0, r, 0, 0, 1, 0]) / N,
         sp.Matrix([0, 0, 0, 0, 0, 1]) / (k * sp.sqrt(m))]
    rho = sp.Matrix.hstack(*[rhoE * fa for fa in f])
    # the frame is constant, so its E-bracket is C_E alone; project by G onto the U frame, no drift row
    C = sp.MutableDenseNDimArray.zeros(4, 4, 4)
    for a in range(4):
        for b in range(4):
            v = sp.Matrix([sum(CE[i, j, g] * f[a][i] * f[b][j] for i in range(6) for j in range(6)) for g in range(6)])
            for c in (1, 2, 3):
                C[a, b, c] = sp.simplify((f[c].T * G * v)[0])
    H = sum(p**2 for p in PB) / 2
    phi1 = C1 * sp.cos(phase) - C2 * sp.sin(phase)
    phi2 = C1 * sp.sin(phase) + C2 * sp.cos(phase)
    alpha = [-(r / N) * phi2, (r / N) * phi1, sp.Integer(0)]
    return rho, C, H, alpha, _residual(rho, C, H, alpha, TQ, PB)


@pytest.fixture(scope="module", params=["constant", "linear"])
def ball(request):
    return request.param, _ball(request.param)


def _ball_case(ball, values):
    """The library's ball and the oracle's lambdified anchor, C, section and H at ``values``,
    passed as floats: a substituted sympy Float prints with 15 significant digits at most."""
    law, (rho, C, H, alpha, _) = ball
    fns = {name: lambda q, fn=sp.lambdify([TQ, BALL_PARAMS], sp.Array(expr), "numpy"): fn(q, BALL_VALUES[values])
           for name, expr in (("anchor", rho), ("C", C), ("alpha", alpha))}
    fns["H"] = sp.lambdify([(*TQ, *PB)], H, "numpy")
    names = ("m", "r", "k", "Omega0", "C1", "C2")
    return instantiate("rolling_ball", dict(zip(names, BALL_VALUES[values])), omega=law), fns


def test_the_ball_defaults_are_the_oracles():
    params = instantiate("rolling_ball").params
    assert {name: params[name] for name in ("m", "r", "k", "Omega0", "C1", "C2")} == dict(
        zip(("m", "r", "k", "Omega0", "C1", "C2"), BALL_VALUES["defaults"]))


@pytest.mark.parametrize("values", BALL_VALUES)
def test_ball_anchor_and_projected_structure_match(ball, values):
    gs, fns = _ball_case(ball, values)
    A = gs.system.algebroid
    worst_anchor = worst_C = 0.0
    for q in seeded_points(3, n=256, seed=2028):
        C = np.array(fns["C"](q), dtype=float)
        assert np.any(C[1:, 1:, 1:])  # the projected bracket of the U frame is not zero
        worst_anchor = max(worst_anchor, np.max(np.abs(A.anchor_at(q) - np.array(fns["anchor"](q), dtype=float))))
        worst_C = max(worst_C, np.max(np.abs(A.structure_at(q) - C)))
    # measured: at most 2.2e-16 (anchor) and 1.1e-16 (C) under either law; the Gram-Schmidt's roundoff in the frame
    assert worst_anchor <= 1e-15
    assert worst_C <= 1e-15


@pytest.mark.parametrize("values", BALL_VALUES)
def test_ball_hamiltonian_section_and_rates_match(ball, values):
    gs, fns = _ball_case(ball, values)
    sys_, alpha = gs.system, gs.section("reference")
    for x in seeded_points(6, n=64, seed=2029):
        q = x[:3]
        assert abs(sys_.H(x) - fns["H"](x)) <= 1e-15
        assert np.max(np.abs(alpha(q) - np.array(fns["alpha"](q), dtype=float))) <= 1e-15
        rho, C = np.array(fns["anchor"](q), dtype=float), np.array(fns["C"](q), dtype=float)
        w = np.concatenate([[1.0], x[3:]])
        want = np.concatenate([rho @ w, np.einsum("abc,a,c->b", C[:, 1:, 1:], w, x[3:])])
        assert np.max(np.abs(hamilton_rhs(sys_, 0.0, x) - want)) <= 1e-15
        assert np.max(np.abs(hj_residual(sys_, alpha, q))) <= 1e-15


def test_ball_reference_residual_simplifies_to_zero(ball):
    _, (*_, residual) = ball
    assert [sp.simplify(r) for r in residual] == [0, 0, 0]


# the two systems built over constant data: a time-fibered chart and flat space in polar coordinates
TQ2 = sp.symbols("t q", real=True)
RTH = sp.symbols("r theta", positive=True)


def _time_dependent():
    """The free particle on the time-fibered chart (t, q): e_0 = d/dt is dual
    to dt, the bracket is zero and the reference section is dS/dq of S = q^2 / (2t)."""
    t, q = TQ2
    rho = sp.eye(2)
    C = sp.MutableDenseNDimArray.zeros(2, 2, 2)
    H = P1**2 / 2
    alpha = [q / t]
    return TQ2, (P1,), rho, C, H, alpha


def _riemannian():
    """The flat metric in polar coordinates (r, theta), extended by the null
    force: e_0 anchored to zero, the straight-line field d/dx as the section."""
    r, th = RTH
    rho = sp.Matrix([[0, 1, 0], [0, 0, 1]])
    C = sp.MutableDenseNDimArray.zeros(3, 3, 3)
    H = (P1**2 + P2**2 / r**2) / 2
    alpha = [sp.cos(th), -r * sp.sin(th)]
    return RTH, (P1, P2), rho, C, H, alpha


CONSTANT_ORACLES = {"time_dependent_free": _time_dependent, "riemannian_flat": _riemannian}


def _rates(fns, x, m):
    """The Hamilton rates at x = (q, p) from the oracle's anchor, C and gradient of H."""
    q, p = x[:m], x[m:]
    rho, C, g = (np.array(fns[name](*args), dtype=float) for name, args in
                 (("anchor", (q,)), ("C", (q,)), ("grad H", (x,))))
    zeta = np.concatenate([[1.0], g[m:]])
    return np.concatenate([rho @ zeta, -(rho[:, 1:].T @ g[:m]) + np.einsum("abc,a,c->b", C[:, 1:, 1:], zeta, p)])


@pytest.fixture(scope="module", params=list(CONSTANT_ORACLES))
def constant_system(request):
    q, p, rho, C, H, alpha = CONSTANT_ORACLES[request.param]()
    fns = {name: sp.lambdify([q], sp.Array(expr), "numpy") for name, expr in
           (("anchor", rho), ("C", C), ("alpha", alpha))}
    fns["grad H"] = sp.lambdify([(*q, *p)], [sp.diff(H, v) for v in (*q, *p)], "numpy")
    return instantiate(request.param), fns, _residual(rho, C, H, alpha, q, p)


def _in_box(box, n, seed):
    lo, hi = np.array(box).T
    return seeded_points(len(box), n=n, lo=lo, hi=hi, seed=seed)


def test_constant_system_anchor_structure_and_rates_match(constant_system):
    gs, fns, _ = constant_system
    sys_, alpha = gs.system, gs.section("reference")
    A, m = sys_.algebroid, sys_.chart.dim
    gaps = dict.fromkeys(("anchor", "C", "alpha", "rates", "residual"), 0.0)
    P = seeded_points(sys_.n_momenta, n=256, seed=2031)
    for q, p in zip(_in_box(gs.default_box, 256, 2030), P):
        x = np.concatenate([q, p])
        gaps["anchor"] = max(gaps["anchor"], np.max(np.abs(A.anchor_at(q) - np.array(fns["anchor"](q), dtype=float))))
        gaps["C"] = max(gaps["C"], np.max(np.abs(A.structure_at(q) - np.array(fns["C"](q), dtype=float))))
        gaps["alpha"] = max(gaps["alpha"], np.max(np.abs(alpha(q) - np.array(fns["alpha"](q), dtype=float))))
        gaps["rates"] = max(gaps["rates"], np.max(np.abs(hamilton_rhs(sys_, 0.0, x) - _rates(fns, x, m))))
        gaps["residual"] = max(gaps["residual"], np.max(np.abs(hj_residual(sys_, alpha, q))))
    # measured: 0 for all but the residual, at most 6.0e-16 (time_dependent_free) and 2.2e-16 (riemannian_flat)
    assert gaps["anchor"] == gaps["C"] == 0.0
    assert max(gaps.values()) <= 1e-15


def test_constant_system_reference_residual_simplifies_to_zero(constant_system):
    *_, residual = constant_system
    assert [sp.simplify(r) for r in residual] == [0] * len(residual)


def _forced(system_id):
    """The chart symbols, momenta, H and force matrix F of a system with linear
    friction, whose Hamilton equations are dq = dH/dp, dp = -dH/dq - F p; the
    parameters are symbols with the gallery's names."""
    x, y = sp.symbols("x theta" if system_id == "cylinder_friction" else "x y", real=True)
    if system_id == "cylinder_friction":
        m, r, g, K1, K2 = sp.symbols("m r g K1 K2", real=True)
        return (x, y), (P1, P2), P1**2 / (2 * m) + P2**2 / (2 * m * r**2) + m * g * x, sp.diag(K1, K2)
    mu1, mu2, k = sp.symbols("mu1 mu2 k", real=True)
    U = mu1 / sp.sqrt((x + mu2) ** 2 + y**2) + mu2 / sp.sqrt((x - mu1) ** 2 + y**2)
    return (x, y), (P1, P2), (P1**2 + P2**2) / 2 + y * P1 - x * P2 + U, k * sp.eye(2)


@pytest.mark.parametrize("system_id, params", [
    ("cylinder_friction", None),
    ("cylinder_friction", {"m": 1.3, "r": 0.8, "g": 2.1, "K1": 0.7, "K2": -0.4}),
    ("three_body_drag", None),
    ("three_body_drag", {"mu1": 0.6, "mu2": 0.45, "k": -0.35}),
])
def test_force_rows_are_minus_the_force(system_id, params):
    # C_{0a}^b = -F_a^b, C_{a0}^b = F_a^b and nothing else over the flat base, so the
    # library's Hamilton rates are the damped equations
    gs = instantiate(system_id, params)
    q, p, H, F = _forced(system_id)
    names = sorted((H.free_symbols | F.free_symbols) - {*q, *p}, key=str)
    values = [gs.params[str(sym)] for sym in names]  # passed as floats: a substituted sympy Float keeps 15 digits
    dp = -sp.Matrix([sp.diff(H, v) for v in q]) - F * sp.Matrix(p)
    rates = sp.lambdify([(*q, *p), names], [sp.diff(H, v) for v in p] + list(dp), "numpy")
    Fv = np.array(sp.lambdify([names], F, "numpy")(values), dtype=float)
    want_C = np.zeros((3, 3, 3))
    want_C[0, 1:, 1:], want_C[1:, 0, 1:] = -Fv, Fv
    A = gs.system.algebroid
    worst = 0.0
    for x in np.column_stack([_in_box(gs.default_box, 256, 2032), seeded_points(2, n=256, seed=2033)]):
        assert np.array_equal(A.structure_at(x[:2]), want_C)
        assert np.array_equal(A.anchor_at(x[:2]), np.eye(2, 3, 1))
        worst = max(worst, np.max(np.abs(hamilton_rhs(gs.system, 0.0, x) - np.array(rates(x, values), dtype=float))))
    # measured: 0 and 2.2e-16 on the cylinder, 4.4e-16 and 8.9e-16 on the three-body problem
    assert worst <= 1e-15

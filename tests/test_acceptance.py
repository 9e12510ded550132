"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 9 (falsification) is split per system.  On the ball a constant
section offset leaves the solution family and must be falsified.  On the
disk a constant offset (d0, d1) does not: it only re-parametrises the
reference as k -> k + d0, kappa -> kappa + d1 (the momentum constant and
the spin integration constant are free parameters of the family), so it
is another exact solution.  The disk half therefore has two parts that
can each fail: perturbations that vary along the chart must give a large
residual and a diverging lift, and constant offsets must equal the
re-parametrised reference and pass both checks at their default
tolerances.
"""

import math

import numpy as np
import pytest

from algebroid_mech import (
    DualSection,
    ScalarField,
    bracket,
    d_function,
    d_oneform_eval,
    flag_rank,
    force_extension,
    hamilton_rhs,
    hj_grid_check,
    hj_residual,
    hj_residual_dual,
    instantiate,
    integrate_hamilton,
    integrate_rk4,
    poisson_bracket_eval,
    projected_field,
    v_restriction,
    verify_lift,
    zeta_eval,
)
from algebroid_mech.cli import main as cli_main
from algebroid_mech.hamilton import HamiltonianSystem

from conftest import (
    lie_tangent,
    offset_section,
    random_adapted_algebroid,
    seeded_points,
    smooth_field,
    smooth_section,
)


def report(num, desc, value, tol, larger_is_pass=False):
    ok = value >= tol if larger_is_pass else value <= tol
    rel = ">=" if larger_is_pass else "<="
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} (value {value:.3e} {rel} tol {tol:.1e})")
    assert ok, f"criterion {num}: {desc}: {value:.6e} not {rel} {tol:.1e}"


@pytest.fixture(scope="module")
def disk():
    return instantiate("vertical_disk")


@pytest.fixture(scope="module")
def ball():
    return instantiate("rolling_ball")


@pytest.fixture(scope="module")
def disk_base_curve(disk):
    """Base integral curve of the projected field, dt = 1e-3 over [0, 5]."""
    alpha = disk.reference_sections["reference"]
    return integrate_rk4(
        lambda t, q: projected_field(disk.system, alpha, q),
        np.array(disk.default_q0),
        0.0,
        5.0,
        1e-3,
    )


def test_c01_disk_closed_forms(disk, disk_base_curve):
    c = disk_base_curve
    sols = disk.reference_solutions
    worst_phi = max(abs(c.points[i, 3] - sols["phi"](c.times[i])) for i in range(0, len(c), 10))
    worst_xyt = 0.0
    for i in range(0, len(c), 10):
        t = c.times[i]
        worst_xyt = max(
            worst_xyt,
            abs(c.points[i, 0] - sols["x"](t)),
            abs(c.points[i, 1] - sols["y"](t)),
            abs(c.points[i, 2] - sols["theta"](t)),
        )
    report(1, "disk phi(t) vs closed form", worst_phi, 1e-6)
    report(1, "disk x,y,theta vs closed forms", worst_xyt, 1e-5)


def test_c02_disk_dissipation(disk, disk_base_curve):
    sys_ = disk.system
    alpha = disk.reference_sections["reference"]
    c = disk_base_curve
    dt = 1e-3
    H_t = np.array([sys_.h_value(q, alpha(q)) for q in c.points])
    K, J = disk.params["K"], disk.params["J"]
    worst = 0.0
    for i in range(2, len(c) - 2, 25):
        dH = (H_t[i - 2] - 8 * H_t[i - 1] + 8 * H_t[i + 1] - H_t[i + 2]) / (12 * dt)
        phi = c.points[i, 3]
        p2 = alpha(c.points[i])[1]
        worst = max(worst, abs(dH - (-(K * math.cos(phi) / J) * p2 * p2)))
    report(2, "disk dH/dt vs dissipative term", worst, 1e-6)


def test_c03a_ball_grid_residual(ball):
    alpha = ball.reference_sections["reference"]
    box = ((0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0))
    rep = hj_grid_check(ball.system, alpha, box, resolution=11, tol=1e-10)
    report(3, "ball HJ residual on 11^3 grid", rep.max_norm, 1e-10)


def test_c03b_ball_lift(ball):
    alpha = ball.reference_sections["reference"]
    rep = verify_lift(ball.system, alpha, np.array(ball.default_q0), 0.0, 10.0, 1e-2, tol=1e-6)
    report(3, "ball lift deviation over [0,10]", rep.max_deviation, 1e-6)


def test_c03c_ball_momenta_sinusoids(ball):
    q0 = np.array(ball.default_q0)
    alpha = ball.reference_sections["reference"]
    c = integrate_hamilton(ball.system, np.concatenate([q0, alpha(q0)]), 0.0, 10.0, 5e-3)
    # closed forms with angular frequency r^2 Omega0/(k^2+r^2) = 1/2
    n = 1.0 / math.sqrt(2.0)
    worst = 0.0
    for i in range(0, len(c), 20):
        t = c.times[i]
        expect = np.array([-n * math.sin(0.5 * t), n * math.cos(0.5 * t)])
        worst = max(worst, float(np.max(np.abs(c.points[i, 3:5] - expect))))
    report(3, "ball momenta vs sinusoids (omega=1/2)", worst, 1e-6)


def test_c03d_ball_constraints(ball):
    rhs = ball.extras["original_rhs"]
    psi = ball.extras["constraints"]
    u0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    c = integrate_rk4(rhs, u0, 0.0, 10.0, 1e-3)
    worst = max(float(np.max(np.abs(psi(u)))) for u in c.points[::50])
    report(3, "ball constraints psi1, psi2 along flow", worst, 1e-8)


def test_c04_ball_linear_omega():
    gs = instantiate("rolling_ball", omega="linear")
    q0 = np.array(gs.default_q0)
    alpha = gs.reference_sections["reference"]
    c = integrate_hamilton(gs.system, np.concatenate([q0, alpha(q0)]), 0.0, 5.0, 5e-3)
    n = 1.0 / math.sqrt(2.0)
    worst = 0.0
    for i in range(0, len(c), 20):
        phase = c.times[i] ** 2 / 4.0  # r^2 Omega0 t^2 / (2(k^2+r^2))
        expect = np.array([-n * math.sin(phase), n * math.cos(phase)])
        worst = max(worst, float(np.max(np.abs(c.points[i, 3:5] - expect))))
    report(4, "ball momenta vs t^2-phase sinusoids", worst, 1e-6)


def test_c05_ball_non_cocycle_certificate(ball):
    U = v_restriction(ball.system.algebroid)
    alpha = ball.extras["alpha_on_u"]
    phi12 = ball.reference_solutions["phi12"]
    coeff = 1.0 / 2.0 ** 1.5  # k r/(m (k^2+r^2)^{3/2})
    worst_two_form = worst_contraction = 0.0
    for q in seeded_points(3, n=16, seed=33):
        p1, p2 = phi12(q[0])
        v35 = d_oneform_eval(U, alpha, U.basis_section(0), U.basis_section(2), q)
        v45 = d_oneform_eval(U, alpha, U.basis_section(1), U.basis_section(2), q)
        worst_two_form = max(worst_two_form, abs(v35 - coeff * p1), abs(v45 - coeff * p2))
        zeta = np.array([-p2, p1, 0.0]) / math.sqrt(2.0)
        zeta_sec = _const_section(zeta)
        for a in range(3):
            worst_contraction = max(
                worst_contraction,
                abs(d_oneform_eval(U, alpha, zeta_sec, U.basis_section(a), q)),
            )
    report(5, "ball dU(alpha) two-form coefficients", worst_two_form, 1e-8)
    report(5, "ball contraction with zeta vanishes", worst_contraction, 1e-9)


def _const_section(v):
    from algebroid_mech import constant_section

    return constant_section(v)


def test_c06_cylinder_lambert_solutions():
    gs = instantiate("cylinder_friction")
    sols = gs.reference_solutions
    m, r, g, K1, K2 = (gs.params[k] for k in ("m", "r", "g", "K1", "K2"))
    thetas = np.linspace(-3.0, 3.0, 100)
    worst2 = max(
        abs(K2 * sols["S2p"](t) + sols["S2p"](t) * sols["S2pp"](t) / (m * r * r)) for t in thetas
    )
    report(6, "cylinder theta-part residual", worst2, 1e-12)
    xs = np.linspace(gs.extras["x_max"] - 2.0, gs.extras["x_max"] - 0.1, 100)
    worst1 = max(
        abs(K1 * sols["S1p"](x) + m * g + sols["S1p"](x) * sols["S1pp"](x) / m) for x in xs
    )
    report(6, "cylinder Lambert-W x-part residual", worst1, 1e-7)
    for branch in (1.0, -1.0):
        gs0 = instantiate("cylinder_friction", {"K1": 0.0, "C2": 2.0, "branch": branch})
        sols0 = gs0.reference_solutions
        xs0 = np.linspace(gs0.extras["x_max"] - 2.0, gs0.extras["x_max"] - 0.1, 100)
        worst0 = max(
            abs(m * g + sols0["S1p"](x) * sols0["S1pp"](x) / m) for x in xs0
        )
        report(6, f"cylinder K1=0 branch {branch:+.0f} residual", worst0, 1e-7)


def test_c07_three_body_two_paths():
    from algebroid_mech.calculus import fd_gradient

    gs = instantiate("three_body_drag")
    beta = gs.probe_sections["beta_probe"]
    invariant = gs.extras["probe_invariant"]
    lo, hi = 0.4, 1.4
    pts = lo + (hi - lo) * np.random.default_rng(42).random((128, 2))
    worst = 0.0
    for q in pts:
        dual = hj_residual_dual(gs.system, beta, q)
        grad = fd_gradient(invariant, q)
        worst = max(worst, float(np.max(np.abs(dual - grad))))
    report(7, "three-body dual residual vs gradient of kS + H o dS", worst, 1e-8)


def test_c08_property_suites(ball):
    A = random_adapted_algebroid()
    pts = seeded_points(2, n=128, seed=42)

    s1 = smooth_section(3, 2, seed=201)
    s2 = smooth_section(3, 2, seed=202)
    f = smooth_field(2, seed=203)
    g = smooth_field(2, seed=204)

    # bracket antisymmetry, exact
    fwd, rev = bracket(A, s1, s2), bracket(A, s2, s1)
    worst = max(float(np.max(np.abs(fwd(q) + rev(q)))) for q in pts)
    report(8, "bracket antisymmetry (exact)", worst, 0.0)

    # Leibniz rule
    from algebroid_mech import ESection, anchor_apply

    fs2 = ESection(components=lambda q: f(q) * s2(q))
    lhs = bracket(A, s1, fs2)
    plain = bracket(A, s1, s2)
    worst = 0.0
    for q in pts:
        rhs = f(q) * plain(q) + float(np.asarray(f.grad(q)) @ anchor_apply(A, s1, q)) * s2(q)
        worst = max(worst, float(np.max(np.abs(lhs(q) - rhs))))
    report(8, "bracket Leibniz rule", worst, 1e-6)

    # differential product rule
    dfg = d_function(A, ScalarField(eval=lambda q: f(q) * g(q)))
    df, dg = d_function(A, f), d_function(A, g)
    worst = max(
        float(np.max(np.abs(dfg(q) - (f(q) * dg(q) + g(q) * df(q))))) for q in pts
    )
    report(8, "differential product rule", worst, 1e-7)

    # square of the differential vanishes on Lie instances
    worst = 0.0
    for L in (lie_tangent(2), force_extension(lie_tangent(2), None)):
        dfl = d_function(L, f)
        for q in pts[:64]:
            for a in range(L.rank):
                for b in range(a + 1, L.rank):
                    worst = max(
                        worst,
                        abs(d_oneform_eval(L, dfl, L.basis_section(a), L.basis_section(b), q)),
                    )
    report(8, "squared differential on Lie instances", worst, 1e-6)

    # Poisson bracket realizes the defining relations of the bivector
    m = A.chart.dim
    br12 = bracket(A, A.basis_section(1), A.basis_section(2))
    worst = 0.0
    for x in seeded_points(m + A.rank, n=128, seed=43):
        q, p = x[:m], x[m:]
        got = poisson_bracket_eval(A, lambda y: float(y[m + 1]), lambda y: float(y[m + 2]), x)
        worst = max(worst, abs(got + float(br12(q) @ p)))
        got = poisson_bracket_eval(A, lambda y: float(f.eval(y[:m])), lambda y: float(y[m + 1]), x)
        expect = float(np.asarray(f.grad(q)) @ A.anchor_at(q)[:, 1])
        worst = max(worst, abs(got - expect))
        got = poisson_bracket_eval(
            A, lambda y: float(f.eval(y[:m])), lambda y: float(g.eval(y[:m])), x
        )
        worst = max(worst, abs(got))
    report(8, "linear bivector defining relations", worst, 1e-6)

    # Hamilton equations agree with the bracket form
    Hf = smooth_field(m + A.rank - 1, seed=205)
    sys_ = HamiltonianSystem(algebroid=A, H=Hf)

    def F_h(x):
        return float(x[m]) + sys_.h_value(x[:m], x[m + 1:])

    worst = 0.0
    for x in seeded_points(m + A.rank - 1, n=128, seed=44):
        q, p = x[:m], x[m:]
        rate = hamilton_rhs(sys_, 0.0, x)
        full = np.concatenate([q, [-sys_.h_value(q, p)], p])
        for i in range(m):
            got = poisson_bracket_eval(A, lambda y, i=i: float(y[i]), F_h, full)
            worst = max(worst, abs(got - rate[i]))
        for a in range(A.rank - 1):
            got = poisson_bracket_eval(A, lambda y, a=a: float(y[m + 1 + a]), F_h, full)
            worst = max(worst, abs(got - rate[m + a]))
    report(8, "Hamilton equations vs bracket form", worst, 1e-7)

    # characteristic section is normalized exactly
    alpha = DualSection(components=smooth_section(2, 2, seed=206).components, space="V*")
    worst = max(abs(zeta_eval(sys_, alpha, q)[0] - 1.0) for q in pts)
    report(8, "zeta normalization (exact)", worst, 0.0)

    # the two residual paths agree on the ball
    balpha = ball.reference_sections["reference"]
    bsys = ball.system

    def beta_comps(q):
        a = balpha(q)
        return np.concatenate([[-bsys.h_value(q, a)], a])

    beta = DualSection(components=beta_comps, space="E*")
    lo = np.array([b[0] for b in ball.default_box])
    hi = np.array([b[1] for b in ball.default_box])
    worst = 0.0
    for u in seeded_points(3, n=128, seed=45):
        q = lo + (hi - lo) * (u + 1.0) / 2.0
        worst = max(
            worst,
            float(
                np.max(np.abs(hj_residual_dual(bsys, beta, q) - hj_residual(bsys, balpha, q)))
            ),
        )
    report(8, "reduced vs full-dual residual paths", worst, 1e-7)


def test_c09_falsification_ball(ball):
    # With constant Omega, a constant offset delta on the first momentum
    # component leaves the residual (0, -delta r^2 Omega0 / (k^2 + r^2), 0)
    # at every point: 0.05 in norm here, 5e7 times the HJ tolerance.  The
    # grid is checked against that closed form on both sides, not against
    # a threshold the residual only just reaches.
    delta = 0.1
    pert = offset_section(ball.reference_sections["reference"], [delta, 0.0, 0.0])
    box = ((0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0))
    rep = hj_grid_check(ball.system, pert, box, resolution=5, tol=1e-9)
    p = ball.params
    expect = np.array([0.0, -delta * p["r"] ** 2 * p["Omega0"] / (p["k"] ** 2 + p["r"] ** 2), 0.0])
    residuals = np.array([r for _, r in rep.residual_grid])
    assert residuals.shape == (5 ** 3, 3)
    gap = float(np.max(np.abs(residuals - expect)))
    report(9, "ball offset section grid residual equals the closed form", gap, 1e-12)
    lift = verify_lift(ball.system, pert, np.array(ball.default_q0), 0.0, 1.0, 2e-3)
    report(9, "ball offset section lift deviation by t=1", lift.max_deviation, 1e-3, larger_is_pass=True)


def test_c09_falsification_disk(disk):
    # Two halves.  A perturbation that varies along the chart leaves the
    # solution family, so it must give a large grid residual and a lift
    # that leaves the Hamilton flow.  A constant offset only moves the free
    # constants k and kappa, so it must be the re-parametrised reference
    # and pass both checks.  Worst values are folded with np.max, which
    # keeps a NaN, so a non-finite residual fails either half.
    base = disk.reference_sections["reference"]
    box = ((-0.5, 0.5), (-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0))
    q0 = np.array(disk.default_q0)

    def grid(section):
        rep = hj_grid_check(disk.system, section, box, resolution=3, tol=1e-9)
        points = [q for q, _ in rep.residual_grid]
        return points, np.abs(np.array([r for _, r in rep.residual_grid]))

    def lift_deviation(section):
        return verify_lift(disk.system, section, q0, 0.0, 1.0, 5e-3).max_deviation

    for comp, coord, name in ((0, 2, "theta"), (1, 0, "x")):
        def comps(q, comp=comp, coord=coord):
            bump = np.zeros(2)
            bump[comp] = 0.1 * q[coord]
            return base.components(q) + bump

        pert = DualSection(components=comps, space=base.space)
        _, residuals = grid(pert)
        desc = f"disk +0.1*{name} on component {comp}"
        report(9, f"{desc}: grid residual", float(np.max(residuals)), 0.05, larger_is_pass=True)
        report(9, f"{desc}: lift deviation", lift_deviation(pert), 1e-3, larger_is_pass=True)

    for comp, param in ((0, "k"), (1, "kappa")):
        delta = np.zeros(2)
        delta[comp] = 0.1
        shifted = offset_section(base, delta)
        reparam = instantiate("vertical_disk", {param: disk.params[param] + 0.1})
        reparam_alpha = reparam.reference_sections["reference"]
        points, residuals = grid(shifted)
        assert np.all(np.isfinite(residuals)), f"non-finite residual for offset on {param}"
        gap = np.max([np.abs(shifted(q) - reparam_alpha(q)) for q in points])
        desc = f"disk constant offset on {param}"
        report(9, f"{desc} equals reference at {param}+0.1 (exact)", float(gap), 0.0)
        report(9, f"{desc}: grid residual (still a solution)", float(np.max(residuals)), 1e-9)
        report(9, f"{desc}: lift deviation (still a solution)", lift_deviation(shifted), 1e-6)


def test_c10_disk_flag_rank(disk):
    D = disk.extras["constraint_algebroid"]
    pts = seeded_points(4, n=10, seed=42)
    worst_depth = 0
    for q in pts:
        ranks = flag_rank(D, q, 4)
        assert 4 in ranks, ranks
        worst_depth = max(worst_depth, ranks.index(4) + 1)
    report(10, "disk flag rank reaches dim Q within depth", float(worst_depth), 4.0)


def test_c11_rk4_order():
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        c = integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.0, dt)
        errs.append(abs(c.points[-1, 0] - math.e))
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    report(11, "RK4 error reduction per halving of dt", ratio, 12.0, larger_is_pass=True)


def test_c12_determinism(tmp_path):
    payloads = []
    for tag in ("first", "second"):
        a = tmp_path / f"hj_{tag}.json"
        b = tmp_path / f"coc_{tag}.json"
        assert cli_main(
            ["hj-check", "rolling_ball", "--section", "reference", "--resolution", "3",
             "--out", str(a)]
        ) == 0
        assert cli_main(
            ["cocycle-check", "vertical_disk", "--samples", "32", "--seed", "42",
             "--out", str(b)]
        ) == 0
        payloads.append((a.read_bytes(), b.read_bytes()))
    same = payloads[0] == payloads[1]
    report(12, "byte-identical JSON on rerun", 0.0 if same else 1.0, 0.0)

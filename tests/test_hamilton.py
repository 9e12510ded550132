import math

import numpy as np
import pytest

from algebroid_mech import (
    ESection,
    Homomorphism,
    HamiltonianSystem,
    ScalarField,
    SkewAlgebroid,
    bracket,
    dissipation_rate,
    f_h_eval,
    force_extension,
    hamilton,
    hamilton_rhs,
    instantiate,
    integrate_hamilton,
    poisson_bracket_eval,
    projected_field,
)

from algebroid_mech.algebroid import sample_box
from algebroid_mech.hamilton_jacobi import hj_forced_residual, hj_residual, hj_residual_dual

from conftest import CONSTANT_SYSTEMS, N_SAMPLES, SEED, callable_path, lie_tangent, seeded_points, smooth_field


def phase_samples(A, n=N_SAMPLES, seed=SEED):
    """Seeded full-dual sample points (q, p_0..p_{rank-1})."""
    return seeded_points(A.chart.dim + A.rank, n=n, seed=seed)


def free_system(dim=2):
    A = force_extension(lie_tangent(dim), None)
    H = ScalarField(
        eval=lambda x: 0.5 * float(x[dim:] @ x[dim:]),
        grad=lambda x: np.concatenate([np.zeros(dim), x[dim:]]),
    )
    return HamiltonianSystem(algebroid=A, H=H)


def test_system_requires_an_adapted_algebroid():
    H = ScalarField(eval=lambda x: 0.0, grad=lambda x: np.zeros(4))
    with pytest.raises(ValueError, match="HamiltonianSystem requires an adapted algebroid"):
        HamiltonianSystem(algebroid=lie_tangent(2), H=H)


class TestPoissonBracket:
    def test_base_functions_commute_exactly(self, adapted_algebroid):
        A = adapted_algebroid
        m = A.chart.dim
        F = lambda x: math.sin(x[0]) + x[1]
        G = lambda x: x[0] * x[1]
        for x in phase_samples(A, n=16):
            assert poisson_bracket_eval(A, F, G, x) == 0.0

    def test_self_bracket_zero_exactly(self, adapted_algebroid):
        F = smooth_field(2 + 3, seed=81)
        for x in phase_samples(adapted_algebroid, n=16, seed=2):
            assert poisson_bracket_eval(adapted_algebroid, F, F, x) == 0.0

    def test_fiber_linear_functions_recover_structure(self, adapted_algebroid):
        # bracket of two fiber-linear coordinates is minus the bracket section
        A = adapted_algebroid
        m = A.chart.dim
        for x in phase_samples(A, n=16, seed=3):
            q, p = x[:m], x[m:]
            C = A.structure_at(q)
            for a in range(A.rank):
                for b in range(a + 1, A.rank):
                    got = poisson_bracket_eval(
                        A, lambda y: float(y[m + a]), lambda y: float(y[m + b]), x
                    )
                    assert abs(got - (-float(C[a, b] @ p))) < 1e-9

    def test_three_body_extension_bivector_term(self, three_body):
        # {p0, px} = k*px for drag F = k Id
        A = three_body.system.algebroid
        k = three_body.params["k"]
        x = np.array([0.9, 1.1, 0.4, -0.3, 0.7])  # (x, y, p0, px, py)
        got = poisson_bracket_eval(A, lambda y: float(y[2]), lambda y: float(y[3]), x)
        assert abs(got - k * x[3]) < 1e-9

    def test_antisymmetry_and_leibniz(self, adapted_algebroid):
        A = adapted_algebroid
        F = smooth_field(5, seed=91)
        G = smooth_field(5, seed=92)
        Hf = smooth_field(5, seed=93)
        GH = ScalarField(eval=lambda x: G(x) * Hf(x))
        worst_anti = worst_leib = 0.0
        for x in phase_samples(A, n=N_SAMPLES, seed=4):
            fg = poisson_bracket_eval(A, F, G, x)
            gf = poisson_bracket_eval(A, G, F, x)
            worst_anti = max(worst_anti, abs(fg + gf))
            fgh = poisson_bracket_eval(A, F, GH, x)
            fh = poisson_bracket_eval(A, F, Hf, x)
            worst_leib = max(worst_leib, abs(fgh - (G(x) * fh + fg * Hf(x))))
        assert worst_anti < 1e-6
        assert worst_leib < 1e-6

    def test_p0_independence_bitwise(self, adapted_algebroid):
        A = adapted_algebroid
        m = A.chart.dim
        F = lambda x: math.sin(x[0]) * x[m + 1] + x[m + 2]
        G = lambda x: x[1] * x[m + 2] - 0.3 * x[m + 1]
        for x in phase_samples(A, n=16, seed=5):
            x2 = x.copy()
            x2[m] = x[m] + 17.5
            assert poisson_bracket_eval(A, F, G, x) == poisson_bracket_eval(A, F, G, x2)


class TestFh:
    def test_zero_on_section_image(self, cylinder):
        sys_ = cylinder.system
        q = np.array([-0.7, 0.4])
        p = np.array([0.2, -0.1])
        assert f_h_eval(sys_, np.concatenate([q, [-sys_.h_value(q, p)], p])) == 0.0

    def test_vertical_derivative_is_one(self, cylinder):
        sys_ = cylinder.system
        q = np.array([-0.7, 0.4])
        p = np.array([0.2, -0.1])
        eps = 0.5
        a = f_h_eval(sys_, np.concatenate([q, [1.0 + eps], p]))
        b = f_h_eval(sys_, np.concatenate([q, [1.0], p]))
        assert (a - b) / eps == 1.0

    def test_free_value(self):
        sys_ = free_system(2)
        assert f_h_eval(sys_, [0.0, 0.0, 1.0, 0.0, 0.0]) == 1.0

    def test_missing_p0(self):
        # the reduced state (q, p) has no p0 slot
        sys_ = free_system(2)
        with pytest.raises(ValueError, match="full dual point length does not match the system"):
            f_h_eval(sys_, np.zeros(4))


def count_reads(monkeypatch, sys_, run):
    """The outermost anchor_at and structure_at reads, and the gradients of
    sys_.H, that run() makes, with its result."""
    counts = {"anchor_at": 0, "structure_at": 0, "grad H": 0}
    depth = [0]
    for name in ("anchor_at", "structure_at"):
        original = getattr(SkewAlgebroid, name)

        def counting(self, q, name=name, original=original):
            # a read inside a read is the algebroid's own (a force extension's of its base, a
            # kernel's of its ambient E); count the outermost
            counts[name] += depth[0] == 0
            depth[0] += 1
            try:
                return original(self, q)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(SkewAlgebroid, name, counting)
    gradient = hamilton.fd_gradient

    def counting_gradient(f, *args, **kwargs):
        counts["grad H"] += f is sys_.H
        return gradient(f, *args, **kwargs)

    monkeypatch.setattr(hamilton, "fd_gradient", counting_gradient)
    try:
        result = run()
    finally:
        monkeypatch.undo()
    return counts, result


def probe_section(gs):
    """The system's reference section, or the dS section of three_body_drag, which has none."""
    return gs.reference_sections.get("reference") or gs.probe_sections["dS"]


def start_state(gs):
    q0 = np.array(gs.default_q0)
    return np.concatenate([q0, probe_section(gs)(q0)])


# the systems whose kernel builds the anchor and C per point
KERNEL_CASES = [
    pytest.param("vertical_disk", "constant", id="vertical_disk"),
    pytest.param("rolling_ball", "constant", id="rolling_ball-constant"),
    pytest.param("rolling_ball", "linear", id="rolling_ball-linear"),
]


class TestRhsReads:
    """One hamilton_rhs call takes dH once and reads the anchor and C once
    per state, or neither over constant data, whose operands the system
    binds once."""

    @pytest.mark.parametrize("system,omega,reads", [
        pytest.param("cylinder_friction", "constant", 0, id="cylinder_friction"),
        pytest.param("vertical_disk", "constant", 1, id="vertical_disk"),
        # the affine kernel's RK4 stage: a new point, built by the pointwise reads
        pytest.param("rolling_ball", "constant", 1, id="rolling_ball-constant"),
        pytest.param("rolling_ball", "linear", 1, id="rolling_ball-linear"),
    ])
    def test_one_read_of_each_object(self, system, omega, reads, monkeypatch):
        gs = instantiate(system, omega=omega)
        sys_ = gs.system
        x = start_state(gs)
        counts, rate = count_reads(monkeypatch, sys_, lambda: hamilton_rhs(sys_, 0.0, x))
        assert counts == {"anchor_at": reads, "structure_at": reads, "grad H": 1}
        assert np.array_equal(rate, hamilton_rhs(sys_, 0.0, x))

    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS)
    def test_constant_system_integration_reads_neither(self, system, monkeypatch):
        gs = instantiate(system)
        x0 = start_state(gs)
        counts, curve = count_reads(monkeypatch, gs.system, lambda: integrate_hamilton(gs.system, x0, 0.0, 1.0, 1e-2))
        assert len(curve.points) == 101
        assert counts == {"anchor_at": 0, "structure_at": 0, "grad H": 400}

    @pytest.mark.parametrize("system,omega", KERNEL_CASES)
    def test_kernel_system_reads_each_object_once_per_stage(self, system, omega, monkeypatch):
        gs = instantiate(system, omega=omega)
        x0 = start_state(gs)
        counts, _ = count_reads(monkeypatch, gs.system, lambda: integrate_hamilton(gs.system, x0, 0.0, 0.05, 1e-2))
        assert counts == {"anchor_at": 20, "structure_at": 20, "grad H": 20}

    def test_wrong_length_state_raises(self, cylinder):
        sys_ = cylinder.system
        n = sys_.chart.dim + sys_.n_momenta
        for bad in (np.zeros(n - 1), np.zeros(n + 1)):
            with pytest.raises(ValueError, match="state length does not match the system"):
                hamilton_rhs(sys_, 0.0, bad)


class TestReadsPerPoint:
    """On a force extension of a plain-callable base, every path reads a
    point's anchor and C once, through one joint read, and gives the bits of
    the same system over constant data."""

    CASES = {  # path -> (anchor reads, C reads, gradients of H)
        "hj_residual_dual": (1, 1, 1),
        "hj_forced_residual": (1, 1, 1),
        "hamilton_rhs": (1, 1, 1),
        "dissipation_rate": (1, 1, 1),
        "bracket": (1, 1, 0),
        "poisson_bracket_eval": (1, 1, 0),
        # the second anchor read is the pinned projected_field call's, with its own gradient of H
        "hj_residual": (2, 1, 2),
    }

    @staticmethod
    def run(name, gs, q, p):
        S, A = gs.system, gs.system.algebroid
        sigma, gamma = (ESection(components=lambda x, k=k: np.sin(k * x.sum()) + np.arange(A.rank)) for k in (1, 2))
        return {
            "hj_residual_dual": lambda: hj_residual_dual(S, gs.probe_sections["beta_probe"], q),
            "hj_forced_residual": lambda: hj_forced_residual(S, gs.extras["force"], gs.probe_sections["dS"], q),
            "hamilton_rhs": lambda: hamilton_rhs(S, 0.0, np.concatenate([q, p])),
            "dissipation_rate": lambda: dissipation_rate(S, np.concatenate([q, p])),
            "bracket": lambda: bracket(A, sigma, gamma)(q),
            "poisson_bracket_eval": lambda: poisson_bracket_eval(
                A, lambda x: x @ x, lambda x: np.sin(x).sum(), np.concatenate([q, [0.4], p])),
            "hj_residual": lambda: hj_residual(S, gs.probe_sections["dS"], q),
        }[name]

    @pytest.mark.parametrize("name", CASES)
    def test_one_joint_read(self, name, monkeypatch):
        with monkeypatch.context() as patch:
            callable_path(patch)
            plain = instantiate("three_body_drag")
        q, p = np.array([0.9, 0.7]), np.array([0.3, -0.2])
        counts, value = count_reads(monkeypatch, plain.system, self.run(name, plain, q, p))
        assert tuple(counts.values()) == self.CASES[name]
        assert np.asarray(value).tobytes() == np.asarray(self.run(name, instantiate("three_body_drag"), q, p)()).tobytes()


class TestBoundOperands:
    """A system over constant data binds rho_0, rho_V, rho_V^T and C_V once;
    every consumer gives the bits of the same system read point by point."""

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS)
    def test_consumers_are_the_callable_path_bits(self, system, seed, monkeypatch):
        gs = instantiate(system)
        with monkeypatch.context() as patch:
            callable_path(patch)
            plain = instantiate(system)
        assert gs.system._bound is not None and plain.system._bound is None
        Q = sample_box(gs.default_box, 64, seed)
        P = np.random.default_rng(seed).uniform(-1.0, 1.0, (64, gs.system.n_momenta))

        def values(g):
            S, alpha = g.system, probe_section(g)
            return [np.concatenate([hamilton_rhs(S, 0.0, np.concatenate([q, p])),
                                    [dissipation_rate(S, np.concatenate([q, p]))],
                                    projected_field(S, alpha, q), hj_residual(S, alpha, q)]).tobytes()
                    for q, p in zip(Q, P)]

        assert values(gs) == values(plain)

    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS)
    def test_bound_operands_are_read_only_views(self, system):
        S = instantiate(system).system
        q = np.zeros(S.chart.dim)
        rho, C = S.algebroid.anchor_at(q), S.algebroid.structure_at(q)
        for view, base in zip(S._bound, (rho, rho, rho, C)):
            assert np.shares_memory(view, base)
            assert not view.flags.writeable


class TestHamiltonRhs:
    def test_matches_bracket_form(self, ball):
        # each coordinate rate equals its bracket with the affine function
        sys_ = ball.system
        A = sys_.algebroid
        m, n = A.chart.dim, A.rank

        def F_h(x):
            return float(x[m]) + sys_.h_value(x[:m], x[m + 1:])

        worst = 0.0
        for x in seeded_points(m + n - 1, n=32, seed=6):
            q, p = x[:m], x[m:]
            rate = hamilton_rhs(sys_, 0.0, x)
            full = np.concatenate([q, [-sys_.h_value(q, p)], p])
            for i in range(m):
                got = poisson_bracket_eval(A, lambda y, i=i: float(y[i]), F_h, full)
                worst = max(worst, abs(got - rate[i]))
            for a in range(n - 1):
                got = poisson_bracket_eval(A, lambda y, a=a: float(y[m + 1 + a]), F_h, full)
                worst = max(worst, abs(got - rate[m + a]))
        assert worst < 1e-7

    def test_cylinder_equations(self, cylinder):
        # dx = px/m, dtheta = ptheta/(m r^2), dpx = -mg - K1 px, dptheta = -K2 ptheta
        p = cylinder.params
        sys_ = cylinder.system
        state = np.array([-0.8, 0.5, 0.3, -0.6])
        rate = hamilton_rhs(sys_, 0.0, state)
        m, r, g, K1, K2 = p["m"], p["r"], p["g"], p["K1"], p["K2"]
        expect = np.array(
            [
                state[2] / m,
                state[3] / (m * r * r),
                -m * g - K1 * state[2],
                -K2 * state[3],
            ]
        )
        assert np.max(np.abs(rate - expect)) < 1e-9

    def test_unforced_flat_extension(self):
        # force extension with F = 0 over the tangent bundle: free motion
        base = lie_tangent(2)
        A = force_extension(base, None)
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[2:] @ x[2:]),
            grad=lambda x: np.concatenate([np.zeros(2), x[2:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        state = np.array([0.3, -0.2, 0.5, 0.7])
        rate = hamilton_rhs(sys_, 0.0, state)
        assert np.allclose(rate, [0.5, 0.7, 0.0, 0.0], atol=1e-12)

    def test_disk_general_linear_force(self, disk):
        # momentum equations carry minus the force matrix
        D = disk.extras["constraint_algebroid"]
        Fmat = np.array([[0.3, -0.7], [0.2, 0.5]])
        A = force_extension(D, Homomorphism.constant(Fmat))
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[4:] @ x[4:]),
            grad=lambda x: np.concatenate([np.zeros(4), x[4:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        state = np.array([0.1, 0.2, 0.3, 0.4, 0.6, -0.9])
        rate = hamilton_rhs(sys_, 0.0, state)
        p = state[4:]
        s = math.sqrt(2.0)
        expect_q = np.array(
            [p[0] * math.cos(0.4) / s, p[0] * math.sin(0.4) / s, p[0] / s, p[1]]
        )
        expect_p = -Fmat @ p
        assert np.max(np.abs(rate[:4] - expect_q)) < 1e-9
        assert np.max(np.abs(rate[4:] - expect_p)) < 1e-9

    def test_ball_equations(self, ball):
        # momentum rates rotate with angular factor r^2 Omega/(k^2+r^2)
        state = np.array([0.4, 0.6, -0.2, 0.3, -0.5, 0.8])
        rate = hamilton_rhs(ball.system, 0.0, state)
        N = ball.extras["frame_norm"]
        q, p = state[:3], state[3:]
        w = 0.5  # r^2 Omega / (k^2 + r^2) at unit parameters
        expect = np.array(
            [
                1.0,
                -q[2] + p[1] / N,
                q[1] - p[0] / N,
                -w * p[1],
                w * p[0],
                0.0,
            ]
        )
        assert np.max(np.abs(rate - expect)) < 1e-9


class TestIntegration:
    def test_free_momenta_constant(self):
        sys_ = free_system(2)
        c = integrate_hamilton(sys_, np.array([0.0, 0.0, 0.3, -0.4]), 0.0, 1.0, 1e-2)
        assert np.all(c.points[:, 2:] == np.array([0.3, -0.4]))

    def test_disk_matches_closed_forms_short(self, disk):
        sys_ = disk.system
        q0 = np.array(disk.default_q0)
        alpha = disk.reference_sections["reference"]
        c = integrate_hamilton(sys_, np.concatenate([q0, alpha(q0)]), 0.0, 1.0, 1e-3)
        for name, idx in (("x", 0), ("y", 1), ("theta", 2), ("phi", 3)):
            expect = disk.reference_solutions[name](1.0)
            assert abs(c.points[-1, idx] - expect) < 1e-6

    def test_energy_rate_matches_dissipation(self, cylinder):
        # five-point numerical derivative of H along the flow
        sys_ = cylinder.system
        dt = 1e-3
        c = integrate_hamilton(sys_, np.array([-0.8, 0.5, 0.3, -0.6]), 0.0, 0.2, dt)
        H_t = np.array([sys_.H(x) for x in c.points])
        worst = 0.0
        for i in range(2, len(c) - 2, 5):
            dH = (H_t[i - 2] - 8 * H_t[i - 1] + 8 * H_t[i + 1] - H_t[i + 2]) / (12 * dt)
            worst = max(worst, abs(dH - dissipation_rate(sys_, c.points[i])))
        assert worst < 10 * dt**4 + 1e-7


class TestDissipation:
    def test_conservative_zero(self):
        sys_ = free_system(2)
        assert dissipation_rate(sys_, np.array([0.1, 0.2, 0.3, 0.4])) == 0.0

    def test_disk_spin_torque(self, disk):
        p = disk.params
        state = np.array([0.1, 0.2, 0.3, 0.7, 0.5, -0.8])
        got = dissipation_rate(disk.system, state)
        expect = -(p["K"] * math.cos(0.7) / p["J"]) * state[5] ** 2
        assert abs(got - expect) < 1e-9

    def test_scalar_drag_loses_momentum_squared(self):
        # F = c Id on the tangent bundle: rate is -c |p|^2
        c = 0.7
        A = force_extension(lie_tangent(2), Homomorphism.scalar(c, 2))
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[2:] @ x[2:]),
            grad=lambda x: np.concatenate([np.zeros(2), x[2:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        state = np.array([0.1, -0.2, 0.6, 0.9])
        got = dissipation_rate(sys_, state)
        assert abs(got - (-c * (0.6**2 + 0.9**2))) < 1e-12


class TestProjectedField:
    def test_zero_section_gives_drift(self, ball):
        zero = _zero_dual(3)
        q = np.array([0.2, 0.5, -0.3])
        v = projected_field(ball.system, zero, q)
        assert np.allclose(v, [1.0, 0.3, 0.5], atol=1e-12)  # (1, -Om q2, Om q1)

    def test_ball_reference_field(self, ball):
        alpha = ball.reference_sections["reference"]
        phi12 = ball.reference_solutions["phi12"]
        for q in seeded_points(3, n=8, seed=8):
            v = projected_field(ball.system, alpha, q)
            p1, p2 = phi12(q[0])
            expect = np.array([1.0, 0.5 * p1 - q[2], 0.5 * p2 + q[1]])
            assert np.max(np.abs(v - expect)) < 1e-10

    def test_disk_reference_field(self, disk):
        p = disk.params
        alpha = disk.reference_sections["reference"]
        q = np.array([0.1, 0.2, 0.3, 0.9])
        v = projected_field(disk.system, alpha, q)
        s = math.sqrt(p["I"] + p["m"] * p["R"] ** 2)
        k, K, J = p["k"], p["K"], p["J"]
        expect = np.array(
            [
                p["R"] * k * math.cos(0.9) / s,
                p["R"] * k * math.sin(0.9) / s,
                k / s,
                -(K / J) * math.sin(0.9),
            ]
        )
        assert np.max(np.abs(v - expect)) < 1e-10


def _zero_dual(n_momenta):
    from algebroid_mech import DualSection

    z = np.zeros(n_momenta)
    return DualSection(components=lambda q: z, space="V*")


class TestBallConstraints:
    def test_original_equations_preserve_constraints(self, ball):
        from algebroid_mech import integrate_rk4

        rhs = ball.extras["original_rhs"]
        psi = ball.extras["constraints"]
        # start on the constraint set: pi1 balances the table drift
        u0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(psi(u0))) < 1e-14
        c = integrate_rk4(rhs, u0, 0.0, 10.0, 1e-3)
        worst = max(float(np.max(np.abs(psi(u)))) for u in c.points[::100])
        assert worst < 1e-8

    def test_reduced_curve_maps_onto_constraint_set(self, ball):
        sys_ = ball.system
        alpha = ball.reference_sections["reference"]
        q0 = np.array(ball.default_q0)
        c = integrate_hamilton(sys_, np.concatenate([q0, alpha(q0)]), 0.0, 2.0, 1e-2)
        to_orig = ball.extras["to_original"]
        psi = ball.extras["constraints"]
        for state in c.points[::20]:
            u = to_orig(state[:3], state[3:])
            assert np.max(np.abs(psi(u))) < 1e-12

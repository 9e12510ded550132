import math

import numpy as np
import pytest

from algebroid_mech import (
    DomainError,
    gallery_index,
    hj_grid_check,
    instantiate,
    integrate_hamilton,
    integrate_rk4,
    lambert_w,
    projected_field,
    reference_solution,
    verify_lift,
)
from algebroid_mech.gallery import GALLERY_IDS


class TestInstantiate:
    def test_all_ids_build(self):
        for system_id in GALLERY_IDS:
            gs = instantiate(system_id)
            assert gs.id == system_id
            assert gs.system.algebroid.adapted

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            instantiate("spinning_top")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            instantiate("vertical_disk", {"m": -1.0})
        with pytest.raises(ValueError):
            instantiate("vertical_disk", {"mass": 2.0})
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="parameter K must be finite"):
                instantiate("vertical_disk", {"K": value})

    def test_omega_mode_validation(self):
        with pytest.raises(ValueError):
            instantiate("rolling_ball", omega="quadratic")
        for system_id in GALLERY_IDS:
            if system_id != "rolling_ball":
                with pytest.raises(ValueError, match="applies only to rolling_ball"):
                    instantiate(system_id, omega="linear")

    def test_unknown_section(self, disk):
        with pytest.raises(ValueError):
            disk.section("nope")


class TestReferenceSections:
    def test_all_references_solve_hj_on_their_box(self):
        for system_id in GALLERY_IDS:
            gs = instantiate(system_id)
            for name, section in gs.reference_sections.items():
                rep = hj_grid_check(gs.system, section, gs.default_box, resolution=3, tol=1e-9)
                assert rep.passed, (system_id, name, rep.max_norm)

    def test_all_references_lift(self):
        for system_id in GALLERY_IDS:
            gs = instantiate(system_id)
            for name, section in gs.reference_sections.items():
                rep = verify_lift(
                    gs.system,
                    section,
                    np.array(gs.default_q0),
                    gs.horizon[0],
                    min(gs.horizon[1], 2.0),
                    1e-2,
                    tol=1e-6,
                )
                assert rep.passed, (system_id, name, rep.max_deviation)


class TestDisk:
    def test_spin_rate_at_zero_angle(self, disk):
        # dp2/dt = -(lambda(phi)/J) p2 with lambda(0) = K
        state = np.array([0.0, 0.0, 0.0, 0.0, 0.7, 0.4])
        from algebroid_mech import hamilton_rhs

        rate = hamilton_rhs(disk.system, 0.0, state)
        assert abs(rate[5] - (-(disk.params["K"] / disk.params["J"]) * 0.4)) < 1e-12

    def test_initial_orientation(self, disk):
        # phi(0) = 2 atan(e^{phi0}) with phi0 = 0
        assert abs(disk.reference_solutions["phi"](0.0) - math.pi / 2.0) < 1e-15
        assert disk.default_q0[3] == disk.reference_solutions["phi"](0.0)

    def test_dissipation_closed_form(self, disk):
        for t in (0.0, 0.7, 2.3):
            phi = disk.reference_solutions["phi"](t)
            p2 = disk.reference_solutions["p2"](t)
            expect = -(math.cos(phi)) * p2 * p2  # K = J = 1
            assert abs(disk.reference_solutions["dissipation"](t) - expect) < 1e-15

    def test_base_flow_matches_all_closed_forms(self, disk):
        sys_ = disk.system
        alpha = disk.reference_sections["reference"]
        c = integrate_rk4(
            lambda t, q: projected_field(sys_, alpha, q),
            np.array(disk.default_q0),
            0.0,
            3.0,
            1e-3,
        )
        for name, idx in (("x", 0), ("y", 1), ("theta", 2), ("phi", 3)):
            sol = disk.reference_solutions[name]
            for i in (len(c) // 2, len(c) - 1):
                assert abs(c.points[i, idx] - sol(c.times[i])) < 1e-6, name

    def test_unforced_closed_forms_match_the_simulated_curve(self):
        # K = 0 used to divide by zero in x and y at construction
        gs = instantiate("vertical_disk", {"K": 0.0})
        assert gs.default_q0 == (0.0, 0.0, 0.0, math.pi / 2.0)
        q0 = np.array(gs.default_q0)
        c = integrate_hamilton(gs.system, np.concatenate([q0, gs.section("reference")(q0)]), 0.0, 3.0, 1e-2)
        for name, idx in (("x", 0), ("y", 1), ("theta", 2), ("phi", 3), ("p2", 5)):
            sol = gs.reference_solutions[name]
            for i in (len(c) // 2, len(c) - 1):
                assert abs(c.points[i, idx] - sol(c.times[i])) < 1e-12, name
        assert abs(c.points[-1, 1] - 3.0 / math.sqrt(2.0)) < 1e-12  # y = R k t / s on a line


class TestBall:
    def test_still_table_has_no_period(self):
        # Omega0 = 0 used to divide by zero in the period at construction
        gs = instantiate("rolling_ball", {"Omega0": 0.0})
        assert "period" not in gs.reference_solutions
        alpha = gs.reference_sections["reference"]
        c = integrate_rk4(lambda t, q: projected_field(gs.system, alpha, q), np.array(gs.default_q0), 0.0, 2.0, 1e-2)
        step = c.points[1] - c.points[0]
        assert np.max(np.abs(np.diff(c.points, axis=0) - step)) < 1e-12  # the base orbit is a line

    def test_alpha_closed_forms_match_hamilton_flow(self, ball):
        q0 = np.array(ball.default_q0)
        alpha = ball.reference_sections["reference"]
        c = integrate_hamilton(ball.system, np.concatenate([q0, alpha(q0)]), 0.0, 3.0, 2e-3)
        for i in (len(c) // 2, len(c) - 1):
            expect = ball.reference_solutions["alpha34"](c.times[i])
            assert np.max(np.abs(c.points[i, 3:5] - expect)) < 1e-8

    def test_linear_omega_phase(self, ball_linear):
        gs = ball_linear
        q0 = np.array(gs.default_q0)
        alpha = gs.reference_sections["reference"]
        c = integrate_hamilton(gs.system, np.concatenate([q0, alpha(q0)]), 0.0, 2.0, 2e-3)
        t = c.times[-1]
        phase = t * t / 4.0  # r^2 Omega0 t^2 / (2 (k^2+r^2)) at unit parameters
        expect = np.array([-math.sin(phase), math.cos(phase)]) / math.sqrt(2.0)
        assert np.max(np.abs(c.points[-1, 3:5] - expect)) < 1e-8

    def test_base_orbit_periodic(self, ball):
        period = ball.reference_solutions["period"](0.0)
        assert abs(period - 4.0 * math.pi) < 1e-12
        sys_ = ball.system
        alpha = ball.reference_sections["reference"]
        c = integrate_rk4(
            lambda t, q: projected_field(sys_, alpha, q),
            np.array(ball.default_q0),
            0.0,
            period,
            5e-3,
        )
        assert np.max(np.abs(c.points[-1, 1:] - c.points[0, 1:])) < 1e-4


class TestCylinder:
    def test_lambert_branch_residual(self, cylinder):
        sols = cylinder.reference_solutions
        xmax = cylinder.extras["x_max"]
        xs = np.linspace(xmax - 2.0, xmax - 0.1, 100)
        worst = max(
            abs(sols["S1p"](x) + 1.0 + sols["S1p"](x) * sols["S1pp"](x)) for x in xs
        )
        assert worst < 1e-7

    def test_antiderivative_consistent_with_derivative(self, cylinder):
        sols = cylinder.reference_solutions
        x = cylinder.extras["x_max"] - 0.8
        h = 1e-6
        fd = (sols["S1"](x + h) - sols["S1"](x - h)) / (2 * h)
        assert abs(fd - sols["S1p"](x)) < 1e-8

    def test_frictionless_branches(self):
        for branch in (1.0, -1.0):
            gs = instantiate("cylinder_friction", {"K1": 0.0, "C2": 2.0, "branch": branch})
            sols = gs.reference_solutions
            xs = np.linspace(gs.extras["x_max"] - 2.0, gs.extras["x_max"] - 0.1, 100)
            worst = max(abs(1.0 + sols["S1p"](x) * sols["S1pp"](x)) for x in xs)
            assert worst < 1e-7

    def test_theta_equation_is_identity(self, cylinder):
        sols = cylinder.reference_solutions
        for th in np.linspace(-3.0, 3.0, 25):
            resid = sols["S2p"](th) + sols["S2p"](th) * sols["S2pp"](th)
            assert abs(resid) < 1e-12

    def test_domain_enforced(self, cylinder):
        with pytest.raises(DomainError):
            cylinder.reference_solutions["S1p"](cylinder.extras["x_max"] + 1.0)

    def test_reference_solution_lookup(self, cylinder):
        with pytest.raises(ValueError):
            reference_solution(cylinder, "S9", 0.0)
        assert reference_solution(cylinder, "S2", 0.0) == cylinder.params["C1"]


class TestDiskForcePotential:
    def test_force_pullback_of_reference_is_exact_on_constraints(self, disk):
        # F* applied to the reference section is the differential of
        # f(phi) = -(K^2/2J) sin^2(phi) on the constraint algebroid, which
        # is why H o alpha + f is constant for this torque
        from algebroid_mech import ScalarField, d_function

        p = disk.params
        K, J, sJ = p["K"], p["J"], math.sqrt(p["J"])
        D = disk.extras["constraint_algebroid"]
        f = ScalarField(
            eval=lambda q: -(K * K / (2 * J)) * math.sin(q[3]) ** 2,
            grad=lambda q: np.array(
                [0.0, 0.0, 0.0, -(K * K / J) * math.sin(q[3]) * math.cos(q[3])]
            ),
        )
        df = d_function(D, f)
        alpha = disk.reference_sections["reference"]
        F = disk.extras["force"]
        for q in np.linspace(-2.0, 2.0, 9):
            qq = np.array([0.1, 0.2, 0.3, q])
            # (F* alpha)_a = alpha(F(e_a))
            pullback = np.array([float(alpha(qq) @ F.at(qq)[a, :]) for a in range(2)])
            assert np.max(np.abs(pullback - df(qq))) < 1e-9

    def test_energy_minus_force_potential_constant(self, disk):
        sys_ = disk.system
        alpha = disk.reference_sections["reference"]
        K, J = disk.params["K"], disk.params["J"]
        vals = []
        for phi in np.linspace(-2.0, 2.0, 9):
            q = np.array([0.0, 0.0, 0.0, phi])
            vals.append(
                sys_.h_value(q, alpha(q)) - (K * K / (2 * J)) * math.sin(phi) ** 2
            )
        assert max(vals) - min(vals) < 1e-12


class TestThreeBody:
    def test_hj_components_match_displayed_equations(self, three_body):
        # residual components written out in rotating-frame coordinates:
        #   dU/dx - a2 + (a1+y) da1/dx + (a2-x) da1/dy + k a1
        #   dU/dy + a1 + (a1+y) da2/dx + (a2-x) da2/dy + k a2
        from algebroid_mech import hj_residual
        from algebroid_mech.calculus import fd_gradient

        gs = three_body
        k = gs.params["k"]
        mu1, mu2 = gs.params["mu1"], gs.params["mu2"]
        dS = gs.probe_sections["dS"]

        def U(q):
            x, y = q
            return mu1 / math.sqrt((x + mu2) ** 2 + y * y) + mu2 / math.sqrt(
                (x - mu1) ** 2 + y * y
            )

        for q in (np.array([0.9, 1.1]), np.array([0.5, 0.8])):
            a = dS(q)
            J = dS.jacobian(q)
            gU = fd_gradient(U, q)
            expect = np.array(
                [
                    gU[0] - a[1] + (a[0] + q[1]) * J[0, 0] + (a[1] - q[0]) * J[0, 1] + k * a[0],
                    gU[1] + a[0] + (a[0] + q[1]) * J[1, 0] + (a[1] - q[0]) * J[1, 1] + k * a[1],
                ]
            )
            got = hj_residual(gs.system, dS, q)
            assert np.max(np.abs(got - expect)) < 1e-8

    def test_drag_enters_momentum_equations(self, three_body):
        from algebroid_mech import hamilton_rhs

        k = three_body.params["k"]
        state = np.array([0.9, 1.1, 0.4, -0.3])
        rate = hamilton_rhs(three_body.system, 0.0, state)
        sys_ = three_body.system
        # oracle: classic rotating-frame equations with drag terms added
        x, y, px, py = state
        assert abs(rate[0] - (px + y)) < 1e-12
        assert abs(rate[1] - (py - x)) < 1e-12
        dHq, dHp = sys_.h_partials(state[:2], state[2:])
        expect_p = -dHq - k * state[2:]
        assert np.max(np.abs(rate[2:] - expect_p)) < 1e-9

    def test_no_exact_reference_registered(self, three_body):
        assert three_body.reference_sections == {}
        assert set(three_body.probe_sections) == {"beta_probe", "dS"}


class TestTimeDependent:
    def test_time_dependent_potential_dynamics(self, time_dependent):
        # with time as a chart coordinate anchored to the cocycle slot, a
        # potential sin(t) q gives tdot = 1, qdot = p, pdot = -sin(t), and
        # the hamiltonian drifts at its explicit time derivative q cos(t)
        from algebroid_mech import (
            HamiltonianSystem,
            ScalarField,
            dissipation_rate,
            hamilton_rhs,
        )

        A = time_dependent.system.algebroid
        H = ScalarField(
            eval=lambda s: 0.5 * s[2] ** 2 + math.sin(s[0]) * s[1],
            grad=lambda s: np.array([math.cos(s[0]) * s[1], math.sin(s[0]), s[2]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        state = np.array([0.7, -0.4, 0.9])
        rate = hamilton_rhs(sys_, 0.0, state)
        assert np.allclose(rate, [1.0, 0.9, -math.sin(0.7)], atol=1e-12)
        assert abs(dissipation_rate(sys_, state) - (-0.4) * math.cos(0.7)) < 1e-12

    def test_generating_function_identity(self, time_dependent):
        W = time_dependent.extras["W"]
        # dW/dt + (dW/dq)^2/2 = 0 exactly for W = q^2/(2t)
        for t, q in ((0.5, 1.0), (2.0, -1.3)):
            h = 1e-6
            dWdt = (W(t + h, q) - W(t - h, q)) / (2 * h)
            dWdq = (W(t, q + h) - W(t, q - h)) / (2 * h)
            assert abs(dWdt + 0.5 * dWdq**2) < 1e-9

    def test_domain_guard(self, time_dependent):
        alpha = time_dependent.reference_sections["reference"]
        with pytest.raises(DomainError):
            alpha(np.array([-1.0, 0.5]))


class TestLambertW:
    def test_defining_identities(self):
        assert lambert_w(0.0) == 0.0
        assert abs(lambert_w(math.e) - 1.0) < 1e-12
        assert abs(lambert_w(-1.0 / math.e) + 1.0) < 1e-6

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for w in rng.uniform(-0.99, 4.0, size=200):
            z = w * math.exp(w)
            assert abs(lambert_w(z) - w) < 1e-10 * (1 + abs(w))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w(-1.0)


class TestAnalyticDerivatives:
    """Hand-coded gradients and jacobians must agree with finite differences."""

    def _phase_points(self, gs, n=12):
        rng = np.random.default_rng(77)
        lo = np.array([b[0] for b in gs.default_box])
        hi = np.array([b[1] for b in gs.default_box])
        qs = lo + (hi - lo) * rng.random((n, len(lo)))
        ps = -1.0 + 2.0 * rng.random((n, gs.system.n_momenta))
        return qs, ps

    def test_hamiltonian_gradients(self):
        from algebroid_mech.calculus import check_gradient

        for system_id in GALLERY_IDS:
            gs = instantiate(system_id)
            qs, ps = self._phase_points(gs)
            pts = [np.concatenate([q, p]) for q, p in zip(qs, ps)]
            assert check_gradient(gs.system.H, pts, tol=1e-5) < 1e-5, system_id

    def test_section_jacobians(self):
        from algebroid_mech.calculus import fd_jacobian

        for system_id in GALLERY_IDS:
            gs = instantiate(system_id)
            qs, _ = self._phase_points(gs)
            sections = {**gs.reference_sections, **gs.probe_sections}
            for name, section in sections.items():
                if section.jacobian is None:
                    continue
                for q in qs:
                    fd = fd_jacobian(section.components, q)
                    assert np.max(np.abs(fd - section.jacobian(q))) < 1e-5, (system_id, name)

    def test_linear_omega_section_jacobian(self):
        from algebroid_mech.calculus import fd_jacobian

        gs = instantiate("rolling_ball", omega="linear")
        section = gs.reference_sections["reference"]
        for t in (0.3, 1.7, 4.1):
            q = np.array([t, 0.5, -0.5])
            fd = fd_jacobian(section.components, q)
            assert np.max(np.abs(fd - section.jacobian(q))) < 1e-6


class TestIndex:
    def test_index_lists_everything(self):
        idx = gallery_index()
        assert sorted(e["id"] for e in idx) == sorted(GALLERY_IDS)
        for entry in idx:
            assert {"id", "params", "references", "domains"} <= set(entry)

    def test_index_deterministic(self):
        assert gallery_index() == gallery_index()

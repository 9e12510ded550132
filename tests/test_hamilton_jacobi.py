import itertools
import re
import threading

import numpy as np
import pytest

from algebroid_mech import (
    Chart,
    Curve,
    DomainError,
    DualSection,
    ESection,
    MetricField,
    NumericFailure,
    ScalarField,
    autoparallel_residual,
    christoffel_at,
    force_extension,
    hj_forced_residual,
    hj_grid_check,
    hj_residual,
    hj_residual_dual,
    integrate_rk4,
    tangent_algebroid,
    verify_lift,
    zeta_eval,
)
from algebroid_mech import algebroid
from algebroid_mech.algebroid import sample_box
from algebroid_mech.hamilton import HamiltonianSystem
from algebroid_mech.hamilton_jacobi import LiftReport, grid_points

from conftest import lie_tangent, offset_section, seeded_points


class TestZeta:
    def test_momentum_independent_hamiltonian(self, cylinder):
        sys_ = cylinder.system
        flat = HamiltonianSystem(
            algebroid=sys_.algebroid,
            H=ScalarField(eval=lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0, 0, 0])),
        )
        zero = DualSection(components=lambda q: np.zeros(2), space="V*")
        z = zeta_eval(flat, zero, np.array([0.2, 0.1]))
        assert np.all(z == np.array([1.0, 0.0, 0.0]))

    def test_kinetic_hamiltonian_returns_section_values(self, cylinder):
        # with H = |p|^2/(2m...) the momentum slots are the section itself
        # only for the euclidean metric; use the three-body flat part instead
        pass

    def test_first_component_exactly_one(self, ball):
        alpha = ball.reference_sections["reference"]
        for q in seeded_points(3, n=16, seed=12):
            assert zeta_eval(ball.system, alpha, q)[0] == 1.0

    def test_ball_reference_zeta(self, ball):
        alpha = ball.reference_sections["reference"]
        q = np.array([0.7, 0.3, -0.2])
        z = zeta_eval(ball.system, alpha, q)
        assert np.allclose(z[1:], alpha(q), atol=1e-12)  # dH/dp = p for kinetic H


class TestResidual:
    def test_linear_generating_function_on_cotangent(self):
        # classical flat case: alpha = dS with linear S solves HJ exactly
        A = force_extension(lie_tangent(2), None)
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[2:] @ x[2:]),
            grad=lambda x: np.concatenate([np.zeros(2), x[2:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        alpha = DualSection(components=lambda q: np.array([0.4, -0.7]), space="V*")
        for q in seeded_points(2, n=16, seed=13):
            assert np.max(np.abs(hj_residual(sys_, alpha, q))) < 1e-12

    def test_gallery_reference_sections_have_zero_residual(
        self, ball, disk, cylinder, time_dependent, riemannian
    ):
        for gs in (ball, disk, cylinder, time_dependent, riemannian):
            alpha = gs.reference_sections["reference"]
            report = hj_grid_check(gs.system, alpha, gs.default_box, resolution=3, tol=1e-9)
            assert report.passed, (gs.id, report.max_norm)

    def test_rejects_full_dual_sections(self, three_body):
        beta = three_body.probe_sections["beta_probe"]
        with pytest.raises(ValueError):
            hj_residual(three_body.system, beta, np.array([1.0, 1.0]))

    def test_the_grid_rejects_a_full_dual_section_before_its_sweep(self, three_body):
        # in the sweep, the pointwise rerun would turn the residual's ValueError into a NumericFailure
        beta = three_body.probe_sections["beta_probe"]
        with pytest.raises(ValueError, match=r"^hj_residual expects a reduced-dual section \(space 'V\*'\)$"):
            hj_grid_check(three_body.system, beta, three_body.default_box, resolution=3)


def _ball_hamiltonian_section(ball, with_jacobian):
    """beta = (-H o alpha, alpha) for the ball's reference alpha; its
    jacobian, when carried, is (-(dH/dq + J_alpha^T dH/dp), J_alpha)."""
    sys_ = ball.system
    alpha = ball.reference_sections["reference"]

    def beta_comps(q):
        a = alpha(q)
        return np.concatenate([[-sys_.h_value(q, a)], a])

    def beta_jac(q):
        a, J = alpha(q), alpha.jac(q)
        dHq, dHp = sys_.h_partials(q, a)
        return np.vstack([-(dHq + J.T @ dHp), J])

    return DualSection(components=beta_comps, space="E*", jacobian=beta_jac if with_jacobian else None)


def _box_points(gs, n, seed):
    """n seeded points of the system's default box."""
    lo = np.array([b[0] for b in gs.default_box])
    hi = np.array([b[1] for b in gs.default_box])
    return lo + (hi - lo) * (seeded_points(gs.system.chart.dim, n=n, seed=seed) + 1.0) / 2.0


class TestResidualDual:
    def test_agrees_with_reduced_path_on_ball(self, ball):
        # compose the reference with the hamiltonian section and compare; with
        # the analytic jacobian nothing is differenced, so the paths agree to roundoff
        sys_ = ball.system
        alpha = ball.reference_sections["reference"]
        for with_jacobian, bound in ((True, 1e-14), (False, 1e-9)):
            beta = _ball_hamiltonian_section(ball, with_jacobian)
            worst = 0.0
            for q in _box_points(ball, n=128, seed=14):
                dual = hj_residual_dual(sys_, beta, q)
                red = hj_residual(sys_, alpha, q)
                worst = max(worst, float(np.max(np.abs(dual - red))))
            assert worst < bound, with_jacobian

    def test_section_evaluations_per_point(self, ball):
        # beta(q) once plus one 2m-point Jacobian stencil; zeta is never differenced
        inner = _ball_hamiltonian_section(ball, with_jacobian=False)
        calls = []
        beta = DualSection(components=lambda q: calls.append(1) or inner(q), space="E*")
        hj_residual_dual(ball.system, beta, np.array([0.7, 0.3, -0.2]))
        assert len(calls) == 2 * ball.system.chart.dim + 1

    def test_constant_affine_value_cocycle(self):
        # beta = (c0, dS) with linear S: a cocycle with constant F o beta
        A = force_extension(lie_tangent(2), None)
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[2:] @ x[2:]),
            grad=lambda x: np.concatenate([np.zeros(2), x[2:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        beta = DualSection(components=lambda q: np.array([2.5, 0.4, -0.7]), space="E*")
        for q in seeded_points(2, n=16, seed=15):
            assert np.max(np.abs(hj_residual_dual(sys_, beta, q))) < 1e-9

    def test_rejects_reduced_dual_sections(self, ball):
        with pytest.raises(ValueError, match="hj_residual_dual expects a full-dual section"):
            hj_residual_dual(ball.system, ball.reference_sections["reference"], np.array([0.7, 0.3, -0.2]))

    def test_three_body_suggestive_equation(self, three_body):
        # the residual is the plain gradient of kS + H o dS
        from algebroid_mech.calculus import fd_gradient

        beta = three_body.probe_sections["beta_probe"]
        invariant = three_body.extras["probe_invariant"]
        for q in seeded_points(2, n=32, seed=16) * 0.5 + 0.9:
            dual = hj_residual_dual(three_body.system, beta, q)
            grad = fd_gradient(invariant, q)
            assert np.max(np.abs(dual - grad)) < 1e-8


class TestForcedResidual:
    def test_classical_unforced(self):
        from algebroid_mech import Homomorphism

        A = force_extension(lie_tangent(2), None)
        H = ScalarField(
            eval=lambda x: 0.5 * float(x[2:] @ x[2:]),
            grad=lambda x: np.concatenate([np.zeros(2), x[2:]]),
        )
        sys_ = HamiltonianSystem(algebroid=A, H=H)
        alpha = DualSection(components=lambda q: np.array([0.4, -0.7]), space="V*")
        for q in seeded_points(2, n=8, seed=17):
            val = hj_forced_residual(sys_, Homomorphism.constant(np.zeros((2, 2))), alpha, q)
            assert np.max(np.abs(val)) < 1e-10

    def test_cylinder_reduces_to_separated_equations(self, cylinder):
        p = cylinder.params
        alpha = cylinder.reference_sections["reference"]
        F = cylinder.extras["force"]
        m, r, g, K1, K2 = p["m"], p["r"], p["g"], p["K1"], p["K2"]
        sols = cylinder.reference_solutions
        xmax = cylinder.extras["x_max"]
        for q in seeded_points(2, n=16, seed=18):
            q = np.array([xmax - 1.0 + 0.4 * q[0], q[1]])
            got = hj_forced_residual(cylinder.system, F, alpha, q)
            s1p, s1pp = sols["S1p"](q[0]), sols["S1pp"](q[0])
            s2p, s2pp = sols["S2p"](q[1]), sols["S2pp"](q[1])
            expect = np.array(
                [K1 * s1p + m * g + s1p * s1pp / m, K2 * s2p + s2p * s2pp / (m * r * r)]
            )
            assert np.max(np.abs(got - expect)) < 1e-7

    def test_agrees_with_extended_residual(self, cylinder, three_body, disk):
        # both paths read the sections' analytic jacobians, so they agree to roundoff
        for gs, section in (
            (cylinder, cylinder.reference_sections["reference"]),
            (three_body, three_body.probe_sections["dS"]),
            (disk, disk.reference_sections["reference"]),
        ):
            F = gs.extras["force"]
            for q in _box_points(gs, n=64, seed=19):
                forced = hj_forced_residual(gs.system, F, section, q)
                plain = hj_residual(gs.system, section, q)
                assert np.max(np.abs(forced - plain)) < 1e-14, gs.id

    def test_section_evaluations_per_point(self, cylinder):
        # alpha(q) once; its jacobian is analytic and zeta_H is never differenced
        inner = cylinder.reference_sections["reference"]
        assert inner.jacobian is not None
        calls = []
        alpha = DualSection(components=lambda q: calls.append(1) or inner(q), space="V*", jacobian=inner.jacobian)
        q = _box_points(cylinder, n=1, seed=20)[0]
        hj_forced_residual(cylinder.system, cylinder.extras["force"], alpha, q)
        assert len(calls) == 1


class TestVerifyLift:
    def test_ball_reference_short(self, ball):
        rep = verify_lift(
            ball.system,
            ball.reference_sections["reference"],
            np.array(ball.default_q0),
            0.0,
            2.0,
            1e-2,
        )
        assert rep.passed and rep.max_deviation < 1e-8

    def test_disk_reference_short(self, disk):
        rep = verify_lift(
            disk.system,
            disk.reference_sections["reference"],
            np.array(disk.default_q0),
            0.0,
            2.0,
            1e-2,
        )
        assert rep.passed and rep.max_deviation < 1e-8

    def test_non_finite_lift_raises(self):
        # H does not depend on p, so the base flow t' = 1 stays finite while
        # the section is NaN from t = 1.5 on; the Hamilton flow is finite too
        A = tangent_algebroid(Chart(dim=2, coord_names=("t", "x")), adapted=True)
        sys_ = HamiltonianSystem(
            algebroid=A, H=ScalarField(eval=lambda x: 0.0, grad=lambda x: np.zeros(3))
        )
        alpha = DualSection(
            components=lambda q: np.array([0.0 if q[0] < 1.5 else np.nan]), space="V*"
        )
        with pytest.raises(NumericFailure, match=r"lifted section non-finite at q=\[1\.5"):
            verify_lift(sys_, alpha, np.array([1.0, 0.0]), 0.0, 1.0, 0.1)

    def test_report_grids_align(self, disk):
        rep = verify_lift(
            disk.system,
            disk.reference_sections["reference"],
            np.array(disk.default_q0),
            0.0,
            0.5,
            1e-2,
        )
        assert np.array_equal(rep.lifted_curve.times, rep.hamilton_curve.times)
        d = rep.to_json_dict()
        assert set(d) == {"max_deviation", "tol", "pass", "times", "worst"}

    def test_tied_deviations_list_the_earliest_times(self):
        # 200 zero deviations, then 301 equal ones: the worst five are the first tied times
        times = np.linspace(0.0, 5.0, 501)
        points = np.zeros((501, 2))
        shifted = points.copy()
        shifted[200:] = 0.25
        rep = LiftReport(base_curve=Curve(times, points[:, :1]), lifted_curve=Curve(times, shifted),
                         hamilton_curve=Curve(times, points), max_deviation=0.25, tol=1e-6)
        assert rep.to_json_dict()["worst"] == [{"t": float(times[i]), "deviation": 0.25} for i in range(200, 205)]

    def test_perturbed_ball_section_diverges(self, ball):
        pert = offset_section(ball.reference_sections["reference"], [0.1, 0.0, 0.0])
        rep = verify_lift(ball.system, pert, np.array(ball.default_q0), 0.0, 1.0, 2e-3, tol=1e-6)
        assert rep.max_deviation >= 1e-3
        assert not rep.passed

    def test_ball_uniform_residual_implies_divergence(self, ball):
        # converse direction: grid residual uniformly >= 0.1 forces the
        # lifted curve off the hamiltonian flow within t <= 1
        pert = offset_section(ball.reference_sections["reference"], [0.25, 0.0, 0.0])
        report = hj_grid_check(ball.system, pert, ball.default_box, resolution=3, tol=1e-9)
        norms = [float(np.max(np.abs(r))) for _, r in report.residual_grid]
        assert min(norms) >= 0.1
        rep = verify_lift(ball.system, pert, np.array(ball.default_q0), 0.0, 1.0, 2e-3)
        assert rep.max_deviation >= 1e-3

    def test_disk_nonconstant_perturbation_diverges(self, disk):
        # constant offsets stay inside the solution family, so the
        # falsification perturbation must vary along the chart
        base = disk.reference_sections["reference"]
        pert = DualSection(
            components=lambda q: base.components(q) + np.array([0.5 * q[2], 0.0]),
            space="V*",
        )
        box = ((-0.5, 0.5), (-0.5, 0.5), (0.5, 1.5), (-1.0, 1.0))
        report = hj_grid_check(disk.system, pert, box, resolution=3, tol=1e-9)
        residual_norms = [float(np.max(np.abs(r))) for _, r in report.residual_grid]
        assert min(residual_norms) >= 0.1
        rep = verify_lift(disk.system, pert, np.array([0.0, 0.0, 1.0, 0.4]), 0.0, 1.0, 2e-3)
        assert rep.max_deviation >= 1e-3


class TestAutoparallel:
    def test_flat_constant_field(self):
        G = MetricField.constant(np.eye(2))
        X = ESection(components=lambda q: np.array([0.3, -0.8]))
        assert np.max(np.abs(autoparallel_residual(G, X, np.array([0.4, 0.2])))) < 1e-12

    def test_flat_linear_field(self):
        # X = (q1, 0): transport of X along itself is X itself
        G = MetricField.constant(np.eye(2))
        X = ESection(components=lambda q: np.array([q[0], 0.0]))
        q = np.array([0.7, -0.3])
        assert np.allclose(autoparallel_residual(G, X, q), [0.7, 0.0], atol=1e-9)

    def test_polar_straight_line_field(self, riemannian):
        G = riemannian.extras["metric"]
        X = riemannian.extras["field"]
        for q in seeded_points(2, n=16, seed=20) * np.array([0.5, 1.0]) + np.array([1.2, 0.0]):
            assert np.max(np.abs(autoparallel_residual(G, X, q))) < 1e-7

    def test_polar_field_integral_curves_are_straight(self, riemannian):
        # independent oracle: push the flow to cartesian coordinates and
        # check collinearity and constant speed
        X = riemannian.extras["field"]
        c = integrate_rk4(lambda t, q: X(q), np.array([1.0, 0.4]), 0.0, 1.0, 1e-3)
        xy = np.column_stack(
            [c.points[:, 0] * np.cos(c.points[:, 1]), c.points[:, 0] * np.sin(c.points[:, 1])]
        )
        d0 = xy[1] - xy[0]
        for i in (len(xy) // 2, len(xy) - 1):
            d = xy[i] - xy[0]
            cross = d0[0] * d[1] - d0[1] * d[0]
            assert abs(cross) < 1e-8
        steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        assert np.max(np.abs(steps - steps[0])) < 1e-9

    def test_metric_energy_constant_along_flow(self, riemannian):
        G = riemannian.extras["metric"]
        X = riemannian.extras["field"]
        c = integrate_rk4(lambda t, q: X(q), np.array([1.0, 0.4]), 0.0, 1.0, 1e-3)
        vals = [float(X(q) @ G.at(q) @ X(q)) for q in c.points[::100]]
        assert max(vals) - min(vals) < 1e-6

    def test_polar_christoffel_values(self, riemannian):
        G = riemannian.extras["metric"]
        q = np.array([1.3, 0.2])
        Gam = christoffel_at(G, q)
        assert abs(Gam[0, 1, 1] - (-1.3)) < 1e-8  # Gamma^r_{theta theta} = -r
        assert abs(Gam[1, 0, 1] - (1.0 / 1.3)) < 1e-8  # Gamma^theta_{r theta} = 1/r
        assert abs(Gam[1, 1, 0] - (1.0 / 1.3)) < 1e-8

    def test_nonpositive_metric_rejected(self):
        G = MetricField.constant(np.diag([1.0, -1.0]))
        X = ESection(components=lambda q: np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            autoparallel_residual(G, X, np.zeros(2))

    def test_degenerate_metric_names_point_as_list(self):
        # polar-like metric diag(1, q0^2) degenerates at q0 = 0
        G = MetricField(matrix=lambda q: np.diag([1.0, q[0] ** 2]))
        with pytest.raises(DomainError, match=re.escape("metric not positive-definite at q=[0.0, 0.1]")):
            christoffel_at(G, np.array([0.0, 0.1]))


class TestGrid:
    @pytest.mark.parametrize("box,resolution", [
        ([(-1.0, 1.0)] * 4, 11),
        ([(0.0, 2.0 * np.pi), (-2.0, 2.0), (-2.0, 2.0)], [4, 3, 5]),
        ([(0.1, 0.7), (-0.3, 1.9)], [7, 2]),
    ])
    def test_points_are_one_array_in_product_order(self, box, resolution):
        _, res, pts = grid_points(box, resolution)
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, res)]
        expect = list(itertools.product(*axes))
        assert pts.shape == (len(expect), len(box)) and pts.dtype == np.float64
        assert all(row.tobytes() == np.array(p).tobytes() for row, p in zip(pts, expect))

    def test_point_cap(self):
        with pytest.raises(ValueError):
            grid_points([(-1, 1)] * 4, [20, 20, 20, 20])

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_points([(-1, 1)], 1)
        with pytest.raises(ValueError):
            grid_points([(-1, 1), (-1, 1)], [3])

    @pytest.mark.parametrize("box,message", [
        ([(-1, 1), (float("nan"), 1)], "box bounds must be finite, got nan:1"),
        ([(-1, float("inf"))], "box bounds must be finite, got -1:inf"),
        ([(1, -1)], "box bounds must satisfy lo < hi, got 1:-1"),
        ([(0.5, 0.5)], "box bounds must satisfy lo < hi, got 0.5:0.5"),
        ([], "box must be non-empty"),
    ])
    def test_box_bounds_validated(self, box, message):
        # grid_points and sample_box share one validator
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_points(box, 3)
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_box(box, 4, 0)

    def test_nan_residual_at_a_later_point_raises(self, time_dependent):
        # Python's max() keeps a NaN only when it comes first; put it last
        alpha = time_dependent.reference_sections["reference"]
        box, _, pts = grid_points(time_dependent.default_box, 3)
        last = pts[-1]

        def jac(q):
            return np.full((1, 2), np.nan) if np.array_equal(q, last) else alpha.jac(q)

        broken = DualSection(components=alpha.components, space="V*", jacobian=jac)
        with pytest.raises(NumericFailure, match=r"HJ residual non-finite at q=\[3\.5, 2\.0\]"):
            hj_grid_check(time_dependent.system, broken, box, 3)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the residual of an inf jacobian
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_first_non_finite_grid_point_is_named(self, time_dependent, bad):
        # two non-finite points: the stacked peak is not finite, and the pointwise fold names the first
        alpha = time_dependent.reference_sections["reference"]
        box, _, pts = grid_points(time_dependent.default_box, 3)

        def jac(q):
            return np.full((1, 2), bad) if any(np.array_equal(q, pts[i]) for i in (4, 7)) else alpha.jac(q)

        broken = DualSection(components=alpha.components, space="V*", jacobian=jac)
        with pytest.raises(NumericFailure, match=re.escape(f"HJ residual non-finite at q={pts[4].tolist()}")):
            hj_grid_check(time_dependent.system, broken, box, 3)

    @pytest.mark.parametrize("system,resolution", [("time_dependent", 5), ("cylinder", 4), ("disk", 2)])
    def test_max_norm_is_the_pointwise_fold(self, system, resolution, request):
        gs = request.getfixturevalue(system)
        rep = hj_grid_check(gs.system, gs.reference_sections["reference"], gs.default_box, resolution)
        fold = max(float(np.max(np.abs(r), initial=0.0)) for _, r in rep.residual_grid)
        assert type(rep.max_norm) is float and rep.max_norm == fold and rep.max_norm > 0.0

    def test_sweep_runs_on_the_calling_thread_in_grid_order(self, time_dependent, monkeypatch):
        # the retired thread setting no longer does anything
        monkeypatch.setenv("ALGEBROID_MECH_THREADS", "4")
        inner = time_dependent.reference_sections["reference"]
        calls = []
        alpha = DualSection(components=lambda q: calls.append((threading.get_ident(), tuple(q))) or inner(q),
                            space="V*", jacobian=inner.jac)
        box, _, pts = grid_points(time_dependent.default_box, 3)
        hj_grid_check(time_dependent.system, alpha, box, 3)
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        visited = [q for i, (_, q) in enumerate(calls) if i == 0 or q != calls[i - 1][1]]
        assert visited == [tuple(q) for q in pts]

    def test_sweep_reads_each_chunks_c_before_its_points(self, disk, monkeypatch):
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 5)
        inner = disk.reference_sections["reference"]
        events = []  # ("C", points) or ("alpha", point), in call order
        alpha = DualSection(components=lambda q: events.append(("alpha", tuple(q))) or inner(q), space="V*",
                            jacobian=inner.jacobian)
        C = disk.system.algebroid._structure  # the kernel's C, whose stack form builds a chunk
        monkeypatch.setattr(C, "stack", lambda Q, real=C.stack: events.append(("C", [tuple(q) for q in Q])) or real(Q))
        box, _, pts = grid_points(disk.default_box, 2)  # 16 points
        report = hj_grid_check(disk.system, alpha, box, 2)
        pts = [tuple(q) for q in pts]
        chunks = [pts[i:i + 5] for i in range(0, 16, 5)]
        # the last chunk holds one point, which on_stack reads by the point form
        assert [v for kind, v in events if kind == "C"] == chunks[:-1]
        # alpha runs twice per point; each chunk's C is read before its first point
        assert [v for kind, v in events if kind == "alpha"] == [q for q in pts for _ in range(2)]
        assert all(events.index(("C", c)) < events.index(("alpha", c[0])) for c in chunks[:-1])
        monkeypatch.undo()
        assert report.to_json_dict() == hj_grid_check(disk.system, inner, box, 2).to_json_dict()

    @pytest.mark.parametrize("system", ["time_dependent", "cylinder"])
    def test_tied_residuals_keep_the_grid_order_witnesses(self, system, request):
        # a 5x5 grid of 25 per-point maxima holds 7 (time_dependent) or 3 (cylinder) distinct values
        gs = request.getfixturevalue(system)
        rep = hj_grid_check(gs.system, gs.reference_sections["reference"], gs.default_box, 5)
        peaks = [float(np.max(np.abs(r))) for _, r in rep.residual_grid]
        assert len(set(peaks)) < len(peaks)
        worst = sorted(rep.residual_grid, key=lambda t: -float(np.max(np.abs(t[1]))))[:5]  # a stable sort
        assert rep.to_json_dict()["worst"] == [{"q": list(map(float, q)), "residual": list(map(float, r))}
                                               for q, r in worst]

    def test_report_json(self, time_dependent):
        alpha = time_dependent.reference_sections["reference"]
        rep = hj_grid_check(time_dependent.system, alpha, time_dependent.default_box, 3, tol=1e-9)
        d = rep.to_json_dict()
        assert d["pass"] is True
        assert d["grid"]["points"] == 9
        assert len(d["worst"]) <= 5

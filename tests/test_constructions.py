import dataclasses
import math
import re

import numpy as np
import pytest

from algebroid_mech import (
    CheckReport,
    ConstructionError,
    ESection,
    Homomorphism,
    MetricField,
    MorphismEndpoint,
    MorphismPair,
    NumericFailure,
    ScalarField,
    affine_constraints,
    bracket,
    constant_section,
    d_function,
    d_oneform_eval,
    force_extension,
    gram_schmidt_at,
    instantiate,
    morphism_check,
    poisson_bracket_eval,
    projector_restriction,
    tangent_algebroid,
)
from algebroid_mech import constructions, gallery
from algebroid_mech.algebroid import sample_box
from algebroid_mech.calculus import Chart, fd_gradient, fd_jacobian
from algebroid_mech.hamilton_jacobi import verify_lift

from conftest import lie_tangent, nan_structure_at, seeded_points, smooth_field


class TestForceExtension:
    def test_unforced_extension_is_lie(self):
        A = force_extension(lie_tangent(2), None)
        f = smooth_field(2, seed=101)
        df = d_function(A, f)
        worst = 0.0
        for q in seeded_points(2, n=128, seed=22):
            for a in range(3):
                for b in range(a + 1, 3):
                    worst = max(
                        worst,
                        abs(d_oneform_eval(A, df, A.basis_section(a), A.basis_section(b), q)),
                    )
        assert worst < 1e-6

    def test_bracket_with_line_direction_carries_force(self):
        F = Homomorphism.constant(np.array([[0.5, -0.3], [0.1, 0.9]]))
        A = force_extension(lie_tangent(2), F)
        q = np.array([0.3, 0.2])
        for a in range(2):
            got = bracket(A, A.basis_section(0), A.basis_section(a + 1))(q)
            expect = np.concatenate([[0.0], -F.at(q)[a, :]])
            assert np.allclose(got, expect, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            force_extension(lie_tangent(2), Homomorphism.zero(3))


class TestProjectorRestriction:
    def test_full_bundle_identity_projector(self):
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]
        D = projector_restriction(A, basis, lambda q, v: np.asarray(v, dtype=float))
        q = np.array([0.4, -0.1])
        assert np.allclose(D.anchor_at(q), A.anchor_at(q))
        assert np.max(np.abs(D.structure_at(q))) < 1e-12

    def test_disk_structure_functions(self, disk):
        p = disk.params
        D = disk.extras["constraint_algebroid"]
        s = math.sqrt(p["m"] * p["R"] ** 2 + p["I"])
        for q in seeded_points(4, n=8, seed=23):
            rho = D.anchor_at(q)
            phi = q[3]
            expect = np.array(
                [
                    [p["R"] * math.cos(phi) / s, 0.0],
                    [p["R"] * math.sin(phi) / s, 0.0],
                    [1.0 / s, 0.0],
                    [0.0, 1.0 / math.sqrt(p["J"])],
                ]
            )
            assert np.max(np.abs(rho - expect)) < 1e-12
            assert np.max(np.abs(D.structure_at(q))) < 1e-9

    def test_restricted_bracket_loses_jacobi(self, disk):
        # (d^D)^2 acting on a coordinate function detects the projection:
        # the defect equals the bracket [X1, X2] applied to the function
        D = disk.extras["constraint_algebroid"]
        g = ScalarField(eval=lambda q: float(q[1]), grad=lambda q: np.array([0, 1.0, 0, 0]))
        dg = d_function(D, g)
        q = np.array([0.2, -0.4, 0.1, 0.0])
        val = d_oneform_eval(D, dg, D.basis_section(0), D.basis_section(1), q)
        # [X1, X2](y) = -R cos(phi) / (sqrt(J) sqrt(mR^2+I)) at unit params
        assert abs(val - (-1.0 / math.sqrt(2.0))) < 1e-6

    def test_anchor_factors_through_inclusion(self, disk):
        # rho_D(sigma) coincides with the ambient anchor applied to the
        # included section, at sample points
        from algebroid_mech import anchor_apply, tangent_algebroid
        from algebroid_mech.calculus import Chart

        D = disk.extras["constraint_algebroid"]
        TQ = tangent_algebroid(Chart(dim=4, coord_names=("x", "y", "theta", "phi")))
        coeffs = np.array([0.6, -1.3])
        sigma = ESection(components=lambda q: coeffs)
        s = math.sqrt(2.0)
        for q in seeded_points(4, n=8, seed=29):
            included = ESection(
                components=lambda qq: coeffs[0]
                * np.array([math.cos(qq[3]), math.sin(qq[3]), 1.0, 0.0])
                / s
                + coeffs[1] * np.array([0.0, 0.0, 0.0, 1.0])
            )
            lhs = anchor_apply(D, sigma, q)
            rhs = anchor_apply(TQ, included, q)
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_projector_property_enforced(self):
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]
        with pytest.raises(ConstructionError):
            projector_restriction(A, basis, lambda q, v: 0.5 * np.asarray(v, dtype=float))

    def test_projector_nan_at_a_later_point_raises(self):
        # Python's max() keeps a NaN only when it comes first; put it last
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]
        pts = seeded_points(2, n=8)

        def P(q, v):
            return np.full(2, np.nan) if np.array_equal(q, pts[-1]) else np.asarray(v, dtype=float)

        with pytest.raises(NumericFailure, match=re.escape(f"P(q, D_0(q))[0] non-finite at q={list(map(float, pts[-1]))}")):
            projector_restriction(A, basis, P, validation_points=pts)


def _strip(basis):
    return [dataclasses.replace(s, jacobian=None) for s in basis]


def _disk_kernel(disk, basis):
    TQ = tangent_algebroid(disk.system.chart)
    return projector_restriction(TQ, basis, disk.extras["projector"])


def _twisted_frame():
    """X1 = (1, 0, sin y), X2 = (0, 1, 0) on R^3 with P(q, v) = (v0, v1 + v2 - sin(y) v0),
    the identity on D; [[X1, X2]] = -cos(y) d/dz, so C[0, 1] = (0, -cos y)."""
    E = tangent_algebroid(Chart(dim=3, coord_names=("x", "y", "z")))
    X1 = ESection(components=lambda q: np.array([1.0, 0.0, math.sin(q[1])]),
                  jacobian=lambda q: np.array([[0.0] * 3, [0.0] * 3, [0.0, math.cos(q[1]), 0.0]]))
    X2 = ESection(components=lambda q: np.array([0.0, 1.0, 0.0]), jacobian=lambda q: np.zeros((3, 3)))

    def P(q, v):
        return np.array([v[0], v[1] + v[2] - math.sin(q[1]) * v[0]])

    return E, [X1, X2], P


def _stencil_kernel_C(E, basis, P, q):
    """C at q as the stencil kernel forms it, written out pair by pair."""
    def frames(Q):
        return np.array([[s(x) for s in basis] for x in Q])

    M = frames(q[None])[0]
    dM = fd_jacobian(frames, q, stacked=True).reshape(M.shape + q.shape)
    CE, anchored = E.structure_at(q), M @ E.anchor_at(q).T
    C = np.zeros((len(basis),) * 3)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            val = np.einsum("abg,a,b->g", CE, M[i], M[j])
            C[i, j] = P(q, val + dM[j] @ anchored[i] - dM[i] @ anchored[j])
            C[j, i] = -C[i, j]
    return C


class TestExactFrameDerivative:
    def test_disk_kernel_makes_no_fd_jacobian_call(self, monkeypatch):
        gs = instantiate("vertical_disk")
        stripped = _disk_kernel(gs, _strip(gs.extras["constraint_basis"]))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return fd_jacobian(*args, **kwargs)

        monkeypatch.setattr(constructions, "fd_jacobian", counting)
        pts = seeded_points(4, n=20, seed=61)
        for q in pts:
            gs.extras["constraint_algebroid"].structure_at(q)
            gs.system.algebroid.structure_at(q + 0.5)
        assert calls == []
        for q in pts:  # the same points through the stencil fallback: one stencil per new point
            stripped.structure_at(q)
            stripped.structure_at(q)
        assert len(calls) == len(pts)

    def test_exact_path_agrees_with_stencil_on_the_disk(self, disk):
        exact = disk.extras["constraint_algebroid"]
        stencil = _disk_kernel(disk, _strip(disk.extras["constraint_basis"]))
        gap, floor = 0.0, 0.0
        for q in seeded_points(4, n=200, lo=-4.0, hi=4.0, seed=62):
            C = exact.structure_at(q)
            gap = max(gap, float(np.max(np.abs(C - stencil.structure_at(q)))))
            floor = max(floor, float(np.max(np.abs(C))))
            assert np.array_equal(exact.anchor_at(q), stencil.anchor_at(q))
        assert gap <= 1e-9
        assert floor <= 1e-15  # the disk's D bracket projects to exactly zero

    def test_exact_path_agrees_with_stencil_on_a_twisted_frame(self):
        E, basis, P = _twisted_frame()
        exact = projector_restriction(E, basis, P)
        stencil = projector_restriction(E, _strip(basis), P)
        gap = 0.0
        for q in seeded_points(3, n=200, lo=-4.0, hi=4.0, seed=63):
            C = exact.structure_at(q)
            assert np.max(np.abs(C[0, 1] - [0.0, -math.cos(q[1])])) <= 1e-15
            gap = max(gap, float(np.max(np.abs(C - stencil.structure_at(q)))))
        assert 0.0 < gap <= 1e-9

    @pytest.mark.parametrize("case", ["disk", "twisted"])
    def test_jacobian_less_basis_keeps_the_stencil_bits(self, case, disk):
        if case == "disk":
            E, basis, P = tangent_algebroid(disk.system.chart), disk.extras["constraint_basis"], disk.extras["projector"]
        else:
            E, basis, P = _twisted_frame()
        A = projector_restriction(E, _strip(basis), P)
        for q in seeded_points(E.chart.dim, n=32, lo=-4.0, hi=4.0, seed=64):
            assert np.array_equal(A.structure_at(q), _stencil_kernel_C(E, _strip(basis), P, q))

    def test_wrong_jacobian_rejected(self, disk):
        X1, X2 = disk.extras["constraint_basis"]
        flipped = dataclasses.replace(X1, jacobian=lambda q: -X1.jacobian(q))
        with pytest.raises(ConstructionError, match="section jacobians disagree with finite differences"):
            _disk_kernel(disk, [flipped, X2])

    def test_jacobian_nan_at_a_later_validation_point_raises(self, disk):
        X1, X2 = disk.extras["constraint_basis"]
        pts = seeded_points(4, n=8, seed=65)

        def jac(q):
            return np.full((4, 4), np.nan) if np.array_equal(q, pts[-1]) else X2.jacobian(q)

        TQ = tangent_algebroid(disk.system.chart)
        expect = f"jacobian of D_1(q)[0, 0] non-finite at q={list(map(float, pts[-1]))}"
        with pytest.raises(NumericFailure, match=re.escape(expect)):
            projector_restriction(TQ, [X1, dataclasses.replace(X2, jacobian=jac)], disk.extras["projector"],
                                  validation_points=pts)

    def test_jacobian_wrong_shape_rejected(self, disk):
        X1, X2 = disk.extras["constraint_basis"]
        wrong = [dataclasses.replace(s, jacobian=lambda q: np.zeros((4, 1))) for s in (X1, X2)]
        with pytest.raises(ValueError, match=re.escape("section jacobians must have shape (4, 4), got (4, 1)")):
            _disk_kernel(disk, wrong)

    def test_jacobian_nan_after_construction_raises_in_the_kernel(self, disk):
        X1, X2 = disk.extras["constraint_basis"]
        bad = np.array([0.1, 0.2, 0.3, 5.0])  # outside the validation box

        def jac(q):
            return np.full((4, 4), np.nan) if np.array_equal(q, bad) else X1.jacobian(q)

        D = _disk_kernel(disk, [dataclasses.replace(X1, jacobian=jac), X2])
        D.anchor_at(bad)  # the anchor needs no derivative
        with pytest.raises(NumericFailure, match=re.escape(f"frame jacobian non-finite at q={list(map(float, bad))}")):
            D.structure_at(bad)


class TestAffineConstraints:
    def test_ball_displayed_structure(self, ball):
        A = ball.system.algebroid
        q = np.array([0.3, 0.7, -0.4])
        c = 0.5  # k/(sqrt(m)(r^2+k^2)) at unit parameters
        w = 0.5  # r^2 Omega/(k^2+r^2)
        rho = A.anchor_at(q)
        assert np.allclose(rho[:, 0], [1.0, 0.4, 0.7], atol=1e-12)
        assert np.allclose(rho[:, 1], [0.0, 0.0, -1 / math.sqrt(2)], atol=1e-12)
        assert np.allclose(rho[:, 2], [0.0, 1 / math.sqrt(2), 0.0], atol=1e-12)
        C = A.structure_at(q)
        assert np.allclose(C[1, 2], [0, 0, 0, c], atol=1e-10)
        assert np.allclose(C[2, 3], [0, c, 0, 0], atol=1e-10)
        assert np.allclose(C[1, 3], [0, 0, -c, 0], atol=1e-10)
        assert np.allclose(C[0, 1], [0, 0, -w, 0], atol=1e-10)
        assert np.allclose(C[0, 2], [0, w, 0, 0], atol=1e-10)
        assert np.allclose(C[0, 3], 0.0, atol=1e-10)

    def test_zero_drift_reduces_to_linear_constraints(self, ball):
        E = ball.extras["ambient"]
        G = ball.extras["metric"]
        U_basis = [
            constant_section([0.0, 0.0, -1.0, 1.0, 0.0, 0.0]),
            constant_section([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
            constant_section([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
        ]
        X0 = constant_section(np.zeros(6))
        sys_ = affine_constraints(E, G, U_basis, X0)
        q = np.array([0.1, 0.2, 0.3])
        assert np.max(np.abs(sys_.algebroid.anchor_at(q)[:, 0])) == 0.0

    def test_drift_must_be_orthogonal_to_constraints(self, ball):
        E = ball.extras["ambient"]
        G = ball.extras["metric"]
        U_basis = [constant_section([0.0, 0.0, -1.0, 1.0, 0.0, 0.0])]
        X0 = constant_section([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])  # not orthogonal to U
        with pytest.raises(ConstructionError):
            affine_constraints(E, G, U_basis, X0)

    def test_drift_nan_at_a_later_point_raises_at_the_precondition(self, ball):
        # a NaN drift at the last validation point used to build an algebroid
        E = ball.extras["ambient"]
        G = ball.extras["metric"]
        U_basis = [constant_section([0.0, 0.0, -1.0, 1.0, 0.0, 0.0])]
        pts = seeded_points(3, n=8)
        X0 = ESection(components=lambda q: np.full(6, np.nan) if np.array_equal(q, pts[-1]) else np.zeros(6))
        with pytest.raises(NumericFailure, match=re.escape(f"P(X0)[1] non-finite at q={list(map(float, pts[-1]))}")):
            affine_constraints(E, G, U_basis, X0, validation_points=pts)

    def test_adaptedness_holds_at_samples(self, ball):
        assert ball.system.algebroid.validate_adapted(seeded_points(3, n=8, seed=24)) < 1e-12

    def test_projection_commutes_with_bracket(self, ball):
        # project-then-bracket equals bracket-then-project on lifted sections
        E = ball.extras["ambient"]
        ext = force_extension(E, None)
        A = ball.system.algebroid
        N = ball.extras["frame_norm"]
        ebar = [
            np.array([0.0, 0.0, -1.0, 1.0, 0.0, 0.0]) / N,
            np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]) / N,
            np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
        ]
        f1 = smooth_field(3, seed=25)
        f2 = smooth_field(3, seed=26)

        def lift(coeff_fn, vec):
            return ESection(
                components=lambda q: np.concatenate([[0.0], coeff_fn(q) * vec])
            )

        sig_ext = lift(f1, ebar[0])
        gam_ext = lift(f2, ebar[1])
        sig_red = ESection(components=lambda q: np.array([0.0, f1(q), 0.0, 0.0]))
        gam_red = ESection(components=lambda q: np.array([0.0, 0.0, f2(q), 0.0]))
        br_red = bracket(A, sig_red, gam_red)
        br_ext = bracket(ext, sig_ext, gam_ext)
        G = ball.extras["metric"]
        worst = 0.0
        for q in seeded_points(3, n=16, seed=27):
            v = br_ext(q)
            proj = np.array([float(np.asarray(e) @ G.at(q) @ v[1:]) for e in ebar])
            expect = np.concatenate([[v[0]], proj])
            worst = max(worst, float(np.max(np.abs(br_red(q) - expect))))
        assert worst < 1e-6


def affine_kernel(monkeypatch, build):
    """Run ``build`` and return its result, the last affine_constraints
    call's (G, U_basis, X0) and the ``frames`` callable of its kernel."""
    args, seen = [], []
    real_affine, real_kernel = gallery.affine_constraints, constructions._bracket_then_project

    def spy_affine(E, G, U_basis, X0, **kw):
        args.append((G, U_basis, X0))
        return real_affine(E, G, U_basis, X0, **kw)

    def spy_kernel(E, frames, *a, **kw):
        seen.append(frames)
        return real_kernel(E, frames, *a, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(gallery, "affine_constraints", spy_affine)
        patch.setattr(constructions, "_bracket_then_project", spy_kernel)
        out = build()
    return out, (args[-1] if args else None), seen[-1]


def stacked_frames(G, U_basis, X0, Q):
    """The affine frame of a stack, orthonormalized point by point in one call."""
    Gq = np.array([G.at(q) for q in Q])
    B = np.array([[s(q) for s in U_basis] for q in Q])
    X = np.array([X0(q) for q in Q])
    return np.concatenate([X[:, None, :], constructions._gram_schmidt(Gq, B) @ B], axis=1)


def count_gram_schmidt(monkeypatch):
    """Patch constructions._gram_schmidt to record the stack size of each call."""
    calls = []
    real = constructions._gram_schmidt
    monkeypatch.setattr(constructions, "_gram_schmidt", lambda Gq, B: calls.append(len(B)) or real(Gq, B))
    return calls


class TestKernel:
    @pytest.mark.parametrize(
        "system,omega",
        [("vertical_disk", "constant"), ("rolling_ball", "constant"), ("rolling_ball", "linear")],
    )
    def test_values_do_not_depend_on_earlier_points(self, system, omega):
        # a point 4e-10 away, read first, must not lend its values to q
        def read(A, q):
            return A.anchor_at(q), A.structure_at(q)

        visited = instantiate(system, omega=omega).system.algebroid
        q = np.array([0.3, -0.2, 0.7, 0.4][: visited.chart.dim])
        read(visited, q + 4e-10)
        anchor, C = read(visited, q)
        fresh_anchor, fresh_C = read(instantiate(system, omega=omega).system.algebroid, q)
        assert np.array_equal(anchor, fresh_anchor)
        assert np.array_equal(C, fresh_C)

    def test_memo_reuses_exact_points_and_stays_bounded(self, monkeypatch):
        # the drift section is evaluated once per memoized point; the one
        # validation point leaves a single entry in the memo
        monkeypatch.setattr(constructions, "_MEMO_POINTS", 3)
        E = tangent_algebroid(Chart(dim=2, coord_names=("a", "b")))
        calls = []
        X0 = ESection(components=lambda q: calls.append(q) or np.array([1.0, 0.0]))
        U = [ESection(components=lambda q: np.array([0.0, 1.0]))]
        G = MetricField.constant(np.eye(2))
        A = affine_constraints(E, G, U, X0, validation_points=[np.array([0.5, -0.5])]).algebroid
        p, q, r = (np.array([0.1 * k, 0.2]) for k in range(3))
        calls.clear()
        for x in (p, q, p):
            A.anchor_at(x)
        assert len(calls) == 2  # p's second visit is served by the memo
        for x in (r, p):  # r finds the memo full and empties it, so p is new
            A.anchor_at(x)
        assert len(calls) == 4

    def test_affine_frames_that_vary_with_q(self, monkeypatch):
        # metric, U basis and drift all depend on q; compare with the frame
        # built one point at a time and differentiated pointwise
        E = tangent_algebroid(Chart(dim=3, coord_names=("a", "b", "c")))

        def metric(q):
            return np.array(
                [
                    [1.0 + 0.2 * q[0] ** 2, 0.0, 0.0],
                    [0.0, 2.0 + 0.5 * math.sin(q[1]), 0.1 * q[0]],
                    [0.0, 0.1 * q[0], 1.5 + 0.3 * math.cos(q[2])],
                ]
            )

        G = MetricField(matrix=metric)
        U = [
            ESection(components=lambda q: np.array([0.0, 1.0, 0.3 * q[0]])),
            ESection(components=lambda q: np.array([0.0, 0.2 * math.sin(q[2]), 1.0 + 0.1 * q[1] ** 2])),
        ]
        X0 = ESection(components=lambda q: np.array([1.0 / math.sqrt(metric(q)[0, 0]), 0.0, 0.0]))
        A = affine_constraints(E, G, U, X0).algebroid

        def frame(q):
            B = np.stack([s(q) for s in U])
            return np.vstack([X0(q), gram_schmidt_at(G, U, q) @ B])

        worst = 0.0
        calls = count_gram_schmidt(monkeypatch)
        for q in seeded_points(3, n=8, seed=31):
            calls.clear()
            C = A.structure_at(q)
            # a q-dependent metric and basis are orthonormalized at every new
            # point: once for the point, once for its 6-point stencil
            assert calls == [1, 6]
            M = frame(q)
            dM = fd_jacobian(lambda x: frame(x).ravel(), q).reshape(3, 3, 3)
            assert np.max(np.abs(A.anchor_at(q) - M.T)) < 1e-12  # rho_E is the identity
            for i in range(3):
                for j in range(i + 1, 3):
                    val = dM[j] @ M[i] - dM[i] @ M[j]  # tangent bracket of frame fields
                    expect = np.concatenate([[0.0], M[1:] @ metric(q) @ val])
                    got = C[i, j]
                    assert np.max(np.abs(got - expect)) < 1e-12
                    worst = max(worst, float(np.max(np.abs(expect))))
        assert worst > 0.1  # the frames do not commute

    @pytest.mark.parametrize("omega", ["constant", "linear"])
    def test_ball_frames_equal_the_stacked_path(self, monkeypatch, omega):
        # the reused orthonormal rows give the bytes of the per-call path
        _, (G, U, X0), frames = affine_kernel(monkeypatch, lambda: instantiate("rolling_ball", omega=omega))
        rng = np.random.default_rng(71)
        for k in range(400):
            Q = rng.uniform(-4.0, 4.0, size=(7 if k % 2 else 1, 3))
            got, expect = frames(Q), stacked_frames(G, U, X0, Q)
            assert got.shape == expect.shape == (len(Q), 4, 6)
            assert got.tobytes() == expect.tobytes()

    def test_ball_lift_runs_no_gram_schmidt(self, monkeypatch):
        gs = instantiate("rolling_ball")
        calls = count_gram_schmidt(monkeypatch)
        verify_lift(gs.system, gs.section("reference"), gs.default_q0, 0.0, 1.0, 1e-2)  # 100 steps
        assert calls == []

    def test_negative_zero_basis_misses_the_cache(self, monkeypatch):
        # -0.0 == 0.0: only the bytes tell the two bases apart
        E = tangent_algebroid(Chart(dim=2, coord_names=("a", "b")))
        sign = [1.0]
        U = [ESection(components=lambda q: np.array([sign[0] * 0.0, 2.0]))]
        G, X0 = MetricField.constant(np.eye(2)), constant_section([1.0, 0.0])
        _, _, frames = affine_kernel(monkeypatch, lambda: affine_constraints(E, G, U, X0))
        calls = count_gram_schmidt(monkeypatch)
        Q = np.zeros((3, 2))
        assert frames(Q).tobytes() == stacked_frames(G, U, X0, Q).tobytes()
        assert calls == [3]  # only the reference: construction cached the rows
        sign[0] = -1.0
        calls.clear()
        got = frames(Q)
        assert calls == [3]  # a miss, not the cached rows of the 0.0 basis
        assert got.tobytes() == stacked_frames(G, U, X0, Q).tobytes()

    def test_stack_led_by_the_cached_point_is_orthonormalized(self, monkeypatch):
        # the cached rows belong to the first point only; the second point of
        # the stack has its own metric
        E = tangent_algebroid(Chart(dim=2, coord_names=("a", "b")))
        G = MetricField(matrix=lambda q: np.diag([1.0, 1.0 + q[0] ** 2]))
        U, X0 = [constant_section([0.0, 1.0])], constant_section([1.0, 0.0])
        _, _, frames = affine_kernel(monkeypatch, lambda: affine_constraints(E, G, U, X0))
        q = np.array([0.3, 0.0])
        frames(q[None])
        Q = np.stack([q, [1.7, 0.0]])
        got = frames(Q)
        assert got.tobytes() == stacked_frames(G, U, X0, Q).tobytes()
        assert got[1, 1, 1] != got[0, 1, 1]


class TestGramSchmidt:
    def test_orthonormal_basis_gives_identity(self):
        G = MetricField.constant(np.eye(3))
        basis = [constant_section(v) for v in np.eye(3)]
        T = gram_schmidt_at(G, basis, np.zeros(1))
        assert np.allclose(T, np.eye(3), atol=1e-14)

    def test_ball_frame_scalings(self, ball):
        G = ball.extras["metric"]
        basis = [
            constant_section([0, 0, -1.0, 1.0, 0, 0]),
            constant_section([0, 1.0, 0, 0, 1.0, 0]),
            constant_section([0, 0, 0, 0, 0, 1.0]),
        ]
        T = gram_schmidt_at(G, basis, np.zeros(3))
        d = 1.0 / math.sqrt(2.0)
        assert np.allclose(T, np.diag([d, d, 1.0]), atol=1e-14)

    def test_scaled_basis_halves(self):
        G = MetricField.constant(np.eye(2))
        basis = [constant_section([2.0, 0.0]), constant_section([0.0, 2.0])]
        T = gram_schmidt_at(G, basis, np.zeros(1))
        assert np.allclose(T, 0.5 * np.eye(2), atol=1e-14)

    def test_norms_are_unit(self):
        rng = np.random.default_rng(28)
        M = rng.normal(size=(3, 3))
        G = MetricField.constant(M @ M.T + 3 * np.eye(3))
        basis = [constant_section(rng.normal(size=3)) for _ in range(3)]
        T = gram_schmidt_at(G, basis, np.zeros(1))
        B = np.stack([s(np.zeros(1)) for s in basis])
        E = T @ B
        gram = E @ G.at(np.zeros(1)) @ E.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.allclose(np.triu(T, 1), 0.0)

    def test_dependent_basis_rejected(self):
        G = MetricField.constant(np.eye(2))
        basis = [constant_section([1.0, 0.0]), constant_section([1.0, 0.0])]
        with pytest.raises(ConstructionError):
            gram_schmidt_at(G, basis, np.zeros(1))


class TestMorphismCheck:
    def test_identity_passes_everything(self, cylinder):
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
        reports = morphism_check(
            cylinder.system, cylinder.system, pair, box=[(-1, 1), (-1, 1)], samples=16, seed=5
        )
        for rep in reports:
            assert rep.passed

    def test_projection_to_reduced_dual_is_poisson(self, ball):
        src = MorphismEndpoint.from_system(ball.system)
        dst = MorphismEndpoint.v_side(ball.system)
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p[1:])
        reports = morphism_check(src, dst, pair, box=ball.default_box, samples=8, seed=5)
        poisson, cocycle, ham = reports
        assert poisson.passed
        assert cocycle.passed and cocycle.max_violation == 0.0
        # the affine function does not project; its pullback defect is |p0|
        assert not ham.passed and ham.max_violation > 0.1

    def test_momentum_scaling_breaks_hamiltonian_condition(self, cylinder):
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: 2.0 * p)
        reports = morphism_check(
            cylinder.system, cylinder.system, pair, box=[(-1, 1), (-1, 1)], samples=16, seed=5
        )
        ham = reports[2]
        assert not ham.passed
        # oracle: recompute the worst pullback defect on the same samples
        from algebroid_mech.algebroid import sample_box

        sys_ = cylinder.system
        qs = sample_box([(-1, 1), (-1, 1)], 16, 5)
        ps = -1.0 + 2.0 * np.random.default_rng(6).random((16, 3))
        expect = 0.0
        for q, p in zip(qs, ps):
            a = 2.0 * p[0] + sys_.h_value(q, 2.0 * p[1:])
            b = p[0] + sys_.h_value(q, p[1:])
            expect = max(expect, abs(a - b))
        assert abs(ham.max_violation - expect) < 1e-12

    def test_nan_at_a_later_sample_raises(self, cylinder):
        # Python's max() keeps a NaN only when it comes first; put it last
        box = [(-1, 1), (-1, 1)]
        sys_ = cylinder.system
        bad = sample_box(box, 8, 5)[-1]
        src = dataclasses.replace(MorphismEndpoint.from_system(sys_), algebroid=nan_structure_at(sys_.algebroid, bad))
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
        # the first probe pair is named
        with pytest.raises(NumericFailure, match=re.escape(f"bracket of probes 0, 1 non-finite at q={list(map(float, bad))}")):
            morphism_check(src, sys_, pair, box=box, samples=8, seed=5)

    def test_requires_known_types(self, cylinder):
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
        with pytest.raises(ValueError):
            morphism_check("nope", cylinder.system, pair, box=[(-1, 1), (-1, 1)])


def _pairwise_morphism_reports(src, dst, pair, box, samples, seed, tol=1e-6):
    """morphism_check with one poisson_bracket_eval per probe pair and side,
    on probes composed with psi, and psi evaluated afresh everywhere."""
    A, Abar = src.algebroid, dst.algebroid
    qs = sample_box(box, samples, seed)
    ps = -1.0 + 2.0 * np.random.default_rng(seed + 1).random((samples, A.rank))
    n_probes = Abar.chart.dim + Abar.rank

    def psi(x):
        return pair.full(A, x)

    worst = ([], [], [])
    for q, p in zip(qs, ps):
        xf = np.concatenate([q, p])
        image = psi(xf)
        v1 = 0.0
        for i in range(n_probes):
            for j in range(i + 1, n_probes):
                lhs = poisson_bracket_eval(
                    A, lambda x, i=i: float(psi(x)[i]), lambda x, j=j: float(psi(x)[j]), xf
                )
                rhs = poisson_bracket_eval(Abar, lambda x, i=i: float(x[i]), lambda x, j=j: float(x[j]), image)
                v1 = max(v1, abs(lhs - rhs))
        worst[0].append((q, v1))
        gap = np.asarray(pair.fiber_map(q, src.cocycle(q))) - dst.cocycle(np.asarray(pair.base_map(q)))
        worst[1].append((q, float(np.max(np.abs(gap)))))
        worst[2].append((q, abs(dst.f_h(image) - src.f_h(xf))))
    names = ("poisson_morphism", "cocycle_related", "hamiltonian_pullback")
    out = []
    for name, w in zip(names, worst):
        w = sorted(w, key=lambda t: -t[1])
        out.append(CheckReport(name=name, max_violation=float(w[0][1]), tol=tol, samples=samples,
                               seed=seed, witnesses=tuple(w[:5])).to_json_dict())
    return out


def _values_and_rest(report):
    """A report's max_violation and witness values, and the rest of it with the witness points."""
    values = [report["max_violation"]] + [w["value"] for w in report["witnesses"]]
    return values, dict(report, max_violation=None, witnesses=[w["q"] for w in report["witnesses"]])


class TestMorphismSharedDerivatives:
    """morphism_check compares whole Poisson matrices per sample; its
    reports must equal the per-pair computation bit for bit, except for
    values that move with the summation order of the matrix products."""

    @pytest.mark.parametrize("system_id, morphism", [
        ("cylinder_friction", "identity"),
        ("rolling_ball", "identity"),
        ("vertical_disk", "identity"),
        ("rolling_ball", "mu-projection"),
        ("cylinder_friction", "momentum-scale"),
    ])
    def test_equals_pairwise_poisson_bracket_eval(self, system_id, morphism):
        gs = instantiate(system_id)
        sys_ = gs.system
        src = MorphismEndpoint.from_system(sys_)
        dst = MorphismEndpoint.v_side(sys_) if morphism == "mu-projection" else src
        fiber = {
            "identity": lambda q, p: p,
            "mu-projection": lambda q, p: p[1:],
            "momentum-scale": lambda q, p: 2.0 * p,
        }[morphism]
        pair = MorphismPair(base_map=lambda q: q, fiber_map=fiber)
        got = [r.to_json_dict() for r in morphism_check(src, dst, pair, gs.default_box, samples=4, seed=9)]
        want = _pairwise_morphism_reports(src, dst, pair, gs.default_box, 4, 9)
        if morphism != "momentum-scale":
            assert got == want
        else:
            # the only case whose values move with the order of the matrix products
            for g, w in zip(got, want):
                (g_values, g_rest), (w_values, w_rest) = _values_and_rest(g), _values_and_rest(w)
                assert g_rest == w_rest
                assert g_values == pytest.approx(w_values, rel=1e-12)
            assert all(r["max_violation"] > 1e-3 for r in got)

    @pytest.mark.parametrize("system_id, morphism", [
        ("cylinder_friction", "identity"),
        ("rolling_ball", "identity"),
        ("vertical_disk", "identity"),
        ("rolling_ball", "mu-projection"),
    ])
    def test_poisson_morphisms_compare_equal_bits(self, system_id, morphism):
        # J and the probes' own gradients carry the same difference rounding
        gs = instantiate(system_id)
        src = MorphismEndpoint.from_system(gs.system)
        dst = MorphismEndpoint.v_side(gs.system) if morphism == "mu-projection" else src
        fiber = (lambda q, p: p[1:]) if morphism == "mu-projection" else (lambda q, p: p)
        pair = MorphismPair(base_map=lambda q: q, fiber_map=fiber)
        poisson = morphism_check(src, dst, pair, gs.default_box, samples=8, seed=3)[0]
        assert poisson.max_violation == 0.0

    def test_stacked_probe_gradients_equal_per_probe_rows(self):
        # the image-side Jacobian of morphism_check against one fd_gradient per coordinate probe
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, 7)
            stacked = fd_jacobian(lambda X: X, x, stacked=True)
            rows = np.array([fd_gradient(lambda y, i=i: float(y[i]), x) for i in range(7)])
            assert stacked.tobytes() == rows.tobytes()

    def test_base_map_evaluations_per_sample(self, ball):
        # one psi per stencil point of the source dual, plus the image
        calls = []

        def base_map(q):
            calls.append(1)
            return q

        sys_ = ball.system
        m, n = sys_.chart.dim, sys_.algebroid.rank
        pair = MorphismPair(base_map=base_map, fiber_map=lambda q, p: p[1:])
        src, dst = MorphismEndpoint.from_system(sys_), MorphismEndpoint.v_side(sys_)
        morphism_check(src, dst, pair, ball.default_box, samples=3, seed=2)
        assert len(calls) == 3 * (2 * (m + n) + 1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, cylinder, samples):
        pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            morphism_check(cylinder.system, cylinder.system, pair, [(-1, 1), (-1, 1)], samples=samples)

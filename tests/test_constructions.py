import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from algebroid_mech import (
    CheckReport,
    ConstructionError,
    DomainError,
    DualSection,
    ESection,
    HamiltonianSystem,
    Homomorphism,
    MetricField,
    MorphismEndpoint,
    MorphismPair,
    NumericFailure,
    ScalarField,
    SkewAlgebroid,
    affine_constraints,
    bracket,
    check_cocycle,
    constant_section,
    d_function,
    d_oneform_eval,
    force_extension,
    gram_schmidt_at,
    hamilton_rhs,
    hj_grid_check,
    hj_residual,
    instantiate,
    integrate_hamilton,
    morphism_check,
    poisson_bracket_eval,
    projector_restriction,
    tangent_algebroid,
)
from algebroid_mech import algebroid, constructions, gallery, hamilton
from algebroid_mech.algebroid import sample_box
from algebroid_mech.calculus import Chart, fd_gradient, fd_jacobian
from algebroid_mech.hamilton_jacobi import grid_points, verify_lift

from conftest import (CONSTANT_SYSTEMS, callable_path, lie_tangent, nan_structure_at, random_adapted_algebroid,
                      seeded_points, smooth_field)


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
            force_extension(lie_tangent(2), Homomorphism.constant(np.zeros((3, 3))))


class TestProjectorRestriction:
    def test_full_bundle_identity_projector(self):
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]
        D = projector_restriction(A, basis, lambda q, v, M: np.asarray(v, dtype=float))
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
            projector_restriction(A, basis, lambda q, v, M: 0.5 * np.asarray(v, dtype=float))

    @pytest.mark.parametrize("offset,builds", [(2e-9, False), (5e-10, True)])
    def test_projector_identity_threshold_is_1e_9(self, offset, builds):
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]

        def P(q, v, M):
            return (1.0 + offset) * np.asarray(v, dtype=float)

        if builds:
            projector_restriction(A, basis, P)
        else:
            with pytest.raises(ConstructionError, match=re.escape("is not the identity: 2e-09 > 1e-09")):
                projector_restriction(A, basis, P)

    def test_projector_nan_at_a_later_point_raises(self):
        # Python's max() keeps a NaN only when it comes first; put it last
        A = lie_tangent(2)
        basis = [A.basis_section(0), A.basis_section(1)]
        pts = seeded_points(2, n=8)

        def P(q, v, M):
            return np.full(2, np.nan) if np.array_equal(q, pts[-1]) else np.asarray(v, dtype=float)

        with pytest.raises(NumericFailure, match=re.escape(f"P(q, D_0(q))[0] non-finite at q={list(map(float, pts[-1]))}")):
            projector_restriction(A, basis, P, validation_points=pts)


def _strip(basis):
    return [dataclasses.replace(s, jacobian=None) for s in basis]


def _disk_kernel(disk, basis):
    TQ = tangent_algebroid(disk.system.chart)
    return projector_restriction(TQ, basis, disk.extras["projector"])


def _twisted_frame():
    """X1 = (1, 0, sin y), X2 = (0, 1, 0) on R^3 with P(q, v, M) = (v0, v1 + v2 - sin(y) v0),
    the identity on D; [[X1, X2]] = -cos(y) d/dz, so C[0, 1] = (0, -cos y)."""
    E = tangent_algebroid(Chart(dim=3, coord_names=("x", "y", "z")))
    X1 = ESection(components=lambda q: np.array([1.0, 0.0, math.sin(q[1])]),
                  jacobian=lambda q: np.array([[0.0] * 3, [0.0] * 3, [0.0, math.cos(q[1]), 0.0]]))
    X2 = ESection(components=lambda q: np.array([0.0, 1.0, 0.0]), jacobian=lambda q: np.zeros((3, 3)))

    def P(q, v, M):
        return np.array([v[0], v[1] + v[2] - math.sin(q[1]) * v[0]])

    return E, [X1, X2], P


def _full_frame(E):
    """q-dependent sections spanning E (rank 2 or 3), each near a frame vector,
    and P the coordinates in them, solved from the frame M.  Over
    ``random_adapted_algebroid`` (three pairs, C_E non-zero and q-dependent)
    every pair bracket reads C_E."""
    n = E.rank
    eye = np.eye(n)
    basis = [ESection(components=lambda q, a=a: eye[a] + 0.2 * math.sin(q[0] + a) * eye[(a + 1) % n]
                      + 0.1 * math.cos(q[1] - a) * eye[(a + 2) % n]) for a in range(n)]

    def P(q, v, M):
        return np.linalg.solve(M.T, v)

    return E, basis, P


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
            C[i, j] = P(q, val + dM[j] @ anchored[i] - dM[i] @ anchored[j], M)
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

    @pytest.mark.parametrize("case", ["disk", "twisted", "non-flat"])
    def test_jacobian_less_basis_keeps_the_stencil_bits(self, case, disk):
        if case == "disk":
            E, basis, P = tangent_algebroid(disk.system.chart), disk.extras["constraint_basis"], disk.extras["projector"]
        elif case == "twisted":
            E, basis, P = _twisted_frame()
        else:
            E, basis, P = _full_frame(random_adapted_algebroid())
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


class TestNanFrame:
    @pytest.mark.parametrize("check", ["cocycle-check", "hj-check"])
    @pytest.mark.parametrize("ambient", ["flat", "non-flat"])
    def test_nan_frame_at_one_point_is_named(self, ambient, check):
        # the kernel names the frame, not the check's own term, over a flat E
        # (zero pair brackets) as over a non-flat one; the failed stacked read
        # keeps nothing, so the pointwise read names the point
        box = ((-1.0, 1.0),) * 2
        bad = sample_box(box, 16, 7)[5] if check == "cocycle-check" else grid_points(box, 4)[2][5]
        E, basis, P = _full_frame(lie_tangent(2) if ambient == "flat" else random_adapted_algebroid())
        X = ESection(components=lambda q: np.full(E.rank, np.nan) if np.array_equal(q, bad) else basis[0](q))
        A = projector_restriction(E, [X, *basis[1:]], P)
        if check == "cocycle-check":
            with pytest.raises(NumericFailure, match=re.escape(f"frame non-finite at q={bad.tolist()}")):
                check_cocycle(A, DualSection(components=lambda q: np.linspace(1.0, 2.0, E.rank)), box, 16, 7)
        else:
            sys_ = HamiltonianSystem(algebroid=force_extension(A, None),
                                     H=ScalarField(eval=lambda x: 0.5 * float(x[2:] @ x[2:])))
            alpha = DualSection(components=lambda q: np.array([0.5, q[0], 0.1][:E.rank]), space="V*")
            with pytest.raises(NumericFailure, match=re.escape(f"frame non-finite at q={bad.tolist()}")):
                hj_grid_check(sys_, alpha, box, 4)


class TestEmptyValidationSet:
    @pytest.mark.parametrize("points", [[], np.zeros((0, 3))], ids=["list", "stack"])
    @pytest.mark.parametrize("data", ["constant", "q-dependent"])
    def test_affine_constraints_build(self, data, points, ball):
        if data == "constant":
            args = (ball.extras["ambient"], ball.extras["metric"], [constant_section([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])],
                    constant_section([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        else:
            args = twisted_affine()
        A = affine_constraints(*args, validation_points=points).algebroid
        q = np.full(3, 0.2)
        assert np.array_equal(A.structure_at(q), affine_constraints(*args).algebroid.structure_at(q))

    @pytest.mark.parametrize("points", [[], np.zeros((0, 3))], ids=["list", "stack"])
    def test_projector_restriction_builds(self, points):
        E, basis, P = _twisted_frame()
        A = projector_restriction(E, basis, P, validation_points=points)
        q = np.full(3, 0.2)
        assert np.array_equal(A.structure_at(q), projector_restriction(E, basis, P).structure_at(q))


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
        A = ball.system.algebroid
        for q in seeded_points(3, n=8, seed=24):
            assert np.all(A.structure_at(q)[:, :, 0] == 0.0)

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


def twisted_affine():
    """(E, G, U_basis, X0) of affine constraints on the tangent bundle of R^3
    whose metric, U basis and drift all depend on q."""
    E = tangent_algebroid(Chart(dim=3, coord_names=("a", "b", "c")))

    def metric(q):
        return np.array(
            [
                [1.0 + 0.2 * q[0] ** 2, 0.0, 0.0],
                [0.0, 2.0 + 0.5 * math.sin(q[1]), 0.1 * q[0]],
                [0.0, 0.1 * q[0], 1.5 + 0.3 * math.cos(q[2])],
            ]
        )

    U = [
        ESection(components=lambda q: np.array([0.0, 1.0, 0.3 * q[0]])),
        ESection(components=lambda q: np.array([0.0, 0.2 * math.sin(q[2]), 1.0 + 0.1 * q[1] ** 2])),
    ]
    X0 = ESection(components=lambda q: np.array([1.0 / math.sqrt(metric(q)[0, 0]), 0.0, 0.0]))
    return E, MetricField(matrix=metric), U, X0


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

    @pytest.mark.parametrize("system,omega", [("rolling_ball", "constant"), ("rolling_ball", "linear"),
                                              ("vertical_disk", "constant")])
    def test_construction_reads_no_structure_tensor(self, system, omega, monkeypatch):
        # the kernel's C^0 is written as 0.0, so nothing checks it at construction
        ambients, reads = [], []
        real_kernel, real_read = constructions._bracket_then_project, SkewAlgebroid.structure_at
        monkeypatch.setattr(constructions, "_bracket_then_project",
                            lambda E, *a, **kw: ambients.append(E) or real_kernel(E, *a, **kw))
        monkeypatch.setattr(SkewAlgebroid, "structure_at", lambda self, q: reads.append(self) or real_read(self, q))
        instantiate(system, omega=omega)
        assert len(ambients) == 1
        assert reads == []  # neither the kernel's C nor its ambient's

    def test_affine_frames_that_vary_with_q(self, monkeypatch):
        # metric, U basis and drift all depend on q; compare with the frame
        # built one point at a time and differentiated pointwise
        E, G, U, X0 = twisted_affine()
        metric = G.at
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

    def test_negative_zero_basis_is_orthonormalized_per_call(self, monkeypatch):
        # -0.0 == 0.0: a basis behind a plain callable may change its bytes
        # between calls, so no stack reuses the rows of an earlier one
        E = tangent_algebroid(Chart(dim=2, coord_names=("a", "b")))
        sign = [1.0]
        U = [ESection(components=lambda q: np.array([sign[0] * 0.0, 2.0]))]
        G, X0 = MetricField.constant(np.eye(2)), constant_section([1.0, 0.0])
        _, _, frames = affine_kernel(monkeypatch, lambda: affine_constraints(E, G, U, X0))
        calls = count_gram_schmidt(monkeypatch)
        Q = np.zeros((3, 2))
        assert frames(Q).tobytes() == stacked_frames(G, U, X0, Q).tobytes()
        assert calls == [3, 3]  # the kernel's own, then the reference's
        sign[0] = -1.0
        calls.clear()
        got = frames(Q)
        assert calls == [3]
        assert got.tobytes() == stacked_frames(G, U, X0, Q).tobytes()

    def test_constant_negative_zero_basis_is_orthonormalized_once(self, monkeypatch):
        E = tangent_algebroid(Chart(dim=2, coord_names=("a", "b")))
        U = [constant_section([-0.0, 2.0])]
        G, X0 = MetricField.constant(np.eye(2)), constant_section([1.0, 0.0])
        _, _, frames = affine_kernel(monkeypatch, lambda: affine_constraints(E, G, U, X0))
        calls = count_gram_schmidt(monkeypatch)
        Q = np.zeros((3, 2))
        assert frames(Q).tobytes() == stacked_frames(G, U, X0, Q).tobytes()
        assert calls == [3]  # only the reference: construction built the frame

    def test_q_dependent_metric_is_orthonormalized_per_point(self, monkeypatch):
        # constant U basis and drift, but the second point of the stack has
        # its own metric
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


GALLERY_CASES = [("cylinder_friction", "constant"), ("three_body_drag", "constant"),
                 ("rolling_ball", "constant"), ("rolling_ball", "linear"), ("vertical_disk", "constant"),
                 ("time_dependent_free", "constant"), ("riemannian_flat", "constant")]


class TestDefaultValidationPoints:
    def test_building_the_kernel_systems_imports_no_numpy_random(self):
        # the points used to be drawn with sample_box, whose generator made numpy import numpy.random
        code = ("import sys\nfrom algebroid_mech.gallery import instantiate\n"
                "for system, omega in [('rolling_ball', 'constant'), ('rolling_ball', 'linear'),\n"
                "                      ('vertical_disk', 'constant')]:\n"
                "    instantiate(system, omega=omega)\n"
                "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))")
        src = os.path.dirname(os.path.dirname(constructions.__file__))
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("m", range(1, 7))
    def test_points_are_fixed_and_spread_over_the_box(self, m):
        P = constructions._validation_points(None, m)
        assert P.shape == (8, m)
        assert np.all(np.abs(P) < 1.0) and np.all(P != 0.0)
        assert all(len(set(row)) == m for row in P)  # off the diagonals
        assert len({row.tobytes() for row in P}) == 8
        assert P.tobytes() == constructions._validation_points(None, m).tobytes()
        given = [[0.5] * m]
        assert constructions._validation_points(given, m).tobytes() == np.array(given).tobytes()


class TestConstantData:
    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("system,omega", GALLERY_CASES)
    def test_reads_are_the_callable_path_bits(self, system, omega, seed, monkeypatch):
        gs = instantiate(system, omega=omega)
        Q = sample_box(gs.default_box, 64, seed)
        with monkeypatch.context() as patch:
            callable_path(patch)
            plain = instantiate(system, omega=omega).system.algebroid
        assert kernel_reads(gs.system.algebroid, Q) == kernel_reads(plain, Q)

    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS)
    def test_constant_reads_are_one_read_only_array(self, system):
        A = instantiate(system).system.algebroid
        p, q = sample_box(instantiate(system).default_box, 2, 9)
        for read in (A.anchor_at, A.structure_at):
            assert read(p) is read(q)
            with pytest.raises(ValueError, match="read-only"):
                read(p)[0, 0] += 1.0

    def test_constant_builders_give_read_only_values(self):
        q = np.zeros(2)
        values = [constant_section([1.0, 2.0])(q), MetricField.constant(np.eye(2)).at(q),
                  Homomorphism.constant(np.eye(2)).at(q), Homomorphism.scalar(0.0, 2).at(q),
                  tangent_algebroid(Chart(dim=2, coord_names=("a", "b"))).anchor_at(q)]
        for value in values:
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 5.0

    def test_a_q_dependent_force_stays_on_the_callable_path(self, disk):
        # the disk's force carries cos(phi): its reads build fresh arrays, the kernel's read-only build
        A = disk.system.algebroid
        p, q = seeded_points(4, n=2, seed=13)
        for read in (A.anchor_at, A.structure_at):
            assert read(p) is not read(q)
            assert not read(p).flags.writeable
        assert not np.array_equal(A.structure_at(p), A.structure_at(q))

    def test_a_q_dependent_metric_stays_on_the_callable_path(self, monkeypatch):
        _, _, frames = affine_kernel(monkeypatch, lambda: affine_constraints(*twisted_affine()))
        calls = count_gram_schmidt(monkeypatch)
        Q = seeded_points(3, n=4, seed=17)
        frames(Q)
        frames(Q)
        assert calls == [4, 4]

    def test_wrong_constant_shape_raises_at_construction(self):
        chart = Chart(dim=2, coord_names=("a", "b"))
        with pytest.raises(ValueError, match=re.escape("anchor must return shape (2, 3), got (2, 2)")):
            SkewAlgebroid(chart=chart, rank=3, anchor=algebroid._Constant(np.eye(2)))
        with pytest.raises(ValueError, match=re.escape("structure must return shape (2, 2, 2), got (2, 2)")):
            SkewAlgebroid(chart=chart, rank=2, anchor=algebroid._Constant(np.eye(2)),
                          structure=algebroid._Constant(np.eye(2)))

    @pytest.mark.parametrize("omega", ["constant", "linear"])
    def test_ball_lift_calls_no_frame_row_callable(self, omega, monkeypatch):
        gs = instantiate("rolling_ball", omega=omega)
        calls = []
        for cls, name in ((ESection, "__call__"), (MetricField, "at")):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, q, real=real: calls.append(q) or real(self, q))
        report = verify_lift(gs.system, gs.section("reference"), gs.default_q0, 0.0, 1.0, 1e-2)  # 100 steps
        assert report.passed
        assert calls == []


def counted_frames(monkeypatch, log=len):
    """Patch the kernel builder so that every kernel built afterwards logs
    ``log`` of the stack of each of its ``frames`` calls (by default its
    size); returns the log."""
    calls = []
    real = constructions._bracket_then_project
    monkeypatch.setattr(constructions, "_bracket_then_project",
                        lambda E, frames, *a, **kw: real(E, lambda Q: calls.append(log(Q)) or frames(Q), *a, **kw))
    return calls


def kernel_reads(A, Q):
    """The bytes of the anchor and C read at each row of Q by ``_read_at``, which reads C first."""
    return [b"".join(value.tobytes() for value in algebroid._read_at(A, q)) for q in Q]


def stacked_reads(A, Q):
    """The bytes of the anchor and C of each row of Q from one stacked ``_read_at`` of Q, as ``kernel_reads``."""
    rho, C = algebroid._read_at(A, np.asarray(Q))
    return [r.tobytes() + c.tobytes() for r, c in zip(rho, C)]


KERNEL_SYSTEMS = {  # name -> (a fresh kernel algebroid, a box of points)
    # the disk's force extension is read, pointwise and on stacks, by its kernel
    "rolling_ball-constant": (lambda: instantiate("rolling_ball").system.algebroid,
                              ((0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0))),
    "rolling_ball-linear": (lambda: instantiate("rolling_ball", omega="linear").system.algebroid,
                            ((0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0))),
    "vertical_disk": (lambda: instantiate("vertical_disk").system.algebroid, ((-1.0, 1.0),) * 4),
    # the gallery's frame derivatives leave one term per sum; here the
    # Gram-Schmidt, the stencil and every mat-vec carry roundoff
    "twisted_affine": (lambda: affine_constraints(*twisted_affine()).algebroid, ((-1.0, 1.0),) * 3),
    # a non-flat E whose C depends on q, so every pair bracket is a contraction
    "non_flat_frame": (lambda: projector_restriction(*_full_frame(random_adapted_algebroid())), ((-1.0, 1.0),) * 2),
}


class TestStackedRead:
    """A stacked read of a kernel algebroid builds the stack in one pass (its C's stack form), with the
    pointwise bits, and keeps it, so that the point reads that follow find it."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("system", KERNEL_SYSTEMS)
    def test_stacked_values_are_the_pointwise_bits(self, system, seed, monkeypatch):
        build, box = KERNEL_SYSTEMS[system]
        Q = sample_box(box, 256, seed)
        expect = dict(zip(map(bytes, Q), kernel_reads(build(), Q)))
        rng = np.random.default_rng(seed)
        orders = {
            "sampled": Q,
            "reversed": Q[::-1],
            "shuffled": rng.permutation(Q),
            "duplicates": np.concatenate([Q[:150], Q[50:], Q[::-3]]),
        }
        frames_calls = counted_frames(monkeypatch)
        for name, stack in orders.items():
            A = build()
            assert stacked_reads(A, stack) == [expect[bytes(q)] for q in stack], name
            frames_calls.clear()
            assert kernel_reads(A, Q) == [expect[bytes(q)] for q in Q], name
            assert frames_calls == [], name  # every read was served by the stacked read's build
        # after anchor reads, which keep nothing
        A = build()
        for q in Q[::3]:
            A.anchor_at(q)
        assert stacked_reads(A, Q) == [expect[bytes(q)] for q in Q]
        frames_calls.clear()
        assert kernel_reads(A, Q) == [expect[bytes(q)] for q in Q]
        assert frames_calls == []

    def test_frames_calls_of_a_cold_build_and_of_a_chunk(self, monkeypatch):
        frames_calls = counted_frames(monkeypatch)
        A = instantiate("rolling_ball").system.algebroid
        Q = sample_box(instantiate("rolling_ball").default_box, 65, 3)
        frames_calls.clear()
        A.structure_at(Q[0])
        assert frames_calls == [1, 6]  # the point, then its stencil
        frames_calls.clear()
        algebroid._read_at(A, Q[1:])
        assert frames_calls == [64, 64 * 6]  # the chunk's points, then all their stencils
        frames_calls.clear()
        algebroid._read_at(A, Q)  # a chunk holding a point that the last build does not is built whole
        assert frames_calls == [65, 65 * 6]
        frames_calls.clear()
        kernel_reads(A, Q)
        assert frames_calls == []
        stacked = stacked_reads(A, Q[7:30])  # a chunk whose points the last build holds is read from it
        assert frames_calls == [] and stacked == kernel_reads(A, Q[7:30])

    @pytest.mark.parametrize("build", ["tangent", "force_extension"])
    def test_a_sweep_without_a_kernel_reads_its_stacks(self, build, monkeypatch):
        # a constant tangent algebroid broadcasts, the per-read wrapper reads per point; no chunk is rerun
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 4)
        A = lie_tangent(2)
        if build == "force_extension":  # the per-read wrapper declares no stack form
            A = force_extension(A, Homomorphism(coeff=lambda q: np.array([[q[0], 0.3], [-0.2, q[1]]])))
        X = sample_box([(0.0, 1.0)] * 2, 10, 4)

        def row(x):
            return A.structure_at(x).sum() + A.anchor_at(x).sum()

        stacks = []

        def stacked(Y):
            stacks.append(len(Y))
            return np.array([rho.sum() + C.sum() for rho, C in zip(*algebroid._read_at(A, Y))])

        rows = algebroid.sweep(X, stacked, lambda x: pytest.fail("a chunk was rerun point by point"))
        assert stacks == [4, 4, 2]
        assert np.array(rows).tobytes() == np.array([row(x) for x in X]).tobytes()

    def test_a_sweep_over_the_v_restriction_builds_its_base(self, monkeypatch):
        # cocycle-check --on v: the restriction's stack forms slice its base's stacks
        frames_calls = counted_frames(monkeypatch)
        gs = instantiate("rolling_ball")
        V = algebroid.v_restriction(gs.system.algebroid)
        phi = DualSection(components=lambda q: np.array([q[0], 0.5, -q[1]]))
        frames_calls.clear()
        report = check_cocycle(V, phi, gs.default_box, 16, 7)
        assert frames_calls == [16, 16 * 6]  # one stacked build of the chunk, which serves every read
        assert report.samples == 16 and np.isfinite(report.max_violation)

    @staticmethod
    def _failing_system(bad, nan_near):
        """A force-extended projector restriction of the plane whose E raises
        DomainError in its structure at the point ``bad`` and, with
        ``nan_near``, whose first frame field is NaN within 1e-4 of (but not
        at) the point ``nan_near``, i.e. at its stencil points only."""
        chart = Chart(dim=2, coord_names=("a", "b"))
        eye = np.eye(2)

        def structure(q):
            if np.array_equal(q, bad):
                raise DomainError(f"no structure at q={q.tolist()}")
            return np.zeros((2, 2, 2))

        def X1(q):
            near = nan_near is not None and 0.0 < np.max(np.abs(q - nan_near)) < 1e-4
            return np.array([np.nan if near else 1.0, 0.1 * q[0]])

        E = SkewAlgebroid(chart=chart, rank=2, anchor=lambda q: eye, structure=structure)
        D = projector_restriction(E, [ESection(components=X1), constant_section([0.0, 1.0])],
                                  lambda q, v, M: np.array([v[0], v[1] - 0.1 * q[0] * v[0]]))
        H = ScalarField(eval=lambda x: 0.5 * float(x[2:] @ x[2:]), grad=lambda x: np.concatenate([[0.0, 0.0], x[2:]]))
        return HamiltonianSystem(algebroid=force_extension(D, None), H=H)

    @pytest.mark.parametrize("nan_near", [True, False])
    @pytest.mark.parametrize("check", ["hj-check", "cocycle-check", "morphism-check"])
    def test_errors_are_those_of_the_pointwise_sweep(self, check, nan_near, monkeypatch):
        box = [(0.0, 1.0), (0.0, 1.0)]
        if check == "hj-check":
            points = grid_points(box, 4)[2]
        else:
            points = sample_box(box, 16, 7)
        bad = points[3]  # E's structure raises here; the stencil of point 7 meets NaN frames

        def run(stacked=True):
            sys_ = self._failing_system(bad, points[7] if nan_near else None)
            if not stacked:  # a pointwise sweep: every chunk one point, which on_stack reads by the point forms
                monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 1)
            if check == "hj-check":
                alpha = DualSection(components=lambda q: np.array([0.5, q[0]]), space="V*")
                hj_grid_check(sys_, alpha, box, 4)
            elif check == "cocycle-check":
                check_cocycle(sys_.algebroid, DualSection(components=lambda q: np.eye(3)[0]), box, 16, 7)
            else:
                pair = MorphismPair(base_map=lambda q: q, fiber_map=lambda q, p: p)
                morphism_check(sys_, sys_, pair, box, samples=16, seed=7)

        with pytest.raises(DomainError) as stacked:
            run()
        with pytest.raises(DomainError) as pointwise:
            run(stacked=False)
        assert str(stacked.value) == str(pointwise.value) == f"no structure at q={bad.tolist()}"

    def test_a_failed_stacked_read_raises_and_keeps_the_previous_build(self, monkeypatch):
        frames_calls = counted_frames(monkeypatch)
        Q = sample_box([(0.0, 1.0), (0.0, 1.0)], 8, 5)
        A = self._failing_system(Q[3], Q[6]).algebroid
        algebroid._read_at(A, Q[:3])
        kept = kernel_reads(A, Q[:3])
        frames_calls.clear()
        with pytest.raises(NumericFailure, match=re.escape(f"function evaluation non-finite near q={Q[6].tolist()}")):
            algebroid._read_at(A, Q)
        assert frames_calls == [8, 8 * 4]  # built up to the NaN stencil values, then dropped
        frames_calls.clear()
        assert kernel_reads(A, Q[:3]) == kept
        assert frames_calls == []  # the previous build serves its points
        A.structure_at(Q[4])
        assert frames_calls == [1, 4]  # a cold pointwise build


def ball_ambient_loop(omega_t):
    """The ball's ambient C_E at the table's angular velocity omega_t, built by
    a loop: written pair by pair, then each skew row negated whole, so the
    rows that mirror zeros hold -0.0."""
    C = np.zeros((6, 6, 6))
    C[0, 1, 2] = -omega_t
    C[0, 2, 1] = omega_t
    C[3, 4, 5] = 1.0
    C[4, 5, 3] = 1.0
    C[3, 5, 4] = -1.0
    for a, b in ((0, 1), (0, 2), (3, 4), (4, 5), (3, 5)):
        C[b, a] = -C[a, b]
    return C


def affine_reference_reads(E, ambient, U_data, Q):
    """The bytes of an affine kernel's anchor and C at each row of Q by the
    per-pair arithmetic, as ``kernel_reads`` gives them: per point, the frame
    and its stencil orthonormalized afresh, ``ambient(q)`` (C_E) contracted
    with the frame pairs in one einsum, and each pair projected on its own
    with a leading 0.0 concatenated."""
    G, U, X0 = U_data
    I, J = np.triu_indices(len(U) + 1, 1)
    out = []
    for q in Q:
        M = stacked_frames(G, U, X0, q[None])[0]
        dM = fd_jacobian(lambda X: stacked_frames(G, U, X0, X), q, stacked=True).reshape(M.shape + q.shape)
        rhoE = E.anchor_at(q)
        brackets = np.einsum("abg,pa,pb->pg", ambient(q), M[I], M[J])
        anchored, rows = M @ rhoE.T, M[1:] @ G.at(q)
        C = np.zeros((len(M),) * 3)
        for p, (i, j) in enumerate(zip(I, J)):
            C[i, j] = np.concatenate([[0.0], rows @ (brackets[p] + dM[j] @ anchored[i] - dM[i] @ anchored[j])])
            C[j, i] = -C[i, j]
        out.append((rhoE @ M.T).tobytes() + C.tobytes())
    return out


def dense_affine():
    """(E, G, U_basis, X0) of affine constraints over constant, dense data: a
    rank-5 E on a 2-D chart with a q-dependent anchor and a constant C_E, a
    metric, U basis and G-orthogonal drift without zero entries, so every
    projected pair sums five non-zero products."""
    rng = np.random.default_rng(47)
    CE = rng.normal(size=(5, 5, 5))
    L = rng.normal(size=(5, 5))
    G = L @ L.T + 5.0 * np.eye(5)
    B = rng.normal(size=(2, 5))
    v = rng.normal(size=5)
    X0 = v - B.T @ np.linalg.solve(B @ G @ B.T, B @ G @ v)
    E = SkewAlgebroid(chart=Chart(dim=2, coord_names=("a", "b")), rank=5,
                      anchor=lambda q: np.array([[1.0, q[0], 0.3, -q[1], 0.5], [q[1], 1.0, -0.2, 0.7, q[0] * q[1]]]),
                      structure=algebroid._Constant(CE - CE.transpose(1, 0, 2)))
    return E, MetricField.constant(G), [constant_section(b) for b in B], constant_section(X0)


class TestBallKernelArithmetic:
    """The ball's kernel reads its constant bracket data once and projects
    all frame pairs in one product, with the bits of the per-pair arithmetic."""

    @pytest.mark.parametrize("read", ["pointwise", "stacked"])
    @pytest.mark.parametrize("omega", ["constant", "linear"])
    def test_reads_are_the_per_pair_reference_bits(self, omega, read, monkeypatch):
        gs, U_data, _ = affine_kernel(monkeypatch, lambda: instantiate("rolling_ball", omega=omega))
        Om0 = gs.params["Omega0"]
        Q = sample_box(gs.default_box, 500, 41)
        Q[0, 0] = -0.0  # t = -0.0: omega(t) is -0.0 under the linear law
        Q[1] = [0.0, -0.0, 0.0]
        A = gs.system.algebroid
        ambient = lambda q: ball_ambient_loop(Om0 if omega == "constant" else Om0 * q[0])
        expect = affine_reference_reads(gs.extras["ambient"], ambient, U_data, Q)
        if read == "stacked":
            assert stacked_reads(A, Q) == expect
        assert kernel_reads(A, Q) == expect

    @pytest.mark.parametrize("read", ["pointwise", "stacked"])
    def test_dense_rows_project_with_the_per_pair_bits(self, read):
        # the ball's rows hold two non-zero entries each, so any summation order gives its bits; these
        # do not, and a gemm ``vals @ rows.T`` in place of the stacked mat-vec changes them
        E, G, U, X0 = dense_affine()
        A = affine_constraints(E, G, U, X0).algebroid
        Q = sample_box(((-2.0, 2.0),) * 2, 500, 43)
        Q[0] = [-0.0, 0.5]
        expect = affine_reference_reads(E, E.structure_at, (G, U, X0), Q)
        if read == "stacked":
            assert stacked_reads(A, Q) == expect
        assert kernel_reads(A, Q) == expect

    def test_the_constant_ambient_is_the_loop_bytes(self):
        E = instantiate("rolling_ball").extras["ambient"]
        assert type(E._structure) is algebroid._Constant
        assert E.structure_at(np.zeros(3)).tobytes() == ball_ambient_loop(1.0).tobytes()
        assert np.signbit(E._structure.value[1, 0, 0])  # a mirrored zero

    def test_the_linear_ambient_is_the_loop_bytes(self):
        gs = instantiate("rolling_ball", {"Omega0": 1.3}, omega="linear")
        E = gs.extras["ambient"]
        for t in [0.0, -0.0, *np.random.default_rng(43).uniform(-7.0, 7.0, 200)]:
            q = np.array([t, 0.4, -1.1])
            assert E.structure_at(q).tobytes() == ball_ambient_loop(1.3 * t).tobytes(), t
            assert E.structure_at(q) is not E.structure_at(q)  # a fresh copy of the template per read

    @pytest.mark.parametrize("omega, ambient_calls", [("constant", 0), ("linear", 1)])
    def test_a_cold_read_runs_one_stencil(self, omega, ambient_calls, monkeypatch):
        # the stencil is what perfbench's tracer sees as a kernel build; the constant frame's is exact zeros
        gs = instantiate("rolling_ball", omega=omega)
        E, A = gs.extras["ambient"], gs.system.algebroid
        reads, stencils = [], []
        real_read, real_stencil = SkewAlgebroid.structure_at, constructions.fd_jacobian
        monkeypatch.setattr(SkewAlgebroid, "structure_at", lambda self, q: reads.append(self) or real_read(self, q))
        monkeypatch.setattr(constructions, "fd_jacobian", lambda *a, **kw: stencils.append(a) or real_stencil(*a, **kw))
        A.structure_at(np.array([0.3, 0.5, -0.4]))
        assert [B for B in reads if B is E] == [E] * ambient_calls
        assert len(stencils) == 1


def wrapped_force_extension(base, F):
    """The force extension as a wrapper layer over its base reads it: per read, the base's anchor and C copied
    into zero padded arrays, then the force rows; a stacked read of it reads per point."""
    n, m = base.rank + 1, base.chart.dim

    def anchor(q):
        out = np.zeros((m, n))
        out[:, 1:] = base.anchor_at(q)
        return out

    def structure(q):
        C = np.zeros((n, n, n))
        C[1:, 1:, 1:] = base.structure_at(q)
        if F is not None:
            C[0, 1:, 1:] = -F.at(q)
            C[1:, 0] = -C[0, 1:]
        return C

    return SkewAlgebroid(chart=base.chart, rank=n, anchor=anchor, structure=structure, adapted=True)


def _twist(q):  # a q-dependent force on a rank-3 kernel
    return np.array([[math.sin(q[0]), q[1], -0.4], [0.3, 1.0 + q[0] * q[1], math.cos(q[-1])], [-q[0], 0.0, 0.7]])


def _forced_disk(params):
    def build(wrapped):
        gs = instantiate("vertical_disk", params)
        if wrapped:
            return wrapped_force_extension(gs.extras["constraint_algebroid"], gs.extras["force"]), gs.system.H
        return gs.system.algebroid, gs.system.H

    return build


def _forced_kernel(kernel):
    def build(wrapped):
        extend = wrapped_force_extension if wrapped else force_extension
        A = extend(kernel(), Homomorphism(coeff=_twist))
        return A, ScalarField(eval=lambda x: 0.5 * float(x[A.chart.dim:] @ x[A.chart.dim:]))

    return build


FORCED_KERNELS = {  # name -> (build(wrapped) -> (a fresh forced algebroid, a Hamiltonian), a box of points)
    "vertical_disk": (_forced_disk(None), ((-4.0, 4.0),) * 4),
    "vertical_disk-K2.5-J0.7": (_forced_disk({"K": 2.5, "J": 0.7}), ((-4.0, 4.0),) * 4),
    # frames that vary with q under a q-dependent force; the second over a non-identity anchor and a non-flat E
    "twisted_affine": (_forced_kernel(lambda: affine_constraints(*twisted_affine()).algebroid), ((-1.0, 1.0),) * 3),
    "non_flat_frame": (_forced_kernel(lambda: projector_restriction(*_full_frame(random_adapted_algebroid()))),
                       ((-1.0, 1.0),) * 2),
}


def forced_points(box, n=500):
    Q = sample_box(box, n, 53)
    Q[0, -1] = -0.0
    Q[1, 0] = -0.0
    return Q


class TestForcedKernel:
    """A force extension of a construction kernel is built by the kernel: one padded anchor and C per read, with
    the bits of the wrapper layer that copied the kernel's own values into padded arrays."""

    @pytest.mark.parametrize("read", ["pointwise", "stacked"])
    @pytest.mark.parametrize("system", FORCED_KERNELS)
    def test_reads_are_the_wrapper_bits(self, system, read):
        build, box = FORCED_KERNELS[system]
        Q = forced_points(box)
        (A, _), (ref, _) = build(False), build(True)
        V, Vref = algebroid.v_restriction(A), algebroid.v_restriction(ref)
        if read == "stacked":  # the wrapper's stacked read is per point, the kernel's one build
            assert stacked_reads(A, Q) == stacked_reads(ref, Q)
            assert stacked_reads(V, Q) == stacked_reads(Vref, Q)
        assert kernel_reads(A, Q) == kernel_reads(ref, Q)  # C, then the anchor
        assert kernel_reads(V, Q) == kernel_reads(Vref, Q)
        assert not A.structure_at(Q[0]).flags.writeable and not A.anchor_at(Q[0]).flags.writeable

    @pytest.mark.parametrize("system", FORCED_KERNELS)
    def test_cold_anchor_reads_are_the_wrapper_bits(self, system):
        build, box = FORCED_KERNELS[system]
        (A, _), (ref, _) = build(False), build(True)
        for q in forced_points(box):
            assert A.anchor_at(q).tobytes() == ref.anchor_at(q).tobytes()

    @pytest.mark.parametrize("system", FORCED_KERNELS)
    def test_dissipation_rows_across_a_chunk_boundary(self, system):
        build, box = FORCED_KERNELS[system]
        Q = forced_points(box, algebroid.PREFETCH_CHUNK + 76)
        r = build(False)[0].rank - 1
        X = np.concatenate([Q, np.sin(np.arange(len(Q) * r)).reshape(len(Q), r)], axis=1)

        def rows(wrapped):  # the dissipation command's H and rate columns, a stacked call per chunk
            A, H = build(wrapped)
            sys_ = HamiltonianSystem(algebroid=A, H=H)
            return np.array(algebroid.sweep(
                X, lambda Y: np.column_stack([[sys_.H(x) for x in Y], hamilton.dissipation_rate(sys_, Y)]),
                lambda x: (sys_.H(x), hamilton.dissipation_rate(sys_, x))))

        got = rows(False)
        assert got.tobytes() == rows(True).tobytes()
        assert np.count_nonzero(got[:, 1]) > len(X) // 2  # the force rows are not zero

    def test_a_cold_disk_c_read_calls_x1_once_and_allocates_one_c(self, monkeypatch):
        A = instantiate("vertical_disk").system.algebroid
        Q = seeded_points(4, n=20, seed=57)
        x1_calls, tensors = [], []
        real_zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **kw: tensors.append(shape) or real_zeros(shape, *a, **kw))

        def profile(frame, event, arg):  # the disk's frame field X1, however it is called
            if event == "call" and frame.f_code.co_name == "X1" and frame.f_code.co_filename == gallery.__file__:
                x1_calls.append(event)

        sys.setprofile(profile)
        try:
            for q in Q:
                A.structure_at(q)
        finally:
            sys.setprofile(None)
        # the projector reads the kernel's frame, where it called X1 again; one C, where the base's was copied
        assert len(x1_calls) == len(Q)
        assert [s for s in tensors if isinstance(s, tuple) and len(s) == 3] == [(3, 3, 3)] * len(Q)


class TestLastBuild:
    """The kernel keeps only the values of its last build: those of the one
    point whose C a read built, or those of the last stack a stacked read built.  So
    what it holds is bounded by construction."""

    def test_a_long_integration_and_a_chunk_keep_only_the_last_build(self, monkeypatch):
        stacks = counted_frames(monkeypatch, log=np.copy)
        gs = instantiate("vertical_disk")
        A = gs.system.algebroid
        q0 = np.array(gs.default_q0)
        stacks.clear()
        integrate_hamilton(gs.system, np.concatenate([q0, gs.section("reference")(q0)]), 0.0, 4.1, 1e-3)
        # 16,400 stage points, past the 16,384 of the retired memo: one frame each (the disk's
        # frame derivative is analytic, so no stencil), built by the stage's C read
        assert [len(Q) for Q in stacks] == [1] * 16_400
        first, last = stacks[0][0], stacks[-1][0]
        stacks.clear()
        kernel_reads(A, [last])
        assert stacks == []  # the last point whose C was built is served
        kernel_reads(A, [first])
        assert [len(Q) for Q in stacks] == [1]  # a point read before the last build is built again
        Q = sample_box(gs.default_box, 64, 3)
        stacks.clear()
        algebroid._read_at(A, Q)
        assert [len(Q) for Q in stacks] == [64]
        stacks.clear()
        kernel_reads(A, Q)
        assert stacks == []  # every point of the last chunk is served
        kernel_reads(A, [first])
        assert [len(Q) for Q in stacks] == [1]  # built before the chunk, so built again
        stacks.clear()
        kernel_reads(A, Q[:1])
        assert [len(Q) for Q in stacks] == [1]  # that C build replaced the chunk

    @pytest.mark.parametrize("omega", ["constant", "linear"])
    def test_a_cold_stage_or_residual_on_the_ball_builds_one_frame(self, omega, monkeypatch):
        frames_calls = counted_frames(monkeypatch)
        gs = instantiate("rolling_ball", omega=omega)
        alpha = gs.section("reference")
        q, r = np.array([0.3, 0.5, -0.4]), np.array([0.6, -0.2, 0.1])
        frames_calls.clear()
        hamilton_rhs(gs.system, 0.0, np.concatenate([q, alpha(q)]))
        assert frames_calls == [1, 6]  # the C read builds the point; the anchor read that follows is served
        frames_calls.clear()
        hj_residual(gs.system, alpha, r)
        assert frames_calls == [1, 6]  # the projected field's anchor read comes after the C read
        frames_calls.clear()
        gs.system.algebroid.anchor_at(q)
        gs.system.algebroid.anchor_at(q)
        assert frames_calls == [1, 1]  # an anchor read of another point keeps nothing
        gs.system.algebroid.anchor_at(r)
        assert frames_calls == [1, 1]  # and leaves the last build in place


def _gallery_build(system, omega):
    def build():
        gs = instantiate(system, omega=omega)
        return gs.system.algebroid, gs.default_box

    return build


ADAPTED_BUILDS = {  # name -> a fresh adapted algebroid of a builder and a box of points
    **{f"{system}-{omega}": _gallery_build(system, omega) for system, omega in GALLERY_CASES},
    "twisted_affine": lambda: (affine_constraints(*twisted_affine()).algebroid, ((-1.0, 1.0),) * 3),
    "q_dependent_force": lambda: (force_extension(lie_tangent(2), Homomorphism(
        coeff=lambda q: np.array([[math.sin(q[0]), q[1]], [0.3, 1.0 + q[0] * q[1]]]))), ((-1.0, 1.0),) * 2),
}


class TestAdaptedness:
    @pytest.mark.parametrize("read", ["pointwise", "stacked"])
    @pytest.mark.parametrize("name", ADAPTED_BUILDS)
    def test_builders_write_exact_zero_cocycle_components(self, name, read):
        # the builders' promise C_ab^0 = 0, which no construction checks at run time
        A, box = ADAPTED_BUILDS[name]()
        assert A.adapted
        Q = sample_box(box, 64, 23)
        if read == "stacked":  # a kernel's build, a broadcast constant or per-point reads
            assert np.all(algebroid._read_at(A, Q)[1][..., 0] == 0.0)
        for q in Q:
            assert np.all(A.structure_at(q)[:, :, 0] == 0.0)


ANCHOR_SYSTEMS = {  # name -> a fresh algebroid whose anchor the kernel builds
    "rolling_ball-constant": lambda: instantiate("rolling_ball").system.algebroid,
    "rolling_ball-linear": lambda: instantiate("rolling_ball", omega="linear").system.algebroid,
    "disk_constraint": lambda: instantiate("vertical_disk").extras["constraint_algebroid"],
    "vertical_disk": lambda: instantiate("vertical_disk").system.algebroid,
    "twisted_affine": lambda: affine_constraints(*twisted_affine()).algebroid,
}


class TestReadOnlyAnchor:
    @pytest.mark.parametrize("read", ["pointwise", "stacked"])
    @pytest.mark.parametrize("system,view", [(name, False) for name in ANCHOR_SYSTEMS]
                             + [(name, True) for name in ANCHOR_SYSTEMS if name != "disk_constraint"])
    def test_a_write_to_the_memoized_anchor_raises(self, system, view, read):
        # the anchor used to be writable, so a write changed every later read of q
        A = ANCHOR_SYSTEMS[system]()
        q = np.linspace(0.1, 0.4, A.chart.dim)
        if read == "stacked":  # two points, so the kernel builds them as a stack
            algebroid._read_at(A, np.stack([q, -q]))
        B = algebroid.v_restriction(A) if view else A
        before = B.anchor_at(q).copy()
        with pytest.raises(ValueError, match="read-only"):
            B.anchor_at(q)[0, 0] = 99.0
        assert B.anchor_at(q).tobytes() == before.tobytes()


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

import math
import re

import numpy as np
import pytest

from algebroid_mech import (
    CheckReport,
    Chart,
    DualSection,
    ESection,
    NumericFailure,
    ScalarField,
    SkewAlgebroid,
    adapted_cocycle,
    anchor_apply,
    bracket,
    check_cocycle,
    constant_section,
    d_function,
    d_oneform_eval,
    d_oneform_matrix,
    flag_rank,
    instantiate,
    v_restriction,
)
from algebroid_mech.algebroid import FLAG_FD_SCALE, _svd_rank, sample_box
from algebroid_mech.calculus import fd_gradient, fd_jacobian
from algebroid_mech.gallery import GALLERY_IDS

from conftest import (
    N_SAMPLES,
    SEED,
    lie_tangent,
    nan_structure_at,
    seeded_points,
    smooth_field,
    smooth_section,
)


class TestAnchorApply:
    def test_zero_section(self, adapted_algebroid):
        q = np.array([0.2, -0.4])
        v = anchor_apply(adapted_algebroid, constant_section(np.zeros(3)), q)
        assert np.all(v == 0.0)

    def test_tangent_identity(self):
        A = lie_tangent(3)
        sec = smooth_section(3, 3, seed=5)
        q = np.array([0.1, 0.2, 0.3])
        assert np.allclose(anchor_apply(A, sec, q), sec(q))

    def test_disk_constraint_frame(self, disk):
        # anchored first frame field of the constraint algebroid at phi=0
        D = disk.extras["constraint_algebroid"]
        q = np.array([0.5, -0.3, 0.2, 0.0])
        v = anchor_apply(D, D.basis_section(0), q)
        s = math.sqrt(2.0)  # sqrt(m R^2 + I) with unit parameters
        assert np.allclose(v, [1.0 / s, 0.0, 1.0 / s, 0.0], atol=1e-12)


class TestBracket:
    def test_self_bracket_zero(self, adapted_algebroid):
        sec = smooth_section(3, 2, seed=7)
        for q in seeded_points(2, n=16):
            assert np.all(bracket(adapted_algebroid, sec, sec)(q) == 0.0)

    def test_constant_basis_sections_recover_structure(self, adapted_algebroid):
        A = adapted_algebroid
        for q in seeded_points(2, n=16, seed=3):
            C = A.structure_at(q)
            for a in range(A.rank):
                for b in range(A.rank):
                    got = bracket(A, A.basis_section(a), A.basis_section(b))(q)
                    assert np.allclose(got, C[a, b], atol=1e-12)

    def test_antisymmetry_exact(self, adapted_algebroid):
        s1 = smooth_section(3, 2, seed=11)
        s2 = smooth_section(3, 2, seed=12)
        fwd = bracket(adapted_algebroid, s1, s2)
        rev = bracket(adapted_algebroid, s2, s1)
        for q in seeded_points(2, n=N_SAMPLES):
            assert np.all(fwd(q) + rev(q) == 0.0)

    def test_leibniz(self, adapted_algebroid):
        A = adapted_algebroid
        s1 = smooth_section(3, 2, seed=21)
        s2 = smooth_section(3, 2, seed=22)
        f = smooth_field(2, seed=23)
        fs2 = ESection(components=lambda q: f(q) * s2(q))
        lhs = bracket(A, s1, fs2)
        plain = bracket(A, s1, s2)
        worst = 0.0
        for q in seeded_points(2, n=N_SAMPLES):
            rho_s1 = anchor_apply(A, s1, q)
            rhs = f(q) * plain(q) + float(np.asarray(f.grad(q)) @ rho_s1) * s2(q)
            worst = max(worst, float(np.max(np.abs(lhs(q) - rhs))))
        assert worst < 1e-6

    def test_disk_projected_bracket_vanishes(self, disk):
        # the two constraint frame fields bracket into the orthogonal
        # complement, so the projected bracket is the zero section
        D = disk.extras["constraint_algebroid"]
        br = bracket(D, D.basis_section(0), D.basis_section(1))
        for q in seeded_points(4, n=8, seed=9):
            assert np.max(np.abs(br(q))) < 1e-9


class TestDifferential:
    def test_constant_function(self, adapted_algebroid):
        df = d_function(adapted_algebroid, lambda q: 3.5)
        assert np.all(df(np.array([0.1, 0.9])) == 0.0)

    def test_tangent_recovers_plain_differential(self):
        A = lie_tangent(2)
        f = smooth_field(2, seed=31)
        df = d_function(A, f)
        for q in seeded_points(2, n=16):
            assert np.allclose(df(q), f.grad(q), atol=1e-12)

    def test_ball_generating_function(self, ball):
        # d of g = phi1(t) q1 + phi2(t) q2 on the constrained kernel frame
        U = v_restriction(ball.system.algebroid)
        phi12 = ball.reference_solutions["phi12"]

        def g_eval(q):
            p1, p2 = phi12(q[0])
            return float(p1 * q[1] + p2 * q[2])

        dg = d_function(U, g_eval)
        N = ball.extras["frame_norm"]
        for q in seeded_points(3, n=8, seed=4):
            p1, p2 = phi12(q[0])
            expect = np.array([-p2, p1, 0.0]) / N
            assert np.max(np.abs(dg(q) - expect)) < 1e-9

    def test_product_rule(self, adapted_algebroid):
        A = adapted_algebroid
        f = smooth_field(2, seed=41)
        g = smooth_field(2, seed=42)
        dfg = d_function(A, ScalarField(eval=lambda q: f(q) * g(q)))
        df = d_function(A, f)
        dg = d_function(A, g)
        worst = 0.0
        for q in seeded_points(2, n=N_SAMPLES):
            rhs = f(q) * dg(q) + g(q) * df(q)
            worst = max(worst, float(np.max(np.abs(dfg(q) - rhs))))
        assert worst < 1e-7


def _nested_d_oneform_eval(A, alpha, sigma, gamma, q):
    """d alpha(sigma, gamma) by its defining formula, as the library
    evaluated it before the matrix form: gradients of alpha(gamma) and
    alpha(sigma) by central differences, and the bracket of the two
    sections, which differences each of them again."""
    q = np.asarray(q, dtype=float)
    rho = A.anchor_at(q)
    vs = rho @ sigma(q)
    vg = rho @ gamma(q)
    t1 = float(fd_gradient(lambda qq: float(alpha(qq) @ gamma(qq)), q) @ vs)
    t2 = float(fd_gradient(lambda qq: float(alpha(qq) @ sigma(qq)), q) @ vg)
    t3 = float(alpha(q) @ bracket(A, sigma, gamma)(q))
    return (t1 - t2) - t3


class TestOneForm:
    def test_matches_nested_reference_on_smooth_sections(self, adapted_algebroid, ball):
        # the reference differences alpha(sigma) and alpha(gamma), so its roundoff
        # scales with |alpha| |sigma|; the gap is bounded relative to that scale
        U = v_restriction(ball.system.algebroid)
        for A, seed in ((adapted_algebroid, 56), (lie_tangent(2), 66), (U, 76)):
            n, m = A.rank, A.chart.dim
            alpha = DualSection(components=smooth_section(n, m, seed=seed).components)
            s1, s2 = smooth_section(n, m, seed=seed + 1), smooth_section(n, m, seed=seed + 2)
            worst = 0.0
            for q in seeded_points(m, n=32, seed=seed):
                gap = abs(d_oneform_eval(A, alpha, s1, s2, q) - _nested_d_oneform_eval(A, alpha, s1, s2, q))
                scale = max(1.0, np.linalg.norm(alpha(q)) * max(np.linalg.norm(s1(q)), np.linalg.norm(s2(q))))
                worst = max(worst, gap / scale)
            assert worst < 1e-9

    @pytest.mark.parametrize("system_id", sorted(GALLERY_IDS))
    def test_matrix_antisymmetric_exact(self, system_id):
        A = instantiate(system_id).system.algebroid
        alpha = DualSection(components=smooth_section(A.rank, A.chart.dim, seed=57).components)
        for q in seeded_points(A.chart.dim, n=8, seed=58):
            D = d_oneform_matrix(A, alpha(q), alpha.jac(q), q)
            assert D.shape == (A.rank, A.rank) and np.all(D == -D.T)

    def test_same_section_gives_zero(self, adapted_algebroid):
        alpha = DualSection(components=smooth_section(3, 2, seed=51).components)
        sec = smooth_section(3, 2, seed=52)
        q = np.array([0.3, 0.4])
        assert d_oneform_eval(adapted_algebroid, alpha, sec, sec, q) == 0.0

    def test_antisymmetry_exact(self, adapted_algebroid):
        alpha = DualSection(components=smooth_section(3, 2, seed=53).components)
        s1 = smooth_section(3, 2, seed=54)
        s2 = smooth_section(3, 2, seed=55)
        for q in seeded_points(2, n=32):
            a = d_oneform_eval(adapted_algebroid, alpha, s1, s2, q)
            b = d_oneform_eval(adapted_algebroid, alpha, s2, s1, q)
            assert a == -b

    def test_exact_form_closed_on_lie_algebroid(self):
        A = lie_tangent(2)
        f = smooth_field(2, seed=61)
        df = d_function(A, f)
        s1 = smooth_section(2, 2, seed=62)
        s2 = smooth_section(2, 2, seed=63)
        worst = 0.0
        for q in seeded_points(2, n=64):
            worst = max(worst, abs(d_oneform_eval(A, df, s1, s2, q)))
        assert worst < 1e-7

    def test_d_squared_vanishes_on_lie_instances(self):
        # tangent bundle and its trivial-line extension are both Lie
        from algebroid_mech import force_extension

        for A in (lie_tangent(2), force_extension(lie_tangent(2), None)):
            f = smooth_field(2, seed=64)
            df = d_function(A, f)
            worst = 0.0
            for q in seeded_points(2, n=N_SAMPLES):
                for a in range(A.rank):
                    for b in range(a + 1, A.rank):
                        val = d_oneform_eval(A, df, A.basis_section(a), A.basis_section(b), q)
                        worst = max(worst, abs(val))
            assert worst < 1e-6

    def test_ball_two_form_coefficients(self, ball):
        # d alpha = c (phi1 e^3 + phi2 e^4) ^ e^5 on the kernel algebroid
        U = v_restriction(ball.system.algebroid)
        alpha = ball.extras["alpha_on_u"]
        phi12 = ball.reference_solutions["phi12"]
        c = 1.0 / 2.0 ** 1.5  # k r / (m (k^2+r^2)^{3/2}) at unit parameters
        for q in seeded_points(3, n=8, seed=6):
            p1, p2 = phi12(q[0])
            v35 = d_oneform_eval(U, alpha, U.basis_section(0), U.basis_section(2), q)
            v45 = d_oneform_eval(U, alpha, U.basis_section(1), U.basis_section(2), q)
            v34 = d_oneform_eval(U, alpha, U.basis_section(0), U.basis_section(1), q)
            assert abs(v35 - c * p1) < 1e-8
            assert abs(v45 - c * p2) < 1e-8
            assert abs(v34) < 1e-9


class TestCocycle:
    def test_force_extension_cocycle_exact(self, cylinder):
        A = cylinder.system.algebroid
        phi = DualSection(components=lambda q: np.array([1.0, 0.0, 0.0]))
        rep = check_cocycle(A, phi, box=[(-1, 1), (-1, 1)], samples=32, seed=SEED)
        assert rep.passed and rep.max_violation == 0.0

    def test_exact_coboundary_on_tangent(self):
        A = lie_tangent(2)
        f = smooth_field(2, seed=71)
        rep = check_cocycle(A, d_function(A, f), box=[(-1, 1), (-1, 1)], samples=64, seed=SEED)
        assert rep.passed

    def test_ball_section_fails_with_predicted_violation(self, ball):
        U = v_restriction(ball.system.algebroid)
        alpha = ball.extras["alpha_on_u"]
        box = [(0.0, 2.0 * math.pi), (-2.0, 2.0), (-2.0, 2.0)]
        rep = check_cocycle(U, alpha, box=box, samples=64, seed=SEED, tol=1e-9)
        assert not rep.passed
        # oracle: c * max(|phi1|, |phi2|) over the same seeded samples
        phi12 = ball.reference_solutions["phi12"]
        c = 1.0 / 2.0 ** 1.5
        expect = max(
            c * float(np.max(np.abs(phi12(q[0])))) for q in sample_box(box, 64, SEED)
        )
        assert abs(rep.max_violation - expect) < 1e-8

    def test_report_shape(self, cylinder):
        A = cylinder.system.algebroid
        phi = DualSection(components=lambda q: np.array([1.0, 0.0, 0.0]))
        rep = check_cocycle(A, phi, box=[(-1, 1), (-1, 1)], samples=8, seed=7)
        d = rep.to_json_dict()
        assert set(d) == {"name", "max_violation", "tol", "samples", "seed", "pass", "witnesses"}
        assert d["pass"] == (d["max_violation"] <= d["tol"])
        assert len(d["witnesses"]) <= 5

    def test_nan_at_a_later_sample_raises(self, cylinder):
        # Python's max() keeps a NaN only when it comes first; put it last
        box = [(-1, 1), (-1, 1)]
        bad = sample_box(box, 16, 7)[-1]
        A = nan_structure_at(cylinder.system.algebroid, bad)
        phi = DualSection(components=lambda q: np.array([1.0, 0.0, 0.0]))
        # every pair is NaN there; the first one is named
        with pytest.raises(NumericFailure, match=re.escape(f"d phi(e_0, e_1) non-finite at q={list(map(float, bad))}")):
            check_cocycle(A, phi, box=box, samples=16, seed=7)

    def test_empty_box_rejected(self, cylinder):
        A = cylinder.system.algebroid
        phi = DualSection(components=lambda q: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            check_cocycle(A, phi, box=[], samples=8, seed=7)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, cylinder, samples):
        A = cylinder.system.algebroid
        phi = DualSection(components=lambda q: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="samples must be >= 1"):
            check_cocycle(A, phi, box=[(-1, 1), (-1, 1)], samples=samples, seed=7)


def _pairwise_cocycle_report(A, phi, box, samples, seed, tol):
    """check_cocycle as one nested d phi evaluation per sample and frame pair."""
    worst = []
    for q in sample_box(box, samples, seed):
        v = 0.0
        for a in range(A.rank):
            for b in range(a + 1, A.rank):
                v = max(v, abs(_nested_d_oneform_eval(A, phi, A.basis_section(a), A.basis_section(b), q)))
        worst.append((q, v))
    worst.sort(key=lambda t: -t[1])
    return CheckReport(
        name="cocycle", max_violation=float(worst[0][1]), tol=tol, samples=samples, seed=seed,
        witnesses=tuple(worst[:5]),
    ).to_json_dict()


class TestCocycleSharedDerivatives:
    """check_cocycle folds one d_oneform_matrix per sample; its reports must
    equal the nested per-pair computation bit for bit."""

    @pytest.mark.parametrize("phi_kind", ["frame", "smooth"])
    @pytest.mark.parametrize("system_id", sorted(GALLERY_IDS))
    def test_equals_pairwise_d_oneform(self, system_id, phi_kind):
        gs = instantiate(system_id)
        A = gs.system.algebroid
        if phi_kind == "frame":
            e0 = np.zeros(A.rank)
            e0[0] = 1.0
            phi = DualSection(components=lambda q: e0)
        else:
            phi = DualSection(components=smooth_section(A.rank, A.chart.dim, seed=5).components)
        got = check_cocycle(A, phi, gs.default_box, samples=16, seed=11, tol=1e-9).to_json_dict()
        assert got == _pairwise_cocycle_report(A, phi, gs.default_box, 16, 11, 1e-9)
        if phi_kind == "smooth":
            assert got["max_violation"] > 1e-3

    @pytest.mark.parametrize("omega", ["constant", "linear"])
    def test_ball_section_on_kernel_equals_pairwise(self, omega):
        # the README's `cocycle-check rolling_ball --on v --section reference`
        gs = instantiate("rolling_ball", omega=omega)
        U = v_restriction(gs.system.algebroid)
        named = gs.section("reference")
        phi = DualSection(components=named.components, space="E*", jacobian=named.jacobian)
        got = check_cocycle(U, phi, gs.default_box, samples=8, seed=3, tol=1e-9).to_json_dict()
        assert got == _pairwise_cocycle_report(U, phi, gs.default_box, 8, 3, 1e-9)
        assert got["max_violation"] > 0.1

    def test_phi_evaluations_per_sample(self, cylinder):
        # 2m evaluations for the one Jacobian of phi, plus phi(q)
        A = cylinder.system.algebroid
        m = A.chart.dim
        calls = []

        def comps(q):
            calls.append(1)
            return np.array([1.0, 0.0, 0.0])

        check_cocycle(A, DualSection(components=comps), [(-1, 1), (-1, 1)], samples=5, seed=7)
        assert len(calls) == 5 * (2 * m + 1)


def _nested_flag_matrices(A, q, max_depth):
    """The field matrices of flag_rank with one nested stencil per Lie
    bracket field, re-evaluated at every depth."""
    m = A.chart.dim
    generators = [lambda qq, a=a: A.anchor_at(qq)[:, a] for a in range(A.rank)]

    def lie(f, g):
        def field(qq):
            h = FLAG_FD_SCALE * np.maximum(1.0, np.abs(qq))
            return fd_jacobian(g, qq, h=h) @ f(qq) - fd_jacobian(f, qq, h=h) @ g(qq)

        return field

    mats, level, all_fields = [], list(generators), list(generators)
    for depth in range(1, max_depth + 1):
        mats.append(np.column_stack([f(q) for f in all_fields]))
        if depth == max_depth or _svd_rank(mats[-1]) >= m:
            break
        new_level = [lie(f, g) for f in generators for g in level]
        new_level = new_level[: max(0, 256 - len(all_fields))]
        all_fields.extend(new_level)
        level = new_level
    return mats


def _never_generating(rank):
    """Fields along the first axis of the plane: no depth reaches rank 2."""
    chart = Chart(dim=2, coord_names=("a", "b"))
    return SkewAlgebroid(chart=chart, rank=rank, anchor=lambda q: np.array(
        [[math.sin((a + 1) * q[0]) + a * q[1] ** 2 for a in range(rank)], [0.0] * rank]))


class TestFlagRankLevels:
    """flag_rank brackets a whole level of fields with one stencil; its
    field matrices must equal the nested per-field computation bit for bit."""

    @pytest.mark.parametrize("case, depth", [("disk", 4), ("ball", 4), ("lie_tangent", 3), ("capped", 3)])
    def test_field_matrices_equal_nested_reference(self, case, depth, disk, ball, monkeypatch):
        A = {
            "disk": disk.extras["constraint_algebroid"],
            "ball": v_restriction(ball.system.algebroid),
            "lie_tangent": lie_tangent(3),
            "capped": _never_generating(7),  # 7 + 49 fields, then 200 of 343 under the cap
        }[case]
        seen = []
        monkeypatch.setattr("algebroid_mech.algebroid._svd_rank", lambda M: seen.append(M.copy()) or _svd_rank(M))
        for q in seeded_points(A.chart.dim, n=3, lo=-2.0, hi=2.0, seed=SEED + 7):
            seen.clear()
            flag_rank(A, q, depth)
            want = _nested_flag_matrices(A, q, depth)
            assert [M.shape for M in seen] == [M.shape for M in want]
            assert all(M.tobytes() == W.tobytes() for M, W in zip(seen, want))
        if case == "capped":
            assert seen[-1].shape == (2, 256)

    def test_disk_anchor_evaluations(self, disk):
        # one read per distinct point to full rank at depth 3: q, its 8 stencil points and the 32
        # that the level-3 stencils add (each two-axis point is reached from two stencil points)
        D, calls = disk.extras["constraint_algebroid"], []
        A = SkewAlgebroid(chart=D.chart, rank=D.rank, anchor=lambda q: calls.append(q.tobytes()) or D.anchor_at(q))
        assert flag_rank(A, np.array([0.3, -0.2, 0.5, 0.1]), 4) == [2, 3, 4, 4]
        assert len(calls) == len(set(calls)) == 41

    def test_disk_anchor_evaluations_with_scaled_steps(self, disk):
        # beyond |q_i| = 1 the steps scale with the coordinates, so fewer nested stencil points coincide
        D, calls = disk.extras["constraint_algebroid"], []
        A = SkewAlgebroid(chart=D.chart, rank=D.rank, anchor=lambda q: calls.append(q.tobytes()) or D.anchor_at(q))
        assert flag_rank(A, np.array([2.1, -1.3, 0.4, -2.9]), 4) == [2, 3, 4, 4]
        assert len(calls) == len(set(calls)) == 46

    @pytest.mark.parametrize("case", ["disk", "ball", "capped"])
    def test_anchor_read_once_per_distinct_point(self, case, disk, ball):
        # the nested stencils revisit points; a call keeps what it has read until it returns
        B = {
            "disk": disk.extras["constraint_algebroid"],
            "ball": v_restriction(ball.system.algebroid),
            "capped": _never_generating(3),
        }[case]
        calls = []
        A = SkewAlgebroid(chart=B.chart, rank=B.rank, anchor=lambda q: calls.append(q.tobytes()) or B.anchor_at(q))
        for q in seeded_points(A.chart.dim, n=3, lo=-2.0, hi=2.0, seed=SEED + 8):
            calls.clear()
            assert flag_rank(A, q, 4) == flag_rank(B, q, 4)
            assert len(calls) == len(set(calls)) > 1


class TestFlagRank:
    def test_involutive_tangent_plane(self):
        A = lie_tangent(2)
        assert flag_rank(A, np.array([0.3, 0.4]), 3) == [2, 2, 2]

    def test_line_field(self):
        chart = Chart(dim=2, coord_names=("a", "b"))
        A = SkewAlgebroid(
            chart=chart, rank=1, anchor=lambda q: np.array([[1.0], [0.0]])
        )
        assert flag_rank(A, np.array([0.1, 0.2]), 4) == [1, 1, 1, 1]

    def test_disk_distribution_bracket_generates(self, disk):
        D = disk.extras["constraint_algebroid"]
        pts = seeded_points(4, n=10, seed=SEED)
        for q in pts:
            ranks = flag_rank(D, q, 4)
            assert ranks[0] == 2
            assert 4 in ranks

    def test_depth_validation(self, disk):
        with pytest.raises(ValueError):
            flag_rank(disk.extras["constraint_algebroid"], np.zeros(4), 0)

    def test_non_finite_level_names_depth_and_point(self):
        # the SVD used to fail with numpy's "SVD did not converge" (a ValueError)
        chart = Chart(dim=2, coord_names=("a", "b"))
        A = SkewAlgebroid(chart=chart, rank=1, anchor=lambda q: np.array([[1.0], [q[0] * math.nan]]))
        with pytest.raises(NumericFailure, match=re.escape("flag depth 1 field matrix[1, 0] non-finite at q=[0.1, 0.2]")):
            flag_rank(A, np.array([0.1, 0.2]), 3)


def _one_bracket(c):
    """A rank-2 algebroid declared adapted whose one bracket is [[e_0, e_1]] = c e_0."""
    return SkewAlgebroid(
        chart=Chart(dim=1, coord_names=("x",)),
        rank=2,
        anchor=lambda q: np.array([[1.0, 0.0]]),
        structure=lambda q: np.array([[[0.0, 0.0], [c, 0.0]], [[-c, 0.0], [0.0, 0.0]]]),
        adapted=True,
    )


class TestAlgebroidModel:
    # adaptedness, C_ab^0 = 0, is measured by the cocycle check of e^0: d e^0(e_a, e_b) = -C_ab^0
    def test_adapted_cocycle_check_passes(self, adapted_algebroid):
        A = adapted_algebroid
        rep = check_cocycle(A, adapted_cocycle(A), box=[(-1.0, 1.0)] * 2, samples=8, seed=SEED, tol=1e-9)
        assert rep.passed and rep.max_violation == 0.0

    def test_adapted_cocycle_check_rejects(self):
        A = _one_bracket(0.5)
        rep = check_cocycle(A, adapted_cocycle(A), box=[(-1.0, 1.0)], samples=8, seed=SEED, tol=1e-9)
        assert not rep.passed and rep.max_violation == 0.5

    @pytest.mark.parametrize("c,passes", [(2e-9, False), (5e-10, True)])
    def test_adapted_cocycle_check_threshold_is_1e_9(self, c, passes):
        A = _one_bracket(c)
        rep = check_cocycle(A, adapted_cocycle(A), box=[(-1.0, 1.0)], samples=8, seed=SEED, tol=1e-9)
        assert rep.passed == passes
        assert rep.max_violation == c

    def test_adapted_cocycle_requires_adapted(self):
        with pytest.raises(ValueError, match="adapted_cocycle requires an adapted algebroid"):
            adapted_cocycle(lie_tangent(2))

    def test_structure_wrong_shape_rejected(self):
        chart = Chart(dim=1, coord_names=("x",))
        A = SkewAlgebroid(chart=chart, rank=2, anchor=lambda q: np.zeros((1, 2)), structure=lambda q: np.zeros(2))
        with pytest.raises(ValueError, match=r"structure must return shape \(2, 2, 2\)"):
            A.structure_at(np.zeros(1))

    def test_structure_must_be_callable(self):
        chart = Chart(dim=1, coord_names=("x",))
        with pytest.raises(TypeError):
            SkewAlgebroid(chart=chart, rank=2, anchor=lambda q: np.zeros((1, 2)), structure={})

    def test_structure_tensor_antisymmetric(self, adapted_algebroid):
        C = adapted_algebroid.structure_at(np.array([0.2, 0.6]))
        assert np.all(C + np.transpose(C, (1, 0, 2)) == 0.0)

    @pytest.mark.parametrize(
        "system_id,omega", [(g, "constant") for g in sorted(GALLERY_IDS)] + [("rolling_ball", "linear")]
    )
    def test_gallery_structure_antisymmetric(self, system_id, omega):
        # no data layout makes C antisymmetric, so every builder is held to it
        gs = instantiate(system_id, omega=omega)
        A = gs.system.algebroid
        algebroids = [A, v_restriction(A)] + [gs.extras[k] for k in ("constraint_algebroid", "ambient") if k in gs.extras]
        for B in algebroids:
            for q in sample_box(gs.default_box, 8, 17):
                C = B.structure_at(q)
                assert np.array_equal(C, -C.transpose(1, 0, 2))

    def test_v_restriction_requires_adapted(self):
        with pytest.raises(ValueError):
            v_restriction(lie_tangent(2))

    def test_v_restriction_shifts_structure(self, adapted_algebroid):
        V = v_restriction(adapted_algebroid)
        q = np.array([0.3, -0.2])
        assert V.rank == 2
        assert np.allclose(V.anchor_at(q), adapted_algebroid.anchor_at(q)[:, 1:])
        assert np.array_equal(V.structure_at(q), adapted_algebroid.structure_at(q)[1:, 1:, 1:])

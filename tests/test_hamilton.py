import math

import numpy as np
import pytest

from algebroid_mech import (
    Chart,
    DualSection,
    ESection,
    Homomorphism,
    HamiltonianSystem,
    NumericFailure,
    ScalarField,
    SkewAlgebroid,
    bracket,
    dissipation_rate,
    f_h_eval,
    force_extension,
    hamilton,
    hamilton_rhs,
    hj_grid_check,
    instantiate,
    integrate_hamilton,
    poisson_bracket_eval,
    projected_field,
)

from algebroid_mech.algebroid import _Constant, _read_at, d_oneform_matrix, sample_box
from algebroid_mech.gallery import GALLERY_IDS
from algebroid_mech.hamilton_jacobi import hj_forced_residual, hj_residual, hj_residual_dual

from conftest import (CONSTANT_SYSTEMS, N_SAMPLES, SEED, callable_path, lie_tangent, random_adapted_algebroid, seeded_points,
                      smooth_field)


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


# C_{0b}^c for b, c >= 1 with signed zeros, laid out as a force extension brackets e_0
SIGNED_ZERO_C0 = np.array([[-0.0, -1.25], [0.5, -0.0]])


def constant_system(C0, bracket=None):
    """A system over a constant anchor and C on a rank-3 algebroid over two
    coordinates: C_{0b}^c = C0, and with ``bracket`` also C_{12} = -C_{21},
    a non-zero C_V[1:]; H is a smooth seeded field."""
    C = np.zeros((3, 3, 3))
    C[0, 1:, 1:] = C0
    C[1:, 0, 1:] = -C[0, 1:, 1:]
    if bracket is not None:
        C[1, 2], C[2, 1] = bracket, np.negative(bracket)
    anchor = np.array([[0.25, 1.0, 0.0], [-0.5, 0.0, 1.0]])
    A = SkewAlgebroid(chart=Chart(dim=2, coord_names=("q0", "q1")), rank=3, anchor=_Constant(anchor),
                      structure=_Constant(C), adapted=True)
    return HamiltonianSystem(algebroid=A, H=smooth_field(4, 34))


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

    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS + ("signed_zero_extension",))
    def test_bound_coefficient_is_the_einsum_bits(self, system):
        S = constant_system(SIGNED_ZERO_C0) if system == "signed_zero_extension" else instantiate(system).system
        _, _, rhoVT, CV = S._bound
        K = S._coeff
        assert K is not None and not K.flags.writeable
        if system == "signed_zero_extension":
            assert ((CV[0] == 0.0) & np.signbit(CV[0])).any()
        rng = np.random.default_rng(31)
        n, m = S.n_momenta, S.chart.dim
        for _ in range(500):
            dHp, p = rng.normal(size=n) * 10.0 ** rng.uniform(-300.0, 300.0, n), rng.normal(size=n)
            for v in (dHp, p):
                zero = rng.random(n) < 0.25
                v[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
            dHq = rng.normal(size=m)
            assert K.tobytes() == np.einsum("abc,a->bc", CV, hamilton._zeta(dHp)).tobytes()
            assert (hamilton._pdot_rhs(p, dHq, dHp, rhoVT, CV, K).tobytes()
                    == hamilton._pdot_rhs(p, dHq, dHp, rhoVT, CV).tobytes())

    def test_a_bracketing_C_V_binds_no_coefficient(self):
        S = constant_system(SIGNED_ZERO_C0, bracket=[0.0, 0.3, -0.7])
        assert S._bound is not None and S._coeff is None
        X = seeded_points(4, n=300, lo=-2.0, hi=2.0, seed=32)
        assert [hamilton_rhs(S, 0.0, x).tobytes() for x in X] == [parent_rhs(S, x).tobytes() for x in X]

    @pytest.mark.parametrize("system", CONSTANT_SYSTEMS)
    def test_constant_systems_take_no_einsum(self, system, monkeypatch):
        gs = instantiate(system)
        S, alpha = gs.system, probe_section(gs)
        x0 = start_state(gs)

        def einsum(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(np, "einsum", einsum)
        with pytest.raises(AssertionError, match="einsum called"):  # the patch reaches the einsum path
            hamilton_rhs(constant_system(SIGNED_ZERO_C0, bracket=[0.0, 0.3, -0.7]), 0.0, np.zeros(4))
        for x in seeded_states(gs, 20, 33):
            hamilton_rhs(S, 0.0, x)
            hj_residual(S, alpha, x[:S.chart.dim])
        integrate_hamilton(S, x0, 0.0, 0.1, 0.01)


def overflowing_cylinder(k=300):
    """The cylinder's algebroid with p_theta growing as e^{2t} and H = the cylinder's H + p_theta^k, whose
    stencil slope k p_theta^(k-1) overflows for p_theta just below the overflow of p_theta^k itself, while
    every value of H and its q-differences stay finite; dH/dp_theta is then inf and dH/dq finite."""
    H = ScalarField(eval=lambda s: s[2] ** 2 / 2.0 + s[3] ** 2 / 2.0 + s[0] + s[3] ** k)
    return instantiate("cylinder_friction", {"K2": -2.0}).system.algebroid, H


def einsum_path(S):
    """A copy of S that binds no coefficient, so its momentum rates take the einsum."""
    plain = HamiltonianSystem(algebroid=S.algebroid, H=S.H)
    object.__setattr__(plain, "_coeff", None)
    return plain


class TestBoundCoefficientErrors:
    """With a bound coefficient every failure is raised by the same check, at the same step or grid point,
    as on the einsum path."""

    def test_a_non_finite_analytic_gradient_still_raises(self):
        A = instantiate("cylinder_friction").system.algebroid
        H = ScalarField(eval=lambda s: 0.5 * float(s @ s),
                        grad=lambda s: np.where(s > 0.5, np.inf, s))
        S = HamiltonianSystem(algebroid=A, H=H)
        assert S._coeff is not None
        alpha = DualSection(components=lambda q: np.array([1.0, q[0]]), space="V*",
                            jacobian=lambda q: np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NumericFailure, match=r"analytic gradient non-finite at q=\[0.0, 0.0, 0.75, 0.0\]"):
            hamilton_rhs(S, 0.0, np.array([0.0, 0.0, 0.75, 0.0]))
        with pytest.raises(NumericFailure, match=r"analytic gradient non-finite at q=\[0.5, 0.0, 1.0, 0.5\]"):
            hj_residual(S, alpha, np.array([0.5, 0.0]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_an_overflowing_stencil_gradient_fails_the_same_step(self, monkeypatch):
        # the slope overflows in the last stage of the step from t = 1.17
        S = HamiltonianSystem(*overflowing_cylinder())
        plain = einsum_path(S)
        assert S._coeff is not None
        rows = {id(S): [], id(plain): []}
        rhs = hamilton.hamilton_rhs

        def recording(sys_, t, x):
            rows[id(sys_)].append(rhs(sys_, t, x))
            return rows[id(sys_)][-1]

        monkeypatch.setattr(hamilton, "hamilton_rhs", recording)
        for sys_ in (S, plain):
            with pytest.raises(NumericFailure, match=r"state went non-finite at t=1\.18$") as err:
                integrate_hamilton(sys_, np.array([0.0, 0.0, 0.5, 1.0]), 0.0, 3.0, 1e-2)
            assert err.value.last_good_time == pytest.approx(1.17)
        bound, einsum = rows[id(S)], rows[id(plain)]
        assert len(bound) == len(einsum) and [r.tobytes() for r in bound[:-1]] == [r.tobytes() for r in einsum[:-1]]
        # the overflow reaches the bound path's last row through rho_V . dH/dp alone: its momentum rates stay finite
        assert bound[-1][:2].tobytes() == einsum[-1][:2].tobytes() and not np.isfinite(bound[-1][:2]).all()
        assert np.isfinite(bound[-1][2:]).all() and not np.isfinite(einsum[-1][2:]).any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_a_mid_step_overflow_fails_the_next_stage(self):
        # the slope overflows in an inner stage of the step from t = 0.88, so the next stage's state is non-finite
        # on both paths (the bound path keeps its momenta finite where the einsum path made them NaN); that stage's
        # stencil raises, and the integrator names the step in place of the stencil's message
        S = HamiltonianSystem(*overflowing_cylinder(400))
        for sys_ in (S, einsum_path(S)):
            with pytest.raises(NumericFailure, match=r"^state went non-finite at t=0\.89$") as err:
                integrate_hamilton(sys_, np.array([0.0, 0.0, 0.5, 1.0]), 0.0, 3.0, 1e-2)
            assert err.value.last_good_time == pytest.approx(0.88)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_an_overflowing_stencil_gradient_names_the_same_grid_point(self):
        # p_theta = 10.55 overflows the stencil at x = 0 alone; every other grid point's H stays finite
        S = HamiltonianSystem(*overflowing_cylinder())
        alpha = DualSection(components=lambda q: np.array([0.5, 10.55 - 5.0 * q[0] * q[0]]), space="V*",
                            jacobian=lambda q: np.array([[0.0, 0.0], [-10.0 * q[0], 0.0]]))
        for sys_ in (S, einsum_path(S)):
            with pytest.raises(NumericFailure, match=r"HJ residual non-finite at q=\[0\.0, -1\.0\]$"):
                hj_grid_check(sys_, alpha, ((-1.0, 1.0), (-1.0, 1.0)), 11)


# every gallery system, with the rolling ball under both omega laws
GALLERY_CASES = [pytest.param(g, "constant", id=g) for g in sorted(GALLERY_IDS)] + [
    pytest.param("rolling_ball", "linear", id="rolling_ball-linear")]


def seeded_states(gs, n, seed):
    """n seeded reduced states near the default start, with a tenth of the momenta exactly +0.0 or -0.0."""
    x0 = start_state(gs)
    rng = np.random.default_rng(seed)
    X = x0 + rng.uniform(-0.2, 0.2, (n, len(x0)))
    P = X[:, gs.system.chart.dim:]
    zero = rng.random(P.shape) < 0.1
    P[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return X


def parent_rhs(S, x):
    """The rates as one concatenation of temporaries, the formula before they were written in place."""
    m = S.chart.dim
    g = hamilton.fd_gradient(S.H, x)
    q, p, dHq, dHp = x[:m], x[m:], g[:m], g[m:]
    rho0, rhoV, rhoVT, CV = hamilton._operands(S, q)
    coeff = np.einsum("abc,a->bc", CV, hamilton._zeta(dHp))
    return np.concatenate([rho0 + rhoV @ dHp, -(rhoVT @ dHq) + coeff @ p])


def parent_rate(S, x):
    """The dissipation rate as the per-state loop over C_{0b} it was before the stacked pass."""
    m = S.chart.dim
    g = hamilton.fd_gradient(S.H, x)
    rho0, _, _, CV = hamilton._operands(S, x[:m])
    val = float(rho0 @ g[:m])
    for b, row in enumerate(CV[0]):
        val += float(row @ x[m:]) * g[m + b]
    return val


class TestRatesInPlace:
    """hamilton_rhs writes both rates into one row, and dissipation_rate takes a stack;
    both keep the bits of the formulas they replaced."""

    @pytest.mark.parametrize("system,omega", GALLERY_CASES)
    def test_rhs_is_the_concatenated_formula_bits(self, system, omega):
        gs = instantiate(system, omega=omega)
        X = seeded_states(gs, 300, 25)
        P = X[:, gs.system.chart.dim:]
        assert ((P == 0.0) & np.signbit(P)).any() and ((P == 0.0) & ~np.signbit(P)).any()
        got = [hamilton_rhs(gs.system, 0.0, x).tobytes() for x in X]
        assert got == [parent_rhs(gs.system, x).tobytes() for x in X]

    @pytest.mark.parametrize("system,omega", GALLERY_CASES)
    def test_stacked_rates_are_the_per_state_bits(self, system, omega):
        gs = instantiate(system, omega=omega)
        S = gs.system
        X = seeded_states(gs, 200, 26)
        single = np.array([dissipation_rate(S, x) for x in X])
        assert dissipation_rate(S, X).tobytes() == single.tobytes()
        assert single.tobytes() == np.array([parent_rate(S, x) for x in X]).tobytes()
        one = dissipation_rate(S, X[:1])
        assert one.shape == (1,) and one.tobytes() == single[:1].tobytes()

    def test_a_dense_C_keeps_the_sum_order(self):
        # every C_{0b}^c and rho_0 entry is nonzero, so a reordered sum over b or i moves bits
        S = HamiltonianSystem(algebroid=random_adapted_algebroid(), H=smooth_field(4, 27))
        X = seeded_points(4, n=400, lo=-2.0, hi=2.0, seed=27)
        assert dissipation_rate(S, X).tobytes() == np.array([parent_rate(S, x) for x in X]).tobytes()
        assert [hamilton_rhs(S, 0.0, x).tobytes() for x in X] == [parent_rhs(S, x).tobytes() for x in X]

    def test_a_stack_of_the_wrong_width_raises(self, cylinder):
        S = cylinder.system
        for bad in (np.zeros((3, 3)), np.zeros((3, 5)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="state length does not match the system"):
                dissipation_rate(S, bad)
        with pytest.raises(ValueError, match="state length does not match the system"):
            hamilton_rhs(S, 0.0, np.zeros((2, 4)))


class TestEmptyStacks:
    """The stack readers take a stack of zero points and give empty results of its shape."""

    @pytest.mark.parametrize("system", ["vertical_disk", "rolling_ball", "cylinder_friction"])
    def test_a_stack_of_no_points_reads_empty_results(self, system):
        # a kernel system under a force extension, a kernel system, a constant system
        S = instantiate(system).system
        A = S.algebroid
        m, n = A.chart.dim, A.rank
        rho, C = _read_at(A, np.zeros((0, m)))
        assert rho.shape == (0, m, n) and C.shape == (0, n, n, n)
        assert rho.dtype == C.dtype == float
        assert dissipation_rate(S, np.zeros((0, m + n - 1))).shape == (0,)
        assert d_oneform_matrix(A, np.zeros((0, n)), np.zeros((0, n, m)), np.zeros((0, m))).shape == (0, n, n)
        assert hamilton._bivector_at(A, np.zeros((0, m + n))).shape == (0, m + n, m + n)


class TestResidualIsOneFieldEvaluation:
    """At p = alpha(q) the projected field is the q-rates of ``hamilton_rhs``, and the HJ residual is
    alpha's transport along them less the p-rates, bit for bit: so the residual can become this one
    field evaluation once nothing pins its second read of alpha, dH and the anchor (ROADMAP item 1)."""

    @pytest.mark.parametrize("system,omega", GALLERY_CASES)
    def test_field_and_residual_are_the_rates_bits(self, system, omega):
        gs = instantiate(system, omega=omega)
        S, m = gs.system, gs.system.chart.dim
        alpha = gs.section("dS" if system == "three_body_drag" else "reference")
        for q in sample_box(gs.default_box, 300, 29):
            rates = hamilton_rhs(S, 0.0, np.concatenate([q, alpha(q)]))
            assert projected_field(S, alpha, q).tobytes() == rates[:m].tobytes()
            assert hj_residual(S, alpha, q).tobytes() == (alpha.jac(q) @ rates[:m] - rates[m:]).tobytes()


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

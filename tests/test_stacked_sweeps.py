"""The sampled checks and the HJ grid walk their points as a ``sweep``: in
chunks, each evaluated as one stacked pass over stacked reads.  Their
reports and errors must be those of a pointwise sweep, which is kept here as
the reference, written as the sweeps were before they were stacked: one
point at a time."""

import json
import math
import re

import numpy as np
import pytest

from algebroid_mech import (
    CheckReport,
    DomainError,
    DualSection,
    HamiltonianSystem,
    MorphismEndpoint,
    MorphismPair,
    NumericFailure,
    adapted_cocycle,
    affine_constraints,
    check_cocycle,
    hj_grid_check,
    instantiate,
    morphism_check,
    v_restriction,
)
from algebroid_mech import algebroid, calculus, cli
from algebroid_mech.algebroid import sample_box
from algebroid_mech.calculus import fd_jacobian, max_abs
from algebroid_mech.gallery import GALLERY_IDS
from algebroid_mech.hamilton_jacobi import HJReport, grid_points, hj_residual

from conftest import nan_structure_at, smooth_section
from test_constructions import counted_frames, twisted_affine


def _d_oneform(A, beta, jac, q):
    G = jac @ A.anchor_at(q)
    return (G.T - G) - A.structure_at(q) @ beta


def _bivector(A, xf):
    m = A.chart.dim
    if len(xf) != m + A.rank:
        raise ValueError("phase coordinates do not match the algebroid")
    rho = A.anchor_at(xf[:m])
    L = np.zeros((len(xf), len(xf)))
    L[:m, m:] = rho
    L[m:, :m] = -rho.T
    L[m:, m:] = -(A.structure_at(xf[:m]) @ xf[m:])
    return L


def reference_cocycle(A, phi, box, samples, seed, tol=1e-9):
    worst = [(q, max_abs(np.triu(_d_oneform(A, phi(q), fd_jacobian(phi, q), q), 1), "d phi(e_{}, e_{})", q))
             for q in sample_box(box, samples, seed)]
    return CheckReport.from_samples("cocycle", worst, tol, seed)


def reference_morphism(src, dst, pair, box, samples, seed, tol=1e-6):
    A, Abar = src.algebroid, dst.algebroid
    qs = sample_box(box, samples, seed)
    ps = -1.0 + 2.0 * np.random.default_rng(seed + 1).random((samples, A.rank))

    def psi_full(xf):
        return pair.full(A, xf)

    worst = ([], [], [])
    for q, p in zip(qs, ps):
        xf = np.concatenate([q, p])
        image = psi_full(xf)
        J = fd_jacobian(psi_full, xf)
        Jbar = fd_jacobian(lambda X: X, image, stacked=True)
        gaps = J @ _bivector(A, xf) @ J.T - Jbar @ _bivector(Abar, image) @ Jbar.T
        worst[0].append((q, max_abs(np.triu(gaps, 1), "bracket of probes {}, {}", q)))
        gap = np.asarray(pair.fiber_map(q, src.cocycle(q)), dtype=float) - dst.cocycle(image[:Abar.chart.dim])
        worst[1].append((q, max_abs(gap, "cocycle correspondence[{}]", q)))
        worst[2].append((q, max_abs(dst.f_h(image) - src.f_h(xf), "hamiltonian pullback", q)))
    names = ("poisson_morphism", "cocycle_related", "hamiltonian_pullback")
    return tuple(CheckReport.from_samples(name, w, tol, seed) for name, w in zip(names, worst))


def reference_hj(sys_, alpha, box, resolution, tol=1e-9):
    box, resolution, pts = grid_points(box, resolution)
    grid, max_norm = [], 0.0
    for q in pts:  # each residual folded before the next point is evaluated
        grid.append((q, hj_residual(sys_, alpha, q)))
        max_norm = max(max_norm, max_abs(grid[-1][1], "HJ residual", q))
    return HJReport(residual_grid=tuple(grid), max_norm=max_norm, tol=tol, box=box, resolution=resolution)


def _bytes(reports):
    reports = reports if isinstance(reports, tuple) else (reports,)
    return json.dumps([r.to_json_dict() for r in reports]).encode()


def _twisted_system():
    return affine_constraints(*twisted_affine())


def _gallery(system, omega="constant"):
    gs = instantiate(system, omega=omega)
    return gs.system, gs.default_box


def _kernel_section(omega):
    # the README's `cocycle-check rolling_ball --on v --section reference`
    gs = instantiate("rolling_ball", omega=omega)
    named = gs.section("reference")
    return v_restriction(gs.system.algebroid), DualSection(named.components, "E*", named.jacobian), gs.default_box


def _e0(sys_, box):
    return sys_.algebroid, adapted_cocycle(sys_.algebroid), box


def _smooth_phi(sys_, box):
    """A q-dependent phi with no analytic jacobian."""
    A = sys_.algebroid
    return A, DualSection(components=smooth_section(A.rank, A.chart.dim, seed=5).components), box


TWISTED_BOX = ((-1.0, 1.0),) * 3
COCYCLE_CASES = {  # name -> a fresh (algebroid, phi, box)
    "rolling_ball-constant-e0": lambda: _e0(*_gallery("rolling_ball")),
    "rolling_ball-linear-e0": lambda: _e0(*_gallery("rolling_ball", "linear")),
    "vertical_disk-e0": lambda: _e0(*_gallery("vertical_disk")),
    "cylinder_friction-e0": lambda: _e0(*_gallery("cylinder_friction")),
    "rolling_ball-constant-v-reference": lambda: _kernel_section("constant"),
    "rolling_ball-linear-v-reference": lambda: _kernel_section("linear"),
    "vertical_disk-smooth": lambda: _smooth_phi(*_gallery("vertical_disk")),
    "twisted_affine-e0": lambda: _e0(_twisted_system(), TWISTED_BOX),
    "twisted_affine-smooth": lambda: _smooth_phi(_twisted_system(), TWISTED_BOX),
}

MORPHISMS = {  # name -> (source side, target side, fiber map), all over the identity base map
    "identity": (MorphismEndpoint.from_system, MorphismEndpoint.from_system, lambda q, p: p),
    "momentum-scale": (MorphismEndpoint.from_system, MorphismEndpoint.from_system, lambda q, p: 2.0 * p),
    "mu-projection": (MorphismEndpoint.from_system, MorphismEndpoint.v_side, lambda q, p: p[1:]),
}
MORPHISM_CASES = [("rolling_ball", "constant", "identity"), ("rolling_ball", "linear", "mu-projection"),
                  ("rolling_ball", "constant", "mu-projection"), ("vertical_disk", "constant", "identity"),
                  ("vertical_disk", "constant", "mu-projection"), ("cylinder_friction", "constant", "momentum-scale"),
                  ("twisted_affine", None, "identity"), ("twisted_affine", None, "momentum-scale")]


def _morphism_case(system, omega, morphism):
    sys_, box = (_twisted_system(), TWISTED_BOX) if system == "twisted_affine" else _gallery(system, omega)
    src, dst, fiber = MORPHISMS[morphism]
    return src(sys_), dst(sys_), MorphismPair(base_map=lambda q: q, fiber_map=fiber), box


def _reference_grid(system, omega, resolution):
    gs = instantiate(system, omega=omega)
    return gs.system, gs.section("reference"), gs.default_box, resolution


def _twisted_grid():
    """A section that is not a solution, so the residuals are far from zero."""
    alpha = DualSection(components=lambda q: np.array([math.sin(q[0]) + q[2], 0.5 * q[1] * q[0]]), space="V*")
    return _twisted_system(), alpha, TWISTED_BOX, 4


HJ_CASES = {  # name -> a fresh (system, V* section, box, resolution)
    "rolling_ball-constant": lambda: _reference_grid("rolling_ball", "constant", 4),
    "rolling_ball-linear": lambda: _reference_grid("rolling_ball", "linear", 4),
    "vertical_disk": lambda: _reference_grid("vertical_disk", "constant", 3),
    "twisted_affine": _twisted_grid,
}


@pytest.fixture(params=[None, 5], ids=["one-chunk", "chunks-of-5"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", request.param)
    return request.param


class TestReportsAreThePointwiseBytes:
    @pytest.mark.parametrize("case", COCYCLE_CASES)
    def test_cocycle(self, case, chunk):
        A, phi, box = COCYCLE_CASES[case]()
        got = check_cocycle(A, phi, box, samples=17, seed=3)
        A, phi, box = COCYCLE_CASES[case]()  # fresh kernels
        assert _bytes(got) == _bytes(reference_cocycle(A, phi, box, 17, 3))

    @pytest.mark.parametrize("system,omega,morphism", MORPHISM_CASES)
    def test_morphism(self, system, omega, morphism, chunk):
        got = morphism_check(*_morphism_case(system, omega, morphism), samples=13, seed=4)
        want = reference_morphism(*_morphism_case(system, omega, morphism), 13, 4)
        assert _bytes(got) == _bytes(want)

    @pytest.mark.parametrize("case", HJ_CASES)
    def test_hj_grid(self, case, chunk):
        sys_, alpha, box, res = HJ_CASES[case]()
        got = hj_grid_check(sys_, alpha, box, res)
        sys_, alpha, box, res = HJ_CASES[case]()
        want = reference_hj(sys_, alpha, box, res)
        assert _bytes(got) == _bytes(want)
        assert got.max_norm == want.max_norm

    @pytest.mark.parametrize("name", ["cocycle", "morphism"])
    def test_a_finite_chunk_is_folded_as_one_stack(self, name, chunk, monkeypatch):
        # the pointwise fold (max_abs per point) runs only to name a failure
        folds = []
        monkeypatch.setattr(algebroid, "max_abs", lambda *args: folds.append(args) or max_abs(*args))
        if name == "cocycle":
            check_cocycle(*COCYCLE_CASES["vertical_disk-smooth"](), samples=12, seed=1)
        else:
            morphism_check(*_morphism_case("vertical_disk", "constant", "identity"), samples=12, seed=1)
        assert folds == []


class TestConstantCocycle:
    @pytest.mark.parametrize("system", sorted(GALLERY_IDS))
    def test_zero_jacobian_is_the_stencil_bits(self, system):
        gs = instantiate(system)
        phi = adapted_cocycle(gs.system.algebroid)
        for q in sample_box(gs.default_box, 8, 6):
            stencil = fd_jacobian(phi, q)
            assert stencil.tobytes() == np.zeros(stencil.shape).tobytes()
        plain = DualSection(components=lambda q: np.eye(gs.system.algebroid.rank)[0])
        assert _bytes(check_cocycle(gs.system.algebroid, phi, gs.default_box, samples=16, seed=2)) == _bytes(
            check_cocycle(gs.system.algebroid, plain, gs.default_box, samples=16, seed=2))

    @pytest.mark.parametrize("system", ["cylinder_friction", "rolling_ball", "vertical_disk"])
    def test_on_e_makes_no_phi_call_and_broadcasts_e0(self, system, monkeypatch, tmp_path):
        # e^0 is read as its stack form, one broadcast at the samples and one at all their stencil points
        stacks, constant_calls = [], []
        real = algebroid._Constant.stack
        monkeypatch.setattr(algebroid._Constant, "stack",
                            lambda self, Q, *rest: stacks.append((self, len(Q))) or real(self, Q, *rest))
        monkeypatch.setattr(algebroid._Constant, "__call__", lambda self, q: constant_calls.append(self) or self.value)
        checked = []
        check = cli.check_cocycle
        monkeypatch.setattr(cli, "check_cocycle",
                            lambda A, phi, *a, **kw: checked.append((A, phi)) or check(A, phi, *a, **kw))
        assert cli.main(["cocycle-check", system, "--samples", "9", "--out", str(tmp_path / "out.json")]) == 0
        A, phi = checked[0]
        assert phi.components not in constant_calls
        assert [k for c, k in stacks if c is phi.components] == [9, 9 * 2 * A.chart.dim]

    def test_a_non_finite_constant_keeps_the_stencil_error(self):
        gs = instantiate("cylinder_friction")
        A = gs.system.algebroid
        phi = DualSection(components=algebroid._Constant([np.nan, 0.0, 0.0]))
        with pytest.raises(NumericFailure) as got:
            check_cocycle(A, phi, gs.default_box, samples=4, seed=1)
        with pytest.raises(NumericFailure) as want:
            reference_cocycle(A, phi, gs.default_box, 4, 1)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("function evaluation non-finite near q=[")


def _raising_at(bad, value, exc=DomainError):
    """A wrapper of ``value`` that raises at the point ``bad``."""
    def fn(q, *rest):
        if np.array_equal(np.asarray(q)[:len(bad)], bad):
            raise exc(f"no value at q={list(map(float, bad))}")
        return value(q, *rest)

    return fn


def _nan_near(near, value):
    """A wrapper of ``value`` that is NaN within 1e-4 of ``near``, but not at it."""
    def fn(q):
        q = np.asarray(q)
        out = np.asarray(value(q), dtype=float)
        return out * np.nan if 0.0 < np.max(np.abs(q[:len(near)] - near)) < 1e-4 else out

    return fn


def _error(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


class TestErrorsAreThoseOfThePointwiseSweep:
    """Each failure sits in a later chunk of 5, after points that pass; the
    stacked pass of its chunk fails and the chunk is rerun point by point."""

    @pytest.fixture(autouse=True)
    def _chunks_of_5(self, monkeypatch):
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 5)

    @pytest.mark.parametrize("failures", [
        {"phi raises": 8}, {"phi nan near": 11}, {"structure nan": 12}, {"structure raises": 6},
        # one chunk: a pointwise sweep meets the first failure before the second, a stacked pass the other way round
        {"structure raises": 6, "phi raises": 8},
        {"structure raises": 10, "phi nan near": 13},
        {"structure nan": 11, "phi nan near": 14},
    ], ids=str)
    def test_cocycle(self, failures):
        sys_, box = _gallery("vertical_disk")
        pts = sample_box(box, 16, 7)
        A = sys_.algebroid
        phi = smooth_section(A.rank, A.chart.dim, seed=5).components
        if "phi raises" in failures:
            phi = _raising_at(pts[failures["phi raises"]], phi)
        if "phi nan near" in failures:
            phi = _nan_near(pts[failures["phi nan near"]], phi)
        if "structure nan" in failures:
            A = nan_structure_at(A, pts[failures["structure nan"]])
        if "structure raises" in failures:
            A = algebroid.SkewAlgebroid(A.chart, A.rank, A.anchor_at, adapted=True,
                                        structure=_raising_at(pts[failures["structure raises"]], A.structure_at))
        phi = DualSection(components=phi)
        got = _error(lambda: check_cocycle(A, phi, box, 16, 7))
        assert got == _error(lambda: reference_cocycle(A, phi, box, 16, 7))
        assert got[0] in (DomainError, NumericFailure)

    @pytest.mark.parametrize("failures", [
        {"fiber map raises": 9}, {"psi nan near": 7}, {"target raises": 10},
        {"bracket nan": 8, "pullback nan": 8},  # the bracket is checked first
        # one chunk: a pointwise sweep meets the first failure before the second, a stacked pass the other way round
        {"pullback nan": 6, "cocycle nan": 8},
        {"target raises": 6, "psi nan near": 9},
        {"bracket nan": 11, "target raises": 12},
        {"psi nan at": 7},  # the image alone is NaN: the target's stencil names its base point
    ], ids=str)
    def test_morphism(self, failures):
        sys_, box = _gallery("cylinder_friction")
        at = {kind: sample_box(box, 16, 7)[i] for kind, i in failures.items()}
        endpoint = dst = MorphismEndpoint.from_system(sys_)

        def nan_at(kind, value):  # value, times NaN at the failure's point
            return lambda x: value(x) * (np.nan if kind in at and np.array_equal(x[:2], at[kind]) else 1.0)

        A = nan_structure_at(sys_.algebroid, at["bracket nan"]) if "bracket nan" in at else sys_.algebroid
        src = MorphismEndpoint(A, f_h=nan_at("pullback nan", endpoint.f_h),
                               cocycle=nan_at("cocycle nan", endpoint.cocycle))
        if "target raises" in at:
            dst = MorphismEndpoint(dst.algebroid, f_h=_raising_at(at["target raises"], dst.f_h), cocycle=dst.cocycle)
        base, fiber = (lambda q: q), (lambda q, p: p)
        if "fiber map raises" in at:
            fiber = _raising_at(at["fiber map raises"], fiber)
        if "psi nan near" in at:
            base = _nan_near(at["psi nan near"], base)
        if "psi nan at" in at:  # no stencil row of the sample has both its q and its p
            p_at = -1.0 + 2.0 * np.random.default_rng(8).random((16, sys_.algebroid.rank))[failures["psi nan at"]]
            fiber = lambda q, p: p * (np.nan if np.array_equal(q, at["psi nan at"]) and np.array_equal(p, p_at) else 1.0)
        pair = MorphismPair(base_map=base, fiber_map=fiber)
        got = _error(lambda: morphism_check(src, dst, pair, box, samples=16, seed=7))
        assert got == _error(lambda: reference_morphism(src, dst, pair, box, 16, 7))
        assert got[0] in (DomainError, NumericFailure)

    @pytest.mark.parametrize("raises", [None, 48], ids=["nan", "nan-then-alpha-raises"])
    def test_hj_grid(self, raises):
        # with ``raises``, alpha raises at a later point of the NaN residual's chunk (45-49)
        gs = instantiate("vertical_disk")
        alpha = gs.section("reference")
        box, _, pts = grid_points(gs.default_box, 3)
        components = alpha.components if raises is None else _raising_at(pts[raises], alpha.components)
        broken = DualSection(components=components, space="V*", jacobian=lambda q: alpha.jac(q) * (
            np.nan if np.array_equal(q, pts[47]) else 1.0))
        got = _error(lambda: hj_grid_check(gs.system, broken, box, 3))
        assert got == _error(lambda: reference_hj(gs.system, broken, box, 3))
        assert got == (NumericFailure, f"HJ residual non-finite at q={pts[47].tolist()}")


class TestStencilErrors:
    def test_a_stack_names_its_first_failing_point(self):
        Q = np.arange(12.0).reshape(4, 3)

        def fn(x):
            return np.array([np.nan if 0.0 < abs(x[0] - 3.0) < 1e-3 or 0.0 < abs(x[0] - 9.0) < 1e-3 else x[1]])

        with pytest.raises(NumericFailure, match=re.escape("function evaluation non-finite near q=[3.0, 4.0, 5.0]")):
            calculus._central_differences(fn, Q, None, False, "function")
        for q in Q[[1, 3]]:  # a point alone names itself, as before
            with pytest.raises(NumericFailure, match=re.escape(f"function evaluation non-finite near q={q.tolist()}")):
                fd_jacobian(fn, q)

    def test_a_stack_names_its_first_non_finite_base_point(self):
        Q = np.arange(12.0).reshape(4, 3)
        Q[2, 1] = Q[3, 0] = np.inf
        with pytest.raises(NumericFailure, match=re.escape("finite-difference base point non-finite at q=[6.0, inf, 8.0]")):
            calculus._central_differences(lambda x: x, Q, None, True, "function")
        with pytest.raises(NumericFailure, match=re.escape("finite-difference base point non-finite at q=[6.0, inf, 8.0]")):
            fd_jacobian(lambda x: x, Q[2])


@pytest.mark.parametrize("build", ["twisted_affine", "vertical_disk"])
def test_stacked_reads_are_the_pointwise_reads(build):
    A, box = (_twisted_system().algebroid, TWISTED_BOX) if build == "twisted_affine" else (
        lambda sys_, box: (sys_.algebroid, box))(*_gallery(build))
    Q = sample_box(box, 9, 8)
    rho, C = algebroid._read_at(A, Q)
    assert rho.tobytes() == np.array([A.anchor_at(q) for q in Q]).tobytes()
    assert C.tobytes() == np.array([A.structure_at(q) for q in Q]).tobytes()
    # a nested list is read as its float stack, as the point reads take a list
    assert [a.tobytes() for a in algebroid._read_at(A, Q.tolist())] == [rho.tobytes(), C.tobytes()]


class TestStackedReadKeepsThePointReadsErrors:
    """A plain callable's stacked read runs per point through ``structure_at`` / ``anchor_at``."""

    @pytest.mark.parametrize("wrong", ["structure", "anchor"])
    def test_a_wrong_shape_raises_the_point_reads_message(self, wrong):
        chart = calculus.Chart(dim=2, coord_names=("a", "b"))
        shapes = {"anchor": (2, 2), "structure": (2, 2, 2)}
        expect = f"{wrong} must return shape {shapes[wrong]}, got (2, 3)"
        shapes[wrong] = (2, 3)
        A = algebroid.SkewAlgebroid(chart, 2, anchor=lambda q: np.zeros(shapes["anchor"]),
                                    structure=lambda q: np.zeros(shapes["structure"]))
        Q = sample_box([(-1.0, 1.0)] * 2, 6, 3)
        with pytest.raises(ValueError) as point:
            algebroid._read_at(A, Q[0])
        with pytest.raises(ValueError) as stacked:
            algebroid._read_at(A, Q)
        assert str(stacked.value) == str(point.value) == expect

    def test_a_non_finite_c_at_one_grid_point_is_named_as_the_pointwise_sweep_names_it(self, monkeypatch):
        # the grid's stacked pass reads the chunk's C first; the sampled checks' case is TestErrorsAre...'s
        # "structure nan"
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 5)
        gs = instantiate("vertical_disk")
        box, _, pts = grid_points(gs.default_box, 3)
        sys_ = HamiltonianSystem(algebroid=nan_structure_at(gs.system.algebroid, pts[33]), H=gs.system.H)
        alpha = gs.section("reference")
        got = _error(lambda: hj_grid_check(sys_, alpha, box, 3))
        assert got == _error(lambda: reference_hj(sys_, alpha, box, 3))
        assert got == (NumericFailure, f"HJ residual non-finite at q={pts[33].tolist()}")


class TestConstantStackedRead:
    @pytest.mark.parametrize("K", [0, 2, 5])
    def test_a_constant_algebroid_broadcasts_with_no_call(self, K, monkeypatch):
        gs = instantiate("cylinder_friction")
        A = gs.system.algebroid
        assert type(A._anchor) is type(A._structure) is algebroid._Constant
        Q = sample_box(gs.default_box, max(K, 1), 4)[:K]
        expect = [np.array([B.anchor_at(q) for q in Q]).reshape(K, B.chart.dim, B.rank).tobytes()
                  + np.array([B.structure_at(q) for q in Q]).reshape((K,) + (B.rank,) * 3).tobytes()
                  for B in (A, v_restriction(A))]
        monkeypatch.setattr(algebroid._Constant, "__call__", lambda self, q: pytest.fail("a constant was called"))
        for B, bytes_ in zip((A, v_restriction(A)), expect):  # the restriction slices the broadcast stacks
            rho, C = algebroid._read_at(B, Q)
            assert rho.tobytes() + C.tobytes() == bytes_


class TestOneBuildPerChunk:
    """Every chunk of a sweep over a kernel system builds the kernel once: the first stacked read of the
    chunk builds it, and every later read of its points (the anchors, a restriction's C, a morphism target
    at the source's points, the per-point reads of the HJ residuals) reads that build.  A build is one
    ``frames`` call at the chunk's points (the disk's frame jacobian is exact), and on the ball one more at
    their 6 stencil points each."""

    @pytest.fixture(autouse=True)
    def _chunks_of_17(self, monkeypatch):
        monkeypatch.setattr(algebroid, "PREFETCH_CHUNK", 17)

    @staticmethod
    def builds(system, points):
        chunks = [min(17, points - start) for start in range(0, points, 17)]
        assert min(chunks) > 1  # a chunk of one point is read by the point forms
        return [size for k in chunks for size in ([k, 6 * k] if system == "rolling_ball" else [k])]

    @pytest.mark.parametrize("check", ["hj-check", "cocycle-check --on e", "cocycle-check --on v",
                                       "morphism-check identity", "morphism-check mu-projection"])
    @pytest.mark.parametrize("system", ["vertical_disk", "rolling_ball"])
    def test_a_check(self, system, check, monkeypatch):
        frames_calls = counted_frames(monkeypatch)
        gs = instantiate(system)
        sys_, A, box = gs.system, gs.system.algebroid, gs.default_box
        frames_calls.clear()
        if check == "hj-check":
            resolution = 3 if system == "vertical_disk" else 4
            hj_grid_check(sys_, gs.section("reference"), box, resolution)
            points = resolution ** A.chart.dim
        elif check.startswith("cocycle-check"):
            if check.endswith("e"):
                check_cocycle(A, adapted_cocycle(A), box, 40, 7)
            else:
                check_cocycle(v_restriction(A), gs.section("reference"), box, 40, 7)
            points = 40
        else:
            morphism = check.split()[1]
            dst = MorphismEndpoint.v_side(sys_) if morphism == "mu-projection" else sys_
            pair = MorphismPair(base_map=lambda q: q, fiber_map=(lambda q, p: p[1:]) if morphism == "mu-projection"
                                else (lambda q, p: p))
            morphism_check(sys_, dst, pair, box, samples=40, seed=7)
            points = 40
        assert frames_calls == self.builds(system, points)

    @pytest.mark.parametrize("system", ["vertical_disk", "rolling_ball"])
    def test_dissipation(self, system, monkeypatch, tmp_path):
        frames_calls = counted_frames(monkeypatch)
        sweep = cli.sweep
        # the RK4 stages before the sweep read, and build, one point at a time
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: frames_calls.clear() or sweep(*args, **kwargs))
        out = tmp_path / "rows.csv"
        assert cli.main(["dissipation", system, "--t1", "0.4", "--dt", "1e-2", "--out", str(out)]) == 0
        rows = len(out.read_text().splitlines()) - 1
        assert rows == 41 and frames_calls == self.builds(system, rows)

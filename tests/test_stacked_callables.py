"""Stacked user callables: a ``_Stacked`` callable declares a stack form whose
row k is the bits of its point form at row k, and ``on_stack`` is how every
stacked pass calls a callable on a stack (K, m): a ``_Constant`` broadcasts,
a declared callable runs its stack form once, and any other callable, or a
stack of fewer than two points, runs per point.  The pointwise reads (RK4 stages, one
point at a time) never call a stack form."""

import math

import numpy as np
import pytest

from algebroid_mech import calculus, cli, constructions, instantiate
from algebroid_mech.algebroid import PREFETCH_CHUNK, _Constant, _Stacked, on_stack, sample_box


def hard_points(m, n=300, seed=0):
    """Seeded points in [-10, 10]^m, so beyond +-pi, with +-0.0 and +-pi in every column."""
    Q = np.random.default_rng(seed).uniform(-10.0, 10.0, (max(n, 12), m))
    Q[:4] = np.array([0.0, -0.0, math.pi, -math.pi])[:, None]
    Q[4:8, -1] = [0.0, -0.0, 2.5 * math.pi, -1.5 * math.pi]
    Q[8:12, 0] = [-0.0, 0.0, math.pi / 2, -math.pi / 2]
    return Q[:n]


def declared(system, params=None, omega="constant"):
    """name -> every ``_Stacked`` callable of a gallery kernel system."""
    gs = instantiate(system, params, omega=omega)
    if system == "vertical_disk":
        (X1, X2) = gs.extras["constraint_basis"]
        assert type(X2.components) is _Constant and type(X2.jacobian) is _Constant
        return {"X1": X1.components, "dX1": X1.jacobian, "F": gs.extras["force"].coeff}
    E = gs.extras["ambient"]
    out = {"anchor": E._anchor}
    if omega == "linear":
        out["C_E"] = E._structure
    else:
        assert type(E._structure) is _Constant
    return out


GALLERY_CASES = [("vertical_disk", None, "constant"), ("vertical_disk", {"K": 2.5, "J": 0.7, "R": 1.7}, "constant"),
                 ("vertical_disk", {"K": 0.0}, "constant"), ("rolling_ball", None, "constant"),
                 ("rolling_ball", None, "linear"), ("rolling_ball", {"Omega0": -1.3}, "linear")]


class TestDeclaredForms:
    @pytest.mark.parametrize("system,params,omega", GALLERY_CASES)
    @pytest.mark.parametrize("K", [2, 7, 300])
    def test_gallery_stack_forms_are_the_point_bits(self, system, params, omega, K):
        for name, fn in declared(system, params, omega).items():
            assert type(fn) is _Stacked, name
            Q = hard_points(3 if system == "rolling_ball" else 4, seed=K)[:K]
            got = fn.stack(Q)
            assert got.dtype == np.float64 and got.flags.c_contiguous, name
            assert got.tobytes() == np.array([fn(q) for q in Q]).tobytes(), name

    @pytest.mark.parametrize("morphism", sorted(cli._FIBER_MAPS))
    def test_cli_maps_are_the_point_bits(self, morphism):
        fiber = cli._FIBER_MAPS[morphism](-1.5)
        Q, P = hard_points(3, seed=1), hard_points(6, seed=2)
        rows = np.array([fiber(q, p) for q, p in zip(Q, P)])
        assert on_stack(_Stacked(fiber), Q, P).tobytes() == rows.tobytes()
        assert on_stack(_Stacked(lambda q: q), Q).tobytes() == Q.tobytes()

    def test_the_stack_form_defaults_to_the_point_form(self):
        fn = lambda q: 2.0 * q
        declared_fn = _Stacked(fn)
        assert declared_fn.func is fn and declared_fn.stack is fn
        assert declared_fn(np.ones(2)).tolist() == [2.0, 2.0]


class TestOnStack:
    def test_a_constant_broadcasts(self):
        value = np.arange(6.0).reshape(2, 3)
        fn = _Constant(value)
        for K in (5, 2, 3):
            got = on_stack(fn, np.zeros((K, 4)))
            assert got.shape == (K, 2, 3) and not got.flags.writeable
            assert got.strides[0] == 0 and np.array_equal(got, np.broadcast_to(value, got.shape))
        assert on_stack(fn, np.zeros((1, 4))).tobytes() == value.tobytes()  # one point: the point form
        assert on_stack(fn, np.zeros((0, 4))).shape == (0,)

    def test_a_declared_callable_runs_its_stack_form_once_and_its_point_form_at_one_point(self):
        points, stacks = [], []
        fn = _Stacked(lambda q: points.append(q) or np.array([q[0], -q[1]]),
                      lambda Q: stacks.append(Q) or np.column_stack([Q[:, 0], -Q[:, 1]]))
        Q = hard_points(2, n=9)
        assert on_stack(fn, Q).tobytes() == np.column_stack([Q[:, 0], -Q[:, 1]]).tobytes()
        assert len(stacks) == 1 and stacks[0] is Q and points == []
        assert on_stack(fn, Q[:1]).tobytes() == np.array([[Q[0, 0], -Q[0, 1]]]).tobytes()
        assert len(stacks) == 1 and len(points) == 1  # one point: the point form
        assert on_stack(fn, Q[:0]).shape == (0,)  # no point: neither form
        assert len(stacks) == 1 and len(points) == 1

    def test_any_other_callable_runs_per_point_in_order(self):
        calls = []
        Q, P = hard_points(2, n=6), hard_points(3, n=6, seed=4)
        got = on_stack(lambda q, p: calls.append((q, p)) or [q[0] * p[2], 1], Q, P)
        assert got.dtype == np.float64 and got.shape == (6, 2)
        assert [(q.tolist(), p.tolist()) for q, p in calls] == [(q.tolist(), p.tolist()) for q, p in zip(Q, P)]
        assert got.tobytes() == np.array([[q[0] * p[2], 1.0] for q, p in zip(Q, P)]).tobytes()
        empty = on_stack(lambda q: pytest.fail("called at no point"), np.zeros((0, 2)))
        assert empty.shape == (0,) and empty.dtype == np.float64


class TestSideBySide:
    def test_rows_of_mixed_callables_at_any_stack(self):
        plain = lambda q: np.array([q[0], -q[1]])
        rows = constructions._rows_of([plain, _Constant([1.0, -0.0]), _Stacked(plain, lambda Q: Q * [1.0, -1.0])])
        Q = hard_points(2, n=7)
        assert rows(Q[0]).shape == (3, 2)
        for K in (7, 2, 1):
            got = on_stack(rows, Q[:K])
            assert got.flags.c_contiguous and got.tobytes() == np.array([rows(q) for q in Q[:K]]).tobytes()
        assert on_stack(rows, Q[:0]).shape == (0,) and rows.stack(Q[:0]).shape == (0, 3)


class TestEmptyStencil:
    @pytest.mark.parametrize("fn,k", [(lambda Y: Y, 4), (lambda Y: np.zeros((len(Y), 2, 3)), 6)])
    def test_a_stacked_stencil_of_no_points_takes_k_from_fn(self, fn, k):
        got = calculus._central_differences(fn, np.zeros((0, 4)), None, True, "f")
        assert got.shape == (0, k, 4)


class TestStackedKernelReads:
    def test_a_disk_build_calls_each_stack_form_once(self):
        gs = instantiate("vertical_disk")
        A = gs.system.algebroid
        X1 = gs.extras["constraint_basis"][0]
        calls = {}
        for name, fn in {"X1": X1.components, "dX1": X1.jacobian, "F": gs.extras["force"].coeff}.items():
            fn.stack = lambda Q, name=name, real=fn.stack: calls.setdefault(name, []).append(len(Q)) or real(Q)
        A._prefetch(sample_box(gs.default_box, 64, 3))
        assert calls == {"X1": [64], "dX1": [64], "F": [64]}

    def test_a_linear_ball_build_calls_each_stack_form_once(self):
        gs = instantiate("rolling_ball", omega="linear")
        calls = {}
        E = gs.extras["ambient"]
        for name, fn in {"anchor": E._anchor, "C_E": E._structure}.items():
            fn.stack = lambda Q, name=name, real=fn.stack: calls.setdefault(name, []).append(len(Q)) or real(Q)
        gs.system.algebroid._prefetch(sample_box(gs.default_box, 40, 3))
        assert calls == {"anchor": [40], "C_E": [40]}

    @pytest.mark.parametrize("samples", [PREFETCH_CHUNK + 76, 5])
    def test_a_morphism_check_reads_its_declared_maps_twice_per_chunk(self, samples, monkeypatch, tmp_path):
        sizes = []
        new = _Stacked.__new__

        def counted(cls, point, stack=None):
            self = new(cls, point, stack)
            real = self.stack
            self.stack = lambda *S: sizes.append(len(S[0])) or real(*S)
            return self

        monkeypatch.setattr(_Stacked, "__new__", counted)
        out = tmp_path / "out.json"
        assert cli.main(["morphism-check", "rolling_ball", "--morphism", "mu-projection", "--samples", str(samples),
                         "--out", str(out)]) == 1  # the affine function does not project
        # per chunk: the kernel build's ambient anchor, the base and fiber maps at the images, then at all their
        # 2 (m + n) = 14 stencil points each (m = 3, rank n = 4), then the fiber map at the source cocycle
        expect = []
        for k in ([PREFETCH_CHUNK, 76] if samples > PREFETCH_CHUNK else [samples]):
            expect += [k, k, k, 14 * k, 14 * k, k]
        assert sizes == expect


class TestPointwiseReadsCallNoStackForm:
    """With every declared stack form raising, the RK4 commands give the same bytes: their reads are pointwise.
    (A sweep would fall back to its pointwise rerun and hide the error, so these commands run no sweep.)"""

    @pytest.mark.parametrize("argv", [["simulate", "vertical_disk", "--t1", "0.15"],
                                      ["lift-verify", "rolling_ball", "--omega", "linear", "--t1", "0.3"]])
    def test_rk4_commands_keep_their_bytes(self, argv, monkeypatch, tmp_path):
        def run(name):
            out = tmp_path / name
            assert cli.main(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        expect = run("stacked")
        declared_fns, new, load = [], _Stacked.__new__, cli._load_system
        monkeypatch.setattr(_Stacked, "__new__", lambda cls, *a: declared_fns.append(new(cls, *a)) or declared_fns[-1])

        def load_then_raise(args):  # the construction validates its frame on stacks; every read after it raises
            gs = load(args)
            for fn in declared_fns:
                fn.stack = lambda *stacks: pytest.fail("a stack form was called")
            return gs

        monkeypatch.setattr(cli, "_load_system", load_then_raise)
        assert run("pointwise") == expect
        # X1, dX1, F and the kernel's frame and jacobian rows; the anchor, C_E and the affine U rows
        assert len(declared_fns) == (5 if argv[1] == "vertical_disk" else 3)
        with pytest.raises(pytest.fail.Exception):
            on_stack(declared_fns[0], np.zeros((2, 4)))

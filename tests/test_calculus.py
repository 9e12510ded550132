import math
import re

import numpy as np
import pytest

from algebroid_mech import Chart, Curve, NumericFailure, ScalarField, fd_gradient, integrate_rk4
from algebroid_mech import calculus
from algebroid_mech.calculus import RK4_STEP_CAP, check_gradient, fd_jacobian

from conftest import seeded_points


class TestChart:
    def test_basic(self):
        c = Chart(dim=2, coord_names=("x", "theta"))
        assert c.dim == 2 and c.coord_names == ("x", "theta")

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            Chart(dim=0, coord_names=())

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            Chart(dim=2, coord_names=("x", "x"))


class TestFdGradient:
    def test_constant_field_zero(self):
        g = fd_gradient(lambda q: 5.0, np.array([0.3, -2.0]))
        assert np.all(g == 0.0)

    def test_product_field(self):
        g = fd_gradient(lambda q: q[0] * q[1], np.array([2.0, 3.0]))
        assert np.allclose(g, [3.0, 2.0], atol=1e-9)

    def test_sin(self):
        g = fd_gradient(lambda q: math.sin(q[0]), np.array([0.7]))
        assert abs(g[0] - math.cos(0.7)) < 1e-9

    def test_linear_fields_recover_coefficients(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            coeffs = rng.normal(size=3)
            q = rng.normal(size=3) * 2.0
            g = fd_gradient(lambda x: float(coeffs @ x), q, h=1e-5)
            assert np.max(np.abs(g - coeffs)) < 1e-9

    def test_analytic_gradient_preferred(self):
        marker = np.array([10.0, 20.0])
        f = ScalarField(eval=lambda q: 0.0, grad=lambda q: marker)
        assert np.all(fd_gradient(f, np.zeros(2)) == marker)

    def test_non_finite_raises(self):
        with pytest.raises(NumericFailure):
            fd_gradient(lambda q: float("inf"), np.array([0.0]))

    @pytest.mark.parametrize("q,finite", [([math.nan, 0.0], 1), ([0.0, -math.inf], 0)], ids=["nan", "-inf"])
    def test_non_finite_point_raises(self, q, finite):
        # a function that ignores the bad coordinate used to give a NaN entry
        with pytest.raises(NumericFailure, match=re.escape(f"finite-difference base point non-finite at q={q}")):
            fd_gradient(lambda x: float(x[finite]), np.array(q))

    def test_non_finite_value_names_q_as_a_list(self):
        with pytest.raises(NumericFailure, match=re.escape("field evaluation non-finite near q=[0.5, 2.0]")):
            fd_gradient(lambda x: math.inf, np.array([0.5, 2.0]))

    def test_check_gradient_flags_mismatch(self):
        bad = ScalarField(eval=lambda q: float(q[0] ** 2), grad=lambda q: np.array([1.0]))
        with pytest.raises(ValueError):
            check_gradient(bad, seeded_points(1, n=8))

    def test_check_gradient_accepts_consistent(self):
        good = ScalarField(eval=lambda q: float(q[0] ** 2), grad=lambda q: np.array([2.0 * q[0]]))
        assert check_gradient(good, seeded_points(1, n=8)) < 1e-8

    def test_check_gradient_nan_at_a_later_point_raises(self):
        # Python's max() keeps a NaN only when it comes first; put it last
        pts = seeded_points(1, n=8)
        f = ScalarField(eval=lambda q: float(q[0] ** 2),
                        grad=lambda q: np.array([math.nan if q[0] == pts[-1][0] else 2.0 * q[0]]))
        with pytest.raises(NumericFailure, match=re.escape(f"gradient deviation[0] non-finite at q={list(map(float, pts[-1]))}")):
            check_gradient(f, pts)


def test_fd_jacobian_matches_hand_value():
    def f(q):
        return np.array([q[0] * q[1], math.sin(q[1])])

    q = np.array([2.0, 0.5])
    J = fd_jacobian(f, q)
    expect = np.array([[0.5, 2.0], [0.0, math.cos(0.5)]])
    assert np.max(np.abs(J - expect)) < 1e-9
    # the stacked convention sees the whole (2m, m) stencil at once and
    # must give the same bits as the pointwise one
    stacked = fd_jacobian(lambda Q: np.stack([f(x) for x in Q]), q, stacked=True)
    assert stacked.shape == J.shape and np.array_equal(stacked, J)

    def g(y):
        return np.array([y[0] * y[1] ** 2, math.exp(0.1 * y[2]), y[1] / (2.0 + y[0] ** 2)])

    for x in seeded_points(3, n=16, lo=-5.0, hi=5.0):
        for h in (None, 1e-5):
            pointwise = fd_jacobian(g, x, h=h)
            stacked = fd_jacobian(lambda Q: np.stack([g(y) for y in Q]), x, h=h, stacked=True)
            assert np.array_equal(stacked, pointwise)

    # fd_gradient's stencil is fd_jacobian's, so a scalar field gives the same bits
    def s(y):
        return y[0] * math.sin(y[1]) + math.exp(0.1 * y[2]) / (2.0 + y[0] ** 2)

    for x in seeded_points(3, n=16, lo=-5.0, hi=5.0, seed=2):
        for h in (None, 1e-5, np.array([1e-5, 3e-6, 2e-4])):
            assert np.array_equal(fd_gradient(s, x, h=h), fd_jacobian(lambda y: [s(y)], x, h=h)[0])


class TestFdJacobianNonFinite:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_point_raises(self, stacked):
        # column 0 used to come back NaN from a function that ignores x[0]
        fn = (lambda Q: Q[:, 1:]) if stacked else (lambda x: x[1:])
        with pytest.raises(NumericFailure, match=re.escape("finite-difference base point non-finite at q=[nan, 0.0]")):
            fd_jacobian(fn, np.array([math.nan, 0.0]), stacked=stacked)

    def test_non_finite_value_names_q_as_a_list(self):
        with pytest.raises(NumericFailure, match=re.escape("function evaluation non-finite near q=[0.5, 2.0]")):
            fd_jacobian(lambda x: np.array([math.inf]), np.array([0.5, 2.0]))


class TestCurve:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Curve(times=np.array([0.0, 0.0]), points=np.zeros((2, 1)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(times=np.array([0.0, 1.0]), points=np.zeros((3, 1)))


class TestRK4:
    def test_zero_field_constant(self):
        c = integrate_rk4(lambda t, x: np.zeros(2), np.array([1.0, 2.0]), 0.0, 1.0, 0.1)
        assert np.all(c.points == np.array([1.0, 2.0]))

    def test_exponential(self):
        c = integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.0, 1e-3)
        assert abs(c.points[-1, 0] - math.e) < 1e-10

    def test_harmonic_oscillator_against_circle(self):
        # independent oracle: the analytic circle (cos t, -sin t)
        rhs = lambda t, x: np.array([x[1], -x[0]])
        c = integrate_rk4(rhs, np.array([1.0, 0.0]), 0.0, 10.0, 1e-3)
        energy = 0.5 * np.sum(c.points**2, axis=1)
        assert np.max(np.abs(energy - energy[0])) < 1e-9
        exact = np.column_stack([np.cos(c.times), -np.sin(c.times)])
        assert np.max(np.abs(c.points - exact)) < 1e-9

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            c = integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.0, dt)
            errs.append(abs(c.points[-1, 0] - math.e))
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0

    def test_deterministic_bitwise(self):
        rhs = lambda t, x: np.array([math.sin(x[0]) + t])
        a = integrate_rk4(rhs, np.array([0.3]), 0.0, 2.0, 1e-2)
        b = integrate_rk4(rhs, np.array([0.3]), 0.0, 2.0, 1e-2)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.times, b.times)

    def test_partial_final_step_lands_on_t1(self):
        c = integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 0.95, 0.1)
        assert c.times[-1] == 0.95
        assert np.allclose(np.diff(c.times)[:-1], 0.1)
        assert abs(c.points[-1, 0] - math.exp(0.95)) < 1e-5

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_reports_last_good_time(self):
        # dx/dt = x^2 from x(0)=1 blows up at t=1
        with pytest.raises(NumericFailure) as err:
            integrate_rk4(lambda t, x: x**2, np.array([1.0]), 0.0, 2.0, 1e-3)
        assert err.value.last_good_time is not None
        assert 0.9 < err.value.last_good_time < 1.1

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_a_non_finite_stage_names_its_step(self, stage):
        # stage k of the step from t = 0.2 returns inf; the next stage's rhs raises at its non-finite state, as a
        # stencil does (after k4, the step's end is non-finite), and the error names the step's end
        calls = []

        def rhs(t, x):
            if not np.isfinite(x).all():
                raise NumericFailure("finite-difference base point non-finite")
            calls.append(t)
            return np.array([np.inf]) if len(calls) == 8 + stage else -x

        with pytest.raises(NumericFailure, match=r"^state went non-finite at t=0\.3$") as err:
            integrate_rk4(rhs, np.array([1.0]), 0.0, 1.0, 0.1)
        assert err.value.last_good_time == pytest.approx(0.2)

    def test_an_error_at_a_finite_stage_is_its_own(self):
        def rhs(t, x):
            if t > 0.2:
                raise NumericFailure("frame non-finite at q=[0.5]")
            return -x

        with pytest.raises(NumericFailure, match=r"^frame non-finite at q=\[0\.5\]$"):
            integrate_rk4(rhs, np.array([1.0]), 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    @pytest.mark.parametrize("exc", [ValueError("math domain error"), OverflowError("math range error"),
                                     ZeroDivisionError("float division by zero")], ids=type)
    def test_a_user_callable_error_names_its_step(self, stage, exc):
        # stage k of the step from t = 0.2 raises a user callable's numeric error at a finite state
        calls = []

        def rhs(t, x):
            calls.append(t)
            if len(calls) == 8 + stage:
                raise exc
            return -x

        with pytest.raises(NumericFailure, match=rf"^{re.escape(str(exc))} in the step from t=0\.2$") as err:
            integrate_rk4(rhs, np.array([1.0]), 0.0, 1.0, 0.1)
        assert err.value.last_good_time == pytest.approx(0.2) and err.value.__cause__ is exc

    def test_a_user_callable_error_at_a_non_finite_stage_names_the_step_end(self):
        # k1 is inf, and the next stage's callable raises math's domain error at its non-finite state
        def rhs(t, x):
            if not np.isfinite(x).all():
                raise ValueError("math domain error")
            return np.array([np.inf]) if t == 0.0 else -x

        with pytest.raises(NumericFailure, match=r"^state went non-finite at t=0\.1$") as err:
            integrate_rk4(rhs, np.array([1.0]), 0.0, 1.0, 0.1)
        assert err.value.last_good_time == 0.0

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, x: x, np.array([1.0]), 1.0, 0.0, 0.1)
        # an infinite t1 or step count used to raise OverflowError, and an
        # infinite dt gave a NaN step
        for times in [(0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (0.0, 1.0, math.inf), (0.0, 1.0, math.nan),
                      (0.0, 1e300, 1e-10)]:
            with pytest.raises(ValueError, match="must be finite"):
                integrate_rk4(lambda t, x: x, np.array([1.0]), *times)

    def test_step_cap_raises_before_any_rhs_call(self):
        calls = []

        def rhs(t, x):
            calls.append(t)
            return x

        with pytest.raises(ValueError, match=f"^{10 * RK4_STEP_CAP} RK4 steps exceed the cap {RK4_STEP_CAP}$"):
            integrate_rk4(rhs, np.array([1.0]), 0.0, 10.0, 1e-6)
        assert calls == []

    def test_step_cap_admits_exactly_the_cap(self, monkeypatch):
        # a lowered cap, so the boundary is checked without a long run
        monkeypatch.setattr(calculus, "RK4_STEP_CAP", 10)
        assert len(integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.0, 0.1)) == 11
        with pytest.raises(ValueError, match="^11 RK4 steps exceed the cap 10$"):
            integrate_rk4(lambda t, x: x, np.array([1.0]), 0.0, 1.05, 0.1)

"""``integrate_rk4`` forms its update, and tests it, over the state's Python floats.  These are the numpy
expression's own IEEE operations in the same order, so every curve, time and error keeps the bits of the
numpy step, which ``numpy_rk4`` below keeps as the reference."""

import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid_mech import Curve, NumericFailure, instantiate, integrate_rk4
from algebroid_mech.calculus import RK4_STEP_CAP
from algebroid_mech.gallery import GALLERY_IDS
from algebroid_mech.hamilton import hamilton_rhs

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the numpy reference's overflows


def numpy_rk4(rhs, x0, t0, t1, dt):
    """The numpy step ``integrate_rk4`` replaced: each stage state and the update as array expressions."""
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ValueError("t0, t1 and dt must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise NumericFailure("initial state non-finite", last_good_time=None)
    span = t1 - t0
    if not np.isfinite(float(span) / float(dt)):
        raise ValueError("(t1 - t0) / dt must be finite")
    n_full = int(np.floor(span / dt + 1e-9))
    last_partial = span - n_full * dt
    if last_partial <= 1e-12 * dt:
        last_partial = 0.0
    n_steps = n_full + (1 if last_partial else 0)
    if n_steps > RK4_STEP_CAP:
        raise ValueError(f"{n_steps} RK4 steps exceed the cap {RK4_STEP_CAP}")
    times, states, t = [t0], [x.copy()], t0
    for k in range(n_steps):
        step = dt if k < n_full else last_partial
        half = 0.5 * step
        try:
            k1 = np.asarray(rhs(t, stage := x), dtype=float)
            k2 = np.asarray(rhs(t + half, stage := x + half * k1), dtype=float)
            k3 = np.asarray(rhs(t + half, stage := x + half * k2), dtype=float)
            k4 = np.asarray(rhs(t + step, stage := x + step * k3), dtype=float)
        except (NumericFailure, ValueError, ArithmeticError) as exc:
            if not np.isfinite(stage).all():
                raise NumericFailure(f"state went non-finite at t={t + step:g}", last_good_time=times[-1]) from None
            if isinstance(exc, NumericFailure):
                raise
            raise NumericFailure(f"{exc} in the step from t={t:g}", last_good_time=times[-1]) from exc
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t1 if k + 1 == n_steps else t0 + (k + 1) * dt
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise NumericFailure(f"state went non-finite at t={t:g}", last_good_time=times[-1])
        times.append(t)
        states.append(x)
    return Curve(times=np.array(times), points=np.array(states))


def outcome(integrate, rhs, x0, t0, t1, dt):
    """A run's curve bytes, or its NumericFailure's message and last good time."""
    try:
        curve = integrate(rhs, x0, t0, t1, dt)
    except NumericFailure as exc:
        return str(exc), exc.last_good_time
    return curve.times.tobytes(), curve.points.tobytes()


def assert_same_outcome(make_rhs, x0, t0, t1, dt):
    """``integrate_rk4`` and ``numpy_rk4`` agree bit for bit; ``make_rhs`` gives each run a fresh field."""
    assert outcome(integrate_rk4, make_rhs(), x0, t0, t1, dt) == outcome(numpy_rk4, make_rhs(), x0, t0, t1, dt)


GALLERY_CASES = [pytest.param(g, "constant", id=g) for g in sorted(GALLERY_IDS)] + [
    pytest.param("rolling_ball", "linear", id="rolling_ball-linear")]


@pytest.mark.parametrize("system,omega", GALLERY_CASES)
def test_gallery_curves_are_the_numpy_steps_bits(system, omega):
    # 100 steps on the constant systems and 20 on the kernel ones, each ending on a shortened step
    gs = instantiate(system, omega=omega)
    q0 = np.array(gs.default_q0, dtype=float)
    x0 = np.concatenate([q0, gs.section("dS" if system == "three_body_drag" else "reference")(q0)])
    n = 20 if system in ("vertical_disk", "rolling_ball") else 100
    t0 = gs.horizon[0]
    rhs = partial(hamilton_rhs, gs.system)
    curve = integrate_rk4(rhs, x0, t0, t0 + (n - 0.5) * 1e-3, 1e-3)
    assert len(curve) == n + 1 and curve.times[-1] - curve.times[-2] < 1e-3
    assert_same_outcome(lambda: rhs, x0, t0, t0 + (n - 0.5) * 1e-3, 1e-3)


def special_values(rng, shape, top):
    """Seeded floats of either sign up to 10**top in magnitude, with exact +-0.0 and subnormals among them."""
    v = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-300.0, top, shape)
    kind = rng.integers(0, 5, shape)
    v[kind == 0] = np.where(rng.random(np.count_nonzero(kind == 0)) < 0.5, 0.0, -0.0)
    v[kind == 1] = rng.integers(-1000, 1000, np.count_nonzero(kind == 1)) * 5e-324
    return v


def drawn_field(seed, d):
    """A seeded field rate = a + b * x whose coefficients a (up to 1e300) and b (up to 1) are drawn afresh at
    every call, so that rates and states span +-0.0, subnormals and magnitudes up to 1e+-300."""
    rng = np.random.default_rng(seed)
    return lambda t, x: special_values(rng, d, 300.0) + special_values(rng, d, 0.0) * x


@pytest.mark.parametrize("seed", range(40))
def test_seeded_fields_are_the_numpy_steps_bits(seed):
    d = 1 + seed % 6
    x0 = special_values(np.random.default_rng([seed, 1]), d, 300.0)
    t1 = 12.5e-3 if seed % 2 else 12e-3  # an odd seed ends on a shortened step
    assert_same_outcome(partial(drawn_field, seed, d), x0, 0.0, t1, 1e-3)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(x0=st.lists(FLOATS, min_size=1, max_size=6), coeffs=st.lists(FLOATS, min_size=2, max_size=12),
       dt=st.sampled_from([1e-3, 0.1, 1.0, 7.0]), steps=st.floats(0.25, 6.0))
def test_any_field_gives_the_numpy_steps_bits(x0, coeffs, dt, steps):
    # the field cycles through the drawn coefficients: rate_i = a + b * x_i for the next pair (a, b)
    def make_rhs():
        calls = iter(range(10 ** 6))

        def rhs(t, x):
            k = 2 * next(calls) % (len(coeffs) - 1)
            return coeffs[k] + coeffs[k + 1] * x
        return rhs

    assert_same_outcome(make_rhs, np.array(x0), 0.0, steps * dt, dt)


def test_a_stage_overflowing_to_inf_names_the_step_end():
    # the second stage state 1.5e308 + 0.5 * 1e308 overflows, and the next rhs raises at it, as a stencil does
    def rhs(t, x):
        if not np.isfinite(x).all():
            raise NumericFailure("finite-difference base point non-finite")
        return np.array([1e308])

    with pytest.raises(NumericFailure, match=r"^state went non-finite at t=1$") as err:
        integrate_rk4(rhs, np.array([1.5e308]), 0.0, 3.0, 1.0)
    assert err.value.last_good_time == 0.0
    assert_same_outcome(lambda: rhs, np.array([1.5e308]), 0.0, 3.0, 1.0)


def test_an_update_overflowing_to_inf_names_the_step_end():
    # every rate is 1e308, so k1 + 2 k2 overflows in the update though each stage's rate is finite
    def rhs(t, x):
        return np.array([1e308, 0.0])

    with pytest.raises(NumericFailure, match=r"^state went non-finite at t=1$") as err:
        integrate_rk4(rhs, np.array([0.0, 1.0]), 0.0, 3.0, 1.0)
    assert err.value.last_good_time == 0.0
    assert_same_outcome(lambda: rhs, np.array([0.0, 1.0]), 0.0, 3.0, 1.0)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(2,), (4,), (1, 3), ()], ids=str)
def test_a_rate_of_the_wrong_shape_names_its_step(stage, shape):
    # stage k of the step from t = 0.2 returns a rate of another shape than the state's (3,): before, a short
    # k4 escaped as numpy's broadcast error and a (1, 3) rate broadcast through every later step
    calls = []

    def rhs(t, x):
        calls.append(t)
        return np.ones(shape) if len(calls) == 8 + stage else -x

    message = rf"^rate of shape {re.escape(str(shape))} at a state of shape \(3,\) in the step from t=0\.2$"
    with pytest.raises(NumericFailure, match=message) as err:
        integrate_rk4(rhs, np.ones(3), 0.0, 1.0, 0.1)
    assert err.value.last_good_time == pytest.approx(0.2)
    assert len(calls) == 8 + stage


@pytest.mark.parametrize("x0", [np.ones((2, 2)), np.float64(1.0)], ids=["2-D", "0-D"])
def test_an_initial_state_that_is_not_a_vector_raises_before_any_rhs_call(x0):
    calls = []
    with pytest.raises(ValueError, match="^the initial state must be a vector$"):
        integrate_rk4(lambda t, x: calls.append(t) or x, x0, 0.0, 1.0, 0.1)
    assert calls == []


def test_each_stage_gets_a_fresh_float64_array_and_each_row_is_one_of_them():
    seen = []

    def rhs(t, x):
        seen.append(x)
        return -x

    curve = integrate_rk4(rhs, [1, 2], 0.0, 0.3, 0.1)
    assert len(seen) == 12 and len({id(x) for x in seen}) == 12
    assert all(type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (2,) for x in seen)
    # the row of each step is the array its first stage read
    assert [x.tobytes() for x in seen[::4]] == [row.tobytes() for row in curve.points[:-1]]

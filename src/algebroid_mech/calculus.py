"""Coordinate-chart numerics: smooth fields, finite differences, fixed-step RK4.

Everything downstream (brackets, Hamilton equations, residuals) is built on
the three primitives here: ``fd_gradient``, ``fd_jacobian`` and
``integrate_rk4``.  One central-difference stencil serves both
``fd_gradient`` and ``fd_jacobian``.  All operations are pure; values are
plain float64 numpy arrays and are never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericFailure

# Central differences, O(h^2).  The per-component step balances truncation
# against roundoff for double precision.
FD_SCALE = 1e-6

# The most steps one integrate_rk4 call may take; a longer run is a usage
# error raised before the first right-hand-side evaluation.
RK4_STEP_CAP = 1_000_000


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart: dimension and coordinate names.

    Angles are stored unwrapped on the real line.
    """

    dim: int
    coord_names: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        names = tuple(self.coord_names)
        if len(names) != self.dim or len(set(names)) != self.dim:
            raise ValueError("coordinate names must be unique and match dim")
        object.__setattr__(self, "coord_names", names)


@dataclass(frozen=True)
class ScalarField:
    """A real function on a chart, with an optional analytic gradient.

    When ``grad`` is supplied it must agree with central differences; see
    ``check_gradient``.
    """

    eval: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, q) -> float:
        return float(self.eval(np.asarray(q, dtype=float)))


def as_scalar_field(f) -> ScalarField:
    if isinstance(f, ScalarField):
        return f
    return ScalarField(eval=f)


def fd_gradient(f, q, h=None) -> np.ndarray:
    """Gradient of a scalar field at q.

    Uses the analytic gradient when the field carries one; otherwise
    central differences with step ``h`` (scalar or per-component), default
    FD_SCALE * max(1, |q_i|).  Raises NumericFailure on a non-finite value,
    or on a non-finite q when differencing.  One point's analytic gradient
    is tested by ``math.isfinite`` over its floats, which on up to 8 floats
    costs under half of numpy's count; any other shape by ``require_finite``.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(f, ScalarField) and f.grad is not None:
        g = np.asarray(f.grad(q), dtype=float)
        return g if g.ndim == 1 and all(map(math.isfinite, g.tolist())) else require_finite(g, "analytic gradient", q)
    fn = f.eval if isinstance(f, ScalarField) else f
    return _central_differences(lambda x: float(fn(x)), q, h, False, "field")[0]


def fd_jacobian(fn, q, h=None, stacked=False) -> np.ndarray:
    """Jacobian (k, m) of a vector-valued function by central differences.

    ``fn`` is called on each of the 2m stencil points q + h_i e_i, then
    q - h_i e_i; with ``stacked=True`` it gets them all as one (2m, m)
    array and returns the 2m values stacked.  Both give the same bits.
    Raises NumericFailure on a non-finite q or value.
    """
    return _central_differences(fn, np.asarray(q, dtype=float), h, stacked, "function")


def _central_differences(fn, q, h, stacked, what) -> np.ndarray:
    """The one stencil behind ``fd_gradient`` and ``fd_jacobian``: (k, m) central
    differences of ``fn`` at q, step ``h`` or FD_SCALE * max(1, |q_i|).

    A stack of points q (K, m) gives (K, k, m), each point's bits as if alone (an error
    names the first failing point, and K = 0 takes k from fn); with ``stacked`` fn gets all K * 2m rows in one call."""
    finite = np.isfinite(q)
    if np.count_nonzero(finite) < finite.size:  # counted, as in ``require_finite``
        _fail_at_first(q, finite.all(axis=-1), "finite-difference base point non-finite at")
    steps = FD_SCALE * np.maximum(1.0, np.abs(q)) if h is None else np.broadcast_to(np.asarray(h, dtype=float), q.shape)
    m = q.shape[-1]
    idx = np.arange(m)
    stencil = np.repeat(q[..., None, :], 2 * m, axis=-2)
    stencil[..., idx, idx] += steps
    stencil[..., m + idx, idx] -= steps
    rows = stencil.reshape(-1, m)
    vals = np.asarray(fn(rows) if stacked else [fn(x) for x in rows], dtype=float)
    vals = vals.reshape(q.shape[:-1] + (2 * m, -1 if len(rows) else math.prod(vals.shape[1:])))
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) < finite.size:
        _fail_at_first(q, finite.all(axis=(-2, -1)), f"{what} evaluation non-finite near")
    return np.swapaxes((vals[..., :m, :] - vals[..., m:, :]) / (2.0 * steps)[..., None], -1, -2)


def _fail_at_first(q, ok, message):
    """Raise NumericFailure ``message`` naming the first point of q (K, m) not ``ok`` (K,), or q (m,) itself."""
    raise NumericFailure(f"{message} q={q[tuple(np.argwhere(~ok)[0])].tolist()}")


def name_state(q, p=None) -> str:
    """How an error names a point q, or a state (q, p) with its momenta p apart."""
    text = f"q={np.asarray(q, dtype=float).tolist()}"
    return text if p is None else f"{text}, p={np.asarray(p, dtype=float).tolist()}"


def require_finite(value, what: str, q, p=None):
    """``value`` if all of it is finite, else NumericFailure naming ``what`` and q, or the state (q, p)."""
    # counted, not ``.all()``: on the small arrays of a per-point read the reduction costs twice the test
    finite = np.isfinite(value)
    if np.count_nonzero(finite) < finite.size:
        raise NumericFailure(f"{what} non-finite at {name_state(q, p)}")
    return value


def max_abs(values, what: str, q) -> float:
    """Largest |entry| of ``values`` at q (0.0 if empty); a non-finite entry raises NumericFailure
    naming q and ``what`` formatted with the entry's index, e.g. ``"d phi(e_{}, e_{})"``."""
    values = np.abs(np.asarray(values, dtype=float))
    top = float(np.max(values, initial=0.0))
    if not np.isfinite(top):
        require_finite(top, what.format(*np.argwhere(~np.isfinite(values))[0]), q)
    return top


def check_gradient(f: ScalarField, points: Sequence[np.ndarray], tol: float = 1e-6) -> float:
    """Max deviation between the analytic gradient and finite differences.

    Returns the worst absolute deviation over the sample points; callers
    assert against ``tol``.  A non-finite deviation raises NumericFailure.
    """
    if f.grad is None:
        raise ValueError("field has no analytic gradient to check")
    plain = ScalarField(eval=f.eval)
    worst = max((max_abs(fd_gradient(plain, q) - np.asarray(f.grad(q), dtype=float), "gradient deviation[{}]", q)
                 for q in np.asarray(points, dtype=float)), default=0.0)
    if worst > tol:
        raise ValueError(f"analytic gradient disagrees with finite differences: {worst:g} > {tol:g}")
    return worst


@dataclass(frozen=True)
class Curve:
    """Time-stamped samples of a trajectory: times (N,) and points (N, d)."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or points.ndim != 2 or len(times) != len(points):
            raise ValueError("times must be (N,) and points (N, d) of equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.times)


def integrate_rk4(rhs, x0, t0: float, t1: float, dt: float) -> Curve:
    """Classical fixed-step RK4 from t0 to t1.

    Samples at t0, t0+dt, ...; the final step is shortened to land exactly
    on t1.  Raises ValueError for an initial state that is not a vector, a
    non-finite t0, t1, dt or step count or for more than RK4_STEP_CAP steps,
    and NumericFailure (with the last good time) naming the end of the step
    in which the state goes non-finite, or the start of the step in which a
    user callable raises ValueError or ArithmeticError (math's domain error)
    at a finite stage state, or ``rhs`` gives a rate of another shape than
    the state's.

    ``rhs`` gets a fresh float64 array at every stage, and each row of the
    curve is the array its step's first stage read.  Each stage state is
    the numpy expression x + h k; the update x + (h / 6) (k1 + 2 k2 + 2 k3
    + k4) and its finite test are one pass over the state's Python floats,
    which does the numpy expression's IEEE operations in the same order (the
    sum left to right), so it keeps its bits without the cost of seven
    numpy calls on a few floats.
    """
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ValueError("t0, t1 and dt must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("the initial state must be a vector")
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
    times, states, xs, shape = [t0], [x], x.tolist(), x.shape
    t = t0
    for k in range(n_steps):
        step = dt if k < n_full else last_partial
        half = 0.5 * step
        try:
            k1 = _rate(rhs, t, stage := x, shape)
            k2 = _rate(rhs, t + half, stage := x + half * k1, shape)
            k3 = _rate(rhs, t + half, stage := x + half * k2, shape)
            k4 = _rate(rhs, t + step, stage := x + step * k3, shape)
        except (NumericFailure, ValueError, ArithmeticError) as exc:
            if not np.isfinite(stage).all():  # a non-finite stage state: name the step, not the next stage's error
                raise NumericFailure(f"state went non-finite at t={t + step:g}", last_good_time=times[-1]) from None
            if isinstance(exc, NumericFailure):
                raise
            raise NumericFailure(f"{exc} in the step from t={t:g}", last_good_time=times[-1]) from exc
        s6 = step / 6.0
        xs = [a + s6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
              for a, b1, b2, b3, b4 in zip(xs, k1.tolist(), k2.tolist(), k3.tolist(), k4.tolist())]
        t = t1 if k + 1 == n_steps else t0 + (k + 1) * dt
        if not all(map(math.isfinite, xs)):
            raise NumericFailure(f"state went non-finite at t={t:g}", last_good_time=times[-1])
        times.append(t)
        states.append(x := np.array(xs))  # the row the next step's first stage reads
    return Curve(times=np.array(times), points=np.array(states))


def _rate(rhs, t, state, shape) -> np.ndarray:
    """``rhs(t, state)`` as a float array; a rate whose shape is not the state's ``shape`` raises ValueError,
    where numpy would broadcast it into the next stage state."""
    rate = np.asarray(rhs(t, state), dtype=float)
    if rate.shape != shape:
        raise ValueError(f"rate of shape {rate.shape} at a state of shape {shape}")
    return rate

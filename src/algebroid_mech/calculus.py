"""Coordinate-chart numerics: smooth fields, finite differences, fixed-step RK4.

Everything downstream (brackets, Hamilton equations, residuals) is built on
the three primitives here: ``fd_gradient``, ``fd_jacobian`` and
``integrate_rk4``.  One central-difference stencil serves both
``fd_gradient`` and ``fd_jacobian``.  All operations are pure; values are
plain float64 numpy arrays and are never mutated after construction.
"""

from __future__ import annotations

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
    """A single coordinate chart: dimension, coordinate names, periodicity flags.

    Angles are stored unwrapped on the real line; ``wrap`` is only for
    display purposes.
    """

    dim: int
    coord_names: tuple
    periodic: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        names = tuple(self.coord_names)
        if len(names) != self.dim or len(set(names)) != self.dim:
            raise ValueError("coordinate names must be unique and match dim")
        object.__setattr__(self, "coord_names", names)
        per = tuple(self.periodic) if self.periodic else (False,) * self.dim
        if len(per) != self.dim:
            raise ValueError("periodic flags must match dim")
        object.__setattr__(self, "periodic", per)

    def wrap(self, q: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates to (-pi, pi] for display."""
        q = np.array(q, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                q[i] = np.pi - np.mod(np.pi - q[i], 2.0 * np.pi)
        return q


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
    or on a non-finite q when differencing.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(f, ScalarField) and f.grad is not None:
        return require_finite(np.asarray(f.grad(q), dtype=float), "analytic gradient", q)
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
    differences of ``fn`` at q, step ``h`` or FD_SCALE * max(1, |q_i|)."""
    require_finite(q, "finite-difference base point", q)
    steps = FD_SCALE * np.maximum(1.0, np.abs(q)) if h is None else np.broadcast_to(np.asarray(h, dtype=float), q.shape)
    m = q.shape[0]
    idx = np.arange(m)
    stencil = np.tile(q, (2 * m, 1))
    stencil[idx, idx] += steps
    stencil[m + idx, idx] -= steps
    vals = np.asarray(fn(stencil) if stacked else [fn(x) for x in stencil], dtype=float).reshape(2 * m, -1)
    if not np.all(np.isfinite(vals)):
        raise NumericFailure(f"{what} evaluation non-finite near q={list(map(float, q))}")
    return ((vals[:m] - vals[m:]) / (2.0 * steps)[:, None]).T


def require_finite(value, what: str, q):
    """``value`` if all of it is finite, else NumericFailure naming ``what`` and q."""
    if not np.isfinite(value).all():
        raise NumericFailure(f"{what} non-finite at q={list(map(float, q))}")
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
    on t1.  Raises ValueError for a non-finite t0, t1, dt or step count or
    for more than RK4_STEP_CAP steps, and NumericFailure (with the last
    good time) if the state goes non-finite.
    """
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
    times = [t0]
    states = [x.copy()]
    t = t0
    for k in range(n_steps):
        step = dt if k < n_full else last_partial
        k1 = np.asarray(rhs(t, x), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * step, x + 0.5 * step * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * step, x + 0.5 * step * k2), dtype=float)
        k4 = np.asarray(rhs(t + step, x + step * k3), dtype=float)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t1 if k + 1 == n_steps else t0 + (k + 1) * dt
        if not np.isfinite(x).all():
            raise NumericFailure(
                f"state went non-finite at t={t:g}", last_good_time=times[-1]
            )
        times.append(t)
        states.append(x.copy())
    return Curve(times=np.array(times), points=np.array(states))

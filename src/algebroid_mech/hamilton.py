"""Linear almost-Poisson bracket on the dual, Hamilton equations, the
dissipative term and the projected vector field on the base.

Coordinate layout on the dual of a rank-n algebroid over an m-dim chart:
x_full = (q^1..q^m, p_0, p_1, ..., p_{n-1}).  For adapted algebroids p_0
is the fiber coordinate dual to the cocycle direction and the reduced
phase space (q, p_1..p_{n-1}) carries the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .algebroid import DualSection, SkewAlgebroid, _constant, _read_at
from .calculus import Curve, ScalarField, as_scalar_field, fd_gradient, integrate_rk4


@dataclass(frozen=True)
class HamiltonianSystem:
    """An adapted algebroid plus a Hamiltonian H(q, p_1..p_{n-1}).

    ``H`` is a ScalarField over the concatenated (q, p) coordinates of the
    reduced phase space, whose layout (m, m + n - 1) is bound once, here.
    Over a constant anchor and C (``_Constant``) whose C_V[1:] = C[1:, 1:, 1:]
    is exactly zero, as in a force extension of a tangent algebroid, the
    Hamilton field is one affine map of (dH, x) = (dH/dq, dH/dp, q, p), bound
    read-only as ``_field`` = (F, d) (else None): F (dim, 2 dim) has the blocks
    F[:m, m:dim] = rho_V, F[m:, :m] = -rho_V^T and F[m:, dim + m:] = K =
    0.0 + C_V[0], the momentum coefficient with einsum's bits, and d = (rho_0, 0),
    where rho_0 = rho[:, 0], rho_V = rho[:, 1:] and C_V = C[:, 1:, 1:].  Every
    other read of the anchor and C goes through ``_read_at`` or ``anchor_at``,
    which return a ``_Constant``'s array without a call.
    """

    algebroid: SkewAlgebroid
    H: ScalarField

    def __post_init__(self):
        A = self.algebroid
        if not A.adapted:
            raise ValueError("HamiltonianSystem requires an adapted algebroid")
        object.__setattr__(self, "H", as_scalar_field(self.H))
        m, dim = A.chart.dim, A.chart.dim + A.rank - 1
        object.__setattr__(self, "_layout", (m, dim))
        field = None
        if _constant(A._anchor, A._structure) and not A._structure.value[1:, 1:, 1:].any():
            rho, C = A._anchor.value, A._structure.value
            F, d = np.zeros((dim, 2 * dim)), np.zeros(dim)
            F[:m, m:dim], F[m:, :m], F[m:, dim + m:], d[:m] = rho[:, 1:], -rho[:, 1:].T, 0.0 + C[0, 1:, 1:], rho[:, 0]
            F.flags.writeable = d.flags.writeable = False
            field = F, d
        object.__setattr__(self, "_field", field)

    @property
    def chart(self):
        return self.algebroid.chart

    @property
    def n_momenta(self) -> int:
        return self.algebroid.rank - 1

    def reduced_state(self, x, stack: bool = False) -> np.ndarray:
        """The reduced state (q, p) as one float vector, or with ``stack`` a
        stack of them (K, m + n - 1); a wrong length raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self._layout[1:] or x.ndim != 1 + stack:
            raise ValueError("state length does not match the system")
        return x

    def h_value(self, q, p) -> float:
        return self.H(np.concatenate([np.asarray(q, dtype=float), np.asarray(p, dtype=float)]))

    def h_partials(self, q, p):
        """(dH/dq, dH/dp) at (q, p), analytic when H carries a gradient."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        g = fd_gradient(self.H, np.concatenate([q, p]))
        return g[: len(q)], g[len(q):]


def f_h_eval(sys: HamiltonianSystem, xf) -> float:
    """The fiberwise-affine function representing the hamiltonian section
    at the full dual point xf = (q, p0, p): F(q, p0, p) = p0 + H(q, p).
    A wrong length raises ValueError."""
    xf = np.asarray(xf, dtype=float)
    m = sys.chart.dim
    if len(xf) != m + sys.algebroid.rank:
        raise ValueError("full dual point length does not match the system")
    return float(xf[m]) + sys.h_value(xf[:m], xf[m + 1:])


def poisson_bracket_eval(A: SkewAlgebroid, F, G, x) -> float:
    """Linear almost-Poisson bracket {F, G} on the full dual of A.

    F and G are scalar fields of the full dual coordinates
    (q, p_0..p_{rank-1}); x is such a coordinate vector, of length
    m + rank.  The bivector is

        rho_a^i  d/dq^i ^ d/dp_a  -  (1/2) C_{ab}^c p_c  d/dp_a ^ d/dp_b,

    which for adapted frames splits into the p_0 / reduced parts.  This
    reads the blocks of the matrix ``_bivector_at`` and sums over pairs
    a < b, so the result is exactly antisymmetric and {F, F} is exactly 0.
    """
    xf = np.asarray(x, dtype=float)
    m = A.chart.dim
    L = _bivector_at(A, xf)
    gF, gG = fd_gradient(as_scalar_field(F), xf), fd_gradient(as_scalar_field(G), xf)
    dFq, dFp, dGq, dGp = gF[:m], gF[m:], gG[:m], gG[m:]
    rho = np.ascontiguousarray(L[:m, m:])  # laid out like the anchor, so the products keep its bits
    val = float(dFq @ rho @ dGp - dGq @ rho @ dFp)
    for a, b in combinations(range(A.rank), 2):
        if L[m + a, m + b] != 0.0:
            val += L[m + a, m + b] * (dFp[a] * dGp[b] - dFp[b] * dGp[a])
    return val


def _bivector_at(A: SkewAlgebroid, xf: np.ndarray) -> np.ndarray:
    """The Poisson matrix (m + n, m + n) of the bracket at the full dual
    point xf, so {F, G} = grad F . L . grad G: the blocks are
    [[0, rho], [-rho^T, -C_{ab}^c p_c]], from one read of the anchor and
    one of C; a stack of points xf (K, m + n) gives the stack of matrices."""
    m = A.chart.dim
    if xf.shape[-1] != m + A.rank:
        raise ValueError("phase coordinates do not match the algebroid")
    rho, C = _read_at(A, xf[..., :m])
    L = np.zeros(xf.shape + xf.shape[-1:])
    L[..., :m, m:] = rho
    L[..., m:, :m] = -np.swapaxes(rho, -1, -2)
    L[..., m:, m:] = -(C @ xf[..., None, m:, None])[..., 0]
    return L


def _zeta(dHp) -> np.ndarray:
    """The characteristic section zeta_H = (1, dH/dp) in the full frame."""
    w = np.empty(len(dHp) + 1)
    w[0], w[1:] = 1.0, dHp
    return w


def _pdot_rhs(p, dHq, dHp, rho, C, out=None) -> np.ndarray:
    """Right-hand side of the momentum equations at (q, p):

        dp_b/dt = -rho_b^i dH/dq^i + (C_{0b}^c + C_{ab}^c dH/dp_a) p_c

    from dH/dq, dH/dp and the anchor rho and C at q as ``_read_at`` returns them, into ``out`` if
    given; it slices rho_V^T = rho[:, 1:]^T and C_V = C[:, 1:, 1:] itself, and the coefficient in
    brackets is C_V contracted with zeta_H by einsum.  A system's bound ``_field`` holds that
    coefficient when C_V[1:] is zero: einsum sums 0.0 + C_V[0] * 1 + C_V[a] zeta_a in order of a,
    and with dH/dp finite each later term is +-0.0, which leaves a sum that is never -0.0 unchanged.
    """
    coeff = np.einsum("abc,a->bc", C[:, 1:, 1:], _zeta(dHp))  # C_{alpha b}^c contracted with zeta_alpha, b, c >= 1
    return np.subtract(coeff @ p, rho[:, 1:].T @ dHq, out=out)  # b - a is -a + b, bit for bit


def hamilton_rhs(sys: HamiltonianSystem, t: float, x) -> np.ndarray:
    """Rates (dq/dt, dp/dt) of the Hamilton equations at the state x.

    x is the reduced state (q, p).  One call takes one gradient of H and
    one ``_read_at`` of the anchor and C, and writes both rates into one
    row; over a bound ``_field`` it reads neither, and the rates are the one
    product F @ (dH, x) + d, where a non-finite dH/dp spreads to every rate
    (0 * inf is NaN).  Explicit time enters only through chart coordinates,
    so t is unused here; it is kept for integrator compatibility.
    """
    x = sys.reduced_state(x)
    g = fd_gradient(sys.H, x)
    if sys._field is not None:
        return sys._field[0] @ np.concatenate((g, x)) + sys._field[1]
    m, dim = sys._layout
    q, p, dHq, dHp = x[:m], x[m:], g[:m], g[m:]
    rho, C = _read_at(sys.algebroid, q)
    row = np.empty(dim)
    np.add(rho[:, 1:] @ dHp, rho[:, 0], out=row[:m])
    _pdot_rhs(p, dHq, dHp, rho, C, out=row[m:])
    return row


def integrate_hamilton(sys: HamiltonianSystem, x0, t0: float, t1: float, dt: float) -> Curve:
    """Integrate the Hamilton equations with RK4; states are (q, p) rows."""
    return integrate_rk4(partial(hamilton_rhs, sys), sys.reduced_state(x0), t0, t1, dt)


def dissipation_rate(sys: HamiltonianSystem, x):
    """Rate of change of H along the flow:

        {H, F} = rho_0^i dH/dq^i + C_{0b}^c p_c dH/dp_b.

    Vanishes when the cocycle direction is anchored to zero and does not
    bracket into the kernel (conservative case).  A stack of states x
    (K, m + n - 1) gives the K rates, each the bits of its state alone: one
    gradient of H per state, one ``_read_at`` of the stack (a ``_Constant``
    broadcasts) and stacked vector-vector products, each with a dot's bits.
    An analytic gradient is read per state and the stack's are tested for
    finiteness at once; a stack that fails is reread through
    ``fd_gradient``, which names the first state whose gradient is not finite.
    """
    Xs = np.atleast_2d(sys.reduced_state(x, stack=np.ndim(x) == 2))
    m = sys._layout[0]
    grad = sys.H.grad
    g = None if grad is None else np.array([grad(xk) for xk in Xs], dtype=float)
    if g is None or np.count_nonzero(np.isfinite(g)) < g.size:
        g = np.array([fd_gradient(sys.H, xk) for xk in Xs])
    g = g.reshape(Xs.shape)
    rho, C = _read_at(sys.algebroid, Xs[:, :m])
    val = (rho[..., None, :, 0] @ g[:, :m, None])[:, 0, 0]
    Cp = (C[..., 0, 1:, None, 1:] @ Xs[:, None, m:, None])[..., 0, 0]  # column b is C_{0, b+1}^c p_c, c >= 1
    for b in range(Cp.shape[-1]):
        val += Cp[:, b] * g[:, m + b]
    return val if np.ndim(x) == 2 else float(val[0])


def projected_field(sys: HamiltonianSystem, alpha: DualSection, q) -> np.ndarray:
    """The vector field on the base obtained by composing the hamiltonian
    flow direction with the section alpha:

        (R^alpha)^i = rho_0^i + rho_a^i (dH/dp_a)(q, alpha(q)),

    from one ``anchor_at`` read.
    """
    q = np.asarray(q, dtype=float)
    p = alpha(q)
    _, dHp = sys.h_partials(q, p)
    rho = sys.algebroid.anchor_at(q)
    return rho[:, 0] + rho[:, 1:] @ dHp

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
    Over a constant anchor and C (``_Constant``), so are the operands of the
    Hamilton field, rho_0, rho_V, rho_V^T and C_V, as views of the stored
    read-only arrays, so its RK4 stages, HJ residuals and dissipation rows
    read neither the anchor nor C.  When moreover C_V[1:] is exactly zero, as
    in a force extension of a tangent algebroid, the momentum coefficient
    K = 0.0 + C_V[0] is bound too (``_coeff``, read-only; else None), and the
    momentum rates take no einsum (``_pdot_rhs``).
    """

    algebroid: SkewAlgebroid
    H: ScalarField

    def __post_init__(self):
        A = self.algebroid
        if not A.adapted:
            raise ValueError("HamiltonianSystem requires an adapted algebroid")
        object.__setattr__(self, "H", as_scalar_field(self.H))
        bound = _split(A._anchor.value, A._structure.value) if _constant(A._anchor, A._structure) else None
        object.__setattr__(self, "_bound", bound)
        coeff = None if bound is None or bound[3][1:].any() else 0.0 + bound[3][0]
        if coeff is not None:
            coeff.flags.writeable = False
        object.__setattr__(self, "_coeff", coeff)
        object.__setattr__(self, "_layout", (A.chart.dim, A.chart.dim + A.rank - 1))

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


def _split(rho, C=None):
    """The operands of the Hamilton field as views of the anchor rho and of
    C: rho_0 = rho[:, 0], rho_V = rho[:, 1:], rho_V^T and C_V = C[:, 1:, 1:]
    (None without C), or their stacks from stacks of rho and C."""
    rhoV = rho[..., 1:]
    return rho[..., 0], rhoV, np.swapaxes(rhoV, -1, -2), None if C is None else C[..., 1:, 1:]


def _operands(sys: HamiltonianSystem, q, structure: bool = True):
    """rho_0, rho_V, rho_V^T and C_V at q: those bound over constant data,
    else from one joint ``_read_at`` of the anchor and C, or from one anchor
    read alone when not ``structure`` (C_V is then None)."""
    if sys._bound is not None:
        return sys._bound
    return _split(*_read_at(sys.algebroid, q)) if structure else _split(sys.algebroid.anchor_at(q))


def _zeta(dHp) -> np.ndarray:
    """The characteristic section zeta_H = (1, dH/dp) in the full frame."""
    w = np.empty(len(dHp) + 1)
    w[0], w[1:] = 1.0, dHp
    return w


def _pdot_rhs(p, dHq, dHp, rhoVT, CV, coeff=None, out=None) -> np.ndarray:
    """Right-hand side of the momentum equations at (q, p):

        dp_b/dt = -rho_b^i dH/dq^i + (C_{0b}^c + C_{ab}^c dH/dp_a) p_c

    from dH/dq, dH/dp and the operands rho_V^T and C_V at q (``_operands``), into ``out`` if given.
    The coefficient in brackets is C_V contracted with zeta_H by einsum, or the system's bound
    ``_coeff`` when given.  That is einsum's bits: einsum sums 0.0 + C_V[0] * 1 + C_V[a] zeta_a
    in order of a, and with every C_V[a >= 1] zero and dH/dp finite each later term is +-0.0,
    which leaves a sum that is never -0.0 unchanged.  A non-finite dH/dp still fails the same
    RK4 step or grid point through rho_V . dH/dp, or ``require_finite`` raises it for an analytic gradient.
    """
    if coeff is None:  # (C_{alpha b}^c) contracted with zeta_alpha, for b, c >= 1
        coeff = np.einsum("abc,a->bc", CV, _zeta(dHp))
    return np.subtract(coeff @ p, rhoVT @ dHq, out=out)  # b - a is -a + b, bit for bit


def hamilton_rhs(sys: HamiltonianSystem, t: float, x) -> np.ndarray:
    """Rates (dq/dt, dp/dt) of the Hamilton equations at the state x.

    x is the reduced state (q, p).  One call takes one gradient of H and
    reads the anchor once and C once, or neither over constant data, whose
    operands the system binds once; both rates are written into one row.
    Explicit time enters only through chart coordinates, so t is unused
    here; it is kept for integrator compatibility.
    """
    x = sys.reduced_state(x)
    m, dim = sys._layout
    g = fd_gradient(sys.H, x)
    q, p, dHq, dHp = x[:m], x[m:], g[:m], g[m:]
    rho0, rhoV, rhoVT, CV = _operands(sys, q)
    row = np.empty(dim)
    np.add(rhoV @ dHp, rho0, out=row[:m])
    _pdot_rhs(p, dHq, dHp, rhoVT, CV, sys._coeff, out=row[m:])
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
    gradient of H per state, one ``_read_at`` of the stack (or the bound
    operands) and stacked vector-vector products, each with a dot's bits.
    """
    Xs = np.atleast_2d(sys.reduced_state(x, stack=np.ndim(x) == 2))
    m = sys._layout[0]
    g = np.array([fd_gradient(sys.H, xk) for xk in Xs]).reshape(Xs.shape)
    rho0, _, _, CV = _operands(sys, Xs[:, :m])
    val = (rho0[..., None, :] @ g[:, :m, None])[:, 0, 0]
    Cp = (CV[..., 0, :, None, :] @ Xs[:, None, m:, None])[..., 0, 0]  # column b is C_{0, b+1}^c p_c, c >= 1
    for b in range(Cp.shape[-1]):
        val += Cp[:, b] * g[:, m + b]
    return val if np.ndim(x) == 2 else float(val[0])


def projected_field(sys: HamiltonianSystem, alpha: DualSection, q) -> np.ndarray:
    """The vector field on the base obtained by composing the hamiltonian
    flow direction with the section alpha:

        (R^alpha)^i = rho_0^i + rho_a^i (dH/dp_a)(q, alpha(q)).
    """
    q = np.asarray(q, dtype=float)
    p = alpha(q)
    _, dHp = sys.h_partials(q, p)
    rho0, rhoV, _, _ = _operands(sys, q, structure=False)
    return rho0 + rhoV @ dHp

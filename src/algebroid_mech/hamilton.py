"""Linear almost-Poisson bracket on the dual, Hamilton equations, the
dissipative term and the projected vector field on the base.

Coordinate layout on the dual of a rank-n algebroid over an m-dim chart:
x_full = (q^1..q^m, p_0, p_1, ..., p_{n-1}).  For adapted algebroids p_0
is the fiber coordinate dual to the cocycle direction and the reduced
phase space (q, p_1..p_{n-1}) carries the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebroid import DualSection, SkewAlgebroid, _constant, _read_at
from .calculus import Curve, ScalarField, as_scalar_field, fd_gradient, integrate_rk4


@dataclass(frozen=True)
class HamiltonianSystem:
    """An adapted algebroid plus a Hamiltonian H(q, p_1..p_{n-1}).

    ``H`` is a ScalarField over the concatenated (q, p) coordinates of the
    reduced phase space.  Over a constant anchor and C (``_Constant``), the
    operands of the Hamilton field, rho_0, rho_V, rho_V^T and C_V, are
    bound once, here, as views of the stored read-only arrays, so its RK4
    stages, HJ residuals and dissipation rows read neither the anchor nor C.
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

    @property
    def chart(self):
        return self.algebroid.chart

    @property
    def n_momenta(self) -> int:
        return self.algebroid.rank - 1

    def reduced_state(self, x) -> np.ndarray:
        """The reduced state (q, p) as one float vector; a wrong length
        raises ValueError."""
        x = np.asarray(x, dtype=float)
        if len(x) != self.chart.dim + self.n_momenta:
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
    (None without C)."""
    rhoV = rho[:, 1:]
    return rho[:, 0], rhoV, rhoV.T, None if C is None else C[:, 1:, 1:]


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


def _pdot_rhs(p, dHq, dHp, rhoVT, CV) -> np.ndarray:
    """Right-hand side of the momentum equations at (q, p):

        dp_b/dt = -rho_b^i dH/dq^i + (C_{0b}^c + C_{ab}^c dH/dp_a) p_c

    from dH/dq, dH/dp and the operands rho_V^T and C_V at q (``_operands``).
    """
    # (C_{alpha b}^c) contracted with zeta_alpha and p_c, for b, c >= 1
    coeff = np.einsum("abc,a->bc", CV, _zeta(dHp))
    return -(rhoVT @ dHq) + coeff @ p


def _state_partials(sys: HamiltonianSystem, x):
    """q, p, dH/dq and dH/dp at the reduced state x (views of x and of one
    gradient of H taken at x itself)."""
    x = sys.reduced_state(x)
    m = sys.chart.dim
    g = fd_gradient(sys.H, x)
    return x[:m], x[m:], g[:m], g[m:]


def hamilton_rhs(sys: HamiltonianSystem, t: float, x) -> np.ndarray:
    """Rates (dq/dt, dp/dt) of the Hamilton equations at the state x.

    x is the reduced state (q, p).  One call takes one gradient of H and
    reads the anchor once and C once, or neither over constant data, whose
    operands the system binds once.  Explicit time enters only through
    chart coordinates, so t is unused here; it is kept for integrator
    compatibility.
    """
    q, p, dHq, dHp = _state_partials(sys, x)
    rho0, rhoV, rhoVT, CV = _operands(sys, q)
    return np.concatenate([rho0 + rhoV @ dHp, _pdot_rhs(p, dHq, dHp, rhoVT, CV)])


def integrate_hamilton(sys: HamiltonianSystem, x0, t0: float, t1: float, dt: float) -> Curve:
    """Integrate the Hamilton equations with RK4; states are (q, p) rows."""
    return integrate_rk4(lambda t, x: hamilton_rhs(sys, t, x), sys.reduced_state(x0), t0, t1, dt)


def dissipation_rate(sys: HamiltonianSystem, x) -> float:
    """Rate of change of H along the flow:

        {H, F} = rho_0^i dH/dq^i + C_{0b}^c p_c dH/dp_b.

    Vanishes when the cocycle direction is anchored to zero and does not
    bracket into the kernel (conservative case).
    """
    q, p, dHq, dHp = _state_partials(sys, x)
    rho0, _, _, CV = _operands(sys, q)
    val = float(rho0 @ dHq)
    for b, row in enumerate(CV[0]):  # row b is C_{0, b+1}^c for c >= 1
        val += float(row @ p) * dHp[b]
    return val


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

"""Builders that produce skew-symmetric algebroids with a cocycle, plus the
hamiltonian-morphism checker.

Three constructions are provided:

* ``force_extension`` -- extend a rank n-1 algebroid by a trivial line with
  brackets twisted by a bundle homomorphism (linear external forces);
* ``projector_restriction`` -- restrict a Lie algebroid to a subbundle via
  a projector (linear nonholonomic constraints);
* ``affine_constraints`` -- the affine-constraint setup: a drift section
  X0, a constrained subbundle U and a bundle metric produce an adapted
  rank |U|+1 system with kinetic-plus-potential Hamiltonian.

Every builder assembles the dense structure tensor C (n, n, n) of its
algebroid per point: the force extension pads the base tensor and writes
the force rows, and the restricted and affine algebroids share one kernel
(bracket, then project onto a frame).  Per point, the kernel's anchor
needs only the frame; its C, computed on first request, adds the frame's
derivative: analytic when every basis section of a projector restriction
carries a jacobian, else from one stacked finite-difference stencil (so
always for the affine constraints).  Values are memoized per point, keyed
by the exact coordinates, so a repeat visit reuses them and a neighbouring
point never does.  The affine constraints run Gram-Schmidt only on a metric
and basis whose bytes differ from the last uniform stack's, so a constant
metric and basis (the rolling ball) are orthonormalized once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional

import numpy as np

from .algebroid import CheckReport, ESection, SkewAlgebroid, sample_box, v_restriction
from .calculus import ScalarField, as_scalar_field, fd_gradient, fd_jacobian, max_abs, require_finite
from .errors import ConstructionError
from .hamilton import HamiltonianSystem, _bivector_at

_MEMO_POINTS = 1 << 14  # per algebroid, then emptied; a 1000-step lift visits ~8000


@dataclass(frozen=True)
class Homomorphism:
    """A fiberwise linear map of the algebroid, F(e_a) = coeff[a, b] e_b."""

    coeff: Callable[[np.ndarray], np.ndarray]

    def at(self, q) -> np.ndarray:
        return np.asarray(self.coeff(np.asarray(q, dtype=float)), dtype=float)

    @staticmethod
    def constant(matrix) -> "Homomorphism":
        M = np.array(matrix, dtype=float)
        return Homomorphism(coeff=lambda q: M)

    @staticmethod
    def scalar(k: float, rank: int) -> "Homomorphism":
        return Homomorphism.constant(float(k) * np.eye(rank))

    @staticmethod
    def zero(rank: int) -> "Homomorphism":
        return Homomorphism.constant(np.zeros((rank, rank)))


@dataclass(frozen=True)
class MetricField:
    """A bundle metric: symmetric positive-definite fiber matrix per point."""

    matrix: Callable[[np.ndarray], np.ndarray]

    def at(self, q) -> np.ndarray:
        return np.asarray(self.matrix(np.asarray(q, dtype=float)), dtype=float)

    @staticmethod
    def constant(matrix) -> "MetricField":
        M = np.array(matrix, dtype=float)
        return MetricField(matrix=lambda q: M)


@dataclass(frozen=True)
class MorphismPair:
    """A bundle morphism of duals over a base map: q -> psi(q) and
    (q, covector) -> covector in the target fiber."""

    base_map: Callable[[np.ndarray], np.ndarray]
    fiber_map: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def full(self, A_src: SkewAlgebroid, x_full: np.ndarray) -> np.ndarray:
        m = A_src.chart.dim
        q = x_full[:m]
        p = x_full[m:]
        qbar = np.atleast_1d(np.asarray(self.base_map(q), dtype=float))
        pbar = np.asarray(self.fiber_map(q, p), dtype=float)
        return np.concatenate([qbar, pbar])


def force_extension(base: SkewAlgebroid, F: Optional[Homomorphism]) -> SkewAlgebroid:
    """Extend ``base`` by a trivial line: rank n = base.rank + 1, adapted.

    The new frame direction e_0 is anchored to zero and brackets as
    [[e_0, e_a]] = -F_a^b e_b; the base bracket is kept on indices >= 1.
    The frame covector (1, 0, ..., 0) is a cocycle of the result.
    """
    r = base.rank
    if F is not None:
        probe = F.at(np.zeros(base.chart.dim))
        if probe.shape != (r, r):
            raise ValueError(f"homomorphism must be {r}x{r}, got {probe.shape}")
    n = r + 1
    m = base.chart.dim

    def anchor(q):
        out = np.zeros((m, n))
        out[:, 1:] = base.anchor_at(q)
        return out

    def structure(q):
        C = np.zeros((n, n, n))
        C[1:, 1:, 1:] = base.structure_at(q)
        if F is not None:
            C[0, 1:, 1:] = -F.at(q)
            C[1:, 0] = -C[0, 1:]
        return C

    return SkewAlgebroid(chart=base.chart, rank=n, anchor=anchor, structure=structure, adapted=True)


def projector_restriction(
    E: SkewAlgebroid,
    D_basis: List[ESection],
    P: Callable[[np.ndarray, np.ndarray], np.ndarray],
    validation_points=None,
    tol: float = 1e-9,
) -> SkewAlgebroid:
    """Restrict E to the subbundle spanned by ``D_basis`` via the projector P.

    P maps (q, E-fiber vector) to coordinates in the D frame and must
    restrict to the identity on D; this is validated at sample points.
    The restricted bracket is project-after-bracket, the anchor is the
    anchored inclusion.  When every basis section carries a ``jacobian``,
    the kernel differentiates the frame with them; they must agree with
    central differences of the sections within 1e-6 at the same points.
    """
    r = len(D_basis)
    if r < 1:
        raise ValueError("D_basis must be non-empty")
    m = E.chart.dim
    if validation_points is None:
        validation_points = sample_box([(-1.0, 1.0)] * m, samples=8, seed=0)
    points = np.asarray(validation_points, dtype=float)
    worst = max((max_abs(np.array([P(q, s(q)) for s in D_basis], dtype=float) - np.eye(r),
                         "P(q, D_{}(q))[{}]", q) for q in points), default=0.0)
    if worst > tol:
        raise ConstructionError(f"P restricted to D is not the identity: {worst:g} > {tol:g}")

    def frames(Q):
        return np.array([[s(q) for s in D_basis] for q in Q])  # (K, r, n_E)

    frame_jacobian = None
    if all(s.jacobian is not None for s in D_basis):
        def frame_jacobian(q):  # (r, n_E, m)
            return np.array([s.jacobian(q) for s in D_basis], dtype=float)

        worst = 0.0
        for q in points:
            exact, stencil = frame_jacobian(q), fd_jacobian(frames, q, stacked=True).reshape(r, -1, m)
            if exact.shape != stencil.shape:
                raise ValueError(f"section jacobians must have shape {stencil.shape[1:]}, got {exact.shape[1:]}")
            worst = max(worst, max_abs(exact - stencil, "jacobian of D_{}(q)[{}, {}]", q))
        if worst > 1e-6:
            raise ConstructionError(f"section jacobians disagree with finite differences: {worst:g} > 1e-06")

    return _bracket_then_project(E, frames, lambda q, M: lambda val: P(q, val), rank=r, adapted=False,
                                 frame_jacobian=frame_jacobian)


def _bracket_then_project(E: SkewAlgebroid, frames, projection, rank: int, adapted: bool,
                          frame_jacobian=None) -> SkewAlgebroid:
    """The algebroid of a frame {e_a} of E, bracketed in E and projected.

    ``frames`` maps points (K, m) to frames (K, rank, n_E), row a holding
    the E-components of e_a.  The anchor is rho_E(e_a).  The structure
    functions are projection(q, M)([[e_a, e_b]]_E) for the frame M at q, a
    length-``rank`` vector.  The bracket's derivative terms take the frame
    derivative (rank, n_E, m) from ``frame_jacobian(q)`` when given (a
    non-finite value raises NumericFailure), else from central differences
    of the frame, all stencil points in one ``frames`` call.
    """
    memo = {}  # q bytes -> [frame, rho_E, anchor, C]

    def entry(q):  # q arrives as a float array from anchor_at / structure_at
        key = q.tobytes()
        hit = memo.get(key)
        if hit is None:
            if len(memo) >= _MEMO_POINTS:
                memo.clear()
            M = frames(q[None])[0]
            rhoE = E.anchor_at(q)
            hit = memo[key] = [M, rhoE, rhoE @ M.T, None]
        return hit

    def structure(q):
        hit = entry(q)
        if hit[3] is None:
            M, rhoE = hit[0], hit[1]
            if frame_jacobian is None:
                dM = fd_jacobian(frames, q, stacked=True).reshape(M.shape + q.shape)
            else:
                dM = require_finite(frame_jacobian(q), "frame jacobian", q)
            CE = E.structure_at(q)
            anchored = M @ rhoE.T  # (rank, m): rows rho_E(e_a)
            project = projection(q, M)
            C = np.zeros((rank, rank, rank))
            for i, j in combinations(range(rank), 2):
                val = np.einsum("abg,a,b->g", CE, M[i], M[j])
                val = val + dM[j] @ anchored[i] - dM[i] @ anchored[j]
                C[i, j] = project(val)
                C[j, i] = -C[i, j]
            C.flags.writeable = False  # shared by every later visit to q
            hit[3] = C
        return hit[3]

    return SkewAlgebroid(chart=E.chart, rank=rank, anchor=lambda q: entry(q)[2], structure=structure, adapted=adapted)


def gram_schmidt_at(G: MetricField, basis: List[ESection], q) -> np.ndarray:
    """Coefficients T of a G-orthonormal frame at q: ebar_a = T[a, b] basis_b.

    Gram-Schmidt in closed form: T is the inverse Cholesky factor of the
    Gram matrix, followed by one re-orthogonalization pass on the Gram
    matrix of the result; T[a, b] = 0 for b > a.  Raises on pivots below
    1e-10 (degenerate metric or dependent basis).
    """
    q = np.asarray(q, dtype=float)
    Gq = G.at(q)
    B = np.stack([s(q) for s in basis])  # (r, n)
    return _gram_schmidt(Gq, B)


def _gram_schmidt(Gq: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Works on one (r, n) basis or on a stack (K, r, n) with metrics
    # (K, n, n).  The second pass removes the roundoff of the first.
    gram = B @ Gq @ np.swapaxes(B, -1, -2)
    T = _chol_inverse(gram)
    gram2 = T @ gram @ np.swapaxes(T, -1, -2)
    return _chol_inverse(gram2) @ T


def _chol_inverse(gram: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ConstructionError("degenerate metric/basis: Gram matrix not positive-definite")
    piv = float(np.min(np.diagonal(L, axis1=-2, axis2=-1)))
    if not np.isfinite(piv) or piv < 1e-10:
        raise ConstructionError(f"degenerate metric/basis: pivot {piv:g}")
    return np.linalg.solve(L, np.broadcast_to(np.eye(gram.shape[-1]), gram.shape))


def affine_constraints(
    E: SkewAlgebroid,
    G: MetricField,
    U_basis: List[ESection],
    X0: ESection,
    V_potential: Optional[ScalarField] = None,
    validation_points=None,
    name: str = "affine",
    params: Optional[dict] = None,
) -> HamiltonianSystem:
    """Mechanical system with affine constraints: drift X0 plus subbundle U.

    Builds the adapted rank |U|+1 algebroid on the bidual of the affine
    subbundle, with frame {(1, X0), (0, ebar_a)} for a pointwise
    G-orthonormal frame ebar of U, and the Hamiltonian
    H = (1/2) sum p_a^2 + V in that frame.

    The rows of ebar depend only on G(q) and the U basis at q.  When every
    point of a stack has the exact bytes of one metric and one basis, and
    those equal the last such stack's, the stack reuses its rows; otherwise
    (a q-dependent metric or basis) the stack is orthonormalized per call.
    """
    r = len(U_basis)
    if r < 1:
        raise ValueError("U_basis must be non-empty")
    m = E.chart.dim
    if validation_points is None:
        validation_points = sample_box([(-1.0, 1.0)] * m, samples=8, seed=0)

    cached = (None, None)  # (exact bytes of one metric and one basis, their orthonormal rows)

    def frames(Q):
        """Rows: X0 then the orthonormalized U frame, in E components."""
        nonlocal cached
        Gq = np.array([G.at(q) for q in Q])
        B = np.array([[s(q) for s in U_basis] for q in Q])
        X = np.array([X0(q) for q in Q])
        cached_key, rows = cached
        key = (Gq[0].tobytes(), B[0].tobytes())
        uniform = Gq.tobytes() == key[0] * len(Q) and B.tobytes() == key[1] * len(Q)
        if not (uniform and key == cached_key):
            rows = _gram_schmidt(Gq, B) @ B
            if uniform:
                cached = (key, rows[0])
        return np.concatenate([X[:, None, :], np.broadcast_to(rows, B.shape)], axis=1)  # (K, r+1, nE)

    def projection(q, M):
        # G(ebar_a, .) for the orthonormal rows; the drift row has none
        rows = M[1:] @ G.at(q)
        return lambda val: np.concatenate([[0.0], rows @ val])

    # precondition: X0 is G-orthogonal to U
    points = np.asarray(validation_points, dtype=float)
    worst = max((max_abs(projection(q, M)(M[0]), "P(X0)[{}]", q)
                 for q, M in zip(points, frames(points))), default=0.0)
    if worst > 1e-9:
        raise ConstructionError(f"P(X0) != 0: G(X0, U) reaches {worst:g} at validation samples")

    A = _bracket_then_project(E, frames, projection, rank=r + 1, adapted=True)
    A.validate_adapted(validation_points)

    V = as_scalar_field(V_potential) if V_potential is not None else None

    def h_eval(x):
        qq, pp = x[:m], x[m:]
        val = 0.5 * float(pp @ pp)
        if V is not None:
            val += V(qq)
        return val

    def h_grad(x):
        qq, pp = x[:m], x[m:]
        gq = fd_gradient(V, qq) if V is not None else np.zeros(m)
        return np.concatenate([gq, pp])

    H = ScalarField(eval=h_eval, grad=h_grad)
    return HamiltonianSystem(algebroid=A, H=H, name=name, params=dict(params or {}))


@dataclass(frozen=True)
class MorphismEndpoint:
    """One side of a hamiltonian-morphism check: an algebroid (for its
    bracket), the affine hamiltonian function on the full dual, and the
    cocycle components in the frame (None when the side carries none)."""

    algebroid: SkewAlgebroid
    f_h: Callable[[np.ndarray], float]
    cocycle: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def from_system(sys: HamiltonianSystem) -> "MorphismEndpoint":
        m = sys.chart.dim
        phi = np.zeros(sys.algebroid.rank)
        phi[0] = 1.0
        return MorphismEndpoint(
            algebroid=sys.algebroid,
            f_h=lambda xf: float(xf[m]) + sys.h_value(xf[:m], xf[m + 1:]),
            cocycle=lambda q: phi,
        )

    @staticmethod
    def v_side(sys: HamiltonianSystem) -> "MorphismEndpoint":
        """The reduced dual of a system: kernel algebroid, H as hamiltonian,
        zero cocycle (the projection kills the distinguished direction)."""
        A = v_restriction(sys.algebroid)
        m = sys.chart.dim
        zero = np.zeros(A.rank)
        return MorphismEndpoint(
            algebroid=A,
            f_h=lambda xf: sys.h_value(xf[:m], xf[m:]),
            cocycle=lambda q: zero,
        )


def _coerce_endpoint(obj) -> MorphismEndpoint:
    if isinstance(obj, MorphismEndpoint):
        return obj
    if isinstance(obj, HamiltonianSystem):
        return MorphismEndpoint.from_system(obj)
    raise ValueError("expected a HamiltonianSystem or MorphismEndpoint")


def morphism_check(
    src,
    dst,
    pair: MorphismPair,
    box,
    samples: int = 128,
    seed: int = 42,
    tol: float = 1e-6,
):
    """The three numeric conditions of a hamiltonian morphism.

    Returns CheckReports (bracket, cocycle, hamiltonian):

    1. almost-Poisson morphism on the probe family of target base
       coordinates and fiber coordinates;
    2. the cocycles correspond under the fiber map;
    3. the target hamiltonian function pulls back to the source one.

    Per sample, the bracket condition is one comparison of Poisson
    matrices (``hamilton._bivector_at``): J L_src J^T against
    Jbar L_dst Jbar^T, where row i of J is the gradient of probe_i o psi,
    bit for bit, and Jbar holds the probes' own gradients at the image,
    taken by the same central differences so that the identity morphism
    compares equal bits.  Its strict upper triangle is folded.  psi is
    evaluated 2(m + n) + 1 times per sample.  A non-finite value raises
    NumericFailure naming its sample point and probe pair or component.
    """
    src = _coerce_endpoint(src)
    dst = _coerce_endpoint(dst)
    A, Abar = src.algebroid, dst.algebroid
    m, n = A.chart.dim, A.rank
    mbar = Abar.chart.dim

    qs = sample_box(box, samples, seed)
    rng = np.random.default_rng(seed + 1)
    ps = -1.0 + 2.0 * rng.random((samples, n))

    def psi_full(xf):
        return pair.full(A, xf)

    worst1, worst2, worst3 = [], [], []
    for q, p in zip(qs, ps):
        xf = np.concatenate([q, p])
        image = psi_full(xf)
        J = fd_jacobian(psi_full, xf)
        Jbar = fd_jacobian(lambda X: X, image, stacked=True)
        gaps = J @ _bivector_at(A, xf) @ J.T - Jbar @ _bivector_at(Abar, image) @ Jbar.T
        worst1.append((q, max_abs(np.triu(gaps, 1), "bracket of probes {}, {}", q)))
        if src.cocycle is not None and dst.cocycle is not None:
            gap = np.asarray(pair.fiber_map(q, src.cocycle(q)), dtype=float) - dst.cocycle(image[:mbar])
            worst2.append((q, max_abs(gap, "cocycle correspondence[{}]", q)))
        worst3.append((q, max_abs(dst.f_h(image) - src.f_h(xf), "hamiltonian pullback", q)))

    return (
        CheckReport.from_samples("poisson_morphism", worst1, tol, seed),
        CheckReport.from_samples("cocycle_related", worst2, tol, seed),
        CheckReport.from_samples("hamiltonian_pullback", worst3, tol, seed),
    )

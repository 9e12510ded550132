"""Builders that produce skew-symmetric algebroids with a cocycle, plus the
hamiltonian-morphism checker.

Three constructions are provided:

* ``force_extension`` -- extend a rank n-1 algebroid by a trivial line with
  brackets twisted by a bundle homomorphism (linear external forces);
* ``projector_restriction`` -- restrict a Lie algebroid to a subbundle via
  a projector (linear nonholonomic constraints);
* ``affine_constraints`` -- the affine-constraint setup: a drift section
  X0, a constrained subbundle U and a bundle metric produce an adapted
  rank |U|+1 system with the kinetic Hamiltonian of its orthonormal frame.

Every builder assembles the dense structure tensor C (n, n, n) of its
algebroid per point: the restricted and affine algebroids share one kernel
(bracket, then project onto a frame), which also writes the force rows of
their force extension into its one padded build per read; the force
extension of any other base pads that base's tensor.  The two adapted
builders write C_{ab}^0 as an exact 0.0 (the force extension's padding, the
affine projection's leading entry), so no construction checks adaptedness;
``check_cocycle`` of ``adapted_cocycle`` measures it on demand.  At a
point or a stack (each user callable read by ``algebroid.on_stack``), the
kernel's anchor needs only the frame; its C adds the frame's derivative:
analytic when every basis section of a projector restriction carries a
jacobian, else from one stacked finite-difference stencil (so always for
the affine constraints).  The kernel's C declares its stack form, so a
stacked read (``algebroid._read_at``) of a chunk of points builds them all in
one pass, bit for bit as their point reads would.  The kernel keeps only its
last build, a point or a stack, for the reads of those points that follow.
Constant inputs are evaluated once, at construction: the force extension of
a constant base by a constant force is constant, and affine constraints with
a constant metric, U basis and drift (the rolling ball) orthonormalize their
frame once, and bracket it once over a constant C_E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from .algebroid import (CheckReport, ESection, SkewAlgebroid, _Constant, _Stacked, _constant, adapted_cocycle,
                        on_stack, sample_box, stacked_sweep, v_restriction)
from .calculus import ScalarField, _central_differences, fd_jacobian, max_abs, require_finite
from .errors import ConstructionError
from .hamilton import HamiltonianSystem, _bivector_at, f_h_eval


@dataclass(frozen=True)
class Homomorphism:
    """A fiberwise linear map of the algebroid, F(e_a) = coeff[a, b] e_b."""

    coeff: Callable[[np.ndarray], np.ndarray]

    def at(self, q) -> np.ndarray:
        return np.asarray(self.coeff(np.asarray(q, dtype=float)), dtype=float)

    @staticmethod
    def constant(matrix) -> "Homomorphism":
        return Homomorphism(coeff=_Constant(matrix))

    @staticmethod
    def scalar(k: float, rank: int) -> "Homomorphism":
        return Homomorphism.constant(float(k) * np.eye(rank))


@dataclass(frozen=True)
class MetricField:
    """A bundle metric: symmetric positive-definite fiber matrix per point."""

    matrix: Callable[[np.ndarray], np.ndarray]

    def at(self, q) -> np.ndarray:
        return np.asarray(self.matrix(np.asarray(q, dtype=float)), dtype=float)

    @staticmethod
    def constant(matrix) -> "MetricField":
        return MetricField(matrix=_Constant(matrix))


@dataclass(frozen=True)
class MorphismPair:
    """A bundle morphism of duals over a base map: q -> psi(q) and
    (q, covector) -> covector in the target fiber."""

    base_map: Callable[[np.ndarray], np.ndarray]
    fiber_map: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def full(self, A_src: SkewAlgebroid, x_full: np.ndarray) -> np.ndarray:
        """psi at a full dual point (q, p), or at each row of a stack of them (K, m + n), by ``on_stack``."""
        X = np.atleast_2d(np.asarray(x_full, dtype=float))
        Q, P = X[:, :A_src.chart.dim], X[:, A_src.chart.dim:]
        images = np.concatenate([on_stack(self.base_map, Q).reshape(len(X), -1),
                                 on_stack(self.fiber_map, Q, P).reshape(len(X), -1)], axis=1)
        return images if np.ndim(x_full) == 2 else images[0]


def _validation_points(points, m: int) -> np.ndarray:
    """``points`` as floats; by default 8 fixed points spread over [-1, 1]^m, off its axes
    and diagonals: sines of a golden-angle sequence, so building imports no numpy.random."""
    if points is None:
        return np.sin(1.0 + 2.399963229728653 * np.arange(8 * m)).reshape(8, m)
    return np.asarray(points, dtype=float).reshape(len(points), m)  # an empty list, too, is a (0, m) stack


def force_extension(base: SkewAlgebroid, F: Optional[Homomorphism]) -> SkewAlgebroid:
    """Extend ``base`` by a trivial line: rank n = base.rank + 1, adapted.

    The new frame direction e_0 is anchored to zero and brackets as
    [[e_0, e_a]] = -F_a^b e_b; the base bracket is kept on indices >= 1.
    The frame covector (1, 0, ..., 0) is a cocycle of the result, which is
    constant, built here once, when the base is and F is constant or None.
    A construction kernel builds its own (``_forced``); any other base is copied per read.
    """
    r = base.rank
    if F is not None:
        probe = F.at(np.zeros(base.chart.dim))
        if probe.shape != (r, r):
            raise ValueError(f"homomorphism must be {r}x{r}, got {probe.shape}")
    if hasattr(base, "_forced"):
        return base._forced(F)
    n = r + 1
    m = base.chart.dim

    def anchor(q):
        out = np.zeros((m, n))
        out[:, 1:] = base.anchor_at(q)
        return out

    def structure(q):
        C = np.zeros((n, n, n))
        C[1:, 1:, 1:] = base.structure_at(q)
        _force_rows(C, F, q)
        return C

    if _constant(base._anchor, base._structure) and (F is None or _constant(F.coeff)):
        anchor, structure = _Constant(anchor(np.zeros(m))), _Constant(structure(np.zeros(m)))
    return SkewAlgebroid(chart=base.chart, rank=n, anchor=anchor, structure=structure, adapted=True)


def _force_rows(C, F, q) -> None:
    """Write C_{0b}^c = -F_b^c(q) and C_{b0} = -C_{0b} into C (n, n, n), or per row of a stack q into a stack C."""
    if F is not None:
        C[..., 0, 1:, 1:] = -(F.at(q) if q.ndim == 1 else on_stack(F.coeff, q))
        C[..., 1:, 0, :] = -C[..., 0, 1:, :]


def projector_restriction(
    E: SkewAlgebroid,
    D_basis: List[ESection],
    P: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    validation_points=None,
) -> SkewAlgebroid:
    """Restrict E to the subbundle spanned by ``D_basis`` via the projector P.

    P maps (q, E-fiber vector, M) to coordinates in the D frame, where M
    (r, n_E) is that frame at q, row a holding D_a(q); it must restrict to
    the identity on D, within 1e-9 at sample points.
    The restricted bracket is project-after-bracket, the anchor is the
    anchored inclusion.  When every basis section carries a ``jacobian``,
    the kernel differentiates the frame with them; they must agree with
    central differences of the sections, one stencil over all the points,
    within 1e-6.  P runs per point and vector, the sections by ``on_stack``.
    """
    r = len(D_basis)
    if r < 1:
        raise ValueError("D_basis must be non-empty")
    m = E.chart.dim

    frames = partial(on_stack, _rows_of([s.components for s in D_basis]))  # (K, r, n_E) at a stack Q (K, m)

    points = _validation_points(validation_points, m)
    worst = max((max_abs(np.array([P(q, v, M) for v in M], dtype=float) - np.eye(r), "P(q, D_{}(q))[{}]", q)
                 for q, M in zip(points, frames(points))), default=0.0)
    if worst > 1e-9:
        raise ConstructionError(f"P restricted to D is not the identity: {worst:g} > 1e-09")

    frame_jacobian = None
    if all(s.jacobian is not None for s in D_basis):
        frame_jacobian = _rows_of([s.jacobian for s in D_basis])  # (r, n_E, m) at q
        worst = 0.0
        for q, exact, stencil in zip(points, on_stack(frame_jacobian, points),
                                     _central_differences(frames, points, None, True, "function")):
            stencil = stencil.reshape(r, -1, m)
            if exact.shape != stencil.shape:
                raise ValueError(f"section jacobians must have shape {stencil.shape[1:]}, got {exact.shape[1:]}")
            worst = max(worst, max_abs(exact - stencil, "jacobian of D_{}(q)[{}, {}]", q))
        if worst > 1e-6:
            raise ConstructionError(f"section jacobians disagree with finite differences: {worst:g} > 1e-06")

    return _bracket_then_project(E, frames, lambda q, M: lambda val: P(q, val, M), rank=r, adapted=False,
                                 frame_jacobian=frame_jacobian)


def _rows_of(fns) -> _Stacked:
    """The callables ``fns`` side by side: (len(fns), ...) at a point, and (K, len(fns), ...) at a stack (K, m)."""
    return _Stacked(lambda q: np.array([fn(q) for fn in fns], dtype=float),
                    lambda Q: np.stack([on_stack(fn, Q) for fn in fns], axis=1))


def _bracket_then_project(E: SkewAlgebroid, frames, projection, rank: int, adapted: bool,
                          frame_jacobian=None, frame=None) -> SkewAlgebroid:
    """The algebroid of a frame {e_a} of E, bracketed in E and projected.

    ``frames`` maps points (K, m) to frames (K, rank, n_E), row a holding
    the E-components of e_a; a non-finite frame raises NumericFailure
    naming the point.  The anchor is rho_E(e_a).  The structure
    functions are projection(q, M)([[e_a, e_b]]_E) for the frame M at q, a
    length-``rank`` vector.  The bracket's derivative terms take the frame
    derivative from ``frame_jacobian`` when given, (rank, n_E, m) at a point
    and by ``on_stack`` at a stack (a non-finite value raises
    NumericFailure), else from central differences of the frame, all
    stencil points in one ``frames`` call.  A ``frame``
    fixed with its projection at every q projects all pairs (..., n_E) at once.
    Its ``force_extension`` (``_forced``) is read by the kernel too: one build
    writes these values at indices >= 1 of a padded anchor and C, and the force rows.

    A point read of C builds one point's values; each algebroid of the kernel
    keeps only those of its last build: the point whose C a read just built,
    for the anchor read that follows, or the stack Q that C's stack form
    (``chunk``) just built in one pass of the same arithmetic, so its bits
    are the pointwise ones: one ``frames`` call for the points, one for all
    their stencils, E's anchor and C and the force read by ``on_stack``, the
    pair brackets as one einsum and stacked mat-vecs; only the projection
    runs per point and pair (or once, for a fixed ``frame``).  A stack the
    last build holds is read from it; an anchor read of any other point builds
    the frame and keeps nothing.  A stack build that raises keeps the last
    build; a ``sweep`` then reruns its chunk point by point.

    Both C bodies take the E-brackets of all frame pairs from one place, fixed
    at construction over a zero ``_Constant`` C_E (zeros) or a ``_Constant``
    C_E and a fixed ``frame`` (one einsum), else one contraction with C_E
    per point or stack; the derivative terms are one stacked product
    (``pair_values``) but in a pointwise read without a fixed ``frame``.
    """
    I, J = np.triu_indices(rank, 1)  # the pairs i < j, in the pointwise loop's order
    pairs = list(zip(I.tolist(), J.tolist()))
    fixed = None  # the pair brackets, when fixed at construction
    if _constant(E._structure) and not E._structure.value.any():
        fixed = np.zeros((len(pairs), E.rank))
    elif _constant(E._structure) and frame is not None:
        fixed = np.einsum("abg,pa,pb->pg", E._structure.value, frame[I], frame[J])
    project_all = None if frame is None else projection(np.zeros(E.chart.dim), frame)

    def pair_brackets(Q, M):  # [[e_i, e_j]]_E of the pairs of the frame M at q, or of a stack at Q
        if fixed is not None:
            return fixed
        if Q.ndim == 1:
            return np.einsum("abg,pa,pb->pg", E.structure_at(Q), M[I], M[J])
        return np.einsum("kabg,kpa,kpb->kpg", on_stack(E._structure, Q), M[:, I], M[:, J])

    def pair_values(brackets, dM, anchored):  # the pair brackets plus their derivative terms, one stacked product each
        return (brackets + (dM[..., J, :, :] @ anchored[..., I, :, None])[..., 0]
                - (dM[..., I, :, :] @ anchored[..., J, :, None])[..., 0])

    def kernel(pad, F=None):  # the kernel's algebroid, or (pad 1) its force extension by F
        last = {}  # q bytes -> (anchor, C): the points of the last build only
        n = rank + pad

        def cold(q):  # the frame and the read-only anchor at q, a float array from anchor_at / structure_at
            M = require_finite(frames(q[None])[0], "frame", q)
            anchor = np.zeros((len(q), n))  # rho_E(e_a) in column pad + a
            np.matmul(E.anchor_at(q), M.T, out=anchor[:, pad:])
            anchor.flags.writeable = False
            return M, anchor

        def anchor(q):
            hit = last.get(q.tobytes())
            return cold(q)[1] if hit is None else hit[0]

        def structure(q):
            key = q.tobytes()
            if key not in last:
                M, anchor = cold(q)
                if frame_jacobian is None:
                    dM = fd_jacobian(frames, q, stacked=True).reshape(M.shape + q.shape)
                else:
                    dM = require_finite(frame_jacobian(q), "frame jacobian", q)
                brackets = pair_brackets(q, M)
                rows = anchor[:, pad:].T  # (rank, m): rows rho_E(e_a)
                C = np.zeros((n, n, n))
                V = C[pad:, pad:, pad:]  # the kernel's C; a force extension's rows sit beside it
                if frame is None:  # projected pair by pair, the cheapest for the disk's one pair
                    project = projection(q, M)
                    for p, (i, j) in enumerate(pairs):
                        V[i, j] = project(brackets[p] + dM[j] @ rows[i] - dM[i] @ rows[j])
                        V[j, i] = -V[i, j]
                else:  # the fixed projection maps all pairs at once
                    V[I, J] = projected = project_all(pair_values(brackets, dM, rows))
                    V[J, I] = -projected
                _force_rows(C, F, q)
                C.flags.writeable = False
                last.clear()
                last[key] = (anchor, C)
            return last[key][1]

        def chunk(Q):  # C's stack form: the pointwise anchors and C of every row of Q, built in one pass and kept
            keys = [q.tobytes() for q in Q]
            if all(key in last for key in keys):  # read from the last build, as a target read at the source's points
                return np.array([last[key][1] for key in keys])
            M = require_finite(frames(Q), "frame", Q)  # (K, rank, n_E)
            anchor = np.zeros(Q.shape + (n,))
            np.matmul(on_stack(E._anchor, Q), np.swapaxes(M, -1, -2), out=anchor[..., pad:])
            if frame_jacobian is None:
                dM = _central_differences(frames, Q, None, True, "function").reshape(M.shape + Q.shape[-1:])
            else:
                dM = require_finite(on_stack(frame_jacobian, Q), "frame jacobian", Q)
            val = pair_values(pair_brackets(Q, M), dM, np.swapaxes(anchor[..., pad:], -1, -2))
            C = np.zeros((len(Q), n, n, n))
            V = C[:, pad:, pad:, pad:]
            if frame is None:
                for k, (q, Mk) in enumerate(zip(Q, M)):
                    project = projection(q, Mk)
                    for p, (i, j) in enumerate(pairs):
                        V[k, i, j] = project(val[k, p])
            else:  # one projection for the whole stack
                V[:, I, J] = project_all(val)
            V[:, J, I] = -V[:, I, J]
            _force_rows(C, F, Q)
            C.flags.writeable = anchor.flags.writeable = False
            last.clear()
            last.update(zip(keys, zip(anchor, C)))
            return C

        return SkewAlgebroid(chart=E.chart, rank=n, anchor=anchor, structure=_Stacked(structure, chunk),
                             adapted=adapted or pad)

    A = kernel(0)
    A._forced = lambda F: kernel(1, F)  # force_extension's one build per read
    return A


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
    validation_points=None,
) -> HamiltonianSystem:
    """Mechanical system with affine constraints: drift X0 plus subbundle U.

    Builds the adapted rank |U|+1 algebroid on the bidual of the affine
    subbundle, with frame {(1, X0), (0, ebar_a)} for a pointwise
    G-orthonormal frame ebar of U, and the Hamiltonian
    H = (1/2) sum p_a^2 in that frame.  The projection has no drift row,
    so every C_{ab}^0 is an exact 0.0; the validation points check only
    the precondition G(X0, U) = 0, and no C is built here.

    When G, every U section and X0 are constant (``MetricField.constant``,
    ``constant_section``), the frame, its projection and, over a constant
    C_E, its pair brackets are built once, here, and every stack reads that
    one read-only frame; otherwise each stack is orthonormalized per call.
    """
    r = len(U_basis)
    if r < 1:
        raise ValueError("U_basis must be non-empty")
    m = E.chart.dim
    U = _rows_of([s.components for s in U_basis])

    def frames(Q):
        """Rows: X0 then the orthonormalized U frame, in E components."""
        if len(Q) == 0:
            return np.zeros((0, r + 1, E.rank))
        Gq, B = np.ascontiguousarray(on_stack(G.matrix, Q)), on_stack(U, Q)
        return np.concatenate([on_stack(X0.components, Q)[:, None], _gram_schmidt(Gq, B) @ B], axis=1)  # (K, r+1, nE)

    def projection(q, M):
        # G(ebar_a, .) for the orthonormal rows; the drift row has none
        rows = M[1:] @ G.at(q)

        def project(vals):  # (..., nE) -> (..., r+1), one stacked mat-vec: the bits of each rows @ val
            out = np.zeros(vals.shape[:-1] + (r + 1,))
            out[..., 1:] = (rows @ vals[..., None])[..., 0]
            return out

        return project

    frame = None
    if _constant(G.matrix, X0.components, *(s.components for s in U_basis)):
        fixed = _Constant(frames(np.zeros((1, m)))[0])
        frame, frames = fixed.value, fixed.stack  # every stack reads the one frame

    # precondition: X0 is G-orthogonal to U
    points = _validation_points(validation_points, m)
    worst = max((max_abs(projection(q, M)(M[0]), "P(X0)[{}]", q)
                 for q, M in zip(points, frames(points))), default=0.0)
    if worst > 1e-9:
        raise ConstructionError(f"P(X0) != 0: G(X0, U) reaches {worst:g} at validation samples")

    A = _bracket_then_project(E, frames, projection, rank=r + 1, adapted=True, frame=frame)

    def h_eval(x):
        p = x[m:]
        return 0.5 * float(p @ p)

    H = ScalarField(eval=h_eval, grad=lambda x: np.concatenate([np.zeros(m), x[m:]]))
    return HamiltonianSystem(algebroid=A, H=H)


@dataclass(frozen=True)
class MorphismEndpoint:
    """One side of a hamiltonian-morphism check: an algebroid (for its
    bracket), the affine hamiltonian function on the full dual, and the
    cocycle components in the frame."""

    algebroid: SkewAlgebroid
    f_h: Callable[[np.ndarray], float]
    cocycle: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_system(sys: HamiltonianSystem) -> "MorphismEndpoint":
        return MorphismEndpoint(algebroid=sys.algebroid, f_h=lambda xf: f_h_eval(sys, xf),
                                cocycle=adapted_cocycle(sys.algebroid))

    @staticmethod
    def v_side(sys: HamiltonianSystem) -> "MorphismEndpoint":
        """The reduced dual of a system: kernel algebroid, H as hamiltonian,
        zero cocycle (the projection kills the distinguished direction)."""
        A = v_restriction(sys.algebroid)
        return MorphismEndpoint(algebroid=A, f_h=sys.H, cocycle=_Constant(np.zeros(A.rank)))


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
    evaluated 2(m + n) + 1 times per sample, as two stacks per chunk (its
    images, then all their stencil points); the hamiltonian pullback runs
    per sample, the rest is stacked over the samples (``stacked_sweep``).  A non-finite value
    raises NumericFailure naming its sample point and probe pair or
    component.  The source's stacked read builds each chunk's kernel, and
    the target's read at the images reads that build when it shares the
    kernel (the gallery's morphisms over the identity base map).
    """
    src = _coerce_endpoint(src)
    dst = _coerce_endpoint(dst)
    A, Abar = src.algebroid, dst.algebroid
    m, n = A.chart.dim, A.rank
    mbar = Abar.chart.dim

    qs = sample_box(box, samples, seed)
    rng = np.random.default_rng(seed + 1)
    ps = -1.0 + 2.0 * rng.random((samples, n))

    def terms(X):  # the three conditions' gaps at a stack of samples X = (q, p)
        images = pair.full(A, X)
        J = _central_differences(lambda Y: pair.full(A, Y), X, None, True, "function")
        Jbar = _central_differences(lambda Y: Y, images, None, True, "function")
        yield np.triu(J @ _bivector_at(A, X) @ np.swapaxes(J, -1, -2)
                      - Jbar @ _bivector_at(Abar, images) @ np.swapaxes(Jbar, -1, -2), 1)
        Q = X[:, :m]
        yield on_stack(pair.fiber_map, Q, on_stack(src.cocycle, Q)) - on_stack(dst.cocycle, images[:, :mbar])
        yield np.array([dst.f_h(image) - src.f_h(xf) for xf, image in zip(X, images)])

    values = stacked_sweep(np.concatenate([qs, ps], axis=1), m, terms,
                           ("bracket of probes {}, {}", "cocycle correspondence[{}]", "hamiltonian pullback"))
    return tuple(CheckReport.from_samples(name, [(q, v[i]) for q, v in zip(qs, values)], tol, seed)
                 for i, name in enumerate(("poisson_morphism", "cocycle_related", "hamiltonian_pullback")))

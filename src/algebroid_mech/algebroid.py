"""Skew-symmetric algebroid data model and the operations on it.

An algebroid here is basis-explicit: one chart, one global frame, an anchor
matrix field rho(q) (columns are the anchored frame vectors) and one
callable returning the structure tensor C_{ab}^c(q) as a dense (n, n, n)
array, antisymmetric in (a, b).  ``anchor_at`` and ``structure_at`` are
the only read paths and check shapes; antisymmetry is the builder's
promise and is tested, not checked per call.

When ``adapted`` is set, frame index 0 is dual to the distinguished
cocycle: the frame covector (1, 0, ..., 0) annihilates brackets, i.e.
C_{ab}^0 = 0.  Builders are expected to emit adapted algebroids and
validate that property at construction samples (``validate_adapted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .calculus import Chart, fd_gradient, fd_jacobian, max_abs
from .errors import ConstructionError, NumericFailure

# Relative singular-value threshold for numeric rank decisions.
RANK_RTOL = 1e-8
# Nested finite differencing in flag_rank amplifies roundoff by 1/h per
# bracket level; 1e-3 keeps the noise floor under RANK_RTOL at depth 4.
FLAG_FD_SCALE = 1e-3


@dataclass(frozen=True)
class ESection:
    """A section of the algebroid: frame components as a function of q.

    ``jacobian`` is optional and analytic, q -> (n, m), mirroring
    DualSection.jacobian; ``projector_restriction`` differentiates its
    frame with it when every basis section carries one.
    """

    components: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, q) -> np.ndarray:
        return np.asarray(self.components(np.asarray(q, dtype=float)), dtype=float)


@dataclass(frozen=True)
class DualSection:
    """A covector field: length-n components for E*, length n-1 for V*.

    ``jacobian`` is optional and analytic, mirroring ScalarField.grad; when
    present it is used instead of finite differences of the components.
    """

    components: Callable[[np.ndarray], np.ndarray]
    space: str = "E*"
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.space not in ("E*", "V*"):
            raise ValueError("space must be 'E*' or 'V*'")

    def __call__(self, q) -> np.ndarray:
        return np.asarray(self.components(np.asarray(q, dtype=float)), dtype=float)

    def jac(self, q) -> np.ndarray:
        """(k, m) derivative of the components, analytic when available."""
        q = np.asarray(q, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(q), dtype=float)
        return fd_jacobian(self.components, q)


def constant_section(values) -> ESection:
    v = np.array(values, dtype=float)
    return ESection(components=lambda q: v)


@dataclass(frozen=True)
class CheckReport:
    """Structured pass/fail result of a sampled numerical check."""

    name: str
    max_violation: float
    tol: float
    samples: int
    seed: int
    witnesses: tuple = ()

    @classmethod
    def from_samples(cls, name: str, worst, tol: float, seed: int) -> "CheckReport":
        """The report of per-sample ``(q, worst value)`` pairs; the five worst are the witnesses."""
        worst = sorted(worst, key=lambda t: -t[1])
        return cls(name=name, max_violation=float(worst[0][1]) if worst else 0.0, tol=float(tol),
                   samples=len(worst), seed=seed, witnesses=tuple(worst[:5]))

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "samples": self.samples,
            "seed": self.seed,
            "pass": self.passed,
            "witnesses": [
                {"q": list(map(float, q)), "value": float(v)} for q, v in self.witnesses
            ],
        }


class SkewAlgebroid:
    """Anchor + structure tensor over one chart.

    Parameters
    ----------
    chart : Chart
    rank : int
        Fiber rank n.
    anchor : callable q -> (m, n) array
        Columns are the anchored frame fields rho(e_a).
    structure : callable q -> (n, n, n) array, or None
        C[a, b, :] holds the components of the frame bracket [[e_a, e_b]];
        it must be antisymmetric in (a, b).  None is the zero bracket.
    adapted : bool
        Frame index 0 is dual to the cocycle (C_{ab}^0 = 0).
    """

    def __init__(self, chart: Chart, rank: int, anchor, structure=None, adapted=False):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if structure is not None and not callable(structure):
            raise TypeError("structure must be a callable q -> (n, n, n) array, or None")
        self.chart = chart
        self.rank = int(rank)
        self._anchor = anchor
        self._structure = structure
        self.adapted = bool(adapted)

    def anchor_at(self, q) -> np.ndarray:
        return _shaped(self._anchor(np.asarray(q, dtype=float)), (self.chart.dim, self.rank), "anchor")

    def structure_at(self, q) -> np.ndarray:
        """The (n, n, n) tensor C[a, b, :] = [[e_a, e_b]] at q."""
        n = self.rank
        if self._structure is None:
            return np.zeros((n, n, n))
        return _shaped(self._structure(np.asarray(q, dtype=float)), (n, n, n), "structure")

    def basis_section(self, a: int) -> ESection:
        e = np.zeros(self.rank)
        e[a] = 1.0
        return constant_section(e)

    def validate_adapted(self, points, tol: float = 1e-9):
        """Check C_{ab}^0 = 0 at the sample points; a non-finite value raises NumericFailure."""
        worst = max((max_abs(self.structure_at(q)[:, :, 0], "C[{}, {}, 0]", q) for q in points), default=0.0)
        if worst > tol:
            raise ConstructionError(
                f"frame not adapted to the cocycle: |C_ab^0| = {worst:g} > {tol:g}"
            )
        return worst


def _shaped(value, shape, what: str) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{what} must return shape {shape}, got {value.shape}")
    return value


def tangent_algebroid(chart: Chart, adapted: bool = False) -> SkewAlgebroid:
    """The tangent bundle of the chart: identity anchor, zero bracket.

    With ``adapted=True`` the first coordinate direction is declared dual
    to the cocycle (used for fibrations over time).
    """
    eye = np.eye(chart.dim)
    return SkewAlgebroid(chart=chart, rank=chart.dim, anchor=lambda q: eye, adapted=adapted)


def anchor_apply(A: SkewAlgebroid, sigma: ESection, q) -> np.ndarray:
    """rho(sigma) at q: the tangent vector rho(q) @ sigma(q)."""
    q = np.asarray(q, dtype=float)
    return A.anchor_at(q) @ sigma(q)


def bracket(A: SkewAlgebroid, sigma: ESection, gamma: ESection) -> ESection:
    """The bracket [[sigma, gamma]] as a section.

    Componentwise: C_{ab}^c sigma^a gamma^b + rho(sigma)(gamma^c)
    - rho(gamma)(sigma^c).  The pair terms are evaluated so that swapping
    the arguments negates the result exactly in floating point.
    """

    def comps(q):
        q = np.asarray(q, dtype=float)
        sv = sigma(q)
        gv = gamma(q)
        C = A.structure_at(q)
        out = np.zeros(A.rank)
        for a, b in combinations(range(A.rank), 2):
            coeff = sv[a] * gv[b] - sv[b] * gv[a]
            if coeff != 0.0:
                out = out + C[a, b] * coeff
        rho = A.anchor_at(q)
        vs = rho @ sv
        vg = rho @ gv
        out = out + (fd_jacobian(gamma.components, q) @ vs - fd_jacobian(sigma.components, q) @ vg)
        return out

    return ESection(components=comps)


def d_function(A: SkewAlgebroid, f) -> DualSection:
    """Almost differential of a function: (d f)(e_a) = rho(e_a)(f)."""

    def comps(q):
        q = np.asarray(q, dtype=float)
        return A.anchor_at(q).T @ fd_gradient(f, q)

    return DualSection(components=comps, space="E*")


def d_oneform_matrix(A: SkewAlgebroid, beta_q, jac, q) -> np.ndarray:
    """The almost differential of a one-form beta at q as an (n, n) matrix
    on frame pairs:

        D[a, b] = d beta (e_a, e_b) = rho(e_a)(beta_b) - rho(e_b)(beta_a) - beta . C_ab,

    from beta(q), the (n, m) jacobian ``jac`` of its components (row b is
    the gradient of beta_b), one anchor read and one C read.  D is exactly
    antisymmetric, as C is.  d beta is C-infinity-bilinear on a skew-symmetric
    algebroid (the Leibniz rule alone makes it tensorial), so
    d beta(sigma, gamma) = sigma . D . gamma and no section other than beta
    is ever differentiated.
    """
    G = jac @ A.anchor_at(q)  # G[b, a] = rho(e_a)(beta_b)
    return (G.T - G) - A.structure_at(q) @ beta_q


def d_oneform_eval(A: SkewAlgebroid, alpha: DualSection, sigma: ESection, gamma: ESection, q) -> float:
    """Almost differential of a one-form, evaluated on a pair of sections:

        d alpha (sigma, gamma) = sum_{a < b} D_ab (sigma^a gamma^b - sigma^b gamma^a)

    with D = ``d_oneform_matrix`` from ``alpha.jac``.  Exactly antisymmetric
    in (sigma, gamma), and exactly 0.0 on equal arguments.
    """
    q = np.asarray(q, dtype=float)
    D = d_oneform_matrix(A, alpha(q), alpha.jac(q), q)
    sv, gv = sigma(q), gamma(q)
    a, b = np.triu_indices(A.rank, 1)
    return float(D[a, b] @ (sv[a] * gv[b] - sv[b] * gv[a]))


def box_bounds(box) -> list:
    """A coordinate box [(lo, hi), ...] as floats; ValueError unless it is
    non-empty and every axis has finite bounds with lo < hi."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not box:
        raise ValueError("box must be non-empty")
    for lo, hi in box:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"box bounds must be finite, got {lo:g}:{hi:g}")
        if not hi > lo:
            raise ValueError(f"box bounds must satisfy lo < hi, got {lo:g}:{hi:g}")
    return box


def sample_box(box, samples: int, seed: int) -> np.ndarray:
    """Seeded uniform samples in a coordinate box [(lo, hi), ...] -> (N, m)."""
    box = box_bounds(box)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((samples, len(box)))


def check_cocycle(
    A: SkewAlgebroid,
    phi: DualSection,
    box,
    samples: int = 128,
    seed: int = 42,
    tol: float = 1e-9,
) -> CheckReport:
    """Max of |d phi (e_a, e_b)| over seeded samples and all frame pairs;
    a non-finite value raises NumericFailure naming its point and pair.

    Per sample, the pairs a < b are the upper triangle of one
    ``d_oneform_matrix``, taken from phi(q) and a central-difference
    Jacobian of phi even when phi carries an analytic one, so the reports
    keep their bits.  phi is evaluated 2m + 1 times per sample."""
    pts = sample_box(box, samples, seed)
    worst = [(q, max_abs(np.triu(d_oneform_matrix(A, phi(q), fd_jacobian(phi, q), q), 1), "d phi(e_{}, e_{})", q))
             for q in pts]
    return CheckReport.from_samples("cocycle", worst, tol, seed)


def _svd_rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def flag_rank(A: SkewAlgebroid, q, max_depth: int) -> list:
    """Ranks of the bracket-generated flag of the anchor distribution at q.

    Depth 1 spans the anchor columns; each further depth adds numerically
    evaluated Lie brackets of the generators with the previous level, in
    generator-major order, at most 256 fields in all.  A level is one
    stacked field q -> (m, k), so the next level takes one Jacobian of the
    generators and one of the level per point (steps FLAG_FD_SCALE; one in
    all when the level is the generators), and each level is evaluated at
    q once.  A non-finite field value or point raises NumericFailure naming
    the depth and q.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    q = np.asarray(q, dtype=float)
    m, n = A.chart.dim, A.rank
    anchor = A.anchor_at

    def brackets(level, pairs):
        def field(qq):
            h = FLAG_FD_SCALE * np.maximum(1.0, np.abs(qq))
            JG = fd_jacobian(anchor, qq, h=h).reshape(m, -1, m)
            G = anchor(qq)
            # level 2 brackets the generators with themselves: one stencil serves both
            JL, L = (JG, G) if level is anchor else (fd_jacobian(level, qq, h=h).reshape(m, -1, m), level(qq))
            return np.column_stack([JL[:, j] @ G[:, a] - JG[:, a] @ L[:, j] for a, j in pairs])

        return field

    level, M, ranks = anchor, np.zeros((m, 0)), []
    for depth in range(1, max_depth + 1):
        try:
            values = level(q)
        except NumericFailure as exc:  # a Lie bracket's stencil, e.g. at a non-finite q
            raise NumericFailure(f"flag depth {depth}: {exc}") from None
        M = np.column_stack([M, values])
        max_abs(M, f"flag depth {depth} field matrix[{{}}, {{}}]", q)
        ranks.append(_svd_rank(M))
        # cap combinatorial growth; enough for desk-scale examples
        pairs = [(a, j) for a in range(n) for j in range(values.shape[1])][: max(0, 256 - M.shape[1])]
        if depth == max_depth or ranks[-1] >= m or not pairs:
            # pad once full rank is reached or no field is left; deeper levels cannot change it
            ranks.extend([ranks[-1]] * (max_depth - depth))
            break
        level = brackets(level, pairs)
    return ranks


def v_restriction(A: SkewAlgebroid) -> SkewAlgebroid:
    """The rank n-1 algebroid on the cocycle kernel (frame indices 1..n-1).

    Requires an adapted frame, which guarantees the kernel is closed under
    the bracket.
    """
    if not A.adapted:
        raise ValueError("v_restriction requires an adapted algebroid")
    return SkewAlgebroid(
        chart=A.chart,
        rank=A.rank - 1,
        anchor=lambda q: A.anchor_at(q)[:, 1:],
        structure=lambda q: A.structure_at(q)[1:, 1:, 1:],
        adapted=False,
    )

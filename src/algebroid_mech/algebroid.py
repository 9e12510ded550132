"""Skew-symmetric algebroid data model and the operations on it.

An algebroid here is basis-explicit: one chart, one global frame, an anchor
matrix field rho(q) (columns are the anchored frame vectors) and one
callable returning the structure tensor C_{ab}^c(q) as a dense (n, n, n)
array, antisymmetric in (a, b).  ``anchor_at`` and ``structure_at`` are
the only read paths and check shapes; antisymmetry is the builder's
promise and is tested, not checked per call.

When ``adapted`` is set, frame index 0 is dual to the distinguished
cocycle: the frame covector (1, 0, ..., 0) annihilates brackets, i.e.
C_{ab}^0 = 0.  That is the builder's promise, as antisymmetry is, and is
tested, not checked per call; ``check_cocycle`` of ``adapted_cocycle``
measures it at run time.

The data model only reads, at a point or, by ``_read_at``, on a stack of
points, where a construction kernel's C builds the whole stack in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .calculus import Chart, _central_differences, fd_gradient, fd_jacobian, max_abs, name_state
from .errors import NumericFailure

# Relative singular-value threshold for numeric rank decisions.
RANK_RTOL = 1e-8
# The most points of a grid or of a sample set that one check may visit.
GRID_POINT_CAP = 100_000
# The most points one chunk of a ``sweep`` reads and evaluates as a stack.
PREFETCH_CHUNK = 1024
# Nested finite differencing in flag_rank amplifies roundoff by 1/h per
# bracket level; 1e-3 keeps the noise floor under RANK_RTOL at depth 4.
FLAG_FD_SCALE = 1e-3
# The most fields flag_rank's levels hold in all; every level adds at least
# one, so no depth beyond this can add a field or change a rank.
FLAG_FIELD_CAP = 256


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


class _Constant:
    """q -> one read-only float array, built once; readers that recognize it skip the call, stacks broadcast it."""

    def __init__(self, value):
        self.value = np.array(value, dtype=float)
        self.value.flags.writeable = False
        self._rows = None

    def __call__(self, q) -> np.ndarray:
        return self.value

    def stack(self, Q, *stacks) -> np.ndarray:
        if self._rows is None:  # one view, built at first use, longer than any stack
            longest = np.iinfo(np.intp).max // max(self.value.nbytes, 1)
            self._rows = np.broadcast_to(self.value, (longest,) + self.value.shape)
        return self._rows[:len(Q)]


class _Stacked(partial):
    """A callable declared to take stacks: its call is the point form ``func`` (a partial's, so the call adds
    no Python frame to the pointwise reads), and ``stack`` (the point form, by default) maps stacks of its
    arguments (K, ...) to a C-ordered float stack whose row k is the point form's bits at row k.  A stack form
    whose ufuncs are not the point form's (numpy's np.cos for math.cos) assumes they give the same bits."""

    def __new__(cls, point, stack=None):
        self = super().__new__(cls, point)
        self.stack = point if stack is None else stack
        return self


def _constant(*fns) -> bool:
    return all(type(fn) is _Constant for fn in fns)


def on_stack(fn, Q, *stacks) -> np.ndarray:
    """fn at each row of Q (K, m) and of its further arguments' stacks: at K >= 2 a ``_Constant`` broadcasts and a
    ``_Stacked`` callable runs its stack form once; any other callable, or K < 2, runs per point (K = 0: (0,))."""
    if len(Q) > 1 and type(fn) in (_Constant, _Stacked):
        return np.asarray(fn.stack(Q, *stacks), dtype=float)
    return np.array([fn(*row) for row in zip(Q, *stacks)], dtype=float)


def constant_section(values) -> ESection:
    return ESection(components=_Constant(values))


def _five_largest(values) -> list:
    """The indices of the five largest values, largest first, ties in input order: a report's witnesses."""
    return np.argsort(-np.asarray(values, dtype=float), kind="stable")[:5].tolist()


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
        witnesses = tuple(worst[i] for i in _five_largest([v for _, v in worst]))
        return cls(name=name, max_violation=float(witnesses[0][1]) if worst else 0.0, tol=float(tol),
                   samples=len(worst), seed=seed, witnesses=witnesses)

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
        A ``_Constant`` (as None is) is shape-checked here and read without a call.
    adapted : bool
        Frame index 0 is dual to the cocycle (C_{ab}^0 = 0).

    An anchor or C declared ``_Stacked`` (as a kernel's C is) gives ``_read_at`` its stack form.
    """

    def __init__(self, chart: Chart, rank: int, anchor, structure=None, adapted=False):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if structure is not None and not callable(structure):
            raise TypeError("structure must be a callable q -> (n, n, n) array, or None")
        self.chart = chart
        self.rank = n = int(rank)
        self._anchor = anchor
        self._structure = _Constant(np.zeros((n, n, n))) if structure is None else structure
        for fn, shape, what in ((anchor, (chart.dim, n), "anchor"), (self._structure, (n, n, n), "structure")):
            if _constant(fn):
                _shaped(fn.value, shape, what)
        self.adapted = bool(adapted)

    def anchor_at(self, q) -> np.ndarray:
        if type(self._anchor) is _Constant:
            return self._anchor.value
        return _shaped(self._anchor(np.asarray(q, dtype=float)), (self.chart.dim, self.rank), "anchor")

    def structure_at(self, q) -> np.ndarray:
        """The (n, n, n) tensor C[a, b, :] = [[e_a, e_b]] at q."""
        if type(self._structure) is _Constant:
            return self._structure.value
        return _shaped(self._structure(np.asarray(q, dtype=float)), (self.rank,) * 3, "structure")

    def basis_section(self, a: int) -> ESection:
        return constant_section(np.eye(self.rank)[a])


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
    return SkewAlgebroid(chart=chart, rank=chart.dim, anchor=_Constant(np.eye(chart.dim)), adapted=adapted)


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
        rho, C = _read_at(A, q)
        out = np.zeros(A.rank)
        for a, b in combinations(range(A.rank), 2):
            coeff = sv[a] * gv[b] - sv[b] * gv[a]
            if coeff != 0.0:
                out = out + C[a, b] * coeff
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


def _read_at(A: SkewAlgebroid, q):
    """The anchor and C at q, or their stacks at a stack of points q (K, m): the one joint read, C first, so
    that a kernel's anchor reads find the point or the stack its C read built."""
    if np.ndim(q) == 2:
        q = np.asarray(q, dtype=float)  # as the point reads take q, so a kernel keeps the bytes they look up
        C = _stack_read(A, q, "structure")
        return _stack_read(A, q, "anchor"), C
    C = A.structure_at(q)
    return A.anchor_at(q), C


def _stack_read(A: SkewAlgebroid, Q, part: str) -> np.ndarray:
    """A's anchor or C (``part``) at each row of Q (K, m) by ``on_stack``, an undeclared one by its checked read."""
    fn, shape = getattr(A, "_" + part), (A.chart.dim, A.rank) if part == "anchor" else (A.rank,) * 3
    return on_stack(fn if type(fn) in (_Constant, _Stacked) else getattr(A, part + "_at"), Q).reshape((len(Q),) + shape)


def d_oneform_matrix(A: SkewAlgebroid, beta_q, jac, q) -> np.ndarray:
    """The almost differential of a one-form beta at q as an (n, n) matrix
    on frame pairs:

        D[a, b] = d beta (e_a, e_b) = rho(e_a)(beta_b) - rho(e_b)(beta_a) - beta . C_ab,

    from beta(q), the (n, m) jacobian ``jac`` of its components (row b is
    the gradient of beta_b) and one ``_read_at`` of the anchor and C.  D is
    exactly antisymmetric, as C is.  d beta is C-infinity-bilinear on a
    skew-symmetric algebroid (the Leibniz rule alone makes it tensorial), so
    d beta(sigma, gamma) = sigma . D . gamma and no section other than beta
    is ever differentiated.  Stacks of q, beta and jac give the stack of D.
    """
    return _d_oneform(*_read_at(A, q), beta_q, jac)


def _d_oneform(rho, C, beta_q, jac) -> np.ndarray:  # d_oneform_matrix from the anchor and C its caller read
    G = jac @ rho  # G[..., b, a] = rho(e_a)(beta_b)
    return (np.swapaxes(G, -1, -2) - G) - (C @ np.asarray(beta_q)[..., None, :, None])[..., 0]


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
    """Seeded uniform samples in a coordinate box [(lo, hi), ...] -> (N, m);
    ValueError unless 1 <= samples <= GRID_POINT_CAP."""
    box = box_bounds(box)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > GRID_POINT_CAP:
        raise ValueError(f"{samples} samples exceed the cap {GRID_POINT_CAP}")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((samples, len(box)))


def sweep(points, stacked, pointwise, m=None, state=False) -> list:
    """The rows of the points (N, d), in chunks of at most PREFETCH_CHUNK: ``stacked(chunk)`` gives a chunk's
    rows.  A chunk where it raises, or a row is not finite, is rerun as ``pointwise(x)`` per point, so the first
    failing point raises, as in a pointwise sweep; a user callable's ValueError or ArithmeticError there (math's
    domain error) is a NumericFailure naming the point, x[:m] (the whole row by default), and with ``state``
    the momenta x[m:] of a state (q, p) apart."""
    rows = []
    for start in range(0, len(points), PREFETCH_CHUNK):
        chunk = points[start:start + PREFETCH_CHUNK]
        try:
            vals = stacked(chunk)
        except Exception:  # the rerun raises it at its point, or an earlier point's error
            vals = [np.nan]
        rows += list(vals) if np.isfinite(vals).all() else [
            _at_point(pointwise, x, x[:m], x[m:] if state else None) for x in chunk]
    return rows


def _at_point(fn, x, q, p=None):
    """``fn(x)``, whose ValueError or ArithmeticError (a user callable's) is a NumericFailure naming q or (q, p)."""
    try:
        return fn(x)
    except (ValueError, ArithmeticError) as exc:
        raise NumericFailure(f"{exc} at {name_state(q, p)}") from exc


def stacked_sweep(points, m: int, terms, whats) -> list:
    """Per point, the max |entry| of each term ``terms(chunk)`` yields (a row per point), one stack per
    chunk of a ``sweep``, whose pointwise rerun folds each term by ``max_abs`` with its ``whats`` format,
    naming the point x[:m], before the next is evaluated."""
    return sweep(points,
                 lambda X: np.column_stack([np.abs(V.reshape(len(X), -1)).max(axis=1, initial=0.0) for V in terms(X)]),
                 lambda x: [max_abs(V[0], what, x[:m]) for V, what in zip(terms(x[None]), whats)], m)


def adapted_cocycle(A: SkewAlgebroid) -> DualSection:
    """The distinguished cocycle in an adapted frame: the constant frame
    covector e^0 = (1, 0, ..., 0), one read-only array."""
    if not A.adapted:
        raise ValueError("adapted_cocycle requires an adapted algebroid")
    return DualSection(components=_Constant(np.eye(A.rank)[0]), space="E*")


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

    The pairs a < b are the upper triangle of ``d_oneform_matrix``, taken from phi(q) and a
    central-difference Jacobian of phi even when phi carries an analytic one, so the reports
    keep their bits.  The samples are a ``stacked_sweep``: phi is evaluated 2m + 1 times per
    sample, through ``on_stack`` on the chunk and on all its stencil points, so a constant phi
    (``adapted_cocycle``) is broadcast with no call, and its stencil gives exact zeros."""
    pts = sample_box(box, samples, seed)

    def terms(Q):
        beta = on_stack(phi.components, Q)
        jac = _central_differences(lambda Y: on_stack(phi.components, Y), Q, None, True, "function")
        yield np.triu(d_oneform_matrix(A, beta, jac, Q), 1)

    worst = [(q, v[0]) for q, v in zip(pts, stacked_sweep(pts, A.chart.dim, terms, ["d phi(e_{}, e_{})"]))]
    return CheckReport.from_samples("cocycle", worst, tol, seed)


def _svd_rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)  # descending; all zero when s[0] is
    return int(np.sum(s > RANK_RTOL * s[0]))


def flag_rank(A: SkewAlgebroid, q, max_depth: int) -> list:
    """Ranks of the bracket-generated flag of the anchor distribution at q.

    Depth 1 spans the anchor columns; each further depth adds numerically
    evaluated Lie brackets of the generators with the previous level, in
    generator-major order, at most FLAG_FIELD_CAP fields in all.  A level is
    one stacked field q -> (m, k), so the next level takes one Jacobian of
    the generators and one of the level per point (steps FLAG_FD_SCALE), each
    level is evaluated at q once, and the anchor once per distinct point the
    nested stencils visit in the call.  A non-finite field value or point
    raises NumericFailure naming the depth and q.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    q = np.asarray(q, dtype=float)
    m, n = A.chart.dim, A.rank
    reads = {}

    def anchor(qq):  # kept by the point's bytes until the call returns
        key = qq.tobytes()
        if key not in reads:
            reads[key] = A.anchor_at(qq)
        return reads[key]

    def brackets(level, pairs):
        def field(qq):
            h = FLAG_FD_SCALE * np.maximum(1.0, np.abs(qq))
            JG = fd_jacobian(anchor, qq, h=h).reshape(m, -1, m)
            G = anchor(qq)
            JL, L = fd_jacobian(level, qq, h=h).reshape(m, -1, m), level(qq)
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
        pairs = [(a, j) for a in range(n) for j in range(values.shape[1])][: max(0, FLAG_FIELD_CAP - M.shape[1])]
        if depth == max_depth or ranks[-1] >= m or not pairs:
            # pad once full rank is reached or no field is left; deeper levels cannot change it
            ranks.extend([ranks[-1]] * (max_depth - depth))
            break
        level = brackets(level, pairs)
    return ranks


def v_restriction(A: SkewAlgebroid) -> SkewAlgebroid:
    """The rank n-1 algebroid on the cocycle kernel (frame indices 1..n-1).

    Requires an adapted frame, which guarantees the kernel is closed under
    the bracket.  Its anchor and C slice A's, at a point and on a stack.
    """
    if not A.adapted:
        raise ValueError("v_restriction requires an adapted algebroid")
    return SkewAlgebroid(
        chart=A.chart, rank=A.rank - 1, adapted=False,
        anchor=_Stacked(lambda q: A.anchor_at(q)[:, 1:],
                        lambda Q: np.ascontiguousarray(_stack_read(A, Q, "anchor")[..., 1:])),
        structure=_Stacked(lambda q: A.structure_at(q)[1:, 1:, 1:],
                           lambda Q: np.ascontiguousarray(_stack_read(A, Q, "structure")[:, 1:, 1:, 1:])))

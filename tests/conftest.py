import math

import numpy as np
import pytest

from algebroid_mech import (
    Chart,
    DualSection,
    ESection,
    ScalarField,
    SkewAlgebroid,
    instantiate,
    tangent_algebroid,
)
from algebroid_mech import algebroid, constructions, gallery

SEED = 42
N_SAMPLES = 128
# systems built from constant data only: their reads return one array
CONSTANT_SYSTEMS = ("cylinder_friction", "three_body_drag", "time_dependent_free", "riemannian_flat")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


def seeded_points(dim, n=N_SAMPLES, lo=-1.0, hi=1.0, seed=SEED):
    r = np.random.default_rng(seed)
    return lo + (hi - lo) * r.random((n, dim))


def smooth_field(dim, seed):
    """A random smooth scalar field with its analytic gradient."""
    r = np.random.default_rng(seed)
    lin = r.normal(size=dim)
    quad = r.normal(size=(dim, dim))
    quad = 0.5 * (quad + quad.T)
    amp = r.normal(size=dim)
    freq = 1.0 + r.random(size=dim)

    def ev(q):
        return float(lin @ q + 0.5 * q @ quad @ q + amp @ np.sin(freq * q))

    def gr(q):
        return lin + quad @ q + amp * freq * np.cos(freq * q)

    return ScalarField(eval=ev, grad=gr)


def smooth_section(rank, dim, seed):
    """A random section with trig components (no analytic jacobian)."""
    r = np.random.default_rng(seed)
    const = r.normal(size=rank)
    amp = r.normal(size=(rank, dim))
    freq = 1.0 + r.random(size=(rank, dim))

    def comps(q):
        return const + np.sum(amp * np.sin(freq * q), axis=1)

    return ESection(components=comps)


def random_adapted_algebroid(dim=2, rank=3):
    """A small adapted skew algebroid with smooth anchor and structure.

    Index 0 is the cocycle direction: every structure value has zero
    leading component.
    """
    chart = Chart(dim=dim, coord_names=tuple(f"q{i}" for i in range(dim)))

    def anchor(q):
        return np.array(
            [
                [1.0, 0.3 * math.sin(q[1]), 0.2],
                [0.1 * q[0], 1.0, 0.4 * math.cos(q[0])],
            ]
        )

    def structure(q):
        C = np.zeros((rank, rank, rank))
        C[0, 1] = [0.0, 0.2 * math.cos(q[0]), -0.1]
        C[0, 2] = [0.0, 0.15, 0.1 * math.sin(q[1])]
        C[1, 2] = [0.0, 0.3 * q[0], 0.25 * math.cos(q[1])]
        return C - C.transpose(1, 0, 2)

    return SkewAlgebroid(chart=chart, rank=rank, anchor=anchor, structure=structure, adapted=True)


def lie_tangent(dim=2):
    chart = Chart(dim=dim, coord_names=tuple(f"q{i}" for i in range(dim)))
    return tangent_algebroid(chart)


def callable_path(monkeypatch):
    """Make every constant built afterwards a plain callable, which
    SkewAlgebroid and the builders cannot tell from q-dependent data, so
    they evaluate it per call as they would a q-dependent input."""
    def plain(value):
        v = np.array(value, dtype=float)
        return lambda q: v

    for module in (algebroid, constructions, gallery):
        monkeypatch.setattr(module, "_Constant", plain)


def nan_structure_at(A, bad):
    """A copy of A whose structure tensor is NaN at the point ``bad`` only,
    so finite differences around it stay finite."""

    def structure(q):
        return np.full((A.rank,) * 3, np.nan) if np.array_equal(q, bad) else A.structure_at(q)

    return SkewAlgebroid(chart=A.chart, rank=A.rank, anchor=A.anchor_at, structure=structure, adapted=A.adapted)


@pytest.fixture(scope="session")
def adapted_algebroid():
    return random_adapted_algebroid()


@pytest.fixture(scope="session")
def ball():
    return instantiate("rolling_ball")


@pytest.fixture(scope="session")
def ball_linear():
    return instantiate("rolling_ball", omega="linear")


@pytest.fixture(scope="session")
def disk():
    return instantiate("vertical_disk")


@pytest.fixture(scope="session")
def cylinder():
    return instantiate("cylinder_friction")


@pytest.fixture(scope="session")
def three_body():
    return instantiate("three_body_drag")


@pytest.fixture(scope="session")
def time_dependent():
    return instantiate("time_dependent_free")


@pytest.fixture(scope="session")
def riemannian():
    return instantiate("riemannian_flat")


def offset_section(section: DualSection, delta) -> DualSection:
    delta = np.asarray(delta, dtype=float)
    return DualSection(
        components=lambda q: section.components(q) + delta,
        space=section.space,
        jacobian=section.jacobian,
    )

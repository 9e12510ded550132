"""The raise statements that no other test reaches, each matched by its message."""

import math

import numpy as np
import pytest

from algebroid_mech import (Chart, ConstructionError, DomainError, DualSection, MetricField, ScalarField, SkewAlgebroid,
                            affine_constraints, constant_section, gram_schmidt_at, instantiate, lambert_w,
                            poisson_bracket_eval, projector_restriction, tangent_algebroid)
from algebroid_mech.calculus import check_gradient


def plane():
    return tangent_algebroid(Chart(dim=2, coord_names=("x", "y")))


def test_a_section_space_other_than_E_or_V_raises():
    with pytest.raises(ValueError, match=r"^space must be 'E\*' or 'V\*'$"):
        DualSection(components=lambda q: q, space="V")


def test_an_algebroid_of_rank_zero_raises():
    with pytest.raises(ValueError, match=r"^rank must be >= 1$"):
        SkewAlgebroid(chart=Chart(dim=1, coord_names=("x",)), rank=0, anchor=lambda q: np.zeros((1, 0)))


def test_a_projector_restriction_needs_a_basis():
    with pytest.raises(ValueError, match=r"^D_basis must be non-empty$"):
        projector_restriction(plane(), [], lambda q, v, M: v)


def test_affine_constraints_need_a_basis():
    with pytest.raises(ValueError, match=r"^U_basis must be non-empty$"):
        affine_constraints(plane(), MetricField.constant(np.eye(2)), [], constant_section([1.0, 0.0]))


def test_a_nearly_dependent_basis_fails_at_its_gram_schmidt_pivot():
    # the Gram matrix diag(1, 1e-30) is positive-definite, and its second Cholesky pivot is 1e-15
    basis = [constant_section([1.0, 0.0]), constant_section([0.0, 1e-15])]
    with pytest.raises(ConstructionError, match=r"^degenerate metric/basis: pivot 1e-15$"):
        gram_schmidt_at(MetricField.constant(np.eye(2)), basis, np.zeros(2))


def test_a_gradient_check_needs_an_analytic_gradient():
    with pytest.raises(ValueError, match=r"^field has no analytic gradient to check$"):
        check_gradient(ScalarField(eval=lambda q: float(q @ q)), [np.zeros(2)])


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_the_time_dependent_generating_function_needs_positive_time(t):
    gs = instantiate("time_dependent_free")
    alpha, q = gs.reference_sections["reference"], np.array([t, 1.0])
    with pytest.raises(DomainError, match=r"^the generating function is defined for t > 0 only$"):
        alpha(q)
    with pytest.raises(DomainError, match=r"^the generating function is defined for t > 0 only$"):
        alpha.jac(q)
    with pytest.raises(DomainError, match=r"^W is defined for t > 0 only$"):
        gs.extras["W"](t, 1.0)


def test_lambert_w_of_nan_raises():
    with pytest.raises(DomainError, match=r"^Lambert W of NaN$"):
        lambert_w(math.nan)


@pytest.mark.parametrize("params,message", [
    (None, r"^x=\S+ beyond the solution domain \(x <= \S+\)$"),
    ({"K1": 0.0}, r"^x=\S+ beyond the solution domain \(x < \S+\)$"),
])
def test_the_cylinder_section_beyond_its_domain_raises(params, message):
    gs = instantiate("cylinder_friction", params)
    with pytest.raises(DomainError, match=message):
        gs.reference_sections["reference"](np.array([gs.extras["x_max"] + 1.0, 0.0]))


def test_a_bracket_at_a_point_of_the_wrong_length_raises():
    A = instantiate("cylinder_friction").system.algebroid
    with pytest.raises(ValueError, match=r"^phase coordinates do not match the algebroid$"):
        poisson_bracket_eval(A, lambda x: x[0], lambda x: x[1], np.zeros(A.chart.dim + A.rank - 1))

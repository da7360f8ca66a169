"""Growth and Hessian comparison checks on explicit metrics."""

import math

import pytest

from nitsche_lab import (
    CurvatureBound,
    DomainError,
    catalog_surface,
    constant_curvature_metric,
    hessian_check,
    osserman_check,
    surface_metric,
)
from nitsche_lab.comparison import STATUS_OK, STATUS_PRECONDITION

HYP = constant_curvature_metric(CurvatureBound.negative(1.0))
FLAT = constant_curvature_metric(CurvatureBound.zero())
SPH = constant_curvature_metric(CurvatureBound.positive(1.0))


def test_osserman_hyperbolic_vs_flat():
    rep = osserman_check(HYP, FLAT, 2.0)
    assert rep.passed and rep.min_margin >= 0


def test_osserman_flat_vs_spherical():
    rep = osserman_check(FLAT, SPH, 1.5)
    assert rep.passed and rep.min_margin >= 0


def test_osserman_equality_case():
    rep = osserman_check(HYP, constant_curvature_metric(CurvatureBound.negative(1.0)), 2.0)
    assert rep.passed
    assert abs(rep.min_margin) <= 1e-9


def test_osserman_precondition_status_is_distinct():
    rep = osserman_check(FLAT, HYP, 2.0)  # 0 > -1: ordering violated
    assert rep.status == STATUS_PRECONDITION
    assert not rep.passed
    assert "ordering" in rep.note


def test_osserman_transitivity_smoke():
    hyp_strong = constant_curvature_metric(CurvatureBound.negative(1.5))
    assert osserman_check(hyp_strong, HYP, 1.8).passed
    assert osserman_check(HYP, FLAT, 1.8).passed
    assert osserman_check(hyp_strong, FLAT, 1.8).passed


def test_hessian_model_space_equalities():
    for bound in (CurvatureBound.negative(1.0), CurvatureBound.zero(),
                  CurvatureBound.positive(1.0)):
        m = constant_curvature_metric(bound)
        top = 2.0 if bound.sign != "positive" else 0.95 * bound.cap
        rep = hessian_check(m, top, bound)
        assert rep.status == STATUS_OK
        assert abs(rep.min_margin) <= 1e-9
        assert rep.radial_hessian_zero


def test_hessian_flat_against_positive_bound():
    rep = hessian_check(FLAT, 1.4, CurvatureBound.positive(1.0))
    assert rep.passed and rep.min_margin >= 0


def test_hessian_enneper_with_zero_bound():
    m = surface_metric(catalog_surface("enneper"))
    rep = hessian_check(m, 1.3, CurvatureBound.zero())
    assert rep.passed and rep.min_margin >= 0


def test_hessian_minimal_surface_catalog_zero_bound():
    from nitsche_lab import CATALOG

    for name, w in CATALOG.items():
        m = surface_metric(w)
        assert m.bound == CurvatureBound.zero(), name
        rep = hessian_check(m, 0.9 * m.rho_max, CurvatureBound.zero())
        assert rep.passed, name


def test_hessian_precondition_status():
    rep = hessian_check(FLAT, 2.0, CurvatureBound.negative(1.0))  # 0 > -1
    assert rep.status == STATUS_PRECONDITION


def test_hessian_bound_past_the_float_range_is_a_precondition_failure():
    # kappa^2 overflows: the bound reads -inf, so every curvature exceeds it
    huge = CurvatureBound.negative(1e200)
    assert huge.value == -math.inf and CurvatureBound.positive(1e200).value == math.inf
    rep = hessian_check(FLAT, 0.5, huge)
    assert rep.status == STATUS_PRECONDITION and not rep.passed


def test_hessian_positive_cap_enforced():
    with pytest.raises(DomainError):
        hessian_check(FLAT, 2.0, CurvatureBound.positive(1.0))  # rho_max >= pi/2

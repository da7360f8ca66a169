"""Minimal-surface densities, distances, geodesics, and the annulus corollary."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    CATALOG,
    CurvatureBound,
    DomainError,
    RangeExitError,
    UnsupportedDataError,
    WeierstrassData,
    catalog_surface,
    check_bound,
    corollary_check,
    gaussian_curvature,
    geodesic_shoot,
    surface_metric,
    we_density,
    we_distance_radial,
)

ENN = catalog_surface("enneper")
PLANAR = catalog_surface("planar")


def test_density_values():
    assert we_density(PLANAR, 0.3 + 0.4j) == pytest.approx(1.0)
    assert we_density(ENN, 0.5) == pytest.approx(1.25)
    s = 0.7
    ring = s * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    assert np.max(np.abs(we_density(ENN, ring) - (1 + s**2))) < 1e-14
    with pytest.raises(DomainError):
        we_density(ENN, 1.0)


def test_distance_values():
    assert we_distance_radial(PLANAR, 0.7) == pytest.approx(0.7)
    assert we_distance_radial(ENN, 0.5) == pytest.approx(0.5416666666666666)
    near_edge = we_distance_radial(ENN, 1 - 1e-6)
    assert near_edge == pytest.approx(4 / 3, abs=1e-5)
    # enneper2 density 1 + s^4 integrates to s + s^5/5
    e2 = catalog_surface("enneper2")
    assert we_distance_radial(e2, 0.5) == pytest.approx(0.5 + 0.5**5 / 5, abs=1e-12)


def test_distance_requires_symmetry():
    skew = WeierstrassData(
        "skew",
        lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        lambda z: np.asarray(z, dtype=complex) ** 2 + 0.3,
        lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        lambda z: 2 * np.asarray(z, dtype=complex),
    )
    with pytest.raises(UnsupportedDataError):
        we_distance_radial(skew, 0.5)
    with pytest.raises(UnsupportedDataError):
        surface_metric(skew)


def test_surface_metric_consistency():
    m = surface_metric(ENN)
    for s in (0.2, 0.5, 0.8):
        assert float(m.distance(s)) == pytest.approx(we_distance_radial(ENN, s), abs=1e-9)
    # G at the chart edge approaches 2 (density 2 times radius 1)
    assert m.G(m.rho_max * (1 - 1e-9)) == pytest.approx(2.0, abs=1e-4)


def test_catalog_curvature_negative():
    rng = np.random.default_rng(23)
    for name, w in CATALOG.items():
        if name == "planar":
            continue
        m = surface_metric(w)
        s = rng.uniform(0.1, 0.9, 50)
        assert np.all(np.asarray(gaussian_curvature(m, s)) < 0)


def test_planar_geodesics_are_straight():
    path = geodesic_shoot(PLANAR, 0.1 + 0.1j, np.exp(1j * 0.3), 0.5, n_steps=512)
    start, end = path.z[0], path.endpoint
    assert abs(end - start) == pytest.approx(0.5, abs=1e-12)
    cross = np.imag((path.z - start) * np.conj(end - start))
    assert np.max(np.abs(cross)) < 1e-12


def test_enneper_radial_geodesic_matches_distance():
    path = geodesic_shoot(ENN, 0.0, 1.0, 0.9)
    assert abs(path.endpoint.imag) < 1e-12
    assert we_distance_radial(ENN, abs(path.endpoint)) == pytest.approx(0.9, abs=1e-8)


def test_offradial_geodesic_length_reintegrates():
    path = geodesic_shoot(ENN, 0.3 + 0.2j, np.exp(1j * 0.7), 0.5)
    assert path.length_recomputed() == pytest.approx(0.5, abs=1e-7)
    # the path genuinely curves: endpoint differs from straight-line guess
    straight = (0.3 + 0.2j) + 0.5 / we_density(ENN, 0.3 + 0.2j) * np.exp(1j * 0.7)
    assert abs(path.endpoint - straight) > 1e-4


def test_geodesic_disk_exit():
    with pytest.raises(RangeExitError):
        geodesic_shoot(ENN, 0.9, 1.0, 1.0)


def test_geodesic_exit_on_the_last_step_raises():
    # eight steps of 0.169: the eighth ends at |z| = 1.008, outside the chart disk
    with pytest.raises(RangeExitError) as info:
        geodesic_shoot(ENN, 0.0, 1.0, 1.35, n_steps=8)
    assert info.value.exit_time == pytest.approx(1.35)
    assert abs(geodesic_shoot(ENN, 0.0, 1.0, 1.3, n_steps=8).endpoint) < 1.0


def test_corollary_planar_flat_arithmetic():
    # scaled pair keeps the modulus at exactly log 2 inside the chart range
    rep = corollary_check(PLANAR, 0.495, 0.99, n=64)
    assert rep.mod == pytest.approx(math.log(2), abs=1e-9)
    assert rep.rhs == pytest.approx(1.2402265069591007, abs=1e-9)
    assert rep.lhs == pytest.approx(2.0)
    assert rep.passed


def test_corollary_enneper_strict_margin():
    rep = corollary_check(ENN, 0.5416666666666666, 1.28, n=128)
    assert rep.passed and rep.margin > 0
    assert rep.provenance["capacity_agreement"] < 5e-3
    # chart radii: inner one is exactly 0.5 by the distance closed form
    s1, s2 = rep.provenance["chart_radii"]
    assert s1 == pytest.approx(0.5, abs=1e-9)


def test_corollary_margin_ratio_for_shrinking_annuli():
    # as rho2 -> rho1 both sides -> 1 and (lhs-1)/(rhs-1) stays >= 1
    rho1 = 0.6
    for gap in (0.3, 0.1, 0.03):
        rep = corollary_check(ENN, rho1, rho1 + gap, n=64)
        assert rep.margin > 0
        ratio = (rep.lhs - 1) / (rep.rhs - 1)
        assert ratio >= 1.0


def test_corollary_rejects_out_of_range():
    with pytest.raises(DomainError):
        corollary_check(ENN, 0.5, 1.5, n=64)  # beyond d(1) = 4/3


def test_corollary_report_is_check_bound_under_the_zero_bound():
    rep = corollary_check(ENN, 0.54, 1.2, n=64)
    ref = check_bound(CurvatureBound.zero(), 0.54, 1.2, rep.mod, tol=0.0)
    for key in ("psi_big_value", "lhs", "rhs", "margin", "psi_sharp_min", "rhs_sharp",
                "margin_sharp", "tolerance"):
        assert getattr(rep, key) == getattr(ref, key), key
    assert rep.psi_sharp_min == 0.54  # min of psi_sharp = rho over [rho1, rho2]
    assert rep.passed == (rep.margin > 0) and rep.provenance["strict"]

"""Conformal modulus: closed forms, capacity solves, angular energy."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from nitsche_lab import (
    AnnulusGrid,
    AnnulusMap,
    Circular,
    CurvatureBound,
    DivergenceError,
    DomainError,
    MaskError,
    angular_energy,
    constant_curvature_metric,
    masked_geodesic_annulus,
    modulus_capacity,
    modulus_circular,
    solve_dirichlet,
    surface_metric,
    catalog_surface,
)
from nitsche_lab.modulus import (
    INNER, INTERIOR, OUTER, OUTSIDE, MaskedPolarDomain, _cell_energy, _laplace_solve,
    masked_from_circular,
)
from nitsche_lab.cli import main

FLAT = constant_curvature_metric(CurvatureBound.zero())


def test_modulus_circular_values():
    assert modulus_circular(1.0, math.e) == pytest.approx(1.0)
    assert modulus_circular(0.5, 1.0) == pytest.approx(0.6931471805599453)
    assert modulus_circular(0.3, 0.7) == pytest.approx(modulus_circular(3.0, 7.0))
    with pytest.raises(DomainError):
        modulus_circular(1.0, 0.5)


def test_capacity_matches_circular_closed_form():
    assert modulus_capacity(Circular(1.0, math.e), 256) == pytest.approx(1.0, abs=5e-3)
    assert modulus_capacity(Circular(0.5, 1.0), 256) == pytest.approx(math.log(2), abs=5e-3)


def test_capacity_refinement_consistency_circular():
    vals = [modulus_capacity(Circular(0.5, 1.0), n) for n in (32, 64, 128)]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(2)]
    assert diffs[1] <= diffs[0] / 3 + 1e-12


def _eccentric_mask(n, r_out=1.0, r_in=0.35, d=0.25):
    """Ring between |z| = r_out and |z - d| = r_in (inner disk covers 0)."""
    t = np.linspace(math.log(0.02), math.log(r_out), n)
    phi = 2 * np.pi * np.arange(n) / n
    Z = np.exp(t[:, None] + 1j * phi[None, :])
    lvl = np.abs(Z - d) - r_in
    hole = lvl <= 0
    for j in range(n):  # snap each column's crossing to the nearest node
        k = int(np.argmin(hole[:, j]))
        if k > 0 and abs(lvl[k, j]) < abs(lvl[k - 1, j]):
            hole[k, j] = True
    interior = ~hole
    adjacent = np.zeros_like(hole)
    adjacent[1:] |= interior[:-1]
    adjacent[:-1] |= interior[1:]
    adjacent |= np.roll(interior, 1, axis=1) | np.roll(interior, -1, axis=1)
    roles = np.full((n, n), INTERIOR, dtype=np.int8)
    roles[hole] = OUTSIDE
    roles[hole & adjacent] = INNER
    roles[-1] = OUTER
    return MaskedPolarDomain(t=t, n_theta=n, roles=roles)


def test_capacity_eccentric_annulus_against_closed_form():
    # modulus of the ring between circles: acosh((R^2 + r^2 - d^2)/(2 R r))
    exact = 0.9750931632478299
    errs = []
    for n in (64, 128, 256):
        errs.append(abs(modulus_capacity(_eccentric_mask(n)) - exact))
    assert errs[-1] < 5e-3
    order = math.log2(errs[0] / errs[-1]) / 2
    assert order >= 1.0


def test_capacity_invariant_under_inversion():
    dom = _eccentric_mask(96)
    inv = dom.inverted()
    a, b = modulus_capacity(dom), modulus_capacity(inv)
    assert a == pytest.approx(b, abs=1e-6)


def test_masked_geodesic_annulus_levels():
    m = surface_metric(catalog_surface("enneper"))
    dom = masked_geodesic_annulus(m, 0.5, 1.1, 128)
    cap = modulus_capacity(dom)
    s1, s2 = float(m.inverse_distance(0.5)), float(m.inverse_distance(1.1))
    # snapping error is below one radial cell
    assert cap == pytest.approx(math.log(s2 / s1), abs=1.5 * dom.h_t)


def _row_masks(n):
    """Masks whose rows each carry one role: circular, geodesic level set, both inverted."""
    m = surface_metric(catalog_surface("enneper"))
    circ = masked_from_circular(0.5, 1.0, n)
    geo = masked_geodesic_annulus(m, 0.5, 1.1, n)
    return [circ, geo, circ.inverted(), geo.inverted()]


def _row_gap(d):
    rows_in = np.flatnonzero((d.roles == INNER).any(axis=1))
    rows_out = np.flatnonzero((d.roles == OUTER).any(axis=1))
    return float(d.t[rows_out[0]] - d.t[rows_in[0]])


@pytest.mark.parametrize("n", [64, 256])
def test_row_masks_are_solved_by_the_start(monkeypatch, n):
    iterations = []
    cg = spla.cg

    def counting_cg(*args, callback=None, **kwargs):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1
            if callback is not None:
                callback(xk)

        return cg(*args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counting_cg)
    for d in _row_masks(n):
        assert modulus_capacity(d) == pytest.approx(_row_gap(d), rel=0, abs=1e-12)
    assert iterations == [0, 0, 0, 0]


def _reference_potential(d):
    """Explicit-loop 5-point assembly solved directly by spsolve."""
    nT, nP = d.roles.shape
    wt, wp = 1 / d.h_t**2, 1 / d.h_phi**2
    nodes = [(i, j) for i in range(nT) for j in range(nP) if d.roles[i, j] == INTERIOR]
    number = {node: k for k, node in enumerate(nodes)}
    A = sp.lil_matrix((len(nodes), len(nodes)))
    b = np.zeros(len(nodes))
    for k, (i, j) in enumerate(nodes):
        assert 0 < i < nT - 1  # the masks used here keep interior nodes off the end rows
        A[k, k] = 2 * wt + 2 * wp
        for i2, j2, w in ((i + 1, j, wt), (i - 1, j, wt),
                          (i, (j + 1) % nP, wp), (i, (j - 1) % nP, wp)):
            if d.roles[i2, j2] == INTERIOR:
                A[k, number[i2, j2]] -= w
            elif d.roles[i2, j2] == OUTER:
                b[k] += w
    x = spla.spsolve(A.tocsr(), b)
    u = np.where(d.roles == OUTER, 1.0, np.where(d.roles == INNER, 0.0, np.nan))
    for k, node in enumerate(nodes):
        u[node] = x[k]
    return u


def _overlapping_rows_mask(n, dip):
    """Valid mask whose inner loop rises to row 14 while its outer loop dips to row ``dip``."""
    r_in = np.full(n, 2)
    r_in[0:4] = 14
    r_out = np.full(n, n - 3)
    r_out[16:20] = dip
    i = np.arange(n)[:, None]
    roles = np.where(i <= r_in, INNER, np.where(i >= r_out, OUTER, INTERIOR)).astype(np.int8)
    return MaskedPolarDomain(t=np.linspace(0.0, 1.0, n), n_theta=n, roles=roles)


@pytest.mark.parametrize("mask", [
    _eccentric_mask,
    lambda n: _overlapping_rows_mask(n, 10),
    lambda n: _overlapping_rows_mask(n, 14),
], ids=["eccentric", "inner-above-outer", "inner-level-with-outer"])
def test_capacity_matches_direct_reference(mask):
    d = mask(32)
    u_ref = _reference_potential(d)
    u = _laplace_solve(d)
    assert np.array_equal(np.isnan(u), np.isnan(u_ref))
    ok = ~np.isnan(u)
    assert np.max(np.abs(u[ok] - u_ref[ok])) < 1e-9
    ref = 2 * math.pi / _cell_energy(u_ref, d.h_t, d.h_phi)
    assert modulus_capacity(d) == pytest.approx(ref, rel=0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n_t=st.integers(8, 48),
    n_theta=st.integers(1, 48),
    r1=st.floats(0.05, 5.0),
    ratio=st.floats(1.05, 50.0),
    data=st.data(),
)
def test_row_mask_capacity_is_the_row_gap(n_t, n_theta, r1, ratio, data):
    i_in = data.draw(st.integers(0, n_t - 3))
    i_out = data.draw(st.integers(i_in + 2, n_t - 1))
    roles = np.full((n_t, n_theta), OUTSIDE, dtype=np.int8)
    roles[i_in], roles[i_out] = INNER, OUTER
    roles[i_in + 1 : i_out] = INTERIOR
    t = np.linspace(math.log(r1), math.log(r1 * ratio), n_t)
    d = MaskedPolarDomain(t=t, n_theta=n_theta, roles=roles)
    assert modulus_capacity(d) == pytest.approx(t[i_out] - t[i_in], rel=1e-12, abs=0)


def test_masked_domain_validation():
    t = np.linspace(0.0, 1.0, 32)
    roles = np.full((32, 32), INTERIOR, dtype=np.int8)
    with pytest.raises(MaskError):
        MaskedPolarDomain(t=t, n_theta=32, roles=roles)  # no boundary loops
    roles[0] = INNER
    roles[1] = OUTER  # loops touch radially
    with pytest.raises(MaskError):
        MaskedPolarDomain(t=t, n_theta=32, roles=roles)
    # loops that touch along phi, inside the chart and across its seam
    for j_in, j_out in ((0, 1), (31, 0)):
        roles = np.full((32, 32), INTERIOR, dtype=np.int8)
        roles[0], roles[31] = INNER, OUTER
        roles[10, j_in], roles[10, j_out] = INNER, OUTER
        with pytest.raises(MaskError):
            MaskedPolarDomain(t=t, n_theta=32, roles=roles)


def test_angular_energy_equality_for_identity_angle():
    grid = AnnulusGrid(0.5, 1.0, 96, 64)
    T, PHI = grid.mesh()
    rho = 0.8 * np.exp(T - T.min())
    f = AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=FLAT)
    assert angular_energy(f) == pytest.approx(2 * math.pi * grid.modulus, abs=1e-10)


def test_angular_energy_exceeds_floor_for_wiggled_angle():
    grid = AnnulusGrid(0.5, 1.0, 96, 64)
    T, PHI = grid.mesh()
    rho = 0.8 * np.exp(T - T.min())
    floor = 2 * math.pi * grid.modulus
    base = AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=FLAT)
    wiggled = AnnulusMap(grid=grid, rho=rho, theta=PHI + 0.1 * np.sin(PHI), metric=FLAT)
    assert angular_energy(wiggled) > floor
    # identity is the minimiser among winding-one perturbations
    for amp in (0.02, 0.05, 0.2):
        g = AnnulusMap(grid=grid, rho=rho,
                       theta=PHI + amp * np.sin(PHI) * np.sin(T - T.min()), metric=FLAT)
        assert angular_energy(g) >= angular_energy(base) - 1e-12


def test_angular_energy_floor_for_converged_map():
    grid = AnnulusGrid(1.0, 1.9, 96, 96)
    hyp = constant_curvature_metric(CurvatureBound.negative(1.0))
    f = solve_dirichlet(grid, hyp, 0.5, 1.1)
    assert angular_energy(f) >= 2 * math.pi * grid.modulus - grid.eps_grid


def test_capacity_cg_failure_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(spla, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(DivergenceError, match="did not converge"):
        modulus_capacity(masked_from_circular(0.5, 1.0, 16))
    assert main(["modulus", "--domain", "circular", "0.5", "1.0", "--n", "16", "--quiet"]) == 3

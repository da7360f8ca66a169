"""Bound reports, end-to-end verification, and the command-line interface."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusGrid,
    CurvatureBound,
    DomainError,
    NoSolution,
    check_bound,
    constant_curvature_metric,
    green_chain,
    psi_big,
    psi_small,
    solve_bvp,
    solve_dirichlet,
    verify_end_to_end,
)
from nitsche_lab.cli import main

FLAT = constant_curvature_metric(CurvatureBound.zero())
HYP = constant_curvature_metric(CurvatureBound.negative(1.0))


def test_check_bound_flat_critical_pair():
    rep = check_bound(CurvatureBound.zero(), 0.8, 1.0, math.log(2))
    assert rep.lhs == pytest.approx(1.25)
    assert rep.rhs == pytest.approx(1.2402265069591007, abs=1e-12)
    assert rep.margin == pytest.approx(0.00977349304089925, abs=1e-12)
    assert rep.verdict == "pass"


def test_check_bound_tiny_modulus_always_passes():
    for bound in (CurvatureBound.zero(), CurvatureBound.negative(2.0),
                  CurvatureBound.positive(1.0)):
        rep = check_bound(bound, 0.5, 0.6, 1e-8)
        assert rep.passed and rep.rhs >= 1.0


def test_check_bound_hyperbolic_example():
    rep = check_bound(CurvatureBound.negative(1.0), 1.0, 2.0, 1.0)
    assert rep.rhs == pytest.approx(math.sinh(1.0) / 2 + 1, abs=1e-12)
    assert rep.lhs == pytest.approx(2.0)
    assert rep.passed


def test_check_bound_negative_control_matches_nonexistence():
    rep = check_bound(CurvatureBound.zero(), 0.9, 1.0, math.log(2))
    assert not rep.passed
    assert rep.lhs == pytest.approx(1 / 0.9)
    out = solve_bvp(FLAT, 0.9, 1.0, math.log(2))
    assert isinstance(out, NoSolution)


def test_contrapositive_flat_radial_cases():
    # failing arithmetic bound implies radial nonexistence, flat case
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        rho1 = rng.uniform(0.4, 1.2)
        rho2 = rho1 * rng.uniform(1.01, 1.35)
        T = rng.uniform(0.2, 1.2)
        rep = check_bound(CurvatureBound.zero(), rho1, rho2, T)
        if rep.passed:
            continue
        checked += 1
        assert isinstance(solve_bvp(FLAT, rho1, rho2, T, n_steps=1024), NoSolution)


def test_report_arithmetic_consistency():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sign = rng.choice(["zero", "negative", "positive"])
        bound = CurvatureBound(sign, rng.uniform(0.5, 1.5) if sign != "zero" else None)
        cap = bound.cap if math.isfinite(bound.cap) else 2.0
        rho2 = rng.uniform(0.3, 0.95) * cap
        rho1 = rng.uniform(0.3, 0.9) * rho2
        mod = rng.uniform(0.1, 1.0)
        rep = check_bound(bound, rho1, rho2, mod)
        rhs_indep = float(psi_small(bound, rho1)) / (2 * rho1) * mod**2 + 1
        assert rep.rhs == pytest.approx(rhs_indep, abs=1e-12)
        assert rep.psi_big_value == pytest.approx(float(psi_big(bound, rho1)), abs=1e-14)


def test_verify_end_to_end_flat_critical():
    rep = verify_end_to_end(FLAT, 0.5, 1.0, 0.8, 1.0, n_r=96, n_theta=96)
    assert rep.passed
    assert rep.margin == pytest.approx(0.00977349304089925, abs=1e-12)
    assert all(blk["ok"] for blk in rep.subchecks.values())


def test_verify_green_chain_summary():
    rep = verify_end_to_end(HYP, 1.0, 1.7, 0.5, 1.0, n_r=64, n_theta=64)
    blk = rep.subchecks["green_chain"]
    assert blk["stations"] == 8
    assert blk["identity_ok"] and blk["chain_ok"] and blk["ok"] is True
    assert 0 <= blk["identity_gap_max"] <= 1e-6
    assert blk["chain_margin_min"] >= -2 * math.pi * rep.provenance["eps_grid"]
    json.dumps(rep.to_dict())


def test_verify_green_chain_block_equals_per_station_green_chain():
    rep = verify_end_to_end(HYP, 1.0, 1.7, 0.5, 1.0, n_r=64, n_theta=64)
    f = solve_dirichlet(AnnulusGrid(1.0, 1.7, 64, 64), HYP, 0.5, 1.0)
    with warnings.catch_warnings():  # each radius snaps to a half node
        warnings.simplefilter("ignore")
        chain = [green_chain(f, sigma)
                 for sigma in np.exp(np.linspace(0.0, math.log(1.7), 10)[1:-1])]
    gaps = [gc.flux - gc.inner_flux - gc.area for gc in chain]
    margins = [gc.flux - 2 * math.pi * rep.psi_sharp_min * math.log(gc.sigma) for gc in chain]
    blk = rep.subchecks["green_chain"]
    assert blk["identity_gap_max"] == pytest.approx(np.max(np.abs(gaps)), abs=1e-12)
    assert blk["chain_margin_min"] == pytest.approx(min(margins), abs=1e-12)


def test_verify_end_to_end_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric, rho1, rho2 in ((HYP, 0.5, 1.0), (FLAT, 0.8, 1.0)):
            assert verify_end_to_end(metric, 1.0, 1.7, rho1, rho2, n_r=64, n_theta=64).passed


def test_verify_orientation_swap_equivalent():
    a = verify_end_to_end(HYP, 1.0, 1.7, 0.5, 1.0, n_r=64, n_theta=64)
    b = verify_end_to_end(HYP, 1.0, 1.7, 1.0, 0.5, n_r=64, n_theta=64)
    assert b.provenance["orientation_swapped_via_inversion"]
    assert a.lhs == pytest.approx(b.lhs) and a.margin == pytest.approx(b.margin)


def test_verify_rejects_cap_violation_before_solving():
    sph = constant_curvature_metric(CurvatureBound.positive(1.0))
    with pytest.raises(DomainError):
        verify_end_to_end(sph, 1.0, 2.0, 0.5, 1.8, n_r=64, n_theta=64)


def test_report_json_roundtrip():
    rep = check_bound(CurvatureBound.negative(1.0), 1.0, 2.0, 1.0)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["verdict"] == "pass"
    assert back["lhs"] == pytest.approx(2.0)


@pytest.fixture()
def metric_file(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text('{"kind": "constant", "sign": "zero"}')
    return str(p)


def test_cli_check_bound_exit_codes(capsys):
    assert main(["check-bound", "--sign", "zero", "--rho1", "0.8", "--rho2", "1.0",
                 "--mod", "0.693147", "--quiet"]) == 0
    assert main(["check-bound", "--sign", "zero", "--rho1", "0.9", "--rho2", "1.0",
                 "--mod", "0.694", "--quiet"]) == 2


def test_cli_solve_radial(metric_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    rc = main(["solve-radial", "--metric", metric_file, "--rho1", "0.8",
               "--rho2", "1.0", "--mod", str(math.log(2)),
               "--out", str(out), "--csv", str(csv_path), "--quiet"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["slope0"] == pytest.approx(0.0, abs=1e-9)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "rho", "slope"]
    assert len(rows) == 4098
    # nonexistent target -> mathematical failure code
    rc = main(["solve-radial", "--metric", metric_file, "--rho1", "0.9",
               "--rho2", "1.0", "--mod", str(math.log(2)), "--quiet"])
    assert rc == 2


def test_cli_solve_radial_critical(metric_file, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["solve-radial", "--metric", metric_file, "--rho1", "0.8",
               "--critical", "--mod", str(math.log(2)), "--out", str(out), "--quiet"])
    assert rc == 0
    assert json.loads(out.read_text())["rho2"] == pytest.approx(1.0, abs=1e-10)


def test_cli_solve_map_and_verify(metric_file, tmp_path):
    out = tmp_path / "m.json"
    csv_path = tmp_path / "m.csv"
    rc = main(["solve-map", "--metric", metric_file, "--r1", "0.5", "--r2", "1.0",
               "--rho1", "0.8", "--rho2", "1.0", "--nr", "32", "--ntheta", "32",
               "--out", str(out), "--csv", str(csv_path), "--quiet"])
    assert rc == 0
    with open(csv_path) as fh:
        header = next(csv.reader(fh))
    assert header == ["r", "theta", "rho", "theta_target"]
    rc = main(["verify", "--metric", metric_file, "--r1", "0.5", "--r2", "1.0",
               "--rho1", "0.8", "--rho2", "1.0", "--nr", "64", "--ntheta", "64",
               "--out", str(out), "--quiet"])
    assert rc == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_cli_modulus_and_minimal(tmp_path):
    out = tmp_path / "mod.json"
    assert main(["modulus", "--domain", "circular", "0.5", "1.0", "--n", "64",
                 "--out", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["modulus"] == pytest.approx(math.log(2), abs=5e-3)
    assert main(["minimal", "--list", "--quiet"]) == 0
    assert main(["minimal", "--surface", "enneper", "--rho1", "0.54", "--rho2", "1.2",
                 "--n", "64", "--quiet"]) == 0


def test_cli_compare(metric_file, tmp_path):
    hyp = tmp_path / "hyp.json"
    hyp.write_text('{"kind": "constant", "sign": "negative", "kappa": 1.0}')
    assert main(["compare", "--metric", str(hyp), "--against", "constant:zero",
                 "--rho-max", "2.0", "--quiet"]) == 0
    # ordering violated: distinct status surfaces as invalid input
    assert main(["compare", "--metric", metric_file, "--against", "constant:negative:1.0",
                 "--rho-max", "2.0", "--quiet"]) == 4


def test_cli_numerical_failure_code(tmp_path):
    # hyperbolic critical trajectory blows up long before the requested modulus
    hyp = tmp_path / "hyp.json"
    hyp.write_text('{"kind": "constant", "sign": "negative", "kappa": 1.0}')
    rc = main(["solve-radial", "--metric", str(hyp), "--rho1", "1.0",
               "--critical", "--mod", "10.0", "--quiet"])
    assert rc == 3


def test_cli_missing_metric_file_names_the_path(capsys):
    rc = main(["solve-radial", "--metric", "/nonexistent.json", "--rho1", "0.5",
               "--rho2", "1.0", "--mod", "0.3", "--quiet"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "cannot read metric file /nonexistent.json" in err
    assert "Expecting value" not in err


def test_cli_invalid_input_codes(capsys):
    assert main(["verify", "--metric", "/nonexistent.json", "--r1", "1", "--r2", "2",
                 "--rho1", "0.5", "--rho2", "1.0", "--quiet"]) == 4
    assert main(["bogus"]) == 4
    assert main(["modulus", "--domain", "circular", "0.5", "--quiet"]) == 4

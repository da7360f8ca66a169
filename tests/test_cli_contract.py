"""The CLI exit-code contract under malformed and fuzzed input.

Every argument list ends in 0 (pass), 2 (mathematical fail), 3 (numerical
failure) or 4 (invalid input); none raises.  The fuzzed lists start from a
valid call of each subcommand, then drop options, replace values with
malformed ones and add options that belong to other subcommands.  Below
the CLI, the radius gates give JSON-clean output or a ``DomainError``
(exit 4) for radii anywhere in the positive float range.
"""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nitsche_lab import AnnulusGrid, CurvatureBound, DomainError, check_bound, modulus_circular
from nitsche_lab.cli import main

FLAT = json.dumps({"kind": "constant", "sign": "zero"})
HYP = json.dumps({"kind": "constant", "sign": "negative", "kappa": 1.0})
EXIT_1_BEFORE = ("3", "[]", json.dumps({"kind": "constant", "sign": "negative", "kappa": "abc"}))

# one valid call per subcommand, small sizes so each run takes milliseconds
VALID = {
    "solve-radial": [("--metric", FLAT), ("--rho1", "0.8"), ("--rho2", "1.0"),
                     ("--mod", "0.5"), ("--steps", "16")],
    "solve-map": [("--metric", FLAT), ("--r1", "0.5"), ("--r2", "1.0"), ("--rho1", "0.8"),
                  ("--rho2", "1.0"), ("--nr", "16"), ("--ntheta", "32")],
    "modulus": [("--domain", "circular", "0.5", "1.0"), ("--n", "16")],
    "minimal": [("--surface", "enneper"), ("--rho1", "0.54"), ("--rho2", "1.2"), ("--n", "16")],
    "compare": [("--metric", HYP), ("--against", "constant:zero"), ("--rho-max", "1.0")],
    "check-bound": [("--sign", "negative"), ("--kappa", "1.0"), ("--rho1", "0.5"),
                    ("--rho2", "1.0"), ("--mod", "0.5")],
    "verify": [("--metric", FLAT), ("--r1", "1.0"), ("--r2", "1.5"), ("--rho1", "0.8"),
               ("--rho2", "1.0"), ("--nr", "16"), ("--ntheta", "32")],
}
SIZES = {"--steps", "--nr", "--ntheta", "--n"}  # never dropped: defaults are slow

NUMBERS = st.sampled_from(["0", "-1", "0.3", "1.2", "2.5", "1e308", "nan", "inf", "-inf",
                           "abc", ""])
SMALL_INTS = st.sampled_from(["0", "-2", "1", "4", "16", "33", "1.5", "x"])
METRICS = st.sampled_from([
    FLAT, HYP, *EXIT_1_BEFORE, "{", "null", '"zero"', "{}", '{"kind": 3}',
    '{"kind": "constant"}', '{"kind": "constant", "sign": "positive"}',
    '{"kind": "constant", "sign": "positive", "kappa": -1}',
    '{"kind": "constant", "sign": "positive", "kappa": [1]}',
    '{"kind": "profile"}', '{"kind": "profile", "samples": "abc"}',
    '{"kind": "profile", "samples": [[0, 1], [1, 2]]}',
    '{"kind": "profile", "samples": [[0, 1], [0.5, 1.2], [1, 1.5], [1.5, "x"]]}',
    '{"kind": "profile", "samples": [[0, 1], [0.5, 1.2], [1, 1.5], [2, 2]]}',
    '{"kind": "weierstrass"}', '{"kind": "weierstrass", "surface": []}',
    '{"kind": "weierstrass", "surface": "enneper"}', "/nonexistent.json", os.devnull,
])
AGAINST = st.builds(lambda sign, tail: f"constant:{sign}{tail}",
                    st.sampled_from(["zero", "negative", "positive", "", "bogus"]),
                    st.sampled_from(["", ":1.0", ":0.5", ":garbage", ":-1", ":nan", ":1:2"]))
DOMAIN = st.one_of(
    st.tuples(st.sampled_from(["circular", "file.json", "annulus"]), NUMBERS, NUMBERS),
    st.lists(NUMBERS, min_size=0, max_size=2).map(tuple))
# the values of the options that take text, as tuples (--domain takes three)
VALUES = {"--metric": st.tuples(METRICS), "--against": st.tuples(AGAINST), "--domain": DOMAIN,
          "--sign": st.tuples(st.sampled_from(["zero", "negative", "positive", "flat"])),
          "--surface": st.tuples(st.sampled_from(["enneper", "planar", "catenoid", ""]))}
# options of every subcommand, each with its value(s)
FOREIGN = st.one_of(
    st.sampled_from([("--tol", "0.1"), ("--tol", "abc"), ("--csv", os.devnull),
                     ("--critical",), ("--list",), ("--out", os.devnull)]),
    st.sampled_from(sorted(VALUES)).flatmap(lambda name: VALUES[name].map(lambda v: (name, *v))),
    st.tuples(st.sampled_from(["--rho1", "--rho2", "--mod", "--r1", "--r2", "--kappa",
                               "--rho-max"]), NUMBERS),
    st.tuples(st.sampled_from(sorted(SIZES)), SMALL_INTS),
)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    argv = [command]
    for name, *values in VALID[command]:
        action = draw(st.sampled_from(["keep", "keep", "replace", "drop"]))
        if action == "drop" and name not in SIZES:
            continue
        if action == "replace":
            values = draw(VALUES.get(name, st.tuples(SMALL_INTS if name in SIZES else NUMBERS)))
        argv += [name, *values]
    for extra in draw(st.lists(FOREIGN, max_size=2)):
        argv += extra
    return argv + ["--quiet"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on extreme numbers
@settings(max_examples=150, deadline=None)
@given(fuzzed_argv())
# r2/r1 overflows: log(r2/r1) was inf, and the NaN warm start crashed Newton
@example(["solve-map", "--metric", FLAT, "--r1", "0.5", "--r2", "1e308", "--rho1", "0.8",
          "--rho2", "1.0", "--nr", "16", "--ntheta", "32", "--quiet"])
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    assert main(argv) in (0, 2, 3, 4)


def test_valid_calls_pass():
    for command, options in VALID.items():
        argv = [command] + [v for option in options for v in option] + ["--quiet"]
        assert main(argv) == 0, argv


def test_malformed_metric_descriptions_are_invalid_input(capsys):
    # each of these used to end in a traceback and exit 1
    for metric in EXIT_1_BEFORE:
        assert main(["solve-radial", "--metric", metric, "--rho1", "0.5", "--rho2", "1.0",
                     "--mod", "0.3", "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "a metric description is a JSON object, not int" in err
    assert "a metric description is a JSON object, not list" in err
    assert "kappa must be a positive finite real" in err


def test_options_only_where_they_are_read():
    flat = ["--metric", FLAT, "--rho1", "0.8", "--rho2", "1.0"]
    assert main(["solve-radial", *flat, "--mod", "0.5", "--steps", "16", "--tol", "0.1",
                 "--quiet"]) == 4
    assert main(["compare", "--metric", HYP, "--against", "constant:zero", "--rho-max", "1.0",
                 "--csv", os.devnull, "--quiet"]) == 4
    assert main(["verify", *flat, "--r1", "1.0", "--r2", "1.5", "--nr", "16", "--ntheta", "32",
                 "--tol", "0.1", "--quiet"]) == 0
    assert main(["modulus", "--domain", "domain.json", "--quiet"]) == 4
    assert main(["modulus", "--domain", "circular", "0.5", "abc", "--quiet"]) == 4
    # a given kappa is read for every sign, and dropped by the zero bound
    for sign in ("negative", "zero"):
        assert main(["compare", "--metric", HYP, "--against", f"constant:{sign}:garbage",
                     "--rho-max", "1.0", "--quiet"]) == 4
    assert main(["compare", "--metric", HYP, "--against", "constant:zero:1.0",
                 "--rho-max", "1.0", "--quiet"]) == 0
    assert main(["check-bound", "--sign", "zero", "--kappa", "1.0", "--rho1", "0.5",
                 "--rho2", "1.0", "--mod", "0.5", "--quiet"]) == 0


def test_extreme_numbers_keep_the_contract(capsys):
    flat = ["--metric", FLAT, "--rho1", "0.8"]
    # NaN and infinite radii are invalid input
    assert main(["solve-radial", *flat, "--critical", "--mod", "1.0", "--steps", "16",
                 "--quiet", "--rho1", "nan"]) == 4
    assert main(["solve-map", *flat, "--rho2", "1.0", "--r1", "0.5", "--r2", "inf",
                 "--nr", "16", "--ntheta", "32", "--quiet"]) == 4
    assert main(["modulus", "--domain", "circular", "0.5", "inf", "--n", "16", "--quiet"]) == 4
    # finite data whose squares overflow lies past the distance range, and is
    # refused before any arithmetic overflows
    hyp = json.dumps({"kind": "constant", "sign": "negative", "kappa": 1e300})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-map", *flat, "--rho2", "1e308", "--r1", "0.5", "--r2", "1.0",
                     "--nr", "16", "--ntheta", "32", "--quiet"]) == 4
        assert main(["solve-radial", "--metric", hyp, "--rho1", "0.5", "--rho2", "1.0",
                     "--mod", "0.5", "--quiet"]) == 4
        assert main(["verify", "--metric", hyp, "--rho1", "0.5", "--rho2", "1.0", "--r1", "1",
                     "--r2", "1.5", "--nr", "16", "--ntheta", "32", "--quiet"]) == 4
        # radii whose ratio, or whose double 2 kappa rho, overflows
        assert main(["solve-map", *flat, "--rho2", "1.0", "--r1", "0.5", "--r2", "1e308",
                     "--nr", "16", "--ntheta", "32", "--quiet"]) == 4
        assert main(["modulus", "--domain", "circular", "0.5", "1e308", "--quiet"]) == 4
        assert main(["check-bound", "--sign", "zero", "--rho1", "5e-324", "--rho2", "1e-10",
                     "--mod", "0.5", "--quiet"]) == 4
        assert main(["check-bound", "--sign", "zero", "--rho1", "9e307", "--rho2", "1e308",
                     "--mod", "1", "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "distance range [0, 1.34078e+154) of flat" in err
    assert err.count("distance range [0, 3.55238e-298)") == 2
    # Mod^2 overflows to an infinite right-hand side, which the data violates
    assert main(["check-bound", "--sign", "zero", "--rho1", "0.5", "--rho2", "1.0",
                 "--mod", "1e308", "--quiet"]) == 2
    # so does sinh(kappa rho1), silently
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-bound", "--sign", "negative", "--kappa", "1e300", "--rho1", "0.5",
                     "--rho2", "1.0", "--mod", "1.0", "--quiet"]) == 2
    assert capsys.readouterr().err == ""


POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(max_examples=300, deadline=None)
@given(r1=POSITIVE_FLOATS, r2=POSITIVE_FLOATS, n_r=st.integers(16, 256),
       mod=st.floats(1e-3, 1e3), kappa=st.floats(1e-3, 1e3))
@example(r1=5e-324, r2=1e-10, n_r=16, mod=0.5, kappa=1.0)  # the ratio overflows
@example(r1=1e300, r2=1e300 * (1 + 1e-13), n_r=16, mod=0.5, kappa=1.0)  # t steps round away
def test_radii_over_the_float_range_give_clean_json_or_a_domain_error(r1, r2, n_r, mod, kappa):
    def clean(payload):
        json.dumps(payload, allow_nan=False)

    try:
        grid = AnnulusGrid(r1, r2, n_r, 32)
    except DomainError:
        pass
    else:
        t = grid.t
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)
        clean({"t": t.tolist(), "modulus": grid.modulus, "h_t": grid.h_t,
               "eps_grid": grid.eps_grid})
    try:
        clean(modulus_circular(r1, r2))
    except DomainError:
        pass
    for bound in (CurvatureBound.zero(), CurvatureBound.positive(kappa)):
        try:
            clean(check_bound(bound, r1, r2, mod).to_dict())
        except DomainError:
            pass

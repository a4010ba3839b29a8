"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  The shared check-suite report is computed once per
session; the determinism criterion reruns it and compares the serialized
reports byte for byte.
"""

import json
import time

import numpy as np
import pytest

from beltrami import checks
from beltrami.checks import check_names, run_suite

SEED = 1234


@pytest.fixture(scope="session")
def report():
    return run_suite("all", seed=SEED)


def _by_name(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


def _assert_checks(report, names, label):
    worst = []
    for name in names:
        c = _by_name(report, name)
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {label} :: {c.name} residual={c.residual:.3e} tol={c.tolerance:.0e}")
        worst.append(c)
    bad = [c for c in worst if not c.passed]
    assert not bad, f"{label}: failing checks: {[(c.name, c.residual, c.tolerance) for c in bad]}"


def test_criterion_01_curl_eigen_suite(report):
    """Every catalog field at random points: FD curl and divergence residuals."""
    names = [c.name for c in report.checks if c.name.startswith("eigen/")]
    assert len(names) >= 20
    _assert_checks(report, names, "criterion-01")


def test_criterion_02_xray_numeric_oracle(report):
    _assert_checks(report, ["identities/xray-numeric-lundquist"], "criterion-02")


def test_criterion_02_runtime_budget():
    from beltrami.geometry import Ray
    from beltrami.fields import Lundquist, eval_field
    from beltrami.rays import OscillatoryLineQuadrature, xray_numeric
    rng = np.random.default_rng(SEED)
    fld = lambda p: eval_field(Lundquist(F0=1.0, nu=1.0, lam=1), p)
    t0 = time.perf_counter()
    done = 0
    while done < 20:
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if np.hypot(th[0], th[1]) < 0.3:
            continue
        done += 1
        ray = Ray.through(th, rng.standard_normal(3))
        cfg = OscillatoryLineQuadrature(nu_scale=float(np.hypot(th[0], th[1])))
        xray_numeric(fld, ray, cfg)
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed <= 10.0 else "FAIL"
    print(f"{status} criterion-02-runtime :: 20-ray batch {elapsed:.2f}s (budget 10s)")
    assert elapsed <= 10.0


def test_criterion_03_spherical_mean_inversion(report):
    _assert_checks(report, ["inversions/spherical-mean"], "criterion-03")


def test_criterion_04_cross_product_inversion(report):
    _assert_checks(report, ["inversions/cross-product-mean",
                            "inversions/cross-product-sign"], "criterion-04")


def test_criterion_05_half_line_mean(report):
    _assert_checks(report, ["inversions/half-line-mean"], "criterion-05")


def test_criterion_06_decomposition_identities(report):
    _assert_checks(report, ["identities/decompose-whole-line",
                            "identities/decompose-signed"], "criterion-06")


def test_criterion_07_hilbert_smith_tuy(report):
    _assert_checks(report, ["identities/hilbert-derivative",
                            "identities/smith-great-circle",
                            "identities/tuy-half-line-kernel"], "criterion-07")


def test_criterion_08_great_circle_machinery(report):
    _assert_checks(report, ["identities/great-circle-multipliers",
                            "identities/great-circle-inverse",
                            "identities/finite-part-moments"], "criterion-08")


def test_criterion_09_mixed_partials(report):
    _assert_checks(report, ["john/mixed-partials", "john/curl-form"], "criterion-09")


def test_criterion_10_riesz_biot_savart(report):
    _assert_checks(report, ["identities/riesz-biot-savart"], "criterion-10")


def test_criterion_11_twistor_suite(report):
    names = [c.name for c in report.checks if c.name.startswith("twistor/")]
    assert {"twistor/cylindrical-kernel", "twistor/laurent-cylindrical",
            "twistor/point-source", "twistor/axisymmetric-linear",
            "twistor/spheromak-potential", "twistor/generator-eigen"} <= set(names)
    _assert_checks(report, names, "criterion-11")


def test_criterion_12_plane_wave_signed_oracle(report):
    _assert_checks(report, ["identities/ytransform-plane-wave"], "criterion-12")


def test_criterion_13_plane_transform_recovery(report):
    _assert_checks(report, ["inversions/plane-recovery-inverse-square"],
                   "criterion-13")


def test_criterion_14_determinism(report):
    second = run_suite("all", seed=SEED)
    a = json.dumps(report.to_json(), indent=2, sort_keys=True)
    b = json.dumps(second.to_json(), indent=2, sort_keys=True)
    status = "PASS" if a == b else "FAIL"
    print(f"{status} criterion-14 :: repeated full-suite reports byte-identical")
    assert a == b


def test_full_suite_green(report):
    failing = [c.name for c in report.checks if not c.passed]
    print(f"{'PASS' if not failing else 'FAIL'} full-suite :: "
          f"{report.n_passed}/{len(report.checks)} checks")
    assert not failing, failing
    # check_names reads the declared rows, so `check` validates tolerances up front
    assert [c.name for c in report.checks] == list(check_names("all"))


def test_check_names_unique():
    names = check_names("all")
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)


def test_checks_carry_their_rows(report):
    # each reported check is its declared row, name, tolerance and detail, in row order
    rows = [(f"{key}/{name}", tol, detail)
            for key, suite_rows in checks.ROWS.items() for name, tol, detail in suite_rows]
    assert [(c.name, c.tolerance, c.detail) for c in report.checks] == rows
    assert all(c.tolerance_source == "default" for c in report.checks)


@pytest.mark.parametrize("extra", [1, -1])
def test_suite_residual_count_must_match_its_rows(monkeypatch, extra):
    # a suite that returns one residual too many or too few raises, rather than
    # labelling residuals with the wrong rows
    monkeypatch.setattr(checks, "SUITES", dict(checks.SUITES))
    monkeypatch.setattr(checks, "ROWS", dict(checks.ROWS))
    rows = (("one", 1.0, "first row"), ("two", 1.0, "second row"))
    checks._suite("miscounted", *rows)(lambda seed: [0.0] * (len(rows) + extra))
    assert check_names("miscounted") == ("miscounted/one", "miscounted/two")
    with pytest.raises(ValueError):
        run_suite("miscounted", SEED)


def _failed_with_route_scaled_by_one_ppm(monkeypatch, module, name, suite):
    """The checks of suite that fail with beltrami.module.name scaled by 1 + 1e-6
    wherever its name is bound."""
    import importlib
    import beltrami
    route = getattr(importlib.import_module(f"beltrami.{module}"), name)

    def scaled(*args, **kwargs):
        out = route(*args, **kwargs)
        return tuple(v * (1 + 1e-6) for v in out) if isinstance(out, tuple) else out * (1 + 1e-6)

    for where in (module, "checks", "inversion"):
        target = importlib.import_module(f"beltrami.{where}")
        if hasattr(target, name):
            monkeypatch.setattr(target, name, scaled)
    if hasattr(beltrami, name):
        monkeypatch.setattr(beltrami, name, scaled)
    return {c.name.split("/", 1)[1] for c in run_suite(suite, SEED).checks if not c.passed}


@pytest.mark.parametrize("module, name, failing", [
    ("rays", "_ring_beams", {"smith-great-circle", "tuy-half-line-kernel"}),
    ("rays", "xray_lundquist_batch", {"decompose-whole-line"}),
    ("fields", "radon_moses_pair", {"smith-great-circle", "tuy-half-line-kernel"}),
    ("fields", "radon_moses_many", {"smith-great-circle", "tuy-half-line-kernel"}),
])
def test_identities_see_a_route_scaled_by_one_ppm(monkeypatch, module, name, failing):
    # mutation guard: the ring engine, the Lundquist whole-line closed form, the
    # helical plane transform's components and its operator call, each scaled by
    # 1 + 1e-6 wherever its name is bound, must each fail a check of the identities suite
    failed = _failed_with_route_scaled_by_one_ppm(monkeypatch, module, name, "identities")
    assert failed >= failing, failed


@pytest.mark.parametrize("module, name, failing", [
    ("rays", "_ring_beams", {"spherical-mean-band-limited"}),
    ("rays", "xray_via_funk_batch", {"spherical-mean-band-limited"}),
    ("inversion", "sphere_mean_of_beam", {"spherical-mean", "cross-product-mean",
                                          "half-line-mean", "spherical-mean-band-limited"}),
])
def test_inversions_see_a_route_scaled_by_one_ppm(monkeypatch, module, name, failing):
    # mutation guard: the ring engine, the great-circle route that both the whole-line
    # beam and the half-line beam's even part take, and the one sphere-mean driver, each
    # scaled by 1 + 1e-6 wherever its name is bound, must each fail a check of the
    # inversions suite
    failed = _failed_with_route_scaled_by_one_ppm(monkeypatch, module, name, "inversions")
    assert failed >= failing, failed


@pytest.mark.parametrize("name, failing", [
    ("_contour_points", {"cylindrical-kernel", "laurent-cylindrical", "axisymmetric-linear",
                         "point-source"}),
    ("spheromak_debye_closed", {"spheromak-potential"}),
])
def test_twistor_sees_a_route_scaled_by_one_ppm(monkeypatch, name, failing):
    # mutation guard: the one contour driver of the fields and the scalar potentials,
    # and the one spheromak potential, each scaled by 1 + 1e-6, must fail the
    # checks of the twistor suite that read them
    failed = _failed_with_route_scaled_by_one_ppm(monkeypatch, "twistor", name, "twistor")
    assert failed >= failing, failed

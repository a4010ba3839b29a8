"""Runnable verification suites over the whole toolkit.

Each check computes one residual and compares it against a fixed tolerance;
suites bundle related checks.  All randomness is drawn from seeded generators
and every summation has a fixed order, so a suite report is reproducible
bit-for-bit for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .geometry import (Plane, PolarSphereGrid, make_polar_sphere_quadrature, normalize,
                       rays_through)
from .harmonics import SphericalFunction, legendre_p_zero
from .fields import (CKCylindrical, GeneralizedLundquist, Lundquist, MosesBandLimited,
                     PlaneWave, Spheromak, curl_fd, div_fd, eigenvalue, eval_field,
                     radon_moses, radon_moses_pair, synthesize_moses)
from .sphere import (PVRule, finite_part_moment, funk_minkowski, funk_multipliers,
                     pv_moment, semyanistyi_inverse)
from .rays import (_damped_line_integral, curl_form_residual, dbeam_lundquist_batch,
                   john_residual, planewave_closed_batch, theta_divergence_residual,
                   xray_lundquist_batch, ytransform_lundquist_batch)
from .inversion import (gg_radon_recovery, gg_spherical_mean, grangeat_intermediate,
                        invert_grangeat, invert_spherical_mean, lundquist_dbeam_beam,
                        lundquist_xray_beam, moses_dbeam_beam, moses_xray_beam,
                        moses_ybeam_beam, riesz_factor, rbs_dp_residual, rbs_moses,
                        smith_identity_check, tuy_identity_check, y_radon_recovery)
from . import twistor as tw


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str
    residual: float
    tolerance: float
    tolerance_source: str = "default"   # or "config": overridden by a run config

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "residual": format(self.residual, ".17g"),
            "tolerance": format(self.tolerance, ".17g"),
            "tolerance_source": self.tolerance_source,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CheckReport:
    suite: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": self.n_passed,
                "failed": len(self.checks) - self.n_passed,
            },
        }


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) /
                 max(np.linalg.norm(np.asarray(b)), 1e-300))


def _points_in_ball(rng, n, radius) -> np.ndarray:
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * (radius * rng.uniform(0.05, 1.0, size=(n, 1)))


def _catalog(rng):
    s = SphericalFunction.random(4, rng)
    return [
        ("lundquist+", Lundquist(F0=1.2 - 0.4j, nu=1.1, lam=1)),
        ("lundquist-", Lundquist(F0=0.9, nu=0.8, lam=-1)),
        ("plane_wave+", PlaneWave(k0=1.3, kappa0=np.array([0.3, -0.5, 0.8]), lam=1)),
        ("plane_wave-", PlaneWave(k0=0.7, kappa0=np.array([0.1, 0.9, 0.4]), lam=-1)),
        ("ck_m0", CKCylindrical(m=0, nu=1.0)),
        ("ck_m1", CKCylindrical(m=1, nu=1.2)),
        ("ck_m3", CKCylindrical(m=3, nu=0.9)),
        ("generalized_lundquist", GeneralizedLundquist(sigma=1.15)),
        ("spheromak", Spheromak(F0=0.8 - 0.1j, k=1.0)),
        ("moses_band_limited", MosesBandLimited(nu=1.05, lam=1, s=s)),
    ]


SUITES: dict = {}        # suite name -> suite(seed) -> list[CheckResult]
CHECK_NAMES: dict = {}   # suite name -> the names of its checks, in report order


def _suite(key: str, names: str):
    """Register a suite under key with the names of its checks, key/<word> for
    each word of names in the order the suite reports them."""
    def register(fn):
        SUITES[key] = fn
        CHECK_NAMES[key] = tuple(f"{key}/{n}" for n in names.split())
        return fn
    return register


def _keys(name: str) -> list[str]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return list(SUITES) if name == "all" else [name]


def check_names(name: str) -> tuple[str, ...]:
    """The check names run_suite(name) reports, known without running it."""
    return sum((CHECK_NAMES[key] for key in _keys(name)), ())


# --------------------------------------------------------------------------
# eigen suite
# --------------------------------------------------------------------------

@_suite("eigen", "curl/lundquist+ div/lundquist+ curl/lundquist- div/lundquist- "
                 "curl/plane_wave+ div/plane_wave+ curl/plane_wave- div/plane_wave- "
                 "curl/ck_m0 div/ck_m0 curl/ck_m1 div/ck_m1 curl/ck_m3 div/ck_m3 "
                 "curl/generalized_lundquist div/generalized_lundquist "
                 "curl/spheromak div/spheromak curl/moses_band_limited div/moses_band_limited")
def suite_eigen(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for tag, spec in _catalog(rng):
        nu_s = eigenvalue(spec)
        pts = _points_in_ball(rng, 100, 5.0 / abs(nu_s))
        quad = spec.rule(5.0)  # one sphere rule for every FD stencil
        if quad is not None:
            pts = pts[:20]  # synthesized fields are the costly ones
        fld = lambda p, sp=spec, q=quad: eval_field(sp, p, q)
        nuF = nu_s * fld(pts)
        scale = np.linalg.norm(nuF, axis=-1)
        out.append(CheckResult(f"eigen/curl/{tag}",
                               "relative FD-curl residual against the eigenvalue",
                               np.max(np.linalg.norm(curl_fd(fld, pts) - nuF, axis=-1) / scale),
                               1e-5))
        out.append(CheckResult(f"eigen/div/{tag}",
                               "FD divergence relative to the scaled field",
                               np.max(np.abs(div_fd(fld, pts)) / scale), 1e-6))
    return out


# --------------------------------------------------------------------------
# john suite
# --------------------------------------------------------------------------

@_suite("john", "mixed-partials curl-form x-curl x-div theta-div")
def suite_john(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    nu, F0, lam = 1.0, 1.0, 1
    xray_fn = lambda thetas, x: xray_lundquist_batch(thetas, x, F0, nu, lam)
    worst_john = worst_curlform = worst_thdiv = 0.0
    worst_curlx = worst_divx = 0.0
    for _ in range(5):
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if np.hypot(th[0], th[1]) < 0.4:
            th[2] *= 0.2
            th /= np.linalg.norm(th)
        x = rng.standard_normal(3)
        worst_john = max(worst_john, john_residual(xray_fn, th, x))
        worst_curlform = max(worst_curlform, curl_form_residual(xray_fn, lam * nu, th, x))
        worst_thdiv = max(worst_thdiv, theta_divergence_residual(xray_fn, th, x))
        fld = lambda pts, t=th[None]: np.concatenate([xray_fn(t, p) for p in pts])
        V = xray_fn(th[None], x)[0]
        worst_curlx = max(worst_curlx, _rel(curl_fd(fld, x), lam * nu * V))
        worst_divx = max(worst_divx,
                         float(abs(div_fd(fld, x)) / np.linalg.norm(lam * nu * V)))
    return [
        CheckResult("john/mixed-partials",
                    "symmetry of mixed x/direction derivatives of the extension",
                    worst_john, 1e-7),
        CheckResult("john/curl-form",
                    "d/dx_m of the direction-curl equals nu d/dalpha_m",
                    worst_curlform, 1e-7),
        CheckResult("john/x-curl", "FD curl in x of the closed-form line transform",
                    worst_curlx, 1e-5),
        CheckResult("john/x-div", "FD divergence in x of the line transform",
                    worst_divx, 1e-5),
        CheckResult("john/theta-div", "direction divergence of the extension",
                    worst_thdiv, 1e-10),
    ]


# --------------------------------------------------------------------------
# identities suite
# --------------------------------------------------------------------------

@_suite("identities", "xray-numeric-lundquist decompose-whole-line decompose-signed "
                      "dbeam-numeric-series hilbert-derivative smith-great-circle "
                      "tuy-half-line-kernel great-circle-multipliers great-circle-inverse "
                      "finite-part-moments riesz-biot-savart ytransform-plane-wave")
def suite_identities(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    nu, F0 = 1.0, 1.0
    fld = lambda p: eval_field(Lundquist(F0=F0, nu=nu, lam=1), p)

    # numeric whole-line transform vs the closed form, 20 rays with v_r >= 0.3
    ths, xs = [], []
    while len(ths) < 20:
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if np.hypot(th[0], th[1]) < 0.3:
            continue
        ths.append(th)
        xs.append(rng.standard_normal(3))
    ths = np.array(ths)
    thetas, feet = rays_through(ths, np.array(xs))
    got, _ = _damped_line_integral(fld, thetas, feet, nu * np.hypot(ths[:, 0], ths[:, 1]), 8, "X")
    out.append(CheckResult("identities/xray-numeric-lundquist",
                           "regularized line integral against the closed form",
                           max(map(_rel, got, xray_lundquist_batch(thetas, feet, F0, nu))), 1e-3))

    # half-line + signed decompositions of the closed series
    ths, xs = [], []
    for _ in range(10):
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if np.hypot(th[0], th[1]) < 0.05:
            th[0] += 0.3
            th /= np.linalg.norm(th)
        ths.append(th)
        xs.append(rng.standard_normal(3))
    thetas, feet = rays_through(np.array(ths), np.array(xs))
    X = xray_lundquist_batch(thetas, feet, F0, nu)
    D1 = dbeam_lundquist_batch(thetas, feet, F0, nu, 1)
    D2 = dbeam_lundquist_batch(-normalize(np.array(ths)), feet, F0, nu, 1)  # -theta, once
    Y = ytransform_lundquist_batch(thetas, feet, F0, nu, 1)
    out.append(CheckResult("identities/decompose-whole-line",
                           "opposite half-line beams sum to the whole-line value",
                           max(float(np.linalg.norm(d)) for d in D1 + D2 - X), 1e-10))
    out.append(CheckResult("identities/decompose-signed",
                           "opposite half-line beams difference to the signed value",
                           max(float(np.linalg.norm(d)) for d in D1 - D2 - Y), 1e-10))

    # numeric half-line vs the series
    th = np.array([0.55, 0.6, 0.58])
    th /= np.linalg.norm(th)
    thetas, feet = rays_through(th[None], np.array([[0.4, -0.3, 0.2]]))
    got, _ = _damped_line_integral(fld, thetas, feet, np.array([nu * np.hypot(th[0], th[1])]),
                                   8, "D")
    out.append(CheckResult("identities/dbeam-numeric-series",
                           "regularized half-line integral against the Bessel series",
                           _rel(got[0], dbeam_lundquist_batch(thetas, feet, F0, nu)[0]), 1e-2))

    # analytic Hilbert identity on helical plane data
    s4 = SphericalFunction.random(4, rng)
    worst = 0.0
    for _ in range(5):
        kap = rng.standard_normal(3)
        kap /= np.linalg.norm(kap)
        p0 = float(rng.uniform(-1, 1))
        a, b = radon_moses_pair(1.2, 1, s4, np.array([p0]), kap[None])
        # d/dp multiplies e^{+-i nu p} by +-i nu, H by -+i
        lhs = np.sqrt(2.0 * np.pi) / 1.2**2 * ((-1j) * (1j * 1.2) * a[0] +
                                               1j * (-1j * 1.2) * b[0])
        rhs = 1.2 * radon_moses(1.2, 1, s4, Plane(p=p0, kappa=kap))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    out.append(CheckResult("identities/hilbert-derivative",
                           "Hilbert transform of the plane-transform derivative",
                           worst, 1e-14))

    # great-circle and half-line kernel identities on band-limited data (Lmax 6)
    s6 = SphericalFunction.random(6, rng)
    x = np.array([0.3, -0.2, 0.4])
    th = np.array([0.4, 0.5, 0.77])
    th /= np.linalg.norm(th)
    out.append(CheckResult("identities/smith-great-circle",
                           "whole-line transform as a great-circle integral of plane data",
                           smith_identity_check(1.0, 1, s6, th, x), 1e-7))
    out.append(CheckResult("identities/tuy-half-line-kernel",
                           "half-line transform from the analytic kernel bracket",
                           tuy_identity_check(1.0, 1, s6, th, x), 1e-7))

    # great-circle multipliers against direct quadrature, l <= 12
    worst = 0.0
    thm = np.array([0.3, -0.2, 0.93])
    thm /= np.linalg.norm(thm)
    for l in range(13):
        f = SphericalFunction.single_mode(l, l, 0)
        got = funk_minkowski(f, thm, circle_n=256)
        want = 2.0 * np.pi * legendre_p_zero(l) * complex(f(thm))
        worst = max(worst, abs(got - want))
    out.append(CheckResult("identities/great-circle-multipliers",
                           "per-degree multipliers against direct circle quadrature",
                           worst, 1e-10))

    # spectral inverse round trip on even band-limited data
    f = SphericalFunction.random(6, rng, even_only=True)
    g = f.scale_degrees(funk_multipliers(6))
    out.append(CheckResult("identities/great-circle-inverse",
                           "spectral inverse of the great-circle transform",
                           float(np.max(np.abs(semyanistyi_inverse(g).coeffs - f.coeffs))),
                           1e-10))

    # finite-part and principal-value model moments
    res = max(abs(finite_part_moment(lambda u: 1.0) - (-2.0)),
              abs(finite_part_moment(lambda u: u)),
              abs(finite_part_moment(lambda u: u * u) - 2.0),
              abs(pv_moment(lambda u: u) - 2.0))
    out.append(CheckResult("identities/finite-part-moments",
                           "inverse-square and principal-value model integrals",
                           float(res), 1e-10))

    # Riesz and Biot-Savart scalings
    nu_r, lam_r = 1.25, 1
    s5 = SphericalFunction.random(5, rng)
    kap = np.array([0.3, 0.7, 0.65])
    kap /= np.linalg.norm(kap)
    pl = Plane(p=0.3, kappa=kap)
    res = max(abs(riesz_factor(nu_r, 0.0) - 1.0),
              abs(riesz_factor(nu_r, 2.0) - 1.0 / nu_r**2),
              float(np.linalg.norm(rbs_moses(nu_r, lam_r, s5, pl) -
                                   radon_moses(nu_r, lam_r, s5, pl) / nu_r)),
              rbs_dp_residual(nu_r, lam_r, s5, pl))
    out.append(CheckResult("identities/riesz-biot-savart",
                           "Riesz scaling and plane-transform Biot-Savart algebra",
                           float(res), 1e-12))

    # plane-wave signed transform: numeric vs closed form
    k0 = 1.2
    kap0 = np.array([0.3, -0.5, 0.8])
    kap0 /= np.linalg.norm(kap0)
    pw = PlaneWave(k0=k0, kappa0=kap0, lam=1)
    fpw = lambda p: eval_field(pw, p)
    ths, xs = [], []
    while len(ths) < 6:
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if abs(th @ kap0) < 0.3:
            continue
        ths.append(th)
        xs.append(rng.standard_normal(3) * 0.5)
    ths = np.array(ths)
    thetas, feet = rays_through(ths, np.array(xs))
    got, _ = _damped_line_integral(fpw, thetas, feet, k0 * np.abs(ths @ kap0), 8, "Y")
    out.append(CheckResult("identities/ytransform-plane-wave",
                           "regularized signed integral against the closed form",
                           max(map(_rel, got, planewave_closed_batch(thetas, feet, k0, kap0))),
                           1e-2))
    return out


# --------------------------------------------------------------------------
# inversions suite
# --------------------------------------------------------------------------

@_suite("inversions", "spherical-mean cross-product-mean cross-product-sign half-line-mean "
                      "pairwise-consistency output-curl spherical-mean-band-limited "
                      "plane-derivative-recovery plane-recovery-inverse-square "
                      "half-line-mean-band-limited plane-recovery-signed")
def suite_inversions(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    nu, F0, lam = 1.0, 1.3 + 0.4j, 1
    spec = Lundquist(F0=F0, nu=nu, lam=lam)
    xb = lundquist_xray_beam(F0, nu, lam)
    db = lundquist_dbeam_beam(F0, nu)
    grid = PolarSphereGrid(64, 128)
    xs = rng.standard_normal((10, 3)) * 1.5
    F = eval_field(spec, xs)
    sm = invert_spherical_mean(xb, xs, nu, grid)
    gr_p = invert_grangeat(db, xs, lam * nu, grid, +1)
    gr_m = invert_grangeat(db, xs, lam * nu, grid, -1)
    gg = gg_spherical_mean(db, xs, nu, grid)
    worst_sm = max(map(_rel, sm, F))
    worst_gr = max(map(_rel, gr_p, F))
    worst_gg = max(map(_rel, gg, F))
    worst_sign = max(float(np.linalg.norm(d)) for d in gr_p - gr_m)
    worst_pair = max(*map(_rel, sm, gr_p), *map(_rel, sm, gg))
    out.append(CheckResult("inversions/spherical-mean",
                           "whole-line spherical mean recovers the field",
                           worst_sm, 1e-6))
    out.append(CheckResult("inversions/cross-product-mean",
                           "half-line cross-product mean recovers the field",
                           worst_gr, 1e-6))
    out.append(CheckResult("inversions/cross-product-sign",
                           "the two orientation choices agree",
                           worst_sign, 1e-8))
    out.append(CheckResult("inversions/half-line-mean",
                           "half-line spherical mean recovers the field",
                           worst_gg, 1e-6))
    out.append(CheckResult("inversions/pairwise-consistency",
                           "the three reconstruction routes agree pairwise",
                           worst_pair, 1e-6))

    # intertwining of the inversion output
    x0 = np.array([0.5, 0.2, -0.4])
    inv_fn = lambda pts: invert_spherical_mean(xb, pts, nu, grid)
    out0 = invert_spherical_mean(xb, x0, nu, grid)
    out.append(CheckResult("inversions/output-curl",
                           "FD curl of the reconstruction equals nu times it",
                           _rel(curl_fd(inv_fn, x0), lam * nu * out0), 1e-5))

    # transform-space beams: spherical mean against direct synthesis
    s = SphericalFunction.random(4, rng, min_abs_m=2)
    xbm = moses_xray_beam(nu, lam, s, circle_n=512)
    x = np.array([0.3, -0.2, 0.4])
    sm = invert_spherical_mean(xbm, x, nu, PolarSphereGrid(48, 96))
    want = synthesize_moses(nu, lam, s, x, make_polar_sphere_quadrature(48))
    out.append(CheckResult("inversions/spherical-mean-band-limited",
                           "spherical mean of great-circle beams against synthesis",
                           _rel(sm, want), 1e-6))

    # plane-transform recoveries on band-limited half-line data
    s3 = SphericalFunction.random(5, rng, min_abs_m=3)
    kap = np.array([0.3, 0.7, 0.65])
    kap /= np.linalg.norm(kap)
    pl = Plane(p=float(kap @ x), kappa=kap)
    dbm_hi = moses_dbeam_beam(nu, lam, s3, circle_n=192, pv=PVRule(48, 96))
    got = grangeat_intermediate(dbm_hi, kap, x, circle_n=128, h=1e-3)
    a, b = radon_moses_pair(nu, lam, s3, np.array([pl.p]), kap[None])
    dp = np.sqrt(2.0 * np.pi) / nu**2 * (1j * nu * (a[0] - b[0]))
    out.append(CheckResult("inversions/plane-derivative-recovery",
                           "great-circle derivative rule against the analytic derivative",
                           _rel(got, dp), 1e-5))

    dbm = moses_dbeam_beam(nu, lam, s3, circle_n=128, pv=PVRule(32, 64))
    got = gg_radon_recovery(dbm, kap, x, nu, PVRule(40, 80))
    want = radon_moses(nu, lam, s3, pl)
    out.append(CheckResult("inversions/plane-recovery-inverse-square",
                           "inverse-square kernel recovers the plane transform",
                           _rel(got, want), 1e-5))

    # the half-line spherical mean of the same transform-space beam
    got_f = gg_spherical_mean(moses_dbeam_beam(nu, lam, s3, circle_n=128,
                                               pv=PVRule(32, 64)),
                              x, nu, PolarSphereGrid(32, 64))
    want_f = synthesize_moses(nu, lam, s3, x, make_polar_sphere_quadrature(48))
    out.append(CheckResult("inversions/half-line-mean-band-limited",
                           "half-line mean of transform-space beams against synthesis",
                           _rel(got_f, want_f), 1e-5))

    # signed-beam plane recovery
    yb = moses_ybeam_beam(nu, lam, s3, pv=PVRule(48, 96))
    got = y_radon_recovery(yb, kap, x, lam * nu, circle_n=128, h=1e-3)
    out.append(CheckResult("inversions/plane-recovery-signed",
                           "signed-beam derivative rule recovers the plane transform",
                           _rel(got, want), 1e-5))
    return out


# --------------------------------------------------------------------------
# twistor suite
# --------------------------------------------------------------------------

@_suite("twistor", "null-vector incidence-covariance cylindrical-kernel laurent-cylindrical "
                   "point-source axisymmetric-linear spheromak-potential debye-fixed-axis "
                   "debye-radial-axis generator-eigen spectral-doubling")
def suite_twistor(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    nu = 1.1

    # null vector identity (residual relative to the |w|^4 roundoff scale)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    res = np.abs((tw.null_vector(w) ** 2).sum(axis=-1))
    scale = np.maximum(1.0, np.abs(w) ** 4)
    out.append(CheckResult("twistor/null-vector",
                           "the C^3 prefactor squares to zero",
                           float(np.max(res / scale)), 1e-14))

    # incidence covariance under rotations about the z axis
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(3)
        om = rng.standard_normal() + 1j * rng.standard_normal()
        psi = rng.uniform(0, 2 * np.pi)
        c, s_ = np.cos(psi), np.sin(psi)
        Rx = np.array([c * x[0] - s_ * x[1], s_ * x[0] + c * x[1], x[2]])
        lhs = np.exp(1j * psi) * tw.incidence_eta(x, om)
        rhs = tw.incidence_eta(Rx, np.exp(1j * psi) * om)
        worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("twistor/incidence-covariance",
                           "rotation about z rotates the spectral parameter",
                           worst, 1e-12))

    # exponential kernel reproduces the cylindrical J0/J1 field, amplitude 4 pi i
    lund = Lundquist(F0=4j * np.pi, nu=nu, lam=1)
    xs = np.concatenate([_points_in_ball(rng, 1, 5.0 / nu) for _ in range(8)])
    got = tw.trkalian_from_twistor(
        tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu),
        xs, tw.ContourSpec(N=64))
    worst = float(np.max(np.abs(got - eval_field(lund, xs))))
    out.append(CheckResult("twistor/cylindrical-kernel",
                           "exponential kernel against the closed cylindrical field",
                           worst, 1e-10))

    # Laurent data reproduce the cylindrical eigenfield family
    worst = 0.0
    for n in (0, 1, 2, 4):
        for _ in range(3):
            x = _points_in_ball(rng, 1, 5.0 / nu)[0]
            got = tw.trkalian_laurent_ck(n, nu, x)
            worst = max(worst, float(np.max(np.abs(got - tw.ck_cylindrical_closed(n - 1, nu, x)))))
    out.append(CheckResult("twistor/laurent-cylindrical",
                           "Laurent series data against the closed cylindrical family",
                           worst, 1e-10))

    # point-source reduction on the upper branch
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(3)
        x[2] = abs(x[2]) + 0.5
        sigma = rng.uniform(0.3, 1.5)
        got = tw.fundamental_solution_check(x, sigma)
        worst = max(worst, abs(got - tw.helmholtz_point_source_closed(x, sigma)))
    out.append(CheckResult("twistor/point-source",
                           "enclosed-residue value of the n = -1 axisymmetric datum",
                           worst, 1e-8))

    # axisymmetric n = 1 potential
    sigma = 1.2
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(3)
        r = np.hypot(x[0], x[1])
        got = tw.scalar_helmholtz_from_twistor(tw.AxisymmetricPower(1), x, sigma, "F2")
        want = 4j * np.pi * x[2] * j0(sigma * r)
        worst = max(worst, abs(got - want))
    out.append(CheckResult("twistor/axisymmetric-linear",
                           "first axisymmetric potential against its closed form",
                           worst, 1e-8))

    # spheromak potential quadrature
    worst = 0.0
    for _ in range(8):
        R = rng.uniform(0.05, 8.0)
        t = rng.uniform(0.0, np.pi)
        got = tw.spheromak_debye_integral(1.0, 1.0, R, t)
        worst = max(worst, abs(got - tw.spheromak_debye_closed(1.0, 1.0, R, t)))
    out.append(CheckResult("twistor/spheromak-potential",
                           "polar-angle quadrature of the spheromak potential",
                           worst, 1e-8))

    # Debye construction: fixed axis and radial axis
    phi_gen = lambda pts: 4j * np.pi * np.atleast_2d(pts)[:, 2] * \
        j0(sigma * np.hypot(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]))
    x = np.array([0.4, 0.2, -0.3])
    got = tw.ck_from_debye(phi_gen, "fixed_z", sigma, x)
    want = eval_field(GeneralizedLundquist(sigma=sigma), x)
    out.append(CheckResult("twistor/debye-fixed-axis",
                           "nested FD curls of the axial potential",
                           float(np.max(np.abs(got - want))), 1e-5))

    sd = tw.SpheromakDebye(F0=1.0, k=1.0)
    x = np.array([0.5, -0.3, 0.7])
    got = tw.ck_from_debye(sd.potential, "radial", 1.0, x)
    want = eval_field(Spheromak(F0=1.0, k=1.0), x)
    out.append(CheckResult("twistor/debye-radial-axis",
                           "nested FD curls of the radial potential",
                           float(np.max(np.abs(got - want))), 1e-4))

    # every generator output passes the eigen check, including random Laurent data
    specs = [
        tw.IntegrandSpec(u=tw.EtaPowerOverOmega(n=2), phase="F1", k=nu),
        tw.IntegrandSpec(u=tw.EtaPowerOverOmega(n=1, omega0=0.3 - 0.2j), phase="F1", k=nu),
        tw.IntegrandSpec(u=tw.HolomorphicOfEta(coefficients=(0.3 - 0.1j, 1.2, -0.4j),
                                               denominator_power=2), phase="F1", k=nu),
        tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu),
        tw.IntegrandSpec(u=tw.RawLaurent(table=((-2, 0.7 + 0.2j), (-1, -0.4), (1, 0.25j))),
                         phase="F2", k=nu),
        tw.IntegrandSpec(u=tw.LaurentInOmegaPrime(n=2), phase="F2", k=nu),
    ]
    worst = 0.0
    for spec in specs:
        x = _points_in_ball(rng, 1, 2.0)[0]
        fld = lambda pts, sp=spec: tw.trkalian_from_twistor(sp, pts)
        F = tw.trkalian_from_twistor(spec, x)
        worst = max(worst, _rel(curl_fd(fld, x), nu * F))
    out.append(CheckResult("twistor/generator-eigen",
                           "FD curl eigen-residual over the integrand catalog",
                           worst, 1e-6))

    # spectral convergence under node doubling
    x = np.array([0.7, -0.2, 0.4])
    spec = tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu)
    g = lambda w: (tw.null_vector(w)[:, 0] *
                   tw._phase_values("F1", nu, x, w) * spec.u(x, w))
    ref, coarse, fine = (tw._trapezoid(w, g(w)) for w in map(tw._unit_roots, (512, 24, 48)))
    coarse, fine = abs(coarse - ref), abs(fine - ref)
    ratio_ok = 0.0 if (coarse <= 1e-13 or fine <= 1e-4 * coarse) else fine / coarse
    out.append(CheckResult("twistor/spectral-doubling",
                           "node doubling gains at least four orders once resolved",
                           float(ratio_ok), 1e-4))
    return out


def run_suite(name: str, seed: int = 1234) -> CheckReport:
    """Run one named suite (or 'all') and collect a report."""
    checks = tuple(c for key in _keys(name) for c in SUITES[key](seed))
    return CheckReport(suite=name, seed=seed, checks=checks)

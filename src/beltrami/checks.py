"""Runnable verification suites over the whole toolkit.

A suite is a table of declared rows, one (name, tolerance, detail) per check, and a
function of the seed that returns one residual per row, in row order; `_suite` pairs
the two into the suite's CheckResults.  All randomness is drawn from seeded
generators and every summation has a fixed order, so a suite report is reproducible
bit-for-bit for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (PolarSphereGrid, make_polar_sphere_quadrature, normalize, rays_through,
                       special)
from .harmonics import SphericalFunction, legendre_p_zero
from .fields import (CKCylindrical, GeneralizedLundquist, Lundquist, MosesBandLimited,
                     PlaneWave, Spheromak, curl_fd, div_fd, eigenvalue, eval_field,
                     radon_moses_many, synthesize_moses)
from .sphere import PVRule, funk_minkowski, funk_multipliers, semyanistyi_inverse
from .rays import (dbeam_lundquist_batch, extension_residuals, planewave_closed_batch,
                   xray_lundquist_batch, ytransform_lundquist_batch)
from .inversion import (gg_radon_recovery, gg_spherical_mean, grangeat_intermediate,
                        invert_grangeat, invert_spherical_mean, lundquist_dbeam_beam,
                        lundquist_xray_beam, moses_dbeam_beam, moses_xray_beam,
                        moses_ybeam_beam, riesz_factor, smith_identity_check,
                        tuy_identity_check, y_radon_recovery)
from . import twistor as tw

j0, sici = special("j0"), special("sici")


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


def _draws(rng, n, keep, spread=1.0):
    """n unit directions th with keep(th), each followed by its point
    rng.standard_normal(3) * spread; a rejected direction draws no point."""
    ths, xs = [], []
    while len(ths) < n:
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if keep(th):
            ths.append(th)
            xs.append(rng.standard_normal(3) * spread)
    return np.array(ths), np.array(xs)


# The eigen suite's catalog: tag -> the field made from the suite's spherical data s
_CATALOG = {
    "lundquist+": lambda s: Lundquist(F0=1.2 - 0.4j, nu=1.1, lam=1),
    "lundquist-": lambda s: Lundquist(F0=0.9, nu=0.8, lam=-1),
    "plane_wave+": lambda s: PlaneWave(k0=1.3, kappa0=np.array([0.3, -0.5, 0.8]), lam=1),
    "plane_wave-": lambda s: PlaneWave(k0=0.7, kappa0=np.array([0.1, 0.9, 0.4]), lam=-1),
    "ck_m0": lambda s: CKCylindrical(m=0, nu=1.0),
    "ck_m1": lambda s: CKCylindrical(m=1, nu=1.2),
    "ck_m3": lambda s: CKCylindrical(m=3, nu=0.9),
    "generalized_lundquist": lambda s: GeneralizedLundquist(sigma=1.15),
    "spheromak": lambda s: Spheromak(F0=0.8 - 0.1j, k=1.0),
    "moses_band_limited": lambda s: MosesBandLimited(nu=1.05, lam=1, s=s),
}


SUITES: dict = {}   # suite name -> suite(seed) -> list[CheckResult]
ROWS: dict = {}     # suite name -> its (name, tolerance, detail) rows, in report order


def _suite(key: str, *rows):
    """Register fn(seed) -> residuals as suite key: residual i is checked against
    rows[i] = (name, tolerance, detail) as key/name.  A suite that returns more or
    fewer residuals than it has rows raises ValueError."""
    def register(fn):
        def suite(seed: int) -> list[CheckResult]:
            return [CheckResult(f"{key}/{name}", detail, residual, tol)
                    for (name, tol, detail), residual in zip(rows, fn(seed), strict=True)]
        SUITES[key], ROWS[key] = suite, rows
        return suite
    return register


def _keys(name: str) -> list[str]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return list(SUITES) if name == "all" else [name]


def check_names(name: str) -> tuple[str, ...]:
    """The check names run_suite(name) reports, known without running it."""
    return tuple(f"{key}/{row[0]}" for key in _keys(name) for row in ROWS[key])


# --------------------------------------------------------------------------
# eigen suite
# --------------------------------------------------------------------------

@_suite("eigen", *((f"{kind}/{tag}", tol, detail) for tag in _CATALOG for kind, tol, detail in (
    ("curl", 1e-5, "relative FD-curl residual against the eigenvalue"),
    ("div", 1e-6, "FD divergence relative to the scaled field"))))
def suite_eigen(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    s = SphericalFunction.random(4, rng)
    out = []
    for tag, make in _CATALOG.items():
        spec = make(s)
        nu_s = eigenvalue(spec)
        pts = _points_in_ball(rng, 100, 5.0 / abs(nu_s))
        pts = pts[:20] if tag == "moses_band_limited" else pts  # the costly synthesized field
        fld = lambda p, sp=spec: eval_field(sp, p)
        nuF = nu_s * fld(pts)
        scale = np.linalg.norm(nuF, axis=-1)
        out += [np.max(np.linalg.norm(curl_fd(fld, pts) - nuF, axis=-1) / scale),
                np.max(np.abs(div_fd(fld, pts)) / scale)]
    return out


# --------------------------------------------------------------------------
# john suite
# --------------------------------------------------------------------------

@_suite("john",
        ("mixed-partials", 1e-7, "symmetry of mixed x/direction derivatives of the extension"),
        ("curl-form", 1e-7, "d/dx_m of the direction-curl equals nu d/dalpha_m"),
        ("x-curl", 1e-5, "FD curl in x of the closed-form line transform"),
        ("x-div", 1e-5, "FD divergence in x of the line transform"),
        ("theta-div", 1e-10, "direction divergence of the extension"))
def suite_john(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    nu, F0, lam = 1.0, 1.0, 1
    xray_fn = lambda thetas, x: xray_lundquist_batch(thetas, x, F0, nu, lam)
    worst = np.zeros(5)   # the rows' residuals, in row order
    for _ in range(5):
        th = rng.standard_normal(3)
        th /= np.linalg.norm(th)
        if np.hypot(th[0], th[1]) < 0.4:
            th[2] *= 0.2
            th /= np.linalg.norm(th)
        x = rng.standard_normal(3)
        # the x stencil in one call, each row from its own source
        fld = lambda pts, t=th: xray_fn(np.broadcast_to(t, pts.shape), pts)
        V = xray_fn(th[None], x)[0]
        john, curl_form, theta_div = extension_residuals(xray_fn, lam * nu, th, x)
        worst = np.maximum(worst, [john, curl_form, _rel(curl_fd(fld, x), lam * nu * V),
                                   abs(div_fd(fld, x)) / np.linalg.norm(lam * nu * V),
                                   theta_div])
    return list(worst)


# --------------------------------------------------------------------------
# identities suite
# --------------------------------------------------------------------------

@_suite("identities",
        ("xray-numeric-lundquist", 1e-3, "regularized line integral against the closed form"),
        ("decompose-whole-line", 1e-10, "opposite half-line beams sum to the whole-line value"),
        ("decompose-signed", 1e-10, "opposite half-line beams difference to the signed value"),
        ("dbeam-numeric-series", 1e-2,
         "regularized half-line integral against the Bessel series"),
        ("hilbert-derivative", 1e-14, "Hilbert transform of the plane-transform derivative"),
        ("smith-great-circle", 1e-7,
         "whole-line transform as a great-circle integral of plane data"),
        ("tuy-half-line-kernel", 1e-7, "half-line transform from the analytic kernel bracket"),
        ("great-circle-multipliers", 1e-10,
         "per-degree multipliers against direct circle quadrature"),
        ("great-circle-inverse", 1e-10, "spectral inverse of the great-circle transform"),
        ("finite-part-moments", 1e-11,
         "finite-part and principal-value sphere rules on plane waves"),
        ("riesz-biot-savart", 1e-12, "Riesz scaling and plane-transform Biot-Savart algebra"),
        ("ytransform-plane-wave", 1e-2, "regularized signed integral against the closed form"))
def suite_identities(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    nu, F0 = 1.0, 1.0
    lund = Lundquist(F0=F0, nu=nu, lam=1)

    # numeric whole-line transform vs the closed form, 20 rays with v_r >= 0.3
    thetas, feet = rays_through(*_draws(rng, 20, lambda th: np.hypot(th[0], th[1]) >= 0.3))
    got = lund.damped_beam("X", 8).fn(thetas, feet)
    out = [max(map(_rel, got, xray_lundquist_batch(thetas, feet, F0, nu)))]

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
    D2 = dbeam_lundquist_batch(-thetas, feet, F0, nu, 1)
    Y = ytransform_lundquist_batch(thetas, feet, F0, nu, 1)
    out += [max(float(np.linalg.norm(d)) for d in D1 + D2 - X),
            max(float(np.linalg.norm(d)) for d in D1 - D2 - Y)]

    # numeric half-line vs the series
    th = np.array([0.55, 0.6, 0.58])
    th /= np.linalg.norm(th)
    thetas, feet = rays_through(th[None], np.array([[0.4, -0.3, 0.2]]))
    got = lund.damped_beam("D", 8).fn(thetas, feet)
    out.append(_rel(got[0], dbeam_lundquist_batch(thetas, feet, F0, nu)[0]))

    # analytic Hilbert identity on helical plane data, at 5 planes (p, kappa): the
    # multipliers of H (-i, i) times those of d/dp (i nu, -i nu) against nu F_R
    s4 = SphericalFunction.random(4, rng)
    kaps, ps = zip(*[(normalize(rng.standard_normal(3)), rng.uniform(-1, 1)) for _ in range(5)])
    lhs = radon_moses_many(1.2, 1, s4, ps, kaps, -1j * (1j * 1.2), 1j * (-1j * 1.2))
    rhs = 1.2 * radon_moses_many(1.2, 1, s4, ps, kaps)
    out.append(max(float(np.linalg.norm(d)) for d in lhs - rhs))

    # great-circle and half-line kernel identities on band-limited data (Lmax 6)
    s6 = SphericalFunction.random(6, rng)
    x = np.array([0.3, -0.2, 0.4])
    th = np.array([0.4, 0.5, 0.77])
    th /= np.linalg.norm(th)
    out += [smith_identity_check(1.0, 1, s6, th, x), tuy_identity_check(1.0, 1, s6, th, x)]

    # great-circle multipliers against direct quadrature, l <= 12, each on the l + 1
    # circle nodes that integrate degree l exactly
    worst = 0.0
    thm = np.array([0.3, -0.2, 0.93])
    thm /= np.linalg.norm(thm)
    for l in range(13):
        f = SphericalFunction.single_mode(l, l, 0)
        got = funk_minkowski(f, thm, circle_n=l + 1)
        want = 2.0 * np.pi * legendre_p_zero(l) * complex(f(thm))
        worst = max(worst, abs(got - want))
    out.append(worst)

    # spectral inverse round trip on even band-limited data
    f = SphericalFunction.random(6, rng, even_only=True)
    g = f.scale_degrees(funk_multipliers(6))
    out.append(np.max(np.abs(semyanistyi_inverse(g).coeffs - f.coeffs)))

    # the inversions' finite-part and PV sphere rules on f(k) = e^{i a k.b}: FP Int f/(k.b)^2
    # = 2 pi (-2 cos a - 2 a Si(a)) and PV Int f/(k.b) = 2 pi 2i Si(a).  No input depends
    # on the seed; the tolerance is about 100 times the worst relative residual, 1.04e-13
    # at a = 0.5
    rule, b = PVRule(48, 96), normalize(np.array([0.3, 0.7, 0.65]))
    res = 0.0
    for a in (0.5, 1.0, 4.0, 10.0):
        f = lambda k, a=a: np.exp(1j * a * (k @ b))
        si = sici(a)[0]
        res = max(res, _rel(rule.fp_sphere(f, b), 2.0 * np.pi * (-2.0 * np.cos(a) - 2.0 * a * si)),
                  _rel(rule.pv_sphere(f, b), 2.0 * np.pi * 2j * si))
    out.append(res)

    # Riesz and Biot-Savart scalings.  On the plane (0.3, kappa) Biot-Savart is
    # i kappa x the pair (1/nu, -1/nu), which is F_R/nu_s, and its d/dp, with the
    # pair times (i nu, -i nu), is -kappa x F_R
    nu_r, lam_r = 1.25, 1
    s5 = SphericalFunction.random(5, rng)
    kap = normalize(np.array([0.3, 0.7, 0.65]))
    plane = lambda *pair: radon_moses_many(nu_r, lam_r, s5, [0.3], [kap], *pair)[0]
    fr = plane()
    bs = 1j * np.cross(kap, plane(1.0 / nu_r, -1.0 / nu_r))
    dp_bs = 1j * np.cross(kap, plane(1j * nu_r * (1.0 / nu_r), -1j * nu_r * (-1.0 / nu_r)))
    out.append(max(abs(riesz_factor(nu_r, 0.0) - 1.0),
                   abs(riesz_factor(nu_r, 2.0) - 1.0 / nu_r**2),
                   float(np.linalg.norm(bs - fr / nu_r)),
                   _rel(dp_bs, -np.cross(kap, fr))))

    # plane-wave signed transform: numeric vs closed form
    k0 = 1.2
    kap0 = np.array([0.3, -0.5, 0.8])
    kap0 /= np.linalg.norm(kap0)
    pw = PlaneWave(k0=k0, kappa0=kap0, lam=1)
    thetas, feet = rays_through(*_draws(rng, 6, lambda th: abs(th @ kap0) >= 0.3, 0.5))
    got = pw.damped_beam("Y", 8).fn(thetas, feet)
    out.append(max(map(_rel, got, planewave_closed_batch(thetas, feet, k0, kap0))))
    return out


# --------------------------------------------------------------------------
# inversions suite
# --------------------------------------------------------------------------

@_suite("inversions",
        ("spherical-mean", 1e-6, "whole-line spherical mean recovers the field"),
        ("cross-product-mean", 1e-6, "half-line cross-product mean recovers the field"),
        ("cross-product-sign", 1e-8, "the two orientation choices agree"),
        ("half-line-mean", 1e-6, "half-line spherical mean recovers the field"),
        ("pairwise-consistency", 1e-6, "the three reconstruction routes agree pairwise"),
        ("output-curl", 1e-5, "FD curl of the reconstruction equals nu times it"),
        ("spherical-mean-band-limited", 1e-6,
         "spherical mean of great-circle beams against synthesis"),
        ("plane-derivative-recovery", 1e-5,
         "great-circle derivative rule against the analytic derivative"),
        ("plane-recovery-inverse-square", 1e-5,
         "inverse-square kernel recovers the plane transform"),
        ("half-line-mean-band-limited", 1e-5,
         "half-line mean of transform-space beams against synthesis"),
        ("plane-recovery-signed", 1e-5,
         "signed-beam derivative rule recovers the plane transform"))
def suite_inversions(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
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
    out = [max(map(_rel, sm, F)), max(map(_rel, gr_p, F)),
           max(float(np.linalg.norm(d)) for d in gr_p - gr_m), max(map(_rel, gg, F)),
           max(*map(_rel, sm, gr_p), *map(_rel, sm, gg))]

    # intertwining of the inversion output
    x0 = np.array([0.5, 0.2, -0.4])
    inv_fn = lambda pts: invert_spherical_mean(xb, pts, nu, grid)
    out0 = invert_spherical_mean(xb, x0, nu, grid)
    out.append(_rel(curl_fd(inv_fn, x0), lam * nu * out0))

    # transform-space beams: spherical mean against direct synthesis
    s = SphericalFunction.random(4, rng, min_abs_m=2)
    xbm = moses_xray_beam(nu, lam, s, circle_n=512)
    x = np.array([0.3, -0.2, 0.4])
    sm = invert_spherical_mean(xbm, x, nu, PolarSphereGrid(48, 96))
    want = synthesize_moses(nu, lam, s, x, make_polar_sphere_quadrature(48))
    out.append(_rel(sm, want))

    # plane-transform recoveries on band-limited half-line data
    s3 = SphericalFunction.random(5, rng, min_abs_m=3)
    kap = np.array([0.3, 0.7, 0.65])
    kap /= np.linalg.norm(kap)
    plane = lambda *pair: radon_moses_many(nu, lam, s3, [kap @ x], [kap], *pair)[0]
    dbm_hi = moses_dbeam_beam(nu, lam, s3, circle_n=192, pv=PVRule(48, 96))
    got = grangeat_intermediate(dbm_hi, kap, x, circle_n=128, h=1e-3)
    out.append(_rel(got, plane(1j * nu, -1j * nu)))          # d/dp F_R

    dbm = moses_dbeam_beam(nu, lam, s3, circle_n=128, pv=PVRule(32, 64))
    got = gg_radon_recovery(dbm, kap, x, nu, PVRule(40, 80))
    want = plane()
    out.append(_rel(got, want))

    # the half-line spherical mean of the same transform-space beam
    got_f = gg_spherical_mean(moses_dbeam_beam(nu, lam, s3, circle_n=128, pv=PVRule(32, 64)),
                              x, nu, PolarSphereGrid(32, 64))
    want_f = synthesize_moses(nu, lam, s3, x, make_polar_sphere_quadrature(48))
    out.append(_rel(got_f, want_f))

    # signed-beam plane recovery
    yb = moses_ybeam_beam(nu, lam, s3, pv=PVRule(48, 96))
    got = y_radon_recovery(yb, kap, x, lam * nu, circle_n=128, h=1e-3)
    out.append(_rel(got, want))
    return out


# --------------------------------------------------------------------------
# twistor suite
# --------------------------------------------------------------------------

@_suite("twistor",
        ("null-vector", 1e-14, "the C^3 prefactor squares to zero"),
        ("incidence-covariance", 1e-12, "rotation about z rotates the spectral parameter"),
        ("cylindrical-kernel", 1e-10, "exponential kernel against the closed cylindrical field"),
        ("laurent-cylindrical", 1e-10,
         "Laurent series data against the closed cylindrical family"),
        ("point-source", 1e-8, "enclosed-residue value of the n = -1 axisymmetric datum"),
        ("axisymmetric-linear", 1e-8, "first axisymmetric potential against its closed form"),
        ("spheromak-potential", 1e-8, "polar-angle quadrature of the spheromak potential"),
        ("debye-fixed-axis", 1e-5, "nested FD curls of the axial potential"),
        ("debye-radial-axis", 1e-4, "nested FD curls of the radial potential"),
        ("generator-eigen", 1e-6, "FD curl eigen-residual over the integrand catalog"),
        ("spectral-doubling", 1e-4, "node doubling gains at least four orders once resolved"))
def suite_twistor(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    nu = 1.1

    # null vector identity (residual relative to the |w|^4 roundoff scale)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    res = np.abs((tw.null_vector(w) ** 2).sum(axis=-1))
    scale = np.maximum(1.0, np.abs(w) ** 4)
    out = [np.max(res / scale)]

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
    out.append(worst)

    # exponential kernel reproduces the cylindrical J0/J1 field, amplitude 4 pi i
    lund = Lundquist(F0=4j * np.pi, nu=nu, lam=1)
    xs = np.concatenate([_points_in_ball(rng, 1, 5.0 / nu) for _ in range(8)])
    got = tw.trkalian_from_twistor(
        tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu),
        xs, tw.ContourSpec(N=64))
    out.append(np.max(np.abs(got - eval_field(lund, xs))))

    # Laurent data reproduce the cylindrical eigenfield family
    worst = 0.0
    for n in (0, 1, 2, 4):
        for _ in range(3):
            x = _points_in_ball(rng, 1, 5.0 / nu)[0]
            got = tw.trkalian_laurent_ck(n, nu, x)
            worst = max(worst, float(np.max(np.abs(got - tw.ck_cylindrical_closed(n - 1, nu, x)))))
    out.append(worst)

    # point-source reduction on the upper branch, one wavenumber per point
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(3)
        x[2] = abs(x[2]) + 0.5
        sigma = rng.uniform(0.3, 1.5)
        got = tw.fundamental_solution_check(x, sigma)
        worst = max(worst, abs(got - tw.helmholtz_point_source_closed(x, sigma)))
    out.append(worst)

    # axisymmetric n = 1 potential
    sigma = 1.2
    xs = rng.standard_normal((5, 3))
    got = tw.scalar_helmholtz_from_twistor(tw.AxisymmetricPower(1), xs, sigma, "F2")
    want = 4j * np.pi * xs[:, 2] * j0(sigma * np.hypot(xs[:, 0], xs[:, 1]))
    out.append(np.max(np.abs(got - want)))

    # spheromak potential quadrature at 8 points of radius R and polar angle t
    R, t = rng.uniform((0.05, 0.0), (8.0, np.pi), (8, 2)).T
    xs = R[:, None] * np.column_stack([np.sin(t), np.zeros(8), np.cos(t)])
    out.append(np.max(np.abs(tw.spheromak_debye_integral(1.0, 1.0, xs) -
                             tw.spheromak_debye_closed(1.0, 1.0, xs))))

    # Debye construction: fixed axis and radial axis
    phi_gen = lambda pts: 4j * np.pi * np.atleast_2d(pts)[:, 2] * \
        j0(sigma * np.hypot(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]))
    x = np.array([0.4, 0.2, -0.3])
    out.append(np.max(np.abs(tw.ck_from_debye(phi_gen, "fixed_z", sigma, x) -
                             eval_field(GeneralizedLundquist(sigma=sigma), x))))

    x = np.array([0.5, -0.3, 0.7])
    phi = lambda pts: tw.spheromak_debye_closed(1.0, 1.0, pts)
    out.append(np.max(np.abs(tw.ck_from_debye(phi, "radial", 1.0, x) -
                             eval_field(Spheromak(F0=1.0, k=1.0), x))))

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
    out.append(worst)

    # spectral convergence under node doubling
    x = np.array([0.7, -0.2, 0.4])
    spec = tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu)
    g = lambda w: tw.null_vector(w)[:, 0] * tw._phase_values("F1", nu, x, w) * spec.u(x, w)
    ref, coarse, fine = (tw._trapezoid(w, g(w)) for w in map(tw._unit_roots, (512, 24, 48)))
    coarse, fine = abs(coarse - ref), abs(fine - ref)
    out.append(0.0 if (coarse <= 1e-13 or fine <= 1e-4 * coarse) else fine / coarse)
    return out


def run_suite(name: str, seed: int = 1234) -> CheckReport:
    """Run one named suite (or 'all') and collect a report."""
    checks = tuple(c for key in _keys(name) for c in SUITES[key](seed))
    return CheckReport(suite=name, seed=seed, checks=checks)

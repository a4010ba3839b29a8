"""Workload definitions: seeded CLI configs, untimed references and probes.

Each workload is a list of `Command`s (one CLI invocation each, timed by the
worker) plus probes: single-input CLI calls made once, untimed, so that a
raise cannot abort a timed command.  Every command carries an independent
reference for each output row, computed outside the timed region:

* closed forms against regularized numerics (damped line integrals);
* transform-space inversions and helical field values against direct
  `synthesize_moses` on a converged polar rule;
* the twistor generator against the catalog closed forms;
* `funk` against the 2 pi P_l(0) multipliers, `radon` against an independent
  harmonic evaluation (`ylm_matrix`);
* otherwise the same route at refined quadrature.

Tolerances come from the check suite for each output kind (see
tolerances.json); rows outside them are failed.  A failed row is put down to a
documented defect (`known`) only while it shows what that defect was measured
to produce (see `ENVELOPE`); any other miss is unexplained.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from beltrami import twistor as tw
from beltrami.fields import (CKCylindrical, GeneralizedLundquist, Lundquist,
                             Spheromak, eigenvalue, eval_field, moses_q,
                             synthesize_moses)
from beltrami.geometry import Plane, Ray, make_polar_sphere_quadrature
from beltrami.harmonics import SphericalFunction, legendre_p_zero, ylm_matrix
from beltrami.rays import (OscillatoryLineQuadrature, dbeam_numeric, dbeam_via_extfunk,
                           xray_numeric, xray_via_funk, ytransform_numeric,
                           ytransform_planewave_closed, ytransform_via_extfunk)
from beltrami.sphere import PVRule
from gate import Known

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "tolerances.json"), encoding="utf-8") as _fh:
    TOL = json.load(_fh)["tolerances"]

# Known defects (ROADMAP.md "Fix first" and direction 2).  A row that fails
# for one of these causes is still counted as failed; it only keeps the run's
# `correct` flag, which reports failures that nobody has explained yet.
KNOWN = {
    "helical-pole": "helical data s(k) is stored against a frame singular at the poles, "
                    "so sphere rules converge algebraically on generic coefficients",
    "helical-field-rule": "field sample of moses_band_limited uses the Gauss rule in "
                          "cos(polar) sized per chunk: inaccurate and thread-dependent",
    "lundquist-helicity": "divbeam/ytrf of a lambda=-1 Lundquist field use the "
                          "helicity +1 series",
    "cli-traceback": "domain errors (NonConvergence, DegenerateRay) escape main() "
                     "as tracebacks",
    "damped-signed": "the damped signed transform (ytransform_numeric) misses by up to about "
                     "1e-2 on closed fields and up to about 1 on plane waves, which also "
                     "raise NonConvergence near theta.kappa0 = 0",
}

# Largest relative error each defect may explain, per command kind; a row
# beyond it is unexplained.  Each figure is the worst error measured at the
# seed commit (in brackets), rounded up to 1, 2 or 5 x 10^k and doubled.  The
# worst is over seeds 1-30 of this file's inputs, except for helical rays: there
# it is over 4400 rays drawn near the horizontal (|theta_z| 1e-4 to 0.3), where
# the defect is largest, and is not doubled.  `lundquist-helicity` rows must
# instead match the helicity +1 values, and `cli-traceback` probes must raise
# the named error.
ENVELOPE = {
    "invert-spherical-mean": 4e-3,  # helical-pole [1.5e-3]
    "invert-grangeat": 4e-2,        # helical-pole [1.1e-2]
    "invert-gg": 1e-2,              # helical-pole [2.1e-3]
    "xray": 0.2,                    # helical-pole [0.18]
    "divbeam": 0.5,                 # helical-pole [0.36]
    "ytrf": 1.0,                    # helical-pole [0.65]
    "field": 1e-2,                  # helical-field-rule [4.5e-3]
    "numeric-ytrf": 4e-2,           # damped-signed, spheromak/ck/glund [1.3e-2, 4680 rows]
    "planewave-ytrf": 2.0,          # damped-signed, plane-wave probes [0.94, 480 probes]
}

LMAX = 8            # helical spherical data degree
NU_HELICAL = 1.0
HT_POINTS = 1       # points per helicity and mode (helical_tomography)
# The smallest rules that invert pole-free data (|m| >= 3) to within 4e-7 of
# synthesis at lmax 8, nu = 1 (1e-6 tolerance); so what the rows miss on
# generic data is the helical-pole defect, not under-resolution.
HT_QUAD = {"sphere_alpha": 32, "sphere_psi": 64, "pv_u": 20, "pv_psi": 40, "circle_n": 64}
HR_QUAD = {"circle_n": 128, "pv_u": 32, "pv_psi": 64}
WARM_QUAD = {"sphere_alpha": 4, "sphere_psi": 8, "pv_u": 4, "pv_psi": 8, "circle_n": 8}
HR_REF_PV = PVRule(48, 96)
HR_REF_CIRCLE = 1024
HR_COUNTS = {"xray": 60, "divbeam": 16, "ytrf": 16, "radon": 150, "field": 60,
             "funk": 150}
CF_COUNTS = {"lund_rays": 100, "lund_points": 12, "numeric_rays": 12,
             "field_points": 400, "twistor_points": 40}
# Eigenvalues and orders are fixed so that a pass costs the same for every
# seed; the seed draws amplitudes, coefficients, points and rays.
CF_NU = 1.1
CF_CK_M = 2
PROBE_PLANE_WAVE_RAYS = 12
CHECK_SEED = 1234   # the seed CI runs `check all` at


# Per-command time metrics; a workload reports 0 for commands it does not run.
COMMAND_METRICS = ("field_sample_s", "xray_s", "divbeam_s", "ytrf_s", "radon_s", "funk_s",
                   "invert_spherical_mean_s", "invert_grangeat_s", "invert_gg_s",
                   "twistor_eval_s", "check_all_s")


@dataclass
class Command:
    """One timed CLI call and the untimed data that gates its output rows."""

    name: str                  # unique within the workload
    metric: str                # per-command metric this call's time adds to
    argv: list[str]
    output: str
    inputs: np.ndarray = None  # (rows, k) expected leading CSV columns
    reference: Callable = None  # () -> (rows, ncomp) complex reference values
    tol: float = 0.0
    known: Known | None = None  # documented defect that may explain missed rows
    threads_probe: bool = False  # compare bytes under BELTRAMI_THREADS=1 and 2
    threads_known: str | None = None  # documented cause when those bytes differ
    check_suites: tuple = ()   # for `check all`: suites re-run untimed


@dataclass
class Workload:
    commands: list[Command]
    warmup: list[list[str]]    # CLI calls made in every fresh interpreter before timing
    probes: list[Command]      # single-input calls, made once and untimed


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------

def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _ball(rng, n, radius) -> np.ndarray:
    """n points in the ball: random directions, radii at fixed quantiles of the
    uniform-in-volume law (shuffled), so every seed has the same radii."""
    r = radius * ((np.arange(n) + 0.5) / n) ** (1.0 / 3.0)
    return np.array([_unit(rng) * ri for ri in rng.permutation(r)])


def _off_axis_unit(rng, min_vr=0.3) -> np.ndarray:
    """Direction with polar sine >= min_vr, as in the check suite's ray draws."""
    while True:
        v = _unit(rng)
        if np.hypot(v[0], v[1]) >= min_vr:
            return v


def _coeffs(rng, lmax=LMAX) -> list[list[float]]:
    return [[float(a), float(b)] for a, b in rng.standard_normal(((lmax + 1) ** 2, 2))]


def _sf(coeffs, lmax=LMAX) -> SphericalFunction:
    return SphericalFunction(lmax, np.array([complex(a, b) for a, b in coeffs]))


def _fl(v) -> list[float]:
    return [float(c) for c in v]


class _Writer:
    def __init__(self, outdir: str):
        self.outdir = outdir
        os.makedirs(os.path.join(outdir, "cfg"), exist_ok=True)
        os.makedirs(os.path.join(outdir, "out"), exist_ok=True)

    def cfg(self, name: str, obj: dict, ext: str = "csv") -> tuple[str, str]:
        out = os.path.join(self.outdir, "out", f"{name}.{ext}")
        path = os.path.join(self.outdir, "cfg", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(obj, output=out), fh)
        return path, out


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------

def _synth_ref(nu, lam, s, pts):
    n = LMAX + int(np.ceil(nu * np.max(np.linalg.norm(pts, axis=1)))) + 24
    quad = make_polar_sphere_quadrature(n)
    return np.stack([synthesize_moses(nu, lam, s, x, quad) for x in pts])


def _rays_of(items):
    return [Ray.through(np.array(r["theta"]), np.array(r["foot"])) for r in items]


def _ray_inputs(rays):
    return np.array([np.concatenate([r.theta, r.foot]) for r in rays])


def _line_cfg(spec, ray, panels=16):
    v_r = float(np.hypot(ray.theta[0], ray.theta[1]))
    return OscillatoryLineQuadrature(nu_scale=abs(eigenvalue(spec)) * max(v_r, 0.05),
                                     panels_per_period=panels)


def _numeric_ref(spec, rays, fn):
    """Damped line integrals at 16 panels per period.

    The signed transform is taken as the difference of the two half-line
    integrals from the foot (the check suite's decompose-signed identity), so
    the reference has no sign jump inside a panel.
    """
    fld = lambda p: eval_field(spec, p)
    if fn is ytransform_numeric:
        return np.stack([dbeam_numeric(fld, r, _line_cfg(spec, r)).value -
                         dbeam_numeric(fld, Ray(theta=-r.theta, foot=r.foot),
                                       _line_cfg(spec, r)).value for r in rays])
    return np.stack([fn(fld, r, _line_cfg(spec, r)).value for r in rays])


def _radon_ref(nu, lam, coeffs, planes):
    """Plane transform with s evaluated by ylm_matrix, not the synthesis tables."""
    c = np.array([complex(a, b) for a, b in coeffs])
    out = []
    for pl in planes:
        k = pl.kappa
        sp, sm = (ylm_matrix(LMAX, np.stack([k, -k])).T @ c)
        val = (np.exp(1j * nu * pl.p) * moses_q(k, lam) * sp +
               np.exp(-1j * nu * pl.p) * moses_q(-k, lam) * sm)
        out.append(np.sqrt(2.0 * np.pi) / nu**2 * val)
    return np.stack(out)


def _funk_ref(coeffs, dirs):
    """U0 through the per-degree multipliers 2 pi P_l(0), divided by 2 sqrt(pi)."""
    mu = np.array([2.0 * np.pi * legendre_p_zero(l) for l in range(LMAX + 1)])
    g = _sf(coeffs).scale_degrees(mu)
    return (np.asarray(g(dirs)) / (2.0 * np.sqrt(np.pi)))[:, None]


def _lundquist_ref(F0, nu, lam, pts):
    """Lundquist field from the twistor exponential kernel (amplitude 4 pi i).

    lambda = -1 is the z-mirror image: L_-(x) = -P L_+(P x), P = diag(1, 1, -1).
    """
    spec = tw.IntegrandSpec(u=tw.LundquistKernel(nu=nu), phase="F1", k=nu)
    P = np.diag([1.0, 1.0, -1.0])
    scale = F0 / (4j * np.pi)
    if lam == 1:
        return np.stack([scale * tw.trkalian_from_twistor(spec, x) for x in pts])
    return np.stack([-(P @ (scale * tw.trkalian_from_twistor(spec, P @ x))) for x in pts])


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def helical_tomography(rng, w: _Writer):
    cmds = []
    for lam in (1, -1):
        coeffs = _coeffs(rng)
        s = _sf(coeffs)
        fld = {"type": "moses_band_limited", "nu": NU_HELICAL, "lambda": lam,
               "lmax": LMAX, "coeffs": coeffs}
        tag = "p" if lam == 1 else "m"
        for mode in ("spherical-mean", "grangeat", "gg"):
            pts = _ball(rng, HT_POINTS, 1.5)
            name = f"invert-{mode}-{tag}"
            path, out = w.cfg(name, {"field": fld, "points": pts.tolist(),
                                     "quadrature": HT_QUAD})
            cmds.append(Command(
                name, f"invert_{mode.replace('-', '_')}_s", ["invert", mode, path], out,
                inputs=pts, tol=TOL["inversion"],
                known=Known("helical-pole", ENVELOPE[f"invert-{mode}"]),
                reference=lambda lam=lam, s=s, pts=pts: _synth_ref(NU_HELICAL, lam, s, pts)))
    return cmds, []


def helical_rays(rng, w: _Writer):
    cmds = []
    n = HR_COUNTS
    for lam in (1, -1):
        coeffs = _coeffs(rng)
        s = _sf(coeffs)
        fld = {"type": "moses_band_limited", "nu": NU_HELICAL, "lambda": lam,
               "lmax": LMAX, "coeffs": coeffs}
        tag = "p" if lam == 1 else "m"
        for kind, metric in (("xray", "xray_s"), ("divbeam", "divbeam_s"), ("ytrf", "ytrf_s")):
            items = [{"theta": _fl(_unit(rng)), "foot": _fl(x)} for x in _ball(rng, n[kind], 1.5)]
            rays = _rays_of(items)
            path, out = w.cfg(f"{kind}-{tag}", {"field": fld, "rays": items,
                                                "quadrature": HR_QUAD})
            if kind == "xray":
                ref = lambda s=s, lam=lam, rays=rays: np.stack(
                    [xray_via_funk(NU_HELICAL, lam, s, r, HR_REF_CIRCLE) for r in rays])
                tol = TOL["xray"]
            elif kind == "divbeam":
                ref = lambda s=s, lam=lam, rays=rays: np.stack(
                    [dbeam_via_extfunk(NU_HELICAL, lam, s, r, circle_n=HR_REF_CIRCLE,
                                       pv=HR_REF_PV) for r in rays])
                tol = TOL["divbeam_ytrf"]
            else:
                ref = lambda s=s, lam=lam, rays=rays: np.stack(
                    [ytransform_via_extfunk(NU_HELICAL, lam, s, r.theta, r.foot, HR_REF_PV)
                     for r in rays])
                tol = TOL["divbeam_ytrf"]
            cmds.append(Command(f"{kind}-{tag}", metric, [kind, path], out,
                                inputs=_ray_inputs(rays), reference=ref, tol=tol,
                                known=Known("helical-pole", ENVELOPE[kind])))
        planes = [Plane(p=float(rng.uniform(-2.0, 2.0)), kappa=_unit(rng))
                  for _ in range(n["radon"])]
        path, out = w.cfg(f"radon-{tag}", {"field": fld, "planes": [
            {"p": pl.p, "kappa": _fl(pl.kappa)} for pl in planes]})
        cmds.append(Command(f"radon-{tag}", "radon_s", ["radon", path], out,
                            inputs=np.array([np.concatenate([[pl.p], pl.kappa]) for pl in planes]),
                            tol=TOL["plane"],
                            reference=lambda lam=lam, c=coeffs, pl=planes:
                            _radon_ref(NU_HELICAL, lam, c, pl)))
        pts = _ball(rng, n["field"], 1.5)
        path, out = w.cfg(f"field-{tag}", {"field": fld, "points": pts.tolist()})
        cmds.append(Command(f"field-{tag}", "field_sample_s", ["field", "sample", path], out,
                            inputs=pts, tol=TOL["field"],
                            known=Known("helical-field-rule", ENVELOPE["field"]),
                            threads_probe=True, threads_known="helical-field-rule",
                            reference=lambda lam=lam, s=s, pts=pts:
                            _synth_ref(NU_HELICAL, lam, s, pts)))
    coeffs = _coeffs(rng)
    dirs = np.array([_unit(rng) for _ in range(n["funk"])])
    sd = {"lmax": LMAX, "coeffs": coeffs}
    path, out = w.cfg("funk", {"spherical_data": sd, "directions": dirs.tolist(),
                               "quadrature": HR_QUAD})
    cmds.append(Command("funk", "funk_s", ["funk", path], out, inputs=dirs,
                        tol=TOL["field"], reference=lambda c=coeffs, d=dirs: _funk_ref(c, d)))
    return cmds, []


def _twistor_catalog(rng, nu):
    """(json, spec, closed-form reference or None) for each catalog integrand."""
    n = 2
    om0 = complex(*rng.uniform(-0.4, 0.4, 2))
    coefs = [complex(*rng.standard_normal(2)) for _ in range(3)]
    table = [(-2, complex(*rng.standard_normal(2))), (-1, complex(*rng.standard_normal(2))),
             (1, complex(*rng.standard_normal(2)))]
    pair = lambda z: [z.real, z.imag]
    return [
        ("lundquist_kernel", {"u": {"type": "lundquist_kernel", "nu": nu}, "phase": "F1", "k": nu},
         lambda x: eval_field(Lundquist(F0=4j * np.pi, nu=nu, lam=1), x)),
        ("laurent", {"u": {"type": "laurent_in_omega_prime", "n": n}, "phase": "F2", "k": nu},
         lambda x: tw.ck_cylindrical_closed(n - 1, nu, x)),
        ("eta_power", {"u": {"type": "eta_power_over_omega", "n": 2, "m": 1,
                             "omega0": pair(om0)}, "phase": "F1", "k": nu}, None),
        ("holomorphic", {"u": {"type": "holomorphic_of_eta",
                               "coefficients": [pair(c) for c in coefs],
                               "denominator_power": 2}, "phase": "F1", "k": nu}, None),
        ("raw_laurent", {"u": {"type": "raw_laurent",
                               "table": [[k, pair(a)] for k, a in table]},
                         "phase": "F2", "k": nu}, None),
    ]


def _twistor_refined(obj, pts):
    from beltrami.cli import _twistor_spec
    spec = _twistor_spec({"twistor": obj})
    c = tw.ContourSpec(N=512)
    return np.stack([tw.trkalian_from_twistor(spec, x, c, adaptive_tol=1e-14) for x in pts])


def closed_form(rng, w: _Writer):
    cmds, probes = [], []
    n = CF_COUNTS
    for lam in (1, -1):
        F0 = complex(*rng.uniform(-1.5, 1.5, 2))
        nu = CF_NU
        spec = Lundquist(F0=F0, nu=nu, lam=lam)
        fld = {"type": "lundquist", "F0": [F0.real, F0.imag], "nu": nu, "lambda": lam}
        tag = "p" if lam == 1 else "m"
        for kind, metric, fn in (("xray", "xray_s", xray_numeric),
                                 ("divbeam", "divbeam_s", dbeam_numeric),
                                 ("ytrf", "ytrf_s", ytransform_numeric)):
            items = [{"theta": _fl(_off_axis_unit(rng)), "foot": _fl(x)}
                     for x in _ball(rng, n["lund_rays"], 3.0)]
            rays = _rays_of(items)
            path, out = w.cfg(f"lund-{kind}-{tag}", {"field": fld, "rays": items})
            tol = TOL["xray"] if kind == "xray" else TOL["divbeam_ytrf"]
            known = None
            if lam == -1 and kind != "xray":
                # the defect prints the helicity +1 transform of the same F0, nu
                plus = Lundquist(F0=F0, nu=nu, lam=1)
                known = Known("lundquist-helicity", reference=lambda sp=plus, r=rays, f=fn:
                              _numeric_ref(sp, r, f))
            cmds.append(Command(f"lund-{kind}-{tag}", metric, [kind, path], out,
                                inputs=_ray_inputs(rays), tol=tol, known=known,
                                reference=lambda sp=spec, r=rays, f=fn: _numeric_ref(sp, r, f)))
            # a ray along the cylinder axis: the transform diverges there, so it
            # has no reference and any value the CLI prints is wrong
            axis = {"theta": [0.0, 0.0, 1.0], "foot": _fl(np.append(rng.uniform(-1, 1, 2), 0.0))}
            pp, po = w.cfg(f"probe-axis-{kind}-{tag}", {"field": fld, "rays": [axis]})
            probes.append(Command(f"axis-{kind}-{tag}", "", [kind, pp], po, tol=tol,
                                  known=Known("cli-traceback", raises="DegenerateRay")))
        modes = ("spherical-mean", "grangeat", "gg")
        for mode in modes:
            pts = _ball(rng, n["lund_points"], 3.0)
            name = f"lund-invert-{mode}-{tag}"
            path, out = w.cfg(name, {"field": fld, "points": pts.tolist()})
            ref = lambda sp=spec, pts=pts: eval_field(sp, pts)
            if lam == 1 or mode == "spherical-mean":
                cmds.append(Command(name, f"invert_{mode.replace('-', '_')}_s",
                                    ["invert", mode, path], out, inputs=pts,
                                    tol=TOL["inversion"], reference=ref))
            else:
                # half-line data exists for helicity +1 only: a clean refusal
                probes.append(Command(f"invert-{mode}-{tag}", "", ["invert", mode, path], out,
                                      inputs=pts, tol=TOL["inversion"], reference=ref))
        pts = _ball(rng, n["field_points"], 3.0)
        path, out = w.cfg(f"lund-field-{tag}", {"field": fld, "points": pts.tolist()})
        cmds.append(Command(f"lund-field-{tag}", "field_sample_s", ["field", "sample", path], out,
                            inputs=pts, tol=TOL["field"], threads_probe=True,
                            reference=lambda F0=F0, nu=nu, lam=lam, pts=pts:
                            _lundquist_ref(F0, nu, lam, pts)))

    m, nu_ck = CF_CK_M, CF_NU
    ck = {"type": "ck_cylindrical", "m": m, "nu": nu_ck}
    pts = _ball(rng, n["field_points"], 3.0)
    path, out = w.cfg("ck-field", {"field": ck, "points": pts.tolist()})
    cmds.append(Command("ck-field", "field_sample_s", ["field", "sample", path], out,
                        inputs=pts, tol=TOL["field"], threads_probe=True,
                        reference=lambda pts=pts: np.stack(
                            [tw.trkalian_laurent_ck(m + 1, nu_ck, x) for x in pts])))

    numeric = [
        ("spheromak", Spheromak(F0=complex(*rng.uniform(-1, 1, 2)), k=CF_NU)),
        ("ck", CKCylindrical(m=m, nu=nu_ck)),
        ("glund", GeneralizedLundquist(sigma=CF_NU)),
    ]
    for tag, spec in numeric:
        if tag == "spheromak":
            fld = {"type": "spheromak", "F0": [spec.F0.real, spec.F0.imag], "k": spec.k}
        elif tag == "ck":
            fld = ck
        else:
            fld = {"type": "generalized_lundquist", "sigma": spec.sigma}
        for kind, metric, fn, tol in (("xray", "xray_s", xray_numeric, TOL["xray"]),
                                      ("ytrf", "ytrf_s", ytransform_numeric, TOL["divbeam_ytrf"])):
            items = [{"theta": _fl(_off_axis_unit(rng)), "foot": _fl(x)}
                     for x in _ball(rng, n["numeric_rays"], 2.0)]
            rays = _rays_of(items)
            path, out = w.cfg(f"{tag}-{kind}", {"field": fld, "rays": items})
            cmds.append(Command(f"{tag}-{kind}", metric, [kind, path], out,
                                inputs=_ray_inputs(rays), tol=tol,
                                known=Known("damped-signed", ENVELOPE["numeric-ytrf"])
                                if kind == "ytrf" else None,
                                reference=lambda sp=spec, r=rays, f=fn: _numeric_ref(sp, r, f)))

    nu_t = CF_NU
    for tag, obj, closed in _twistor_catalog(rng, nu_t):
        pts = _ball(rng, n["twistor_points"], 2.0)
        path, out = w.cfg(f"twistor-{tag}", {"twistor": obj, "points": pts.tolist()})
        if closed is not None:
            ref = lambda pts=pts, f=closed: np.stack([f(x) for x in pts])
        else:
            ref = lambda pts=pts, obj=obj: _twistor_refined(obj, pts)
        cmds.append(Command(f"twistor-{tag}", "twistor_eval_s", ["twistor", "eval", path], out,
                            inputs=pts, tol=TOL["field"], threads_probe=True, reference=ref))

    # plane-wave signed transform through the numeric route, one ray per call
    k0 = 1.3
    kappa0 = _unit(rng)
    pw = {"type": "plane_wave", "k0": k0, "kappa0": _fl(kappa0), "lambda": 1}
    for i in range(PROBE_PLANE_WAVE_RAYS):
        item = {"theta": _fl(_unit(rng)), "foot": _fl(_ball(rng, 1, 1.0)[0])}
        ray = _rays_of([item])[0]
        pp, po = w.cfg(f"probe-pw-{i}", {"field": pw, "rays": [item]})
        probes.append(Command(f"planewave-ytrf-{i}", "", ["ytrf", pp], po,
                              inputs=_ray_inputs([ray]), tol=TOL["divbeam_ytrf"],
                              known=Known("damped-signed", ENVELOPE["planewave-ytrf"],
                                          raises="NonConvergence"),
                              reference=lambda r=ray: ytransform_planewave_closed(
                                  r, k0, kappa0, 1)[None, :]))
    return cmds, probes


def check_all(rng, w: _Writer):
    path, out = w.cfg("check-all", {"seed": CHECK_SEED}, ext="json")
    return [Command("check-all", "check_all_s", ["check", "all", path], out,
                    check_suites=("eigen", "john", "identities", "twistor"))], []


WORKLOADS = {
    "helical_tomography": helical_tomography,
    "helical_rays": helical_rays,
    "closed_form": closed_form,
    "check_all": check_all,
}


def _warmups(cmds: list[Command], w: _Writer) -> list[list[str]]:
    """One single-row call per command kind, on the tiny rule when one is configured.

    It runs in every fresh interpreter before timing, so set-up covers the lazy
    imports and first-call state of each command, not its quadrature work.
    """
    out = []
    for c in cmds:
        kind = c.argv[:-1]
        if any(a[:-1] == kind for a in out):
            continue
        if c.argv[0] == "check":
            out.append(["check", "john", c.argv[-1]])
            continue
        with open(c.argv[-1], encoding="utf-8") as fh:
            cfg = json.load(fh)
        for key in ("points", "rays", "planes", "directions"):
            if key in cfg:
                cfg[key] = cfg[key][:1]
        if "quadrature" in cfg:
            cfg["quadrature"] = WARM_QUAD
        out.append(kind + [w.cfg("warm-" + "-".join(kind), cfg)[0]])
    return out


def build(name: str, seed: int, outdir: str) -> Workload:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    w = _Writer(outdir)
    cmds, probes = WORKLOADS[name](rng, w)
    return Workload(cmds, _warmups(cmds, w), probes)

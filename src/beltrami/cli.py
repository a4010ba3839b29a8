"""Command-line front end: sample fields and transforms onto grids, run check
suites, emit CSV/JSON.

Usage:  beltrami <command> [mode] config.json [--set key=value ...]

Commands: field sample | xray | divbeam | ytrf | radon | funk |
          invert {spherical-mean|grangeat|gg} | twistor eval |
          check {eigen|john|identities|inversions|twistor|all}

The JSON config is the single source of run parameters; --set overrides
dotted keys.  CSV output is deterministic: fixed evaluation order, 17
significant digits, comma separator, '\n' line endings.  BELTRAMI_THREADS
caps worker threads for grid evaluation (output is buffered and written in
input order regardless).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import Plane, PolarSphereGrid, Ray
from .harmonics import SphericalFunction
from .fields import (Lundquist, MosesBandLimited, TrkalianSpec, eigenvalue, eval_field,
                     field_rule, radon_moses_many, spec_from_json)
from .sphere import PVRule, funk_transform
from .rays import (DegenerateRay, NonConvergence, OscillatoryLineQuadrature,
                   dbeam_lundquist_batch, dbeam_numeric, dbeam_via_extfunk,
                   xray_lundquist_closed, xray_numeric, xray_via_funk,
                   ytransform_lundquist_batch, ytransform_numeric, ytransform_via_extfunk)
from .inversion import (gg_spherical_mean, invert_grangeat, invert_spherical_mean,
                        lundquist_dbeam_beam, lundquist_xray_beam, moses_dbeam_beam,
                        moses_xray_beam)
from . import twistor as tw
from .checks import run_suite


class ConfigError(ValueError):
    """Configuration problem; carries the offending key path."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _row(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _vector_row(inputs, vec) -> str:
    vec = np.asarray(vec).ravel()
    parts = list(inputs)
    for v in vec:
        parts.extend([complex(v).real, complex(v).imag])
    return _row(parts)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set: expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set: {key}: {p} is not an object")
        node[parts[-1]] = value
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"{key}: missing from config")
    return cfg[key]


def _field_spec(cfg: dict) -> TrkalianSpec:
    try:
        return spec_from_json(_require(cfg, "field"))
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"field: {e}")


def _grid_points(cfg: dict) -> np.ndarray:
    if "points" in cfg:
        pts = np.asarray(cfg["points"], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ConfigError("points: expected a list of [x, y, z]")
        return pts
    grid = _require(cfg, "grid")
    for key in ("origin", "axes", "counts"):
        if key not in grid:
            raise ConfigError(f"grid.{key}: missing")
    origin = np.asarray(grid["origin"], dtype=float)
    axes = np.asarray(grid["axes"], dtype=float)
    counts = [int(c) for c in grid["counts"]]
    if origin.shape != (3,) or axes.shape != (3, 3) or len(counts) != 3:
        raise ConfigError("grid: origin (3,), axes (3,3), counts (3,) required")
    if any(c < 1 for c in counts):
        raise ConfigError("grid.counts: all counts must be >= 1")
    ii, jj, kk = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    pts = (origin[None, :] +
           ii.ravel()[:, None] * axes[0] +
           jj.ravel()[:, None] * axes[1] +
           kk.ravel()[:, None] * axes[2])
    return pts


def _rays(cfg: dict) -> list[Ray]:
    items = _require(cfg, "rays")
    out = []
    for i, item in enumerate(items):
        try:
            theta = np.asarray(item["theta"], dtype=float)
            foot = np.asarray(item["foot"], dtype=float)
            out.append(Ray.through(theta, foot))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"rays[{i}]: {e}")
    return out


def _planes(cfg: dict) -> list[Plane]:
    items = _require(cfg, "planes")
    out = []
    for i, item in enumerate(items):
        try:
            out.append(Plane(p=float(item["p"]), kappa=np.asarray(item["kappa"], dtype=float)))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"planes[{i}]: {e}")
    return out


def _spherical_data(cfg: dict) -> SphericalFunction:
    obj = _require(cfg, "spherical_data")
    try:
        lmax = int(obj["lmax"])
        coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
        return SphericalFunction(lmax, coeffs)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"spherical_data: {e}")


def _quad_cfg(cfg: dict) -> dict:
    q = cfg.get("quadrature", {})
    return {
        "circle_n": int(q.get("circle_n", 256)),
        "pv": PVRule(int(q.get("pv_u", 48)), int(q.get("pv_psi", 96))),
        "sphere": PolarSphereGrid(int(q.get("sphere_alpha", 64)),
                                  int(q.get("sphere_psi", 128))),
        "panels_per_period": int(q.get("panels_per_period", 8)),
        "contour_n": int(q.get("contour_n", 64)),
    }


def _workers() -> int:
    raw = os.environ.get("BELTRAMI_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_points(fn, pts: np.ndarray) -> list:
    """Evaluate fn on chunks of points, preserving input order."""
    n_workers = _workers()
    chunks = np.array_split(pts, max(1, min(len(pts), 4 * n_workers)))
    if n_workers == 1:
        results = [fn(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(fn, chunks))
    return [row for block in results for row in block]


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _line_cfg_for(spec: TrkalianSpec, ray: Ray, cfg: dict) -> OscillatoryLineQuadrature:
    nu_s = abs(eigenvalue(spec))
    v_r = float(np.hypot(ray.theta[0], ray.theta[1]))
    scale = nu_s * max(v_r, 0.05)
    return OscillatoryLineQuadrature(nu_scale=scale,
                                     panels_per_period=_quad_cfg(cfg)["panels_per_period"])


def cmd_field_sample(cfg: dict) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    pts = _grid_points(cfg)
    lines = ["x,y,z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"]
    quad = field_rule(spec, pts)  # one rule for all chunks, whatever the thread count

    def block(chunk):
        vals = eval_field(spec, chunk, quad)
        return [_vector_row(p, v) for p, v in zip(chunk, vals)]

    lines.extend(_map_points(block, pts))
    return 0, lines


def _beam_value(spec: TrkalianSpec, ray: Ray, kind: str, q: dict, cfg: dict) -> np.ndarray:
    if isinstance(spec, Lundquist):
        if kind == "X":
            return xray_lundquist_closed(ray, spec.F0, spec.nu, spec.lam)
        # the series are for helicity +1; helicity -1 is its mirror
        # image in y: D_-1(theta, x) = M D_+1(M theta, M x), M = diag(1, -1, 1)
        mirror = np.array([1.0, spec.lam, 1.0])
        series = dbeam_lundquist_batch if kind == "D" else ytransform_lundquist_batch
        return mirror * series((mirror * ray.theta)[None], mirror * ray.foot,
                               spec.F0, spec.nu)[0]
    if isinstance(spec, MosesBandLimited):
        if kind == "X":
            return xray_via_funk(spec.nu, spec.lam, spec.s, ray, q["circle_n"])
        if kind == "D":
            return dbeam_via_extfunk(spec.nu, spec.lam, spec.s, ray,
                                     circle_n=q["circle_n"], pv=q["pv"])
        return ytransform_via_extfunk(spec.nu, spec.lam, spec.s, ray.theta,
                                      ray.foot, q["pv"])
    fld = lambda p: eval_field(spec, p)
    lcfg = _line_cfg_for(spec, ray, cfg)
    fn = {"X": xray_numeric, "D": dbeam_numeric, "Y": ytransform_numeric}[kind]
    return fn(fld, ray, lcfg).value


def _beam_rows(cfg: dict, kind: str) -> list[str]:
    spec = _field_spec(cfg)
    rays = _rays(cfg)
    q = _quad_cfg(cfg)
    lines = ["theta_x,theta_y,theta_z,foot_x,foot_y,foot_z," +
             "re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"]
    for i, ray in enumerate(rays):
        try:
            val = _beam_value(spec, ray, kind, q, cfg)
        except (DegenerateRay, NonConvergence) as e:
            raise ConfigError(f"rays[{i}]: {type(e).__name__}: {e}") from e
        lines.append(_vector_row(np.concatenate([ray.theta, ray.foot]), val))
    return lines


def cmd_xray(cfg: dict) -> tuple[int, list[str]]:
    return 0, _beam_rows(cfg, "X")


def cmd_divbeam(cfg: dict) -> tuple[int, list[str]]:
    return 0, _beam_rows(cfg, "D")


def cmd_ytrf(cfg: dict) -> tuple[int, list[str]]:
    return 0, _beam_rows(cfg, "Y")


def cmd_radon(cfg: dict) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    if not isinstance(spec, MosesBandLimited):
        raise ConfigError("field: the plane transform is evaluated in the helical "
                          "representation; it requires a moses_band_limited field")
    planes = _planes(cfg)
    lines = ["p,kappa_x,kappa_y,kappa_z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"]
    ps = np.array([pl.p for pl in planes])
    kappas = np.array([pl.kappa for pl in planes]).reshape(-1, 3)
    vals = radon_moses_many(spec.nu, spec.lam, spec.s, ps, kappas)
    lines.extend(_vector_row(np.concatenate([[pl.p], pl.kappa]), val)
                 for pl, val in zip(planes, vals))
    return 0, lines


def cmd_funk(cfg: dict) -> tuple[int, list[str]]:
    s = _spherical_data(cfg)
    dirs = np.asarray(_require(cfg, "directions"), dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ConfigError("directions: expected a list of unit vectors")
    q = _quad_cfg(cfg)
    lines = ["theta_x,theta_y,theta_z,re_value,im_value"]
    # row by row, so the printed directions keep their bytes
    dirs = np.array([d / np.linalg.norm(d) for d in dirs])
    vals = funk_transform(s, dirs, q["circle_n"])
    lines.extend(_row([d[0], d[1], d[2], val.real, val.imag]) for d, val in zip(dirs, vals))
    return 0, lines


def cmd_invert(cfg: dict, mode: str) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    pts = _grid_points(cfg)
    q = _quad_cfg(cfg)
    if isinstance(spec, Lundquist):
        nu, lam = spec.nu, spec.lam
        if mode != "spherical-mean" and lam != 1:
            raise ConfigError("field: half-line series data exists for helicity +1 only")
        xb = lundquist_xray_beam(spec.F0, nu, lam)
        db = lundquist_dbeam_beam(spec.F0, nu)
    elif isinstance(spec, MosesBandLimited):
        nu, lam = spec.nu, spec.lam
        xb = moses_xray_beam(nu, lam, spec.s, circle_n=max(q["circle_n"], 512))
        db = moses_dbeam_beam(nu, lam, spec.s, circle_n=q["circle_n"], pv=q["pv"])
    else:
        raise ConfigError("field: inversion drives closed-form or helical beams; use "
                          "a lundquist or moses_band_limited field")
    lines = ["x,y,z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"]
    grid = q["sphere"]
    for x in pts:
        if mode == "spherical-mean":
            val = invert_spherical_mean(xb, x, nu, lam, grid)
        elif mode == "grangeat":
            val = invert_grangeat(db, x, lam * nu, grid, +1)
        else:
            val = gg_spherical_mean(db, x, nu, lam, grid)
        lines.append(_vector_row(x, val))
    return 0, lines


_TWISTOR_KINDS = {
    "eta_power_over_omega": lambda o: tw.EtaPowerOverOmega(
        n=int(o.get("n", 0)), m=int(o.get("m", 1)),
        omega0=complex(*o.get("omega0", [0.0, 0.0]))),
    "holomorphic_of_eta": lambda o: tw.HolomorphicOfEta(
        coefficients=tuple(complex(re, im) for re, im in o["coefficients"]),
        denominator_power=int(o.get("denominator_power", 1))),
    "laurent_in_omega_prime": lambda o: tw.LaurentInOmegaPrime(n=int(o["n"])),
    "lundquist_kernel": lambda o: tw.LundquistKernel(nu=float(o.get("nu", 1.0))),
    "raw_laurent": lambda o: tw.RawLaurent(
        table=tuple((int(k), complex(re, im)) for k, (re, im) in o["table"])),
}


def _twistor_spec(cfg: dict) -> tw.IntegrandSpec:
    obj = _require(cfg, "twistor")
    u_obj = obj.get("u")
    if not isinstance(u_obj, dict) or "type" not in u_obj:
        raise ConfigError("twistor.u: expected an object with a 'type'")
    kind = u_obj["type"]
    if kind not in _TWISTOR_KINDS:
        raise ConfigError(f"twistor.u.type: unknown kind {kind!r}; "
                          f"choose from {sorted(_TWISTOR_KINDS)}")
    try:
        u = _TWISTOR_KINDS[kind](u_obj)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"twistor.u: {e}")
    phase = obj.get("phase", "F1")
    if phase not in ("F1", "F2"):
        raise ConfigError("twistor.phase: must be 'F1' or 'F2'")
    try:
        return tw.IntegrandSpec(u=u, phase=phase, k=float(obj.get("k", 1.0)))
    except ValueError as e:
        raise ConfigError(f"twistor: {e}")


def cmd_twistor_eval(cfg: dict) -> tuple[int, list[str]]:
    spec = _twistor_spec(cfg)
    pts = _grid_points(cfg)
    q = _quad_cfg(cfg)
    contour = tw.ContourSpec(N=q["contour_n"])
    lines = ["x,y,z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"]

    def block(chunk):
        return [_vector_row(p, tw.trkalian_from_twistor(spec, p, contour))
                for p in chunk]

    try:
        lines.extend(_map_points(block, pts))
    except tw.PoleOnContour as e:
        # the contour is the unit circle, so the integrand put the pole there
        raise ConfigError(f"twistor.u: {type(e).__name__}: {e}") from e
    return 0, lines


def cmd_check(cfg: dict, suite: str) -> tuple[int, list[str]]:
    seed = int(cfg.get("seed", 1234))
    tol_overrides = cfg.get("tolerances", {})
    report = run_suite(suite, seed=seed)
    if tol_overrides:
        from .checks import CheckReport, CheckResult
        patched = []
        for c in report.checks:
            tol = float(tol_overrides.get(c.name, c.tolerance))
            patched.append(CheckResult(c.name, c.detail, c.residual, tol))
        report = CheckReport(suite=report.suite, seed=report.seed, checks=tuple(patched))
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name} residual={_fmt(c.residual)} tol={_fmt(c.tolerance)}")
    lines.append(f"{'PASS' if report.all_passed else 'FAIL'} summary "
                 f"{report.n_passed}/{len(report.checks)}")
    out_path = cfg.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return (0 if report.all_passed else 1), lines


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="beltrami", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_cfg(p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE", help="override a dotted config key")

    p_field = sub.add_parser("field", help="sample a catalog field")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    add_cfg(field_sub.add_parser("sample", help="evaluate the field on a grid"))

    for name, help_text in [("xray", "whole-line transform along configured rays"),
                            ("divbeam", "half-line transform along configured rays"),
                            ("ytrf", "signed line transform along configured rays")]:
        add_cfg(sub.add_parser(name, help=help_text))

    add_cfg(sub.add_parser("radon", help="plane transform of a helical-data field"))
    add_cfg(sub.add_parser("funk", help="great-circle transform of spherical data"))

    p_inv = sub.add_parser("invert", help="reconstruct the field from beam data")
    p_inv.add_argument("mode", choices=["spherical-mean", "grangeat", "gg"])
    add_cfg(p_inv)

    p_tw = sub.add_parser("twistor", help="contour-integral field generator")
    tw_sub = p_tw.add_subparsers(dest="twistor_command", required=True)
    add_cfg(tw_sub.add_parser("eval", help="evaluate the generator on a grid"))

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument("suite", choices=["eigen", "john", "identities",
                                         "inversions", "twistor", "all"])
    add_cfg(p_chk)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args.sets)
        if args.command == "field":
            code, lines = cmd_field_sample(cfg)
        elif args.command == "xray":
            code, lines = cmd_xray(cfg)
        elif args.command == "divbeam":
            code, lines = cmd_divbeam(cfg)
        elif args.command == "ytrf":
            code, lines = cmd_ytrf(cfg)
        elif args.command == "radon":
            code, lines = cmd_radon(cfg)
        elif args.command == "funk":
            code, lines = cmd_funk(cfg)
        elif args.command == "invert":
            code, lines = cmd_invert(cfg, args.mode)
        elif args.command == "twistor":
            code, lines = cmd_twistor_eval(cfg)
        elif args.command == "check":
            code, lines = cmd_check(cfg, args.suite)
            sys.stdout.write("\n".join(lines) + "\n")
            return code
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    out_path = cfg.get("output")
    _write_lines(out_path, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: sample fields and transforms onto grids, run check
suites, emit CSV/JSON.

Usage:  beltrami <command> [mode] config.json [--set key=value ...]

Commands: field sample | xray | divbeam | ytrf | radon | funk |
          invert {spherical-mean|grangeat|gg} | twistor eval |
          check {eigen|john|identities|inversions|twistor|all}

The JSON config is the single source of run parameters; --set overrides
dotted keys.  CSV output is deterministic: fixed evaluation order, 17
significant digits, comma separator, '\n' line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .geometry import PolarSphereGrid, check_norms, dot_rows, normalize, rays_through
from .harmonics import SphericalFunction
from .fields import (ConfigError, Keys, TrkalianSpec, built, count, eigenvalue, eval_field,
                     integer, list_of, real, scalar, spec_from_json, spherical, vector, vectors,
                     xyz)
from .sphere import PVRule, funk_transform
from .rays import NonConvergence, _damped_line_integral, _unit_rule
from .inversion import field_beam, gg_spherical_mean, invert_grangeat, invert_spherical_mean
from . import twistor as tw
from .checks import check_names, run_suite


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _csv(header: str, key: str, inputs, values) -> list[str]:
    """The header and one row of inputs (N, k) and values (N, ...) per row, the values
    as re, im pairs, every number as format(v, ".17g") gives it; the first row i with
    a non-finite entry is refused at its key path key[i]."""
    inputs, values = np.asarray(inputs, dtype=float), np.asarray(values, dtype=complex)
    bad = np.concatenate([np.nonzero(~np.isfinite(a))[0] for a in (inputs, values)])
    if bad.size:
        raise ConfigError(f"{key}[{bad.min()}]: non-finite value")
    if not len(inputs):
        return [header]
    pairs = np.ascontiguousarray(values).view(float).reshape(len(values), -1)  # re, im
    table = np.concatenate([inputs, pairs], axis=1)
    row = ",".join(["%.17g"] * table.shape[1])    # '%.17g' % v == format(v, '.17g')
    return [header] + [row % r for r in map(tuple, table.tolist())]


POINT_HEADER = "x,y,z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz"
file_path = scalar(lambda v: isinstance(v, str) and v != "", "a file path", str)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config: cannot read {path}: {e}")
    return Keys(cfg, "config").obj


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


def _field_spec(cfg: dict) -> TrkalianSpec:
    return Keys(cfg, "").get("field", spec_from_json)


def _grid_points(cfg: dict) -> np.ndarray:
    if "points" in cfg:
        pts = Keys(cfg, "").get("points", vectors)
        if not len(pts):
            raise ConfigError("points: expected a list of [x, y, z]")
        return pts
    grid = Keys(cfg, "").get("grid", Keys)
    origin, axes = grid.get("origin", vector), grid.get("axes", list_of(vector, 3))
    counts = grid.get("counts", list_of(count, 3))
    ii, jj, kk = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    pts = (origin[None, :] +
           ii.ravel()[:, None] * axes[0] +
           jj.ravel()[:, None] * axes[1] +
           kk.ravel()[:, None] * axes[2])
    return pts


def _rowwise(key: str, make, *args):
    """make(*args), an error it raises for row i (its .row) refused at key[i]: a plain
    ValueError (an input check) by its message, any other by its name and message."""
    try:
        return make(*args)
    except (ValueError, NonConvergence) as e:
        if not hasattr(e, "row"):
            raise
        message = str(e) if type(e) is ValueError else f"{type(e).__name__}: {e}"
        raise ConfigError(f"{key}[{e.row}]: {message}") from e


def _read_rows(key: str, cfg: dict, read, check):
    """check([read(o) for each object o of the list at key]).  If row p cannot be
    read, the rows before it are checked first: the lowest row that either refuses
    is named, as when each row is read and checked before the next."""
    values = []
    try:
        for o in Keys(cfg, "").get(key, list_of(Keys)):
            values.append(read(o))
    except ConfigError:
        _rowwise(key, check, values)
        raise
    return _rowwise(key, check, values)


def _rays(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Directions and feet (N, 3) of the configured rays, each as Ray.through makes it."""
    def check(rows):
        a = np.array(rows, dtype=float).reshape(-1, 2, 3)
        return rays_through(a[:, 0], a[:, 1])
    return _read_rows("rays", cfg, lambda o: (o.get("theta", xyz), o.get("foot", xyz)), check)


def _planes(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (N,) and unit normals (N, 3) of the configured planes, each as Plane makes it."""
    def check(rows):
        a = np.array(rows, dtype=float).reshape(-1, 4)
        return a[:, 0], normalize(a[:, 1:])
    return _read_rows("planes", cfg, lambda o: (o.get("p", real), *o.get("kappa", xyz)), check)


def _directions(cfg: dict) -> np.ndarray:
    """The configured directions (N, 3), each divided by np.linalg.norm of it (a dot)."""
    dirs = Keys(cfg, "").get("directions", vectors)
    if not len(dirs):
        raise ConfigError("directions: expected a list of unit vectors")
    with np.errstate(over="ignore"):   # an overflowing norm is refused, not warned of
        norms = np.sqrt(dot_rows(dirs, dirs))
    _rowwise("directions", check_norms, norms)  # refused as rays and planes are
    return dirs / norms[:, None]


def _spherical_data(cfg: dict) -> SphericalFunction:
    return Keys(cfg, "").get("spherical_data", spherical)


def _quad_cfg(cfg: dict) -> dict:
    q = Keys(cfg, "").get("quadrature", Keys, Keys({}, "quadrature"))
    n = lambda key, default: q.get(key, count, default)
    return {
        "circle_n": n("circle_n", 256),
        "pv": PVRule(n("pv_u", 48), n("pv_psi", 96)),
        "sphere": PolarSphereGrid(n("sphere_alpha", 64), n("sphere_psi", 128)),
        "panels_per_period": n("panels_per_period", 8),
        "contour": built(tw.ContourSpec, "quadrature.contour_n", n("contour_n", 64)),
    }


def _write(path: str | None, text: str):
    """text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"output: cannot write {path}: {e.strerror}")


def _nu_scales(spec: TrkalianSpec, thetas: np.ndarray) -> np.ndarray:
    """The damped rule's scale of each ray (N,): |nu_s| max(v_r, 0.05), v_r = |theta_xy|."""
    return abs(eigenvalue(spec)) * np.maximum(np.hypot(thetas[:, 0], thetas[:, 1]), 0.05)


def cmd_field_sample(cfg: dict) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    pts = _grid_points(cfg)
    return 0, _csv(POINT_HEADER, "points", pts, eval_field(spec, pts))


def _beam_rows(cfg: dict, kind: str) -> list[str]:
    spec = _field_spec(cfg)
    thetas, feet = _rays(cfg)
    q = _quad_cfg(cfg)
    beam = field_beam(spec, kind, q["circle_n"], q["pv"])
    if beam:  # one call for every ray, each from its own foot
        vals = _rowwise("rays", beam.fn, thetas, feet)
    elif len(thetas):  # the damped route: one unit rule, scaled per ray by 1/nu_scale
        panels = q["panels_per_period"]
        built(_unit_rule, "quadrature.panels_per_period", panels)
        # a row that a non-finite point spoils is refused by _csv, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            vals, _ = _rowwise("rays", _damped_line_integral, lambda p: eval_field(spec, p),
                               thetas, feet, _nu_scales(spec, thetas), panels, kind)
    else:              # no rays: the header alone
        vals = np.empty((0, 3))
    return _csv("theta_x,theta_y,theta_z,foot_x,foot_y,foot_z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz",
                "rays", np.concatenate([thetas, feet], axis=1), vals)


def cmd_radon(cfg: dict) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    ps, kappas = _planes(cfg)
    try:
        vals = spec.radon(ps, kappas)
    except ValueError as e:
        raise ConfigError(f"field: {e}") from e
    return 0, _csv("p,kappa_x,kappa_y,kappa_z,re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz", "planes",
                   np.concatenate([ps[:, None], kappas], axis=1), vals)


def cmd_funk(cfg: dict) -> tuple[int, list[str]]:
    s = _spherical_data(cfg)
    dirs = _directions(cfg)
    q = _quad_cfg(cfg)
    vals = funk_transform(s, dirs, q["circle_n"])
    return 0, _csv("theta_x,theta_y,theta_z,re_value,im_value", "directions", dirs, vals)


def cmd_invert(cfg: dict, mode: str) -> tuple[int, list[str]]:
    spec = _field_spec(cfg)
    pts = _grid_points(cfg)
    q = _quad_cfg(cfg)
    if mode == "spherical-mean":  # at least 512 great-circle nodes
        beam = field_beam(spec, "X", max(q["circle_n"], 512), q["pv"], invert=True)
    else:
        beam = field_beam(spec, "D", q["circle_n"], q["pv"], invert=True)
    if beam is None:
        raise ConfigError("field: inversion drives closed-form or helical beams; use "
                          "a lundquist or moses_band_limited field")
    nu_s, grid = eigenvalue(spec), q["sphere"]
    if mode == "spherical-mean":   # one call for every point
        vals = invert_spherical_mean(beam, pts, abs(nu_s), grid)
    elif mode == "grangeat":
        vals = invert_grangeat(beam, pts, nu_s, grid, +1)
    else:
        vals = gg_spherical_mean(beam, pts, abs(nu_s), grid)
    return 0, _csv(POINT_HEADER, "points", pts, vals)


def _twistor_spec(cfg: dict) -> tw.IntegrandSpec:
    return Keys(cfg, "").get("twistor", lambda v, path: tw.IntegrandSpec.from_json(Keys(v, path)))


def cmd_twistor_eval(cfg: dict) -> tuple[int, list[str]]:
    spec = _twistor_spec(cfg)
    pts = _grid_points(cfg)
    contour = _quad_cfg(cfg)["contour"]
    try:
        vals = _rowwise("points", tw.trkalian_from_twistor, spec, pts, contour)
    except tw.PoleOnContour as e:
        # the contour is the unit circle, so the integrand put the pole there
        raise ConfigError(f"twistor.u: {type(e).__name__}: {e}") from e
    return 0, _csv(POINT_HEADER, "points", pts, vals)


def cmd_check(cfg: dict, suite: str) -> tuple[int, list[str], str]:
    """Exit code, report lines and the JSON report of one suite."""
    seed = Keys(cfg, "").get("seed", integer, 1234)
    tols = Keys(cfg, "").get("tolerances", Keys, Keys({}, "tolerances"))
    names = check_names(suite)
    for name in tols.obj:
        if name not in names:
            raise ConfigError(f"tolerances.{name}: unknown check")
    tols = {name: tols.get(name, real) for name in tols.obj}
    report = run_suite(suite, seed=seed)
    report = dataclasses.replace(report, checks=tuple(
        dataclasses.replace(c, tolerance=tols[c.name], tolerance_source="config")
        if c.name in tols else c for c in report.checks))
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        source = " (config)" if c.tolerance_source == "config" else ""
        lines.append(f"{status} {c.name} residual={_fmt(c.residual)} "
                     f"tol={_fmt(c.tolerance)}{source}")
    lines.append(f"{'PASS' if report.all_passed else 'FAIL'} summary "
                 f"{report.n_passed}/{len(report.checks)}")
    report_json = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    return (0 if report.all_passed else 1), lines, report_json


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
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
        out_path = Keys(cfg, "").get("output", file_path, None)
        if args.command == "check":
            code, lines, report = cmd_check(cfg, args.suite)
            if out_path is not None:
                _write(out_path, report)
            sys.stdout.write("\n".join(lines) + "\n")
            return code
        code, lines = {
            "field": cmd_field_sample, "radon": cmd_radon, "funk": cmd_funk,
            "twistor": cmd_twistor_eval, "invert": lambda c: cmd_invert(c, args.mode),
            "xray": lambda c: (0, _beam_rows(c, "X")),
            "divbeam": lambda c: (0, _beam_rows(c, "D")),
            "ytrf": lambda c: (0, _beam_rows(c, "Y")),
        }[args.command](cfg)
        _write(out_path, "\n".join(lines) + "\n")
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beltrami.cli import main


def write_cfg(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


LUND_FIELD = {"type": "lundquist", "F0": [1.0, 0.0], "nu": 1.0, "lambda": 1}
GRID = {"origin": [0.1, 0.2, 0.0],
        "axes": [[0.4, 0, 0], [0, 0.4, 0], [0, 0, 0.5]],
        "counts": [3, 2, 2]}


def test_field_sample_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD, "grid": GRID, "output": str(tmp_path / "a.csv")})
    assert main(["field", "sample", cfg]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["field", "sample", cfg, "--set", f"output={tmp_path}/b.csv"]) == 0
    second = (tmp_path / "b.csv").read_bytes()
    assert first == second
    rows = first.decode().strip().split("\n")
    assert rows[0].startswith("x,y,z,")
    assert len(rows) == 1 + 3 * 2 * 2


def test_overrides_do_not_leak_between_calls(tmp_path):
    # main reuses one parser per process; the --set list (an append action with
    # a list default) of one call must not carry into the next
    from beltrami.cli import build_parser
    assert build_parser() is build_parser()
    obj = {"field": LUND_FIELD, "grid": GRID, "output": str(tmp_path / "a.csv")}
    cfg = write_cfg(tmp_path, "cfg.json", obj)
    assert main(["field", "sample", cfg, "--set", f"output={tmp_path}/b.csv",
                 "--set", "field.nu=2.0"]) == 0
    assert main(["field", "sample", cfg, "--set", "field.F0=[0.5, 0.0]"]) == 0
    ref = write_cfg(tmp_path, "ref.json", dict(obj, field=dict(LUND_FIELD, F0=[0.5, 0.0]),
                                               output=str(tmp_path / "ref.csv")))
    assert main(["field", "sample", ref]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert build_parser().parse_args(["field", "sample", cfg]).sets == []


_MOSES_COEFFS = np.random.default_rng(3).standard_normal((25, 2))
MOSES_FIELD = {"type": "moses_band_limited", "nu": 1.0, "lambda": 1, "lmax": 4,
               "coeffs": _MOSES_COEFFS.tolist()}


def test_config_errors(tmp_path):
    assert main(["field", "sample", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["field", "sample", str(bad)]) == 2
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD,
        "grid": {"origin": [0, 0, 0], "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 "counts": [0, 1, 1]}})
    assert main(["field", "sample", cfg]) == 2
    cfg2 = write_cfg(tmp_path, "cfg2.json", {"grid": GRID})
    assert main(["field", "sample", cfg2]) == 2


def test_set_override_parses_json(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD, "grid": GRID, "output": str(tmp_path / "a.csv")})
    assert main(["field", "sample", cfg, "--set", "grid.counts=[1,1,1]"]) == 0
    rows = (tmp_path / "a.csv").read_text().strip().split("\n")
    assert len(rows) == 2


def test_xray_closed_route(tmp_path):
    from beltrami.geometry import Ray
    from beltrami.rays import xray_lundquist_batch
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD,
        "rays": [{"theta": [1, 0, 0], "foot": [0, 0.5, 0]},
                 {"theta": [0.6, 0.64, 0.48], "foot": [0.3, -0.2, 0.1]}],
        "output": str(tmp_path / "x.csv")})
    assert main(["xray", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "x.csv", delimiter=",", skip_header=1)
    ray = Ray.through(np.array(rows[0, :3]), np.array(rows[0, 3:6]))
    want = xray_lundquist_batch(ray.theta[None], ray.foot, 1.0, 1.0, 1)[0]
    got = rows[0, 6::2] + 1j * rows[0, 7::2]
    assert np.linalg.norm(got - want) <= 1e-12


def test_divbeam_and_ytrf_consistency(tmp_path):
    rays = [{"theta": [0.6, 0.64, 0.48], "foot": [0.3, -0.2, 0.1]}]
    base = {"field": LUND_FIELD, "rays": rays}
    outs = {}
    for cmd in ("xray", "divbeam", "ytrf"):
        cfg = write_cfg(tmp_path, f"{cmd}.json",
                        {**base, "output": str(tmp_path / f"{cmd}.csv")})
        rays_neg = [{"theta": [-0.6, -0.64, -0.48], "foot": [0.3, -0.2, 0.1]}]
        assert main([cmd, cfg]) == 0
        rows = np.genfromtxt(tmp_path / f"{cmd}.csv", delimiter=",", skip_header=1)
        outs[cmd] = rows[6::2] + 1j * rows[7::2]
    cfg = write_cfg(tmp_path, "dneg.json", {
        "field": LUND_FIELD,
        "rays": [{"theta": [-0.6, -0.64, -0.48], "foot": [0.3, -0.2, 0.1]}],
        "output": str(tmp_path / "dneg.csv")})
    assert main(["divbeam", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "dneg.csv", delimiter=",", skip_header=1)
    d_neg = rows[6::2] + 1j * rows[7::2]
    assert np.linalg.norm(outs["divbeam"] + d_neg - outs["xray"]) <= 1e-9
    assert np.linalg.norm(outs["divbeam"] - d_neg - outs["ytrf"]) <= 1e-9


def test_lundquist_negative_helicity_beams(tmp_path):
    # helicity -1 divbeam/ytrf against the damped numeric transforms of the
    # helicity -1 field, at the identities-suite tolerance
    from beltrami.fields import Lundquist, eval_field
    from beltrami.geometry import Ray
    from beltrami.rays import OscillatoryLineQuadrature, dbeam_numeric, ytransform_numeric
    field = {"type": "lundquist", "F0": [0.7, -0.3], "nu": 1.1, "lambda": -1}
    rays = [{"theta": [0.6, 0.64, 0.48], "foot": [0.3, -0.2, 0.1]},
            {"theta": [0.1, -0.9, -0.4], "foot": [0.4, 0.5, 0.2]}]
    fld = lambda p: eval_field(Lundquist(F0=0.7 - 0.3j, nu=1.1, lam=-1), p)
    for cmd, numeric in (("divbeam", dbeam_numeric), ("ytrf", ytransform_numeric)):
        cfg = write_cfg(tmp_path, f"{cmd}.json", {
            "field": field, "rays": rays, "output": str(tmp_path / f"{cmd}.csv")})
        assert main([cmd, cfg]) == 0
        rows = np.genfromtxt(tmp_path / f"{cmd}.csv", delimiter=",", skip_header=1)
        for row in rows:
            ray = Ray(theta=row[:3], foot=row[3:6])
            lcfg = OscillatoryLineQuadrature(nu_scale=1.1 * float(np.hypot(*row[:2])))
            want = numeric(fld, ray, lcfg).value
            got = row[6::2] + 1j * row[7::2]
            assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)


def test_radon_requires_helical_field(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD, "planes": [{"p": 0.3, "kappa": [0, 0, 1]}]})
    assert main(["radon", cfg]) == 2


def test_radon_and_funk(tmp_path):
    rng = np.random.default_rng(0)
    lmax = 3
    coeffs = rng.standard_normal(((lmax + 1) ** 2, 2)) @ np.array([1, 1j])
    moses = {"type": "moses_band_limited", "nu": 1.0, "lambda": 1, "lmax": lmax,
             "coeffs": [[c.real, c.imag] for c in coeffs]}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": moses,
        "planes": [{"p": 0.4, "kappa": [0.3, 0.7, 0.648074069840786]}],
        "output": str(tmp_path / "r.csv")})
    assert main(["radon", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "r.csv", delimiter=",", skip_header=1)
    from beltrami.geometry import Plane
    from beltrami.fields import radon_moses
    from beltrami.harmonics import SphericalFunction
    s = SphericalFunction(lmax, coeffs)
    want = radon_moses(1.0, 1, s, Plane(p=0.4, kappa=np.array(rows[1:4])))
    got = rows[4::2] + 1j * rows[5::2]
    assert np.linalg.norm(got - want) <= 1e-12

    cfg = write_cfg(tmp_path, "funk.json", {
        "spherical_data": {"lmax": lmax, "coeffs": [[c.real, c.imag] for c in coeffs]},
        "directions": [[0, 0, 1], [0.3, 0.4, 0.866025403784439]],
        "output": str(tmp_path / "f.csv")})
    assert main(["funk", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "f.csv", delimiter=",", skip_header=1)
    from beltrami.sphere import funk_transform
    want = complex(funk_transform(s, np.array(rows[0, :3]) /
                                  np.linalg.norm(rows[0, :3]), 256))
    assert abs(complex(rows[0, 3], rows[0, 4]) - want) <= 1e-12


def test_funk_and_lmax_refusals(tmp_path, capsys):
    # a zero direction and spherical data above degree 16 exit 2 with no CSV
    from beltrami.fields import spec_from_json
    out = tmp_path / "f.csv"
    cases = [({"spherical_data": {"lmax": 1, "coeffs": [[1.0, 0.0]] * 4},
               "directions": [[0, 0, 0], [1, 0, 0]]},
              "directions[0]: cannot normalize a near-zero vector"),
             ({"spherical_data": {"lmax": 17, "coeffs": [[1.0, 0.0]] * 324},
               "directions": [[1, 0, 0]]},
              "spherical_data.lmax: at most 16")]
    for obj, message in cases:
        cfg = write_cfg(tmp_path, "funk.json", dict(obj, output=str(out)))
        assert main(["funk", cfg]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match="field.lmax: at most 16"):
        spec_from_json(dict(MOSES_FIELD, lmax=17, coeffs=[[1.0, 0.0]] * 324))


def test_twistor_eval_matches_field_sample(tmp_path):
    pts = [[0.3, 0.1, 0.0], [0.5, -0.2, 0.4], [0.1, 0.8, -0.3], [0.9, 0.0, 0.2],
           [0.2, 0.2, 0.2], [-0.4, 0.5, 0.1], [0.6, 0.6, -0.5], [0.0, -0.7, 0.3],
           [1.1, 0.2, 0.0], [-0.3, -0.3, 0.8]]
    cfg_tw = write_cfg(tmp_path, "tw.json", {
        "twistor": {"u": {"type": "lundquist_kernel", "nu": 1.0},
                    "phase": "F1", "k": 1.0},
        "points": pts, "output": str(tmp_path / "tw.csv")})
    cfg_f = write_cfg(tmp_path, "f.json", {
        "field": {"type": "lundquist", "F0": [0.0, 4 * np.pi], "nu": 1.0, "lambda": 1},
        "points": pts, "output": str(tmp_path / "f.csv")})
    assert main(["twistor", "eval", cfg_tw]) == 0
    assert main(["field", "sample", cfg_f]) == 0
    a = np.genfromtxt(tmp_path / "tw.csv", delimiter=",", skip_header=1)
    b = np.genfromtxt(tmp_path / "f.csv", delimiter=",", skip_header=1)
    ca = a[:, 3::2] + 1j * a[:, 4::2]
    cb = b[:, 3::2] + 1j * b[:, 4::2]
    assert np.max(np.abs(ca - cb)) <= 1e-10


def test_twistor_far_point_prints(tmp_path):
    # the Lundquist kernel far from the axis: the phase and the kernel
    # exponentials would overflow alone, their product is the bounded field
    pts = [[0.1, 0.2, 0.3], [700.0, 0.0, 0.0]]
    out = tmp_path / "tw.csv"
    cfg = write_cfg(tmp_path, "tw.json", {
        "twistor": {"u": {"type": "lundquist_kernel", "nu": 1.1}, "phase": "F1", "k": 1.1},
        "points": pts, "output": str(out)})
    assert main(["twistor", "eval", cfg]) == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=1)
    got = rows[:, 3::2] + 1j * rows[:, 4::2]
    from beltrami.fields import Lundquist, eval_field
    want = eval_field(Lundquist(F0=4j * np.pi, nu=1.1, lam=1), np.array(pts))
    assert np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)) <= 1e-10


def test_twistor_bad_kind(tmp_path):
    cfg = write_cfg(tmp_path, "tw.json", {
        "twistor": {"u": {"type": "nope"}}, "points": [[0, 0, 0]]})
    assert main(["twistor", "eval", cfg]) == 2


def test_axis_ray_refused(tmp_path, capsys):
    # the Lundquist transforms diverge along the cylinder axis
    rays = [{"theta": [1, 0, 0], "foot": [0, 0.5, 0]},
            {"theta": [0, 0, 1], "foot": [0.2, 0.1, 0]}]
    for kind in ("xray", "divbeam", "ytrf"):
        out = tmp_path / f"{kind}.csv"
        cfg = write_cfg(tmp_path, f"{kind}.json",
                        {"field": LUND_FIELD, "rays": rays, "output": str(out)})
        assert main([kind, cfg]) == 2
        assert "rays[1]: DegenerateRay" in capsys.readouterr().err
        assert not out.exists()
    # along a plane wave's wave front X is a delta and D and Y diverge like
    # 1/(kappa0.theta)
    out = tmp_path / "pw.csv"
    cfg = write_cfg(tmp_path, "pw.json", {
        "field": {"type": "plane_wave", "k0": 1.3, "kappa0": [0, 0, 1], "lambda": 1},
        "rays": [{"theta": [1, 0, 0], "foot": [0, 0.5, 0.2]}], "output": str(out)})
    for kind in ("xray", "divbeam", "ytrf"):
        assert main([kind, cfg]) == 2
        assert "rays[0]: SingularDirection" in capsys.readouterr().err
        assert not out.exists()


def test_contour_pole_refused(tmp_path, capsys):
    out = tmp_path / "tw.csv"
    cfg = write_cfg(tmp_path, "tw.json", {
        "twistor": {"u": {"type": "eta_power_over_omega", "n": 1, "m": 1, "omega0": [1, 0]}},
        "points": [[0.1, 0.2, 0.3], [0.4, 0.0, -0.2]], "output": str(out)})
    assert main(["twistor", "eval", cfg]) == 2
    assert "twistor.u: PoleOnContour" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_contour_refused(tmp_path, capsys):
    # a pole just outside the contour: the trapezoid error decays like
    # pole^-n, so at 4096 nodes the value is off by about 0.2 at 1.001 and
    # good to about 1e-13 at 1.01
    x = np.array([0.3, -0.2, 0.4])
    out = tmp_path / "tw.csv"

    def run(pole):
        u = {"type": "eta_power_over_omega", "n": 0, "m": 1, "omega0": [pole, 0]}
        return main(["twistor", "eval", write_cfg(tmp_path, "tw.json", {
            "twistor": {"u": u, "phase": "F2", "k": 1}, "points": [x.tolist()],
            "output": str(out)})])

    assert run(1.001) == 2
    assert "points[0]: NonConvergence" in capsys.readouterr().err
    assert not out.exists()
    assert run(1.01) == 0
    row = np.genfromtxt(out, delimiter=",", skip_header=1)
    from beltrami import twistor as tw
    w = tw.ContourSpec().nodes(1 << 16)
    g = tw.null_vector(w) * (tw._phase_values("F2", 1.0, x, w) / (w - 1.01))[:, None]
    want = (2j * np.pi / len(w)) * (w @ g)
    assert np.max(np.abs(row[3::2] + 1j * row[4::2] - want)) <= 1e-12 * np.max(np.abs(want))


def test_contour_checked_from_the_cap(tmp_path, capsys):
    # a contour_n at the 4096-node cap still doubles once, so its value has an
    # error estimate: the pole at 1.001 is refused, not printed off by 0.2
    out = tmp_path / "tw.csv"
    u = {"type": "eta_power_over_omega", "n": 1, "m": 1, "omega0": [1.001, 0]}
    cfg = write_cfg(tmp_path, "tw.json", {
        "twistor": {"u": u, "phase": "F2", "k": 1}, "points": [[0.3, -0.2, 0.4]],
        "quadrature": {"contour_n": 4096}, "output": str(out)})
    assert main(["twistor", "eval", cfg]) == 2
    assert "points[0]: NonConvergence" in capsys.readouterr().err
    assert not out.exists()


BATCHED_FIELDS = {
    "moses-p": MOSES_FIELD,
    "moses-m": dict(MOSES_FIELD, **{"lambda": -1}),
    "lundquist-p": {"type": "lundquist", "F0": [0.7, -0.3], "nu": 1.1, "lambda": 1},
    "lundquist-m": {"type": "lundquist", "F0": [0.7, -0.3], "nu": 1.1, "lambda": -1},
    "plane-wave": {"type": "plane_wave", "k0": 1.3, "kappa0": [0.3, -0.5, 0.8], "lambda": 1},
    # the damped route: one field call on the stacked nodes of several rays
    "spheromak": {"type": "spheromak", "F0": [0.8, 0.3], "k": 1.1},
    "ck_cylindrical": {"type": "ck_cylindrical", "m": 2, "nu": 1.1},
    "generalized_lundquist": {"type": "generalized_lundquist", "sigma": 1.1},
}


@pytest.mark.parametrize("field", sorted(BATCHED_FIELDS))
def test_beam_rows_do_not_depend_on_batching(tmp_path, field):
    # every closed-form and transform-space beam takes all rays in one call,
    # each from its own foot, and the damped route evaluates the field on the
    # nodes of several rays at once; each row must keep the bytes of its ray run alone,
    # the last six too, which share their foot (the origin, as every foot is
    # projected normal to its theta) and their theta_z
    rng = np.random.default_rng(12)
    th = np.array([0.6, -0.3, 0.5]) / np.linalg.norm([0.6, -0.3, 0.5])
    foot = [0.2, 0.7, -0.1]
    rays = [{"theta": t.tolist(), "foot": f.tolist()}
            for t, f in zip(rng.standard_normal((25, 3)), rng.standard_normal((25, 3)))]
    rays += [{"theta": [0.6, 0.8, 0.0], "foot": [0.3, -0.4, 0.5]},   # theta_z = 0
             {"theta": th.tolist(), "foot": foot},                  # one theta, two feet
             {"theta": th.tolist(), "foot": [-0.5, 0.1, 0.4]},
             {"theta": (-th).tolist(), "foot": foot},               # -theta, one foot
             {"theta": [0.0, 0.0, 1.0], "foot": foot} if field.startswith("moses")
             else {"theta": [0.3, 0.2, -0.9], "foot": foot}]
    rays += [{"theta": [np.sqrt(1 - 0.37**2) * np.cos(a), np.sqrt(1 - 0.37**2) * np.sin(a), 0.37],
              "foot": [0.0, 0.0, 0.0]} for a in rng.uniform(0, 2 * np.pi, 6)]
    quad = {"circle_n": 32, "pv_u": 8, "pv_psi": 16}

    def rows(kind, items):
        out = tmp_path / "rows.csv"
        cfg = write_cfg(tmp_path, "rows.json", {"field": BATCHED_FIELDS[field], "rays": items,
                                                "quadrature": quad, "output": str(out)})
        assert main([kind, cfg]) == 0
        return out.read_text().splitlines()[1:]

    for kind in ("xray", "divbeam", "ytrf"):
        assert rows(kind, []) == []
        batch = rows(kind, rays)
        assert len(batch) == 36
        for i, ray in enumerate(rays):
            assert rows(kind, [ray]) == [batch[i]], (kind, i)


def test_invert_spherical_mean_cli(tmp_path):
    cfg = write_cfg(tmp_path, "inv.json", {
        "field": {"type": "lundquist", "F0": [1.0, 0.0], "nu": 1.0, "lambda": 1},
        "points": [[0.4, 0.1, -0.2]],
        "quadrature": {"sphere_alpha": 48, "sphere_psi": 96},
        "output": str(tmp_path / "inv.csv")})
    assert main(["invert", "spherical-mean", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "inv.csv", delimiter=",", skip_header=1)
    from beltrami.fields import Lundquist, eval_field
    want = eval_field(Lundquist(F0=1.0, nu=1.0, lam=1), rows[:3])
    got = rows[3::2] + 1j * rows[4::2]
    assert np.linalg.norm(got - want) <= 1e-6


def test_check_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "chk.json", {
        "seed": 7, "output": str(tmp_path / "rep.json")})
    assert main(["check", "john", cfg]) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["summary"]["failed"] == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "summary" in out
    # force a failure through a tolerance override
    cfg2 = write_cfg(tmp_path, "chk2.json", {
        "seed": 7, "tolerances": {"john/mixed-partials": 1e-12}})
    assert main(["check", "john", cfg2]) == 1


def test_check_tolerance_overrides_visible(tmp_path, capsys):
    out = tmp_path / "rep.json"
    cfg = write_cfg(tmp_path, "chk.json", {
        "seed": 7, "output": str(out), "tolerances": {"john/x-div": 0.5}})
    assert main(["check", "john", cfg]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["john/x-div"]["tolerance_source"] == "config"
    assert float(checks["john/x-div"]["tolerance"]) == 0.5
    assert {c["tolerance_source"] for n, c in checks.items() if n != "john/x-div"} == {"default"}
    assert "john/x-div residual=" in capsys.readouterr().out
    # a name no check of the suite carries is refused, not ignored
    out.unlink()
    cfg = write_cfg(tmp_path, "bad.json", {
        "seed": 7, "output": str(out), "tolerances": {"john/mixed-partial": 1.0}})
    assert main(["check", "john", cfg]) == 2
    assert "tolerances.john/mixed-partial: unknown check" in capsys.readouterr().err
    assert not out.exists()


def test_integrand_json_roundtrip():
    from beltrami.cli import _twistor_spec
    from beltrami.twistor import (EtaPowerOverOmega, HolomorphicOfEta, IntegrandSpec,
                                  LaurentInOmegaPrime, LundquistKernel, RawLaurent)
    cases = [
        ({"u": {"type": "eta_power_over_omega", "n": 2, "m": 1, "omega0": [0.1, -0.2]},
          "phase": "F1", "k": 1.1},
         IntegrandSpec(u=EtaPowerOverOmega(n=2, m=1, omega0=0.1 - 0.2j), phase="F1", k=1.1)),
        ({"u": {"type": "holomorphic_of_eta", "coefficients": [[1.0, 0.0], [0.0, -0.5]],
                "denominator_power": 2}, "phase": "F1", "k": 0.9},
         IntegrandSpec(u=HolomorphicOfEta(coefficients=(1.0, -0.5j), denominator_power=2),
                       phase="F1", k=0.9)),
        ({"u": {"type": "laurent_in_omega_prime", "n": 3}, "phase": "F2", "k": 1.3},
         IntegrandSpec(u=LaurentInOmegaPrime(n=3), phase="F2", k=1.3)),
        ({"u": {"type": "lundquist_kernel", "nu": 0.8}, "phase": "F1", "k": 0.8},
         IntegrandSpec(u=LundquistKernel(nu=0.8), phase="F1", k=0.8)),
        ({"u": {"type": "raw_laurent", "table": [[-2, [1.0, 0.5]], [1, [-0.25, 0.0]]]},
          "phase": "F2", "k": 1.0},
         IntegrandSpec(u=RawLaurent(table=((-2, 1.0 + 0.5j), (1, -0.25))), phase="F2", k=1.0)),
    ]
    for obj, spec in cases:
        back = _twistor_spec({"twistor": obj})
        assert back == spec


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD, "grid": {"origin": [0, 0, 0],
                                      "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      "counts": [1, 1, 1]},
        "output": str(tmp_path / "o.csv")})
    proc = subprocess.run([sys.executable, "-m", "beltrami.cli",
                           "field", "sample", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def _scaled_rows(rng, n):
    """n rows (n, 3) of random entries at scales 1, 10^U(-6, 6), 1e-300 and 1e300, about
    one entry in eight +0.0 or -0.0."""
    scale = rng.choice([1.0, 1e-300, 1e300, 0.0], n, p=[0.4, 0.15, 0.15, 0.3])
    scale = np.where(scale == 0.0, 10.0 ** rng.uniform(-6, 6, n), scale)
    rows = rng.standard_normal((n, 3)) * scale[:, None]
    zeros = rng.random((n, 3)) < 0.125
    rows[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return rows


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _refusal(fn, *args):
    """The message of the ConfigError or ValueError fn(*args) raises, None if none."""
    from beltrami.fields import ConfigError
    try:
        fn(*args)
    except (ConfigError, ValueError) as e:
        return str(e)
    return None


def test_batch_parsing_keeps_each_row_bits():
    # rays, planes, funk directions and points are parsed as (N, 3) arrays with
    # one vectorized validation; each accepted row must keep the bits of the
    # per-row code (Ray.through, Plane, d / np.linalg.norm(d), the row itself), and
    # a batch holding refused rows must name the first, with the per-row message
    from beltrami import cli
    from beltrami.geometry import Plane, Ray
    rng = np.random.default_rng(21)
    n = 1600
    thetas, feet, kappas, points = (_scaled_rows(rng, n) for _ in range(4))
    feet[::3] = thetas[::3] * rng.standard_normal((len(thetas[::3]), 1))  # along theta
    ps = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    ps[:8] = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0]

    def ray(t, f):
        r = Ray.through(t, f)
        return r.theta, r.foot

    def direction(d):
        nrm = np.linalg.norm(d)
        if not np.isfinite(nrm):
            raise ValueError("cannot normalize a vector whose norm is not finite")
        if nrm < 1e-12:
            raise ValueError("cannot normalize a near-zero vector")
        return d / nrm

    cases = {
        "rays": ([{"theta": t.tolist(), "foot": f.tolist()} for t, f in zip(thetas, feet)],
                 [lambda i=i: ray(thetas[i], feet[i]) for i in range(n)],
                 lambda rows: cli._rays({"rays": rows})),
        "planes": ([{"p": float(p), "kappa": k.tolist()} for p, k in zip(ps, kappas)],
                   [lambda i=i: (Plane(ps[i], kappas[i]).p, Plane(ps[i], kappas[i]).kappa)
                    for i in range(n)],
                   lambda rows: cli._planes({"planes": rows})),
        "directions": ([k.tolist() for k in kappas], [lambda i=i: direction(kappas[i])
                                                      for i in range(n)],
                       lambda rows: cli._directions({"directions": rows})),
        "points": ([p.tolist() for p in points], [lambda i=i: points[i] for i in range(n)],
                   lambda rows: cli._grid_points({"points": rows})),
    }
    with np.errstate(all="ignore"):
        for key, (rows, one, batch) in cases.items():
            refused = [_refusal(f) for f in one]
            good = [i for i in range(n) if refused[i] is None]
            assert len(good) >= 1000, key
            got = batch([rows[i] for i in good])
            want = [one[i]() for i in good]
            for part, got_part in enumerate(got if isinstance(got, tuple) else (got,)):
                want_part = [w[part] for w in want] if isinstance(got, tuple) else want
                assert _same_bits(got_part, np.array(want_part)), (key, part)
            first = next((i for i in range(n) if refused[i] is not None), None)
            if first is not None:
                assert _refusal(batch, rows) == f"{key}[{first}]: {refused[first]}", key


def test_csv_numbers_are_format_17g():
    # one "%.17g,..." format per row prints each number as format(v, ".17g")
    from beltrami.cli import _csv
    special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, 0.1]
    rng = np.random.default_rng(4)
    inputs = np.array([rng.permutation(special)[:3] for _ in range(8)])
    parts = np.array([rng.permutation(special) for _ in range(8)])
    values = np.array([[complex(a, b) for a, b in zip(row[::2], row[1::2])] for row in parts])
    lines = _csv("h", "rows", inputs, values)
    assert lines[0] == "h"
    for line, a, v in zip(lines[1:], inputs, parts):
        assert line == ",".join(format(float(x), ".17g") for x in [*a, *v])
    assert _csv("h", "rows", np.empty((0, 3)), np.empty((0, 3), complex)) == ["h"]


OK_RAY = {"theta": [0.6, 0.0, 0.8], "foot": [0.0, 0.5, 0.0]}
ZERO_THETA = {"theta": [0.0, 0.0, 0.0], "foot": [0.0, 1.0, 0.0]}
SHORT_FOOT = {"theta": [1.0, 0.0, 0.0], "foot": [1.0, 2.0]}
FAR_FOOT = {"theta": [0.6, 0.3, 0.74], "foot": [1e12, 3e11, -2e12]}
OK_PLANE = {"p": 0.2, "kappa": [0.0, 0.6, 0.8]}
ZERO_KAPPA = {"p": 0.1, "kappa": [0, 0, 0]}
TEXT_P = {"p": "x", "kappa": [0, 0, 1]}
HUGE_KAPPA = {"p": 0.1, "kappa": [1e200, 0, 0]}   # its squared norm overflows
REFUSALS = {
    "rays-theta-then-foot": (["xray"], "rays", [OK_RAY, ZERO_THETA, SHORT_FOOT],
                             "rays[1]: cannot normalize a near-zero vector"),
    "rays-foot-then-theta": (["xray"], "rays", [OK_RAY, SHORT_FOOT, ZERO_THETA],
                             "rays[1].foot: expected a list of 3 entries"),
    "rays-far-foot": (["xray"], "rays", [OK_RAY, FAR_FOOT, ZERO_THETA],
                      "rays[1]: ray foot point is not orthogonal to its direction"),
    "rays-far-foot-later": (["ytrf"], "rays", [OK_RAY, {"theta": [0.6, 0.0, 0.8]}, FAR_FOOT],
                            "rays[1].foot: missing"),
    "rays-not-objects": (["divbeam"], "rays", [OK_RAY, ZERO_THETA, 5],
                         "rays[2]: expected an object"),
    "planes-kappa-then-p": (["radon"], "planes", [OK_PLANE, ZERO_KAPPA, TEXT_P],
                            "planes[1]: cannot normalize a near-zero vector"),
    "planes-p-then-kappa": (["radon"], "planes", [OK_PLANE, TEXT_P, ZERO_KAPPA],
                            "planes[1].p: expected a finite number"),
    "planes-overflow": (["radon"], "planes", [OK_PLANE, HUGE_KAPPA, ZERO_KAPPA],
                        "planes[1]: cannot normalize a vector whose norm is not finite"),
    "rays-overflow": (["xray"], "rays", [OK_RAY, dict(OK_RAY, theta=[0, 1e200, 0]), ZERO_THETA],
                      "rays[1]: cannot normalize a vector whose norm is not finite"),
    # directions and points are all read before any is checked
    "directions-zero-then-malformed": (["funk"], "directions", [[1, 0, 0], [0, 0, 0], [1, 2]],
                                       "directions[2]: expected a list of 3 entries"),
    "directions-malformed-then-zero": (["funk"], "directions", [[1, 0, 0], [1, 2], [0, 0, 0]],
                                       "directions[1]: expected a list of 3 entries"),
    "directions-zero": (["funk"], "directions", [[1, 0, 0], [0, 0, 0], [0, 1e-13, 0]],
                        "directions[1]: cannot normalize a near-zero vector"),
    "directions-overflow": (["funk"], "directions", [[1, 0, 0], [1e200, 0, 0], [0, 0, 0]],
                            "directions[1]: cannot normalize a vector whose norm is not finite"),
    "points-bool-then-short": (["field", "sample"], "points", [[0, 0, 0], [1, True, 0], [1, 2]],
                               "points[1][1]: expected a finite number"),
    "points-short-then-bool": (["field", "sample"], "points", [[0, 0, 0], [1, 2], [1, True, 0]],
                               "points[1]: expected a list of 3 entries"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_lowest_bad_row_refused(tmp_path, capsys, case):
    # the rows are parsed and validated as arrays; the refusal still names the
    # lowest row that fails, with the message and the check order of a row-by-row read
    argv, key, rows, message = REFUSALS[case]
    obj = {"field": MOSES_FIELD if key == "planes" else LUND_FIELD,
           "spherical_data": {"lmax": 1, "coeffs": MOSES_FIELD["coeffs"][:4]}, key: rows}
    out = tmp_path / "out.csv"
    assert main(argv + [write_cfg(tmp_path, "cfg.json", dict(obj, output=str(out)))]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["lundquist-p", "moses-p", "spheromak", "ck_cylindrical"])
def test_no_rays_print_the_header(tmp_path, field):
    # no ray builds a damped rule, so even panels_per_period 2 prints the header
    for quad in ({}, {"panels_per_period": 2}, {"circle_n": 8, "pv_u": 4, "pv_psi": 8}):
        for kind in ("xray", "divbeam", "ytrf"):
            out = tmp_path / "rows.csv"
            cfg = write_cfg(tmp_path, "rows.json", {"field": BATCHED_FIELDS[field], "rays": [],
                                                    "quadrature": quad, "output": str(out)})
            assert main([kind, cfg]) == 0
            assert out.read_text() == ("theta_x,theta_y,theta_z,foot_x,foot_y,foot_z,"
                                       "re_Fx,im_Fx,re_Fy,im_Fy,re_Fz,im_Fz\n")


# Per integrand: its keys, its phase and the largest point radius.  Points
# near the origin converge at 128 nodes, the farthest at 256 to 4096.
TWISTOR_BATCHES = {
    "eta_power_over_omega": ({"n": 2, "m": 1, "omega0": [0.2, -0.1]}, "F1", 8.0),
    "holomorphic_of_eta": ({"coefficients": [[0.5, 0.2], [1.0, 0.0], [0.0, -0.3]],
                            "denominator_power": 2}, "F1", 8.0),
    "laurent_in_omega_prime": ({"n": 2}, "F1", 12.0),
    "lundquist_kernel": ({"nu": 1.1}, "F2", 10.0),
    "raw_laurent": ({"table": [[-2, [0.6, 1.0]], [-1, [0.3, 0.0]], [1, [0.0, 0.25]]]}, "F1", 10.0),
}


@pytest.mark.parametrize("kind", sorted(TWISTOR_BATCHES))
def test_twistor_rows_do_not_depend_on_batching(tmp_path, monkeypatch, kind):
    # twistor eval integrates every point in one batch, each point stopping at
    # its own node count; each row must keep the bytes of its point run alone
    # and of the point as x (3,), also when the batch is cut into blocks of
    # three points
    import beltrami.twistor as tw
    assert set(TWISTOR_BATCHES) == set(tw.INTEGRANDS)
    keys, phase, r_max = TWISTOR_BATCHES[kind]
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (dirs * rng.permutation(np.geomspace(0.05, r_max, 32))[:, None]).tolist()
    counts = []
    nodes = tw.ContourSpec.nodes
    monkeypatch.setattr(tw.ContourSpec, "nodes",
                        lambda self, n=None: counts.append(n or self.N) or nodes(self, n))

    def rows(items):
        counts.clear()
        out = tmp_path / "tw.csv"
        cfg = write_cfg(tmp_path, "tw.json", {"twistor": {"u": dict(keys, type=kind),
                                                          "phase": phase, "k": 1.1},
                                              "points": items, "output": str(out)})
        assert main(["twistor", "eval", cfg]) == 0
        return out.read_text().splitlines()[1:], max(counts)

    batch, _ = rows(pts)
    assert len(batch) == 32
    from beltrami.cli import POINT_HEADER, _csv, _twistor_spec
    spec = _twistor_spec({"twistor": {"u": dict(keys, type=kind), "phase": phase, "k": 1.1}})
    alone = [tw.trkalian_from_twistor(spec, np.array(p)) for p in pts]    # x (3,)
    assert _csv(POINT_HEADER, "points", np.array(pts), alone)[1:] == batch
    tops = []
    for i, p in enumerate(pts):
        one, top = rows([p])
        assert one == [batch[i]], i
        tops.append(top)
    assert min(tops) == 128 and max(tops) >= 256, tops
    monkeypatch.setattr(tw, "CONTOUR_BLOCK", 3 * 4096)
    assert rows(pts)[0] == batch


def test_twistor_batch_refuses_its_first_unconverged_point(tmp_path, capsys):
    # u = eta/(omega - 1.001): the pole just outside the contour has the residue
    # eta(x, 1.001), which vanishes on the curve y = 0, z = x (1.001^2 - 1)/2.002.
    # Points on it converge, a point off it does not
    def on(a):
        return [a, 0.0, a * (1.001**2 - 1) / 2.002]
    out = tmp_path / "tw.csv"

    def run(pts):
        return main(["twistor", "eval", write_cfg(tmp_path, "tw.json", {
            "twistor": {"u": {"type": "eta_power_over_omega", "n": 1, "m": 1,
                              "omega0": [1.001, 0]}, "phase": "F2", "k": 1},
            "points": pts, "output": str(out)})])

    good = [on(0.3), on(0.5), on(-0.4), on(0.8), on(1.2)]
    assert run(good) == 0
    assert len(out.read_text().splitlines()) == 6
    out.unlink()
    for bad in ([good[:3] + [[0.3, -0.2, 0.4]] + good[3:]],
                [good[:3] + [[0.3, -0.2, 0.4], [0.5, 0.1, -0.3]] + good[3:]]):
        assert run(bad[0]) == 2
        assert "config error: points[3]: NonConvergence: " in capsys.readouterr().err
        assert not out.exists()


def test_benchmark_surface_imports(tmp_path):
    # perfbench/layers.py wraps toolkit functions by name and reads the
    # BeamFunction fields, so a deleted name or a changed signature breaks the
    # traced benchmark run at its first call: one tiny CLI call per traced
    # layer, on 4x8 sphere, 4x8 PV and 8-node circle rules.  instrument()
    # patches the modules for the life of the process, hence the subprocess
    quad = {"circle_n": 8, "pv_u": 4, "pv_psi": 8, "sphere_alpha": 4, "sphere_psi": 8,
            "contour_n": 8}
    moses = {"type": "moses_band_limited", "nu": 1.0, "lambda": 1, "lmax": 1,
             "coeffs": [[0.5, 0.1], [0.2, -0.3], [0.4, 0.0], [-0.1, 0.2]]}
    ray = {"rays": [{"theta": [0.6, 0.0, 0.8], "foot": [0.0, 0.5, 0.0]}]}
    point = {"points": [[0.1, 0.2, 0.3]]}
    rays = {"rays": [ray["rays"][0], {"theta": [0.0, 0.6, 0.8], "foot": [0.3, 0.0, 0.0]},
                     {"theta": [0.8, 0.0, -0.6], "foot": [0.0, -0.2, 0.0]}]}
    points = {"points": [[0.1, 0.2, 0.3], [0.5, -0.4, 0.2], [-1.2, 0.3, 0.7]]}
    spheromak = {"type": "spheromak", "F0": [1.0, 0.0], "k": 1.0}
    calls = [(["field", "sample"], dict(point, field=moses)),
             (["xray"], dict(ray, field=spheromak)),
             (["xray"], dict(rays, field=spheromak)),
             (["twistor", "eval"], dict(points, twistor={"u": {"type": "lundquist_kernel"}})),
             (["radon"], {"field": moses, "planes": [{"p": 0.2, "kappa": [0.0, 0.6, 0.8]}]}),
             (["funk"], {"spherical_data": {"lmax": 1, "coeffs": moses["coeffs"]},
                         "directions": [[0.0, 0.6, 0.8]]}),
             (["twistor", "eval"], dict(point, twistor={"u": {"type": "lundquist_kernel"}}))]
    for field in (LUND_FIELD, moses):
        calls += [([kind], dict(ray, field=field)) for kind in ("xray", "divbeam", "ytrf")]
        calls += [(["invert", mode], dict(point, field=field))
                  for mode in ("spherical-mean", "grangeat", "gg")]
    argvs = [argv + [write_cfg(tmp_path, f"{i}.json", dict(obj, quadrature=quad,
                                                           output=str(tmp_path / f"{i}.csv")))]
             for i, (argv, obj) in enumerate(calls)]
    script = ("import json, sys, layers, workloads\n"
              "tracer = layers.Tracer()\n"
              "layers.instrument(tracer)\n"
              "import beltrami.cli as cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              "print(' '.join(sorted(tracer.self_times())))\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) >= {
        "cli.self", "fields.eval", "harmonics.synth", "inversion.beam",
        "inversion.mean", "rays.damped", "rays.extfunk", "rays.funk_route", "rays.series",
        "sphere.funk", "twistor.eval"}, proc.stdout


def test_benchmark_untimed_part_runs(tmp_path):
    # perfbench/run.py evaluates every row's reference, re-runs each
    # `field sample` / `twistor eval` command for its output bytes and makes
    # every probe call (an axis ray of a closed form, say) before it times
    # anything; an exception there ends the run.  Two workloads at one seed
    # cover every reference kind, every such command and every probe
    script = ("import os, sys, workloads\n"
              "import beltrami.cli as cli\n"
              "for name in ('closed_form', 'helical_rays'):\n"
              "    w = workloads.build(name, 5, os.path.join(sys.argv[1], name))\n"
              "    for c in w.commands + w.probes:\n"
              "        if c.reference is not None:\n"
              "            c.reference()\n"
              "        if c.known is not None and c.known.reference is not None:\n"
              "            c.known.reference()\n"
              "        if c.threads_probe:\n"
              "            assert cli.main(c.argv) == 0, c.name\n"
              "            assert os.path.isfile(c.output), c.name\n"
              "    for c in w.probes:\n"
              "        assert cli.main(c.argv) in (0, 2), c.name\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


TWISTOR_OK = {"u": {"type": "eta_power_over_omega", "n": 1, "m": 1, "omega0": [0.1, 0.2]},
              "phase": "F1", "k": 1.0}


def _u(**keys):
    return {"twistor": dict(TWISTOR_OK, u=dict(TWISTOR_OK["u"], **keys))}


MALFORMED = {
    "lambda-fraction": ({"field": dict(LUND_FIELD, **{"lambda": 1.7})},
                        "field.lambda: expected +1 or -1"),
    "lambda-bool": ({"field": dict(LUND_FIELD, **{"lambda": True})},
                    "field.lambda: expected +1 or -1"),
    "m-fraction": ({"field": {"type": "ck_cylindrical", "m": 2.5, "nu": 1.0}},
                   "field.m: expected an integer"),
    "m-bool": ({"field": {"type": "ck_cylindrical", "m": True, "nu": 1.0}},
               "field.m: expected an integer"),
    "nu-nan": ({"field": dict(LUND_FIELD, nu=float("nan"))}, "field.nu: expected a finite number"),
    "nu-inf": ({"field": dict(LUND_FIELD, nu=float("inf"))}, "field.nu: expected a finite number"),
    "nu-bool": ({"field": dict(LUND_FIELD, nu=True)}, "field.nu: expected a finite number"),
    "nu-missing": ({"field": {"type": "lundquist", "lambda": 1}}, "field.nu: missing"),
    # a subnormal or non-positive eigenvalue overflows every row: refused at its key
    "nu-subnormal": ({"field": dict(LUND_FIELD, nu=1e-320)},
                     "field.nu: expected a positive normal number"),
    "nu-zero": ({"field": dict(LUND_FIELD, nu=0)}, "field.nu: expected a positive normal number"),
    "field-list": ({"field": [1, 2]}, "field: expected an object"),
    "lmax-negative": ({"field": dict(MOSES_FIELD, lmax=-1)},
                      "field.lmax: expected an integer >= 0"),
    "lmax-above-16": ({"field": dict(MOSES_FIELD, lmax=17)}, "field.lmax: at most 16"),
    "u-n-fraction": (_u(n=1.5), "twistor.u.n: expected an integer"),
    "u-m-bool": (_u(m=True), "twistor.u.m: expected an integer"),
    "u-omega0-nan": (_u(omega0=[float("nan"), 0.0]),
                     "twistor.u.omega0[0]: expected a finite number"),
    "u-nu-inf": ({"twistor": {"u": {"type": "lundquist_kernel", "nu": float("inf")}}},
                 "twistor.u.nu: expected a finite number"),
    "u-n-missing": ({"twistor": {"u": {"type": "laurent_in_omega_prime"}}},
                    "twistor.u.n: missing"),
    "twistor-list": ({"twistor": [1, 2]}, "twistor: expected an object"),
    "points-nan": ({"field": LUND_FIELD, "points": [[0.1, float("nan"), 0.3]]},
                   "points[0][1]: expected a finite number"),
    "contour_n-fraction": ({"twistor": TWISTOR_OK, "quadrature": {"contour_n": 8.5}},
                           "quadrature.contour_n: expected an integer >= 1"),
    "contour_n-small": ({"twistor": TWISTOR_OK, "quadrature": {"contour_n": 4}},
                        "quadrature.contour_n: contour needs at least 8 nodes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_keys_refused(tmp_path, capsys, case):
    # every parse error exits 2 with its key path and writes no CSV
    obj, message = MALFORMED[case]
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, "cfg.json", {"points": [[0.1, 0.2, 0.3]], **obj, "output": str(out)})
    argv = ["field", "sample", cfg] if "field" in obj else ["twistor", "eval", cfg]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Warning" not in err
    assert not out.exists()


NON_FINITE = {
    # eta^200 overflows on the contour at |x| = 700
    "twistor-far": (["twistor", "eval"], {
        "twistor": {"u": {"type": "eta_power_over_omega", "n": 200}, "phase": "F1", "k": 1.1},
        "points": [[0.1, 0.2, 0.3], [700.0, 0.0, 0.0]]}, "points[1]"),
    # a normal but tiny nu: the amplitude F0/(nu v_r) overflows
    "lundquist-tiny-nu": (["xray"], {
        "field": dict(LUND_FIELD, F0=[1e10, 0.0], nu=1e-300),
        "rays": [{"theta": [0.6, 0.0, 0.8], "foot": [0.0, 1.0, 0.0]}]}, "rays[0]"),
    # on the damped route: a spheromak row is F0/k times the k = 1 row at k foot,
    # here about 1e310
    "spheromak-damped": (["xray"], {
        "field": {"type": "spheromak", "F0": [1e300, 0.0], "k": 1e-10},
        "rays": [{"theta": [0.6, 0.0, 0.8], "foot": [0.0, 1.0, 0.0]}]}, "rays[0]"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_rows_refused(tmp_path, capsys, case):
    argv, obj, key = NON_FINITE[case]
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, "cfg.json", dict(obj, output=str(out)))
    with np.errstate(all="ignore"):
        assert main(argv + [cfg]) == 2
    assert f"config error: {key}: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_refused(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    for path in (bad, tmp_path):
        assert main(["check", "john", str(path)]) == 2
        assert f"config error: config: cannot read {path}: " in capsys.readouterr().err


def test_bad_output_refused(tmp_path, capsys, monkeypatch):
    import beltrami.checks as checks
    missing = tmp_path / "no" / "out.csv"
    for output, message in ((["a"], "output: expected a file path"),
                            ("", "output: expected a file path"),
                            (str(missing), f"output: cannot write {missing}: ")):
        cfg = write_cfg(tmp_path, "o.json", {"field": LUND_FIELD, "points": [[0.1, 0.2, 0.3]],
                                             "output": output})
        assert main(["field", "sample", cfg]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    # check reads its output key before it runs a suite
    monkeypatch.setitem(checks.SUITES, "john",
                        lambda seed: pytest.fail("the suite ran before output was read"))
    assert main(["check", "john", write_cfg(tmp_path, "c.json", {"output": 7})]) == 2
    assert "config error: output: expected a file path" in capsys.readouterr().err


def test_planewave_ytrf_closed_form(tmp_path):
    from beltrami.geometry import Ray
    from beltrami.rays import ytransform_planewave_closed
    rng = np.random.default_rng(5)
    kappa0 = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    thetas = rng.standard_normal((40, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    thetas = thetas[np.abs(thetas @ kappa0) > 1e-3]
    rays = [{"theta": t.tolist(), "foot": rng.standard_normal(3).tolist()} for t in thetas]
    for lam in (1, -1):
        field = {"type": "plane_wave", "k0": 1.3, "kappa0": kappa0.tolist(), "lambda": lam}
        cfg = write_cfg(tmp_path, "pw.json", {"field": field, "rays": rays,
                                              "output": str(tmp_path / "pw.csv")})
        assert main(["ytrf", cfg]) == 0
        rows = np.genfromtxt(tmp_path / "pw.csv", delimiter=",", skip_header=1)
        assert len(rows) == len(rays)
        for row in rows:
            want = ytransform_planewave_closed(Ray(theta=row[:3], foot=row[3:6]), 1.3, kappa0, lam)
            got = row[6::2] + 1j * row[7::2]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_planewave_xray_divbeam_closed_form(tmp_path):
    # off the wave fronts X = 0 and D = i e^{i k0 kappa0.x} Q/(k0 kappa0.theta)
    from beltrami.fields import moses_q
    rng = np.random.default_rng(5)
    kappa0 = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    thetas = rng.standard_normal((80, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    thetas = thetas[np.abs(thetas @ kappa0) >= 0.05][:40]
    rays = [{"theta": t.tolist(), "foot": rng.standard_normal(3).tolist()} for t in thetas]
    assert len(rays) == 40
    for lam in (1, -1):
        field = {"type": "plane_wave", "k0": 1.3, "kappa0": kappa0.tolist(), "lambda": lam}
        for cmd in ("xray", "divbeam"):
            cfg = write_cfg(tmp_path, "pw.json", {"field": field, "rays": rays,
                                                  "output": str(tmp_path / "pw.csv")})
            assert main([cmd, cfg]) == 0
            rows = np.genfromtxt(tmp_path / "pw.csv", delimiter=",", skip_header=1)
            assert len(rows) == len(rays)
            if cmd == "xray":
                assert np.all(rows[:, 6:] == 0.0)
                continue
            got = rows[:, 6::2] + 1j * rows[:, 7::2]
            want = 1j * np.exp(1.3j * (rows[:, 3:6] @ kappa0)) / (1.3 * (rows[:, :3] @ kappa0))
            want = want[:, None] * moses_q(kappa0, lam)
            assert np.max(np.linalg.norm(got - want, axis=1) /
                          np.linalg.norm(want, axis=1)) <= 1e-12, lam


@pytest.mark.parametrize("field", [{"type": "spheromak", "F0": [0.8, 0.3], "k": 1.1},
                                   {"type": "ck_cylindrical", "m": 2, "nu": 1.1},
                                   {"type": "generalized_lundquist", "sigma": 1.1}],
                         ids=lambda f: f["type"])
def test_damped_ytrf_is_difference_of_half_lines(tmp_path, field):
    # the damped Y is D(theta) - D(-theta) on the mirrored half-line nodes, so
    # the sign change of its integrand falls on a panel edge
    from beltrami.fields import eigenvalue, eval_field, spec_from_json
    from beltrami.geometry import Ray
    from beltrami.rays import OscillatoryLineQuadrature, dbeam_numeric
    rng = np.random.default_rng(3)
    thetas = rng.standard_normal((40, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    thetas = thetas[np.hypot(thetas[:, 0], thetas[:, 1]) >= 0.2][:12]
    rays = [{"theta": t.tolist(), "foot": rng.standard_normal(3).tolist()} for t in thetas]
    assert len(rays) == 12
    cfg = write_cfg(tmp_path, "y.json", {"field": field, "rays": rays,
                                         "output": str(tmp_path / "y.csv")})
    assert main(["ytrf", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "y.csv", delimiter=",", skip_header=1)
    spec = spec_from_json(field)
    fld = lambda p: eval_field(spec, p)
    for row in rows:
        th, foot = row[:3], row[3:6]
        lcfg = OscillatoryLineQuadrature(nu_scale=abs(eigenvalue(spec)) * np.hypot(*th[:2]),
                                         panels_per_period=32)
        want = (dbeam_numeric(fld, Ray(theta=th, foot=foot), lcfg).value -
                dbeam_numeric(fld, Ray(theta=-th, foot=foot), lcfg).value)
        got = row[6::2] + 1j * row[7::2]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_eigenvalue_on_the_damped_route(tmp_path, capsys):
    # every ray shares one unit rule scaled by 1/nu_scale, so an eigenvalue of
    # 1e-160 builds no rule of its own and overflows nothing there: a CK field or
    # a spheromak depends on nu only through nu x (the spheromak's R is a hypot,
    # which does not overflow at |x| ~ 1e170), so its rows times nu are the nu = 1
    # rows at feet scaled by nu
    rng = np.random.default_rng(11)
    thetas = rng.standard_normal((4, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    feet = rng.standard_normal((4, 3))
    feet -= np.sum(feet * thetas, axis=1, keepdims=True) * thetas
    nu = 1e-160

    def run(kind, field, scale):
        out = tmp_path / f"{kind}.csv"
        rays = [{"theta": t.tolist(), "foot": (scale * f).tolist()} for t, f in zip(thetas, feet)]
        assert main([kind, write_cfg(tmp_path, f"{kind}.json", {
            "field": field, "rays": rays, "output": str(out)})]) == 0
        rows = np.genfromtxt(out, delimiter=",", skip_header=1)
        return rows[:, 6::2] + 1j * rows[:, 7::2]

    for kind in ("xray", "ytrf"):
        for field, key in (({"type": "ck_cylindrical", "m": 2}, "nu"),
                           ({"type": "spheromak"}, "k")):
            tiny = run(kind, dict(field, **{key: nu}), 1.0)
            one = run(kind, dict(field, **{key: 1.0}), nu)
            err = np.linalg.norm(nu * tiny - one, axis=1) / np.linalg.norm(one, axis=1)
            assert np.max(err) <= 1e-12, (kind, field, err)
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_eigenvalues_apply_their_power_once(tmp_path):
    # the generalized Lundquist field is sigma Phi(sigma x) and the spheromak
    # Phi(k x): sigma^2 underflowed to 0 at sigma = 1e-170 (rows of zeros) and
    # overflowed as a float at 1e200 (OverflowError), and the spheromak's squared
    # norm underflowed at 1e-200, giving the origin's value
    def rows(kind, key, field, items):
        out = tmp_path / f"{kind}.csv"
        assert main([*kind.split(), write_cfg(tmp_path, "cfg.json", {
            "field": field, key: items, "output": str(out)})]) == 0
        r = np.genfromtxt(out, delimiter=",", skip_header=1, ndmin=2)
        return r[:, -6::2] + 1j * r[:, -5::2]

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    glund = {"type": "generalized_lundquist"}
    theta = [0.6, 0.0, 0.8]
    tiny = rows("xray", "rays", dict(glund, sigma=1e-170), [{"theta": theta, "foot": [0, 1, 0]}])
    one = rows("xray", "rays", dict(glund, sigma=1.0), [{"theta": theta, "foot": [0, 1e-170, 0]}])
    assert np.linalg.norm(one) > 0.1 and close(tiny, one)

    x, y = [3e-201, -7e-201, 5e-201], [0.3, -0.7, 0.5]
    big = rows("field sample", "points", dict(glund, sigma=1e200), [x])
    assert close(big / 1e200, rows("field sample", "points", dict(glund, sigma=1.0), [y]))
    sph = {"type": "spheromak", "F0": [1.0, 0.0]}
    big = rows("field sample", "points", dict(sph, k=1e200), [x])
    one = rows("field sample", "points", dict(sph, k=1.0), [y])
    assert close(big, one)
    assert np.allclose(one.real, [0.22395, 0.06996, 0.57652], atol=1e-5)


def test_planewave_invert_refused(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    cfg = write_cfg(tmp_path, "inv.json", {
        "field": {"type": "plane_wave", "k0": 1.3, "kappa0": [0.3, -0.5, 0.8], "lambda": 1},
        "points": [[0.1, 0.2, 0.3]], "output": str(out)})
    for mode in ("spherical-mean", "grangeat", "gg"):
        assert main(["invert", mode, cfg]) == 2
        assert "field: inversion drives closed-form or helical beams" in capsys.readouterr().err
        assert not out.exists()


def test_lundquist_negative_helicity_inversions(tmp_path):
    # the half-line beams of helicity -1 are the y-mirror of those of +1
    from beltrami.fields import Lundquist, eval_field
    field = {"type": "lundquist", "F0": [0.7, -0.3], "nu": 1.1, "lambda": -1}
    pts = [[0.4, 0.1, -0.2], [-0.9, 0.6, 0.3]]
    for mode in ("grangeat", "gg"):
        cfg = write_cfg(tmp_path, f"{mode}.json", {
            "field": field, "points": pts, "output": str(tmp_path / f"{mode}.csv")})
        assert main(["invert", mode, cfg]) == 0
        rows = np.genfromtxt(tmp_path / f"{mode}.csv", delimiter=",", skip_header=1)
        want = eval_field(Lundquist(F0=0.7 - 0.3j, nu=1.1, lam=-1), rows[:, :3])
        got = rows[:, 3::2] + 1j * rows[:, 4::2]
        assert np.max(np.linalg.norm(got - want, axis=1) /
                      np.linalg.norm(want, axis=1)) <= 1e-10, mode


def test_check_validates_tolerances_before_running(tmp_path, capsys, monkeypatch):
    import beltrami.checks as checks

    def never(seed):
        raise AssertionError("the suite ran before the tolerances were validated")
    for key in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, key, never)
    out = tmp_path / "rep.json"
    for tols, message in (({"inversions/nope": 1.0}, "inversions/nope: unknown check"),
                          ({"john/x-div": True}, "john/x-div: expected a finite number")):
        cfg = write_cfg(tmp_path, "bad.json", {"seed": 7, "output": str(out), "tolerances": tols})
        assert main(["check", "all", cfg]) == 2
        assert f"config error: tolerances.{message}" in capsys.readouterr().err
        assert not out.exists()


def test_scripts_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for script, args in (("beam_profiles.py", [str(tmp_path / "beam_profiles.csv")]),
                         ("lundquist_tomography.py", []), ("twistor_gallery.py", [])):
        proc = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (script, proc.stderr)
    assert len((tmp_path / "beam_profiles.csv").read_text().splitlines()) == 74


def test_compare_outputs_script(tmp_path):
    """scripts/compare_outputs.py finds no difference between a tree and its copy, and
    names the commands whose bytes move when the copy's transform-space weights do."""
    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(root / "src" / "beltrami", copy / "beltrami")

    def compare():
        return subprocess.run([sys.executable, str(root / "scripts" / "compare_outputs.py"),
                               str(root), str(copy), "--seeds", "1", "--workloads",
                               "helical_tomography"], cwd=tmp_path, capture_output=True,
                              text=True, timeout=300)
    proc = compare()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("6 calls, 0 differences")
    rays = copy / "beltrami" / "rays.py"
    source = rays.read_text()

    def perturbed(factor):
        # each differing CSV is named with its largest relative row difference
        rays.write_text(source.replace("_PREF = (2.0 * np.pi) ** (-0.5)",
                                       f"_PREF = {factor} * (2.0 * np.pi) ** (-0.5)"))
        proc = compare()
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert all(line.startswith("helical_tomography/1/invert-") for line in lines[:-1])
        found = [re.search(r"; (\d+) of (\d+) rows moved, largest row difference (\S+) "
                           r"relative, line \d+$", line).groups() for line in lines[:-1]]
        return lines[-1], [float(r) for _, _, r in found], [(int(k), int(n)) for k, n, _ in found]

    last, largest, moved = perturbed("2.0")
    assert last.startswith("6 calls, 6 differences")
    assert all(abs(r - 1.0) < 1e-12 for r in largest), largest
    assert all(k == n > 0 for k, n in moved), moved      # every row doubles
    last, largest, moved = perturbed("(1.0 + 2.0 ** -52)")     # about one ulp
    assert largest and all(0.0 < r < 1e-15 for r in largest), (last, largest)
    assert all(0 < k <= n for k, n in moved), moved

    # a differing `check` report lists each check whose residual moved, old -> new,
    # and flags a flipped verdict
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  root / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    checks = [{"name": "s/one", "residual": "1e-05", "pass": True},
              {"name": "s/two", "residual": "2e-12", "pass": True},
              {"name": "s/three", "residual": "3e-07", "pass": True}]
    moved = [dict(checks[0], residual="1.5e-05"), checks[1],
             dict(checks[2], residual="0.5", **{"pass": False})]
    dirs = []
    for side, cs in (("parent", checks), ("change", moved)):
        d = tmp_path / "reports" / side
        d.mkdir(parents=True)
        (d / "check.json").write_text(json.dumps({"suite": "s", "checks": cs}, indent=2))
        (d / "manifest.json").write_text(json.dumps({"check_all/check-all": {
            "code": 0, "stdout": "", "stderr": "", "output": "check.json"}}))
        dirs.append(str(d))
    diffs, calls = script.compare(dirs, [str(root / "src"), str(copy)])
    assert calls == 1 and len(diffs) == 1
    assert diffs[0].splitlines()[1:] == [
        "check_all/check-all: check s/one: 1e-05 -> 1.5e-05",
        "check_all/check-all: check s/three: 3e-07 -> 0.5 (PASS -> FAIL)"]

    # a CSV names how many of its rows moved in their bytes, a row whose value
    # moved by nothing but its text counted too
    csv = b"x,re_F,im_F\n1,1.0,0\n2,2.0,0\n3,3.0,0\n4,4.0,0\n"
    moved = csv.replace(b"2,2.0,0", b"2,2.0000000000000004,0").replace(b"4,4.0", b"4,4.00")
    assert script._largest_row_difference(csv, moved) == (
        "; 2 of 4 rows moved, largest row difference 2.22e-16 relative, line 3")


@pytest.mark.parametrize("mode", ["spherical-mean", "grangeat", "gg"])
def test_lundquist_invert_is_one_beam_call(tmp_path, monkeypatch, mode):
    # an invert command calls its Lundquist batch once, from all 12 points, on one
    # direction per distinct azimuth of the 64x128 grid; the scaffold and the series
    # see one radius per point, not one per point and direction
    import beltrami.inversion as inversion
    import beltrami.rays as rays
    calls, radii = [], []

    def spy(module, attr, log, shapes):
        orig = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, **k: log.append(shapes(*a)) or orig(*a, **k))

    for attr in ("xray_lundquist_batch", "dbeam_lundquist_batch"):
        spy(inversion, attr, calls, lambda th, x, *a, **k: (np.shape(th), np.shape(x)))
    spy(rays, "_cylinder", radii, lambda th, x, *a: ("x", np.shape(x)))
    spy(rays, "_series", radii, lambda nu_r, *a: ("nu r", np.shape(nu_r)))
    pts = np.random.default_rng(17).standard_normal((12, 3)).tolist()
    cfg = write_cfg(tmp_path, "inv.json", {"field": {"type": "lundquist", "F0": [0.7, -0.3],
                                                     "nu": 1.1, "lambda": -1},
                                           "points": pts, "output": str(tmp_path / "o.csv")})
    assert main(["invert", mode, cfg]) == 0
    assert calls == [((353, 3), (12, 1, 3))]
    assert radii == [("x", (12, 1, 3))] + ([("nu r", (12, 1))] if mode != "spherical-mean" else [])


@pytest.mark.parametrize("mode", ["spherical-mean", "grangeat", "gg"])
def test_lundquist_invert_rows_do_not_depend_on_batching(tmp_path, monkeypatch, mode):
    # a point's reduced beam is taken once per distinct azimuth of the sphere grid,
    # in one call with the other points: its row has the same bytes alone as among
    # 12 points, at both helicities, also when the points are cut into blocks; a
    # transform-space beam, with no reduced form, keeps one call per point
    pts = np.random.default_rng(16).standard_normal((12, 3)).tolist()

    def rows(field, points, name, **extra):
        out = tmp_path / f"{name}.csv"
        cfg = write_cfg(tmp_path, f"{name}.json",
                        {"field": field, "points": points, "output": str(out), **extra})
        assert main(["invert", mode, cfg]) == 0
        return out.read_text().splitlines()

    for lam in (1, -1):
        field = {"type": "lundquist", "F0": [0.7, -0.3], "nu": 1.1, "lambda": lam}
        together = rows(field, pts, "all")
        assert len(together) == 13
        for i, p in enumerate(pts):
            assert rows(field, [p], f"one{i}") == [together[0], together[1 + i]], (lam, i)
        with monkeypatch.context() as m:   # five points per beam call
            m.setattr("beltrami.inversion.MEAN_BLOCK", 5 * 353)
            assert rows(field, pts, "blocks") == together
    quad = {"sphere_alpha": 8, "sphere_psi": 16, "circle_n": 32, "pv_u": 8, "pv_psi": 16}
    for lam in (1, -1):
        field = dict(MOSES_FIELD, **{"lambda": lam})
        together = rows(field, pts[:4], "moses", quadrature=quad)
        assert len(together) == 5
        for i, p in enumerate(pts[:4]):
            assert rows(field, [p], f"moses{i}", quadrature=quad) == [together[0],
                                                                       together[1 + i]], (lam, i)

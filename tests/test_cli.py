import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


_MOSES_COEFFS = np.random.default_rng(3).standard_normal((25, 2))
MOSES_FIELD = {"type": "moses_band_limited", "nu": 1.0, "lambda": 1, "lmax": 4,
               "coeffs": _MOSES_COEFFS.tolist()}
GRID_27 = {"origin": [-0.9, -0.8, -0.7], "axes": [[0.9, 0, 0], [0, 0.8, 0], [0, 0, 0.7]],
           "counts": [3, 3, 3]}


def test_threads_env_does_not_change_output(tmp_path, monkeypatch):
    # 27 points under 8 threads make single-point chunks; one thread makes 4
    cases = [("lundquist", LUND_FIELD, GRID, "4"),
             ("moses", MOSES_FIELD, GRID_27, "8")]
    for name, field, grid, threads in cases:
        cfg = write_cfg(tmp_path, f"{name}.json", {
            "field": field, "grid": grid, "output": str(tmp_path / f"{name}-1.csv")})
        monkeypatch.delenv("BELTRAMI_THREADS", raising=False)
        assert main(["field", "sample", cfg]) == 0
        serial = (tmp_path / f"{name}-1.csv").read_bytes()
        monkeypatch.setenv("BELTRAMI_THREADS", threads)
        assert main(["field", "sample", cfg, "--set", f"output={tmp_path}/{name}-n.csv"]) == 0
        assert (tmp_path / f"{name}-n.csv").read_bytes() == serial, name


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
    from beltrami.rays import xray_lundquist_closed
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": LUND_FIELD,
        "rays": [{"theta": [1, 0, 0], "foot": [0, 0.5, 0]},
                 {"theta": [0.6, 0.64, 0.48], "foot": [0.3, -0.2, 0.1]}],
        "output": str(tmp_path / "x.csv")})
    assert main(["xray", cfg]) == 0
    rows = np.genfromtxt(tmp_path / "x.csv", delimiter=",", skip_header=1)
    ray = Ray.through(np.array(rows[0, :3]), np.array(rows[0, 3:6]))
    want = xray_lundquist_closed(ray, 1.0, 1.0, 1)
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
    # the damped line integral of a plane wave along a wave front does not settle
    out = tmp_path / "pw.csv"
    cfg = write_cfg(tmp_path, "pw.json", {
        "field": {"type": "plane_wave", "k0": 1.3, "kappa0": [0, 0, 1], "lambda": 1},
        "rays": [{"theta": [1, 0, 0], "foot": [0, 0.5, 0.2]}], "output": str(out)})
    assert main(["xray", cfg]) == 2
    assert "rays[0]: NonConvergence" in capsys.readouterr().err
    assert not out.exists()
    # the signed transform diverges like 1/(kappa0.theta) there
    assert main(["ytrf", cfg]) == 2
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
                                  LaurentInOmegaPrime, LundquistKernel, RawLaurent,
                                  integrand_to_json)
    specs = [
        IntegrandSpec(u=EtaPowerOverOmega(n=2, m=1, omega0=0.1 - 0.2j), phase="F1", k=1.1),
        IntegrandSpec(u=HolomorphicOfEta(coefficients=(1.0, -0.5j), denominator_power=2),
                      phase="F1", k=0.9),
        IntegrandSpec(u=LaurentInOmegaPrime(n=3), phase="F2", k=1.3),
        IntegrandSpec(u=LundquistKernel(nu=0.8), phase="F1", k=0.8),
        IntegrandSpec(u=RawLaurent(table=((-2, 1.0 + 0.5j), (1, -0.25))), phase="F2", k=1.0),
    ]
    for spec in specs:
        back = _twistor_spec({"twistor": integrand_to_json(spec)})
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


def test_benchmark_surface_imports():
    # perfbench/layers.py wraps toolkit functions by name, so a deleted name
    # breaks the traced benchmark run; instrument() patches the modules for
    # the life of the process, hence the subprocess
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c",
                           "import layers, workloads; layers.instrument(layers.Tracer())"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

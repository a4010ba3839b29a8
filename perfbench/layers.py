"""Span tracing of the toolkit's layers for the traced benchmark run.

`instrument(tracer)` wraps the public functions of each module where their
callers resolve them: every module attribute bound to the original function
object is rebound, so `cli.eval_field` and `fields.eval_field` both record,
and methods such as `SphericalFunction.__call__` are wrapped on the class.
Each call records a span (name, start, end, parent) in memory; counts are
taken from argument shapes.  A layer's self time is its spans' duration
minus the time covered by their direct children.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

import beltrami.checks as checks
import beltrami.cli as cli
import beltrami.fields as fields
import beltrami.geometry as geometry
import beltrami.harmonics as harmonics
import beltrami.inversion as inversion
import beltrami.rays as rays
import beltrami.sphere as sphere
import beltrami.twistor as twistor

MODULES = (geometry, harmonics, fields, sphere, rays, inversion, twistor, checks, cli)

# Layer names whose self time is reported as "<name>_s".
LAYERS = ("harmonics.synth", "sphere.pv", "sphere.fp", "sphere.funk",
          "rays.sphere_data", "rays.funk_route", "rays.extfunk", "rays.damped",
          "rays.series", "geometry.frames", "geometry.rule_build", "fields.eval",
          "fields.synth", "fields.moses_q", "fields.radon", "inversion.mean",
          "inversion.beam", "inversion.recovery", "twistor.eval", "checks.eigen",
          "checks.john", "checks.identities", "checks.inversions", "checks.twistor",
          "cli.self")


def _npts(a) -> int:
    return int(np.asarray(a).size // 3)


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(*args, **kwargs) adds to the counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if count is not None:
                    count(*args, **kwargs)
        return traced

    def add(self, key: str, n: float = 1.0):
        self.counts[key] += n

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: defaultdict = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return dict(out)

    def dump(self, path: str):
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i} {name} {t0:.9f} {t1:.9f} {parent}\n")


def _rebind(orig, new):
    for mod in MODULES:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def instrument(tr: Tracer):
    """Wrap every listed function in place; the process stays instrumented."""
    add = tr.add

    def fn(module, attr, name, count=None):
        orig = getattr(module, attr)
        _rebind(orig, tr.wrap(name, orig, count))

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tr.wrap(name, getattr(cls, attr), count))

    # harmonics: synthesis; MACs are computed, points x (L+1)(2L+2) x ncomp
    def synth_count(self, dirs):
        n = _npts(dirs)
        add("harmonics.synth_calls")
        add("harmonics.synth_points", n)
        add("harmonics.synth_macs", n * (self.lmax + 1) * (2 * self.lmax + 2) * self.ncomp)
    method(harmonics.SphericalFunction, "__call__", "harmonics.synth", synth_count)

    # geometry: frames and quadrature-rule construction
    fn(geometry, "frames_for_many", "geometry.frames",
       lambda d: add("geometry.frames_dirs", _npts(d)))
    fn(geometry, "frame_for", "geometry.frames", lambda d: add("geometry.frames_dirs"))
    for attr in ("gauss_legendre", "make_sphere_quadrature", "make_polar_sphere_quadrature"):
        fn(geometry, attr, "geometry.rule_build",
           lambda *a, **k: add("geometry.rule_builds"))

    # fields
    fn(fields, "eval_field", "fields.eval",
       lambda spec, x, *a, **k: add("fields.eval_points", max(1, _npts(x))))
    fn(fields, "synthesize_moses", "fields.synth",
       lambda *a, **k: add("fields.synth_points"))
    fn(fields, "moses_q_many", "fields.moses_q",
       lambda kap, lam: add("fields.moses_q_dirs", _npts(kap)))
    fn(fields, "radon_moses", "fields.radon", lambda *a: add("fields.radon_planes"))

    # sphere: PV / finite-part rules and the great-circle transform
    def pv_count(self, f, thetas, *a, **k):
        nd = _npts(thetas)
        add("sphere.pv_dirs", nd)
        add("sphere.pv_nodes", nd * 2 * self.n_u * self.n_psi)
    method(sphere.PVRule, "pv_sphere", "sphere.pv", pv_count)
    method(sphere.PVRule, "pv_sphere_batch", "sphere.pv", pv_count)
    method(sphere.PVRule, "fp_sphere", "sphere.fp",
           lambda self, f, b: add("sphere.fp_nodes", (2 * self.n_u + 1) * self.n_psi))
    fn(sphere, "funk_transform", "sphere.funk", lambda *a, **k: add("sphere.funk_dirs"))

    # rays: transform-space routes, damped numerics, Lundquist closed forms
    orig_data = rays.moses_sphere_data

    def sphere_data(*a, **k):
        return tr.wrap("rays.sphere_data", orig_data(*a, **k),
                       lambda kap: add("rays.sphere_data_points", _npts(kap)))
    _rebind(orig_data, sphere_data)
    fn(rays, "xray_via_funk_batch", "rays.funk_route",
       lambda nu, lam, s, th, *a, **k: add("rays.funk_route_dirs", _npts(th)))
    for attr in ("dbeam_via_extfunk", "ytransform_via_extfunk"):
        fn(rays, attr, "rays.extfunk", lambda *a, **k: add("rays.extfunk_dirs"))
    fn(rays, "dbeam_via_extfunk_batch", "rays.extfunk",
       lambda nu, lam, s, th, *a, **k: add("rays.extfunk_dirs", _npts(th)))
    for attr in ("xray_lundquist_batch", "dbeam_lundquist_batch", "ytransform_lundquist_batch"):
        fn(rays, attr, "rays.series", lambda th, *a, **k: add("rays.series_dirs", _npts(th)))

    damped = rays._damped_line_integral

    def damped_counted(field, *a, **k):
        def counted_field(pts):
            add("rays.damped_nodes", _npts(pts))
            return field(pts)
        add("rays.damped_rays")
        try:
            return damped(counted_field, *a, **k)
        except rays.NonConvergence:
            add("rays.nonconvergence")
            raise
    _rebind(damped, tr.wrap("rays.damped", damped_counted))

    # inversion: sphere means, beam evaluation, plane-transform recovery
    for attr in ("invert_spherical_mean", "gg_spherical_mean", "invert_grangeat"):
        fn(inversion, attr, "inversion.mean", lambda *a, **k: add("inversion.points"))
    for attr in ("gg_radon_recovery", "y_radon_recovery", "grangeat_intermediate"):
        fn(inversion, attr, "inversion.recovery")

    def beam_count(th, x):
        add("inversion.beam_dirs", _npts(th))

    def beam_ctor(orig):
        def ctor(*a, **k):
            b = orig(*a, **k)
            red = b.reduced and tr.wrap("inversion.beam", b.reduced, beam_count)
            return dataclasses.replace(b, fn=tr.wrap("inversion.beam", b.fn, beam_count),
                                       reduced=red)
        return ctor
    for attr in ("lundquist_xray_beam", "lundquist_dbeam_beam", "lundquist_ybeam_beam",
                 "moses_xray_beam", "moses_dbeam_beam"):
        orig = getattr(inversion, attr)
        _rebind(orig, beam_ctor(orig))

    # twistor: contour integrals; node yield = accepted-level nodes / all nodes
    fn(twistor, "trkalian_from_twistor", "twistor.eval", lambda *a, **k: add("twistor.points"))
    contour = twistor._contour_integrate_vec

    def contour_counted(gvec, *a, **k):
        last = [0]

        def counted(w):
            last[0] = len(w)
            add("twistor.nodes", len(w))
            return gvec(w)
        out = contour(counted, *a, **k)
        add("twistor.accepted_nodes", last[0])
        return out
    _rebind(contour, contour_counted)

    # checks: one span per suite, wherever run_suite looks it up
    for key, suite in list(checks.SUITES.items()):
        wrapped = tr.wrap(f"checks.{key}", suite)
        checks.SUITES[key] = wrapped
        _rebind(suite, wrapped)

    # cli: the whole call (parse, config, cmd_*, CSV write); self = minus children
    fn(cli, "main", "cli.self")


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer self times and counts from the spans of `passes` passes."""
    st = tr.self_times()
    c = tr.counts
    out = {f"{name}_s": st.get(name, 0.0) / passes for name in LAYERS}
    for key in ("harmonics.synth_points", "harmonics.synth_calls", "harmonics.synth_macs",
                "sphere.pv_dirs", "sphere.pv_nodes", "sphere.fp_nodes", "sphere.funk_dirs",
                "rays.sphere_data_points", "rays.funk_route_dirs", "rays.extfunk_dirs",
                "rays.damped_rays", "rays.damped_nodes", "rays.nonconvergence",
                "rays.series_dirs", "geometry.frames_dirs", "geometry.rule_builds",
                "fields.eval_points", "fields.synth_points", "fields.moses_q_dirs",
                "fields.radon_planes", "inversion.points", "inversion.beam_dirs",
                "twistor.points", "twistor.nodes"):
        out[key] = c.get(key, 0.0) / passes
    out["twistor.node_yield"] = (c["twistor.accepted_nodes"] / c["twistor.nodes"]
                                 if c.get("twistor.nodes") else 0.0)
    return out

"""Profile the three line transforms of the Lundquist field along a ray fan.

Sweeps the azimuth of rays through a fixed point, evaluates the closed-form
whole-line / half-line / signed transforms plus the regularized numerics for
the whole-line case, and writes a CSV for plotting.
"""

import sys

import numpy as np

from beltrami import (Lundquist, OscillatoryLineQuadrature, eval_field,
                      project_to_perp, dbeam_lundquist_batch,
                      xray_lundquist_batch, xray_numeric,
                      ytransform_lundquist_batch)


def main(path="beam_profiles.csv"):
    nu, F0 = 1.0, 1.0
    spec = Lundquist(F0=F0, nu=nu, lam=1)
    fld = lambda p: eval_field(spec, p)
    x0 = np.array([0.8, 0.0, 0.0])
    polar = 0.35 * np.pi
    lines = ["azimuth,|X|,|D|,|Y|,|X_numeric - X|"]
    for az in np.linspace(0.0, 2 * np.pi, 73):
        th = np.array([np.sin(polar) * np.cos(az), np.sin(polar) * np.sin(az),
                       np.cos(polar)])
        ray = project_to_perp(x0, th)
        X, D, Y = (fn(ray.theta[None], ray.foot, F0, nu)[0] for fn in
                   (xray_lundquist_batch, dbeam_lundquist_batch, ytransform_lundquist_batch))
        cfg = OscillatoryLineQuadrature(nu_scale=nu * float(np.hypot(th[0], th[1])))
        Xn = xray_numeric(fld, ray, cfg).value
        lines.append(",".join(format(v, ".8g") for v in
                              [az, np.linalg.norm(X), np.linalg.norm(D),
                               np.linalg.norm(Y), np.linalg.norm(Xn - X)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {path}")


if __name__ == "__main__":
    main(*sys.argv[1:])

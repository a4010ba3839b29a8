"""Profile the three line transforms of the Lundquist field along a ray fan.

Sweeps the azimuth of rays through a fixed point, evaluates the closed-form
whole-line / half-line / signed transforms plus the regularized numerics for
the whole-line case, and writes a CSV for plotting.
"""

import sys

import numpy as np

from beltrami import (Lundquist, dbeam_lundquist_batch, xray_lundquist_batch,
                      ytransform_lundquist_batch)
from beltrami.geometry import rays_through


def main(path="beam_profiles.csv"):
    nu, F0 = 1.0, 1.0
    spec = Lundquist(F0=F0, nu=nu, lam=1)
    x0 = np.array([0.8, 0.0, 0.0])
    polar = 0.35 * np.pi
    az = np.linspace(0.0, 2 * np.pi, 73)
    ths = np.stack([np.sin(polar) * np.cos(az), np.sin(polar) * np.sin(az),
                    np.full_like(az, np.cos(polar))], axis=1)
    thetas, feet = rays_through(ths, np.broadcast_to(x0, ths.shape))
    X, D, Y = (fn(thetas, feet, F0, nu) for fn in
               (xray_lundquist_batch, dbeam_lundquist_batch, ytransform_lundquist_batch))
    Xn = spec.damped_beam("X", 8).fn(thetas, feet)     # the damped route at its line_scale
    lines = ["azimuth,|X|,|D|,|Y|,|X_numeric - X|"]
    for row in zip(az, X, D, Y, Xn - X):
        lines.append(",".join(format(v, ".8g") for v in
                              [row[0], *(np.linalg.norm(r) for r in row[1:])]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {path}")


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Reconstruct the Lundquist field from its line transforms.

Builds the closed-form whole-line and half-line beams of the cylindrical
J0/J1 field and runs the three direct reconstruction routes at a handful of
points, printing the relative errors side by side.
"""

import numpy as np

from beltrami import (Lundquist, PolarSphereGrid, eval_field,
                      gg_spherical_mean, invert_grangeat, invert_spherical_mean)
from beltrami.inversion import lundquist_dbeam_beam, lundquist_xray_beam


def main():
    nu, F0 = 1.0, 1.0 + 0.5j
    spec = Lundquist(F0=F0, nu=nu, lam=1)
    xb = lundquist_xray_beam(F0, nu, 1)
    db = lundquist_dbeam_beam(F0, nu)
    grid = PolarSphereGrid(64, 128)
    rng = np.random.default_rng(0)

    xs = rng.standard_normal((6, 3)) * 1.5
    rows = zip(xs, eval_field(spec, xs), invert_spherical_mean(xb, xs, nu, grid),
               invert_grangeat(db, xs, nu, grid, +1), gg_spherical_mean(db, xs, nu, grid))

    print(f"{'point':>28} {'whole-line mean':>16} {'cross-product':>14} {'half-line mean':>15}")
    for x, F, sm, gr, gg in rows:
        nF = np.linalg.norm(F)
        print(f"({x[0]:+.3f},{x[1]:+.3f},{x[2]:+.3f})    "
              f"{np.linalg.norm(sm - F) / nF:16.3e} "
              f"{np.linalg.norm(gr - F) / nF:14.3e} "
              f"{np.linalg.norm(gg - F) / nF:15.3e}")


if __name__ == "__main__":
    main()

"""Contour-generator gallery: every built-in twistor datum against its closed form.

Evaluates the vector generator and the scalar potentials at random points and
prints the worst deviation from the corresponding catalog field or special
function value.
"""

import numpy as np
from scipy.special import j0

from beltrami import (IntegrandSpec, Lundquist, eval_field,
                      fundamental_solution_check, scalar_helmholtz_from_twistor,
                      spheromak_debye_closed, spheromak_debye_integral,
                      trkalian_from_twistor, trkalian_laurent_ck)
from beltrami.twistor import (AxisymmetricPower, EtaPowerOverOmega, LundquistKernel,
                              ck_cylindrical_closed, helmholtz_point_source_closed)


def main():
    rng = np.random.default_rng(1)
    nu = 1.1
    rows = []

    worst = 0.0
    lund = Lundquist(F0=4j * np.pi, nu=nu, lam=1)
    for _ in range(10):
        x = rng.standard_normal(3)
        got = trkalian_from_twistor(IntegrandSpec(u=LundquistKernel(nu=nu), phase="F1", k=nu), x)
        worst = max(worst, float(np.max(np.abs(got - eval_field(lund, x)))))
    rows.append(("exponential kernel -> cylindrical J0/J1 field", worst))

    worst = 0.0
    for n in (0, 1, 2, 3):
        x = rng.standard_normal(3)
        got = trkalian_laurent_ck(n, nu, x)
        worst = max(worst, float(np.max(np.abs(got - ck_cylindrical_closed(n - 1, nu, x)))))
    rows.append(("Laurent data -> cylindrical eigenfield family", worst))

    worst = 0.0
    for n in (0, 1, 2):
        x = rng.standard_normal(3)
        got = trkalian_from_twistor(IntegrandSpec(u=EtaPowerOverOmega(n=n), phase="F1", k=nu), x)
        zeta = x[0] + 1j * x[1]
        want = 2j * np.pi * np.exp(1j * nu * x[2]) * zeta**n * np.array([1, 1j, 0])
        worst = max(worst, float(np.max(np.abs(got - want))))
    rows.append(("incidence powers -> planar helical fields", worst))

    sigma = 1.2
    x = rng.standard_normal((5, 3))
    got = scalar_helmholtz_from_twistor(AxisymmetricPower(1), x, sigma, "F2")
    want = 4j * np.pi * x[:, 2] * j0(sigma * np.hypot(x[:, 0], x[:, 1]))
    rows.append(("axisymmetric potential n = 1", np.max(np.abs(got - want))))

    x = rng.standard_normal((5, 3))
    x[:, 2] = np.abs(x[:, 2]) + 0.5
    got = fundamental_solution_check(x, sigma)
    rows.append(("point-source reduction (z > 0)",
                 np.max(np.abs(got - helmholtz_point_source_closed(x, sigma)))))

    x = rng.standard_normal((5, 3)) * 3.0
    worst = np.max(np.abs(spheromak_debye_integral(1.0, 1.0, x) -
                          spheromak_debye_closed(1.0, 1.0, x)))
    rows.append(("spheromak potential quadrature", worst))

    width = max(len(r[0]) for r in rows)
    for name, err in rows:
        print(f"{name:<{width}}  max deviation = {err:.3e}")


if __name__ == "__main__":
    main()

"""Numerical integral geometry for Trkalian fields (curl eigenfields with a
constant eigenvalue): an analytic field catalog, whole-line / half-line /
signed / plane / great-circle transforms with their inversions, and a
mini-twistor contour-integral generator, cross-validated against closed forms.
"""

from .geometry import (Frame, Plane, PolarSphereGrid, Ray, SphereQuadrature,
                       direction, frame_for, gauss_legendre,
                       great_circle_nodes, make_polar_sphere_quadrature,
                       make_sphere_quadrature, normalize)
from .harmonics import SphericalFunction, analyze, legendre_p_zero, ylm_matrix
from .fields import (CKCylindrical, GeneralizedLundquist, Lundquist,
                     MosesBandLimited, PlaneWave, Spheromak, TrkalianSpec,
                     curl_fd, div_fd, eigenvalue, eval_field, jacobian_fd, moses_q,
                     moses_q_many, radon_moses, radon_moses_pair, spec_from_json,
                     synthesize_moses)
from .sphere import (OddInput, PVRule, finite_part_moment, funk_minkowski,
                     funk_multipliers, funk_transform, pv_moment,
                     semyanistyi_inverse)
from .rays import (DegenerateRay, LineValue, NonConvergence,
                   OscillatoryLineQuadrature, SingularDirection,
                   dbeam_lundquist_batch, dbeam_numeric, dbeam_via_extfunk,
                   john_residual, xray_lundquist_batch, xray_numeric,
                   xray_via_funk, ytransform_lundquist_batch,
                   ytransform_numeric, ytransform_planewave_closed,
                   ytransform_via_extfunk)
from .inversion import (BeamFunction, PoleSingularity, gg_radon_recovery,
                        gg_spherical_mean, grangeat_intermediate,
                        invert_grangeat, invert_spherical_mean, riesz_factor,
                        smith_identity_check, tuy_identity_check,
                        y_radon_recovery)
from .twistor import (AxisymmetricPower, BranchViolation, ContourSpec,
                      EtaPowerOverOmega, HolomorphicOfEta, IntegrandSpec,
                      LaurentInOmegaPrime, LundquistKernel, PoleOnContour,
                      RawLaurent, SpheromakDebye, ck_from_debye,
                      fundamental_solution_check, incidence_eta,
                      scalar_helmholtz_from_twistor, spheromak_debye_closed,
                      spheromak_debye_integral, trkalian_from_twistor,
                      trkalian_laurent_ck)
from .checks import CheckReport, CheckResult, run_suite

__version__ = "0.1.0"

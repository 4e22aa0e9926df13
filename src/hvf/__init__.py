"""Harmonic vector fields on the non-flat space forms S^n and H^n.

Constructions of the classified field families (conformal gradients,
Killing, loxodromic, dipole deformation, planar conformal, quadratic
gradient), the generalised Cheeger-Gromoll tension operator and its
verification suite, closed-form parameter solvers with exact surds, and
the mod-quadric polynomial test for planar conformal fields.
"""

from .ambient import EUCLIDEAN, LORENTZIAN, Signature, lorentz_pairing
from .fields import (
    AffineField,
    Conformal2DField,
    ConformalGradientField,
    DipoleDeformationField,
    GeneralizedHopfField,
    KillingField,
    LoxodromicField,
    QuadraticGradientField,
    associate_family_member,
    build_field,
    elementary_killing,
    hyperbolic_translation,
    killing_from_twists,
    quadratic_two_eigenvalue,
    scale_field,
)
from .polyreduce import TriPoly, build_harmonicity_poly, quadric, vanishes_mod_quadric
from .solvers import (
    BoundCheck,
    Classification,
    bounds_report,
    build_classified_field,
    conformal_gradient_classification,
    harmonic_catalogue,
    killing_classification,
    loxodromic_classification,
    quadratic_classification,
    table7,
    twist_roots,
    twist_roots_exact,
)
from .spaceform import SpaceForm, hyperbolic, sphere
from .tension import (
    MetricParams,
    TensionReport,
    isometry_equivariance_check,
    metric_grid_scan,
    preharmonic_check,
    q_riemannian_check,
    reduced_pde_residual,
    tension,
    verify,
)

__version__ = "0.1.0"

"""Harmonic vector fields on the non-flat space forms S^n and H^n.

Constructions of the classified field families (conformal gradients,
Killing, loxodromic, dipole deformation, planar conformal, quadratic
gradient), the generalised Cheeger-Gromoll tension operator and its
verification suite, closed-form parameter solvers with exact surds, and
the mod-quadric polynomial test for planar conformal fields.

The public names are resolved on first use (PEP 562), so ``import hvf``
loads no submodule, and the classifications and the polynomial test run
without numpy.  ``hvf.tension`` is always the submodule, whatever was
imported first; the operator itself is ``hvf.tension.tension``.
"""

from importlib import import_module

_SUBMODULE = {
    name: module
    for module, names in {
        "ambient": ("lorentz_pairing",),
        "fields": (
            "AffineField",
            "Conformal2DField",
            "ConformalGradientField",
            "DipoleDeformationField",
            "GeneralizedHopfField",
            "KillingField",
            "LoxodromicField",
            "QuadraticGradientField",
            "associate_family_member",
            "build_field",
            "elementary_killing",
            "hyperbolic_translation",
            "killing_from_twists",
            "quadratic_two_eigenvalue",
            "scale_field",
        ),
        "params": ("MetricParams",),
        "polyreduce": (
            "TriPoly",
            "build_harmonicity_poly",
            "harmonicity_remainders",
            "quadric",
            "vanishes_mod_quadric",
        ),
        "solvers": (
            "BoundCheck",
            "Classification",
            "bounds_report",
            "build_classified_field",
            "conformal_gradient_classification",
            "harmonic_catalogue",
            "killing_classification",
            "loxodromic_classification",
            "quadratic_classification",
            "table7",
            "twist_roots_exact",
        ),
        "spaceform": ("SpaceForm", "hyperbolic", "sphere"),
        "tension": (
            "TensionReport",
            "isometry_equivariance_check",
            "metric_grid_scan",
            "reduced_pde_residual",
            "verify",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULE:
        return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    if name in _SUBMODULE.values():  # a submodule that was not imported yet
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__

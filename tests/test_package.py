"""The lazy top-level namespace of hvf."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hvf


def test_every_public_name_is_its_submodule_attribute():
    assert hvf.__all__ == sorted(hvf._SUBMODULE)
    for name in hvf.__all__:
        module = importlib.import_module(f"hvf.{hvf._SUBMODULE[name]}")
        assert getattr(hvf, name) is getattr(module, name), name
    assert dir(hvf) == hvf.__all__
    assert hvf.MetricParams is hvf.tension.MetricParams


def test_public_names_are_pinned():
    assert hvf.__all__ == [
        "AffineField", "BoundCheck", "Classification", "Conformal2DField", "ConformalGradientField",
        "DipoleDeformationField", "GeneralizedHopfField", "KillingField", "LoxodromicField",
        "MetricParams", "QuadraticGradientField", "SpaceForm",
        "TensionReport", "TriPoly", "associate_family_member", "bounds_report", "build_classified_field",
        "build_field", "build_harmonicity_poly", "conformal_gradient_classification", "elementary_killing",
        "harmonic_catalogue", "harmonicity_remainders", "hyperbolic", "hyperbolic_translation",
        "isometry_equivariance_check", "killing_classification", "killing_from_twists", "lorentz_pairing",
        "loxodromic_classification", "metric_grid_scan", "quadratic_classification",
        "quadratic_two_eigenvalue", "quadric", "reduced_pde_residual", "scale_field", "sphere", "table7",
        "twist_roots_exact", "vanishes_mod_quadric", "verify",
    ]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hvf.no_such_name


@pytest.mark.parametrize(
    "first",
    [
        "import hvf; hvf.verify",
        "import hvf.tension",
        "from hvf.tension import tension",
        "from hvf import verify, MetricParams",
        "import hvf",
    ],
)
def test_hvf_tension_is_the_submodule_in_any_import_order(first):
    src = os.path.dirname(os.path.dirname(hvf.__file__))
    code = (
        f"{first}\n"
        "import sys, types, hvf\n"
        "assert isinstance(hvf.tension, types.ModuleType), hvf.tension\n"
        "assert hvf.tension is sys.modules['hvf.tension']\n"
        "assert callable(hvf.tension.tension) and hvf.verify is hvf.tension.verify\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(hvf.tension, types.ModuleType)


def test_readme_library_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(sqrt(73) - 13)/8\nTrue\nTrue\n"

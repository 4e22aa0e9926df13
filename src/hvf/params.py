"""The metric parameters (p, q) and the harmonic verdict thresholds.

Kept apart from tension so that the classifications and the command line
can name them without importing numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HARMONIC_TOL = 1e-7  # closed forms: catalogue residuals stay below ~1e-13
FD_TOL = 1e-5  # FD oracle: catalogue residuals reach ~8e-7, q +- 0.05 refutations stay above ~3.7e-3


@dataclass(frozen=True)
class MetricParams:
    """The pair (p, q) selecting a generalised Cheeger-Gromoll metric."""

    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("metric parameters must be finite")

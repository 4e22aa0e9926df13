"""Signature-aware linear algebra on the ambient space R^{n+1}.

The two model inner products are the Euclidean one (epsilon = +1) and the
Lorentzian one (epsilon = -1), which negates the last coordinate:

    <x, y> = x_1 y_1 + ... + x_n y_n + epsilon * x_{n+1} y_{n+1}.

Operators are stored as dense (n+1)x(n+1) float matrices; dimensions stay
small (n <= ~24) so density is never a concern.  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SKEW_TOL = 1e-12


def as_vector(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Signature:
    """Inner-product signature: +1 spherical/Euclidean, -1 hyperbolic/Lorentzian."""

    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")

    def eta(self, dim: int) -> np.ndarray:
        """Gram matrix diag(1, ..., 1, epsilon)."""
        g = np.eye(dim)
        g[-1, -1] = self.epsilon
        return g

    def inner(self, x, y):
        """<x, y> over the last axis; leading axes broadcast, so (N, m) rows give N values."""
        x, y = as_vector(x), as_vector(y)
        if x.shape[-1:] != y.shape[-1:]:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        return np.vecdot(x[..., :-1], y[..., :-1]) + self.epsilon * (x[..., -1] * y[..., -1])

    def norm_sq(self, x):
        return self.inner(x, x)

    def adjoint(self, A) -> np.ndarray:
        """Metric adjoint A† = eta A^T eta."""
        A = np.asarray(A, dtype=float)
        At = A.T.copy()
        At[-1, :] *= self.epsilon
        At[:, -1] *= self.epsilon
        return At

    def is_skew(self, A, tol: float = SKEW_TOL) -> bool:
        """<A x, y> = -<x, A y>, i.e. A† = -A, up to tol relative to |A|."""
        A = np.asarray(A, dtype=float)
        scale = 1.0 + np.abs(A).max()
        return np.abs(self.adjoint(A) + A).max() <= tol * scale

    def check_skew(self, A, tol: float = SKEW_TOL) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got shape {A.shape}")
        if not self.is_skew(A, tol):
            raise ValueError("operator is not skew-symmetric for this signature")
        return A

    def is_form_preserving(self, g, tol: float = 1e-9) -> bool:
        """g^T eta g = eta, i.e. g preserves the inner product."""
        g = np.asarray(g, dtype=float)
        eta = self.eta(g.shape[0])
        return np.abs(g.T @ eta @ g - eta).max() <= tol * (1.0 + np.abs(g).max() ** 2)


EUCLIDEAN = Signature(+1)
LORENTZIAN = Signature(-1)


def lorentz_pairing(A1, A2, sig: Signature) -> float:
    """tr(A1 ∘ A2†) for skew operators; frame-independent.

    In a signature-orthonormal frame {e_1, ..., e_n, w} (w timelike in the
    Lorentzian case) this equals sum_i <A1 e_i, A2 e_i> - <A1 w, A2 w>.
    Raises if either argument fails the skewness check.
    """
    A1 = sig.check_skew(A1)
    A2 = sig.check_skew(A2)
    return float(np.trace(A1 @ sig.adjoint(A2)))


def check_symmetric(Q, tol: float = SKEW_TOL) -> np.ndarray:
    """Validate a Euclidean-symmetric operator (spherical case only)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"operator must be square, got shape {Q.shape}")
    scale = 1.0 + np.abs(Q).max()
    if np.abs(Q - Q.T).max() > tol * scale:
        raise ValueError("operator is not symmetric")
    return Q

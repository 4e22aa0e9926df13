"""Ambient-space helpers that need no signature, on R^{n+1}.

The signature-aware operations (the inner product, the adjoint eta A^T eta
and the skewness test) belong to hvf.spaceform.SpaceForm; lorentz_pairing
takes a space form for them.  Operators are dense (n+1)x(n+1) float
matrices; dimensions stay small (n <= ~24) so density is never a concern.
"""

import numpy as np

SKEW_TOL = 1e-12


def as_vector(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def lorentz_pairing(A1, A2, space) -> float:
    """tr(A1 ∘ A2†) for skew operators of the space form's ambient space; frame-independent.

    In a signature-orthonormal frame {e_1, ..., e_n, w} (w timelike in the
    Lorentzian case) this equals sum_i <A1 e_i, A2 e_i> - <A1 w, A2 w>.
    Raises if either argument fails the skewness check.
    """
    A1 = space.check_skew(A1)
    A2 = space.check_skew(A2)
    return float(np.trace(A1 @ space.adjoint(A2)))


def check_symmetric(Q) -> np.ndarray:
    """Validate a Euclidean-symmetric operator (spherical case only)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"operator must be square, got shape {Q.shape}")
    scale = 1.0 + np.abs(Q).max()
    if np.abs(Q - Q.T).max() > SKEW_TOL * scale:
        raise ValueError("operator is not symmetric")
    return Q

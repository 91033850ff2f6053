"""Small dense complex linear algebra on numpy's LAPACK.

Every rank of a state set comes from `factorize`: one full SVD of its
amplitude matrix (states as columns), ranked by the one rank rule. It
counts the singular values above `tol * sigma_max` of the amplitude matrix,
never of the Gram matrix, whose eigenvalues are the squares sigma^2 and would
square the tolerance too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams

DEFAULT_RANK_TOL = 1e-9


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (n, d) array, from its real and
    imaginary views: bit for bit `np.linalg.norm` of each row on its own."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


@dataclass(frozen=True)
class Factorization:
    """A state set's amplitude matrix A (dim x n) with its full SVD
    A = U S V^H, and the rank decided from S."""

    amplitudes: np.ndarray
    u: np.ndarray  # dim x dim
    singular_values: np.ndarray  # S: descending, all >= 0
    rank: int
    vh: np.ndarray  # n x n


def factorize(states, tol: float = DEFAULT_RANK_TOL) -> Factorization:
    """One full SVD of the amplitude matrix of a StateSet, ranked at `tol`:
    the rank is the number of singular values above tol * sigma_max."""
    if not 0.0 < tol < 1.0:
        raise InvalidParams(f"tolerance must lie in (0, 1), got {tol}")
    a = states.amplitude_matrix()
    u, sigma, vh = np.linalg.svd(a)
    return Factorization(amplitudes=a, u=u, singular_values=sigma,
                         rank=int(np.count_nonzero(sigma > tol * sigma[0])), vh=vh)


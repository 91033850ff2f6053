"""Small dense complex linear algebra on numpy's LAPACK.

Every decomposition is one numpy call: `np.linalg.svd` for rank and
reciprocal bases. The package has one rank rule, `RankResult.of`: count the
singular values above `tol * sigma_max`. Callers apply it to the amplitude
matrix of a state set (states as columns), never to its Gram matrix, whose
eigenvalues are the squares sigma^2 and would square the tolerance too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySet, LinearlyDependentInput, NonFiniteEntry

DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class RankResult:
    """Numerical rank together with the evidence used to decide it."""

    rank: int
    singular_values: np.ndarray  # descending, all >= 0
    tolerance_used: float

    @classmethod
    def of(cls, sigma: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> "RankResult":
        """Rank = number of singular values above the relative threshold
        tol * sigma_max; `sigma` is nonempty and sorted descending."""
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
        rank = int(np.count_nonzero(sigma > tol * sigma[0]))
        return cls(rank=rank, singular_values=sigma, tolerance_used=tol)


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RankResult:
    """Rank of any matrix from its singular values (`RankResult.of`)."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        raise EmptySet("cannot rank an empty matrix")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return RankResult.of(np.linalg.svd(m, compute_uv=False), tol)


def gram(states) -> np.ndarray:
    """Gram matrix G[i, j] = <state_i | state_j> of a StateSet."""
    members = getattr(states, "members", states)
    if len(members) == 0:
        raise EmptySet("gram of an empty state set")
    dims = {s.dim for s in members}
    if len(dims) != 1:
        raise DimensionMismatch(f"states have mixed dimensions {sorted(dims)}")
    a = np.column_stack([s.amplitudes for s in members])
    g = a.conj().T @ a
    return 0.5 * (g + g.conj().T)


def reciprocal_basis(states, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Reciprocal (biorthogonal) vectors of a StateSet as the rows of an
    n x dim array: <tilde_i | psi_j> = 0 for i != j and <tilde_i | psi_i>
    real positive, each row of unit norm.

    Raises LinearlyDependentInput when the set is not independent at `tol`,
    which is exactly the regime where unambiguous discrimination breaks down.
    """
    a = states.amplitude_matrix()
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    if RankResult.of(sigma, tol).rank < a.shape[1]:
        raise LinearlyDependentInput(
            "reciprocal basis requires linearly independent states"
        )
    # with A = U S V^H, the columns of A (A^H A)^-1 = U S^-1 V^H are the
    # reciprocal vectors, found without squaring the condition number
    tilde = (u / sigma) @ vh
    return np.array([col / np.linalg.norm(col) for col in tilde.T])

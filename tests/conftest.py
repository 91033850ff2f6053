import math

import numpy as np
import pytest

from nogosuper.states import StateSet
from nogosuper.superposer import SuperposerConfig, given_frame_phase, superpose_many


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random unit amplitude row."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_state_set(rng: np.random.Generator, dim: int, size: int) -> StateSet:
    return StateSet([random_pure_state(rng, dim) for _ in range(size)])


def random_orthonormal(rng: np.random.Generator, dim: int, k: int) -> list[np.ndarray]:
    """k orthonormal amplitude rows from the QR factorization of a random
    complex matrix."""
    m = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    q, _ = np.linalg.qr(m)
    return [q[:, i] for i in range(k)]


def superpose_deterministic(cfg: SuperposerConfig, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The single-pair oracle, the reference for the pipeline's batched one:
    the row normalize(alpha * psi + beta * e^{i theta} * phi) with theta the
    policy's phase in the frame of the rows psi and phi."""
    theta = given_frame_phase(cfg.phase_policy, psi, phi)
    return superpose_many(cfg.alpha, cfg.beta, psi[None], phi, [theta]).rows[0]


def gram(states: StateSet) -> np.ndarray:
    """Hermitian Gram matrix G[i, j] = <state_i | state_j> of a StateSet."""
    a = states.amplitude_matrix()
    g = a.conj().T @ a
    return 0.5 * (g + g.conj().T)


def density_matrix(s: np.ndarray) -> np.ndarray:
    """|s><s| of an amplitude row, as a dim x dim array."""
    return np.outer(s, s.conj())


def det3_cofactor(g: np.ndarray) -> complex:
    """3x3 determinant by explicit cofactor expansion (independent oracle)."""
    return (
        g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
        - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
        + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0])
    )


# Ranking a Gram matrix at 1e-9 counts its eigenvalues sigma^2 above
# 1e-9 * sigma_max^2: on the amplitude matrix that is the tolerance sqrt(1e-9)
GRAM_TOL = math.sqrt(1e-9)


def svd_rank_oracle(amplitude_matrix: np.ndarray, tol: float = 1e-9) -> int:
    """Independent rank oracle: numpy SVD of the raw amplitude matrix."""
    sigma = np.linalg.svd(amplitude_matrix, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > tol * sigma[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosuper.errors import DimensionMismatch, EmptySet, NonFiniteEntry, NullVector
from nogosuper.states import (
    PureState,
    StateSet,
    basis_state,
    canonicalize,
    is_linearly_independent,
    normalize,
)

from conftest import random_pure_state

SQ2 = 1.0 / math.sqrt(2.0)


def test_normalize_scales_to_unit_norm():
    s = normalize([2.0, 0.0])
    np.testing.assert_allclose(s.amplitudes, [1.0, 0.0])
    s = normalize([1.0, 1.0, 0.0])
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2, 0.0])


def test_normalize_rejects_vanishing_vector():
    with pytest.raises(NullVector):
        normalize([1e-14, 0.0])


def test_pure_state_validation():
    with pytest.raises(DimensionMismatch):
        PureState(np.array([1.0]))
    with pytest.raises(NullVector):
        PureState(np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(NonFiniteEntry):
        PureState(np.array([bad, 0.0]))
    with pytest.raises(NonFiniteEntry):
        normalize([bad, 1.0])


def test_canonicalize_strips_global_phase():
    s = PureState(np.array([1j, 0.0]))
    np.testing.assert_allclose(canonicalize(s).amplitudes, [1.0, 0.0], atol=1e-15)

    phased = PureState(np.exp(1j * np.pi / 3) * np.array([SQ2, 1j * SQ2]))
    np.testing.assert_allclose(
        canonicalize(phased).amplitudes, [SQ2, 1j * SQ2], atol=1e-15
    )

    for theta in (0.3, 1.1, 5.9):
        s = PureState(np.array([0.0, np.exp(1j * theta)]))
        np.testing.assert_allclose(canonicalize(s).amplitudes, [0.0, 1.0], atol=1e-15)


def test_canonicalize_preserves_density_matrix(rng):
    for _ in range(50):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        c = PureState(canonicalize(s).amplitudes)
        np.testing.assert_allclose(
            c.density_matrix(), s.density_matrix(), atol=1e-12
        )


def test_canonicalize_idempotent(rng):
    for _ in range(50):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        once = canonicalize(s).amplitudes
        twice = canonicalize(PureState(once)).amplitudes
        np.testing.assert_array_equal(once, twice)


def test_canonicalize_invariant_under_global_phase():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        chi = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = PureState(chi * s.amplitudes)
        np.testing.assert_allclose(
            canonicalize(rotated).amplitudes, canonicalize(s).amplitudes, atol=1e-10
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    phase=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
def test_canonicalize_phase_invariance_property(seed, dim, phase):
    s = random_pure_state(np.random.default_rng(seed), dim)
    rotated = PureState(np.exp(1j * phase) * s.amplitudes)
    np.testing.assert_allclose(
        canonicalize(rotated).amplitudes, canonicalize(s).amplitudes, atol=1e-10
    )


def test_state_set_validation():
    with pytest.raises(EmptySet):
        StateSet([])
    with pytest.raises(DimensionMismatch):
        StateSet([basis_state(2, 0), basis_state(3, 0)])


def test_independence_of_orthonormal_pair():
    assert is_linearly_independent(StateSet([basis_state(2, 0), basis_state(2, 1)]))


def test_dependent_counterexample_inputs():
    # {psi, psi_perp, a psi + b psi_perp} lives in a 2-d subspace
    a = b = SQ2
    s = StateSet.from_vectors([[1, 0, 0], [0, 1, 0], [a, b, 0]])
    assert not is_linearly_independent(s)


def test_ill_conditioned_set_is_independent():
    # amplitude singular values (1.41, 1, 7.1e-7): independent at 1e-9, although
    # the smallest Gram eigenvalue, sigma^2 = 5e-13, lies below 1e-9
    s = StateSet.from_vectors([[1, 0, 0], [1, 1e-6, 0], [0, 0, 1]])
    assert is_linearly_independent(s)
    assert not is_linearly_independent(s, 1e-6)


def test_zero_plus_pair_independent():
    # 2x2 Gram determinant is 1 - 1/2 = 1/2 > 0
    assert is_linearly_independent(StateSet.from_vectors([[1, 0], [1, 1]]))


def test_independence_invariant_under_phases_and_permutation(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        size = int(rng.integers(2, dim + 2))
        s = StateSet([random_pure_state(rng, dim) for _ in range(size)])
        base = is_linearly_independent(s)
        phased = StateSet([
            PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * m.amplitudes)
            for m in s.members
        ])
        assert is_linearly_independent(phased) == base
        perm = list(rng.permutation(size))
        shuffled = StateSet([s.members[i] for i in perm])
        assert is_linearly_independent(shuffled) == base

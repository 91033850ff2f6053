import math

import numpy as np
import pytest

from nogosuper import linalg
from nogosuper.errors import DimensionMismatch, EmptySet, LinearlyDependentInput, NonFiniteEntry
from nogosuper.states import StateSet, basis_state

from conftest import det3_cofactor, random_state_set, svd_rank_oracle

SQ2 = 1.0 / math.sqrt(2.0)


def psi_output_set():
    """Superposer outputs for a = b = alpha = beta = 1/sqrt(2), all thetas 0."""
    e1, e2, e3 = np.eye(3)
    psi3 = SQ2 * e1 + SQ2 * e2
    return StateSet.from_vectors([
        SQ2 * e1 + SQ2 * e3,
        SQ2 * e2 + SQ2 * e3,
        SQ2 * psi3 + SQ2 * e3,
    ])


class TestGram:
    def test_orthonormal_pair_gives_identity(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        np.testing.assert_allclose(linalg.gram(s), np.eye(2), atol=1e-15)

    def test_dependent_triple_entries(self):
        s = StateSet.from_vectors([[1, 0], [0, 1], [1, 1]])
        g = linalg.gram(s)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert g[0, 2] == pytest.approx(SQ2, abs=1e-12)
        assert g[1, 2] == pytest.approx(SQ2, abs=1e-12)

    def test_superposer_output_entries_match_dot_product_oracle(self):
        s = psi_output_set()
        g = linalg.gram(s)
        # independent oracle: plain python inner products
        for i in range(3):
            for j in range(3):
                expect = sum(
                    complex(x).conjugate() * complex(y)
                    for x, y in zip(s.members[i].amplitudes, s.members[j].amplitudes)
                )
                assert g[i, j] == pytest.approx(expect, abs=1e-12)
        assert g[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert g[0, 2] == pytest.approx(0.853553, abs=1e-6)
        assert g[1, 2] == pytest.approx(0.853553, abs=1e-6)

    def test_diagonal_is_one_and_hermitian(self, rng):
        for _ in range(20):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            g = linalg.gram(s)
            np.testing.assert_array_equal(g, g.conj().T)
            np.testing.assert_allclose(np.diag(g), np.ones(len(s)), atol=1e-12)

    def test_empty_and_mismatched_sets_rejected(self):
        with pytest.raises(EmptySet):
            linalg.gram([])
        with pytest.raises(DimensionMismatch):
            linalg.gram([basis_state(2, 0), basis_state(3, 0)])

    def test_gram_is_positive_semidefinite(self, rng):
        for _ in range(50):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            min_eig = np.linalg.eigvalsh(linalg.gram(s))[0]
            assert min_eig >= -1e-10


class TestNumericalRank:
    def test_identity_full_rank(self):
        r = linalg.numerical_rank(np.eye(3), 1e-9)
        assert r.rank == 3
        np.testing.assert_allclose(r.singular_values, np.ones(3))

    def test_constructed_dependence_rank_two(self):
        s = StateSet.from_vectors([[1, 0], [0, 1], [1, 1]])
        assert linalg.numerical_rank(linalg.gram(s), 1e-9).rank == 2

    def test_superposer_outputs_rank_three_and_determinant(self):
        g = linalg.gram(psi_output_set())
        assert linalg.numerical_rank(g, 1e-9).rank == 3
        det = det3_cofactor(g)
        assert det.real == pytest.approx(0.0214, abs=5e-4)
        assert abs(det.imag) < 1e-12

    def test_singular_values_sorted_and_consistent_with_rank(self, rng):
        for _ in range(30):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            r = linalg.numerical_rank(s.amplitude_matrix(), 1e-9)
            sv = r.singular_values
            assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)
            assert r.rank == np.sum(sv > r.tolerance_used * sv[0])

    def test_agrees_with_svd_oracle(self, rng):
        for _ in range(100):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            a = s.amplitude_matrix()
            assert linalg.numerical_rank(linalg.gram(s), 1e-9).rank == svd_rank_oracle(a)

    def test_unit_phase_scaling_leaves_rank_unchanged(self, rng):
        for _ in range(20):
            s = random_state_set(rng, 4, 3)
            base = linalg.numerical_rank(linalg.gram(s), 1e-9).rank
            phased = StateSet([
                type(m)(np.exp(1j * rng.uniform(0, 2 * np.pi)) * m.amplitudes)
                for m in s.members
            ])
            assert linalg.numerical_rank(linalg.gram(phased), 1e-9).rank == base

    def test_hermitian_singular_values_match_eigvalsh_up_to_dim_16(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 17))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = m + m.conj().T
            r = linalg.numerical_rank(h, 1e-9)
            want = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
            np.testing.assert_allclose(r.singular_values, want, atol=1e-10)
            # zero out k eigenvalues of h: the rank drops by exactly k
            k = int(rng.integers(1, n))
            vals, vecs = np.linalg.eigh(h)
            vals[rng.permutation(n)[:k]] = 0.0
            deficient = vecs @ np.diag(vals) @ vecs.conj().T
            assert linalg.numerical_rank(deficient, 1e-9).rank == n - k

    def test_nonfinite_and_bad_tolerance_rejected(self):
        with pytest.raises(NonFiniteEntry):
            linalg.numerical_rank(np.array([[np.nan, 0], [0, 1]]), 1e-9)
        with pytest.raises(ValueError):
            linalg.numerical_rank(np.eye(2), 2.0)
        with pytest.raises(EmptySet):
            linalg.numerical_rank(np.zeros((0, 0)), 1e-9)


class TestReciprocalBasis:
    def test_orthonormal_pair_is_self_reciprocal(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        r = linalg.reciprocal_basis(s)
        np.testing.assert_allclose(r[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(r[1], [0, 1], atol=1e-12)

    def test_zero_plus_pair(self):
        # {|0>, |+>} -> {|->, |1>} up to global phase, solved by hand from the
        # orthogonality conditions and checked with the inner-product oracle
        s = StateSet.from_vectors([[1, 0], [1, 1]])
        r = linalg.reciprocal_basis(s)
        minus = np.array([SQ2, -SQ2])
        one = np.array([0.0, 1.0])
        for got, want in zip(r, (minus, one)):
            overlap = abs(np.vdot(want, got))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_dependent_input_raises(self):
        s = StateSet.from_vectors([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(LinearlyDependentInput):
            linalg.reciprocal_basis(s)

    def test_matches_inverse_gram_oracle_up_to_dim_16(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            s = random_state_set(rng, dim, int(rng.integers(1, dim + 1)))
            a = s.amplitude_matrix()
            want = a @ np.linalg.inv(a.conj().T @ a)
            r = linalg.reciprocal_basis(s)
            for got, col in zip(r, want.T):
                overlap = np.vdot(col / np.linalg.norm(col), got)
                assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_singular_gram_rejected(self):
        # Gram matrix [[1, 1], [1, 1]]: the same state twice
        s = StateSet([basis_state(2, 0), basis_state(2, 0)])
        with pytest.raises(LinearlyDependentInput):
            linalg.reciprocal_basis(s)

    def test_biorthogonality_on_random_independent_sets(self, rng):
        built = 0
        while built < 30:
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_state_set(rng, dim, size)
            if linalg.numerical_rank(linalg.gram(s), 1e-9).rank < size:
                continue
            r = linalg.reciprocal_basis(s)
            for i, tilde in enumerate(r):
                for j, psi in enumerate(s.members):
                    overlap = np.vdot(tilde, psi.amplitudes)
                    if i == j:
                        assert overlap.real > 0 and abs(overlap.imag) < 1e-9
                    else:
                        assert abs(overlap) <= 1e-9
            built += 1


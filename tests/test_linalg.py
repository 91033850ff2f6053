import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosuper import linalg
from nogosuper.discrimination import build_usd
from nogosuper.errors import InvalidParams, LinearlyDependentInput
from nogosuper.states import StateSet, normalize

from conftest import (GRAM_TOL, det3_cofactor, gram, random_orthonormal, random_state_set,
                      svd_rank_oracle)

SQ2 = 1.0 / math.sqrt(2.0)


def psi_output_set():
    """Superposer outputs for a = b = alpha = beta = 1/sqrt(2), all thetas 0."""
    e1, e2, e3 = np.eye(3)
    psi3 = SQ2 * e1 + SQ2 * e2
    return normalize([
        SQ2 * e1 + SQ2 * e3,
        SQ2 * e2 + SQ2 * e3,
        SQ2 * psi3 + SQ2 * e3,
    ])


class TestGram:
    def test_orthonormal_pair_gives_identity(self):
        s = StateSet(np.eye(2))
        np.testing.assert_allclose(gram(s), np.eye(2), atol=1e-15)

    def test_dependent_triple_entries(self):
        s = normalize([[1, 0], [0, 1], [1, 1]])
        g = gram(s)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert g[0, 2] == pytest.approx(SQ2, abs=1e-12)
        assert g[1, 2] == pytest.approx(SQ2, abs=1e-12)

    def test_superposer_output_entries_match_dot_product_oracle(self):
        s = psi_output_set()
        g = gram(s)
        # independent oracle: plain python inner products
        for i in range(3):
            for j in range(3):
                expect = sum(
                    complex(x).conjugate() * complex(y)
                    for x, y in zip(s.rows[i], s.rows[j])
                )
                assert g[i, j] == pytest.approx(expect, abs=1e-12)
        assert g[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert g[0, 2] == pytest.approx(0.853553, abs=1e-6)
        assert g[1, 2] == pytest.approx(0.853553, abs=1e-6)

    def test_diagonal_is_one_and_hermitian(self, rng):
        for _ in range(20):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            g = gram(s)
            np.testing.assert_array_equal(g, g.conj().T)
            np.testing.assert_allclose(np.diag(g), np.ones(len(s)), atol=1e-12)

    def test_gram_is_positive_semidefinite(self, rng):
        for _ in range(50):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            min_eig = np.linalg.eigvalsh(gram(s))[0]
            assert min_eig >= -1e-10


class TestNumericalRank:
    def test_identity_full_rank(self):
        r = linalg.factorize(StateSet(np.eye(3)), 1e-9)
        assert r.rank == 3
        np.testing.assert_allclose(r.singular_values, np.ones(3))

    def test_constructed_dependence_rank_two(self):
        s = normalize([[1, 0], [0, 1], [1, 1]])
        assert linalg.factorize(s, GRAM_TOL).rank == 2

    def test_superposer_outputs_rank_three_and_determinant(self):
        s = psi_output_set()
        assert linalg.factorize(s, GRAM_TOL).rank == 3
        det = det3_cofactor(gram(s))
        assert det.real == pytest.approx(0.0214, abs=5e-4)
        assert abs(det.imag) < 1e-12

    def test_singular_values_sorted_and_consistent_with_rank(self, rng):
        for _ in range(30):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            r = linalg.factorize(s, 1e-9)
            sv = r.singular_values
            assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)
            assert r.rank == np.sum(sv > 1e-9 * sv[0])

    def test_agrees_with_svd_oracle(self, rng):
        for _ in range(100):
            s = random_state_set(rng, int(rng.integers(2, 7)), int(rng.integers(1, 7)))
            a = s.amplitude_matrix()
            for tol in (1e-9, GRAM_TOL):
                assert linalg.factorize(s, tol).rank == svd_rank_oracle(a, tol)

    def test_unit_phase_scaling_leaves_rank_unchanged(self, rng):
        for _ in range(20):
            s = random_state_set(rng, 4, 3)
            base = linalg.factorize(s, GRAM_TOL).rank
            phased = StateSet([np.exp(1j * rng.uniform(0, 2 * np.pi)) * row for row in s.rows])
            assert linalg.factorize(phased, GRAM_TOL).rank == base

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), data=st.data())
    def test_rank_does_not_increase_as_tol_grows(self, seed, dim, data):
        size = data.draw(st.integers(1, dim))
        s = random_state_set(np.random.default_rng(seed), dim, size)
        # log-uniform tolerances, so the large ones cut into the spectrum
        exponents = data.draw(st.lists(st.floats(-15.0, -1e-3), min_size=2, max_size=6))
        ranks = [linalg.factorize(s, 10.0**e).rank for e in sorted(exponents)]
        assert ranks == sorted(ranks, reverse=True)

    def test_rows_spanning_fewer_dimensions_lose_exactly_that_rank(self, rng):
        # n unit rows in the span of n - k orthonormal states have rank n - k
        for _ in range(20):
            n = int(rng.integers(2, 17))
            k = int(rng.integers(1, n))
            basis = np.array(random_orthonormal(rng, 16, n - k))
            coeffs = rng.standard_normal((n, n - k)) + 1j * rng.standard_normal((n, n - k))
            s = normalize(coeffs @ basis)
            assert linalg.factorize(s, 1e-9).rank == n - k

    def test_bad_tolerance_rejected(self):
        for tol in (0.0, 1.0, 2.0, -1e-9):
            with pytest.raises(InvalidParams):
                linalg.factorize(StateSet(np.eye(2)), tol)


class TestReciprocalBasis:
    def test_orthonormal_pair_is_self_reciprocal(self):
        s = StateSet(np.eye(2))
        r = build_usd(linalg.factorize(s)).reciprocal
        np.testing.assert_allclose(r[0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(r[1], [0, 1], atol=1e-12)

    def test_zero_plus_pair(self):
        # {|0>, |+>} -> {|->, |1>} up to global phase, solved by hand from the
        # orthogonality conditions and checked with the inner-product oracle
        s = normalize([[1, 0], [1, 1]])
        r = build_usd(linalg.factorize(s)).reciprocal
        minus = np.array([SQ2, -SQ2])
        one = np.array([0.0, 1.0])
        for got, want in zip(r, (minus, one)):
            overlap = abs(np.vdot(want, got))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_dependent_input_raises(self):
        s = normalize([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(LinearlyDependentInput):
            build_usd(linalg.factorize(s)).reciprocal

    def test_matches_inverse_gram_oracle_up_to_dim_16(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            s = random_state_set(rng, dim, int(rng.integers(1, dim + 1)))
            a = s.amplitude_matrix()
            want = a @ np.linalg.inv(a.conj().T @ a)
            r = build_usd(linalg.factorize(s)).reciprocal
            for got, col in zip(r, want.T):
                overlap = np.vdot(col / np.linalg.norm(col), got)
                assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_rows_are_normalized_one_by_one_in_c_order(self, rng):
        # the Born table reads the rows in C order; each row's bits are those
        # of dividing it by its own np.linalg.norm
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            f = linalg.factorize(random_state_set(rng, dim, int(rng.integers(1, dim + 1))))
            n = f.vh.shape[0]
            tilde = (f.u[:, :n] / f.singular_values) @ f.vh
            r = build_usd(f).reciprocal
            assert r.flags.c_contiguous
            np.testing.assert_array_equal(r, [col / np.linalg.norm(col) for col in tilde.T])

    def test_singular_gram_rejected(self):
        # Gram matrix [[1, 1], [1, 1]]: the same state twice
        s = StateSet([[1, 0], [1, 0]])
        with pytest.raises(LinearlyDependentInput):
            build_usd(linalg.factorize(s)).reciprocal

    def test_biorthogonality_on_random_independent_sets(self, rng):
        built = 0
        while built < 30:
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_state_set(rng, dim, size)
            if linalg.factorize(s, GRAM_TOL).rank < size:
                continue
            r = build_usd(linalg.factorize(s)).reciprocal
            for i, tilde in enumerate(r):
                for j, psi in enumerate(s.rows):
                    overlap = np.vdot(tilde, psi)
                    if i == j:
                        assert overlap.real > 0 and abs(overlap.imag) < 1e-9
                    else:
                        assert abs(overlap) <= 1e-9
            built += 1


import math

import numpy as np
import pytest

from nogosuper import linalg
from nogosuper.discrimination import (
    born_distribution,
    build_usd,
    probabilistic_clone,
    simulate_usd,
    success_probabilities,
)
from nogosuper.errors import LinearlyDependentInput, MeasurementMismatch
from nogosuper.states import StateSet, basis_state

from conftest import random_state_set

SQ2 = 1.0 / math.sqrt(2.0)
ZERO_PLUS = [[1, 0], [1, 1]]  # {|0>, |+>}
P_ZERO_PLUS = 1.0 - SQ2  # optimal symmetric two-state USD success probability


def random_independent_set(rng, dim, size):
    while True:
        s = random_state_set(rng, dim, size)
        if linalg.numerical_rank(s.gram(), 1e-9).rank == size:
            return s


class TestBuildUSD:
    def test_orthonormal_pair_is_projective(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        m = build_usd(s)
        np.testing.assert_allclose(m.elements[0], [[1, 0], [0, 0]], atol=1e-10)
        np.testing.assert_allclose(m.elements[1], [[0, 0], [0, 1]], atol=1e-10)
        np.testing.assert_allclose(m.inconclusive, np.zeros((2, 2)), atol=1e-10)
        assert success_probabilities(m, s) == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_zero_plus_pair_success_probability(self):
        # oracle: s = 1 / (1 + 1/sqrt(2)) from the 2x2 eigenproblem, then
        # Tr(E_1 rho_1) = s * |<minus|0>|^2 = s / 2 = 1 - 1/sqrt(2)
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        probs = success_probabilities(m, s)
        assert probs == pytest.approx([P_ZERO_PLUS, P_ZERO_PLUS], abs=1e-9)

    def test_dependent_set_rejected(self):
        s = StateSet.from_vectors([[1, 0, 0], [0, 1, 0], [SQ2, SQ2, 0]])
        with pytest.raises(LinearlyDependentInput):
            build_usd(s)

    def test_ill_conditioned_independent_set_accepted(self):
        # amplitude singular values (1.41, 1, 7.1e-7): independent at the
        # default rank tolerance 1e-9, so USD exists, if barely
        s = StateSet.from_vectors([[1, 0, 0], [1, 1e-6, 0], [0, 0, 1]])
        m = build_usd(s)
        # oracle: p_j = scale / (G^-1)_jj with one common scale; by hand,
        # G = [[1, c, 0], [c, 1, 0], [0, 0, 1]] with c^2 = 1 / (1 + eps)
        eps = 1e-12
        inv_diag = np.array([(1 + eps) / eps, (1 + eps) / eps, 1.0])
        probs = np.array(success_probabilities(m, s))
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(probs * inv_diag, probs[2] * inv_diag[2], rtol=1e-6)
        for k, e in enumerate(m.elements):
            for j, psi in enumerate(s.members):
                if j != k:
                    assert abs(np.vdot(psi.amplitudes, e @ psi.amplitudes)) <= 1e-20

    def test_rank_tolerance_reaches_the_reciprocal_basis(self):
        # sigma ratio 5e-7: independent at tol 1e-9, dependent at tol 1e-6
        s = StateSet.from_vectors([[1, 0, 0], [1, 1e-6, 0], [0, 0, 1]])
        assert build_usd(s, 1e-9).n_hypotheses == 3
        with pytest.raises(LinearlyDependentInput):
            build_usd(s, 1e-6)

    def test_more_states_than_dimensions_rejected(self):
        s = StateSet.from_vectors([[1, 0], [1, 1], [0, 1]])
        with pytest.raises(LinearlyDependentInput):
            build_usd(s)

    def test_povm_invariants_on_random_sets(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_independent_set(rng, dim, size)
            m = build_usd(s)
            total = m.inconclusive + sum(m.elements)
            assert np.max(np.abs(total - m.span_projector)) <= 1e-10
            for e in [m.inconclusive, *m.elements]:
                assert np.linalg.eigvalsh(e)[0] >= -1e-10
            # unambiguity: element k never fires on hypothesis j != k
            for k, e in enumerate(m.elements):
                for j, psi in enumerate(s.members):
                    p = np.real(np.vdot(psi.amplitudes, e @ psi.amplitudes))
                    if j != k:
                        assert p <= 1e-9

    def test_nonzero_success_on_random_sets(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_independent_set(rng, dim, size)
            m = build_usd(s)
            assert min(success_probabilities(m, s)) > 0.0

    def test_three_orthogonal_states_all_certain(self):
        s = StateSet([basis_state(3, i) for i in range(3)])
        m = build_usd(s)
        assert success_probabilities(m, s) == pytest.approx([1, 1, 1], abs=1e-10)

    def test_mismatched_measurement_rejected(self):
        m = build_usd(StateSet.from_vectors(ZERO_PLUS))
        with pytest.raises(MeasurementMismatch):
            success_probabilities(m, StateSet([basis_state(3, 0)]))


class TestSimulateUSD:
    def test_orthonormal_truth_always_identified(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        m = build_usd(s)
        out = simulate_usd(m, s.members[0], 100, np.random.default_rng(0))
        assert out.per_label_counts[0] == 100

    def test_zero_plus_statistics(self):
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        trials = 100_000
        out = simulate_usd(m, s.members[0], trials, np.random.default_rng(11))
        assert out.per_label_counts[1] == 0  # never misidentified
        rate = out.per_label_counts[0] / trials
        sigma3 = 3.0 * math.sqrt(P_ZERO_PLUS * (1 - P_ZERO_PLUS) / trials)
        assert abs(rate - P_ZERO_PLUS) < sigma3

    def test_single_trial_counts_sum(self, rng):
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        out = simulate_usd(m, s.members[1], 1, rng)
        assert out.per_label_counts.sum() == 1

    def test_never_misidentifies_across_random_sets(self, rng):
        # cumulative zero-error check over many sets and trials
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_independent_set(rng, dim, size)
            m = build_usd(s)
            truth_idx = int(rng.integers(size))
            out = simulate_usd(m, s.members[truth_idx], 2000, rng)
            wrong = out.per_label_counts[:size].sum() - out.per_label_counts[truth_idx]
            assert wrong == 0

    def test_born_distribution_sums_to_one(self, rng):
        s = random_independent_set(rng, 4, 3)
        m = build_usd(s)
        for member in s.members:
            assert born_distribution(m, member).sum() == pytest.approx(1.0)


class TestProbabilisticClone:
    def test_orthonormal_always_clones_exactly(self, rng):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        for _ in range(20):
            result = probabilistic_clone(s, s.members[1], rng)
            assert result.succeeded
            for copy in result.copies:
                np.testing.assert_allclose(copy.amplitudes, s.members[1].amplitudes)
            assert result.fidelity_to_input == pytest.approx(1.0, abs=1e-10)

    def test_zero_plus_success_rate_and_fidelity(self):
        s = StateSet.from_vectors(ZERO_PLUS)
        rng = np.random.default_rng(21)
        trials = 10_000  # probabilistic_clone rebuilds its USD each call
        hits = 0
        for _ in range(trials):
            result = probabilistic_clone(s, s.members[1], rng)
            if result.succeeded:
                hits += 1
                assert result.fidelity_to_input == pytest.approx(1.0, abs=1e-10)
        sigma3 = 3.0 * math.sqrt(P_ZERO_PLUS * (1 - P_ZERO_PLUS) / trials)
        assert abs(hits / trials - P_ZERO_PLUS) < sigma3

    def test_dependent_set_rejected(self, rng):
        s = StateSet.from_vectors([[1, 0, 0], [0, 1, 0], [SQ2, SQ2, 0]])
        with pytest.raises(LinearlyDependentInput):
            probabilistic_clone(s, s.members[0], rng)

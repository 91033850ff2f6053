import math

import numpy as np
import pytest

from nogosuper import linalg, pipeline
from nogosuper.discrimination import (
    MAX_TRIALS,
    born_distribution,
    build_usd,
    povm_elements,
    simulate_usd,
    success_probabilities,
)
from nogosuper.errors import InvalidParams, LinearlyDependentInput, MeasurementMismatch, NogoError
from nogosuper.states import StateSet, basis_state, normalize

from nogosuper.superposer import AlwaysSucceed, ConstantPhase, SuperposerConfig

from conftest import random_orthonormal, random_state_set

SQ2 = 1.0 / math.sqrt(2.0)
ZERO_PLUS = [[1, 0], [1, 1]]  # {|0>, |+>}
P_ZERO_PLUS = 1.0 - SQ2  # optimal symmetric two-state USD success probability


def random_independent_set(rng, dim, size):
    while True:
        s = random_state_set(rng, dim, size)
        if linalg.numerical_rank(s.gram(), 1e-9).rank == size:
            return s


def dense_usd_reference(hypotheses):
    """The USD POVM as the package built it when it kept the d x d matrices:
    reciprocal vectors as unit columns of A (A^H A)^-1, elements scaled by
    1 / lambda_max of their projector sum, E_0 the rest of the QR span
    projector, symmetrised."""
    a = hypotheses.amplitude_matrix()
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    tilde = (u / sigma) @ vh
    recip = [col / np.linalg.norm(col) for col in tilde.T]
    projectors = [np.outer(r, r.conj()) for r in recip]
    scale = 1.0 / float(np.linalg.eigvalsh(np.sum(projectors, axis=0))[-1])
    elements = [scale * p for p in projectors]
    span, _ = np.linalg.qr(a)
    inconclusive = span @ span.conj().T - sum(elements)
    inconclusive = 0.5 * (inconclusive + inconclusive.conj().T)
    probs = [min(scale * abs(complex(np.vdot(r, psi.amplitudes))) ** 2, 1.0)
             for r, psi in zip(recip, hypotheses.members)]
    return elements, inconclusive, probs


class TestBuildUSD:
    def test_orthonormal_pair_is_projective(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        m = build_usd(s)
        elements, inconclusive = povm_elements(m)
        np.testing.assert_allclose(elements[0], [[1, 0], [0, 0]], atol=1e-10)
        np.testing.assert_allclose(elements[1], [[0, 0], [0, 1]], atol=1e-10)
        np.testing.assert_allclose(inconclusive, np.zeros((2, 2)), atol=1e-10)
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
        for k, e in enumerate(povm_elements(m)[0]):
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
            elements, inconclusive = povm_elements(m)
            total = inconclusive + sum(elements)
            assert np.max(np.abs(total - m.span @ m.span.conj().T)) <= 1e-10
            for e in [inconclusive, *elements]:
                assert np.linalg.eigvalsh(e)[0] >= -1e-10
            # unambiguity: element k never fires on hypothesis j != k
            for k, e in enumerate(elements):
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

    def test_matches_the_dense_reference_bit_for_bit(self, rng):
        # the `usd` report prints these numbers, so they must keep every bit
        for dim in range(2, 17):
            for _ in range(3):
                s = random_independent_set(rng, dim, int(rng.integers(1, dim + 1)))
                m = build_usd(s)
                assert m.reciprocal.shape == (len(s), dim) and m.span.shape == (dim, len(s))
                elements, inconclusive = povm_elements(m)
                want_elements, want_inconclusive, want_probs = dense_usd_reference(s)
                assert len(elements) == len(want_elements)
                for got, want in zip(elements, want_elements):
                    assert np.array_equal(got, want)
                assert np.array_equal(inconclusive, want_inconclusive)
                assert success_probabilities(m, s) == want_probs

    def test_mismatched_measurement_rejected(self):
        m = build_usd(StateSet.from_vectors(ZERO_PLUS))
        with pytest.raises(MeasurementMismatch):
            success_probabilities(m, StateSet([basis_state(3, 0)]))


class TestSimulateUSD:
    def test_orthonormal_truth_always_identified(self):
        s = StateSet([basis_state(2, 0), basis_state(2, 1)])
        m = build_usd(s)
        counts = simulate_usd(m, s.members[0], 100, np.random.default_rng(0))
        assert counts[0] == 100

    def test_zero_plus_statistics(self):
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        trials = 100_000
        counts = simulate_usd(m, s.members[0], trials, np.random.default_rng(11))
        assert counts[1] == 0  # never misidentified
        rate = counts[0] / trials
        sigma3 = 3.0 * math.sqrt(P_ZERO_PLUS * (1 - P_ZERO_PLUS) / trials)
        assert abs(rate - P_ZERO_PLUS) < sigma3

    def test_single_trial_counts_sum(self, rng):
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        counts = simulate_usd(m, s.members[1], 1, rng)
        assert counts.sum() == 1

    def test_never_misidentifies_across_random_sets(self, rng):
        # cumulative zero-error check over many sets and trials
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            size = int(rng.integers(2, dim + 1))
            s = random_independent_set(rng, dim, size)
            m = build_usd(s)
            truth_idx = int(rng.integers(size))
            counts = simulate_usd(m, s.members[truth_idx], 2000, rng)
            wrong = counts[:size].sum() - counts[truth_idx]
            assert wrong == 0

    def test_born_distribution_sums_to_one(self, rng):
        s = random_independent_set(rng, 4, 3)
        m = build_usd(s)
        for member in s.members:
            assert born_distribution(m, member).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("trials", [0, -1, MAX_TRIALS + 1])
    def test_trials_out_of_bounds_rejected(self, trials, rng):
        s = StateSet.from_vectors(ZERO_PLUS)
        with pytest.raises(InvalidParams):
            simulate_usd(build_usd(s), s.members[0], trials, rng)

    def test_cross_talk_of_a_truth_in_the_span(self, rng):
        # normalize(|0> + |+>) is in the span but is neither hypothesis, so
        # both conclusive labels have positive probability
        s = StateSet.from_vectors(ZERO_PLUS)
        m = build_usd(s)
        truth = normalize(s.members[0].amplitudes + s.members[1].amplitudes)
        row = born_distribution(m, truth)
        assert row[0] > 0.0 and row[1] > 0.0
        assert row.sum() == pytest.approx(1.0)
        counts = simulate_usd(m, truth, 10_000, rng)
        assert np.count_nonzero(counts[:2]) == 2


class TestBornDistribution:
    def test_row_diagonal_equals_success_probabilities_near_locus(self):
        # 1e-9 off the locus Tr(E_j rho_j) is ~1e-19; as a quadratic form it
        # came out as round-off of either sign and was clipped to 0
        p = pipeline.standard_params(SQ2, SQ2)
        cfg = SuperposerConfig(SQ2, SQ2, ConstantPhase(0.0), AlwaysSucceed())
        phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, math.pi / 4.0 + 1e-9)
        outputs, _ = pipeline.apply_superposer_to_set(cfg, p, phases)
        m = build_usd(outputs, 1e-13)
        probs = success_probabilities(m, outputs)
        for j, out in enumerate(outputs.members):
            row = born_distribution(m, out)
            assert row[j] == probs[j]
            assert min(row) >= 0.0

    def test_rows_of_orthonormal_sets_are_probabilities(self, rng):
        # scale |<r_j|psi_j>|^2 reaches 1 + 1e-15 on a few percent of the rows
        # of orthonormal sets; the rows must still be multinomial probabilities
        for dim in range(2, 17):
            for size in range(1, dim + 1):
                s = StateSet(random_orthonormal(rng, dim, size))
                m = build_usd(s)
                for j, member in enumerate(s.members):
                    row = born_distribution(m, member)
                    assert 0.0 <= row.min() and row.max() <= 1.0
                    assert simulate_usd(m, member, 100, rng)[j] == 100

    def test_rows_without_an_inconclusive_outcome_are_probabilities(self, rng):
        # along the top eigenvector of sum_j |r_j><r_j| the conclusive entries
        # sum to 1, and round-off takes 1 - sum below 0 on about 40% of sets
        for _ in range(50):
            s = random_independent_set(rng, int(rng.integers(2, 9)), 2)
            m = build_usd(s)
            total = sum(np.outer(r, r.conj()) for r in m.reciprocal)
            truth = normalize(np.linalg.eigh(total)[1][:, -1])
            row = born_distribution(m, truth)
            assert row[-1] == pytest.approx(0.0, abs=1e-12) and row.min() >= 0.0
            assert simulate_usd(m, truth, 100, rng)[-1] == 0

    @pytest.mark.parametrize("weight, refused", [(2e-9, True), (5e-10, False)])
    def test_span_weight_decides_refusal(self, weight, refused):
        # out-of-span weight w: truth = sqrt(1 - w) |0> + sqrt(w) |2> against
        # hypotheses spanning {|0>, |1>}, so ||Q^H truth||^2 = 1 - w
        s = StateSet([basis_state(3, 0), basis_state(3, 1)])
        truth = normalize(np.array([math.sqrt(1.0 - weight), 0.0, math.sqrt(weight)]))
        m = build_usd(s)
        if refused:
            with pytest.raises(NogoError):
                born_distribution(m, truth)
        else:
            assert born_distribution(m, truth) == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("truth", [[0, 0, 1], [1, 0, 1]])
    def test_truth_outside_the_span_refused(self, truth):
        s = StateSet([basis_state(3, 0), basis_state(3, 1)])
        with pytest.raises(NogoError):
            born_distribution(build_usd(s), normalize(np.array(truth, dtype=complex)))


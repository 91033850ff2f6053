import math

import numpy as np
import pytest

from nogosuper.errors import DimensionMismatch, InvalidParams, NullSuperposition
from nogosuper.states import PureState, basis_state, canonicalize
from nogosuper.superposer import (
    AlwaysSucceed,
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    PhasePolicy,
    SuperposerConfig,
    given_frame_phase,
    superpose,
    superpose_deterministic,
    superpose_many,
    unit_pair,
)

from conftest import random_pure_state

SQ2 = 1.0 / math.sqrt(2.0)


def balanced_cfg(phase_policy=None, success_policy=None):
    return SuperposerConfig(
        alpha=SQ2,
        beta=SQ2,
        phase_policy=phase_policy or ConstantPhase(0.0),
        success_policy=success_policy or AlwaysSucceed(),
    )


class TestConfigValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidParams):
            SuperposerConfig(0.0, 1.0, ConstantPhase(), AlwaysSucceed())

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(InvalidParams):
            SuperposerConfig(1.0, 1.0, ConstantPhase(), AlwaysSucceed())

    def test_constant_success_range(self):
        with pytest.raises(InvalidParams):
            ConstantSuccess(0.0)
        with pytest.raises(InvalidParams):
            ConstantSuccess(1.5)


class CountingPhase(PhasePolicy):
    def __init__(self):
        self.calls = 0

    def phase(self, psi, phi):
        self.calls += 1
        return 0.3


class TestUnitPair:
    def test_drift_within_tolerance_renormalized(self):
        x, y = unit_pair(0.6, 0.8000000001, "a", "b")
        assert x * x + y * y == pytest.approx(1.0, abs=1e-15)
        assert y / x == pytest.approx(0.8000000001 / 0.6, rel=1e-15)

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8001), (math.nan, 1.0)])
    def test_invalid_pairs_rejected(self, pair):
        with pytest.raises(InvalidParams):
            unit_pair(*pair, "a", "b")

    def test_config_stores_the_renormalized_weights(self):
        cfg = SuperposerConfig(0.6j, 0.8000000001, ConstantPhase(), AlwaysSucceed())
        assert abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 == pytest.approx(1.0, abs=1e-15)


class TestSuperposeMany:
    def test_broadcasts_over_leading_phase_axes(self, rng):
        psis = np.column_stack([random_pure_state(rng, 4).amplitudes for _ in range(3)])
        phi = random_pure_state(rng, 4).amplitudes
        thetas = rng.uniform(0, 2 * np.pi, size=(5, 2, 3))
        out = superpose_many(0.6, 0.8j, psis, phi, thetas)
        assert out.shape == (5, 2, 4, 3)
        raw = 0.6 * psis[:, 1] + 0.8j * np.exp(1j * thetas[4, 1, 1]) * phi
        np.testing.assert_allclose(out[4, 1, :, 1], raw / np.linalg.norm(raw), atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-2), 1.0, atol=1e-15)

    def test_one_cancelled_column_raises(self):
        psis = np.eye(2, dtype=complex)
        with pytest.raises(NullSuperposition):
            superpose_many(SQ2, SQ2, psis, np.array([0.0, 1.0]), [0.0, math.pi])


class TestDeterministicSuperpose:
    def test_balanced_orthogonal_inputs(self):
        out = superpose_deterministic(balanced_cfg(), basis_state(2, 0), basis_state(2, 1))
        np.testing.assert_allclose(out.amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_parallel_inputs_reproduce_the_state(self):
        e1 = basis_state(2, 0)
        out = superpose_deterministic(balanced_cfg(), e1, e1)
        np.testing.assert_allclose(out.density_matrix(), e1.density_matrix(), atol=1e-12)

    def test_exact_cancellation_raises(self):
        cfg = balanced_cfg(ConstantPhase(math.pi))
        with pytest.raises(NullSuperposition):
            superpose_deterministic(cfg, basis_state(2, 0), basis_state(2, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            superpose_deterministic(balanced_cfg(), basis_state(2, 0), basis_state(3, 0))

    def test_output_norm_is_one(self, rng):
        cfg = balanced_cfg(CanonicalHashPhase())
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            out = superpose_deterministic(
                cfg, random_pure_state(rng, dim), random_pure_state(rng, dim)
            )
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_phase_covariance_at_density_matrix_level(self, rng):
        # global phases on the inputs must not change the output physics
        for policy in (ConstantPhase(0.7), OverlapArgPhase(), CanonicalHashPhase()):
            cfg = balanced_cfg(policy)
            for _ in range(20):
                dim = int(rng.integers(2, 6))
                psi = random_pure_state(rng, dim)
                phi = random_pure_state(rng, dim)
                u = np.exp(1j * rng.uniform(0, 2 * np.pi))
                v = np.exp(1j * rng.uniform(0, 2 * np.pi))
                base = superpose_deterministic(cfg, psi, phi)
                rotated = superpose_deterministic(
                    cfg, PureState(u * psi.amplitudes), PureState(v * phi.amplitudes)
                )
                np.testing.assert_allclose(
                    rotated.density_matrix(), base.density_matrix(), atol=1e-10
                )

    def test_given_frame_phase_reproduces_the_canonical_superposition(self, rng):
        for policy in (ConstantPhase(0.7), OverlapArgPhase(), CanonicalHashPhase()):
            cfg = balanced_cfg(policy)
            for _ in range(20):
                dim = int(rng.integers(2, 6))
                psi, phi = random_pure_state(rng, dim), random_pure_state(rng, dim)
                theta = given_frame_phase(policy, psi, phi)
                out = superpose_deterministic(cfg, psi, phi)
                raw = SQ2 * psi.amplitudes + SQ2 * np.exp(1j * theta) * phi.amplitudes
                np.testing.assert_allclose(out.amplitudes, raw / np.linalg.norm(raw),
                                           atol=1e-14)
                c_psi = canonicalize(psi).amplitudes
                c_phi = canonicalize(phi).amplitudes
                canon = SQ2 * c_psi + SQ2 * np.exp(1j * policy(psi, phi)) * c_phi
                canon = PureState(canon / np.linalg.norm(canon))
                assert abs(canon.inner(out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_canonical_inputs_keep_the_policy_phase(self):
        e1, e2 = basis_state(3, 0), basis_state(3, 1)
        assert given_frame_phase(ConstantPhase(0.0), e1, e2) == 0.0
        assert given_frame_phase(ConstantPhase(1.25), e1, e2) == 1.25


class TestPhasePolicies:
    def test_theta_range_over_random_inputs(self):
        rng = np.random.default_rng(7)
        policies = [ConstantPhase(5.0), OverlapArgPhase(), CanonicalHashPhase()]
        for _ in range(10_000 // 3):
            dim = int(rng.integers(2, 6))
            psi = random_pure_state(rng, dim)
            phi = random_pure_state(rng, dim)
            for policy in policies:
                theta = policy(psi, phi)
                assert 0.0 <= theta < 2.0 * math.pi

    def test_overlap_arg_orthogonal_inputs_gives_zero(self):
        assert OverlapArgPhase()(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_canonical_hash_is_representation_invariant(self, rng):
        policy = CanonicalHashPhase()
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            psi = random_pure_state(rng, dim)
            phi = random_pure_state(rng, dim)
            u = np.exp(1j * rng.uniform(0, 2 * np.pi))
            v = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert policy(psi, phi) == pytest.approx(
                policy(PureState(u * psi.amplitudes), PureState(v * phi.amplitudes)),
                abs=1e-9,
            )

    def test_canonical_hash_spreads_over_the_circle(self, rng):
        policy = CanonicalHashPhase()
        thetas = [
            policy(random_pure_state(rng, 3), random_pure_state(rng, 3))
            for _ in range(200)
        ]
        assert np.std(thetas) > 0.5


class TestProbabilisticSuperpose:
    def test_always_policy_always_succeeds(self, rng):
        cfg = balanced_cfg()
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        assert all(superpose(cfg, e1, e2, rng).succeeded for _ in range(100))

    def test_constant_half_success_rate(self):
        cfg = balanced_cfg(success_policy=ConstantSuccess(0.5))
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        rng = np.random.default_rng(2024)
        trials = 100_000
        hits = sum(superpose(cfg, e1, e2, rng).succeeded for _ in range(trials))
        # binomial 3 sigma = 3 * sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) < 3.0 * math.sqrt(0.25 / trials)

    def test_overlap_scaled_orthogonal_is_half(self, rng):
        cfg = balanced_cfg(success_policy=OverlapScaledSuccess())
        out = superpose(cfg, basis_state(2, 0), basis_state(2, 1), rng)
        assert out.probability == 0.5

    def test_outcome_reports_theta_and_probability(self, rng):
        cfg = balanced_cfg(ConstantPhase(1.25), ConstantSuccess(0.01))
        out = superpose(cfg, basis_state(2, 0), basis_state(2, 1), rng)
        assert out.theta_used == pytest.approx(1.25)
        assert out.probability == pytest.approx(0.01)
        if not out.succeeded:
            assert out.state is None

    def test_policy_evaluated_once_per_call(self, rng):
        policy = CountingPhase()
        cfg = balanced_cfg(policy)
        out = superpose(cfg, basis_state(2, 0), basis_state(2, 1), rng)
        assert out.succeeded
        assert policy.calls == 1

    def test_bit_identical_for_identical_seed(self):
        cfg = balanced_cfg(CanonicalHashPhase(), ConstantSuccess(0.7))
        psi = random_pure_state(np.random.default_rng(5), 4)
        phi = random_pure_state(np.random.default_rng(6), 4)
        runs = []
        for _ in range(2):
            out = superpose(cfg, psi, phi, np.random.default_rng(31))
            runs.append(out)
        assert runs[0].succeeded == runs[1].succeeded
        assert runs[0].theta_used == runs[1].theta_used
        assert runs[0].probability == runs[1].probability
        if runs[0].succeeded:
            np.testing.assert_array_equal(
                runs[0].state.amplitudes, runs[1].state.amplitudes
            )

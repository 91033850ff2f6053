import cmath
import math

import numpy as np
import pytest

from nogosuper import pipeline, superposer
from nogosuper.cli import SUCCESS_POLICIES
from nogosuper.errors import DimensionMismatch, InvalidParams, NullSuperposition
from nogosuper.states import StateSet, canonicalize, normalize
from nogosuper.superposer import (
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    PhasePolicy,
    SuperposerConfig,
    given_frame_phase,
    superpose_many,
    unit_pair,
)

from conftest import density_matrix, random_pure_state, superpose_deterministic

SQ2 = 1.0 / math.sqrt(2.0)
E2, E3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)  # basis states as rows


def balanced_cfg(phase_policy=None, success_policy=None):
    return SuperposerConfig(
        alpha=SQ2,
        beta=SQ2,
        phase_policy=phase_policy or ConstantPhase(0.0),
        success_policy=success_policy or ConstantSuccess(1.0),
    )


class TestConfigValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidParams):
            SuperposerConfig(0.0, 1.0, ConstantPhase(), ConstantSuccess(1.0))

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(InvalidParams):
            SuperposerConfig(1.0, 1.0, ConstantPhase(), ConstantSuccess(1.0))

    def test_constant_success_range(self):
        with pytest.raises(InvalidParams):
            ConstantSuccess(0.0)
        with pytest.raises(InvalidParams):
            ConstantSuccess(1.5)

    @pytest.mark.parametrize("p", [1e-4, 1.0])
    def test_constant_success_range_is_half_open(self, p):
        assert ConstantSuccess(p).probability(E2[0], E2[1]) == p


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

    @pytest.mark.parametrize("drift, accepted", [(0.8e-9, True), (1.2e-9, False)])
    def test_tolerance_is_one_in_a_billion(self, drift, accepted):
        y = math.sqrt(0.64 + drift)  # |0.6|^2 + |y|^2 = 1 + drift
        if accepted:
            assert unit_pair(0.6, y, "a", "b")[0] == pytest.approx(0.6, rel=1e-9)
        else:
            with pytest.raises(InvalidParams):
                unit_pair(0.6, y, "a", "b")

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8001), (math.nan, 1.0)])
    def test_invalid_pairs_rejected(self, pair):
        with pytest.raises(InvalidParams):
            unit_pair(*pair, "a", "b")

    def test_config_stores_the_renormalized_weights(self):
        cfg = SuperposerConfig(0.6j, 0.8000000001, ConstantPhase(), ConstantSuccess(1.0))
        assert abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 == pytest.approx(1.0, abs=1e-15)


class TestSuperposeMany:
    def test_rows_in_one_state_set_out(self):
        # the outputs are `normalize` of the raw rows, bit for bit
        rng = np.random.default_rng(30)
        for _ in range(200):
            dim, k = int(rng.integers(2, 17)), int(rng.integers(1, 5))
            psis = np.array([random_pure_state(rng, dim) for _ in range(k)])  # (k, dim) rows
            phi = random_pure_state(rng, dim)
            thetas = rng.uniform(0, 2 * np.pi, size=k)
            t, a, b = rng.uniform(0, 2 * np.pi, size=3)
            alpha, beta = math.cos(t) * np.exp(1j * a), math.sin(t) * np.exp(1j * b)
            out = superpose_many(alpha, beta, psis, phi, thetas)
            assert isinstance(out, StateSet) and out.rows.shape == (k, dim)
            raw = np.exp(1j * thetas)[:, None] * (beta * phi)
            raw += alpha * psis
            np.testing.assert_array_equal(out.rows, normalize(raw).rows)

    def test_one_cancelled_column_raises(self):
        # row 1 is phi itself and cancels at theta = pi; no column of psis does
        psis = np.array([[1.0, 0.0], [SQ2, SQ2]])
        with pytest.raises(NullSuperposition):
            superpose_many(SQ2, SQ2, psis, np.array([SQ2, SQ2]), [0.0, math.pi])


class TestDeterministicSuperpose:
    def test_balanced_orthogonal_inputs(self):
        out = superpose_deterministic(balanced_cfg(), E2[0], E2[1])
        np.testing.assert_allclose(out, [SQ2, SQ2], atol=1e-12)

    def test_parallel_inputs_reproduce_the_state(self):
        e1 = E2[0]
        out = superpose_deterministic(balanced_cfg(), e1, e1)
        np.testing.assert_allclose(density_matrix(out), density_matrix(e1), atol=1e-12)

    def test_exact_cancellation_raises(self):
        cfg = balanced_cfg(ConstantPhase(math.pi))
        with pytest.raises(NullSuperposition):
            superpose_deterministic(cfg, E2[0], E2[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            superpose_deterministic(balanced_cfg(), E2[0], E3[0])

    def test_output_norm_is_one(self, rng):
        cfg = balanced_cfg(CanonicalHashPhase())
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            out = superpose_deterministic(
                cfg, random_pure_state(rng, dim), random_pure_state(rng, dim)
            )
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

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
                rotated = superpose_deterministic(cfg, u * psi, v * phi)
                np.testing.assert_allclose(
                    density_matrix(rotated), density_matrix(base), atol=1e-10
                )

    def test_given_frame_phase_reproduces_the_canonical_superposition(self, rng):
        for policy in (ConstantPhase(0.7), OverlapArgPhase(), CanonicalHashPhase()):
            cfg = balanced_cfg(policy)
            for _ in range(20):
                dim = int(rng.integers(2, 6))
                psi, phi = random_pure_state(rng, dim), random_pure_state(rng, dim)
                theta = given_frame_phase(policy, psi, phi)
                out = superpose_deterministic(cfg, psi, phi)
                raw = SQ2 * psi + SQ2 * np.exp(1j * theta) * phi
                np.testing.assert_allclose(out, raw / np.linalg.norm(raw), atol=1e-14)
                c_psi, c_phi = canonicalize(psi), canonicalize(phi)
                canon = SQ2 * c_psi + SQ2 * np.exp(1j * policy(c_psi, c_phi)) * c_phi
                canon /= np.linalg.norm(canon)
                assert abs(np.vdot(canon, out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_canonical_inputs_keep_the_policy_phase(self):
        e1, e2 = E3[0], E3[1]
        assert given_frame_phase(ConstantPhase(0.0), e1, e2) == 0.0
        assert given_frame_phase(ConstantPhase(1.25), e1, e2) == 1.25

    def test_each_input_canonicalized_once_per_evaluation(self, monkeypatch, rng):
        calls = []

        def counting_canonicalize(s):
            calls.append(s)
            return canonicalize(s)

        monkeypatch.setattr(superposer, "canonicalize", counting_canonicalize)
        psi, phi = random_pure_state(rng, 4), random_pure_state(rng, 4)
        for policy in (ConstantPhase(0.7), OverlapArgPhase(), CanonicalHashPhase()):
            calls.clear()
            given_frame_phase(policy, psi, phi)
            assert len(calls) == 2
            assert np.array_equal(calls[0], psi) and np.array_equal(calls[1], phi)


class TestPhasePolicies:
    def test_theta_range_over_random_inputs(self):
        rng = np.random.default_rng(7)
        policies = [ConstantPhase(5.0), OverlapArgPhase(), CanonicalHashPhase()]
        for _ in range(10_000 // 3):
            dim = int(rng.integers(2, 6))
            psi = random_pure_state(rng, dim)
            phi = random_pure_state(rng, dim)
            for policy in policies:
                theta = policy(canonicalize(psi), canonicalize(phi))
                assert 0.0 <= theta < 2.0 * math.pi

    def test_constant_phase_defaults_to_zero(self):
        assert ConstantPhase()(E2[0], E2[1]) == 0.0

    @pytest.mark.parametrize("size, theta", [(0.8e-6, 0.0), (1.2e-6, 0.5)])
    def test_overlap_arg_cutoff_is_one_in_a_million(self, size, theta):
        phi = np.array([size * cmath.exp(0.5j), math.sqrt(1.0 - size**2)])
        assert OverlapArgPhase()(E2[0], phi) == pytest.approx(theta, abs=1e-12)

    def test_tiny_negative_phases_wrap_to_zero_at_every_site(self):
        # `%` rounds a tiny negative phase up to exactly 2 pi; each site maps it to 0
        assert -1e-20 % (2.0 * math.pi) == 2.0 * math.pi
        ahead = pipeline.PhaseTriple(1e-20, 0.0, 0.0)
        phi = np.array([complex(1.0, 1e-20), 0.0])  # kappa_phi = -1e-20
        zeros = [*vars(pipeline.PhaseTriple(-1e-20, -1e-20, -1e-20)).values(),
                 ahead.theta21, ahead.theta31,
                 ConstantPhase(-1e-20)(E2[0], E2[1]),
                 given_frame_phase(ConstantPhase(0.0), E2[0], phi)]
        t21, t31 = pipeline.solve_degeneracy_analytic(1.0, 1e-300)[1]
        assert zeros == [0.0] * 9 and t31 == 0.0, (zeros, t31)
        assert t21 == 3.0 * math.pi / 2.0

    def test_overlap_arg_orthogonal_inputs_gives_zero(self):
        assert OverlapArgPhase()(canonicalize(E2[0]), canonicalize(E2[1])) == 0.0

    def test_no_phase_moves_under_global_phases(self):
        # a global phase reaches a policy only through the round-off of
        # `canonicalize`, so a policy with a jump in its inputs, such as a
        # hash of rounded text, fails when a pair lands at the jump
        rng = np.random.default_rng(2029)
        policies = (ConstantPhase(0.7), OverlapArgPhase(), CanonicalHashPhase())
        moves = []
        for i in range(6000):
            dim = int(rng.integers(2, 17))
            psi, phi = random_pure_state(rng, dim), random_pure_state(rng, dim)
            if i >= 4000:
                # near-orthogonal, |<psi|phi>| log-uniform in [1e-12, 1e-4]:
                # the arg of an overlap of size eps moves by about 1e-16 / eps
                perp = phi - np.vdot(psi, phi) * psi
                perp /= np.linalg.norm(perp)
                eps = 10.0 ** rng.uniform(-12, -4)
                tilt = eps * np.exp(2j * math.pi * rng.uniform())
                phi = tilt * psi + math.sqrt(1 - eps**2) * perp
            u, v = np.exp(2j * math.pi * rng.uniform(size=2))
            rows = canonicalize(psi), canonicalize(phi)
            turned = canonicalize(u * psi), canonicalize(v * phi)
            moves.append([policy(*rows) - policy(*turned) for policy in policies])
        on_circle = np.abs(np.remainder(np.array(moves) + math.pi, 2 * math.pi) - math.pi)
        assert (on_circle.max(axis=0) <= 1e-9).all(), on_circle.max(axis=0)

    def test_canonical_hash_takes_real_rows_as_their_complex_copies(self, rng):
        policy = CanonicalHashPhase()
        for dim in range(2, 17):
            real = rng.standard_normal((2, dim))
            real[:, 0] = np.abs(real[:, 0]) + 0.1
            psi, phi = (canonicalize(r / np.linalg.norm(r)) for r in real)
            assert psi.dtype == phi.dtype == np.float64
            assert policy.phase(psi, phi) == policy.phase(psi.astype(complex),
                                                          phi.astype(complex))

    def test_canonical_hash_merges_signed_zeros(self, rng):
        policy = CanonicalHashPhase()
        signed_zeros = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                                 complex(-1e-13, 4e-13), complex(0.6, -0.0), 0.8])
        for dim in range(2, 17):
            for _ in range(20):
                minus = [rng.choice(signed_zeros, size=dim) for _ in range(2)]
                plus = [row + 0.0 for row in minus]  # -0.0 + 0.0 == +0.0, part by part
                parts = np.concatenate(plus).view(float)
                assert not np.signbit(parts[parts == 0.0]).any()
                assert policy.phase(*minus) == policy.phase(*plus)

    def test_canonical_hash_spreads_over_the_circle(self, rng):
        policy = CanonicalHashPhase()
        for dim in range(2, 17):
            thetas = [
                policy(canonicalize(random_pure_state(rng, dim)),
                       canonicalize(random_pure_state(rng, dim)))
                for _ in range(200)
            ]
            assert np.std(thetas) > 0.5, dim


class TestProbabilisticSuperpose:
    """The oracle's per-invocation parts: its success policies, one phase
    evaluation per call, and its success draws as the demo samples them."""

    def test_always_policy_always_succeeds(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            psi, phi = random_pure_state(rng, dim), random_pure_state(rng, dim)
            assert SUCCESS_POLICIES["always"](None).probability(psi, phi) == 1.0

    def test_constant_half_success_rate(self):
        cfg = balanced_cfg(success_policy=ConstantSuccess(0.5))
        p = pipeline.standard_params(SQ2, SQ2)
        trials = 100_000
        report = pipeline.forbidden_task_demo(p, cfg, trials, np.random.default_rng(2024))
        hits = trials - report.superposer_failures
        # binomial 3 sigma = 3 * sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) < 3.0 * math.sqrt(0.25 / trials)

    def test_overlap_scaled_orthogonal_is_half(self):
        assert OverlapScaledSuccess().probability(E2[0], E2[1]) == 0.5

    def test_overlap_scaled_grows_with_the_overlap(self):
        # |<psi|phi>| = 0.6: (1 + 0.36) / 2
        phi = np.array([0.6j, 0.8])
        assert OverlapScaledSuccess().probability(E2[0], phi) == pytest.approx(0.68, abs=1e-15)

    def test_outcome_reports_theta_and_probability(self, rng):
        # canonical inputs keep the policy's phase; the oracle's success
        # probability scales the predicted conclusive rate
        cfg = balanced_cfg(ConstantPhase(1.25), ConstantSuccess(0.01))
        p = pipeline.standard_params(SQ2, SQ2)
        report = pipeline.forbidden_task_demo(p, cfg, 1000, rng)
        for theta in (report.phases.theta1, report.phases.theta2, report.phases.theta3):
            assert theta == pytest.approx(1.25)
        assert report.predicted_conclusive_rate == pytest.approx(
            0.01 * np.mean(report.predicted_usd_probabilities))

    def test_policy_evaluated_once_per_call(self):
        policy = CountingPhase()
        theta = given_frame_phase(policy, E2[0], E2[1])
        assert theta == pytest.approx(0.3)
        assert policy.calls == 1

    def test_bit_identical_for_identical_seed(self):
        cfg = balanced_cfg(CanonicalHashPhase(), ConstantSuccess(0.7))
        p = pipeline.standard_params(0.6, 0.8, dim=4)
        runs = [pipeline.forbidden_task_demo(p, cfg, 1000, np.random.default_rng(31))
                for _ in range(2)]
        assert runs[0].phases == runs[1].phases
        assert runs[0].superposer_failures == runs[1].superposer_failures
        np.testing.assert_array_equal(runs[0].secret_counts, runs[1].secret_counts)
        np.testing.assert_array_equal(runs[0].conclusive_counts, runs[1].conclusive_counts)

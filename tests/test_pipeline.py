import math

import numpy as np
import pytest

from nogosuper import pipeline
from nogosuper.errors import DependentOutputs, InvalidParams, WrongSetSize
from nogosuper.states import StateSet, basis_state
from nogosuper.superposer import (
    AlwaysSucceed,
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    SuperposerConfig,
    superpose_deterministic,
)

from conftest import random_orthonormal

SQ2 = 1.0 / math.sqrt(2.0)


def balanced_params(dim=3):
    return pipeline.standard_params(SQ2, SQ2, dim=dim)


def balanced_cfg(policy=None, success=None):
    return SuperposerConfig(SQ2, SQ2, policy or ConstantPhase(0.0),
                            success or AlwaysSucceed())


class TestCounterexample:
    def test_balanced_triple(self):
        s = pipeline.build_counterexample(balanced_params())
        np.testing.assert_allclose(s.members[2].amplitudes, [SQ2, SQ2, 0], atol=1e-12)
        from nogosuper.linalg import numerical_rank
        assert numerical_rank(s.gram(), 1e-9).rank == 2

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(0.0, 1.0)

    def test_dim_two_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(SQ2, SQ2, dim=2)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(0.5, 0.5)

    def test_non_orthogonal_states_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.CounterexampleParams(
                a=SQ2, b=SQ2,
                psi=basis_state(3, 0),
                psi_perp=basis_state(3, 1),
                phi=basis_state(3, 0),
            )

    def test_input_rank_is_two_for_random_params(self, rng):
        from nogosuper.linalg import numerical_rank
        for _ in range(20):
            dim = int(rng.integers(3, 7))
            psi, perp, phi = random_orthonormal(rng, dim, 3)
            angle = rng.uniform(0.1, math.pi / 2 - 0.1)
            p = pipeline.CounterexampleParams(
                a=math.cos(angle), b=math.sin(angle), psi=psi, psi_perp=perp, phi=phi
            )
            s = pipeline.build_counterexample(p)
            assert numerical_rank(s.gram(), 1e-9).rank == 2


class TestApplySuperposer:
    def test_balanced_zero_phase_amplitudes(self):
        outputs, phases = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        # hand expansion: Psi_3 = (a/sqrt2, b/sqrt2, 1/sqrt2) with a = b = 1/sqrt2
        np.testing.assert_allclose(
            outputs.members[2].amplitudes, [0.5, 0.5, SQ2], atol=1e-12
        )
        assert phases.theta1 == phases.theta2 == phases.theta3 == 0.0

    def test_phi_overlap_equals_beta_modulus(self, rng):
        for policy in (ConstantPhase(1.0), CanonicalHashPhase()):
            cfg = balanced_cfg(policy)
            p = balanced_params(dim=4)
            outputs, _ = pipeline.apply_superposer_to_set(cfg, p)
            for out in outputs.members:
                assert abs(p.phi.inner(out)) == pytest.approx(abs(cfg.beta), abs=1e-12)

    def test_hash_policy_is_reproducible(self):
        cfg = balanced_cfg(CanonicalHashPhase())
        a, pa = pipeline.apply_superposer_to_set(cfg, balanced_params())
        b, pb = pipeline.apply_superposer_to_set(cfg, balanced_params())
        assert pa == pb
        for x, y in zip(a.members, b.members):
            np.testing.assert_array_equal(x.amplitudes, y.amplitudes)


    def test_outputs_equal_the_oracle_on_random_params(self, rng):
        # random orthonormal states carry arbitrary global phases, so the
        # policies' canonical frame differs from the given one
        policies = (ConstantPhase(0.9), OverlapArgPhase(), CanonicalHashPhase())
        for _ in range(30):
            dim = int(rng.integers(3, 7))
            psi, perp, phi = random_orthonormal(rng, dim, 3)
            angle = rng.uniform(0.05, 2 * math.pi)
            p = pipeline.CounterexampleParams(
                a=math.cos(angle), b=math.sin(angle), psi=psi, psi_perp=perp, phi=phi
            )
            alpha = np.exp(1j * rng.uniform(0, 2 * math.pi)) * math.cos(0.4)
            for policy in policies:
                cfg = SuperposerConfig(alpha, math.sin(0.4), policy, AlwaysSucceed())
                outputs, _ = pipeline.apply_superposer_to_set(cfg, p)
                inputs = pipeline.build_counterexample(p)
                for s, out in zip(inputs.members, outputs.members):
                    oracle = superpose_deterministic(cfg, s, p.phi)
                    assert abs(oracle.inner(out)) ** 2 >= 1 - 1e-12

    def test_explicit_phases_act_on_the_given_representatives(self):
        p = balanced_params()
        phases = pipeline.PhaseTriple(0.3, 1.1, 2.5)
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), p, phases)
        inputs = pipeline.build_counterexample(p)
        for s, out, theta in zip(inputs.members, outputs.members, (0.3, 1.1, 2.5)):
            expected = SQ2 * s.amplitudes + SQ2 * np.exp(1j * theta) * p.phi.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


class TestCertifyIndependence:
    def test_generic_outputs_independent(self):
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        cert = pipeline.certify_independence(outputs)
        assert cert.independent and cert.gram_rank.rank == 3
        assert cert.coefficients is None

    def test_constructed_dependence_coefficients(self):
        s = StateSet.from_vectors([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        cert = pipeline.certify_independence(s)
        assert not cert.independent
        assert cert.residual_norm <= 1e-8
        # coefficients proportional to (1, 1, -sqrt(2)), max modulus 1
        x = cert.coefficients
        assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-12)
        ratio = x / x[0]
        np.testing.assert_allclose(ratio, [1.0, 1.0, -math.sqrt(2.0)], atol=1e-9)

    def test_on_locus_phases_dependent(self):
        p = balanced_params()
        theta31 = math.atan2(p.b, p.a)  # a = cos, b = sin branch
        phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, theta31)
        outputs, used = pipeline.apply_superposer_to_set(balanced_cfg(), p, phases)
        assert used == phases
        cert = pipeline.certify_independence(outputs)
        assert not cert.independent
        assert cert.residual_norm <= 1e-8

    def test_null_vector_matches_svd_oracle_up_to_dim_16(self, rng):
        for _ in range(20):
            dim = int(rng.integers(3, 17))
            v = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = StateSet.from_vectors([v[:, 0], v[:, 1], v @ c])
            a = s.amplitude_matrix()
            sigma = np.linalg.svd(a, compute_uv=False)
            cert = pipeline.certify_independence(s)
            np.testing.assert_allclose(cert.gram_rank.singular_values, sigma, atol=1e-12)
            assert not cert.independent and cert.gram_rank.rank == 2
            assert np.max(np.abs(cert.coefficients)) == pytest.approx(1.0, abs=1e-12)
            assert cert.residual_norm <= 1e-12
            assert np.linalg.norm(a @ cert.coefficients) <= 1e-12

    def test_rank_follows_tolerance(self):
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        sigma = np.linalg.svd(outputs.amplitude_matrix(), compute_uv=False)
        for tol in (1e-9, 0.05, 0.3, 0.6):
            cert = pipeline.certify_independence(outputs, tol)
            assert cert.gram_rank.rank == np.sum(sigma > tol * sigma[0])
            assert cert.independent == (cert.gram_rank.rank == 3)

    def test_wrong_set_size_rejected(self):
        with pytest.raises(WrongSetSize):
            pipeline.certify_independence(StateSet.from_vectors([[1, 0], [0, 1]]))


class TestDegeneracyLocus:
    def test_balanced_analytic_solutions(self):
        locus = pipeline.solve_degeneracy_analytic(SQ2, SQ2)
        assert locus.solutions[0] == pytest.approx((math.pi / 2, math.pi / 4))
        assert locus.solutions[1] == pytest.approx((3 * math.pi / 2, 7 * math.pi / 4))

    def test_generic_angle_solutions(self):
        a, b = math.cos(0.3), math.sin(0.3)
        locus = pipeline.solve_degeneracy_analytic(a, b)
        assert locus.solutions[0] == pytest.approx((math.pi / 2, 0.3))
        assert locus.solutions[1] == pytest.approx((3 * math.pi / 2, 2 * math.pi - 0.3))

    def test_solutions_satisfy_phase_constraints(self, rng):
        for _ in range(20):
            angle = rng.uniform(0.05, math.pi / 2 - 0.05)
            a, b = math.cos(angle), math.sin(angle)
            locus = pipeline.solve_degeneracy_analytic(a, b)
            for t21, t31 in locus.solutions:
                bp = np.exp(1j * t21) * b
                assert abs(abs(a + bp) - 1.0) <= 1e-12
                assert abs(a**2 + abs(bp) ** 2 - 1.0) <= 1e-12
                # the full degeneracy condition with theta1 = 0
                assert abs(a + bp - np.exp(1j * t31)) <= 1e-10

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.solve_degeneracy_analytic(0.0, 1.0)
        with pytest.raises(InvalidParams):
            pipeline.solve_degeneracy_analytic(0.5, 0.5)


class TestScan:
    def test_scan_matches_analytic_locus(self):
        p = balanced_params()
        step = math.pi / 180.0
        scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, step)
        analytic = pipeline.solve_degeneracy_analytic(p.a, p.b)
        detected = scan.detected.solutions
        assert detected, "scan found no degeneracies"
        for d in detected:
            gap = min(
                max(abs(d[0] - s[0]), abs(d[1] - s[1])) for s in analytic.solutions
            )
            assert gap <= step + 1e-12
        for s in analytic.solutions:
            gap = min(max(abs(d[0] - s[0]), abs(d[1] - s[1])) for d in detected)
            assert gap <= step + 1e-12

    def test_no_degeneracy_on_zero_theta21_line(self):
        scan = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, 0.05)
        assert np.all(scan.ranks[0, :] == 3)  # theta21 = 0 row

    def test_detected_rank_is_exactly_two(self):
        p = balanced_params()
        scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, math.pi / 180.0)
        i = np.argmin(np.abs(scan.theta21_grid - math.pi / 2))
        j = np.argmin(np.abs(scan.theta31_grid - math.pi / 4))
        assert scan.ranks[i, j] == 2

    def test_bad_grid_step_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, 0.2)


class TestForbiddenTaskDemo:
    def test_zero_trials_gives_empty_report(self, rng):
        report = pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), 0, rng)
        assert report.trials == 0
        assert report.conclusive_counts.sum() == 0
        assert report.misidentifications == 0

    def test_on_locus_policy_refused(self, rng):
        # constant policies give theta21 = 0, never on the locus; pin the
        # phases explicitly to hit it
        p = balanced_params()
        phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, math.atan2(p.b, p.a))
        with pytest.raises(DependentOutputs):
            pipeline.forbidden_task_demo(p, balanced_cfg(), 10, rng, phases=phases)

    def test_large_run_statistics(self):
        trials = 100_000
        report = pipeline.forbidden_task_demo(
            balanced_params(), balanced_cfg(), trials, np.random.default_rng(7)
        )
        assert report.misidentifications == 0
        assert report.conclusive_rate > 0.0
        pred = report.predicted_conclusive_rate
        sigma3 = 3.0 * math.sqrt(pred * (1 - pred) / trials)
        assert abs(report.conclusive_rate - pred) < sigma3
        assert report.clone_fidelity_min == pytest.approx(1.0, abs=1e-10)
        assert report.secret_counts.sum() == trials

    def test_success_policy_reduces_conclusive_rate(self):
        full = pipeline.forbidden_task_demo(
            balanced_params(), balanced_cfg(), 20_000, np.random.default_rng(3)
        )
        half = pipeline.forbidden_task_demo(
            balanced_params(), balanced_cfg(success=ConstantSuccess(0.5)),
            20_000, np.random.default_rng(3)
        )
        assert half.superposer_failures > 0
        assert half.conclusive_counts.sum() < full.conclusive_counts.sum()

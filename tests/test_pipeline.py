import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosuper import cli, linalg, pipeline
from nogosuper.discrimination import born_distribution, build_usd
from nogosuper.errors import DependentOutputs, InvalidParams
from nogosuper.states import normalize
from nogosuper.superposer import (
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    SuperposerConfig,
    unit_pair,
    wrap_phase,
)

from conftest import (GRAM_TOL, random_orthonormal, random_state_set, superpose_deterministic,
                      svd_rank_oracle)

SQ2 = 1.0 / math.sqrt(2.0)


def balanced_params(dim=3):
    return pipeline.standard_params(SQ2, SQ2, dim=dim)


def balanced_cfg(policy=None, success=None):
    return SuperposerConfig(SQ2, SQ2, policy or ConstantPhase(0.0),
                            success or ConstantSuccess(1.0))


def rotated_params(rng, dim, angle):
    """psi, psi_perp, phi: a random orthonormal triple, not basis vectors."""
    psi, perp, phi = random_orthonormal(rng, dim, 3)
    return pipeline.triple_params(math.cos(angle), math.sin(angle), psi, perp, phi)


def scan_svd_oracle(p, alpha, beta, thetas):
    """Smallest singular value and rank at SCAN_RANK_TOL of the dim x 3 output
    triple of every grid point (theta21, theta31), theta1 = 0, by numpy SVD."""
    inputs = p.inputs.amplitude_matrix()
    t21, t31 = np.meshgrid(thetas, thetas, indexing="ij")
    phases = np.exp(1j * np.stack([np.zeros_like(t21), t21, t31], axis=-1))
    out = alpha * inputs + beta * p.phi[:, None] * phases[..., None, :]
    out /= np.linalg.norm(out, axis=-2, keepdims=True)
    sigma = np.linalg.svd(out, compute_uv=False)
    ranks = np.sum(sigma > pipeline.SCAN_RANK_TOL * sigma[..., :1], axis=-1)
    return sigma[..., -1], ranks


ANGLES = st.floats(1e-3, 2.0 * math.pi - 1e-3)  # of (a, b) = (cos, sin)
OFFSETS = st.floats(1e-7, 1e-3)  # added to theta31 of an analytic pair


def near_locus_certificate(angle, branch, delta, tol=linalg.DEFAULT_RANK_TOL):
    """Certificate of the balanced outputs at theta1 = 0 and analytic pair
    `branch` of (cos, sin)(angle), with theta31 moved off the locus by delta."""
    p = pipeline.standard_params(math.cos(angle), math.sin(angle))
    t21, t31 = pipeline.solve_degeneracy_analytic(p.x[0], p.x[1])[branch]
    outputs, _ = pipeline.apply_superposer_to_set(
        balanced_cfg(), p, pipeline.PhaseTriple(0.0, t21, t31 + delta))
    return pipeline.certify_independence(linalg.factorize(outputs, tol))


class TestCounterexample:
    def test_balanced_triple(self):
        s = balanced_params().inputs
        np.testing.assert_allclose(s.rows[2], [SQ2, SQ2, 0], atol=1e-12)
        assert svd_rank_oracle(s.amplitude_matrix(), GRAM_TOL) == 2

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(0.0, 1.0)

    def test_dim_two_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(SQ2, SQ2, dim=2)

    def test_dim_above_the_cap_rejected(self):
        pipeline.standard_params(SQ2, SQ2, dim=pipeline.MAX_DIM)
        with pytest.raises(InvalidParams):
            pipeline.standard_params(SQ2, SQ2, dim=pipeline.MAX_DIM + 1)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.standard_params(0.5, 0.5)

    def test_non_orthogonal_states_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.triple_params(SQ2, SQ2, psi=[1, 0, 0], psi_perp=[0, 1, 0], phi=[1, 0, 0])

    @pytest.mark.parametrize("overlap, accepted", [(0.8e-10, True), (1.2e-10, False)])
    def test_orthogonality_tolerance_is_1e_10(self, overlap, accepted):
        frame = {"psi": [1, 0, 0], "psi_perp": [overlap, math.sqrt(1.0 - overlap**2), 0],
                 "phi": [0, 0, 1]}
        if accepted:
            assert pipeline.triple_params(SQ2, SQ2, **frame).inputs.dim == 3
        else:
            with pytest.raises(InvalidParams, match="pairwise orthogonal"):
                pipeline.triple_params(SQ2, SQ2, **frame)

    def test_standard_params_default_to_dimension_three(self):
        assert pipeline.standard_params(SQ2, SQ2).inputs.dim == 3

    def test_two_dim_rows_rejected_as_non_orthogonal(self):
        # three rows of dimension 2 cannot be orthonormal, so the frame check
        # alone refuses them
        with pytest.raises(InvalidParams, match="pairwise orthogonal"):
            pipeline.triple_params(SQ2, SQ2, psi=[1, 0], psi_perp=[0, 1], phi=[SQ2, SQ2])

    def test_record_is_inputs_x_and_phi_frozen(self):
        record = pipeline.CounterexampleParams
        assert [f.name for f in dataclasses.fields(record)] == ["inputs", "x", "phi"]
        assert list(record.__annotations__) == ["inputs", "x", "phi"]  # no InitVar
        assert all(f.init for f in dataclasses.fields(record))
        assert "__post_init__" not in vars(record)
        p = balanced_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = np.zeros(3)
        # its arrays too: a checked record cannot be changed in place after the check
        for array in (p.inputs.rows, p.x, p.phi):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("a, b", [(SQ2, SQ2), (0.6, 0.8000000001), (-0.6, 0.8),
                                      (0.6, 0.8j), (1e-7, 1.0)])
    def test_x_is_the_rescaled_pair_then_minus_one(self, a, b):
        p = pipeline.standard_params(a, b, dim=5)
        assert p.x.dtype == (np.complex128 if isinstance(b, complex) else np.float64)
        assert p.x.tolist() == [*unit_pair(a, b, "a", "b"), -1.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, pipeline.MAX_DIM), ANGLES,
           st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)))
    def test_x_is_a_dependence_of_the_inputs(self, seed, dim, angle, b_arg):
        # sum_j x_j inputs_j = 0 in a random orthonormal frame, real b and complex b
        psi, perp, phi = random_orthonormal(np.random.default_rng(seed), dim, 3)
        b = math.sin(angle) * (cmath.exp(1j * b_arg) if b_arg else 1.0)
        p = pipeline.triple_params(math.cos(angle), b, psi, perp, phi)
        assert np.abs(p.x @ p.inputs.rows).max() <= 1e-15
        np.testing.assert_array_equal(p.phi, phi)

    def test_input_rank_is_two_for_random_params(self, rng):
        for _ in range(20):
            dim = int(rng.integers(3, 7))
            psi, perp, phi = random_orthonormal(rng, dim, 3)
            angle = rng.uniform(0.1, math.pi / 2 - 0.1)
            p = pipeline.triple_params(math.cos(angle), math.sin(angle), psi, perp, phi)
            s = p.inputs
            assert svd_rank_oracle(s.amplitude_matrix(), GRAM_TOL) == 2


class TestApplySuperposer:
    def test_balanced_zero_phase_amplitudes(self):
        outputs, phases = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        # hand expansion: Psi_3 = (a/sqrt2, b/sqrt2, 1/sqrt2) with a = b = 1/sqrt2
        np.testing.assert_allclose(
            outputs.rows[2], [0.5, 0.5, SQ2], atol=1e-12
        )
        assert phases.theta1 == phases.theta2 == phases.theta3 == 0.0

    def test_phi_overlap_equals_beta_modulus(self, rng):
        for policy in (ConstantPhase(1.0), CanonicalHashPhase()):
            cfg = balanced_cfg(policy)
            p = balanced_params(dim=4)
            outputs, _ = pipeline.apply_superposer_to_set(cfg, p)
            for out in outputs.rows:
                assert abs(np.vdot(p.phi, out)) == pytest.approx(abs(cfg.beta), abs=1e-12)

    def test_hash_policy_is_reproducible(self):
        cfg = balanced_cfg(CanonicalHashPhase())
        a, pa = pipeline.apply_superposer_to_set(cfg, balanced_params())
        b, pb = pipeline.apply_superposer_to_set(cfg, balanced_params())
        assert pa == pb
        np.testing.assert_array_equal(a.rows, b.rows)


    def test_outputs_equal_the_oracle_on_random_params(self, rng):
        # random orthonormal states carry arbitrary global phases, so the
        # policies' canonical frame differs from the given one
        policies = (ConstantPhase(0.9), OverlapArgPhase(), CanonicalHashPhase())
        for _ in range(30):
            dim = int(rng.integers(3, 7))
            psi, perp, phi = random_orthonormal(rng, dim, 3)
            angle = rng.uniform(0.05, 2 * math.pi)
            p = pipeline.triple_params(math.cos(angle), math.sin(angle), psi, perp, phi)
            alpha = np.exp(1j * rng.uniform(0, 2 * math.pi)) * math.cos(0.4)
            for policy in policies:
                cfg = SuperposerConfig(alpha, math.sin(0.4), policy, ConstantSuccess(1.0))
                outputs, _ = pipeline.apply_superposer_to_set(cfg, p)
                inputs = p.inputs
                for s, out in zip(inputs.rows, outputs.rows):
                    oracle = superpose_deterministic(cfg, s, p.phi)
                    assert abs(np.vdot(oracle, out)) ** 2 >= 1 - 1e-12

    def test_explicit_phases_act_on_the_given_representatives(self):
        p = balanced_params()
        phases = pipeline.PhaseTriple(0.3, 1.1, 2.5)
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), p, phases)
        inputs = p.inputs
        for s, out, theta in zip(inputs.rows, outputs.rows, (0.3, 1.1, 2.5)):
            expected = SQ2 * s + SQ2 * np.exp(1j * theta) * p.phi
            np.testing.assert_allclose(out, expected, atol=1e-15)


class TestPhaseTriple:
    @pytest.mark.parametrize("thetas", [(0.3, 1.1, 2.5), (2.5, 1.1, 0.3), (1e-20, 0.0, 0.0),
                                        (7.0, -1.0, 4.0)])
    def test_fields_are_the_phases_and_their_wrapped_differences(self, thetas):
        phases = pipeline.PhaseTriple(*thetas)
        t1, t2, t3 = (wrap_phase(t) for t in thetas)
        assert vars(phases) == {"theta1": t1, "theta2": t2, "theta3": t3,
                                "theta21": wrap_phase(t2 - t1), "theta31": wrap_phase(t3 - t1)}
        assert all(0.0 <= t < 2.0 * math.pi for t in vars(phases).values())


class TestCertifyIndependence:
    @pytest.mark.parametrize("gap, first", [(1e-12, True), (1.2e-12, False)])
    def test_first_entry_within_1e_12_of_the_max_is_made_real_positive(self, gap, first):
        c = pipeline._normalize_coefficients(np.array([(1.0 - gap) * 1j, 1.0]))
        pick = c[0] if first else c[1]
        assert pick.imag == 0.0 and pick.real > 0.0
        assert np.abs(c).max() == pytest.approx(1.0, abs=1e-15)

    def test_generic_outputs_independent(self):
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        cert = pipeline.certify_independence(linalg.factorize(outputs))
        assert cert.independent and cert.gram_rank == 3
        assert cert.coefficients is None

    def test_constructed_dependence_coefficients(self):
        s = normalize([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        cert = pipeline.certify_independence(linalg.factorize(s))
        assert not cert.independent
        assert cert.residual_norm <= 1e-8
        # coefficients proportional to (1, 1, -sqrt(2)), max modulus 1
        x = cert.coefficients
        assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-12)
        ratio = x / x[0]
        np.testing.assert_allclose(ratio, [1.0, 1.0, -math.sqrt(2.0)], atol=1e-9)

    def test_on_locus_phases_dependent(self):
        p = balanced_params()
        theta31 = math.atan2(p.x[1], p.x[0])  # a = cos, b = sin branch
        phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, theta31)
        outputs, used = pipeline.apply_superposer_to_set(balanced_cfg(), p, phases)
        assert used == phases
        cert = pipeline.certify_independence(linalg.factorize(outputs))
        assert not cert.independent
        assert cert.residual_norm <= 1e-8

    def test_null_vector_matches_svd_oracle_up_to_dim_16(self, rng):
        for _ in range(20):
            dim = int(rng.integers(3, 17))
            v = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = normalize([v[:, 0], v[:, 1], v @ c])
            a = s.amplitude_matrix()
            sigma = np.linalg.svd(a, compute_uv=False)
            cert = pipeline.certify_independence(linalg.factorize(s))
            np.testing.assert_allclose(cert.singular_values, sigma, atol=1e-12)
            assert not cert.independent and cert.gram_rank == 2
            assert np.max(np.abs(cert.coefficients)) == pytest.approx(1.0, abs=1e-12)
            assert cert.residual_norm <= 1e-12
            assert np.linalg.norm(a @ cert.coefficients) <= 1e-12

    def test_rank_follows_tolerance(self):
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        sigma = np.linalg.svd(outputs.amplitude_matrix(), compute_uv=False)
        for tol in (1e-9, 0.05, 0.3, 0.6):
            cert = pipeline.certify_independence(linalg.factorize(outputs, tol))
            assert cert.gram_rank == np.sum(sigma > tol * sigma[0])
            assert cert.independent == (cert.gram_rank == 3)

    def test_independent_pair_certified(self):
        cert = pipeline.certify_independence(
            linalg.factorize(normalize([[1, 0], [1, 1]])))
        assert cert.independent and cert.gram_rank == 2
        assert cert.coefficients is None

    def test_dependent_four_states_in_three_dimensions(self, rng):
        # n > dim: the rank is at most 3 < 4, and vh[-1] spans part of the
        # null space of the 3 x 4 amplitude matrix
        s = random_state_set(rng, 3, 4)
        cert = pipeline.certify_independence(linalg.factorize(s))
        assert not cert.independent and cert.gram_rank == 3
        assert np.max(np.abs(cert.coefficients)) == pytest.approx(1.0, abs=1e-12)
        assert cert.residual_norm <= 1e-12


class TestDegeneracyLocus:
    def test_balanced_analytic_solutions(self):
        locus = pipeline.solve_degeneracy_analytic(SQ2, SQ2)
        assert locus[0] == pytest.approx((math.pi / 2, math.pi / 4))
        assert locus[1] == pytest.approx((3 * math.pi / 2, 7 * math.pi / 4))

    def test_generic_angle_solutions(self):
        a, b = math.cos(0.3), math.sin(0.3)
        locus = pipeline.solve_degeneracy_analytic(a, b)
        assert locus[0] == pytest.approx((math.pi / 2, 0.3))
        assert locus[1] == pytest.approx((3 * math.pi / 2, 2 * math.pi - 0.3))

    def test_solutions_satisfy_phase_constraints(self, rng):
        for _ in range(20):
            angle = rng.uniform(0.05, math.pi / 2 - 0.05)
            a, b = math.cos(angle), math.sin(angle)
            locus = pipeline.solve_degeneracy_analytic(a, b)
            for t21, t31 in locus:
                bp = np.exp(1j * t21) * b
                assert abs(abs(a + bp) - 1.0) <= 1e-12
                assert abs(a**2 + abs(bp) ** 2 - 1.0) <= 1e-12
                # the full degeneracy condition with theta1 = 0
                assert abs(a + bp - np.exp(1j * t31)) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(angle=ANGLES, branch=st.sampled_from([0, 1]), delta=OFFSETS)
    def test_sigma_min_grows_linearly_off_the_locus(self, angle, branch, delta):
        # at balanced weights sigma_min = delta / (2 sqrt(3)) + O(delta^3)
        sigma = near_locus_certificate(angle, branch, delta).singular_values
        assert sigma[-1] / delta == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(angle=ANGLES, branch=st.sampled_from([0, 1]), delta=OFFSETS)
    def test_verdict_flips_where_the_sigma_ratio_crosses_tol(self, angle, branch, delta):
        sigma = near_locus_certificate(angle, branch, delta).singular_values
        ratio = sigma[-1] / sigma[0]
        below = near_locus_certificate(angle, branch, delta, ratio * (1.0 - 1e-12))
        above = near_locus_certificate(angle, branch, delta, ratio * (1.0 + 1e-12))
        assert below.independent and below.gram_rank == 3
        assert not above.independent and above.gram_rank == 2

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.solve_degeneracy_analytic(0.0, 1.0)
        with pytest.raises(InvalidParams):
            pipeline.solve_degeneracy_analytic(0.5, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(ANGLES)
    def test_real_pairs_keep_the_bits_of_the_real_family(self, angle):
        # for real a and b the closure's u is exactly +-1 and w2 exactly +-i,
        # so the pairs are the real family's: theta21 = pi/2 with
        # (cos, sin)(theta31) = (a, b), then 3 pi/2 with (a, -b)
        a, b = unit_pair(math.cos(angle), math.sin(angle), "a", "b")
        family = np.array([[math.pi / 2.0, wrap_phase(math.atan2(b, a))],
                           [3.0 * math.pi / 2.0, wrap_phase(math.atan2(-b, a))]])
        for x, y in ((a, b), (np.float64(a), np.float64(b))):
            pairs = pipeline.solve_degeneracy_analytic(x, y)
            assert pairs.dtype == np.float64 and pairs.tobytes() == family.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(ANGLES, st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi),
           st.integers(3, pipeline.MAX_DIM), st.floats(0.05, 0.95))
    def test_complex_pairs_are_dependent(self, angle, a_arg, b_arg, dim, mod):
        a = math.cos(angle) * complex(math.cos(a_arg), math.sin(a_arg))
        b = math.sin(angle) * complex(math.cos(b_arg), math.sin(b_arg))
        p = pipeline.standard_params(a, b, dim)
        cfg = SuperposerConfig(mod * np.exp(0.4j), math.sqrt(1 - mod**2) * np.exp(-2.3j),
                               ConstantPhase(0.0), ConstantSuccess(1.0))
        pairs = pipeline.solve_degeneracy_analytic(p.x[0], p.x[1])
        assert pairs.shape == (2, 2) and pairs[0, 0] < pairs[1, 0]
        for t21, t31 in pairs:
            outputs, _ = pipeline.apply_superposer_to_set(
                cfg, p, pipeline.PhaseTriple(0.0, t21, t31))
            assert linalg.factorize(outputs).singular_values[-1] <= 1e-15


class TestScan:
    def test_scan_matches_analytic_locus(self):
        p = balanced_params()
        step = math.pi / 180.0
        scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, step)
        analytic = pipeline.solve_degeneracy_analytic(p.x[0], p.x[1])
        detected = scan.detected
        assert len(detected) > 0, "scan found no degeneracies"
        for d in detected:
            gap = min(
                max(abs(d[0] - s[0]), abs(d[1] - s[1])) for s in analytic
            )
            assert gap <= step + 1e-12
        for s in analytic:
            gap = min(max(abs(d[0] - s[0]), abs(d[1] - s[1])) for d in detected)
            assert gap <= step + 1e-12

    def test_no_degeneracy_on_zero_theta21_line(self):
        scan = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, 0.05)
        assert np.all(scan.ranks[0, :] == 3)  # theta21 = 0 row

    def test_detected_rank_is_exactly_two(self):
        p = balanced_params()
        scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, math.pi / 180.0)
        i = np.argmin(np.abs(scan.thetas - math.pi / 2))
        j = np.argmin(np.abs(scan.thetas - math.pi / 4))
        assert scan.ranks[i, j] == 2

    def test_bad_grid_step_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, 0.2)

    def test_grid_step_bounds_are_inclusive(self):
        p = balanced_params()
        assert pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, 0.1).ranks.shape == (63, 63)
        fine = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, pipeline.MIN_GRID_STEP)
        assert fine.ranks.shape == (1440, 1440)
        for step in (math.nextafter(0.1, 1.0), math.nextafter(pipeline.MIN_GRID_STEP, 0.0)):
            with pytest.raises(InvalidParams):
                pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, step)

    def test_eigenvalues_at_double_and_close_roots(self):
        # at a double root half_q / spread**1.5 rounds past +-1 about half the
        # time, and the clip keeps arccos finite; roots 0.1% apart make
        # c1^2 - 3 c2 about 3e-6 lam^2, so no floor may lift it; at a triple
        # root spread is 0 and nothing may divide by it
        x, y = np.random.default_rng(31).uniform(0.1, 3.0, (2, 500))
        assert pipeline._eigenvalues_3x3(3.0, 3.0, 1.0) == (1.0, 1.0, 1.0)  # the identity Gram
        for lam in ([x, x, y], [x, y, y], [x, 1.001 * x, 1.002 * x], [x, x, x]):
            lam = np.array(lam)
            c2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
            got = np.stack(pipeline._eigenvalues_3x3(lam.sum(0), c2, lam.prod(0)))
            np.testing.assert_allclose(got, np.sort(lam, axis=0), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("delta, ratio, rank", [(4.7956e-6, 0.9e-6, 2),
                                                    (5.8613e-6, 1.1e-6, 3)])
    def test_rank_tolerance_is_one_in_a_million(self, delta, ratio, rank):
        # (a, b) = (cos, sin)(45 deg + delta) moves the locus off the grid
        # point (90, 45) deg, where the SVD's sigma_min / sigma_max lies 10%
        # below or above 1e-6; the oracle reads the literal, not SCAN_RANK_TOL
        t = math.radians(45.0) + delta
        p = pipeline.standard_params(math.cos(t), math.sin(t))
        scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, math.pi / 180.0)
        phases = pipeline.PhaseTriple(0.0, scan.thetas[90], scan.thetas[45])
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), p, phases)
        sigma = np.linalg.svd(outputs.rows, compute_uv=False)
        assert sigma[-1] / sigma[0] == pytest.approx(ratio, rel=1e-3)
        assert 1 + np.count_nonzero(sigma[1:] > 1e-6 * sigma[0]) == rank
        assert scan.ranks[90, 45] == rank

    @pytest.mark.parametrize("dim", [3, 8, 16])
    @pytest.mark.parametrize("alpha_mod", [None, 1e-4, 1e-7])
    def test_matches_svd_of_the_output_triples(self, rng, dim, alpha_mod):
        # None draws |alpha|; 1e-4 and 1e-7 make the outputs nearly parallel
        # to phi, where sigma_min is small against sigma_max
        p = rotated_params(rng, dim, rng.uniform(0, 2 * math.pi))
        mod = rng.uniform(0.05, 0.95) if alpha_mod is None else alpha_mod
        alpha = mod * np.exp(1j * rng.uniform(0, 2 * math.pi))
        beta = math.sqrt(1 - mod**2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        scan = pipeline.scan_degeneracy_numeric(p, alpha, beta, 0.05)
        sigma_min, ranks = scan_svd_oracle(p, alpha, beta, scan.thetas)
        np.testing.assert_allclose(scan.min_singular_values, sigma_min,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(scan.ranks, ranks)

    def test_underflowing_alpha_gives_rank_one_and_no_nan(self):
        # |alpha|^2 = 1e-400 underflows to 0, so c2 = c3 = 0 and lam_mid = 0:
        # lam_min is 0 there, not 0 / 0
        scan = pipeline.scan_degeneracy_numeric(balanced_params(), 1e-200, 1.0, 0.05)
        assert np.all(scan.min_singular_values == 0.0)
        assert np.all(scan.ranks == 1)
        assert len(scan.detected) == scan.ranks.size

    @pytest.mark.parametrize("dim", [3, 8])
    def test_grid_on_the_locus_detects_the_analytic_pairs(self, rng, dim):
        # a = cos 60 deg: both analytic pairs are 1 degree grid points
        p = rotated_params(rng, dim, math.pi / 3)
        alpha = SQ2 * np.exp(0.7j)
        step = math.pi / 180.0
        scan = pipeline.scan_degeneracy_numeric(p, alpha, SQ2, step)
        sigma_min, ranks = scan_svd_oracle(p, alpha, SQ2, scan.thetas)
        np.testing.assert_allclose(scan.min_singular_values, sigma_min,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(scan.ranks, ranks)

        def gap(x, y):
            d = abs(x - y) % (2 * math.pi)
            return min(d, 2 * math.pi - d)

        def distance(u, v):
            return max(gap(u[0], v[0]), gap(u[1], v[1]))

        detected = scan.detected
        analytic = pipeline.solve_degeneracy_analytic(p.x[0], p.x[1])
        assert len(detected) > 0
        for d in detected:
            assert min(distance(d, s) for s in analytic) <= step + 1e-12
        for s in analytic:
            assert min(distance(s, d) for d in detected) <= step + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(ANGLES, st.floats(0.0, 2 * math.pi), st.floats(1e-7, 1.0, exclude_max=True))
    def test_complex_b_matches_svd(self, angle, phase, mod):
        # a = cos t, b = sin t e^{i phi}: the closure w3 = a + b w2 with a complex b
        p = pipeline.triple_params(math.cos(angle), math.sin(angle) * np.exp(1j * phase),
                                   *np.eye(3))
        alpha = mod * np.exp(0.7j)
        beta = math.sqrt(1 - mod**2) * np.exp(-1.1j)
        scan = pipeline.scan_degeneracy_numeric(p, alpha, beta, 0.1)
        sigma_min, ranks = scan_svd_oracle(p, alpha, beta, scan.thetas)
        np.testing.assert_allclose(scan.min_singular_values, sigma_min,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(scan.ranks, ranks)

    def test_grid_ignores_the_weight_phases_and_the_frame(self, rng):
        angle = rng.uniform(0, 2 * math.pi)
        p = pipeline.standard_params(math.cos(angle), math.sin(angle))
        base = pipeline.scan_degeneracy_numeric(p, 0.6, 0.8, 0.05)
        variants = [(p, 0.6 * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                     0.8 * np.exp(1j * rng.uniform(0, 2 * math.pi))) for _ in range(3)]
        variants += [(rotated_params(rng, dim, angle), 0.6, 0.8) for dim in (3, 8, 16)]
        for params, alpha, beta in variants:
            assert np.array_equal(params.x, p.x)
            scan = pipeline.scan_degeneracy_numeric(params, alpha, beta, 0.05)
            assert np.abs(scan.min_singular_values - base.min_singular_values).max() <= 1e-15
            np.testing.assert_array_equal(scan.ranks, base.ranks)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_analytic_pairs_are_zeros_of_the_grid(self, rng, dim):
        # a = cos 60 deg: the closure vanishes on the grid points of both pairs
        p = rotated_params(rng, dim, math.pi / 3)
        step = math.pi / 180.0
        scan = pipeline.scan_degeneracy_numeric(p, SQ2 * np.exp(0.7j), SQ2, step)
        for t21, t31 in pipeline.solve_degeneracy_analytic(p.x[0], p.x[1]):
            i, j = round(t21 / step), round(t31 / step)
            assert abs(scan.thetas[i] - t21) <= 1e-12 and abs(scan.thetas[j] - t31) <= 1e-12
            assert scan.min_singular_values[i, j] <= 1e-15
            assert scan.ranks[i, j] == 2

    @pytest.mark.parametrize("m, k", [(1, 0), (7, 3), (20, 61), (50, 89), (83, 44)])
    def test_complex_pairs_on_the_grid_are_detected(self, m, k):
        # a = cos(m s), b = i sin(m s) e^{-i k s}: u = +-i e^{-i k s}, so
        # theta21 is k s or k s + pi (45 steps) and theta31 is +-m s, grid
        # points both
        s = 2 * math.pi / 90
        p = pipeline.standard_params(math.cos(m * s), 1j * math.sin(m * s) * np.exp(-1j * k * s))
        scan = pipeline.scan_degeneracy_numeric(p, 0.6, 0.8, s)
        analytic = pipeline.solve_degeneracy_analytic(p.x[0], p.x[1])
        assert len(scan.detected) == 2
        deviations = cli._locus_deviations(scan.detected, analytic)
        assert max(deviations) <= 1e-12, deviations

    def test_peak_memory_per_point_does_not_depend_on_dim(self, rng):
        per_point = []
        for dim in (3, 16):
            p = rotated_params(rng, dim, 0.9)
            tracemalloc.start()
            try:
                scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, math.pi / 180.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_point.append(peak / scan.ranks.size)
        assert per_point[1] == pytest.approx(per_point[0], rel=0.1)

    def test_kernel_memory_is_bounded_by_its_own_output(self):
        # the kernel's temporaries hold one block of rows, not the grid: at
        # 0.5 degrees its peak stays under 3 times sigma_min and ranks
        tracemalloc.start()
        try:
            scan = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2,
                                                    math.pi / 360.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (scan.min_singular_values.nbytes + scan.ranks.nbytes)


class TestForbiddenTaskDemo:
    def test_zero_trials_gives_empty_report(self, rng):
        report = pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), 0, rng)
        assert report.trials == 0
        assert report.conclusive_counts.sum() == 0
        assert report.misidentifications == 0
        assert report.clone_successes == 0
        assert report.clone_fidelity_min == 1.0
        assert report.empirical_conclusive_rate == 0.0

    @pytest.mark.parametrize("trials", [-1, 2**63])
    def test_trials_out_of_bounds_rejected(self, trials, rng):
        with pytest.raises(InvalidParams):
            pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), trials, rng)

    def test_int64_max_trials_accepted(self, rng):
        # numpy's samplers count in int64, up to its largest value
        report = pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), 2**63 - 1, rng)
        assert report.trials == report.secret_counts.sum() == 2**63 - 1

    def test_peak_memory_does_not_depend_on_trials(self):
        peaks = []
        for trials in (10**3, 10**6):
            tracemalloc.start()
            try:
                pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), trials,
                                             np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20

    def test_count_spread_matches_the_binomial(self):
        # z-scores over 200 seeds: mean 0 +- 0.3 (4.2 standard errors of a
        # mean of 200) and variance in [0.6, 1.5] (about 4 standard errors of
        # a variance of 200 normal draws) for each secret's conclusive count
        # and for the oracle failures
        trials, seeds = 10_000, 200
        cfg = balanced_cfg(success=ConstantSuccess(0.5))
        z = []
        for seed in range(seeds):
            r = pipeline.forbidden_task_demo(balanced_params(), cfg, trials,
                                             np.random.default_rng(seed))
            q = np.append(0.5 * np.array(r.predicted_usd_probabilities) / 3.0, 0.5)
            counts = np.append(r.conclusive_counts, r.superposer_failures)
            z.append((counts - trials * q) / np.sqrt(trials * q * (1.0 - q)))
        z = np.array(z)
        assert np.all(np.abs(z.mean(axis=0)) < 0.3), z.mean(axis=0)
        assert np.all((z.var(axis=0) > 0.6) & (z.var(axis=0) < 1.5)), z.var(axis=0)

    def test_predicted_probabilities_are_the_born_table_diagonal(self, rng):
        report = pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), 10, rng)
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        m = build_usd(linalg.factorize(outputs))
        table = born_distribution(m, outputs)
        assert report.predicted_usd_probabilities == np.diag(table).tolist()

    def test_clone_fidelity_from_the_prepared_copies(self, monkeypatch):
        # a measurement that sends every secret to label 0: secrets 1 and 2
        # are misidentified and cloned as output 0
        row = np.array([1.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(pipeline, "born_distribution",
                            lambda m, truths: np.tile(row, (len(truths), 1)))
        report = pipeline.forbidden_task_demo(
            balanced_params(), balanced_cfg(), 3000, np.random.default_rng(2))
        outputs, _ = pipeline.apply_superposer_to_set(balanced_cfg(), balanced_params())
        a = outputs.amplitude_matrix()
        overlaps = np.abs(a[:, 0].conj() @ a) ** 2
        assert report.misidentifications == report.secret_counts[1:].sum()
        assert report.clone_successes == 3000
        assert report.clone_fidelity_min == pytest.approx(overlaps.min(), abs=1e-12)
        assert report.clone_fidelity_min < 0.99

    def test_outputs_are_factored_once(self, monkeypatch, rng):
        # the certificate, the reciprocal basis and the USD span and scale
        # all read one SVD record of the outputs
        calls = {"svd": 0, "qr": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        pipeline.forbidden_task_demo(balanced_params(), balanced_cfg(), 1000, rng)
        assert calls == {"svd": 1, "qr": 0}

    def test_on_locus_policy_refused(self, rng):
        # constant policies give theta21 = 0, never on the locus; pin the
        # phases explicitly to hit it
        p = balanced_params()
        phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, math.atan2(p.x[1], p.x[0]))
        with pytest.raises(DependentOutputs):
            pipeline.forbidden_task_demo(p, balanced_cfg(), 10, rng, phases=phases)

    def test_large_run_statistics(self):
        trials = 100_000
        report = pipeline.forbidden_task_demo(
            balanced_params(), balanced_cfg(), trials, np.random.default_rng(7)
        )
        assert report.misidentifications == 0
        assert report.superposer_failures == 0
        assert report.empirical_conclusive_rate > 0.0
        pred = report.predicted_conclusive_rate
        sigma3 = 3.0 * math.sqrt(pred * (1 - pred) / trials)
        assert abs(report.empirical_conclusive_rate - pred) < sigma3
        assert report.clone_fidelity_min == pytest.approx(1.0, abs=1e-10)
        assert report.secret_counts.sum() == trials
        # identify-then-prepare: a clone exactly when identification is conclusive
        assert report.clone_successes == report.conclusive_counts.sum()

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

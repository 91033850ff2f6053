import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosuper import linalg
from nogosuper.errors import DimensionMismatch, EmptySet, NogoError, NonFiniteEntry, NullVector
from nogosuper.states import NORM_TOL, NULL_THRESHOLD, StateSet, canonicalize, normalize

from conftest import density_matrix, random_pure_state

SQ2 = 1.0 / math.sqrt(2.0)


def independent(s, tol=linalg.DEFAULT_RANK_TOL):
    return linalg.factorize(s, tol).rank == len(s)


def test_normalize_scales_to_unit_norm():
    s = normalize([[2.0, 0.0]])
    np.testing.assert_allclose(s.rows, [[1.0, 0.0]])
    s = normalize([[1.0, 1.0, 0.0]])
    np.testing.assert_allclose(s.rows, [[SQ2, SQ2, 0.0]])


def test_normalize_rejects_vanishing_vector():
    with pytest.raises(NullVector):
        normalize([[1e-14, 0.0]])
    with pytest.raises(NullVector):  # null means norm <= NULL_THRESHOLD
        normalize([[NULL_THRESHOLD, 0.0]])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), dim=st.integers(2, 16),
       pick=st.integers(0, 255), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_normalize_matches_per_vector_division(seed, n, dim, pick, bad):
    # bit for bit v / ||v|| of each vector on its own, whatever the scales;
    # a zero vector is named by its index, and a non-finite entry raises
    # before any division could warn
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    v = scales * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    np.testing.assert_array_equal(normalize(v).rows, [r / np.linalg.norm(r) for r in v])

    row = pick % n
    zeroed = v.copy()
    zeroed[row] = 0.0
    with pytest.raises(NullVector, match=f"vector {row} "):
        normalize(zeroed)
    v[row, pick // n % dim] = bad
    with pytest.raises(NonFiniteEntry):
        normalize(v)


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_normalize_survives_an_overflowing_squared_norm(scale):
    # the squared norm of the first two rows overflows, and so does the
    # modulus of the second row's first entry at 1e308; the third row keeps
    # its bits, and the caller's array is not written to
    v = np.array([[scale, 1j * scale, 0.0],
                  [1.5 * scale * (1 + 1j), -scale, 1.0],
                  [3.0, 4.0j, 0.0]])
    before = v.copy()
    rows = normalize(v).rows
    w = np.array([1 + 1j, -1 / 1.5, 0.0])
    np.testing.assert_allclose(rows[:2], [[SQ2, 1j * SQ2, 0.0], w / np.linalg.norm(w)],
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(rows[2], v[2] / np.linalg.norm(v[2]))
    np.testing.assert_array_equal(v, before)


def test_pure_state_validation():
    with pytest.raises(DimensionMismatch):
        StateSet([[1.0]])
    with pytest.raises(NullVector):
        StateSet([[0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(NonFiniteEntry):
        StateSet([[bad, 0.0]])
    with pytest.raises(NonFiniteEntry):
        normalize([[bad, 1.0]])


def test_canonicalize_strips_global_phase():
    s = np.array([1j, 0.0])
    np.testing.assert_allclose(canonicalize(s), [1.0, 0.0], atol=1e-15)

    phased = np.exp(1j * np.pi / 3) * np.array([SQ2, 1j * SQ2])
    np.testing.assert_allclose(
        canonicalize(phased), [SQ2, 1j * SQ2], atol=1e-15
    )

    for theta in (0.3, 1.1, 5.9):
        s = np.array([0.0, np.exp(1j * theta)])
        np.testing.assert_allclose(canonicalize(s), [0.0, 1.0], atol=1e-15)


def test_canonicalize_preserves_density_matrix(rng):
    for _ in range(50):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        c = StateSet([canonicalize(s)]).rows[0]  # still a unit row
        np.testing.assert_allclose(
            density_matrix(c), density_matrix(s), atol=1e-12
        )


def test_canonicalize_idempotent(rng):
    for _ in range(50):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        once = canonicalize(s)
        twice = canonicalize(once)
        np.testing.assert_array_equal(once, twice)


@pytest.mark.parametrize("pivot", [1e-5, 0.49256779033487585])
def test_canonical_row_comes_back_bit_for_bit(pivot):
    # conj(p) / |p| is 0.9999999999999999 at these p, so a second pass that
    # multiplied by it would move the other entries by an ulp
    row = np.array([pivot, math.sqrt(1.0 - pivot**2) * (0.6 + 0.8j)])
    assert np.conj(row[0]) / abs(row[0]) != 1.0
    assert canonicalize(row).tobytes() == row.tobytes()


@pytest.mark.parametrize("modulus, pivot", [(0.8e-10, 1), (1e-10, 1), (1.2e-10, 0)])
def test_pivot_floor_is_one_in_ten_billion(modulus, pivot):
    # a pivot lies above CANONICAL_PIVOT_FLOOR, not on it
    row = np.array([1j * modulus, math.sqrt(1.0 - modulus**2)])
    out = canonicalize(row)
    assert out[pivot].imag == 0.0 and out[pivot].real > 0.0
    assert out[1 - pivot].imag != 0.0


@pytest.mark.parametrize("drift, accepted", [(0.8e-12, True), (1.2e-12, False)])
def test_norm_tolerance_is_one_in_a_trillion(drift, accepted):
    rows = [[1.0 + drift, 0.0]]
    if accepted:
        assert StateSet(rows).rows[0, 0] == 1.0 + drift
    else:
        with pytest.raises(NullVector):
            StateSet(rows)


def test_canonicalize_invariant_under_global_phase():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        s = random_pure_state(rng, int(rng.integers(2, 9)))
        chi = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = chi * s
        np.testing.assert_allclose(
            canonicalize(rotated), canonicalize(s), atol=1e-10
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    phase=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
def test_canonicalize_phase_invariance_property(seed, dim, phase):
    s = random_pure_state(np.random.default_rng(seed), dim)
    rotated = np.exp(1j * phase) * s
    np.testing.assert_allclose(
        canonicalize(rotated), canonicalize(s), atol=1e-10
    )


def test_state_set_validation():
    with pytest.raises(EmptySet):
        StateSet([])
    with pytest.raises(EmptySet):  # no rows of a given length
        normalize(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        StateSet([np.eye(2)[0], np.eye(3)[0]])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), size=st.integers(1, 16),
       bad=st.integers(0, 255), defect=st.sampled_from([None, "zero", "scale", "nan"]))
def test_set_check_matches_the_state_check(seed, dim, size, bad, defect):
    # StateSet(rows) raises exactly when some row fails an independent
    # per-row check, with the same exception class, and only a valid set is
    # built
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    row, col = bad % size, bad // size % dim
    if defect == "zero":
        rows[row] = 0.0
    elif defect == "scale":
        rows[row] *= 1.0 + 1e-11
    elif defect == "nan":
        rows[row, col] = np.nan

    def row_defect(r):
        if not np.isfinite(r).all():
            return NonFiniteEntry
        if abs(np.linalg.norm(r) - 1.0) > NORM_TOL:
            return NullVector
        return None

    def raised(x):
        try:
            StateSet(x)
        except NogoError as exc:
            return type(exc)
        return None

    per_row = {row_defect(r) for r in rows} - {None}
    assert len(per_row) <= 1
    assert raised(rows) == (per_row.pop() if per_row else None)
    if defect is None:
        s = StateSet(rows)
        assert s.rows.flags.c_contiguous
        assert np.shares_memory(s.amplitude_matrix(), s.rows)


def test_independence_of_orthonormal_pair():
    assert independent(StateSet(np.eye(2)))


def test_dependent_counterexample_inputs():
    # {psi, psi_perp, a psi + b psi_perp} lives in a 2-d subspace
    a = b = SQ2
    s = normalize([[1, 0, 0], [0, 1, 0], [a, b, 0]])
    assert not independent(s)


def test_ill_conditioned_set_is_independent():
    # amplitude singular values (1.41, 1, 7.1e-7): independent at 1e-9, although
    # the smallest Gram eigenvalue, sigma^2 = 5e-13, lies below 1e-9
    s = normalize([[1, 0, 0], [1, 1e-6, 0], [0, 0, 1]])
    assert independent(s)
    assert not independent(s, 1e-6)


def test_zero_plus_pair_independent():
    # 2x2 Gram determinant is 1 - 1/2 = 1/2 > 0
    assert independent(normalize([[1, 0], [1, 1]]))


def test_independence_invariant_under_phases_and_permutation(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        size = int(rng.integers(2, dim + 2))
        s = StateSet([random_pure_state(rng, dim) for _ in range(size)])
        base = independent(s)
        phased = StateSet([np.exp(1j * rng.uniform(0, 2 * np.pi)) * row for row in s.rows])
        assert independent(phased) == base
        perm = list(rng.permutation(size))
        shuffled = StateSet(s.rows[perm])
        assert independent(shuffled) == base

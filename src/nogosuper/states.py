"""Pure-state vectors, canonical (global-phase-free) forms, and state sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, NonFiniteEntry, NullVector

NORM_TOL = 1e-12
NULL_THRESHOLD = 1e-10
CANONICAL_PIVOT_FLOOR = 1e-10


@dataclass
class PureState:
    """Unit-norm, finite complex amplitude vector of dimension >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = _check_rows(np.asarray(self.amplitudes, dtype=complex)[None])[0]

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "PureState") -> complex:
        """<self | other> with the conjugate on self."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class CanonicalForm:
    """Global-phase-free representative: first non-negligible amplitude made
    real positive, so equal physical states map to (numerically) equal arrays."""

    amplitudes: np.ndarray


def normalize(v: Sequence[complex] | np.ndarray) -> PureState:
    """Scale a vector to unit norm; NullVector if it is numerically zero."""
    v = np.asarray(v, dtype=complex)
    _require_finite(v)  # before dividing: inf / inf would warn and give NaN
    norm = np.linalg.norm(v)
    if norm <= NULL_THRESHOLD:
        raise NullVector(f"vector norm {float(norm)!r} is below {NULL_THRESHOLD}")
    return PureState(v / norm)


def _require_finite(v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise NonFiniteEntry("amplitudes contain non-finite (NaN or infinite) entries")


def _check_rows(rows) -> np.ndarray:
    """The one pure-state check, run on every row at once: `rows` must form
    a nonempty (n, dim) array, dim >= 2, finite, each row of unit norm within
    NORM_TOL. Returns the rows as a C-order complex array."""
    try:
        rows = np.asarray(rows, dtype=complex, order="C")
    except ValueError as exc:  # a ragged list
        raise DimensionMismatch(f"states do not form one (n, dim) array: {exc}") from exc
    if rows.shape[:1] == (0,):
        raise EmptySet("a state set must contain at least one state")
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise DimensionMismatch(f"a pure state needs a 1-d amplitude vector of length >= 2, "
                                f"got shape {rows.shape[1:]}")
    _require_finite(rows)
    off = np.abs(np.sqrt(np.vecdot(rows, rows).real) - 1.0)
    worst = int(off.argmax())
    if off[worst] > NORM_TOL:
        raise NullVector(f"state {worst} is not unit norm (norm off 1 by {float(off[worst])!r})")
    return rows


def canonicalize(s: PureState) -> CanonicalForm:
    amps = s.amplitudes
    pivots = np.nonzero(np.abs(amps) > CANONICAL_PIVOT_FLOOR)[0]
    if pivots.size == 0:
        # unreachable for a unit-norm state, kept for safety
        return CanonicalForm(amps.copy())
    pivot = amps[pivots[0]]
    if pivot.imag == 0.0 and pivot.real > 0.0:
        return CanonicalForm(amps.copy())  # already canonical; exact idempotence
    phase = np.conj(pivot) / abs(pivot)
    out = amps * phase
    out[pivots[0]] = abs(pivot)  # exactly real, so a second pass is a no-op
    out = out + 0.0  # collapse -0.0 components
    return CanonicalForm(out)


@dataclass
class StateSet:
    """Nonempty set of pure states of one dimension: the C-order rows of an
    (n, dim) complex array, validated once by the pure-state check."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = _check_rows(self.rows)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[complex]]) -> "StateSet":
        return cls([normalize(v).amplitudes for v in vectors])

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i: int) -> PureState:
        return PureState(self.rows[i])

    def amplitude_matrix(self) -> np.ndarray:
        """dim x n view whose columns are the states."""
        return self.rows.T


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)

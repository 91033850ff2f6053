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
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size < 2:
            raise DimensionMismatch(
                f"a pure state needs a 1-d amplitude vector of length >= 2, "
                f"got shape {self.amplitudes.shape}"
            )
        _require_finite(self.amplitudes)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise NullVector(f"amplitudes are not unit norm (norm = {float(norm)!r})")

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
    if not np.all(np.isfinite(v)):
        raise NonFiniteEntry("amplitudes contain non-finite (NaN or infinite) entries")


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
    """Ordered, nonempty collection of pure states sharing one dimension."""

    members: list[PureState]

    def __post_init__(self):
        self.members = list(self.members)
        if not self.members:
            raise EmptySet("a state set must contain at least one state")
        dims = {s.dim for s in self.members}
        if len(dims) != 1:
            raise DimensionMismatch(f"states have mixed dimensions {sorted(dims)}")

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[complex]]) -> "StateSet":
        return cls([normalize(v) for v in vectors])

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)

    def amplitude_matrix(self) -> np.ndarray:
        """dim x n matrix whose columns are the member amplitudes."""
        return np.column_stack([s.amplitudes for s in self.members])


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)

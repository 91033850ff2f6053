"""State sets and canonical (global-phase-free) rows. A pure state is a row
of a `StateSet`, checked once with the rest of its set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, NonFiniteEntry, NullVector
from .linalg import row_norms

NORM_TOL = 1e-12
NULL_THRESHOLD = 1e-10
CANONICAL_PIVOT_FLOOR = 1e-10


def normalize(vectors: Sequence[Sequence[complex]] | np.ndarray) -> StateSet:
    """The StateSet of the vectors scaled to unit norm; NullVector names the first
    null vector with its `math.hypot` norm, which cannot underflow. A vector whose
    squared norm overflows is first divided by its largest real or imaginary part."""
    v = _finite_rows(vectors)  # before dividing: inf / inf would warn and give NaN
    with np.errstate(over="ignore"):
        norms = row_norms(v)
    if norms.max() == np.inf:  # a new array: the caller's may be `v` itself
        v = v / np.where(np.isinf(norms), abs(v.view(float)).max(axis=1), 1.0)[:, None]
        norms = row_norms(v)
    null = np.flatnonzero(norms <= NULL_THRESHOLD)
    if null.size:
        i = int(null[0])
        norm = math.hypot(*v[i].view(float))
        raise NullVector(f"vector {i} has norm {norm!r}, below {NULL_THRESHOLD}")
    return StateSet(v / norms[:, None])


def _finite_rows(rows) -> np.ndarray:
    """`rows` as a C-order complex array of shape (n, dim), n >= 1, dim >= 2,
    with finite entries."""
    try:
        rows = np.asarray(rows, dtype=complex, order="C")
    except ValueError as exc:  # a ragged list
        raise DimensionMismatch(f"states do not form one (n, dim) array: {exc}") from exc
    if rows.shape[:1] == (0,):
        raise EmptySet("a state set must contain at least one state")
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise DimensionMismatch(f"a pure state needs a 1-d amplitude vector of length >= 2, "
                                f"got shape {rows.shape[1:]}")
    if not np.isfinite(rows).all():
        raise NonFiniteEntry("amplitudes contain non-finite (NaN or infinite) entries")
    return rows


def _check_rows(rows) -> np.ndarray:
    """The one pure-state check, run on every row of a set at once: `rows`
    must form a nonempty (n, dim) array, dim >= 2, finite, each row of unit
    norm within NORM_TOL. Returns the rows as a C-order complex array."""
    rows = _finite_rows(rows)
    off = np.abs(row_norms(rows) - 1.0)
    worst = int(off.argmax())
    if off[worst] > NORM_TOL:
        raise NullVector(f"state {worst} is not unit norm (norm off 1 by {float(off[worst])!r})")
    return rows


def canonicalize(amps: np.ndarray) -> np.ndarray:
    """Canonical form of one complex amplitude row of a StateSet, as a new
    row: its first non-negligible amplitude made real positive, so equal
    physical states map to (numerically) equal rows."""
    pivots = np.nonzero(np.abs(amps) > CANONICAL_PIVOT_FLOOR)[0]
    pivot = amps[pivots[0]]
    if pivot.imag == 0.0 and pivot.real > 0.0:
        return amps.copy()  # already canonical; exact idempotence
    phase = np.conj(pivot) / abs(pivot)
    out = amps * phase
    out[pivots[0]] = abs(pivot)  # exactly real, so a second pass is a no-op
    return out


@dataclass
class StateSet:
    """Nonempty set of pure states of one dimension: the C-order rows of an
    (n, dim) complex array, validated once by the pure-state check."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = _check_rows(self.rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def amplitude_matrix(self) -> np.ndarray:
        """dim x n view whose columns are the states."""
        return self.rows.T

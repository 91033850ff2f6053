"""Unambiguous state discrimination (USD) and identify-then-prepare cloning.

A USD measurement never misidentifies a hypothesis state: each conclusive
element is built on the reciprocal basis, so it annihilates every hypothesis
but its own. The price is an inconclusive outcome. Both constructions exist
exactly when the hypotheses are linearly independent, which is the hinge the
whole no-go argument turns on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, LinearlyDependentInput, MeasurementMismatch, NogoError
from .states import PureState, StateSet

BORN_SUM_TOL = 1e-9


@dataclass
class USDMeasurement:
    """POVM on the hypothesis span: one conclusive element per hypothesis plus
    an inconclusive element absorbing the rest of the span projector."""

    dim: int
    elements: list[np.ndarray]  # E_1 ... E_n, one per hypothesis
    inconclusive: np.ndarray  # E_0
    span_projector: np.ndarray

    @property
    def n_hypotheses(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Label counts from repeated USD trials; index -1 means inconclusive."""

    trials: int
    per_label_counts: np.ndarray  # length n+1, last entry is inconclusive

    @property
    def inconclusive_count(self) -> int:
        return int(self.per_label_counts[-1])


@dataclass
class CloneResult:
    succeeded: bool
    copies: tuple[PureState, PureState] | None
    fidelity_to_input: float


def build_usd(
    hypotheses: StateSet, tol: float = linalg.DEFAULT_RANK_TOL
) -> USDMeasurement:
    """Construct the USD POVM for hypotheses linearly independent at rank
    tolerance `tol`.

    Conclusive elements are uniformly scaled reciprocal-basis projectors,
    E_j = s |r_j><r_j| with s = 1 / lambda_max(sum_j |r_j><r_j|), the largest
    uniform scale keeping the inconclusive element positive semidefinite.
    """
    if len(hypotheses) > hypotheses.dim:
        raise LinearlyDependentInput(
            f"{len(hypotheses)} states cannot be independent in dimension {hypotheses.dim}"
        )
    recip = linalg.reciprocal_basis(hypotheses, tol)  # raises LinearlyDependentInput
    projectors = [s.density_matrix() for s in recip.members]
    total = np.sum(projectors, axis=0)
    scale = 1.0 / linalg.max_eigenvalue_hermitian(total)
    elements = [scale * p for p in projectors]

    span, _ = np.linalg.qr(hypotheses.amplitude_matrix())  # independent columns
    span_projector = span @ span.conj().T
    inconclusive = span_projector - sum(elements)
    inconclusive = 0.5 * (inconclusive + inconclusive.conj().T)
    return USDMeasurement(
        dim=hypotheses.dim,
        elements=elements,
        inconclusive=inconclusive,
        span_projector=span_projector,
    )


def success_probabilities(m: USDMeasurement, hypotheses: StateSet) -> list[float]:
    """Tr(E_j rho_j) for each hypothesis j; all strictly positive by construction."""
    if m.n_hypotheses != len(hypotheses) or m.dim != hypotheses.dim:
        raise MeasurementMismatch(
            "measurement was not built from this hypothesis set"
        )
    probs = []
    for element, state in zip(m.elements, hypotheses.members):
        probs.append(float(np.real(np.vdot(state.amplitudes, element @ state.amplitudes))))
    return probs


def born_distribution(m: USDMeasurement, truth: PureState) -> np.ndarray:
    """Outcome probabilities [E_1, ..., E_n, E_0] for the given true state."""
    if truth.dim != m.dim:
        raise DimensionMismatch(f"state dimension {truth.dim} != measurement {m.dim}")
    amps = truth.amplitudes
    probs = [float(np.real(np.vdot(amps, e @ amps))) for e in m.elements]
    probs.append(float(np.real(np.vdot(amps, m.inconclusive @ amps))))
    probs = np.clip(np.array(probs), 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > BORN_SUM_TOL:
        raise NogoError(
            f"Born probabilities sum to {total!r}; measurement is inconsistent"
        )
    return probs / total


def simulate_usd(
    m: USDMeasurement,
    truth: PureState,
    trials: int,
    rng: np.random.Generator,
) -> DiscriminationOutcome:
    """Sample Born outcomes by inverse CDF; label n (last) is inconclusive."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = born_distribution(m, truth)
    edges = np.cumsum(probs)
    draws = rng.random(trials)
    labels = np.searchsorted(edges, draws, side="right")
    labels = np.minimum(labels, len(probs) - 1)
    counts = np.bincount(labels, minlength=len(probs))
    return DiscriminationOutcome(trials=trials, per_label_counts=counts)


def probabilistic_clone(
    hypotheses: StateSet,
    truth: PureState,
    rng: np.random.Generator,
) -> CloneResult:
    """Identify-then-prepare cloning: one USD trial, then emit two exact copies
    of whichever hypothesis was identified. Fails (without error) on an
    inconclusive outcome."""
    m = build_usd(hypotheses)
    outcome = simulate_usd(m, truth, 1, rng)
    label = int(np.argmax(outcome.per_label_counts))
    if label == m.n_hypotheses:  # inconclusive
        return CloneResult(succeeded=False, copies=None, fidelity_to_input=0.0)
    identified = hypotheses.members[label]
    fidelity = abs(truth.inner(identified)) ** 2
    return CloneResult(
        succeeded=True, copies=(identified, identified), fidelity_to_input=fidelity
    )

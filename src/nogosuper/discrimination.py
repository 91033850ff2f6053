"""Unambiguous state discrimination (USD): the POVM, its Born rows and
sampled outcome counts.

A USD measurement never misidentifies a hypothesis state: each conclusive
element is built on the reciprocal basis, so it annihilates every hypothesis
but its own. The price is an inconclusive outcome. USD, and with it the
identify-then-prepare cloning that `pipeline.forbidden_task_demo` builds on
it, exists exactly when the hypotheses are linearly independent, which is
the hinge the whole no-go argument turns on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, InvalidParams, LinearlyDependentInput,
                     MeasurementMismatch, NogoError)
from .states import PureState, StateSet

BORN_SUM_TOL = 1e-9
MAX_TRIALS = 2**63 - 1  # numpy's samplers count in int64


def check_trials(trials: int, least: int) -> None:
    """The one bound on a trial count: least <= trials <= MAX_TRIALS."""
    if not least <= trials <= MAX_TRIALS:
        raise InvalidParams(f"trials must lie in [{least}, {MAX_TRIALS}], got {trials}")


@dataclass
class USDMeasurement:
    """POVM on the hypothesis span: one conclusive element per hypothesis plus
    an inconclusive element absorbing the rest of the span projector."""

    dim: int
    elements: list[np.ndarray]  # E_1 ... E_n, one per hypothesis
    inconclusive: np.ndarray  # E_0
    span_projector: np.ndarray
    reciprocal: StateSet  # unit r_j with E_j = scale |r_j><r_j|
    scale: float

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
    scale = 1.0 / float(np.linalg.eigvalsh(total)[-1])
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
        reciprocal=recip,
        scale=scale,
    )


def _conclusive_probability(m: USDMeasurement, r: PureState, state: PureState) -> float:
    """Tr(E_j rho) = scale |<r_j|state>|^2, a product of non-negative factors,
    so round-off cannot make it negative; capped at 1, which orthonormal sets
    overshoot by about 1e-15."""
    return min(m.scale * abs(r.inner(state)) ** 2, 1.0)


def success_probabilities(m: USDMeasurement, hypotheses: StateSet) -> list[float]:
    """Tr(E_j rho_j) for each hypothesis j."""
    if m.n_hypotheses != len(hypotheses) or m.dim != hypotheses.dim:
        raise MeasurementMismatch(
            "measurement was not built from this hypothesis set"
        )
    return [_conclusive_probability(m, r, state)
            for r, state in zip(m.reciprocal.members, hypotheses.members)]


def born_distribution(m: USDMeasurement, truth: PureState) -> np.ndarray:
    """Outcome probabilities [E_1, ..., E_n, E_0] for the given true state.

    Conclusive entries come from the reciprocal overlaps, so a hypothesis'
    own entry equals its `success_probabilities` entry; the inconclusive
    entry is the rest, 1 - sum, which must match <truth|E_0|truth>: it does
    not when the truth leaves the hypothesis span.
    """
    if truth.dim != m.dim:
        raise DimensionMismatch(f"state dimension {truth.dim} != measurement {m.dim}")
    probs = [_conclusive_probability(m, r, truth) for r in m.reciprocal.members]
    rest = 1.0 - sum(probs)
    amps = truth.amplitudes
    direct = float(np.real(np.vdot(amps, m.inconclusive @ amps)))
    if abs(rest - direct) > BORN_SUM_TOL:
        raise NogoError(
            f"inconclusive probability {rest!r} != <truth|E_0|truth> = {direct!r}; "
            "the truth leaves the hypothesis span or the measurement is inconsistent"
        )
    probs.append(max(rest, 0.0))  # round-off takes 1 - sum to -1e-15; numpy wants >= 0
    return np.array(probs)


def simulate_usd(
    m: USDMeasurement,
    truth: PureState,
    trials: int,
    rng: np.random.Generator,
) -> DiscriminationOutcome:
    """Label counts of `trials` Born outcomes, one multinomial draw; label n
    (last) is inconclusive."""
    check_trials(trials, 1)
    counts = rng.multinomial(trials, born_distribution(m, truth))
    return DiscriminationOutcome(trials=trials, per_label_counts=counts)


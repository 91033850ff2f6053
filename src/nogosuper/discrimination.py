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
from .errors import DimensionMismatch, InvalidParams, NogoError
from .states import PureState

BORN_SUM_TOL = 1e-9
MAX_TRIALS = 2**63 - 1  # numpy's samplers count in int64


def check_trials(trials: int, least: int) -> None:
    """The one bound on a trial count: least <= trials <= MAX_TRIALS."""
    if not least <= trials <= MAX_TRIALS:
        raise InvalidParams(f"trials must lie in [{least}, {MAX_TRIALS}], got {trials}")


@dataclass(frozen=True)
class USDMeasurement:
    """USD POVM on the hypothesis span, kept as the data that defines it: the
    conclusive elements are E_j = scale |r_j><r_j| and the inconclusive
    element is the rest of the span projector, E_0 = Q Q^H - sum_j E_j.
    `povm_elements` builds the d x d matrices."""

    hypotheses: np.ndarray  # dim x n, the hypothesis states as columns
    reciprocal: np.ndarray  # n x dim, unit reciprocal vectors r_j as rows
    span: np.ndarray  # dim x n, orthonormal basis Q of the hypothesis span
    scale: float

    @property
    def dim(self) -> int:
        return self.reciprocal.shape[1]


def build_usd(f: linalg.Factorization) -> USDMeasurement:
    """USD POVM of hypotheses factored by `linalg.factorize`, independent at
    its tolerance (LinearlyDependentInput otherwise).

    Conclusive elements are uniformly scaled reciprocal-basis projectors,
    E_j = s |r_j><r_j| with s = 1 / lambda_max(R^H R) for the rows R, the
    largest uniform scale keeping the inconclusive element positive
    semidefinite; lambda_max is taken on the n x n R R^H. Q = U[:, :n].
    """
    recip = linalg.reciprocal_basis(f)  # raises LinearlyDependentInput
    scale = 1.0 / float(np.linalg.eigvalsh(recip @ recip.conj().T)[-1])
    return USDMeasurement(hypotheses=f.amplitudes, reciprocal=recip,
                          span=f.u[:, :len(recip)], scale=scale)


def povm_elements(m: USDMeasurement) -> tuple[list[np.ndarray], np.ndarray]:
    """The d x d POVM: ([E_1, ..., E_n], E_0)."""
    elements = [m.scale * np.outer(r, r.conj()) for r in m.reciprocal]
    inconclusive = m.span @ m.span.conj().T - sum(elements)
    return elements, 0.5 * (inconclusive + inconclusive.conj().T)


def _conclusive_probability(m: USDMeasurement, r: np.ndarray, x: np.ndarray) -> float:
    """Tr(E_j rho) = scale |<r_j|x>|^2, a product of non-negative factors,
    so round-off cannot make it negative; capped at 1, which orthonormal sets
    overshoot by about 1e-15."""
    return min(m.scale * abs(complex(np.vdot(r, x))) ** 2, 1.0)


def success_probabilities(m: USDMeasurement) -> list[float]:
    """Tr(E_j rho_j) for each hypothesis j, on contiguous copies of the
    columns: `born_distribution` gets the same bits from a member's vector."""
    rows = np.ascontiguousarray(m.hypotheses.T)
    return [_conclusive_probability(m, r, x) for r, x in zip(m.reciprocal, rows)]


def born_distribution(m: USDMeasurement, truth: PureState) -> np.ndarray:
    """Outcome probabilities [E_1, ..., E_n, E_0] for the given true state.

    Conclusive entries come from the reciprocal overlaps, so a hypothesis'
    own entry equals its `success_probabilities` entry; the inconclusive
    entry is the rest, 1 - sum. That rest equals <truth|E_0|truth> only for
    a truth in the hypothesis span, so a truth whose span weight
    ||Q^H truth||^2 is off 1 by more than BORN_SUM_TOL is refused.
    """
    if truth.dim != m.dim:
        raise DimensionMismatch(f"state dimension {truth.dim} != measurement {m.dim}")
    amps = truth.amplitudes
    weight = float(np.linalg.norm(m.span.conj().T @ amps)) ** 2
    if abs(1.0 - weight) > BORN_SUM_TOL:
        raise NogoError(
            f"the truth has weight {1.0 - weight!r} outside the hypothesis span"
        )
    probs = [_conclusive_probability(m, r, amps) for r in m.reciprocal]
    rest = 1.0 - sum(probs)
    probs.append(max(rest, 0.0))  # round-off takes 1 - sum to -1e-15; numpy wants >= 0
    return np.array(probs)


def simulate_usd(
    m: USDMeasurement,
    truth: PureState,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Label counts of `trials` Born outcomes, one multinomial draw: n + 1
    entries, the last one inconclusive."""
    check_trials(trials, 1)
    return rng.multinomial(trials, born_distribution(m, truth))

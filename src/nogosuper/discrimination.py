"""Unambiguous state discrimination (USD): the POVM and its Born table, the
one read-out of every USD probability and sampled count.

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
from .errors import DimensionMismatch, InvalidParams, LinearlyDependentInput, NogoError
from .states import StateSet

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

    reciprocal: np.ndarray  # n x dim, unit reciprocal vectors r_j as rows
    span: np.ndarray  # dim x n, orthonormal basis Q of the hypothesis span
    scale: float


def build_usd(f: linalg.Factorization) -> USDMeasurement:
    """USD POVM of hypotheses factored by `linalg.factorize`, independent at
    its tolerance: LinearlyDependentInput otherwise, the regime where
    unambiguous discrimination fails.

    The rows r_j are the unit reciprocal (biorthogonal) vectors of the set,
    <r_i|psi_j> = 0 for i != j and <r_i|psi_i> real positive. Conclusive
    elements are uniformly scaled projectors on them, E_j = s |r_j><r_j| with
    s = 1 / lambda_max(R^H R) for the rows R, the largest uniform scale
    keeping the inconclusive element positive semidefinite; lambda_max is
    taken on the n x n R R^H. Q = U[:, :n].
    """
    n = f.amplitudes.shape[1]
    if f.rank < n:
        raise LinearlyDependentInput("reciprocal basis requires linearly independent states")
    # with A = U S V^H, the columns of A (A^H A)^-1 = U S^-1 V^H are the
    # reciprocal vectors, found without squaring the condition number
    tilde = np.ascontiguousarray(((f.u[:, :n] / f.singular_values) @ f.vh).T)
    recip = tilde / linalg.row_norms(tilde)[:, None]  # C order, as the Born table needs
    scale = 1.0 / float(np.linalg.eigvalsh(recip @ recip.conj().T)[-1])
    return USDMeasurement(reciprocal=recip, span=f.u[:, :n], scale=scale)


def povm_elements(m: USDMeasurement) -> tuple[list[np.ndarray], np.ndarray]:
    """The d x d POVM: ([E_1, ..., E_n], E_0)."""
    elements = [m.scale * np.outer(r, r.conj()) for r in m.reciprocal]
    inconclusive = m.span @ m.span.conj().T - sum(elements)
    return elements, 0.5 * (inconclusive + inconclusive.conj().T)


def born_distribution(m: USDMeasurement, truths: StateSet) -> np.ndarray:
    """The Born table, (k, n + 1): row i holds the probabilities of
    [E_1, ..., E_n, E_0] for the true state truths.rows[i]. On the hypotheses
    themselves its diagonal is the USD success probabilities Tr(E_j rho_j);
    a sampler draws label counts from its rows with `rng.multinomial`.

    Conclusive entries are scale |<r_j|x_i>|^2, products of non-negative
    factors, capped at 1, which orthonormal sets overshoot by about 1e-15.
    With the rows x in C order, `vecdot` takes each overlap as one dot
    product of two unit-stride rows, so an entry does not depend on the other
    rows: a truth's row has the same bits in every table. The
    inconclusive entry 1 - sum is <x|E_0|x> only for x in the span, so a
    truth whose span weight ||Q^H x||^2 is off 1 by more than BORN_SUM_TOL is
    refused.
    """
    dim = m.reciprocal.shape[1]
    if truths.dim != dim:
        raise DimensionMismatch(f"state dimension {truths.dim} != measurement {dim}")
    x = truths.rows
    off = 1.0 - linalg.row_norms(x @ m.span.conj()) ** 2
    worst = int(np.argmax(np.abs(off)))
    if abs(off[worst]) > BORN_SUM_TOL:
        raise NogoError(f"truth {worst} has weight {float(off[worst])} outside the span")
    conclusive = np.minimum(m.scale * np.abs(np.vecdot(m.reciprocal, x[:, None])) ** 2, 1.0)
    # round-off takes 1 - sum to -1e-15; numpy's sampler wants >= 0
    return np.column_stack([conclusive, np.maximum(1.0 - conclusive.sum(axis=1), 0.0)])

"""The hypothetical superposition oracle.

Given weights (alpha, beta), the oracle maps two pure states to the normalized
state alpha|psi> + beta e^{i theta}|phi>, where theta comes from a pluggable
phase policy and success is drawn from a pluggable success-probability policy
(`ConstantSuccess(1.0)` for an oracle that always succeeds). Phase policies
see canonical rows only, so a global phase reaches them only through the
round-off of `canonicalize`, which moves the built-in policies' phases by
about 1e-11 at most on generic pairs. They can still see the basis: the
canonical pivot is the first non-negligible amplitude in the given basis.

Every superposition the package forms is formed by `superpose_many`, with
phases in the frame of the given representatives psi and phi. A policy's
phase is moved into that frame by `given_frame_phase`, so the oracle output
depends on the inputs' density matrices only. The phase scan forms none: it
reads each grid point's singular values from closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NullSuperposition, NullVector
from .states import StateSet, canonicalize, normalize

UNIT_PAIR_TOL = 1e-9
_HASH_STEP = 50.0 * (math.sqrt(5.0) - 1.0)  # 100 g, g = (sqrt 5 - 1) / 2


def wrap_phase(theta: float) -> float:
    """theta mod 2 pi, in [0, 2 pi): a tiny negative theta gives 0, not `%`'s 2 pi."""
    theta %= math.tau
    return 0.0 if theta == math.tau else theta


class PhasePolicy:
    """Maps two canonical amplitude rows to a phase in [0, 2*pi) by `phase(psi, phi)`."""

    def __call__(self, psi: np.ndarray, phi: np.ndarray) -> float:
        """One policy evaluation on canonical rows, wrapped into [0, 2*pi)."""
        return wrap_phase(self.phase(psi, phi))


@dataclass(frozen=True)
class ConstantPhase(PhasePolicy):
    theta0: float = 0.0

    def phase(self, psi, phi):
        return self.theta0


class OverlapArgPhase(PhasePolicy):
    """theta = arg(<psi|phi>) of the canonical rows; 0 when |<psi|phi>| < 1e-6,
    where `canonicalize`'s round-off moves the arg by about 1e-16 / |<psi|phi>|."""

    def phase(self, psi, phi):
        overlap = complex(np.vdot(psi, phi))
        return 0.0 if abs(overlap) < 1e-6 else cmath.phase(overlap)


class CanonicalHashPhase(PhasePolicy):
    """Adversarially arbitrary but reproducible phase: 2 pi times the
    fractional part of sum_k w_k v_k, where v lists the real and imaginary
    parts of psi then phi and w_k = 100 g (k + 1), g = (sqrt 5 - 1) / 2.
    `math.fsum` rounds the sum exactly, so every platform gives the same
    phase, and the phase is continuous in the rows: the round-off with which
    `canonicalize` removes a global phase moves it by about 1e-11 at dim 16."""

    def phase(self, psi, phi):
        v = np.concatenate([psi, phi], dtype=complex).view(float)
        return math.tau * (math.fsum((_HASH_STEP * np.arange(1, v.size + 1) * v).tolist()) % 1.0)


def given_frame_phase(policy: PhasePolicy, psi: np.ndarray, phi: np.ndarray) -> float:
    """The policy's phase, chosen on canonical rows, moved into the frame of
    the given amplitude rows psi and phi: theta + kappa_phi - kappa_psi, where
    canonicalize(s) = e^{i kappa_s} s, so kappa_s = arg <s|canonicalize(s)>.
    Superposing with it gives the canonical-form superposition up to e^{-i kappa_psi}."""
    if psi.shape != phi.shape:
        raise DimensionMismatch(f"dimensions {psi.size} and {phi.size} differ")
    c_psi, c_phi = canonicalize(psi), canonicalize(phi)
    return wrap_phase(policy(c_psi, c_phi) + cmath.phase(np.vdot(phi, c_phi))
                      - cmath.phase(np.vdot(psi, c_psi)))


def unit_pair(x: complex, y: complex, x_name: str, y_name: str) -> tuple[complex, complex]:
    """Check that x and y are nonzero with |x|^2 + |y|^2 within UNIT_PAIR_TOL
    of 1 (InvalidParams otherwise) and return them rescaled to exactly 1."""
    if x == 0 or y == 0:
        raise InvalidParams(f"{x_name} and {y_name} must both be nonzero")
    try:
        total = abs(x) ** 2 + abs(y) ** 2
    except OverflowError:  # a modulus beyond 1e154, far from any unit pair
        total = math.inf
    if not abs(total - 1.0) <= UNIT_PAIR_TOL:
        raise InvalidParams(f"|{x_name}|^2 + |{y_name}|^2 must equal 1, got {float(total)!r}")
    scale = math.sqrt(total)
    return x / scale, y / scale


@dataclass(frozen=True)
class ConstantSuccess:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise InvalidParams(f"success probability must lie in (0, 1], got {self.p}")

    def probability(self, psi, phi):
        return self.p


class OverlapScaledSuccess:
    """p = (1 + |<psi|phi>|^2) / 2, so orthogonal inputs succeed half the time."""

    def probability(self, psi, phi):
        return 0.5 * (1.0 + abs(complex(np.vdot(psi, phi))) ** 2)


@dataclass
class SuperposerConfig:
    """Oracle weights, stored rescaled by `unit_pair`, and its two policies."""

    alpha: complex
    beta: complex
    phase_policy: PhasePolicy
    success_policy: ConstantSuccess | OverlapScaledSuccess

    def __post_init__(self):
        self.alpha, self.beta = unit_pair(self.alpha, self.beta, "alpha", "beta")


def superpose_many(
    alpha: complex,
    beta: complex,
    psis: np.ndarray,
    phi: np.ndarray,
    thetas: np.ndarray,
) -> StateSet:
    """`normalize` of the rows alpha psi_j + beta e^{i theta_j} phi for the
    (k, dim) rows `psis` and k phases `thetas`. Raises NullSuperposition if
    any row cancels."""
    out = np.exp(1j * np.asarray(thetas, dtype=float))[:, None] * (beta * phi)
    out += alpha * psis
    try:
        return normalize(out)
    except NullVector as exc:
        raise NullSuperposition(
            "superposition cancelled to zero; the inputs are parallel with "
            "cancelling coefficients, outside the oracle's contract"
        ) from exc

"""The hypothetical superposition oracle.

Given weights (alpha, beta), the oracle maps two pure states to the normalized
state alpha|psi> + beta e^{i theta}|phi>, where theta comes from a pluggable
phase policy and success is drawn from a pluggable success-probability policy.
Phase policies consume canonical forms only, so they structurally cannot peek
at unphysical global phases or at any particular basis representation.

Every superposition in the package is formed by `superpose_many`, with phases
in the frame of the given representatives psi and phi. A policy's phase is
moved into that frame by `given_frame_phase`, so the oracle output depends on
the inputs' density matrices only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NullSuperposition
from .states import NULL_THRESHOLD, CanonicalForm, PureState, canonicalize

TWO_PI = 2.0 * math.pi
UNIT_PAIR_TOL = 1e-9
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class PhasePolicy:
    """Maps a canonicalized input pair to a relative phase in [0, 2*pi)."""

    def phase(self, psi: CanonicalForm, phi: CanonicalForm) -> float:
        raise NotImplementedError

    def __call__(self, psi: PureState, phi: PureState) -> float:
        theta = self.phase(canonicalize(psi), canonicalize(phi))
        return theta % TWO_PI


@dataclass(frozen=True)
class ConstantPhase(PhasePolicy):
    theta0: float = 0.0

    def phase(self, psi, phi):
        return self.theta0


@dataclass(frozen=True)
class OverlapArgPhase(PhasePolicy):
    """theta = arg(<psi|phi>) of the canonical forms; 0 when they are orthogonal."""

    def phase(self, psi, phi):
        overlap = complex(np.vdot(psi.amplitudes, phi.amplitudes))
        if abs(overlap) < 1e-10:
            return 0.0
        return math.atan2(overlap.imag, overlap.real)


@dataclass(frozen=True)
class CanonicalHashPhase(PhasePolicy):
    """Adversarially arbitrary but reproducible phase: 64-bit FNV-1a over the
    canonical amplitudes rounded to 12 decimal digits, mapped to [0, 2*pi)."""

    def phase(self, psi, phi):
        h = _FNV_OFFSET
        for amps in (psi.amplitudes, phi.amplitudes):
            for z in amps:
                for part in (round(float(z.real), 12), round(float(z.imag), 12)):
                    if part == 0.0:
                        part = 0.0  # merge -0.0 and +0.0
                    for byte in part.hex().encode("ascii"):
                        h ^= byte
                        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        return TWO_PI * (h / 2.0**64)


def given_frame_phase(policy: PhasePolicy, psi: PureState, phi: PureState) -> float:
    """The policy's phase, chosen on canonical forms, moved into the frame of
    the given psi and phi: theta + kappa_phi - kappa_psi, where
    canonicalize(s) = e^{i kappa_s} s. Superposing psi and phi with it gives
    the canonical-form superposition up to the global phase e^{-i kappa_psi}."""
    if psi.dim != phi.dim:
        raise DimensionMismatch(f"dimensions {psi.dim} and {phi.dim} differ")
    theta = policy(psi, phi) + _canonical_phase(phi) - _canonical_phase(psi)
    return theta % TWO_PI


def _canonical_phase(s: PureState) -> float:
    """kappa_s = arg <s|canonicalize(s)>; exactly 0 for a canonical s."""
    z = complex(np.vdot(s.amplitudes, canonicalize(s).amplitudes))
    return math.atan2(z.imag, z.real)


def unit_pair(x: complex, y: complex, x_name: str, y_name: str) -> tuple[complex, complex]:
    """Check that x and y are nonzero with |x|^2 + |y|^2 within UNIT_PAIR_TOL
    of 1 (InvalidParams otherwise) and return them rescaled to exactly 1."""
    if x == 0 or y == 0:
        raise InvalidParams(f"{x_name} and {y_name} must both be nonzero")
    total = abs(x) ** 2 + abs(y) ** 2
    if not abs(total - 1.0) <= UNIT_PAIR_TOL:
        raise InvalidParams(f"|{x_name}|^2 + |{y_name}|^2 must equal 1, got {total!r}")
    scale = math.sqrt(total)
    return x / scale, y / scale


class SuccessPolicy:
    """Success probability of one oracle invocation; must be nonzero."""

    def probability(self, psi: PureState, phi: PureState) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class AlwaysSucceed(SuccessPolicy):
    def probability(self, psi, phi):
        return 1.0


@dataclass(frozen=True)
class ConstantSuccess(SuccessPolicy):
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise InvalidParams(f"success probability must lie in (0, 1], got {self.p}")

    def probability(self, psi, phi):
        return self.p


@dataclass(frozen=True)
class OverlapScaledSuccess(SuccessPolicy):
    """p = (1 + |<psi|phi>|^2) / 2, so orthogonal inputs succeed half the time."""

    def probability(self, psi, phi):
        return 0.5 * (1.0 + abs(psi.inner(phi)) ** 2)


@dataclass(frozen=True)
class SuperposerConfig:
    """Oracle weights, stored rescaled by `unit_pair`, and its two policies."""

    alpha: complex
    beta: complex
    phase_policy: PhasePolicy
    success_policy: SuccessPolicy

    def __post_init__(self):
        alpha, beta = unit_pair(self.alpha, self.beta, "alpha", "beta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class SuperposeOutcome:
    succeeded: bool
    state: PureState | None
    theta_used: float  # in the frame of the given psi and phi
    probability: float


def superpose_many(
    alpha: complex,
    beta: complex,
    psis: np.ndarray,
    phi: np.ndarray,
    thetas: np.ndarray,
) -> np.ndarray:
    """Unit columns (alpha psi_j + beta e^{i theta_j} phi) / norm.

    `psis` is (dim, k) with the states as columns, `phi` is (dim,) and
    `thetas` is (..., k); the result is (..., dim, k), broadcast over the
    leading phase axes. It is built in one array of the output's size and
    normalized in place. Raises NullSuperposition if any column cancels.
    """
    out = np.exp(1j * np.asarray(thetas, dtype=float))[..., None, :] * (beta * phi)[:, None]
    out += alpha * psis
    # column norms from the real and imaginary views: no conjugate copy
    norms = np.einsum("...ij,...ij->...j", out.real, out.real)
    norms += np.einsum("...ij,...ij->...j", out.imag, out.imag)
    np.sqrt(norms, out=norms)
    if norms.min() <= NULL_THRESHOLD:
        raise NullSuperposition(
            "superposition cancelled to zero; the inputs are parallel with "
            "cancelling coefficients, outside the oracle's contract"
        )
    out /= norms[..., None, :]
    return out


def _superpose_pair(
    cfg: SuperposerConfig, psi: PureState, phi: PureState, theta: float
) -> PureState:
    out = superpose_many(cfg.alpha, cfg.beta, psi.amplitudes[:, None], phi.amplitudes, [theta])
    return PureState(out[:, 0])


def superpose_deterministic(
    cfg: SuperposerConfig, psi: PureState, phi: PureState
) -> PureState:
    """normalize(alpha * psi + beta * e^{i theta} * phi) with theta the
    policy's phase in the frame of psi and phi."""
    return _superpose_pair(cfg, psi, phi, given_frame_phase(cfg.phase_policy, psi, phi))


def superpose(
    cfg: SuperposerConfig,
    psi: PureState,
    phi: PureState,
    rng: np.random.Generator,
) -> SuperposeOutcome:
    """One probabilistic invocation: Bernoulli success draw, then the
    deterministic superposition on success."""
    theta = given_frame_phase(cfg.phase_policy, psi, phi)
    p = cfg.success_policy.probability(psi, phi)
    succeeded = bool(rng.random() < p)
    state = _superpose_pair(cfg, psi, phi, theta) if succeeded else None
    return SuperposeOutcome(
        succeeded=succeeded, state=state, theta_used=theta, probability=p
    )

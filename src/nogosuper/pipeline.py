"""End-to-end no-go pipeline.

Start from a linearly dependent triple {psi, psi_perp, a*psi + b*psi_perp},
push each member through the superposition oracle against a common orthogonal
partner state, certify that the outputs became linearly independent, locate
the exceptional phase choices where they do not, and demonstrate the formerly
forbidden tasks (USD and cloning) on the independent outputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import linalg
from .discrimination import born_distribution, build_usd, check_trials
from .errors import DependentOutputs, InvalidParams
from .states import StateSet, normalize
from .superposer import (
    SuperposerConfig,
    given_frame_phase,
    superpose_many,
    unit_pair,
    wrap_phase,
)

ORTHOGONALITY_TOL = 1e-10
SCAN_RANK_TOL = 1e-6
MAX_DIM = 16
MIN_GRID_STEP = math.pi / 720.0  # 0.25 degrees: 1440^2 points, scan peak about 42 MB
_BLOCK_ROWS = 32  # theta21 rows per scan kernel call
LOCUS_FAMILY = "theta21 in {pi/2, 3*pi/2} with a = cos(theta31), b = +/- sin(theta31)"


@dataclass
class CounterexampleParams:
    """The dependent input triple in dimension >= 3 from the amplitude rows
    psi, psi_perp and phi, checked once as an orthonormal frame. It keeps `a`
    and `b` (rescaled by `unit_pair`), `phi` and `inputs`, the triple (psi,
    psi_perp, a psi + b psi_perp). The scan relies on the frame being
    orthonormal: it reads the outputs' singular values from a, b and the weights alone."""

    a: float
    b: float
    psi: InitVar[np.ndarray]
    psi_perp: InitVar[np.ndarray]
    phi: np.ndarray
    inputs: StateSet = field(init=False, repr=False, compare=False)

    def __post_init__(self, psi, psi_perp):
        self.a, self.b = unit_pair(self.a, self.b, "a", "b")
        frame = StateSet([psi, psi_perp, self.phi])
        if np.abs(frame.rows.conj() @ frame.rows.T - np.eye(3)).max() > ORTHOGONALITY_TOL:
            raise InvalidParams("psi, psi_perp, phi must be pairwise orthogonal")
        psi, psi_perp, self.phi = frame.rows
        self.inputs = normalize([psi, psi_perp, self.a * psi + self.b * psi_perp])


def standard_params(a: float, b: float, dim: int = 3) -> CounterexampleParams:
    """Computational-basis instantiation: psi = e1, psi_perp = e2, phi = e3."""
    if not 3 <= dim <= MAX_DIM:
        raise InvalidParams(f"dimension must lie in [3, {MAX_DIM}], got {dim}")
    return CounterexampleParams(a, b, *np.eye(3, dim))


@dataclass
class PhaseTriple:
    """The oracle phases and their differences theta21, theta31, each in [0, 2*pi)."""

    theta1: float
    theta2: float
    theta3: float
    theta21: float = field(init=False)
    theta31: float = field(init=False)

    def __post_init__(self):
        self.theta1 = wrap_phase(self.theta1)
        self.theta2 = wrap_phase(self.theta2)
        self.theta3 = wrap_phase(self.theta3)
        self.theta21 = wrap_phase(self.theta2 - self.theta1)
        self.theta31 = wrap_phase(self.theta3 - self.theta1)


@dataclass
class DependenceCertificate:
    """Either a full-rank certificate of independence or explicit coefficients
    witnessing a vanishing linear combination. `gram_rank` is decided on the
    amplitude singular values, so it is also the rank of the Gram matrix."""

    independent: bool
    coefficients: np.ndarray | None  # max modulus 1, present iff dependent
    residual_norm: float
    gram_rank: int
    singular_values: np.ndarray  # of the amplitude matrix, descending


@dataclass
class ScanResult:
    """Full grid sweep over (theta21, theta31) with theta1 pinned to 0."""

    thetas: np.ndarray  # the grid of both theta21 and theta31
    min_singular_values: np.ndarray  # shape (n, n), [theta21, theta31]
    ranks: np.ndarray  # shape (n, n)
    detected: np.ndarray  # shape (k, 2), the (theta21, theta31) rows where rank < 3


def apply_superposer_to_set(
    cfg: SuperposerConfig, p: CounterexampleParams, phases: PhaseTriple | None = None
) -> tuple[StateSet, PhaseTriple]:
    """Output triple Psi_j = normalize(alpha psi_j + beta e^{i theta_j} phi).

    The phases act on the given representatives psi_j and phi. With
    `phases=None` the phase policy picks each theta_j on canonical forms and
    it is moved into that frame (`given_frame_phase`), so each output is the
    superposition of the canonical forms up to a global phase and feeding
    the returned phases back reproduces the outputs.
    """
    if phases is None:
        phases = PhaseTriple(*(given_frame_phase(cfg.phase_policy, s, p.phi)
                               for s in p.inputs.rows))
    thetas = [phases.theta1, phases.theta2, phases.theta3]
    return superpose_many(cfg.alpha, cfg.beta, p.inputs.rows, p.phi, thetas), phases


def certify_independence(f: linalg.Factorization) -> DependenceCertificate:
    """Rank-certify a factored set of n states, any n; below rank n (always
    when n > dim), the last right singular vector is the vanishing
    combination, its residual verified."""
    independent = f.rank == f.vh.shape[0]
    x = f.vh[-1].conj()  # right singular vector of the smallest sigma
    coeffs = None if independent else _normalize_coefficients(x)
    return DependenceCertificate(
        independent=independent,
        coefficients=coeffs,
        residual_norm=float(np.linalg.norm(f.amplitudes @ (x if independent else coeffs))),
        gram_rank=f.rank,
        singular_values=f.singular_values,
    )


def _normalize_coefficients(x: np.ndarray) -> np.ndarray:
    """Scale to max modulus 1 with the first maximal-modulus entry real positive."""
    mags = np.abs(x)
    x = x / mags.max()
    mags = np.abs(x)
    first_max = int(np.nonzero(mags >= mags.max() - 1e-12)[0][0])
    phase = np.conj(x[first_max]) / abs(x[first_max])
    return x * phase


def solve_degeneracy_analytic(a: complex, b: complex) -> np.ndarray:
    """The float64 (2, 2) array of the (theta21, theta31) pairs, by theta21, where the phasors
    close, e^{i theta31} = a + b w2: with |a|^2 + |b|^2 = 1 that needs Re(conj(a) b w2) = 0, so
    w2 = +-i conj(u), u = conj(a) b / |a b|. Real a and b give w2 = +-i: `LOCUS_FAMILY`."""
    a, b = unit_pair(a, b, "a", "b")
    w2 = 1j * ((a / abs(a)).conjugate() * (b / abs(b))).conjugate()  # no |a b| to underflow
    return np.array(sorted((wrap_phase(cmath.phase(w)), wrap_phase(cmath.phase(a + b * w)))
                           for w in (w2, -w2)))


def scan_degeneracy_numeric(
    p: CounterexampleParams,
    alpha: complex,
    beta: complex,
    grid_step: float,
) -> ScanResult:
    """Sweep (theta21, theta31) over [0, 2*pi)^2 with theta1 = 0 and flag
    every grid point where the output triple's rank drops below 3 at the
    (looser) scan tolerance.

    In the orthonormal frame (psi, psi_perp, phi), at any dimension, the
    outputs are C = [[alpha, 0, alpha a], [0, alpha, alpha b], [beta,
    beta w2, beta w3]], w_j = e^{i theta_j1}. Row phases keep its singular
    values, so with A = |alpha| and B = |beta| the invariants of
    `_eigenvalues_3x3` are c1 = 3 (A^2 + B^2), c2 = 2 A^4 + A^2 B^2 (3 +
    |w3 - a|^2 + |w3 - b w2|^2) and c3 = |det C|^2 = A^4 B^2
    |w3 - a - b w2|^2: the outputs are dependent where the phasors close.
    """
    if not MIN_GRID_STEP <= grid_step <= 0.1:
        raise InvalidParams(f"grid_step must lie in [{MIN_GRID_STEP}, 0.1], got {grid_step}")
    alpha, beta = unit_pair(alpha, beta, "alpha", "beta")
    n = int(math.floor((math.tau - 1e-12) / grid_step)) + 1
    thetas = grid_step * np.arange(n)

    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
    w = np.exp(1j * thetas)
    w3_a = w - p.a  # per theta31 column
    c2_cols = 2.0 * a2 * a2 + a2 * b2 * (3.0 + (w3_a.real**2 + w3_a.imag**2))
    # the kernel's temporaries hold one block of `_BLOCK_ROWS` theta21 rows at a time
    sigma_min, ranks = np.empty((n, n)), np.empty((n, n), dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        gap = w - p.b * w[rows, None]  # w3 - b w2
        c2 = c2_cols + a2 * b2 * (gap.real**2 + gap.imag**2)
        gap -= p.a  # the closure, w3 - a - b w2
        c3 = a2 * a2 * b2 * (gap.real**2 + gap.imag**2)
        lam_min, lam_mid, lam_max = _eigenvalues_3x3(3.0 * (a2 + b2), c2, c3)
        # sigma > SCAN_RANK_TOL * sigma_max, squared; sigma_max itself always counts
        cut = SCAN_RANK_TOL**2 * lam_max
        ranks[rows] = 1 + (lam_mid > cut) + (lam_min > cut)
        sigma_min[rows] = np.sqrt(lam_min)

    return ScanResult(thetas, sigma_min, ranks, thetas[np.argwhere(ranks < 3)])


def _eigenvalues_3x3(c1, c2, c3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots lam_min <= lam_mid <= lam_max of lam^3 - c1 lam^2 + c2 lam - c3,
    the characteristic polynomial of a Gram matrix C^H C of rank >= 2, from
    its invariants c1 = ||C||_F^2, c2 = the sum of |2x2 minors of C|^2
    (Cauchy-Binet) and c3 = |det C|^2, arrays that broadcast together.

    lam_max is the largest root (trigonometric form); the other two come
    from deflating it off the constant end: lam_min lam_mid = c3 / lam_max
    and lam_min + lam_mid = (c2 - lam_min lam_mid) / lam_max. That keeps
    lam_min accurate where lam_max is not, at a near double root.
    """
    spread = np.maximum(c1 * c1 - 3.0 * c2, 0.0) / 9.0  # 0 only if all are equal; cos3 moot
    half_q = (2.0 * c1**3 - 9.0 * c1 * c2 + 27.0 * c3) / 54.0
    cos3 = np.clip(half_q / np.where(spread > 0, spread, 1.0)**1.5, -1.0, 1.0)
    lam_max = c1 / 3.0 + 2.0 * np.sqrt(spread) * np.cos(np.arccos(cos3) / 3.0)
    prod = c3 / lam_max
    total = (c2 - prod) / lam_max
    lam_mid = 0.5 * (total + np.sqrt(np.maximum(total * total - 4.0 * prod, 0.0)))
    # lam_mid is 0 only where prod is too, e.g. where |alpha|^2 underflowed
    lam_min = np.divide(prod, lam_mid, out=np.zeros_like(lam_mid), where=lam_mid > 0)
    return lam_min, lam_mid, lam_max


@dataclass
class DemoReport:
    """Outcome tally of the forbidden-task demonstration."""

    trials: int
    phases: PhaseTriple
    certificate: DependenceCertificate
    secret_counts: np.ndarray  # how often each hypothesis was the secret
    superposer_failures: int
    conclusive_counts: np.ndarray  # per hypothesis
    misidentifications: int
    clone_successes: int
    clone_fidelity_min: float  # min |<Psi_i|Psi_j>|^2, secret i cloned as j; 1.0 if none
    predicted_usd_probabilities: list[float]
    predicted_conclusive_rate: float
    empirical_conclusive_rate: float  # conclusive identifications per trial; 0.0 if none


def forbidden_task_demo(
    p: CounterexampleParams,
    cfg: SuperposerConfig,
    trials: int,
    rng: np.random.Generator,
    tol: float = linalg.DEFAULT_RANK_TOL,
    phases: PhaseTriple | None = None,
) -> DemoReport:
    """Per trial: draw a secret input, run the oracle (honoring its success
    policy), unambiguously discriminate the output, and clone on a conclusive
    identification by preparing two copies of the identified output.
    `phases` pins the phases as in `apply_superposer_to_set`; None lets the
    phase policy choose them.

    The trials are drawn as counts, whose cost does not depend on `trials`:
    secrets from a multinomial, oracle successes per secret from a binomial,
    and Born labels per secret from a multinomial over its row.

    Raises DependentOutputs when the outputs are dependent at rank tolerance
    `tol`: on the degeneracy locus the demonstration is genuinely impossible.
    """
    check_trials(trials, 0)
    outputs, phases = apply_superposer_to_set(cfg, p, phases)
    factored = linalg.factorize(outputs, tol)
    cert = certify_independence(factored)
    if not cert.independent:
        raise DependentOutputs(
            "the phases produce linearly dependent outputs; USD and cloning "
            "stay impossible for this configuration"
        )
    # row i is output i's Born row; its diagonal is the USD success probabilities
    dists = born_distribution(build_usd(factored), outputs)
    usd_probs = np.diag(dists)
    oracle_probs = np.array([cfg.success_policy.probability(s, p.phi) for s in p.inputs.rows])

    secret_counts = rng.multinomial(trials, [1.0 / 3.0] * 3)
    live = rng.binomial(secret_counts, oracle_probs)
    # outcomes[i, j]: secret i identified as output j, or inconclusive at j = 3
    outcomes = rng.multinomial(live, dists)
    identified = outcomes[:, :3]
    # a clone is the identified output itself, prepared twice
    fidelities = np.abs(outputs.rows.conj() @ outputs.rows.T) ** 2  # [i, j] = |<Psi_i|Psi_j>|^2
    return DemoReport(
        trials=trials,
        phases=phases,
        certificate=cert,
        secret_counts=secret_counts,
        superposer_failures=int(trials - live.sum()),
        conclusive_counts=identified.sum(axis=1),
        misidentifications=int(identified.sum() - np.trace(identified)),
        clone_successes=int(identified.sum()),
        clone_fidelity_min=float(fidelities[identified > 0].min(initial=1.0)),
        predicted_usd_probabilities=usd_probs.tolist(),
        predicted_conclusive_rate=float(np.mean(oracle_probs * usd_probs)),
        empirical_conclusive_rate=float(identified.sum()) / trials if trials else 0.0,
    )

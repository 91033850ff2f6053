"""End-to-end no-go pipeline.

Start from a linearly dependent triple {psi, psi_perp, a*psi + b*psi_perp},
push each member through the superposition oracle against a common orthogonal
partner state, certify that the outputs became linearly independent, locate
the exceptional phase choices where they do not, and demonstrate the formerly
forbidden tasks (USD and cloning) on the independent outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .discrimination import born_distribution, build_usd, success_probabilities
from .errors import DependentOutputs, InvalidParams, WrongSetSize
from .states import PureState, StateSet, basis_state, normalize
from .superposer import TWO_PI, SuperposerConfig

ORTHOGONALITY_TOL = 1e-10
SCAN_RANK_TOL = 1e-6
DEPENDENCE_RESIDUAL_TOL = 1e-8


@dataclass
class CounterexampleParams:
    """Ingredients of the dependent input triple in dimension >= 3."""

    a: float
    b: float
    psi: PureState
    psi_perp: PureState
    phi: PureState

    def __post_init__(self):
        if self.a == 0.0 or self.b == 0.0:
            raise InvalidParams("a and b must both be nonzero")
        if abs(self.a**2 + self.b**2 - 1.0) > 1e-12:
            raise InvalidParams(f"a^2 + b^2 must equal 1, got {self.a**2 + self.b**2!r}")
        dims = {self.psi.dim, self.psi_perp.dim, self.phi.dim}
        if len(dims) != 1:
            raise InvalidParams(f"states have mixed dimensions {sorted(dims)}")
        if self.dim < 3:
            raise InvalidParams(f"dimension must be >= 3, got {self.dim}")
        for x, y in ((self.psi, self.psi_perp), (self.psi, self.phi), (self.psi_perp, self.phi)):
            if abs(x.inner(y)) > ORTHOGONALITY_TOL:
                raise InvalidParams("psi, psi_perp, phi must be pairwise orthogonal")

    @property
    def dim(self) -> int:
        return self.psi.dim


def standard_params(a: float, b: float, dim: int = 3) -> CounterexampleParams:
    """Computational-basis instantiation: psi = e1, psi_perp = e2, phi = e3."""
    if dim < 3:
        raise InvalidParams(f"dimension must be >= 3, got {dim}")
    return CounterexampleParams(
        a=a,
        b=b,
        psi=basis_state(dim, 0),
        psi_perp=basis_state(dim, 1),
        phi=basis_state(dim, 2),
    )


@dataclass(frozen=True)
class PhaseTriple:
    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            object.__setattr__(self, name, getattr(self, name) % TWO_PI)

    @property
    def theta21(self) -> float:
        return (self.theta2 - self.theta1) % TWO_PI

    @property
    def theta31(self) -> float:
        return (self.theta3 - self.theta1) % TWO_PI


@dataclass
class DependenceCertificate:
    """Either a rank-3 certificate of independence or explicit coefficients
    witnessing a vanishing linear combination. `gram_rank` is decided on the
    amplitude singular values, so its rank is also the Gram rank."""

    independent: bool
    coefficients: np.ndarray | None  # max modulus 1, present iff dependent
    residual_norm: float
    gram_rank: linalg.RankResult


@dataclass
class DegeneracyLocus:
    solutions: list[tuple[float, float]]  # (theta21, theta31) pairs
    family: str = (
        "theta21 in {pi/2, 3*pi/2} with a = cos(theta31), b = +/- sin(theta31)"
    )


@dataclass
class ScanResult:
    """Full grid sweep over (theta21, theta31) with theta1 pinned to 0."""

    theta21_grid: np.ndarray
    theta31_grid: np.ndarray
    min_singular_values: np.ndarray  # shape (n21, n31)
    ranks: np.ndarray  # shape (n21, n31)
    detected: DegeneracyLocus = field(default=None)  # pairs where rank < 3


def build_counterexample(p: CounterexampleParams) -> StateSet:
    psi3 = normalize(p.a * p.psi.amplitudes + p.b * p.psi_perp.amplitudes)
    return StateSet([p.psi, p.psi_perp, psi3])


def apply_superposer_to_set(
    cfg: SuperposerConfig, p: CounterexampleParams
) -> tuple[StateSet, PhaseTriple]:
    """Superpose each triple member with phi; the phase policy picks each theta_j."""
    inputs = build_counterexample(p)
    thetas = [cfg.phase_policy(s, p.phi) for s in inputs.members]
    outputs = apply_with_phases(cfg.alpha, cfg.beta, p, PhaseTriple(*thetas))
    return outputs, PhaseTriple(*thetas)


def apply_with_phases(
    alpha: complex, beta: complex, p: CounterexampleParams, phases: PhaseTriple
) -> StateSet:
    """Output triple Psi_j = normalize(alpha psi_j + beta e^{i theta_j} phi)
    with explicitly chosen phases (bypasses any phase policy)."""
    inputs = build_counterexample(p)
    members = []
    for s, theta in zip(inputs.members, (phases.theta1, phases.theta2, phases.theta3)):
        raw = alpha * s.amplitudes + beta * np.exp(1j * theta) * p.phi.amplitudes
        members.append(normalize(raw))
    return StateSet(members)


def certify_independence(
    outputs: StateSet, tol: float = linalg.DEFAULT_RANK_TOL
) -> DependenceCertificate:
    """Rank-certify a 3-state set from one SVD of its amplitude matrix; on
    dependence, the last right singular vector gives the vanishing
    combination, whose residual is verified."""
    if len(outputs) != 3:
        raise WrongSetSize(f"expected exactly 3 states, got {len(outputs)}")
    a = outputs.amplitude_matrix()
    _, sigma, vh = np.linalg.svd(a)
    rank = linalg.RankResult.of(sigma, tol)
    null_candidate = vh[-1].conj()  # right singular vector of the smallest sigma
    if rank.rank == 3:
        return DependenceCertificate(
            independent=True,
            coefficients=None,
            residual_norm=float(np.linalg.norm(a @ null_candidate)),
            gram_rank=rank,
        )
    coeffs = _normalize_coefficients(null_candidate)
    return DependenceCertificate(
        independent=False,
        coefficients=coeffs,
        residual_norm=float(np.linalg.norm(a @ coeffs)),
        gram_rank=rank,
    )


def _normalize_coefficients(x: np.ndarray) -> np.ndarray:
    """Scale to max modulus 1 with the first maximal-modulus entry real positive."""
    mags = np.abs(x)
    x = x / mags.max()
    mags = np.abs(x)
    first_max = int(np.nonzero(mags >= mags.max() - 1e-12)[0][0])
    phase = np.conj(x[first_max]) / abs(x[first_max])
    return x * phase


def solve_degeneracy_analytic(a: float, b: float) -> DegeneracyLocus:
    """Exact phase pairs where the output triple stays dependent:
    theta21 = pi/2 with (cos, sin)(theta31) = (a, b), and
    theta21 = 3*pi/2 with (cos, sin)(theta31) = (a, -b)."""
    if a == 0.0 or b == 0.0:
        raise InvalidParams("a and b must both be nonzero")
    if abs(a**2 + b**2 - 1.0) > 1e-12:
        raise InvalidParams(f"a^2 + b^2 must equal 1, got {a**2 + b**2!r}")
    t31_plus = math.atan2(b, a) % TWO_PI
    t31_minus = math.atan2(-b, a) % TWO_PI
    return DegeneracyLocus(
        solutions=[(math.pi / 2.0, t31_plus), (3.0 * math.pi / 2.0, t31_minus)]
    )


def scan_degeneracy_numeric(
    p: CounterexampleParams,
    alpha: complex,
    beta: complex,
    grid_step: float,
) -> ScanResult:
    """Sweep (theta21, theta31) over [0, 2*pi)^2 with theta1 = 0, build the
    output triples with those explicit phases, and flag every grid point where
    the output Gram rank drops below 3 at the (looser) scan tolerance."""
    if not 0.0 < grid_step <= 0.1:
        raise InvalidParams(f"grid_step must lie in (0, 0.1], got {grid_step}")
    if abs(alpha) == 0.0 or abs(beta) == 0.0:
        raise InvalidParams("alpha and beta must both be nonzero")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise InvalidParams("|alpha|^2 + |beta|^2 must equal 1")
    n = int(math.floor((TWO_PI - 1e-12) / grid_step)) + 1
    thetas = grid_step * np.arange(n)

    inputs = build_counterexample(p)
    base = inputs.amplitude_matrix()  # (dim, 3)
    phi = p.phi.amplitudes

    # batched output states: S[k, l] is a (dim, 3) matrix for the phase pair
    # (thetas[k], thetas[l]); column norms are 1 automatically since phi is
    # orthogonal to every input and |alpha|^2 + |beta|^2 = 1
    t21, t31 = np.meshgrid(thetas, thetas, indexing="ij")
    phases = np.stack(
        [np.zeros_like(t21), t21, t31], axis=-1
    )  # (n, n, 3)
    s = alpha * base[None, None, :, :] + beta * (
        np.exp(1j * phases)[:, :, None, :] * phi[None, None, :, None]
    )
    g = np.einsum("klij,klim->kljm", s.conj(), s)
    eigvals = np.linalg.eigvalsh(g)  # ascending, shape (n, n, 3)
    sigma = np.sqrt(np.clip(eigvals, 0.0, None))
    min_sigma = sigma[:, :, 0]
    max_sigma = sigma[:, :, -1]
    ranks = np.sum(sigma > SCAN_RANK_TOL * max_sigma[:, :, None], axis=-1)

    hits = np.argwhere(ranks < 3)
    detected = DegeneracyLocus(
        solutions=[(float(thetas[i]), float(thetas[j])) for i, j in hits]
    )
    return ScanResult(
        theta21_grid=thetas,
        theta31_grid=thetas.copy(),
        min_singular_values=min_sigma,
        ranks=ranks,
        detected=detected,
    )


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
    clone_fidelity_min: float  # 1.0 whenever any clone succeeded
    predicted_usd_probabilities: list[float]
    predicted_conclusive_rate: float

    @property
    def conclusive_rate(self) -> float:
        if self.trials == 0:
            return 0.0
        return float(self.conclusive_counts.sum()) / self.trials


def forbidden_task_demo(
    p: CounterexampleParams,
    cfg: SuperposerConfig,
    trials: int,
    rng: np.random.Generator,
    tol: float = linalg.DEFAULT_RANK_TOL,
) -> DemoReport:
    """Per trial: draw a secret input, run the oracle (honoring its success
    policy), unambiguously discriminate the output, and clone on success.

    Raises DependentOutputs when the outputs are dependent at rank tolerance
    `tol`: on the degeneracy locus the demonstration is genuinely impossible.
    """
    outputs, phases = apply_superposer_to_set(cfg, p)
    return _demo_core(p, outputs, phases, cfg.success_policy, trials, rng, tol)


def forbidden_task_demo_explicit(
    p: CounterexampleParams,
    alpha: complex,
    beta: complex,
    success_policy,
    phases: PhaseTriple,
    trials: int,
    rng: np.random.Generator,
    tol: float = linalg.DEFAULT_RANK_TOL,
) -> DemoReport:
    """Same demonstration but with explicitly pinned phases instead of a policy
    (the route used to show the on-locus refusal)."""
    outputs = apply_with_phases(alpha, beta, p, phases)
    return _demo_core(p, outputs, phases, success_policy, trials, rng, tol)


def _demo_core(
    p: CounterexampleParams,
    outputs: StateSet,
    phases: PhaseTriple,
    success_policy,
    trials: int,
    rng: np.random.Generator,
    tol: float,
) -> DemoReport:
    if trials < 0:
        raise InvalidParams("trials must be >= 0")
    inputs = build_counterexample(p)
    cert = certify_independence(outputs, tol)
    if not cert.independent:
        raise DependentOutputs(
            "phase policy produced linearly dependent outputs; USD and cloning "
            "stay impossible for this configuration"
        )
    m = build_usd(outputs)
    usd_probs = success_probabilities(m, outputs)
    oracle_probs = np.array(
        [success_policy.probability(s, p.phi) for s in inputs.members]
    )
    dists = np.stack([born_distribution(m, out) for out in outputs.members])
    edges = np.cumsum(dists, axis=1)

    predicted_rate = float(np.mean(oracle_probs * np.array(usd_probs)))

    secret_counts = np.zeros(3, dtype=np.int64)
    conclusive_counts = np.zeros(3, dtype=np.int64)
    misid = 0
    sup_failures = 0
    clone_successes = 0
    clone_fid_min = 1.0

    if trials > 0:
        secrets = rng.integers(0, 3, size=trials)
        secret_counts = np.bincount(secrets, minlength=3)
        sup_ok = rng.random(trials) < oracle_probs[secrets]
        sup_failures = int(trials - sup_ok.sum())

        live = secrets[sup_ok]
        draws = rng.random(live.size)
        labels = (draws[:, None] >= edges[live, :-1]).sum(axis=1)
        conclusive = labels < 3
        misid = int(np.sum(conclusive & (labels != live)))
        conclusive_counts = np.bincount(live[conclusive], minlength=3)

        # clone each conclusively identified output: one more USD trial on the
        # true output state, exact copies on any conclusive outcome
        identified = live[conclusive]
        clone_conclusive_prob = 1.0 - dists[identified, -1]
        clone_hits = rng.random(identified.size) < clone_conclusive_prob
        clone_successes = int(clone_hits.sum())
        # identify-then-prepare emits the identified hypothesis itself
        clone_fid_min = 1.0

    return DemoReport(
        trials=trials,
        phases=phases,
        certificate=cert,
        secret_counts=secret_counts,
        superposer_failures=sup_failures,
        conclusive_counts=conclusive_counts,
        misidentifications=misid,
        clone_successes=clone_successes,
        clone_fidelity_min=clone_fid_min,
        predicted_usd_probabilities=usd_probs,
        predicted_conclusive_rate=predicted_rate,
    )

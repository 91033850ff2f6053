"""Superposition no-go toolkit: dependent states in, independent states out,
forbidden tasks unlocked."""

from .discrimination import (
    USDMeasurement,
    build_usd,
    simulate_usd,
    success_probabilities,
)
from .linalg import (
    RankResult,
    gram,
    numerical_rank,
    reciprocal_basis,
)
from .pipeline import (
    CounterexampleParams,
    DegeneracyLocus,
    DemoReport,
    DependenceCertificate,
    PhaseTriple,
    ScanResult,
    apply_superposer_to_set,
    build_counterexample,
    certify_independence,
    forbidden_task_demo,
    scan_degeneracy_numeric,
    solve_degeneracy_analytic,
    standard_params,
)
from .states import (
    CanonicalForm,
    PureState,
    StateSet,
    basis_state,
    canonicalize,
    is_linearly_independent,
    normalize,
)
from .superposer import (
    AlwaysSucceed,
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    SuperposerConfig,
    given_frame_phase,
    superpose_deterministic,
    superpose_many,
    unit_pair,
)

__version__ = "0.1.0"

"""Superposition no-go toolkit: dependent states in, independent states out,
forbidden tasks unlocked."""

from .discrimination import USDMeasurement, build_usd
from .linalg import Factorization, factorize
from .pipeline import (
    LOCUS_FAMILY,
    CounterexampleParams,
    DemoReport,
    DependenceCertificate,
    PhaseTriple,
    ScanResult,
    apply_superposer_to_set,
    certify_independence,
    forbidden_task_demo,
    scan_degeneracy_numeric,
    solve_degeneracy_analytic,
    standard_params,
)
from .states import (
    StateSet,
    canonicalize,
    normalize,
)
from .superposer import (
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    SuperposerConfig,
    given_frame_phase,
    superpose_many,
    unit_pair,
)

__version__ = "0.1.0"

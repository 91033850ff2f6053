"""Command-line front end.

Subcommands:
    verify  counterexample -> superposer -> independence certificate
    scan    numeric degeneracy-locus sweep (CSV grid + JSON summary)
    demo    end-to-end forbidden-task demonstration (USD + cloning)
    usd     build and simulate USD for states given in a JSON file

Each subcommand maps the parsed arguments and the seed to its result;
`main` resolves the seed, writes the report through `text` and picks the
exit code. All reports are JSON with top-level keys {schema, config,
result}; complex numbers appear as [re, im] pairs. Exit codes: 0 success,
2 configuration error, 3 numerical or I/O error, 4 on-locus demo refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import linalg, pipeline
from .discrimination import born_distribution, build_usd, check_trials, povm_elements
from .errors import (DependentOutputs, DimensionMismatch, EmptySet, InvalidParams, NogoError,
                     NonFiniteEntry, NullVector)
from .states import StateSet, normalize
from .superposer import (
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    SuperposerConfig,
)
from .text import json_text, write_scan_csv

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ON_LOCUS = 4
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# ---------------------------------------------------------------------------
# serialization helpers

def _emit_report(config: dict, result: dict, args) -> None:
    report = {"schema": SCHEMA_VERSION, "config": config, "result": result}
    if not args.deterministic:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json_text(report) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and config resolution

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (flag beats NOGO_SEED; default 42)")
    p.add_argument("--output", "-o", default=None, help="write the JSON report here")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps so identical runs are byte-identical")


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    """The counterexample triple and the oracle weights: verify, scan, demo."""
    p.add_argument("--dim", type=int, default=3, help=f"state dimension, 3 to {pipeline.MAX_DIM}")
    p.add_argument("--a", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--b", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--alpha-mod", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--alpha-arg", type=float, default=0.0)
    p.add_argument("--beta-mod", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--beta-arg", type=float, default=0.0)


PHASE_POLICIES = {
    "constant": lambda args: ConstantPhase(args.theta0),
    "overlap_arg": lambda args: OverlapArgPhase(),
    "canonical_hash": lambda args: CanonicalHashPhase(),
}
SUCCESS_POLICIES = {
    "always": lambda args: ConstantSuccess(1.0),
    "constant": lambda args: ConstantSuccess(args.success_p),
    "overlap_scaled": lambda args: OverlapScaledSuccess(),
}


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    """Phase policy, explicit phases and the rank tolerance: verify and demo.
    The scan sets its own phases and rank tolerance."""
    p.add_argument("--phase-policy", choices=list(PHASE_POLICIES), default="constant")
    p.add_argument("--theta0", type=float, default=0.0,
                   help="phase for the constant policy")
    p.add_argument("--theta1", type=float, default=None,
                   help="explicit per-state phase (overrides the policy)")
    p.add_argument("--theta2", type=float, default=None)
    p.add_argument("--theta3", type=float, default=None)
    p.add_argument("--tol", type=float, default=linalg.DEFAULT_RANK_TOL,
                   help="rank tolerance for the independence certificate")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nogo` parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="nogo",
        description="Superposition no-go pipeline: verify, scan, demo, usd.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify (in)dependence of the superposer outputs")
    _add_state_flags(p_verify)
    _add_oracle_flags(p_verify)
    _add_common(p_verify)

    p_scan = sub.add_parser("scan", help="grid sweep of the degeneracy locus")
    _add_state_flags(p_scan)
    p_scan.add_argument("--grid-step", type=float, default=math.pi / 180.0)
    p_scan.add_argument("--csv", default="scan_grid.csv", help="CSV grid output path")
    _add_common(p_scan)

    p_demo = sub.add_parser("demo", help="forbidden-task demonstration (USD + cloning)")
    _add_state_flags(p_demo)
    _add_oracle_flags(p_demo)
    p_demo.add_argument("--success-policy", choices=list(SUCCESS_POLICIES), default="always")
    p_demo.add_argument("--success-p", type=float, default=0.5,
                        help="probability for the constant success policy")
    p_demo.add_argument("--trials", type=int, default=100_000)
    _add_common(p_demo)

    p_usd = sub.add_parser("usd", help="build and simulate USD for states from a JSON file")
    p_usd.add_argument("states_file", help="JSON list of states, each a list of [re, im] pairs")
    p_usd.add_argument("--truth-index", type=int, default=0)
    p_usd.add_argument("--trials", type=int, default=10_000)
    _add_common(p_usd)
    for p in (parser, *sub.choices.values()):  # "-1e-3" is a value; no option looks like it
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _resolve_seed(args) -> int:
    env = os.environ.get("NOGO_SEED", str(DEFAULT_SEED))
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError as exc:
        raise InvalidParams(f"NOGO_SEED is not an integer: {env!r}") from exc
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    return seed


def _check_finite(args) -> None:
    """Refuse NaN and infinite float options; numpy and math take them as given."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidParams(f"--{name.replace('_', '-')} must be finite, got {value}")


def _resolve_weights(args) -> tuple[complex, complex]:
    alpha = args.alpha_mod * complex(math.cos(args.alpha_arg), math.sin(args.alpha_arg))
    beta = args.beta_mod * complex(math.cos(args.beta_arg), math.sin(args.beta_arg))
    return alpha, beta


def _resolve_config(args, success: ConstantSuccess | OverlapScaledSuccess) -> SuperposerConfig:
    return SuperposerConfig(*_resolve_weights(args), PHASE_POLICIES[args.phase_policy](args),
                            success)


def _params(args) -> pipeline.CounterexampleParams:  # verify, scan and demo
    return pipeline.standard_params(args.a, args.b, dim=args.dim)


def _read_states(path) -> StateSet:
    """The states of a JSON file; InvalidParams on one that gives no StateSet."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    # ValueError: bad JSON, bad UTF-8, an int over 4300 digits; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidParams(f"cannot read states file: {exc}") from exc
    try:
        vectors = [[complex(re, im) for re, im in state] for state in raw]
    except (TypeError, ValueError, OverflowError) as exc:  # an int beyond float range
        raise InvalidParams("states file must be a JSON list of states, "
                            "each a list of [re, im] pairs") from exc
    if any(type(x) is bool for state in raw for pair in state for x in pair):
        raise InvalidParams("states file: amplitudes must be numbers, not true or false")
    try:
        return normalize(vectors)
    except (EmptySet, DimensionMismatch, NonFiniteEntry, NullVector) as exc:
        raise InvalidParams(f"states file: {exc}") from exc


def _explicit_phases(args) -> pipeline.PhaseTriple | None:
    given = [args.theta1, args.theta2, args.theta3]
    return None if given == [None] * 3 else pipeline.PhaseTriple(*(t or 0.0 for t in given))


def _config_dict(args, seed: int) -> dict:
    """Every parsed option but the output ones, with the resolved seed."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("output", "deterministic")}
    cfg["seed"] = seed
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args, seed: int) -> dict:
    params = _params(args)
    outputs, phases = pipeline.apply_superposer_to_set(
        _resolve_config(args, ConstantSuccess(1.0)), params, _explicit_phases(args))
    inputs = linalg.factorize(params.inputs, args.tol)
    cert = pipeline.certify_independence(linalg.factorize(outputs, args.tol))
    return {
        "input_rank": inputs.rank,
        "input_singular_values": inputs.singular_values,
        "output_rank": cert.gram_rank,
        "phases": vars(phases),
        "certificate": vars(cert),
        "output_states": list(outputs.rows),
    }


def _locus_deviations(detected, analytic) -> tuple[float | None, float | None]:
    """Largest distance from a detected (theta21, theta31) row to its nearest
    analytic pair and back, angles mod 2 pi: the max row and column minima of
    one k x m distance matrix. None for both when either is empty: there is
    no distance to report, and strict JSON has no Infinity."""
    if not (len(detected) and len(analytic)):
        return None, None
    d = np.abs(detected[:, None] - analytic) % math.tau
    d = np.minimum(d, math.tau - d).max(axis=2)
    return float(d.min(axis=1).max()), float(d.min(axis=0).max())


def cmd_scan(args, seed: int) -> dict:
    if args.output and os.path.realpath(args.output) == os.path.realpath(args.csv):
        raise InvalidParams(f"--csv and --output name one file: {args.csv}")
    params = _params(args)
    scan = pipeline.scan_degeneracy_numeric(params, *_resolve_weights(args), args.grid_step)
    analytic = pipeline.solve_degeneracy_analytic(*params.x[:2])
    write_scan_csv(scan, args.csv)
    to_analytic, to_detected = _locus_deviations(scan.detected, analytic)
    return {
        "grid_step": args.grid_step,
        "grid_points": scan.ranks.size,
        "detected_pairs": scan.detected,
        "analytic_pairs": analytic,
        "analytic_family": pipeline.LOCUS_FAMILY,
        "max_deviation_detected_to_analytic": to_analytic,
        "max_deviation_analytic_to_detected": to_detected,
        "csv_path": args.csv,
    }


def cmd_demo(args, seed: int) -> dict:
    params = _params(args)
    config = _resolve_config(args, SUCCESS_POLICIES[args.success_policy](args))
    report = pipeline.forbidden_task_demo(
        params, config, args.trials, np.random.default_rng(seed), args.tol,
        _explicit_phases(args))
    return {**vars(report), "phases": vars(report.phases),
            "certificate": vars(report.certificate)}


def cmd_usd(args, seed: int) -> dict:
    check_trials(args.trials, 1)
    states = _read_states(args.states_file)
    if max(states.dim, len(states)) > pipeline.MAX_DIM:
        raise InvalidParams(f"states file: n = {len(states)}, dim = {states.dim}; "
                            f"both must be at most {pipeline.MAX_DIM}")
    if not 0 <= args.truth_index < len(states):
        raise InvalidParams(f"--truth-index out of range 0..{len(states) - 1}")

    m = build_usd(linalg.factorize(states))
    table = born_distribution(m, states)
    counts = np.random.default_rng(seed).multinomial(
        args.trials, table[args.truth_index]).tolist()
    elements, inconclusive = povm_elements(m)
    return {
        "n_states": len(states),
        "dim": states.dim,
        "success_probabilities": np.diag(table),
        "truth_index": args.truth_index,
        "trials": args.trials,
        "per_label_counts": counts[:-1],
        "inconclusive_count": counts[-1],
        "misidentifications": sum(counts[:-1]) - counts[args.truth_index],
        "elements": elements,
        "inconclusive_element": inconclusive,
    }


COMMANDS = {"verify": cmd_verify, "scan": cmd_scan, "demo": cmd_demo, "usd": cmd_usd}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(args)
        _check_finite(args)
        result = COMMANDS[args.command](args, seed)
        _emit_report(_config_dict(args, seed), result, args)
        return EXIT_OK
    except InvalidParams as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependentOutputs as exc:
        print(f"on degeneracy locus: {exc}", file=sys.stderr)
        return EXIT_ON_LOCUS
    except (NogoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

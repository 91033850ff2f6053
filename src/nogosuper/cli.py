"""Command-line front end.

Subcommands:
    verify  counterexample -> superposer -> independence certificate
    scan    numeric degeneracy-locus sweep (CSV grid + JSON summary)
    demo    end-to-end forbidden-task demonstration (USD + cloning)
    usd     build and simulate USD for states given in a JSON file

All reports are JSON with top-level keys {schema, config, result}; complex
numbers appear as [re, im] pairs. Exit codes: 0 success, 2 configuration
error, 3 numerical or I/O error, 4 on-locus demo refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import linalg, pipeline
from .discrimination import build_usd, povm_elements, simulate_usd, success_probabilities
from .errors import DependentOutputs, InvalidParams, NogoError
from .states import StateSet
from .superposer import (
    AlwaysSucceed,
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    OverlapScaledSuccess,
    SuperposerConfig,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ON_LOCUS = 4


# ---------------------------------------------------------------------------
# serialization helpers

def _complex_json(a: np.ndarray) -> list[list[float]]:
    """Entries in C order as [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()


def _phases_json(t: pipeline.PhaseTriple) -> dict:
    return {
        "theta1": t.theta1,
        "theta2": t.theta2,
        "theta3": t.theta3,
        "theta21": t.theta21,
        "theta31": t.theta31,
    }


def _certificate_json(c: pipeline.DependenceCertificate) -> dict:
    return {
        "independent": c.independent,
        "coefficients": None if c.coefficients is None else _complex_json(c.coefficients),
        "residual_norm": c.residual_norm,
        "gram_rank": c.gram_rank.rank,
        "singular_values": [float(s) for s in c.gram_rank.singular_values],
    }


def _emit_report(config: dict, result: dict, args) -> None:
    report = {"schema": SCHEMA_VERSION, "config": config, "result": result}
    if not args.deterministic:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--a", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--b", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--alpha-mod", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--alpha-arg", type=float, default=0.0)
    p.add_argument("--beta-mod", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--beta-arg", type=float, default=0.0)


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    """Phase and success policies and the rank tolerance: verify and demo.
    The scan sets its own phases and rank tolerance."""
    p.add_argument("--phase-policy", choices=["constant", "overlap_arg", "canonical_hash"],
                   default="constant")
    p.add_argument("--theta0", type=float, default=0.0,
                   help="phase for the constant policy")
    p.add_argument("--theta1", type=float, default=None,
                   help="explicit per-state phase (overrides the policy)")
    p.add_argument("--theta2", type=float, default=None)
    p.add_argument("--theta3", type=float, default=None)
    p.add_argument("--success-policy", choices=["always", "constant", "overlap_scaled"],
                   default="always")
    p.add_argument("--success-p", type=float, default=0.5,
                   help="probability for the constant success policy")
    p.add_argument("--tol", type=float, default=linalg.DEFAULT_RANK_TOL,
                   help="rank tolerance for the independence certificate")


def build_parser() -> argparse.ArgumentParser:
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
    p_demo.add_argument("--trials", type=int, default=100_000)
    _add_common(p_demo)

    p_usd = sub.add_parser("usd", help="build and simulate USD for states from a JSON file")
    p_usd.add_argument("states_file", help="JSON list of states, each a list of [re, im] pairs")
    p_usd.add_argument("--truth-index", type=int, default=0)
    p_usd.add_argument("--trials", type=int, default=10_000)
    _add_common(p_usd)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NOGO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidParams(f"NOGO_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def _resolve_params(args) -> pipeline.CounterexampleParams:
    return pipeline.standard_params(args.a, args.b, dim=args.dim)


def _resolve_weights(args) -> tuple[complex, complex]:
    alpha = args.alpha_mod * complex(math.cos(args.alpha_arg), math.sin(args.alpha_arg))
    beta = args.beta_mod * complex(math.cos(args.beta_arg), math.sin(args.beta_arg))
    return alpha, beta


def _resolve_config(args) -> SuperposerConfig:
    return SuperposerConfig(*_resolve_weights(args), _resolve_phase_policy(args),
                            _resolve_success_policy(args))


def _resolve_phase_policy(args):
    if args.phase_policy == "constant":
        return ConstantPhase(args.theta0)
    if args.phase_policy == "overlap_arg":
        return OverlapArgPhase()
    return CanonicalHashPhase()


def _resolve_success_policy(args):
    if args.success_policy == "always":
        return AlwaysSucceed()
    if args.success_policy == "constant":
        return ConstantSuccess(args.success_p)
    return OverlapScaledSuccess()


def _explicit_phases(args) -> pipeline.PhaseTriple | None:
    given = [args.theta1, args.theta2, args.theta3]
    if all(t is None for t in given):
        return None
    return pipeline.PhaseTriple(*(0.0 if t is None else t for t in given))


def _config_dict(args, seed: int) -> dict:
    """Every parsed option but the output ones, with the resolved seed."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("output", "deterministic")}
    cfg["seed"] = seed
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    params = _resolve_params(args)
    outputs, phases = pipeline.apply_superposer_to_set(
        _resolve_config(args), params, _explicit_phases(args))

    inputs = pipeline.build_counterexample(params)
    input_rank = linalg.numerical_rank(inputs.amplitude_matrix(), args.tol)
    cert = pipeline.certify_independence(outputs, args.tol)
    result = {
        "input_rank": input_rank.rank,
        "input_singular_values": [float(s) for s in input_rank.singular_values],
        "output_rank": cert.gram_rank.rank,
        "phases": _phases_json(phases),
        "certificate": _certificate_json(cert),
        "output_states": [_complex_json(s.amplitudes) for s in outputs.members],
    }
    _emit_report(_config_dict(args, seed), result, args)
    return EXIT_OK


def _angular_gap(x: float, y: float) -> float:
    d = abs(x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _pair_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    return max(_angular_gap(p[0], q[0]), _angular_gap(p[1], q[1]))


def cmd_scan(args) -> int:
    seed = _resolve_seed(args)
    params = _resolve_params(args)
    alpha, beta = _resolve_weights(args)
    scan = pipeline.scan_degeneracy_numeric(params, alpha, beta, args.grid_step)
    analytic = pipeline.solve_degeneracy_analytic(params.a, params.b)
    scan.write_csv(args.csv)

    detected = scan.detected.solutions
    # both deviations are null when the grid detects nothing: there is no
    # distance to report, and strict JSON has no Infinity
    dev_detected = max(
        min(_pair_distance(d, s) for s in analytic.solutions) for d in detected
    ) if detected else None
    dev_analytic = max(
        min(_pair_distance(s, d) for d in detected) for s in analytic.solutions
    ) if detected else None
    result = {
        "grid_step": args.grid_step,
        "grid_points": int(scan.ranks.size),
        "detected_pairs": [[t21, t31] for t21, t31 in detected],
        "analytic_pairs": [[t21, t31] for t21, t31 in analytic.solutions],
        "analytic_family": analytic.family,
        "max_deviation_detected_to_analytic": dev_detected,
        "max_deviation_analytic_to_detected": dev_analytic,
        "csv_path": args.csv,
    }
    _emit_report(_config_dict(args, seed), result, args)
    return EXIT_OK


def cmd_demo(args) -> int:
    seed = _resolve_seed(args)
    params = _resolve_params(args)
    report = pipeline.forbidden_task_demo(
        params, _resolve_config(args), args.trials, np.random.default_rng(seed),
        args.tol, _explicit_phases(args))

    result = {
        "trials": report.trials,
        "phases": _phases_json(report.phases),
        "certificate": _certificate_json(report.certificate),
        "secret_counts": [int(c) for c in report.secret_counts],
        "superposer_failures": report.superposer_failures,
        "conclusive_counts": [int(c) for c in report.conclusive_counts],
        "misidentifications": report.misidentifications,
        "clone_successes": report.clone_successes,
        "clone_fidelity_min": report.clone_fidelity_min,
        "predicted_usd_probabilities": report.predicted_usd_probabilities,
        "predicted_conclusive_rate": report.predicted_conclusive_rate,
        "empirical_conclusive_rate": report.conclusive_rate,
    }
    _emit_report(_config_dict(args, seed), result, args)
    return EXIT_OK


def cmd_usd(args) -> int:
    seed = _resolve_seed(args)
    try:
        with open(args.states_file) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParams(f"cannot read states file: {exc}") from exc
    try:
        vectors = [[complex(re, im) for re, im in state] for state in raw]
    except (TypeError, ValueError) as exc:
        raise InvalidParams(
            "states file must be a JSON list of states, each a list of [re, im] pairs"
        ) from exc
    states = StateSet.from_vectors(vectors)
    if not 0 <= args.truth_index < len(states):
        raise InvalidParams(f"--truth-index out of range 0..{len(states) - 1}")

    m = build_usd(states)
    probs = success_probabilities(m, states)
    rng = np.random.default_rng(seed)
    counts = simulate_usd(m, states.members[args.truth_index], args.trials, rng).tolist()
    elements, inconclusive = povm_elements(m)
    result = {
        "n_states": len(states),
        "dim": states.dim,
        "success_probabilities": probs,
        "truth_index": args.truth_index,
        "trials": args.trials,
        "per_label_counts": counts[:-1],
        "inconclusive_count": counts[-1],
        "misidentifications": int(sum(
            c for i, c in enumerate(counts[:-1]) if i != args.truth_index)),
        "elements": [_complex_json(e) for e in elements],
        "inconclusive_element": _complex_json(inconclusive),
    }
    _emit_report(_config_dict(args, seed), result, args)
    return EXIT_OK


COMMANDS = {"verify": cmd_verify, "scan": cmd_scan, "demo": cmd_demo, "usd": cmd_usd}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
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

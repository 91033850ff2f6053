"""Seeded operation plans for the three benchmark workloads.

Every operation is one ``nogo`` command line, run in-process through
``nogosuper.cli.main``. A plan is a list of whole *rounds*; every round of a
workload holds the same mix of operation classes (dimension, grid step,
trial count, policy), and the seed draws the continuous parameters and the
order inside each round. So runs with different seeds time the same class
mix, and the parent and a change time identical operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "scan", "demo")

# Seconds one round takes on the reference machine (2-core Xeon, Python 3.11,
# numpy 2.4 with OpenBLAS). A run executes round(seconds / ROUND_S) whole
# rounds, a fixed amount of work, so a faster commit is timed on the same ops.
ROUND_S = {"certify": 0.2, "scan": 14.7, "demo": 17.0}

PHASE_POLICIES = ("constant", "overlap_arg", "canonical_hash")
SUCCESS_POLICIES = ("always", "constant", "overlap_scaled")
VERIFY_DIMS = (3, 4, 8, 16)
USD_TRIALS = 1000
# scan classes per round: (grid step in degrees, dim, count); most ops are 1
# degree, dim 3, so the median and the tail both sit inside that one class.
# The one 0.5 degree op alternates between dims 3 and 8 from round to round.
SCAN_CLASSES = ((1.0, 3, 7), (1.0, 8, 2), (0.5, None, 1))
SCAN_AB_PAIRS = 3
DEMO_TRIALS = (10**5, 10**6, 10**7)
DEMO_DIMS = (3, 4)


@dataclass
class Op:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str  # verify | usd | scan | demo
    argv: list[str]
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    inputs: dict[str, str]  # path -> file contents, written before timing
    warmup: list[Op]
    report: str  # JSON report path every op writes
    csv: str  # scan CSV path


def _f(x: float) -> str:
    return repr(float(x))


def _unit_pair(rng: np.random.Generator, quadrants: int = 4) -> tuple[float, float]:
    """(cos t, sin t) with t at least 0.2 rad away from every axis."""
    t = rng.uniform(0.2, math.pi / 2 - 0.2) + int(rng.integers(quadrants)) * math.pi / 2
    return math.cos(t), math.sin(t)


def _pipeline_params(rng: np.random.Generator, dim: int, ab=None) -> dict:
    a, b = ab if ab is not None else _unit_pair(rng)
    alpha_mod, beta_mod = _unit_pair(rng, quadrants=1)
    return {
        "dim": dim,
        "a": a,
        "b": b,
        "alpha_mod": alpha_mod,
        "alpha_arg": rng.uniform(0.0, 2 * math.pi),
        "beta_mod": beta_mod,
        "beta_arg": rng.uniform(0.0, 2 * math.pi),
    }


def _pipeline_argv(p: dict) -> list[str]:
    return [
        "--dim", str(p["dim"]), "--a", _f(p["a"]), "--b", _f(p["b"]),
        "--alpha-mod", _f(p["alpha_mod"]), "--alpha-arg", _f(p["alpha_arg"]),
        "--beta-mod", _f(p["beta_mod"]), "--beta-arg", _f(p["beta_arg"]),
    ]


def _phase_argv(rng: np.random.Generator, policy: str) -> list[str]:
    argv = ["--phase-policy", policy]
    if policy == "constant":
        argv += ["--theta0", _f(rng.uniform(0.0, 2 * math.pi))]
    return argv


def _tail(rng: np.random.Generator, report: str) -> list[str]:
    return ["--seed", str(int(rng.integers(2**31))), "-o", report, "--deterministic"]


def _verify(rng, report, dim, policy, on_locus=False) -> Op:
    p = _pipeline_params(rng, dim)
    argv = ["verify", *_pipeline_argv(p), *_phase_argv(rng, policy)]
    if on_locus:
        # theta1 = 0; pin (theta21, theta31) on one of the two analytic branches
        sign = 1.0 if rng.integers(2) == 0 else -1.0
        theta2 = math.pi / 2 if sign > 0 else 3 * math.pi / 2
        theta3 = math.atan2(sign * p["b"], p["a"]) % (2 * math.pi)
        argv += ["--theta2", _f(theta2), "--theta3", _f(theta3)]
    p["on_locus"] = on_locus
    return Op("verify", argv + _tail(rng, report), p)


def _usd_states(rng: np.random.Generator, n: int, d: int) -> list[list[list[float]]]:
    """n generic complex states in C^d, each with a random global phase."""
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=(n, 1)))
    return [[[float(z.real), float(z.imag)] for z in row] for row in v]


def _usd(rng, report, path, n, d, inputs) -> Op:
    inputs[path] = json.dumps(_usd_states(rng, n, d))
    truth = int(rng.integers(n))
    argv = ["usd", path, "--truth-index", str(truth), "--trials", str(USD_TRIALS)]
    return Op("usd", argv + _tail(rng, report), {"states_file": path, "truth_index": truth})


def _certify_round(rng, report, inputs, states_dir, r) -> list[Op]:
    ops = [_verify(rng, report, d, pol) for d in VERIFY_DIMS for pol in PHASE_POLICIES]
    ops.append(_verify(rng, report, int(rng.choice(VERIFY_DIMS)), "constant", on_locus=True))
    for n in range(2, 9):
        d = int(rng.integers(n, 17))
        ops.append(_usd(rng, report, f"{states_dir}/r{r}-n{n}.json", n, d, inputs))
    return ops


def _scan(rng, report, csv, step_deg, dim, ab) -> Op:
    p = _pipeline_params(rng, dim, ab)
    p["grid_step"] = math.radians(step_deg)
    argv = ["scan", *_pipeline_argv(p), "--grid-step", _f(p["grid_step"]), "--csv", csv]
    return Op("scan", argv + _tail(rng, report), p)


def _scan_round(rng, report, csv, ab_pairs, r) -> list[Op]:
    ops = []
    for step, dim, count in SCAN_CLASSES:
        for _ in range(count):
            ab = ab_pairs[int(rng.integers(len(ab_pairs)))]
            ops.append(_scan(rng, report, csv, step, dim or (3, 8)[r % 2], ab))
    return ops


def _demo(rng, report, dim, phase, success, trials) -> Op:
    p = _pipeline_params(rng, dim)
    argv = ["demo", *_pipeline_argv(p), *_phase_argv(rng, phase), "--success-policy", success]
    if success == "constant":
        argv += ["--success-p", _f(rng.uniform(0.3, 0.9))]
    argv += ["--trials", str(trials)]
    return Op("demo", argv + _tail(rng, report), p)


def _demo_round(rng, report) -> list[Op]:
    return [
        _demo(rng, report, dim, phase, success, trials)
        for trials in DEMO_TRIALS
        for dim in DEMO_DIMS
        for phase in PHASE_POLICIES
        for success in SUCCESS_POLICIES
    ]


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def build(workload: str, seed: int, rounds: int, workdir: str | Path) -> Plan:
    """The seeded plan of `rounds` whole rounds; outputs go under `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir = str(workdir)
    report, csv = f"{workdir}/report.json", f"{workdir}/grid.csv"
    inputs: dict[str, str] = {}
    ops: list[Op] = []
    if workload == "certify":
        for r in range(rounds):
            ops += _shuffled(rng, _certify_round(rng, report, inputs, f"{workdir}/states", r))
        warm_path = f"{workdir}/states/warmup.json"
        warm_rng = np.random.default_rng(0)
        warmup = [_verify(warm_rng, report, 3, "constant"),
                  _usd(warm_rng, report, warm_path, 2, 2, inputs)]
    elif workload == "scan":
        ab_pairs = [_unit_pair(rng) for _ in range(SCAN_AB_PAIRS)]
        for r in range(rounds):
            ops += _shuffled(rng, _scan_round(rng, report, csv, ab_pairs, r))
        warmup = [_scan(np.random.default_rng(0), report, csv, 5.0, 3, (0.6, 0.8))]
    else:
        for _ in range(rounds):
            ops += _shuffled(rng, _demo_round(rng, report))
        warmup = [_demo(np.random.default_rng(0), report, 3, "constant", "always", 1000)]
    return Plan(ops, inputs, warmup, report, csv)

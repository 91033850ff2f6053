"""Correctness checks for benchmark operations.

Each check reads only the JSON report and the scan CSV, the CLI's contract,
and compares them with an independent numpy oracle. The checks test
invariants of the physics (rank, unambiguity, completeness, sampling
statistics), never bytes, so they hold for any correct implementation.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_HEADER = b"theta21,theta31,min_singular_value,rank"
POVM_TOL = 1e-8
RESIDUAL_TOL = 1e-8
SIGMA_TOL = 2e-7  # sqrt of eigenvalue round-off near sigma = 0
SCAN_SAMPLES = 64
SIGMAS = 5.0


def _matrix(pairs: list, d: int) -> np.ndarray:
    z = np.asarray(pairs, dtype=float)
    return (z[:, 0] + 1j * z[:, 1]).reshape(d, d)


def _vectors(states: list) -> np.ndarray:
    """dim x n matrix with one [re, im]-pair state per column."""
    z = np.asarray(states, dtype=float)
    return (z[..., 0] + 1j * z[..., 1]).T


def _svd_rank(a: np.ndarray, tol: float) -> int:
    sigma = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sigma > tol * sigma[0]))


def _binomial_ok(count: int, trials: int, p: float) -> bool:
    """count within 5 sigma of trials * p; the +3 keeps tiny expectations,
    where the normal approximation fails, from flagging a single event."""
    return abs(count - trials * p) <= SIGMAS * math.sqrt(trials * p * (1 - p)) + 3


def output_triple(p: dict, theta21: float, theta31: float) -> np.ndarray:
    """The paper's output triple (dim x 3) for explicit phases, theta1 = 0."""
    d = p["dim"]
    a, b = p["a"], p["b"]
    scale = math.hypot(a, b)
    alpha = p["alpha_mod"] * np.exp(1j * p["alpha_arg"])
    beta = p["beta_mod"] * np.exp(1j * p["beta_arg"])
    inputs = np.zeros((d, 3), dtype=complex)
    inputs[0, 0] = 1.0
    inputs[1, 1] = 1.0
    inputs[0, 2], inputs[1, 2] = a / scale, b / scale
    phi = np.zeros(d, dtype=complex)
    phi[2] = 1.0
    phases = np.exp(1j * np.array([0.0, theta21, theta31]))
    out = alpha * inputs + beta * phi[:, None] * phases[None, :]
    return out / np.linalg.norm(out, axis=0)


def check_verify(result: dict, p: dict, tol: float) -> list[str]:
    problems = []
    if result["input_rank"] != 2:
        problems.append(f"input_rank {result['input_rank']} != 2")
    a = _vectors(result["output_states"])
    expected = 2 if p["on_locus"] else 3
    oracle = _svd_rank(a, tol)
    if oracle != expected:
        problems.append(f"svd rank of output_states is {oracle}, expected {expected}")
    if result["output_rank"] != oracle:
        problems.append(f"output_rank {result['output_rank']} != svd rank {oracle}")
    cert = result["certificate"]
    if p["on_locus"]:
        if cert["independent"] or cert["coefficients"] is None:
            problems.append("on-locus certificate does not report dependence")
        else:
            c = np.asarray(cert["coefficients"], dtype=float)
            residual = float(np.linalg.norm(a @ (c[:, 0] + 1j * c[:, 1])))
            if residual > RESIDUAL_TOL or cert["residual_norm"] > RESIDUAL_TOL:
                problems.append(f"dependence residual {residual:.3e} "
                                f"(reported {cert['residual_norm']:.3e})")
    elif not cert["independent"]:
        problems.append("off-locus certificate reports dependence")
    return problems


def check_usd(result: dict, p: dict) -> list[str]:
    problems = []
    with open(p["states_file"]) as fh:
        psi = _vectors(json.load(fh))
    psi /= np.linalg.norm(psi, axis=0)
    d, n = psi.shape
    truth = p["truth_index"]
    elements = [_matrix(e, d) for e in result["elements"]]
    e0 = _matrix(result["inconclusive_element"], d)
    if len(elements) != n:
        return [f"{len(elements)} conclusive elements for {n} states"]
    # T[j, i] = Tr(E_j rho_i) = <psi_i|E_j|psi_i>
    t = np.real(np.einsum("ki,jkl,li->ji", psi.conj(), np.asarray(elements), psi))
    crosstalk = np.max(np.abs(t - np.diag(np.diag(t))))
    if crosstalk > POVM_TOL:
        problems.append(f"max Tr(E_j rho_i), i != j, is {crosstalk:.3e}")
    probs = np.asarray(result["success_probabilities"], dtype=float)
    if np.max(np.abs(probs - np.diag(t))) > POVM_TOL or np.min(probs) <= 0.0:
        problems.append(f"success_probabilities {probs} != Tr(E_j rho_j) {np.diag(t)}")
    q, _ = np.linalg.qr(psi)
    completeness = np.max(np.abs(e0 + sum(elements) - q @ q.conj().T))
    if completeness > POVM_TOL:
        problems.append(f"E_0 + sum E_j differs from the span projector by {completeness:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (e0 + e0.conj().T))[0])
    if min_eig < -POVM_TOL:
        problems.append(f"E_0 has eigenvalue {min_eig:.3e}")
    counts = result["per_label_counts"]
    trials = result["trials"]
    if result["misidentifications"] != 0 or any(c for i, c in enumerate(counts) if i != truth):
        problems.append(f"misidentifications {result['misidentifications']}, counts {counts}")
    if sum(counts) + result["inconclusive_count"] != trials:
        problems.append("label counts do not sum to trials")
    if not _binomial_ok(counts[truth], trials, probs[truth]):
        problems.append(f"{counts[truth]} conclusive of {trials} at p = {probs[truth]:.4f}")
    return problems


def _angular_gap(x: float, y: float) -> float:
    g = abs(x - y) % (2 * math.pi)
    return min(g, 2 * math.pi - g)


def _sigma_min(p: dict, theta21: float, theta31: float) -> float:
    return float(np.linalg.svd(output_triple(p, theta21, theta31), compute_uv=False)[-1])


def check_scan(result: dict, p: dict, csv_path: str, seed: int) -> list[str]:
    problems = []
    with open(csv_path, "rb") as fh:
        data = fh.read()
    if b"\r" in data or not data.endswith(b"\n"):
        problems.append("CSV line endings are not LF")
    lines = data.split(b"\n")[:-1]
    if lines[0] != CSV_HEADER:
        problems.append(f"CSV header {lines[0][:80]!r}")
    rows = len(lines) - 1
    points = result["grid_points"]
    if rows != points:
        problems.append(f"CSV has {rows} rows, grid_points is {points}")
    side = math.isqrt(points)
    if side * side != points or abs(side - 2 * math.pi / p["grid_step"]) > 1:
        problems.append(f"grid_points {points} is not a square grid over [0, 2 pi)")
    rng = np.random.default_rng(seed)
    for k in rng.integers(1, len(lines), size=min(SCAN_SAMPLES, len(lines) - 1)):
        fields = lines[k].split(b",")
        t21, t31, sigma = (float(x) for x in fields[:3])
        oracle = _sigma_min(p, t21, t31)
        if abs(sigma - oracle) > SIGMA_TOL + 1e-9 * oracle:
            problems.append(f"row {k}: min_singular_value {sigma!r}, svd gives {oracle!r}")
            break
    step = p["grid_step"]
    analytic = result["analytic_pairs"]
    for t21, t31 in analytic:
        if _sigma_min(p, t21, t31) > SIGMA_TOL:
            problems.append(f"analytic pair ({t21}, {t31}) is not on the locus")
    for t21, t31 in result["detected_pairs"]:
        gap = min(max(_angular_gap(t21, s21), _angular_gap(t31, s31)) for s21, s31 in analytic)
        if gap > step * (1 + 1e-9):
            problems.append(f"detected pair ({t21}, {t31}) is {gap:.3e} from the locus")
            break
    return problems


def check_demo(result: dict, trials: int) -> list[str]:
    problems = []
    if result["trials"] != trials or sum(result["secret_counts"]) != trials:
        problems.append(f"secret counts {result['secret_counts']} do not sum to {trials}")
    if result["misidentifications"] != 0:
        problems.append(f"misidentifications {result['misidentifications']}")
    if not result["certificate"]["independent"]:
        problems.append("certificate reports dependent outputs")
    conclusive = sum(result["conclusive_counts"])
    p = result["predicted_conclusive_rate"]
    if not _binomial_ok(conclusive, trials, p):
        problems.append(f"{conclusive} conclusive of {trials}, predicted rate {p:.5f}")
    return problems


def check(op, report: dict, csv_path: str) -> list[str]:
    """Problems found in one op's outputs; empty when it is correct."""
    result = report.get("result")
    if report.get("schema") != 1 or not isinstance(result, dict):
        return [f"report schema {report.get('schema')!r}"]
    try:
        if op.kind == "verify":
            return check_verify(result, op.params, report["config"]["tol"])
        if op.kind == "usd":
            return check_usd(result, op.params)
        if op.kind == "scan":
            return check_scan(result, op.params, csv_path, int(op.argv[op.argv.index("--seed") + 1]))
        return check_demo(result, int(op.argv[op.argv.index("--trials") + 1]))
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"missing or malformed report or CSV: {type(exc).__name__}: {exc}"]

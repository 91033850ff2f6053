"""Acceptance gate: one test per top-level criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import math
import time

import numpy as np
import pytest

from nogosuper import linalg, pipeline
from nogosuper.cli import main as cli_main
from nogosuper.discrimination import born_distribution, build_usd
from nogosuper.states import StateSet, normalize
from nogosuper.superposer import (
    CanonicalHashPhase,
    ConstantPhase,
    ConstantSuccess,
    OverlapArgPhase,
    SuperposerConfig,
)

from conftest import GRAM_TOL, random_orthonormal, random_pure_state, svd_rank_oracle

SQ2 = 1.0 / math.sqrt(2.0)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def random_params(rng):
    dim = int(rng.integers(3, 7))
    psi, perp, phi = random_orthonormal(rng, dim, 3)
    angle = rng.uniform(0.05, math.pi / 2 - 0.05)
    return pipeline.triple_params(math.cos(angle), math.sin(angle), psi, perp, phi)


def test_criterion_1_counterexample_verification():
    rng = np.random.default_rng(1001)
    policies = [ConstantPhase(0.0), OverlapArgPhase(), CanonicalHashPhase()]
    start = time.monotonic()
    for _ in range(100):
        p = random_params(rng)
        inputs = p.inputs
        assert svd_rank_oracle(inputs.amplitude_matrix(), GRAM_TOL) == 2
        for policy in policies:
            cfg = SuperposerConfig(SQ2, SQ2, policy, ConstantSuccess(1.0))
            outputs, _ = pipeline.apply_superposer_to_set(cfg, p)
            assert svd_rank_oracle(outputs.amplitude_matrix(), GRAM_TOL) == 3
    elapsed = time.monotonic() - start
    report(1, elapsed < 5.0,
           f"(100 params x 3 policies: rank 2 -> 3; {elapsed:.2f}s)")


def test_criterion_2_degeneracy_locus():
    step = math.pi / 180.0
    p = pipeline.standard_params(SQ2, SQ2)
    start = time.monotonic()
    scan = pipeline.scan_degeneracy_numeric(p, SQ2, SQ2, step)
    elapsed = time.monotonic() - start
    analytic = pipeline.solve_degeneracy_analytic(SQ2, SQ2)
    detected = scan.detected

    def gap(x, y):
        d = abs(x - y) % (2 * math.pi)
        return min(d, 2 * math.pi - d)

    def dist(u, v):
        return max(gap(u[0], v[0]), gap(u[1], v[1]))

    ok = len(detected) > 0
    hausdorff = 0.0
    if ok:
        d1 = max(min(dist(d, s) for s in analytic) for d in detected)
        d2 = max(min(dist(s, d) for d in detected) for s in analytic)
        hausdorff = max(d1, d2)
        ok = hausdorff <= step and elapsed < 60.0
    report(2, ok, f"(Hausdorff deviation {hausdorff:.2e} <= {step:.2e}; {elapsed:.2f}s)")


def test_criterion_3_on_locus_dependence():
    p = pipeline.standard_params(SQ2, SQ2)
    theta31 = math.atan2(p.x[1], p.x[0])  # a = cos(theta31), b = sin(theta31)
    phases = pipeline.PhaseTriple(0.0, math.pi / 2.0, theta31)
    cfg = SuperposerConfig(SQ2, SQ2, ConstantPhase(0.0), ConstantSuccess(1.0))
    outputs, _ = pipeline.apply_superposer_to_set(cfg, p, phases)
    cert = pipeline.certify_independence(linalg.factorize(outputs))
    ok = (not cert.independent) and cert.residual_norm <= 1e-8
    report(3, ok, f"(dependent with residual {cert.residual_norm:.2e})")


def test_criterion_4_usd_correctness():
    start = time.monotonic()
    s = normalize([[1, 0], [1, 1]])
    m = build_usd(linalg.factorize(s))
    table = born_distribution(m, s)
    probs = np.diag(table)

    # independent eigen-oracle: scale from the characteristic polynomial of
    # the reciprocal-projector sum, then p = scale * |<minus|0>|^2
    minus = np.array([SQ2, -SQ2])
    one = np.array([0.0, 1.0])
    total = np.outer(minus, minus) + np.outer(one, one)
    tr, det = np.trace(total), np.linalg.det(total).real
    lam_max = 0.5 * (tr + math.sqrt(tr**2 - 4 * det))
    expected = (1.0 / lam_max) * abs(np.dot(minus, [1, 0])) ** 2
    assert expected == pytest.approx(1 - SQ2, abs=1e-12)
    prob_ok = all(abs(p - expected) <= 1e-9 for p in probs)

    trials = 100_000
    counts = np.random.default_rng(4).multinomial(trials, table[0])
    misid = int(counts[1])
    rate = counts[0] / trials
    sigma3 = 3.0 * math.sqrt(expected * (1 - expected) / trials)
    elapsed = time.monotonic() - start
    ok = prob_ok and misid == 0 and abs(rate - expected) < sigma3 and elapsed < 2.0
    report(4, ok,
           f"(p = {probs[0]:.9f} vs {expected:.9f}; misid {misid}; "
           f"|{rate:.5f} - {expected:.5f}| < {sigma3:.5f}; {elapsed:.2f}s)")


def test_criterion_5_forbidden_task_demo():
    trials = 100_000
    cfg = SuperposerConfig(SQ2, SQ2, ConstantPhase(0.0), ConstantSuccess(1.0))
    start = time.monotonic()
    rep = pipeline.forbidden_task_demo(
        pipeline.standard_params(SQ2, SQ2), cfg, trials, np.random.default_rng(5)
    )
    elapsed = time.monotonic() - start
    pred = rep.predicted_conclusive_rate
    sigma3 = 3.0 * math.sqrt(pred * (1 - pred) / trials)
    ok = (
        rep.misidentifications == 0
        and rep.empirical_conclusive_rate > 0.0
        and abs(rep.empirical_conclusive_rate - pred) < sigma3
        and abs(rep.clone_fidelity_min - 1.0) <= 1e-10
        and elapsed < 10.0
    )
    report(5, ok,
           f"(misid {rep.misidentifications}; rate {rep.empirical_conclusive_rate:.5f} "
           f"vs {pred:.5f} +- {sigma3:.5f}; clones {rep.clone_successes}; "
           f"{elapsed:.2f}s)")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(1006)
    agreements = 0
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 7))
        size = int(rng.integers(2, 7))
        members = [random_pure_state(rng, dim) for _ in range(size)]
        if checked % 2 == 0 and size >= 2:
            # half the sets get a constructed dependence
            coeffs = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
            combo = sum(c * m for c, m in zip(coeffs, members[:-1]))
            norm = np.linalg.norm(combo)
            if norm > 1e-6:
                members[-1] = combo / norm
        s = StateSet(members)
        sigma = np.linalg.svd(s.amplitude_matrix(), compute_uv=False)
        oracle_rank = int(np.sum(sigma > 1e-9 * sigma[0]))
        got = linalg.factorize(s, 1e-9).rank == len(s)
        want = oracle_rank == size
        agreements += got == want
        checked += 1
    report(6, agreements == checked, f"({agreements}/{checked} agreements)")


def test_criterion_7_report_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for p in paths:
        code = cli_main([
            "demo", "--trials", "20000", "--seed", "42",
            "--deterministic", "-o", str(p),
        ])
        assert code == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    parsed = json.loads(paths[0].read_text())
    report(7, identical and parsed["schema"] == 1,
           "(byte-identical demo reports)")

#!/usr/bin/env python3
"""Demonstrate the forbidden tasks the oracle would unlock.

First the classic: unambiguous discrimination of the nonorthogonal but
independent pair {|0>, |+>}. Then the full pipeline: a secret state drawn
from a DEPENDENT triple is pushed through the oracle, unambiguously
identified, and cloned -- with zero misidentifications across 100k trials.
"""

import math

import numpy as np

from nogosuper import pipeline
from nogosuper.discrimination import build_usd, simulate_usd, success_probabilities
from nogosuper.states import StateSet
from nogosuper.superposer import AlwaysSucceed, ConstantPhase, SuperposerConfig

SQ2 = 1.0 / math.sqrt(2.0)

print("=== USD warm-up: {|0>, |+>} ===")
pair = StateSet.from_vectors([[1, 0], [1, 1]])
m = build_usd(pair)
probs = success_probabilities(m, pair)
print(f"Per-state conclusive probability: {probs[0]:.6f} "
      f"(theory: 1 - 1/sqrt(2) = {1 - SQ2:.6f})")
counts = simulate_usd(m, pair.members[0], 100_000, np.random.default_rng(1))
print(f"100k trials with truth |0>: counts {counts.tolist()} "
      f"(label order: |0>, |+>, inconclusive)")
print(f"Misidentifications: {counts[1]}\n")

print("=== Forbidden-task pipeline on a dependent triple ===")
params = pipeline.standard_params(a=SQ2, b=SQ2, dim=3)
cfg = SuperposerConfig(SQ2, SQ2, ConstantPhase(0.0), AlwaysSucceed())
report = pipeline.forbidden_task_demo(
    params, cfg, trials=100_000, rng=np.random.default_rng(7)
)
print(f"Trials:                 {report.trials}")
print(f"Secret draws:           {report.secret_counts.tolist()}")
print(f"Conclusive counts:      {report.conclusive_counts.tolist()}")
print(f"Misidentifications:     {report.misidentifications}")
print(f"Conclusive rate:        {report.conclusive_rate:.5f} "
      f"(predicted {report.predicted_conclusive_rate:.5f})")
print(f"Clones produced:        {report.clone_successes} "
      f"(one per conclusive identification; lowest fidelity to the true "
      f"output {report.clone_fidelity_min:.12f})")
print("\nUnambiguous identification and exact cloning of states drawn from a "
      "linearly dependent set: both are forbidden in quantum theory (and in "
      "any no-signaling theory), so the oracle assumed here cannot exist.")

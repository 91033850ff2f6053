#!/usr/bin/env python3
"""Demonstrate the forbidden tasks the oracle would unlock.

First the classic: unambiguous discrimination of the nonorthogonal but
independent pair {|0>, |+>}. Then the full pipeline: a secret state drawn
from a DEPENDENT triple is pushed through the oracle, unambiguously
identified, and cloned -- with zero misidentifications across 100k trials.
"""

import math

import numpy as np

from nogosuper import linalg, pipeline
from nogosuper.discrimination import born_distribution, build_usd
from nogosuper.states import normalize
from nogosuper.superposer import ConstantPhase, ConstantSuccess, SuperposerConfig

SQ2 = 1.0 / math.sqrt(2.0)

print("=== USD warm-up: {|0>, |+>} ===")
pair = normalize([[1, 0], [1, 1]])
m = build_usd(linalg.factorize(pair))
table = born_distribution(m, pair)  # row i: Born probabilities of the labels for truth i
probs = np.diag(table)
print(f"Per-state conclusive probability: {probs[0]:.6f} "
      f"(theory: 1 - 1/sqrt(2) = {1 - SQ2:.6f})")
counts = np.random.default_rng(1).multinomial(100_000, table[0])
print(f"100k trials with truth |0>: counts {counts.tolist()} "
      f"(label order: |0>, |+>, inconclusive)")
print(f"Misidentifications: {counts[1]}\n")

print("=== Forbidden-task pipeline on a dependent triple ===")
params = pipeline.standard_params(a=SQ2, b=SQ2, dim=3)
cfg = SuperposerConfig(SQ2, SQ2, ConstantPhase(0.0), ConstantSuccess(1.0))
report = pipeline.forbidden_task_demo(
    params, cfg, trials=100_000, rng=np.random.default_rng(7)
)
print(f"Trials:                 {report.trials}")
print(f"Secret draws:           {report.secret_counts.tolist()}")
print(f"Conclusive counts:      {report.conclusive_counts.tolist()}")
print(f"Misidentifications:     {report.misidentifications}")
print(f"Conclusive rate:        {report.empirical_conclusive_rate:.5f} "
      f"(predicted {report.predicted_conclusive_rate:.5f})")
print(f"Clones produced:        {report.clone_successes} "
      f"(one per conclusive identification; lowest fidelity to the true "
      f"output {report.clone_fidelity_min:.12f})")
print("\nUnambiguous identification and exact cloning of states drawn from a "
      "linearly dependent set: both are forbidden in quantum theory (and in "
      "any no-signaling theory), so the oracle assumed here cannot exist.")

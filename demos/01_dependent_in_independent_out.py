#!/usr/bin/env python3
"""Walk through the core surprise: a hypothetical superposition oracle turns a
linearly DEPENDENT state triple into a linearly INDEPENDENT one.

We build the triple {psi, psi_perp, a*psi + b*psi_perp} (rank 2 by
construction), superpose each member with a common orthogonal partner state,
and certify the rank of the result.
"""

import math

import numpy as np

from nogosuper import linalg, pipeline
from nogosuper.superposer import ConstantPhase, ConstantSuccess, SuperposerConfig

SQ2 = 1.0 / math.sqrt(2.0)

params = pipeline.standard_params(a=SQ2, b=SQ2, dim=3)
inputs = params.inputs

print("Input triple (columns):")
print(np.round(inputs.amplitude_matrix(), 4))
factored = linalg.factorize(inputs)
print(f"\nInput rank: {factored.rank}  (singular values "
      f"{np.round(factored.singular_values, 6)})")
print("-> dependent, as expected: the third state lives in the span of the "
      "first two.\n")

cfg = SuperposerConfig(
    alpha=SQ2, beta=SQ2,
    phase_policy=ConstantPhase(0.0),
    success_policy=ConstantSuccess(1.0),
)
outputs, phases = pipeline.apply_superposer_to_set(cfg, params)
print("Superposer outputs (each input superposed with phi = e3):")
print(np.round(outputs.amplitude_matrix(), 4))

cert = pipeline.certify_independence(linalg.factorize(outputs))
print(f"\nOutput rank: {cert.gram_rank}")
print(f"Independent: {cert.independent}")
# det G = det(A^H A) = product of the squared singular values of A
print(f"Gram determinant = "
      f"{np.prod(cert.singular_values) ** 2:.4f} (nonzero)")
print("\nA device that did this would turn an impossible discrimination "
      "problem into a possible one -- which is why no such device can exist.")

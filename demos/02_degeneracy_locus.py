#!/usr/bin/env python3
"""Map the exceptional phase choices where the superposed outputs STAY
dependent.

With theta1 pinned to 0, the outputs are dependent only on a measure-zero
locus in the (theta21, theta31) phase plane: theta21 in {pi/2, 3pi/2} with
(cos, sin)(theta31) = (a, +/-b). This script compares the closed-form
solution against a brute-force grid sweep and writes the full grid to CSV.
"""

import math

from nogosuper import pipeline, text

SQ2 = 1.0 / math.sqrt(2.0)
STEP = math.pi / 180.0

params = pipeline.standard_params(a=SQ2, b=SQ2, dim=3)

analytic = pipeline.solve_degeneracy_analytic(params.x[0], params.x[1])
print("Analytic degeneracy pairs (theta21, theta31):")
for t21, t31 in analytic:
    print(f"  ({t21:.6f}, {t31:.6f})")
print(f"Family: {pipeline.LOCUS_FAMILY}\n")

print(f"Sweeping a {int(2 * math.pi / STEP)}x{int(2 * math.pi / STEP)} grid ...")
scan = pipeline.scan_degeneracy_numeric(params, SQ2, SQ2, STEP)
print("Detected rank-deficient grid points:")
for t21, t31 in scan.detected:
    print(f"  ({t21:.6f}, {t31:.6f})")

text.write_scan_csv(scan, "degeneracy_grid.csv")  # what `nogo scan --csv` writes
print(f"\nFull grid written to degeneracy_grid.csv "
      f"({scan.ranks.size} rows); everywhere off the locus the rank is 3.")
print("Off-locus phases are generic: a phase policy that cannot see the "
      "basis representation essentially never lands on the locus.")

"""Large deviations of the scalar walk: free energy and rate function.

For a rank-one walk with a fair two-atom step law on {0, 1}, the finite-k
free energy c_k(t) = (1/n) ln E exp(t S_n^2) approaches
c(t) = ln((1 + e^t)/2), and the Legendre transform of c is the binary
entropy rate function, infinite outside [0, 1].
"""

import math

import numpy as np

from conebessel import (
    ConeMatrix,
    RadialLaw,
    StructureParams,
    free_energy_empirical,
    free_energy_limit,
    rate_function,
)

law = RadialLaw(
    weights=(0.5, 0.5),
    atoms=(ConeMatrix(np.zeros((1, 1))), ConeMatrix(np.eye(1))),
)
params = StructureParams(q=1, d=1, mu=2.0**16)

print("free energy: empirical (mu = 2^16, n = 16, 4000 replicates) vs limit")
print(f"{'t':>6} {'c_k(t)':>10} {'stderr':>9} {'c(t)':>10}")
for t in (-2.0, -1.0, 1.0, 2.0):
    c_k, se = free_energy_empirical(law, params, 16, t, 4000, master_seed=30)
    c_lim = free_energy_limit(law, t)
    print(f"{t:6.1f} {c_k:10.5f} {se:9.1e} {c_lim:10.5f}")

print()
print("rate function vs s ln(2s) + (1-s) ln(2(1-s)):")
print(f"{'s':>6} {'I(s)':>10} {'entropy':>10}")
grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.2])
for s, val in zip(grid, rate_function(law, grid)):
    if s > 1.0:
        print(f"{s:6.1f} {val!s:>10}   (outside the support)")
        continue
    ent = s * math.log(2 * s) + (1 - s) * math.log(2 * (1 - s))
    print(f"{s:6.1f} {val:10.6f} {ent:10.6f}")

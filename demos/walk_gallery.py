"""A small gallery of cone random walks at three convolution indices.

Each walk convolves the identity-atom step law with itself; printed rows
are the descending eigenvalues of S_k / sqrt(k).  Low index means wide
spread; at high index every step is nearly Pythagorean and the normalized
walk hugs the square root of the step's second moment (the identity here).
"""

import numpy as np

from conebessel import ConeMatrix, RadialLaw, StructureParams, substream, walk_simulate

law = RadialLaw(weights=(1.0,), atoms=(ConeMatrix(np.eye(2)),))
STEPS = 12

for mu in (3.0, 12.0, 200.0):
    params = StructureParams(q=2, d=1, mu=mu)
    path = walk_simulate(law, params, STEPS, substream(2026, f"gallery:{mu}", 0))
    print(f"index mu = {mu}")
    for k in (1, 2, 4, 8, 12):
        eigs = path[k].eigs / np.sqrt(k)
        formatted = ", ".join(f"{e:6.3f}" for e in eigs)
        print(f"  k = {k:2d}   S_k/sqrt(k) eigenvalues: {formatted}")
    print()

print("target spectrum for every index: (1.000, 1.000), the identity;")
print("the pull toward it strengthens visibly as mu grows")

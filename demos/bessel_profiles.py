"""Profile of the matrix Bessel function along a ray, for growing index.

J_mu(mu * y) flattens toward exp(-tr y) as mu grows; the table prints the
certified series value, the limit, and the gap multiplied by mu, which
should settle near a constant while the raw gap shrinks like 1/mu.
"""

import math

import numpy as np

from conebessel import StructureParams, bessel_series, theorem1_gap

Y = np.array([[0.9, 0.3], [0.3, 0.4]])
TR = float(np.trace(Y))

print(f"argument ray: y with tr y = {TR:.3f}, rank 2, complex field")
print(f"{'mu':>8} {'J_mu(mu y)':>14} {'exp(-tr y)':>12} {'gap':>11} {'mu * gap':>9}")
for mu in (16.0, 32.0, 64.0, 128.0, 256.0):
    params = StructureParams(q=2, d=2, mu=mu)
    val, tail = bessel_series(mu * Y, params, tol=1e-11, max_weight=80)
    gap = abs(val - math.exp(-TR))
    print(f"{mu:8.0f} {val:14.9f} {math.exp(-TR):12.9f} {gap:11.3e} {mu * gap:9.4f}")

print()
print("same flattening through theorem1_gap, normalized by its envelope:")
for mu in (32.0, 64.0, 128.0):
    gap, env = theorem1_gap(Y, StructureParams(q=2, d=2, mu=mu))
    print(f"  mu = {mu:5.0f}   gap / envelope = {gap / env:8.4f}")
print("the ratio staying O(1) is the content of the envelope bound")

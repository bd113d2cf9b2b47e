"""Chamber kernel flattening: the type-B average meets its type-A limit.

The Haar average of the cone kernel at rescaled argument 2 sqrt(mu) xi is
a type-B Bessel function; as mu grows it approaches the two-argument
0F0 limit.  For the complex field that limit also has an exact
alternating-sum form, so three independent routes are compared at once.
"""

import math

from conebessel import (
    ChamberPoint,
    StructureParams,
    bessel_B_mc,
    harish_chandra_exact,
    hyper_0F0,
    substreams,
)

xi = ChamberPoint((1.0, 0.5))
eta = ChamberPoint((0.8, 0.3))
x2 = [v * v for v in xi.xi]
e2 = [v * v for v in eta.xi]

limit_series, _ = hyper_0F0(1.0, [-v for v in x2], e2, tol=1e-11, max_weight=60)
limit_exact = harish_chandra_exact(x2, e2)
print(f"flat limit by series:          {limit_series:.10f}")
print(f"flat limit by alternating sum: {limit_exact:.10f}")
print()

print(f"{'mu':>6} {'B value':>12} {'stderr':>9} {'|gap|':>10} {'mu * gap':>9}")
mus = (32.0, 64.0, 128.0, 256.0)
for mu, rng in zip(mus, substreams(77, "flat-limit", range(len(mus)))):
    params = StructureParams(q=2, d=2, mu=mu)
    val, se = bessel_B_mc(xi.scaled(2.0 * math.sqrt(mu)), eta, params, 20_000, rng)
    gap = abs(val - limit_exact)
    print(f"{mu:6.0f} {val:12.7f} {se:9.1e} {gap:10.3e} {mu * gap:9.4f}")

print()
print("the gap column shrinks like 1/mu (last column roughly level,")
print("within Monte Carlo noise)")

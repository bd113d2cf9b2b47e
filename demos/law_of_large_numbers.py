"""Weak and strong law experiments at desk scale.

The weak-law table shows the tail probability P(||S_k/sqrt(k) - m|| > eps)
dropping with k when the index grows along the schedule.  The strong-law
trace follows a single path along the schedule and prints the deviation
plus its reverse running supremum, whose decay is the trend evidence.
"""

import numpy as np

from conebessel import (
    ConeMatrix,
    RadialLaw,
    Schedule,
    StructureParams,
    schedule_conditions,
    slln_experiment,
    wlln_experiment,
)

law = RadialLaw(
    weights=(0.5, 0.5),
    atoms=(ConeMatrix(np.diag([1.0, 0.4])), ConeMatrix(np.diag([0.6, 0.2]))),
)
params = StructureParams(q=2, d=1, mu=2.0)
schedule = Schedule(mu_family="poly", mu_c=1.0, mu_b=1.0)

print("weak law: tail probabilities at eps = 0.15, index schedule mu_k = k")
weak = wlln_experiment(law, params, schedule, (8, 32, 128), 150, 0.15, master_seed=20)
for row in weak:
    print(
        f"  k = {row.k:4d}  mu_k = {row.mu:8.0f}  "
        f"P(deviation > eps) = {row.value:.3f} +- {row.stderr:.3f}"
    )

print()
print("strong law: one path along a pow2 index schedule, n_k = k steps")
doubling = Schedule(mu_family="pow2")
strong = slln_experiment(law, params, doubling, 14, master_seed=21)
for name, verdict in schedule_conditions(doubling):
    print(f"  schedule condition {name}: {verdict}")
sup = {r.k: r.value for r in strong if r.statistic == "tail_sup"}
for k in (1, 4, 8, 12, 14):
    print(f"  k = {k:2d}   sup of deviations from k on = {sup[k]:.4f}")
print("(exact schedule conditions; the limit itself is not observable)")

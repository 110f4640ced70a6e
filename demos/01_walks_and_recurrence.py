#!/usr/bin/env python3
"""Random walks on the half-line: simulation against exact oracles.

The walk steps up with probability p and down with probability q = 1 - p,
reflecting at 0 (or absorbing, below).  It is recurrent exactly when
p <= q, and the package's first-step-analysis oracles make that
quantitative.  Run this top to bottom; everything is seeded.
"""

from fractions import Fraction

from cstarlab.sampler import estimate_prob_jiang_su
from cstarlab.walk import (
    Barrier,
    WalkParams,
    batch_sup,
    classify_walk,
    hit_zero_probability,
    sample_trajectory,
    sup_distribution,
)

# --- a look at a few trajectories ------------------------------------------

for p in (0.35, 0.5, 0.65):
    params = WalkParams.point(p, start=1)
    traj = sample_trajectory(params, 30, seed=1)
    print(f"p={p:.2f} ({classify_walk(params).value:9s}):", *traj.states)

# --- hitting the origin ------------------------------------------------------

print("\nprobability of ever reaching 0 from state i")
print("p      i=1      i=2      i=3")
for p in (0.4, 0.5, 0.6, 0.75):
    row = [hit_zero_probability(WalkParams.point(p), i) for i in (1, 2, 3)]
    print(f"{p:.2f}  " + "  ".join(f"{v:.5f}" for v in row))
print("(for p > q this is (q/p)^i; for p <= q the chain is recurrent)")

# --- the finite-horizon Monte-Carlo proxy -----------------------------------

params = WalkParams.point(0.6, start=1)
result = estimate_prob_jiang_su(params, trials=5000, horizon=5000, seed=11)
oracle = hit_zero_probability(params, 1)
print(f"\nreturn to 0 within horizon: estimate {result.estimate:.4f}, "
      f"Wilson 95% CI [{result.ci_low:.4f}, {result.ci_high:.4f}]")
print(f"exact hitting probability:  {oracle:.4f} (= 2/3)")

# --- absorbing barrier: the law of the running maximum ----------------------

absorbing = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
sups, resolved = batch_sup(absorbing, trials=20000, seed=3, cap=8)
assert resolved.all()
print("\ncritical absorbing walk from 1: P(sup <= k)")
print("k    exact      empirical")
for k in range(1, 9):
    exact = sup_distribution(absorbing, k)
    emp = (sups <= k).mean()
    assert exact == Fraction(k, k + 1)
    print(f"{k}    {float(exact):.5f}    {emp:.5f}")

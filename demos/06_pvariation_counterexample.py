"""Why the delay-segment map needs Holder, not p-variation, regularity.

The translation inequality (segment map bounded by the path seminorm on
the enlarged window) is a Holder-norm fact.  Its p-variation analogue
fails: for x(t) = |t|^beta with beta p < 1, the path has finite
p-variation, yet the partition sums of the segment map over the uniform
n-partition of [0, 1] grow like n^((1 - beta p)/p) -- unbounded in n.
"""

from ydde import GridPath, counterexample_growth, pvar_seminorm

import numpy as np

beta, p = 0.4, 2.0

# The path itself has modest p-variation...
n = 512
path = GridPath(-1.0, 1 / n, np.abs(np.linspace(-1, 1, 2 * n + 1)) ** beta)
print(f"x(t) = |t|^{beta} on [-1, 1]: {p}-variation = "
      f"{pvar_seminorm(path, p):.4f}")

# ...but the segment map blows up along the partition ladder.
print(f"\nsegment partition sums (beta = {beta}, p = {p}):")
print("  n        sum         n^((1-beta*p)/p)")
for n in (10, 100, 1000, 10000):
    value = counterexample_growth(beta, p, n)
    bound = n ** ((1.0 - beta * p) / p)
    print(f"  {n:<7d}  {value:9.4f}   {bound:9.4f}")
print("\nthe sums exceed the lower bound and grow without limit:")
print("no finite p-variation for the segment-valued path.")

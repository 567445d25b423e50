"""Grid paths, Holder and p-variation seminorms, and delay segments.

Everything in the library runs on uniformly sampled paths.  This script
builds a few, computes their seminorms, and shows the translation
inequality that makes delay slices well behaved in Holder norm.
"""

import numpy as np

from ydde import (GridPath, holder_seminorm, pvar_seminorm, segment,
                  segment_path_holder)

# A linear path: its beta-Holder seminorm is (t-s)^(1-beta), largest at the
# full span, where it is 1.
line = GridPath(0.0, 1 / 64, np.linspace(0.0, 1.0, 65))
print(f"|||t|||_0.5 on [0,1]      = {holder_seminorm(line, beta=0.5):.6f}")

# The cusp |t|^0.4 is exactly 0.4-Holder: the pairs from t = 0 attain 1.
n = 256
cusp = GridPath(-1.0, 1 / n, np.abs(np.linspace(-1, 1, 2 * n + 1)) ** 0.4)
print(f"|||.|t|^0.4|||_0.4        = {holder_seminorm(cusp, beta=0.4):.6f}")

# p-variation via dynamic programming over grid nodes. For a monotone path
# and p = 2 the single interval {0, 1} is already optimal.
print(f"2-var of t on [0,1]       = {pvar_seminorm(line, p=2.0):.6f}")

# A rough path gains from finer partitions.
g = np.random.Generator(np.random.Philox(key=5))
walk = GridPath(0.0, 1 / 64, np.concatenate(([0.0], np.cumsum(
    g.standard_normal(64) / 8.0))))
print(f"2-var of a rough walk     = {pvar_seminorm(walk, p=2.0):.6f}")

# Delay segments: x_t is the path restricted to [t - r, t], re-indexed to
# [-r, 0].  The segment-valued map t -> x_t inherits the path's Holder
# regularity on the enlarged window [a - r, b] -- never more than that.
r = 0.25
seg = segment(walk, t=0.5, r=r)
print(f"\nsegment at t=0.5 covers u in [{seg.times[0]}, {seg.times[-1]}], "
      f"{seg.values.shape[0]} nodes")

window = (0.25, 1.0)
lhs = segment_path_holder(walk, 0.5, r, window)
rhs = holder_seminorm(walk, 0.5, (window[0] - r, window[1]))
print(f"|||x_.|||_0.5 on [{window[0]}, {window[1]}] = {lhs:.6f}")
print(f"|||x|||_0.5 on [{window[0] - r}, {window[1]}]  = {rhs:.6f}")
print(f"translation inequality holds: {lhs <= rhs}")

"""
Earth Mover's Distance on value histograms, exactly
===================================================

The EMD variant used here works on unnormalized histograms: it ships
min(total masses) at minimum cost under a saturated bin-index ground
distance, then charges the leftover mass |sum(H1) - sum(H2)| times the
saturation. The transport itself is solved exactly by a 1-D dynamic
program; a generic linear program cross-checks it.

A histogram is just a 1-D array of its bin masses: the bins are always
equal-width bins of [0, 1], so six masses mean six bins of width 1/6.
The ground distance is min(|i - j|, saturation), set by one integer.
"""

import numpy as np

from saleval import emd_brute_oracle, emd_hat

# Two simple six-bin histograms: all mass low vs all mass high.
low = np.array([0.7, 0.3, 0.0, 0.0, 0.0, 0.0])
high = np.array([0.0, 0.0, 0.0, 0.0, 0.4, 0.6])

for sat in (1, 3, 10):
    print(f"saturation {sat:2d}: emd = {emd_hat(low, high, sat):.4f}")
print("Saturation caps how much any single move can cost, so far-apart mass")
print("stops dominating once the cap binds.\n")

# Unequal masses: the mismatch penalty appears.
heavy = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
light = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
print(f"masses 2 vs 1, saturation 3: emd = {emd_hat(heavy, light, 3):.4f}")
print("  = 1 unit moved one bin (cost 1) + |2 - 1| * 3 penalty = 4\n")

# The solver agrees with an independent LP formulation.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    h1 = rng.random(6) * 3
    h2 = rng.random(6) * 3
    worst = max(worst, abs(emd_hat(h1, h2, 3) - emd_brute_oracle(h1, h2, 3)))
print(f"max |exact DP - LP oracle| over 200 random pairs: {worst:.2e}")

"""Exact minimum-cost transport under the saturated bin distance.

min(|i - j|, T) is the shortest-path metric of a path of unit edges
through the bins plus a hub joined to every bin at length T/2 (Pele and
Werman, ICCV 2009). Shipping min(total supply, total demand) between the
bins and the surplus Δ = total supply - total demand into the hub costs
the transport plus T|Δ|/2. With C_k the cumulative net supply of bins
0..k and H_k what they send to the hub (H_-1 = 0, H_last = Δ), the edge
from bin k to bin k+1 carries C_k - H_k, so twice the graph cost is
sum_k 2|C_k - H_k| + T|H_k - H_k-1|.

A dynamic program minimizes that exactly: f(x) = T|x| prices H_0 = x;
each bin adds 2|C_k - x|, then the L1 distance transform
g(y) = min_x f(x) + T|y - x| moves on to the next H; the transport costs
(f(Δ) - T|Δ|) / 2. f stays convex and piecewise linear with its kinks
among 0 and the C_k, so it is kept exactly as its integer slopes between
the sorted candidates {0, Δ, C_k} and its value at the first one. Adding
2|C_k - x| lowers the slopes left of C_k by 2 and raises those right of
it by 2; the transform's forward and backward passes then clip them to
[-T, T] and keep f(C_k). Bins before the first nonzero C_k leave
f = T|x| as it is, and bins from the last C_k != Δ on leave f(Δ) as it
is, so both are skipped.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul, sub

__all__ = ["min_cost_transport"]


def min_cost_transport(supply, demand, saturation) -> float:
    """Least cost of moving min(sum supply, sum demand) under min(|i - j|, saturation).

    supply and demand are equal-length lists of finite masses >= 0, one per
    bin, and saturation an integer >= 1; none of this is checked here.
    Each bin ships and receives at most its mass.
    """
    t = saturation
    cum = list(accumulate(map(sub, supply, demand)))
    delta = cum[-1]
    while cum and cum[-1] == delta:
        cum.pop()
    steps = cum[next((k for k, c in enumerate(cum) if c), len(cum)) :]
    xs = sorted({0.0, delta, *steps})
    at = {x: i for i, x in enumerate(xs)}
    widths = [hi - lo for lo, hi in zip(xs, xs[1:])]
    slopes = [-t if x < 0 else t for x in xs[:-1]]
    value = -t * xs[0]  # f(xs[0]); xs[0] <= 0
    for c in steps:
        k = at[c]
        # f(c) stays, so f(xs[0]) rises by all the slopes left of c lose
        for i in range(k):
            s = slopes[i]
            if s > -t:
                clipped = s - 2 if s - 2 > -t else -t
                value += (s - clipped) * widths[i]
                slopes[i] = clipped
        slopes[k:] = [s + 2 if s + 2 < t else t for s in slopes[k:]]
    k = at[delta]
    value += sum(map(mul, slopes[:k], widths[:k]))
    return (value - t * abs(delta)) / 2

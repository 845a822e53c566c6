"""Exact minimum-cost transport on small dense instances.

Ship min(total supply, total demand) units at minimum total cost subject
to per-bin supply and demand capacities, in two steps:

1. A feasible plan, cheapest cell first: cells are taken in (cost, i, j)
   order and each ships min(supply left, demand left, target left).
2. Negative-cycle canceling. A feasible plan is optimal exactly when its
   residual graph has no negative-cost cycle (Klein's criterion), so
   Bellman-Ford looks for one and, while it finds one, pushes the cycle's
   bottleneck mass around it. The residual graph has a forward arc
   supply -> demand at the unit cost for every cell, a backward arc at
   minus that cost for every shipped cell, and a slack node on each side:
   unused supply and unmet demand are flows into them, so a cycle through
   a slack node swaps unused mass in for shipped mass.

Tolerances and termination: the plan stops once the target left is at
most eps = 1e-12 * target, a residual arc exists only for mass above eps,
and a Bellman-Ford distance counts as lowered only when it falls by more
than tol = 1e-12 * the largest cost. The passes stop when no distance
falls: every residual arc then has a reduced cost above -tol, so no cycle
saves more than tol per arc and the plan is optimal to that tolerance.
They also stop when the predecessor graph holds a cycle, which then costs
less than -tol; pushing more than eps around it lowers the total cost by
more than eps * tol, so the canceling ends. Zero-mass bins carry no flow
and are left out of the graph. Step 2 is skipped when a side has at most
one bin with mass: with none there is nothing to ship, and a lone source
or sink that fills its cheapest partners first is optimal. Both steps
run on Python lists taken once from the inputs, which beat numpy calls
at histogram size (tens of bins); nothing is approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["FlowSolution", "min_cost_transport"]

_REL_EPS = 1e-12


@dataclass(frozen=True)
class FlowSolution:
    """Optimal transport plan: sparse (source, sink, amount) flows and cost."""

    flows: tuple[tuple[int, int, float], ...]
    cost: float


def min_cost_transport(supply, demand, cost) -> FlowSolution:
    """Cheapest way to move min(sum supply, sum demand) mass.

    supply (ns,) and demand (nd,) are finite non-negative masses; cost is an
    (ns, nd) matrix of unit costs, finite and non-negative where both bins
    have mass. Flows never exceed the per-bin masses and total the smaller.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if supply.ndim != 1 or demand.ndim != 1 or cost.shape != (supply.size, demand.size):
        raise ValueError("cost matrix shape must be (len(supply), len(demand))")
    a, b = supply.tolist(), demand.tolist()
    si = [i for i, x in enumerate(a) if x > 0]
    dj = [j for j, x in enumerate(b) if x > 0]
    sub = cost.take([i * demand.size + j for i in si for j in dj]).tolist()  # (ns, nd) row-major
    total_a, total_b = sum(a), sum(b)
    # min misses a nan that is not first, but every sum catches it, and any inf
    if min(a + b + sub, default=0.0) < 0 or not total_a + total_b + sum(sub) < np.inf:
        raise ValueError("supplies, demands and costs must be finite and >= 0")
    rs, rd = [a[i] for i in si], [b[j] for j in dj]  # supply and demand left
    ns, nd = len(rs), len(rd)
    target = min(total_a, total_b)  # zero bins add nothing to a float sum
    eps, left = _REL_EPS * target, target
    flows = []  # (i, j, amount), cheapest cell first
    for k in sorted(range(ns * nd), key=sub.__getitem__):  # stable: (cost, i, j) order
        if left <= eps:
            break
        i, j = divmod(k, nd)
        amount = min(rs[i], rd[j], left)
        if amount > 0:
            flows.append((i, j, amount))
            rs[i] -= amount
            rd[j] -= amount
            left -= amount
    if ns > 1 and nd > 1:  # else the plan is already optimal
        # nodes: supply bins 0..ns-1, demand bins ns..ns+nd-1, and the slack
        # nodes of unused supply and unmet demand; arcs carry cost and mass
        unused, unmet = ns + nd, ns + nd + 1
        cost_of = dict(zip(product(range(ns), range(ns, ns + nd)), sub))
        mass = {(i, ns + j): m for i, j, m in flows}
        # only the side with mass left over needs its slack node
        if sum(rs) > eps:
            cost_of.update(((i, unused), 0.0) for i in range(ns))
            mass.update(((i, unused), r) for i, r in enumerate(rs))
        if sum(rd) > eps:
            cost_of.update(((unmet, ns + j), 0.0) for j in range(nd))
            mass.update(((unmet, ns + j), r) for j, r in enumerate(rd))
        _cancel_negative_cycles(mass, cost_of, ns + nd + 2, eps, _REL_EPS * max(sub))
        flows = [(u, v - ns, m) for (u, v), m in mass.items() if u < ns and v < unused and m > 0]
    arcs = sorted(flows)
    return FlowSolution(
        flows=tuple((si[i], dj[j], m) for i, j, m in arcs),
        cost=float(sum(m * sub[i * nd + j] for i, j, m in arcs)),
    )


def _cancel_negative_cycles(mass, cost_of, n, eps, tol) -> None:
    """Make the plan optimal in place by canceling residual negative cycles.

    Every arc of cost_of is a residual arc, uncapacitated; every arc whose
    mass exceeds eps adds its reverse at minus the cost, capped by that mass.
    """
    forward = [(a, b, w) for (a, b), w in cost_of.items()]
    while True:
        arcs = [(b, a, -cost_of[a, b]) for (a, b), m in mass.items() if m > eps]
        cycle = _negative_cycle(arcs + forward, n, tol)
        if cycle is None:
            return
        theta = min(mass[v, u] for u, v in cycle if (u, v) not in cost_of)
        for u, v in cycle:
            if (u, v) in cost_of:
                mass[u, v] = mass.get((u, v), 0.0) + theta
            else:
                mass[v, u] -= theta


def _negative_cycle(arcs, n, tol):
    """A cycle of (tail, head) arcs cheaper than -tol, or None if there is none.

    Bellman-Ford from a virtual source at distance 0 to every node; a
    distance counts as lowered only when it falls by more than tol.
    """
    dist = [0.0] * n
    pred = [-1] * n
    while True:
        changed = False
        for u, v, w in arcs:
            through = dist[u] + w
            if through < dist[v] - tol:
                dist[v] = through
                pred[v] = u
                changed = True
        if not changed:
            return None
        # a cycle of the predecessor graph is a negative cycle
        mark = [-1] * n
        for start in range(n):
            v = start
            while v >= 0 and mark[v] < 0:
                mark[v] = start
                v = pred[v]
            if v >= 0 and mark[v] == start:
                cycle = []
                u = v
                while True:
                    cycle.append((pred[u], u))
                    u = pred[u]
                    if u == v:
                        return cycle

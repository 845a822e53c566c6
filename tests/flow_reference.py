"""Frozen reference copy of saleval.flow.min_cost_transport as first written on numpy arrays.

The library's solver runs the same algorithm with the same arithmetic on
Python lists; test_flow.py requires the two to return equal FlowSolutions,
flows and cost bit for bit. Do not edit this file to follow the library.
"""

from __future__ import annotations

import numpy as np

from saleval.flow import FlowSolution

_REL_EPS = 1e-12


def min_cost_transport(supply, demand, cost) -> FlowSolution:
    """Cheapest way to move min(sum supply, sum demand) mass.

    supply (ns,) and demand (nd,) are non-negative masses; cost is an
    (ns, nd) matrix of non-negative unit costs. Flows never exceed the
    per-bin masses and their total equals the smaller of the two totals.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if supply.ndim != 1 or demand.ndim != 1 or cost.shape != (supply.size, demand.size):
        raise ValueError("cost matrix shape must be (len(supply), len(demand))")
    if (supply < 0).any() or (demand < 0).any() or (cost < 0).any():
        raise ValueError("supplies, demands and costs must be >= 0")

    si = (supply > 0).nonzero()[0]
    dj = (demand > 0).nonzero()[0]
    sub = cost[si][:, dj]
    rs = supply[si].tolist()  # supply left
    rd = demand[dj].tolist()  # demand left
    ns, nd = len(rs), len(rd)
    target = min(sum(rs), sum(rd))
    eps = _REL_EPS * target
    # nodes: supply bins 0..ns-1, demand bins ns..ns+nd-1, the slack node that
    # takes unused supply, and the one that fills unmet demand; arcs carry a
    # unit cost and shipped mass
    unused, unmet = ns + nd, ns + nd + 1
    cost_of = {(i, ns + j): cij for i, row in enumerate(sub.tolist()) for j, cij in enumerate(row)}
    mass: dict[tuple[int, int], float] = {}
    left = target
    for k in np.argsort(sub, axis=None, kind="stable").tolist():
        if left <= eps:
            break
        i, j = divmod(k, nd)
        amount = min(rs[i], rd[j], left)
        if amount > 0:
            mass[i, ns + j] = amount
            rs[i] -= amount
            rd[j] -= amount
            left -= amount
    # only the side with mass left over needs its slack node
    if sum(rs) > eps:
        cost_of.update(((i, unused), 0.0) for i in range(ns))
        mass.update(((i, unused), r) for i, r in enumerate(rs))
    if sum(rd) > eps:
        cost_of.update(((unmet, ns + j), 0.0) for j in range(nd))
        mass.update(((unmet, ns + j), r) for j, r in enumerate(rd))
    if target > 0:
        _cancel_negative_cycles(mass, cost_of, ns + nd + 2, eps, _REL_EPS * float(sub.max()))

    arcs = sorted((a, b - ns, m) for (a, b), m in mass.items() if a < ns and b < unused and m > 0)
    si, dj = si.tolist(), dj.tolist()
    return FlowSolution(
        flows=tuple((si[i], dj[j], m) for i, j, m in arcs),
        cost=float(sum(m * cost_of[i, ns + j] for i, j, m in arcs)),
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

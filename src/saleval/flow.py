"""Exact minimum-cost transport on small dense instances.

Successive shortest augmenting paths on the bipartite transport graph:
ship min(total supply, total demand) units at minimum total cost subject
to per-bin supply and demand capacities. Node potentials keep residual
costs non-negative so each augmentation is a plain Dijkstra pass over the
residual graph: source -> supply bins, supply -> demand bins at the unit
cost, demand -> supply bins back along shipped flow, demand bins -> sink.
Zero-mass bins carry no flow and are left out of the graph. Instances
here are histogram sized (tens of bins), so the dense O(V^2) search runs
on plain Python lists, which beat numpy's per-call overhead several times
over at this size; no approximation layer is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    si = np.flatnonzero(supply > 0)
    dj = np.flatnonzero(demand > 0)
    target = float(min(supply[si].sum(), demand[dj].sum()))
    rs = supply[si].tolist()
    rd = demand[dj].tolist()
    c = cost[np.ix_(si, dj)].tolist()
    ns, nd = len(rs), len(rd)
    flow = [[0.0] * nd for _ in range(ns)]
    if target > 0:
        eps = _REL_EPS * max(1.0, target)
        inf = float("inf")
        # nodes: 0..ns-1 supply bins, ns..ns+nd-1 demand bins, then the sink;
        # the source stays implicit (its potential never leaves 0)
        sink = ns + nd
        potential = [0.0] * (sink + 1)
        shipped = 0.0
        while target - shipped > eps:
            # a supply bin keeps potential 0 while it has supply left, so its
            # reduced cost from the source is 0; pred -1 marks the source
            dist = [0.0 if rs[i] > eps else inf for i in range(ns)] + [inf] * (nd + 1)
            pred = [-1] * (sink + 1)
            unsettled = list(range(sink + 1))
            while True:
                # lowest index wins ties, as in a plain scan
                u = min(unsettled, key=dist.__getitem__)
                best = dist[u]
                if u == sink or best == inf:
                    break
                unsettled.remove(u)
                pu = potential[u]
                if u < ns:
                    row = c[u]
                    for w in unsettled:
                        if ns <= w < sink:
                            # reduced costs are >= 0 up to float rounding; clamp the noise
                            r = row[w - ns] + pu - potential[w]
                            through = best + r if r > 0.0 else best
                            if through < dist[w]:
                                dist[w] = through
                                pred[w] = u
                else:
                    j = u - ns
                    for w in unsettled:
                        if w < ns:
                            if flow[w][j] > eps:
                                r = -c[w][j] + pu - potential[w]
                                through = best + r if r > 0.0 else best
                                if through < dist[w]:
                                    dist[w] = through
                                    pred[w] = u
                        elif w == sink and rd[j] > eps:
                            r = pu - potential[sink]
                            through = best + r if r > 0.0 else best
                            if through < dist[sink]:
                                dist[sink] = through
                                pred[sink] = u
            reach = dist[sink]
            if reach == inf:
                raise RuntimeError("transport target unreachable")
            potential = [p + (d if d < reach else reach) for p, d in zip(potential, dist)]

            # walk back from the sink: forward arcs supply -> demand, backward
            # arcs demand -> supply along shipped flow
            last = pred[sink] - ns
            bottleneck = min(target - shipped, rd[last])
            forward, backward = [], []
            w = pred[sink]
            while w >= 0:
                i = pred[w]
                forward.append((i, w - ns))
                w = pred[i]
                if w >= 0:
                    backward.append((i, w - ns))
                    bottleneck = min(bottleneck, flow[i][w - ns])
            first = forward[-1][0]
            bottleneck = min(bottleneck, rs[first])
            for i, j in forward:
                flow[i][j] += bottleneck
            for i, j in backward:
                flow[i][j] -= bottleneck
            rs[first] -= bottleneck
            rd[last] -= bottleneck
            shipped += bottleneck

    arcs = [(i, j, amt) for i, row in enumerate(flow) for j, amt in enumerate(row) if amt > 0]
    return FlowSolution(
        flows=tuple((int(si[i]), int(dj[j]), amt) for i, j, amt in arcs),
        cost=float(sum(amt * c[i][j] for i, j, amt in arcs)),
    )

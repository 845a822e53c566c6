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
or sink that fills its cheapest partners first is optimal.

An optimality check comes before the search. It sets node potentials pi
along the plan's shipped cells and loaded slack arcs, pi[v] = pi[u] + w
across each. A cell ships until its supply, its demand or the target
runs out, and a bin that has run out ships nothing more; so, taking the
slack arcs first and then the cells in the reverse of their shipping
order, every arc but the first reaches a bin without a potential, and no
potential ever moves. A supply bin that starts a new part takes the
least potential that prices its arcs to the bins priced so far at >= 0.
When these potentials price every residual arc at pi[u] + w - pi[v] >= 0,
every cycle costs the sum of its arcs' prices, at least 0, so the first
search would find no cycle, and the plan is kept as it is. Otherwise the
canceling runs as above; either way the result is bit for bit what it
would be without the check.

Rounding cannot make the check accept what the search would refuse.
Every potential is, up to rounding, a signed sum of at most n costs (n
nodes, C the largest cost), so each arc's price is off by at most an ulp
of n * C and a cycle of at most n arcs by n^2 * 2^-52 * C; the search
reports a cycle only below -tol, and its own sums round by as much. The
check runs on graphs of at most _PRICED_NODES = 24 nodes, where the two
errors together stay under a third of tol; on integer costs, such as
emd_hat's saturated bin distance, its arithmetic is exact.

Both steps run on Python lists taken once from the inputs, which beat
numpy calls at histogram size (tens of bins); two lists of Python floats
are read as they are. Nothing is approximated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from operator import add, ge

import numpy as np

__all__ = ["FlowSolution", "min_cost_transport"]

_REL_EPS = 1e-12
# the largest graph, slack nodes included, that the optimality check prices
_PRICED_NODES = 24


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
    Two lists of Python floats are read as they are; other masses are converted.
    """
    if type(supply) is list and type(demand) is list and set(map(type, supply + demand)) == {float}:
        a, b = supply, demand  # read, never written
    else:
        a, b = _float_list(supply), _float_list(demand)
    cost = np.asarray(cost, dtype=np.float64)
    if a is None or b is None or cost.shape != (len(a), len(b)):
        raise ValueError("cost matrix shape must be (len(supply), len(demand))")
    si = [i for i, x in enumerate(a) if x > 0]
    dj = [j for j, x in enumerate(b) if x > 0]
    width = len(b)
    sub = cost.take([i * width + j for i in si for j in dj]).tolist()  # (ns, nd) row-major
    total_a, total_b = sum(a), sum(b)
    # min misses a nan that is not first, but every sum catches it, and any inf
    if min(a + b + sub, default=0.0) < 0 or not total_a + total_b + sum(sub) < np.inf:
        raise ValueError("supplies, demands and costs must be finite and >= 0")
    rs, rd = [a[i] for i in si], [b[j] for j in dj]  # supply and demand left
    ns, nd = len(rs), len(rd)
    target = min(total_a, total_b)  # zero bins add nothing to a float sum
    eps, left = _REL_EPS * target, target
    cells, tails, heads = _cells(ns, nd)
    flows = []  # (i, j, amount), cheapest cell first
    order = sorted(range(ns * nd), key=sub.__getitem__)  # stable: (cost, i, j) order
    for i, j in map(cells.__getitem__, order):
        if left <= eps:
            break
        # left > 0 here, so the amount is positive exactly when both bins have mass left
        x = rs[i]
        if x > 0:
            y = rd[j]
            if y > 0:
                amount = y if y < x else x  # min(x, y, left), inline
                if left < amount:
                    amount = left
                flows.append((i, j, amount))
                rs[i] = x - amount
                rd[j] = y - amount
                left -= amount
    # only the side with mass left over has its slack node in the graph
    spare_s, spare_d = sum(rs) > eps, sum(rd) > eps
    # with one bin on a side the plan is already optimal; the check may show it is
    if ns > 1 and nd > 1 and not (
        ns + nd + 2 <= _PRICED_NODES
        and _priced_optimal(flows, rs, rd, spare_s, spare_d, sub, eps, tails, heads)
    ):
        # nodes: supply bins 0..ns-1, demand bins ns..ns+nd-1, and the slack
        # nodes of unused supply and unmet demand; arcs carry cost and mass
        unused, unmet = ns + nd, ns + nd + 1
        cost_of = dict(zip(product(range(ns), range(ns, ns + nd)), sub))
        mass = {(i, ns + j): m for i, j, m in flows}
        if spare_s:
            cost_of.update(((i, unused), 0.0) for i in range(ns))
            mass.update(((i, unused), r) for i, r in enumerate(rs))
        if spare_d:
            cost_of.update(((unmet, ns + j), 0.0) for j in range(nd))
            mass.update(((unmet, ns + j), r) for j, r in enumerate(rd))
        _cancel_negative_cycles(mass, cost_of, ns + nd + 2, eps, _REL_EPS * max(sub))
        flows = [(u, v - ns, m) for (u, v), m in mass.items() if u < ns and v < unused and m > 0]
    flows.sort()
    return FlowSolution(
        flows=tuple([(si[i], dj[j], m) for i, j, m in flows]),
        cost=float(sum([m * sub[i * nd + j] for i, j, m in flows])),
    )


def _float_list(masses):
    """masses converted to a list of Python floats, or None when they are not 1-D."""
    masses = np.asarray(masses, dtype=np.float64)
    return masses.tolist() if masses.ndim == 1 else None


def _priced_optimal(flows, rs, rd, spare_s, spare_d, sub, eps, tails, heads) -> bool:
    """Whether potentials set along the plan's shipped arcs price every residual arc at >= 0.

    flows is the cheapest-first plan over the (ns, nd) row-major costs sub,
    in shipping order; rs and rd are the supply and demand it leaves, and
    spare_s and spare_d whether each side's slack node is in the graph.
    tails and heads are each cell's supply and demand node.
    """
    ns, nd = len(rs), len(rd)
    unused, unmet = ns + nd, ns + nd + 1
    # the slack arcs first, then the cells last shipped first: every arc but
    # the first reaches a bin without a potential (see the module docstring)
    shipped = []
    if spare_s:
        shipped += [(i, unused, 0.0, r) for i, r in enumerate(rs) if r > eps]
    if spare_d:
        shipped += [(unmet, j, 0.0, r) for j, r in enumerate(rd, ns) if r > eps]
    shipped += [(i, ns + j, sub[i * nd + j], m) for i, j, m in reversed(flows)]
    pi = [None] * (ns + nd) + [0.0, 0.0]
    pi[shipped[0][0]] = 0.0  # the first part starts from 0
    for u, v, w, m in shipped:
        p, q = pi[u], pi[v]
        if q is None:
            if p is None:  # a new part: u's least potential over its arcs to priced bins
                row = sub[u * nd : u * nd + nd]
                least = [x - c for x, c in zip(pi[ns:unused], row) if x is not None]
                if spare_s:
                    least.append(pi[unused])
                pi[u] = p = max(least, default=0.0)
            pi[v] = p + w
        elif p is None:
            pi[u] = q - w
        elif m > eps and p + w != q:  # a loaded arc has a backward arc at -w
            return False
    if None in pi:  # a bin that ships nothing
        pi = [0.0 if x is None else x for x in pi]
    # the slack nodes' forward arcs, at cost 0
    if spare_s and min(pi[:ns]) < pi[unused] or spare_d and max(pi[ns:unused]) > pi[unmet]:
        return False
    return all(map(ge, map(add, map(pi.__getitem__, tails), sub), map(pi.__getitem__, heads)))


@functools.lru_cache(maxsize=256)
def _cells(ns, nd):
    """The (i, j) of each of the ns * nd cells, row-major, and its supply and demand node."""
    cells = tuple([divmod(k, nd) for k in range(ns * nd)])
    return cells, tuple([i for i, _ in cells]), tuple([ns + j for _, j in cells])


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

import numpy as np
import pytest
from scipy.optimize import linprog

import saleval.flow as flow
from flow_reference import min_cost_transport as reference_transport
from saleval.flow import FlowSolution, min_cost_transport

nan, inf = float("nan"), float("inf")


def _lp_reference(supply, demand, cost):
    ns, nd = cost.shape
    row = np.zeros((ns, ns * nd))
    col = np.zeros((nd, ns * nd))
    for i in range(ns):
        row[i, i * nd : (i + 1) * nd] = 1.0
    for j in range(nd):
        col[j, j::nd] = 1.0
    res = linprog(
        cost.ravel(),
        A_ub=np.vstack([row, col]),
        b_ub=np.concatenate([supply, demand]),
        A_eq=np.ones((1, ns * nd)),
        b_eq=[min(supply.sum(), demand.sum())],
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun


def test_single_move():
    sol = min_cost_transport([1.0], [1.0], [[3.0]])
    assert sol.cost == 3.0
    assert sol.flows == ((0, 0, 1.0),)


def test_zero_mass():
    sol = min_cost_transport([0.0, 0.0], [1.0], [[1.0], [1.0]])
    assert sol.cost == 0.0
    assert sol.flows == ()


def test_prefers_cheap_route():
    # supply 0 should go to demand 1 (cost 1), not demand 0 (cost 5)
    sol = min_cost_transport([1.0], [1.0, 1.0], [[5.0, 1.0]])
    assert sol.cost == 1.0


def test_flow_conservation_constraints():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ns, nd = rng.integers(1, 7, 2)
        supply = rng.random(ns) * 3
        demand = rng.random(nd) * 3
        cost = rng.random((ns, nd)) * 4
        sol = min_cost_transport(supply, demand, cost)
        flow = np.zeros((ns, nd))
        for i, j, amt in sol.flows:
            assert amt > 0
            flow[i, j] = amt
        assert (flow.sum(axis=1) <= supply + 1e-9).all()
        assert (flow.sum(axis=0) <= demand + 1e-9).all()
        target = min(supply.sum(), demand.sum())
        assert flow.sum() == pytest.approx(target, abs=1e-9)


def _emd_residual_instances(rng, count):
    # what emd_hat hands the solver: 16-bin masses with the overlap removed
    # (disjoint supports, many zero-mass bins) and min(|i-j|, T) costs, whose
    # small integer values tie often; T runs over 1..8 and every fourth pair
    # has unequal totals
    idx = np.arange(16)
    for k in range(count):
        saturation = 1 + k % 8
        cost = np.minimum(np.abs(idx[:, None] - idx[None, :]), saturation).astype(float)
        if k % 2:  # count histograms, as the shuffled metrics build them
            a, b = rng.integers(0, 6, (2, 16)) / 20.0
        else:
            a, b = rng.random((2, 16)) * (rng.random((2, 16)) < 0.5)
        if k % 4 == 3:
            b = b * rng.uniform(0.3, 3.0)
        overlap = np.minimum(a, b)
        yield a - overlap, b - overlap, cost


def _generic_instances(rng, count):
    # any shape up to 8 x 8, unequal totals, some zero-mass bins, and costs
    # that are either small tied integers or generic reals
    for k in range(count):
        ns, nd = rng.integers(1, 9, 2)
        supply = rng.random(ns) * rng.integers(1, 4) * (rng.random(ns) < 0.8)
        demand = rng.random(nd) * rng.integers(1, 4) * (rng.random(nd) < 0.8)
        if k % 2:
            cost = rng.integers(0, 6, (ns, nd)).astype(float)
        else:
            cost = rng.random((ns, nd)) * 4
        yield supply, demand, cost


def _check_plan(sol, supply, demand, cost):
    flow = np.zeros(cost.shape)
    for i, j, amt in sol.flows:
        # sparse: positive amounts, each arc once, only between bins with mass
        assert amt > 0 and flow[i, j] == 0 and supply[i] > 0 and demand[j] > 0
        flow[i, j] = amt
    assert (flow.sum(axis=1) <= supply + 1e-12).all()
    assert (flow.sum(axis=0) <= demand + 1e-12).all()
    assert flow.sum() == pytest.approx(min(supply.sum(), demand.sum()), abs=1e-12)
    assert sol.cost == pytest.approx((flow * cost).sum(), abs=1e-12)


def test_matches_lp_on_random_instances():
    rng = np.random.default_rng(3)
    instances = [*_generic_instances(rng, 1500), *_emd_residual_instances(rng, 1500)]
    for supply, demand, cost in instances:
        sol = min_cost_transport(supply, demand, cost)
        assert sol.cost == pytest.approx(_lp_reference(supply, demand, cost), abs=1e-9)
        _check_plan(sol, supply, demand, cost)


@pytest.fixture
def check_answers(monkeypatch):
    """Every answer of the optimality check that precedes the cycle search, in call order."""
    answers = []
    real = flow._priced_optimal

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(flow, "_priced_optimal", spy)
    return answers


def test_cancels_the_cycle_a_cheapest_first_plan_leaves(check_answers):
    # cheapest first ships (0, 0) and then must ship (1, 1) at 10: cost 11
    sol = min_cost_transport([1.0, 1.0], [1.0, 1.0], [[1.0, 2.0], [1.0, 10.0]])
    assert sol.cost == 3.0
    assert sol.flows == ((0, 1, 1.0), (1, 0, 1.0))
    assert check_answers == [False]  # the plan is not optimal, so the search runs


@pytest.mark.parametrize("transpose", [False, True])
def test_the_excess_stays_at_the_dearest_bin(transpose, check_answers):
    # three supply bins for two demand bins: cheapest first leaves bin 1
    # unused and ships from bin 2 at 9; the optimum swaps bin 1 in and
    # leaves bin 2, the dearest, with all of its mass
    supply, demand = np.ones(3), np.ones(2)
    cost = np.array([[1.0, 2.0], [1.0, 10.0], [9.0, 9.0]])
    if transpose:  # the same instance with unmet demand instead of unused supply
        supply, demand, cost = demand, supply, cost.T
    sol = min_cost_transport(supply, demand, cost)
    assert sol.cost == 3.0
    flows = {(j, i) if transpose else (i, j): amt for i, j, amt in sol.flows}
    assert flows == {(0, 1): 1.0, (1, 0): 1.0}
    assert check_answers == [False]


@pytest.mark.parametrize(
    "supply, demand, cost",
    [
        # cheapest first ships (0, 0) and (2, 1) at 0; the part that supply 0
        # starts must not be priced below the unused-supply node
        ([1.0, 3.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [3.0, 2.0], [2.0, 0.0]]),
        # (0, 0) and (1, 1) each empty both of their bins, so the plan falls in
        # two parts; supply 0's part is priced against demand 1, not from 0
        ([1.0, 1.0], [1.0, 1.0], [[1.0, 2.0], [2.0, 3.0]]),
    ],
)
def test_the_check_accepts_optimal_plans_in_parts(supply, demand, cost, check_answers):
    sol = min_cost_transport(supply, demand, cost)
    lp = _lp_reference(np.array(supply), np.array(demand), np.array(cost))
    assert sol.cost == pytest.approx(lp, abs=1e-12)
    assert check_answers == [True]


def test_the_check_accepts_optimal_cheapest_first_plans(check_answers):
    rng = np.random.default_rng(33)
    for supply, demand, cost in _emd_residual_instances(rng, 200):
        sol = min_cost_transport(supply, demand, cost)
        assert sol.cost == pytest.approx(_lp_reference(supply, demand, cost), abs=1e-9)
    assert True in check_answers and False in check_answers


def test_tiny_masses_and_tied_costs_terminate():
    # masses near 1e-13 solve as the same instance at unit scale, and tied
    # costs, where every plan or many plans cost the same, end the canceling
    rng = np.random.default_rng(4)
    for k in range(200):
        ns, nd = rng.integers(1, 9, 2)
        supply = rng.random(ns) * (rng.random(ns) < 0.8)
        demand = rng.random(nd) * (rng.random(nd) < 0.8)
        if k % 2:
            cost = np.full((ns, nd), float(k % 3))
        else:
            cost = rng.integers(0, 3, (ns, nd)).astype(float)
        sol = min_cost_transport(supply, demand, cost)
        assert sol.cost == pytest.approx(_lp_reference(supply, demand, cost), abs=1e-9)
        tiny = min_cost_transport(supply * 1e-13, demand * 1e-13, cost)
        assert tiny.cost == pytest.approx(sol.cost * 1e-13, rel=1e-9, abs=0)
        flow = np.zeros(cost.shape)
        for i, j, amt in tiny.flows:
            flow[i, j] = amt
        total = min(supply.sum(), demand.sum()) * 1e-13
        assert flow.sum() == pytest.approx(total, rel=1e-9, abs=0)
        assert (flow.sum(axis=1) <= supply * 1e-13 * (1 + 1e-12)).all()
        assert (flow.sum(axis=0) <= demand * 1e-13 * (1 + 1e-12)).all()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        min_cost_transport([-1.0], [1.0], [[1.0]])
    with pytest.raises(ValueError):
        min_cost_transport([1.0], [1.0], [[-1.0]])
    with pytest.raises(ValueError):
        min_cost_transport([1.0, 2.0], [1.0], [[1.0]])


@pytest.mark.parametrize(
    "supply, demand, cost",
    [
        ([nan, 1.0], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),  # a nan bin, not just dropped
        ([1.0, nan], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),
        ([1.0, 1.0], [1.0, nan], [[0.0, 1.0], [1.0, 0.0]]),
        ([inf, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),
        ([1.0, 1.0], [1.0, -inf], [[0.0, 1.0], [1.0, 0.0]]),
        ([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [nan, 0.0]]),  # a nan cost
        ([1.0, 1.0], [1.0, 1.0], [[nan, 1.0], [1.0, 0.0]]),
        ([1.0, 1.0], [1.0, 1.0], [[0.0, inf], [1.0, 0.0]]),
        ([1.0], [1.0, 1.0], [[2.0, -1.0]]),
    ],
)
def test_rejects_non_finite_and_negative_values(supply, demand, cost):
    with pytest.raises(ValueError, match="finite and >= 0"):
        min_cost_transport(supply, demand, cost)


def _bits(sol):
    # a FlowSolution down to the bits of every float
    return [(i, j, m.hex()) for i, j, m in sol.flows], float(sol.cost).hex()


def _reference_cases(rng):
    for supply, demand, cost in _generic_instances(rng, 600):  # tied integer and float costs
        yield supply, demand, cost
        yield supply * rng.uniform(0.2, 5.0), demand, cost  # unbalanced totals
    yield from _emd_residual_instances(rng, 1200)  # zero bins, disjoint supports, ties
    for k in range(400):  # one bin with mass on one side, or on both
        ns, nd = rng.integers(1, 9, 2)
        supply = rng.random(ns) * (rng.random(ns) < 0.7)
        demand = rng.random(nd) * (rng.random(nd) < 0.7)
        lone = supply if k % 2 else demand
        lone[:] = 0.0
        lone[rng.integers(lone.size)] = rng.uniform(0.1, 4.0)
        if k % 5 == 0:
            supply[:] = 0.0
            supply[rng.integers(ns)] = rng.uniform(0.1, 4.0)
        if k % 3:
            cost = rng.integers(0, 4, (ns, nd)).astype(float)
        else:
            cost = rng.random((ns, nd)) * 4
        yield supply, demand, cost


def test_matches_the_numpy_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    count = 0
    for supply, demand, cost in _reference_cases(rng):
        assert _bits(min_cost_transport(supply, demand, cost)) == _bits(
            reference_transport(supply, demand, cost)
        )
        count += 1
    assert count == 2800


def test_the_check_refuses_a_loaded_arc_it_cannot_price_at_zero():
    # a plan whose shipped cells close a cycle: (1, 1) ships at 5 where its
    # cycle prices it at 0, so its backward arc at -5 closes a negative cycle
    _, tails, heads = flow._cells(2, 2)
    plan = [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]
    args = (plan, [0.0, 0.0], [0.0, 0.0], False, False)
    assert not flow._priced_optimal(*args, [0.0, 0.0, 0.0, 5.0], 1e-12, tails, heads)
    assert flow._priced_optimal(*args, [0.0, 0.0, 0.0, 0.0], 1e-12, tails, heads)


def test_the_check_prices_the_arcs_into_the_unused_supply_node():
    # supply 0 ships to demand 0 at 5 while supply 1, with mass to spare,
    # ships there at 1: the cycle 0 -> unused -> 1 -> demand 0 -> 0 costs -4,
    # and only the arc from supply 0 into the unused-supply node prices below 0
    _, tails, heads = flow._cells(2, 2)
    plan = [(0, 0, 0.5), (1, 0, 0.5)]
    args = (plan, [0.0, 1.0], [0.0, 0.0], True, False)
    assert not flow._priced_optimal(*args, [5.0, 9.0, 1.0, 9.0], 1e-12, tails, heads)
    assert flow._priced_optimal(*args, [1.0, 9.0, 1.0, 9.0], 1e-12, tails, heads)


def test_forcing_the_cycle_search_changes_no_bit(monkeypatch):
    cases = list(_reference_cases(np.random.default_rng(31)))
    checked = [_bits(min_cost_transport(*case)) for case in cases]
    monkeypatch.setattr(flow, "_priced_optimal", lambda *args: False)
    assert [_bits(min_cost_transport(*case)) for case in cases] == checked


def test_semd_rows_match_the_numpy_reference_bit_for_bit(semd_rows, check_answers):
    for supply, demand, cost in semd_rows:
        assert type(supply) is list and type(demand) is list
        assert _bits(min_cost_transport(supply, demand, cost)) == _bits(
            reference_transport(supply, demand, cost)
        )
    # both ways through the check are taken
    assert True in check_answers and False in check_answers


def test_a_list_of_floats_solves_as_the_equal_array():
    rng = np.random.default_rng(34)
    for supply, demand, cost in [*_generic_instances(rng, 100), *_emd_residual_instances(rng, 100)]:
        as_lists = min_cost_transport(supply.tolist(), demand.tolist(), cost)
        assert _bits(as_lists) == _bits(min_cost_transport(supply, demand, cost))
    # a list of ints is converted, so its flows and cost are floats
    sol = min_cost_transport([2, 1], [1, 2], [[1, 2], [3, 1]])
    assert sol.flows == ((0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)) and sol.cost == 4.0
    assert all(type(m) is float for _, _, m in sol.flows) and type(sol.cost) is float


def test_a_one_bin_side_needs_no_cycle_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("Bellman-Ford ran on a one-bin side")

    monkeypatch.setattr(flow, "_negative_cycle", refuse)
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = rng.integers(1, 9)
        many = rng.random(n) * (rng.random(n) < 0.8)
        cost = rng.integers(0, 4, (1, n)).astype(float)
        one = [rng.uniform(0.1, 4.0)]
        for supply, demand, c in ((one, many, cost), (many, one, cost.T)):
            sol = min_cost_transport(supply, demand, c)
            assert sol.cost == pytest.approx(_lp_reference(np.array(supply), np.array(demand), c), abs=1e-9)
            assert _bits(sol) == _bits(reference_transport(supply, demand, c))
    # a zero target needs none either
    assert min_cost_transport([0.0, 0.0], [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]]).flows == ()


def test_solution_is_frozen_record():
    sol = min_cost_transport([1.0], [1.0], [[0.0]])
    assert isinstance(sol, FlowSolution)
    with pytest.raises(AttributeError):
        sol.cost = 5.0

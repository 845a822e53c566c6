"""The exact DP behind emd_hat, called directly on lists of masses.

The LP cross-check through emd_hat stops at the oracle's 8 bins; these
tests price the DP against hand-worked plans, closed forms that hold at any
bin count, the properties of an optimal transport cost, and a saturated LP
on 16-bin rows of the k/n masses SEMD bins.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from saleval.flow import min_cost_transport


def _integer_masses(rng, bins, high=4):
    """A list of integer-valued floats with about a third of the bins empty."""
    return [float(m) for m in rng.integers(0, high, bins) * (rng.random(bins) < 0.7)]


def _equal_totals(rng, bins):
    """Two integer-valued mass lists with the same nonzero total."""
    a = _integer_masses(rng, bins)
    a[rng.integers(bins)] += 1.0
    b = [0.0] * bins
    for _ in range(int(sum(a))):
        b[rng.integers(bins)] += 1.0
    return a, b


def _saturated_lp(supply, demand, saturation):
    """Least cost of moving min(sum supply, sum demand) under min(|i - j|, saturation), by linprog."""
    bins = len(supply)
    idx = np.arange(bins)
    cost = np.minimum(np.abs(idx[:, None] - idx[None, :]), saturation).astype(float)
    row = np.zeros((bins, bins * bins))
    col = np.zeros((bins, bins * bins))
    for i in range(bins):
        row[i, i * bins : (i + 1) * bins] = 1.0
        col[i, i::bins] = 1.0
    res = linprog(
        cost.ravel(),
        A_ub=np.vstack([row, col]),
        b_ub=np.concatenate([supply, demand]),
        A_eq=np.ones((1, bins * bins)),
        b_eq=[min(sum(supply), sum(demand))],
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun


@pytest.mark.parametrize(
    "supply, demand, saturation, cost",
    [
        ([1.0, 0.0], [0.0, 1.0], 5, 1.0),
        ([1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], 2, 2.0),
        ([1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], 4, 4.0),
        ([1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], 8, 4.0),
        ([0.0, 0.0], [0.0, 0.0], 1, 0.0),
        ([3.0], [1.0], 2, 0.0),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 3, 0.0),
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 2, 0.0),
        ([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], 5, 1.0),
        ([0.0, 1.0, 0.0], [1.0, 0.0, 1.0], 5, 1.0),
        ([2.0, 0.0, 0.0], [0.0, 1.0, 1.0], 5, 3.0),
        ([0.0, 0.0, 3.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0], 5, 4.0),
        ([0.0, 0.0, 3.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0], 1, 2.0),
        ([1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], 5, 2.0),
        ([0.5, 0.25, 0.25], [0.25, 0.25, 0.5], 2, 0.5),
    ],
    ids=[
        "one-step",
        "long-move-saturated",
        "long-move-at-its-distance",
        "long-move-under-a-higher-cap",
        "no-mass",
        "one-bin",
        "equal-histograms",
        "all-zero-supply",
        "supply-surplus-left-behind",
        "demand-surplus-left-behind",
        "split-supply",
        "middle-to-both-ends",
        "every-move-capped-at-one",
        "crossing-pairs",
        "dyadic-fractions",
    ],
)
def test_hand_worked_costs(supply, demand, saturation, cost):
    assert min_cost_transport(supply, demand, saturation) == cost


@pytest.mark.parametrize("bins", [2, 3, 5, 8, 16, 32])
def test_an_unreached_cap_leaves_the_cumulative_l1_distance(bins):
    # with equal totals and T >= bins - 1, min(|i - j|, T) = |i - j| and the
    # 1-D transport costs sum_k |C_k|, past the LP oracle's 8 bins too
    rng = np.random.default_rng(bins)
    for _ in range(20):
        a, b = _equal_totals(rng, bins)
        cum = np.cumsum(np.subtract(a, b))
        for saturation in (bins - 1, bins, 2 * bins):
            assert min_cost_transport(a, b, saturation) == np.abs(cum).sum(), (a, b, saturation)


@pytest.mark.parametrize("bins", [2, 5, 16, 32])
def test_a_cap_of_one_costs_the_mass_that_changes_bin(bins):
    # every move between bins costs 1, so the cost is the shipped mass
    # min(sum a, sum b) less what each bin keeps, sum min(a_i, b_i)
    rng = np.random.default_rng(100 + bins)
    for _ in range(20):
        a, b = _integer_masses(rng, bins), _integer_masses(rng, bins)
        kept = sum(map(min, a, b))
        assert min_cost_transport(a, b, 1) == min(sum(a), sum(b)) - kept, (a, b)


@pytest.mark.parametrize("saturation", [1, 2, 5])
def test_swapping_supply_and_demand_keeps_the_cost(saturation):
    rng = np.random.default_rng(saturation)
    for bins in range(1, 17):
        a, b = _integer_masses(rng, bins), _integer_masses(rng, bins)
        assert min_cost_transport(a, b, saturation) == min_cost_transport(b, a, saturation), (a, b)


@pytest.mark.parametrize("saturation", [1, 2, 5])
def test_mirrored_bins_keep_the_cost(saturation):
    rng = np.random.default_rng(10 + saturation)
    for bins in range(1, 17):
        a, b = _integer_masses(rng, bins), _integer_masses(rng, bins)
        mirrored = min_cost_transport(a[::-1], b[::-1], saturation)
        assert mirrored == min_cost_transport(a, b, saturation), (a, b)


@pytest.mark.parametrize("saturation", [1, 2, 5])
def test_doubling_every_mass_doubles_the_cost(saturation):
    rng = np.random.default_rng(20 + saturation)
    for bins in range(1, 17):
        a, b = _integer_masses(rng, bins), _integer_masses(rng, bins)
        doubled = min_cost_transport([2 * m for m in a], [2 * m for m in b], saturation)
        assert doubled == 2 * min_cost_transport(a, b, saturation), (a, b)


def test_the_cost_grows_with_the_cap_until_no_move_reaches_it():
    rng = np.random.default_rng(30)
    for bins in range(2, 17):
        a, b = _integer_masses(rng, bins), _integer_masses(rng, bins)
        costs = [min_cost_transport(a, b, t) for t in range(1, bins + 3)]
        assert costs == sorted(costs), (a, b, costs)
        assert len(set(costs[bins - 2 :])) == 1, (a, b, costs)


def test_equal_totals_satisfy_the_triangle_inequality():
    # the saturated bin distance is a metric, so its transport cost between
    # histograms of one total is one too
    rng = np.random.default_rng(40)
    for bins in range(2, 17):
        a, b = _equal_totals(rng, bins)
        c = b[:]
        rng.shuffle(c)
        for saturation in (1, 2, 5):
            via_b = min_cost_transport(a, b, saturation) + min_cost_transport(b, c, saturation)
            assert min_cost_transport(a, c, saturation) <= via_b, (a, b, c, saturation)


def test_the_cost_is_a_python_float():
    assert type(min_cost_transport([1.0, 0.0, 2.0], [0.0, 2.0, 0.0], 2)) is float


@pytest.mark.parametrize("saturation", [1, 5, 15])
def test_matches_a_saturated_lp_on_sixteen_bin_rows(saturation):
    # masses k/n over n fixations, as SEMD bins them; emptying one of b's
    # bins leaves the totals unequal
    rng = np.random.default_rng(50 + saturation)
    for _ in range(8):
        n_a, n_b = rng.integers(10, 40, 2)
        a = (np.bincount(rng.integers(0, 16, n_a), minlength=16) / n_a).tolist()
        b = (np.bincount(rng.integers(0, 16, n_b), minlength=16) / n_b).tolist()
        b[int(rng.integers(16))] = 0.0
        for p, q in ((a, b), (b, a), (a, a[::-1])):
            assert abs(min_cost_transport(p, q, saturation) - _saturated_lp(p, q, saturation)) <= 1e-12, (p, q)

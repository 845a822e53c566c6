import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from saleval import metrics_fixation
from saleval.errors import DegenerateInputError
from saleval.maps import (
    FixationSet,
    centered_gaussian_baseline,
    density_from_fixations,
    invert_map,
    prepare,
)
from saleval.metrics_fixation import (
    _GRID,
    _grid_buckets,
    _sample_auc_rows,
    auc_f,
    auc_pair_oracle,
    auc_s,
    cc,
    nss,
    sauc,
    sim,
    snss,
)
from saleval.metrics_histogram import sskld
from saleval.shuffle import (
    TrialPlan,
    build_shuffle_bank,
    shuffled_draws,
    shuffled_negative_trials,
    uniform_draws,
    uniform_negative_trials,
)


def _blob_setup(seed=0):
    """Two-image toy dataset with well separated fixation clusters."""
    rng = np.random.default_rng(seed)
    frame = (32, 24)
    fix_a = FixationSet("a", np.column_stack([rng.integers(4, 9, 12), rng.integers(4, 9, 12)]), frame)
    fix_b = FixationSet("b", np.column_stack([rng.integers(24, 29, 12), rng.integers(16, 21, 12)]), frame)
    bank = build_shuffle_bank([fix_a, fix_b], frame)
    g = density_from_fixations(fix_a, 4.0)
    return fix_a, fix_b, bank, g


def test_cc_self_and_inverse():
    _, _, _, g = _blob_setup()
    assert cc(g, g) == pytest.approx(1.0)
    assert cc(invert_map(g), g) == pytest.approx(-1.0)


def test_cc_affine_invariant():
    rng = np.random.default_rng(4)
    s = rng.random((10, 10))
    g = rng.random((10, 10))
    assert abs(cc(3.7 * s + 0.2, g) - cc(s, g)) < 1e-9


def test_cc_degenerate_raises():
    with pytest.raises(DegenerateInputError):
        cc(np.full((4, 4), 0.5), np.random.default_rng(0).random((4, 4)))


def _float64_edge_setup():
    """A 16x12 two-image bank, a trial plan and a density-like map for the float64-range tests."""
    rng = np.random.default_rng(3)
    frame = (16, 12)
    sets = [
        FixationSet(name, np.column_stack((rng.integers(0, 16, 6), rng.integers(0, 12, 6))), frame)
        for name in "ab"
    ]
    plan = TrialPlan(num_trials=4, master_seed=1)
    return sets[0], build_shuffle_bank(sets, frame), plan, rng.random((12, 16))


def test_a_map_whose_variance_underflows_is_degenerate():
    # the centred squares underflow to 0: cc read 1.0 (inf clipped), nss inf
    s = np.array([[1e-170, 2e-170, 0.0, 1e-170]])
    with pytest.raises(DegenerateInputError, match="map variance underflows float64 in cc"):
        cc(s, np.array([[0.1, 0.9, 0.5, 0.2]]))
    with pytest.raises(DegenerateInputError, match="map variance underflows float64 in nss"):
        nss(s, FixationSet("a", np.array([[1, 0]]), (4, 1)))
    fix, bank, plan, g = _float64_edge_setup()
    tiny = np.random.default_rng(5).random((12, 16)) * 1e-170
    with pytest.raises(DegenerateInputError, match="underflows float64 in cc"):
        cc(tiny, g)
    with pytest.raises(DegenerateInputError, match="underflows float64 in nss"):
        nss(tiny, fix)
    with pytest.raises(DegenerateInputError, match="underflows float64 in snss"):
        snss(tiny, fix, bank, plan)
    with pytest.raises(DegenerateInputError, match="underflows float64 in sskld"):
        sskld(tiny, fix, bank, plan)


def test_a_map_whose_variance_overflows_is_degenerate():
    # the centred squares overflow to inf: cc and nss read -0.0, where the
    # true NSS at the 0-valued fixation is -1
    s = np.array([[1e200, 0.0, 1e200, 0.0]])
    with pytest.raises(DegenerateInputError, match="map variance overflows float64 in cc"):
        cc(s, np.array([[0.1, 0.9, 0.5, 0.2]]))
    with pytest.raises(DegenerateInputError, match="map variance overflows float64 in nss"):
        nss(s, FixationSet("a", np.array([[1, 0]]), (4, 1)))
    fix, bank, plan, g = _float64_edge_setup()
    huge = np.where(np.indices((12, 16)).sum(axis=0) % 2, 1e200, 0.0)
    with pytest.raises(DegenerateInputError, match="overflows float64 in cc"):
        cc(huge, g)
    with pytest.raises(DegenerateInputError, match="overflows float64 in nss"):
        nss(huge, fix)
    with pytest.raises(DegenerateInputError, match="overflows float64 in snss"):
        snss(huge, fix, bank, plan)
    # sskld refuses the unnormalized map before it reads the variance
    with pytest.raises(ValueError, match="sskld expects a normalized map"):
        sskld(huge, fix, bank, plan)


def test_a_map_whose_sum_overflows_is_degenerate_without_a_warning():
    # the mean is inf, so the variance is too; the sum used to warn on the way
    s = np.array([[1.7e308, 1.7e308, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="map variance overflows float64 in nss"):
            nss(s, FixationSet("a", np.array([[2, 0]]), (4, 1)))
        with pytest.raises(DegenerateInputError, match="map variance overflows float64 in cc"):
            cc(s, np.array([[0.1, 0.9, 0.5, 0.2]]))


def test_cc_refuses_a_denominator_that_leaves_float64():
    # each map's variance is a normal float64, their product is not: at
    # 1e-80 it is subnormal, and cc read 0.3262622 for 0.3262577
    rng = np.random.default_rng(6)
    s, g = rng.random((6, 5)), rng.random((6, 5))
    for scale, cause in ((1e-80, "underflows"), (1e90, "overflows")):
        with pytest.raises(DegenerateInputError, match=f"denominator {cause} float64 in cc"):
            cc(s * scale, g * scale)


def test_cc_shape_mismatch():
    with pytest.raises(ValueError):
        cc(np.ones((2, 2)), np.ones((3, 3)))


def test_sim_identical_is_one():
    _, _, _, g = _blob_setup()
    assert sim(g, g) == pytest.approx(1.0)


def test_sim_disjoint_ranges_zero():
    lo = np.full((4, 4), 0.1)
    hi = np.full((4, 4), 0.9)
    assert sim(lo, hi, bins=4) == 0.0


@pytest.mark.parametrize("bins", [1, 2.5, True])
def test_sim_refuses_bins_that_are_not_integers_from_two(bins):
    # 2.5 raised a TypeError inside numpy, where the histogram metrics refuse it
    with pytest.raises(ValueError, match="bins must be"):
        sim(np.ones((4, 4)) * 0.5, np.ones((4, 4)) * 0.5, bins=bins)


def test_sim_matches_hand_histogram():
    s = np.array([[0.1, 0.3], [0.6, 0.9]])
    g = np.array([[0.2, 0.2], [0.7, 0.7]])
    # 4 bins: s -> [.25,.25,.25,.25], g -> [.5,0,.5,0]; intersection .25+.25
    assert sim(s, g, bins=4) == pytest.approx(0.5)


def test_nss_positive_at_peak():
    rng = np.random.default_rng(1)
    s = rng.random((8, 8))
    y, x = np.unravel_index(s.argmax(), s.shape)
    fix = FixationSet("a", [[x, y]], (8, 8))
    expected = (s.max() - s.mean()) / s.std()
    assert nss(s, fix) == pytest.approx(expected)
    assert nss(s, fix) > 0


def test_nss_affine_invariant():
    rng = np.random.default_rng(2)
    s = rng.random((12, 12))
    fix = FixationSet("a", [[2, 3], [7, 7], [10, 1]], (12, 12))
    assert abs(nss(2.5 * s + 1.0, fix) - nss(s, fix)) < 1e-9


def test_nss_degenerate_raises():
    fix = FixationSet("a", [[1, 1]], (4, 4))
    with pytest.raises(DegenerateInputError):
        nss(np.full((4, 4), 0.3), fix)


def test_roc_perfect_separation():
    # every positive reaches every threshold, no negative reaches any above 0
    assert _grid_buckets(np.array([1.0, 1.0])).tolist() == [256, 256]
    assert _grid_buckets(np.array([0.0, 0.0])).tolist() == [1, 1]
    assert _sample_auc_rows(np.array([1.0, 1.0]), np.array([[0.0, 0.0]])).tolist() == [1.0]
    # and the reverse order
    assert _sample_auc_rows(np.array([0.0, 0.0]), np.array([[1.0, 1.0]])).tolist() == [0.0]


def test_roc_matches_brute_force_thresholds():
    pos = np.array([0.9, 0.4, 0.4, 0.2, 0.75])
    neg = np.array([0.6, 0.1, 0.4, 0.8, 0.3])
    # a value's bucket k says it reaches the k lowest thresholds, and only those
    thresholds = np.linspace(1.0, 0.0, 256)
    for vals in (pos, neg):
        reached = vals[:, None] >= thresholds[None, :]
        np.testing.assert_array_equal(_grid_buckets(vals), reached.sum(axis=1))
    # the kernel's area is the trapezoid under the brute-force TPR and FPR
    tpr = (pos[:, None] >= thresholds).mean(axis=0)
    fpr = (neg[:, None] >= thresholds).mean(axis=0)
    area = np.trapezoid(np.r_[0.0, tpr, 1.0], np.r_[0.0, fpr, 1.0])
    assert _sample_auc_rows(pos, neg[None])[0] == pytest.approx(area, rel=0, abs=1e-15)


def test_auc_diagonal_and_perfect():
    t = np.linspace(1, 0, 256)
    assert _sample_auc_rows(t, t[None]).tolist() == [0.5]
    assert _sample_auc_rows(t[:128], t[None, 128:]).tolist() == [1.0]


def test_auc_pair_oracle_basics():
    assert auc_pair_oracle([1.0], [0.0]) == 1.0
    assert auc_pair_oracle([0.5], [0.5]) == 0.5
    assert auc_pair_oracle([0.9, 0.4], [0.6, 0.1]) == 0.75


def test_auc_grid_close_to_oracle():
    rng = np.random.default_rng(9)
    for n, tol in [(8, 0.05), (64, 0.01), (256, 0.01)]:
        for _ in range(20):
            pos = rng.beta(2, 1, n)
            neg = rng.beta(1, 2, n)
            grid = _sample_auc_rows(pos, neg[None])[0]
            assert abs(grid - auc_pair_oracle(pos, neg)) <= tol


def test_auc_f_constant_map_exactly_half():
    fix = FixationSet("a", [[1, 1], [2, 3], [5, 5]], (8, 8))
    plan = TrialPlan(num_trials=10, master_seed=0)
    assert auc_f(np.full((8, 8), 0.7), fix, plan).value == 0.5


def test_auc_f_good_map_high():
    fix_a, _, _, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=1)
    score = auc_f(g, fix_a, plan)
    assert score.value > 0.9
    assert score.trials_used == 30


def test_auc_f_deterministic():
    fix_a, _, _, g = _blob_setup()
    plan = TrialPlan(num_trials=10, master_seed=5)
    assert auc_f(g, fix_a, plan).value == auc_f(g, fix_a, plan).value


def test_sauc_constant_map_exactly_half():
    fix_a, _, bank, _ = _blob_setup()
    plan = TrialPlan(num_trials=10, master_seed=0)
    assert sauc(np.full((24, 32), 0.4), fix_a, bank, plan).value == 0.5


def test_sauc_gt_map_above_half_on_separated_data():
    fix_a, _, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=2)
    assert sauc(g, fix_a, bank, plan).value > 0.9


def test_auc_s_self_high_and_constant_half():
    _, _, _, g = _blob_setup()
    assert auc_s(g, g) > 0.99
    assert auc_s(np.full_like(g, 0.3), g) == 0.5


def test_auc_s_degenerate_gt():
    with pytest.raises(DegenerateInputError):
        auc_s(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(DegenerateInputError):
        auc_s(np.full((4, 4), 0.1), np.full((4, 4), 0.8))


def test_snss_positive_for_gt_map():
    fix_a, _, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=40, master_seed=3)
    score = snss(g, fix_a, bank, plan)
    assert score.value > 1.0
    assert score.metric_id == "snss"


def test_snss_affine_invariant():
    fix_a, _, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=20, master_seed=4)
    base = snss(g, fix_a, bank, plan).value
    scaled = snss(np.clip(0.5 * g + 0.1, 0, 1), fix_a, bank, plan).value
    assert abs(base - scaled) < 1e-9


def test_snss_antisymmetric_under_role_swap():
    fix_a, _, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=8, master_seed=6)
    for sample in shuffled_negative_trials(bank, fix_a, "snss", plan):
        negatives = FixationSet("negatives", sample, fix_a.frame)
        fwd = nss(g, fix_a) - nss(g, negatives)
        rev = nss(g, negatives) - nss(g, fix_a)
        assert fwd == pytest.approx(-rev, abs=1e-12)


def test_snss_trials_reproducible(trial_rows):
    fix_a, _, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=12, master_seed=8)
    v1 = trial_rows("snss", g, fix_a, bank, plan)
    v2 = trial_rows("snss", g, fix_a, bank, plan)
    assert v1.shape == (12,) and np.array_equal(v1, v2)
    assert snss(g, fix_a, bank, plan).value == v1.mean()


def test_snss_degenerate_raises():
    fix_a, _, bank, _ = _blob_setup()
    plan = TrialPlan(num_trials=3, master_seed=0)
    with pytest.raises(DegenerateInputError):
        snss(np.full((24, 32), 0.2), fix_a, bank, plan)


def test_centered_gaussian_near_chance_under_sauc():
    # fixations drawn from a centered distribution: the centered blob gets
    # no shuffled advantage even though it nails the spatial prior
    rng = np.random.default_rng(12)
    frame = (48, 36)
    sets = []
    for i in range(12):
        pts = np.column_stack(
            [
                np.clip(rng.normal(24, 6, 25).round(), 0, 47),
                np.clip(rng.normal(18, 5, 25).round(), 0, 35),
            ]
        ).astype(int)
        sets.append(FixationSet(f"i{i}", pts, frame))
    bank = build_shuffle_bank(sets, frame)
    blob = centered_gaussian_baseline(*frame, 0.25)
    plan = TrialPlan(num_trials=40, master_seed=13)
    scores = [sauc(blob, fs, bank, plan).value for fs in sets]
    assert 0.45 < np.mean(scores) < 0.55


def _grid_auc_one_trial(pos, neg):
    # the per-trial ROC written out: sorted values, one searchsorted per side
    thresholds = np.linspace(1.0, 0.0, 256)
    tpr = 1.0 - np.searchsorted(np.sort(pos), thresholds, side="left") / pos.size
    fpr = 1.0 - np.searchsorted(np.sort(neg), thresholds, side="left") / neg.size
    return np.trapezoid(np.r_[0.0, tpr, 1.0], np.r_[0.0, fpr, 1.0])


# fixation counts: None is tie_case's own 15; a trial draws one negative per fixation
@pytest.mark.parametrize("count", [None, 7, 40])
def test_batched_trials_match_a_loop_over_trials(sized_tie_case, trial_rows, count):
    s, fix, bank = sized_tie_case(count)
    plan = TrialPlan(num_trials=9, master_seed=5)
    pos = s[fix.points[:, 1], fix.points[:, 0]]
    mu, sd = s.mean(), s.std()
    snss_loop, sauc_loop, aucf_loop = [], [], []
    for sample in shuffled_negative_trials(bank, fix, "snss", plan):
        neg = s[sample[:, 1], sample[:, 0]]
        snss_loop.append((pos.mean() - mu) / sd - (neg.mean() - mu) / sd)
    for sample in shuffled_negative_trials(bank, fix, "sauc", plan):
        sauc_loop.append(_grid_auc_one_trial(pos, s[sample[:, 1], sample[:, 0]]))
    for sample in uniform_negative_trials(fix, "auc_f", plan):
        aucf_loop.append(_grid_auc_one_trial(pos, s[sample[:, 1], sample[:, 0]]))
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(trial_rows("snss", s, fix, bank, plan), snss_loop, **close)
    np.testing.assert_allclose(trial_rows("sauc", s, fix, bank, plan), sauc_loop, **close)
    np.testing.assert_allclose(trial_rows("auc_f", s, fix, bank, plan), aucf_loop, **close)
    assert snss(s, fix, bank, plan).value == pytest.approx(np.mean(snss_loop), rel=0, abs=1e-12)
    assert sauc(s, fix, bank, plan).value == pytest.approx(np.mean(sauc_loop), rel=0, abs=1e-12)
    assert auc_f(s, fix, plan).value == pytest.approx(np.mean(aucf_loop), rel=0, abs=1e-12)


def test_roc_is_the_one_row_case_with_ties_on_the_grid(tie_case):
    s, fix, _ = tie_case
    pos = s[fix.points[:, 1], fix.points[:, 0]]
    neg = s.ravel()[::5]
    expected = _grid_auc_one_trial(pos, neg)
    assert _sample_auc_rows(pos, neg[None])[0] == pytest.approx(expected, rel=0, abs=1e-12)
    # a value exactly on a threshold counts as salient at that threshold, so
    # it beats a value one ulp below it, on either side of the ROC
    for level in np.linspace(1.0, 0.0, 256)[:-1]:
        on, below = np.array([level]), np.array([np.nextafter(level, -1.0)])
        assert _sample_auc_rows(on, below[None])[0] == _grid_auc_one_trial(on, below) == 1.0
        assert _sample_auc_rows(below, on[None])[0] == _grid_auc_one_trial(below, on) == 0.0


def _floor_to_grid(values):
    # each value lowered to the highest threshold of the grid it reaches:
    # pair counting on these levels ties exactly the values the grid cannot
    # tell apart, so the grid AUC and the oracle agree exactly
    thresholds = np.linspace(1.0, 0.0, 256)
    return thresholds[np.argmax(values[..., None] >= thresholds, axis=-1)]


@pytest.mark.parametrize("count", [None, 7, 40])
@pytest.mark.parametrize("metric", ["sauc", "auc_f"])
def test_grid_kernel_is_pair_counting_on_grid_levels(sized_tie_case, count, metric):
    s, fix, bank = sized_tie_case(count)
    plan = TrialPlan(num_trials=9, master_seed=5)
    pos = s[fix.points[:, 1], fix.points[:, 0]]
    if metric == "sauc":
        draws = shuffled_draws(bank, fix, "sauc", plan)
        score = sauc(s, fix, bank, plan).value
    else:
        draws = uniform_draws(fix, "auc_f", plan)
        score = auc_f(s, fix, plan).value
    neg = s[draws[..., 1], draws[..., 0]]  # P = N = the fixation count
    oracle = [auc_pair_oracle(_floor_to_grid(pos), _floor_to_grid(row)) for row in neg]
    assert _sample_auc_rows(pos, neg).tolist() == oracle
    assert score == np.mean(oracle)


def test_grid_kernel_is_pair_counting_on_random_grid_levels():
    rng = np.random.default_rng(17)
    levels = np.linspace(1.0, 0.0, 256)
    for _ in range(100):
        pos = levels[rng.integers(0, 256, rng.integers(1, 50))]
        neg = levels[np.rint(rng.beta(1, 2, (rng.integers(1, 6), rng.integers(1, 50))) * 255).astype(int)]
        oracle = [auc_pair_oracle(pos, row) for row in neg]
        assert _sample_auc_rows(pos, neg).tolist() == oracle


def test_grid_buckets_are_searchsorted_on_the_grid():
    # random values, every grid level and the ulps on either side of it,
    # every k / 255 (the guess the buckets start from), 0 and 1
    rng = np.random.default_rng(23)
    k255 = np.arange(256) / 255
    vals = np.concatenate(
        (
            rng.random(200_000),
            _GRID,
            np.nextafter(_GRID, -1.0),
            np.nextafter(_GRID, 2.0),
            k255,
            np.nextafter(k255, -1.0),
            np.nextafter(k255, 2.0),
            [0.0, 1.0],
        )
    )
    vals = vals[(vals >= 0.0) & (vals <= 1.0)]
    expected = np.searchsorted(_GRID, vals, side="right")
    np.testing.assert_array_equal(_grid_buckets(vals), expected)
    # the (trials, n) shape the trial metrics pass
    rows = vals[:200_000].reshape(400, 500)
    np.testing.assert_array_equal(_grid_buckets(rows), expected[:200_000].reshape(400, 500))


# shapes for the numpy-form checks: odd sizes, single rows and columns,
# and a size past numpy's 8-element pairwise-summation blocks
NUMPY_FORM_SHAPES = [(1, 2), (1, 37), (37, 1), (2, 1), (5, 3), (24, 32), (1, 4099), (4099, 1),
                     (61, 67), (96, 128)]


def _random_pair(rng, shape):
    """A map and a density-like map, both normalized, the map skewed by a random power."""
    s = rng.random(shape) ** rng.uniform(0.2, 5.0)
    g = rng.random(shape) ** 3
    return s / s.max(), g / g.max()


def _float_ints(a):
    """a's values as integers over one common power-of-two denominator, exactly."""
    fractions = [Fraction(v) for v in a.ravel().tolist()]
    d = max(f.denominator for f in fractions)
    return [f.numerator * (d // f.denominator) for f in fractions]


def _pearson_oracle(x, y):
    """Pearson's r of two arrays in exact integer arithmetic, rounded once to float.

    r = (n Sxy - Sx Sy) / sqrt((n Sxx - Sx^2) (n Syy - Sy^2)) over the
    scaled integers; the square root is an integer square root 2^200 times
    finer than the result, so only the final conversion rounds.
    """
    xs, ys = _float_ints(x), _float_ints(y)
    n, sx, sy = len(xs), sum(xs), sum(ys)
    num = n * sum(a * b for a, b in zip(xs, ys)) - sx * sy
    vx = n * sum(a * a for a in xs) - sx * sx
    vy = n * sum(b * b for b in ys) - sy * sy
    return float(Fraction(num << 200, math.isqrt((vx * vy) << 400)))


# cc lies in [-1, 1] and the random pairs correlate weakly, so its rounding
# error is bounded against 1, not against the exact value: cc came within
# 0.5 ulp of 1 on these pairs, np.corrcoef within 1 ulp
CC_ORACLE_TOL = 2 * np.finfo(float).eps


@pytest.mark.parametrize("shape", NUMPY_FORM_SHAPES)
def test_cc_is_exact_pearson_to_a_few_ulps_and_matches_corrcoef(shape):
    rng = np.random.default_rng(shape[0] * 7919 + shape[1])
    for _ in range(10):
        s, g = _random_pair(rng, shape)
        got = cc(s, g)
        assert abs(got - _pearson_oracle(s, g)) <= CC_ORACLE_TOL
        assert abs(got - np.clip(np.corrcoef(s.ravel(), g.ravel())[0, 1], -1.0, 1.0)) <= 1e-14
        # a read-only Fortran-ordered map owns its data but ravels in another
        # order; prepared in C order, it scores the same bits as its C copy
        fs, fg = np.asfortranarray(s), np.asfortranarray(g)
        fs.setflags(write=False)
        fg.setflags(write=False)
        assert cc(fs, g) == got
        assert cc(s, fg) == got


def test_cc_of_an_affine_pair_is_clipped_to_one():
    # unclipped, about half of these pairs read 1 + 2.2e-16 or -1 - 2.2e-16
    for seed in range(40):
        g = np.random.default_rng(seed).random((5, 7))
        up, down = cc(0.3 * g + 0.1, g), cc(1.0 - 0.7 * g, g)
        assert 1.0 - CC_ORACLE_TOL <= up <= 1.0
        assert -1.0 <= down <= -1.0 + CC_ORACLE_TOL


def _cc_full_arrays(s, g):
    """cc in its full-array form: both maps centred whole, each dot product row by row."""
    sc = s - s.mean()
    gc = g - g.mean()
    denom = math.sqrt(float(np.vecdot(sc, sc).sum()) * float(np.vecdot(gc, gc).sum()))
    return min(max(float(np.vecdot(sc, gc).sum()) / denom, -1.0), 1.0)


# 700 columns make blocks of 35 rows, which divide none of 1, 37 and 512;
# 30000 columns pass the block's size, so each block is one row
@pytest.mark.parametrize("shape", [(1, 700), (37, 700), (512, 700), (3, 30000)])
def test_cc_from_row_blocks_is_the_full_array_form_bit_for_bit(shape):
    step = max(1, metrics_fixation._BLOCK_VALUES // shape[1])
    assert step == 1 or shape[0] % step != 0  # the last block is a partial one
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    for power, scale in ((1, 1.0), (3, 1.0), (1, 1e6), (8, 1e-3)):
        s = rng.random(shape) ** power * scale
        g = rng.random(shape) ** (power + 1)
        assert cc(s, g) == _cc_full_arrays(s, g)


def test_cc_on_a_prepared_pair_allocates_less_than_one_map():
    rng = np.random.default_rng(4)
    s, g = prepare(rng.random((512, 768))), prepare(rng.random((512, 768)))
    for p in (s, g):
        p.peak, p.floor, p.std  # the statistics every metric shares, kept before cc runs
    for _ in range(2):  # the first call also derives g's sum of squares
        tracemalloc.start()
        try:
            cc(s, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.values.nbytes


def _histogram_masses(m, bins):
    counts, _ = np.histogram(m, bins=bins, range=(0.0, 1.0))
    return counts / m.size


@pytest.mark.parametrize("bins", [2, 7, 16, 100, 256])
@pytest.mark.parametrize("shape", NUMPY_FORM_SHAPES)
def test_sim_is_the_intersection_of_np_histogram_masses(bins, shape):
    rng = np.random.default_rng(bins * 1009 + shape[0] * 31 + shape[1])
    edges = np.linspace(0.0, 1.0, bins + 1)
    # values exactly on every edge (1.0 among them) and one ulp either side
    # of each, so 1 + ulp is there too, and 1.5: no bin holds values above 1
    special = np.concatenate(
        (edges, np.nextafter(edges, -1.0).clip(0.0), np.nextafter(edges, 2.0), [1.5])
    )
    for _ in range(4):
        s, g = _random_pair(rng, shape)
        for m in (s, g):
            k = rng.integers(0, m.size + 1)
            m.flat[rng.choice(m.size, size=k, replace=False)] = rng.choice(special, size=k)
        expected = float(np.minimum(_histogram_masses(s, bins), _histogram_masses(g, bins)).sum())
        assert sim(s, g, bins=bins) == expected


@pytest.mark.parametrize("shape", NUMPY_FORM_SHAPES)
def test_auc_s_is_the_two_sort_formula(shape):
    # the area is the exact pair count over grid buckets, rounded once; the
    # old trapezoid over the same two sorts stays within one rounding of it
    rng = np.random.default_rng(shape[0] * 104729 + shape[1])
    for _ in range(6):
        s, g = _random_pair(rng, shape)
        s = np.round(s * 255) / 255  # ties on the threshold grid
        gt = g >= 0.5 * g.std()
        n_pos = int(gt.sum())
        if n_pos in (0, g.size):
            continue
        thresholds = np.linspace(1.0, 0.0, 256)
        n_hit = n_pos - np.searchsorted(np.sort(s[gt]), thresholds, side="left")
        n_sal = s.size - np.searchsorted(np.sort(s, axis=None), thresholds, side="left")
        n_neg = s.size - n_pos
        # per bucket, highest first: values that reach threshold i but not i - 1
        pos = np.diff(n_hit, prepend=0, append=n_pos)
        neg = np.diff(n_sal - n_hit, prepend=0, append=n_neg)
        above = np.concatenate(([0], np.cumsum(pos)[:-1]))
        wins = sum(int(b) * (2 * int(a) + int(p)) for b, a, p in zip(neg, above, pos))
        assert auc_s(s, g) == float(Fraction(wins, 2 * n_pos * n_neg))
        y = np.concatenate(([0.0], n_hit / n_pos, [1.0]))
        x = np.concatenate(([0.0], (n_sal - n_hit) / n_neg, [1.0]))
        assert abs(auc_s(s, g) - float(np.trapezoid(y, x))) <= 2.2e-16

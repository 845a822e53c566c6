import numpy as np
import pytest
from scipy.stats import entropy

from saleval.errors import DegenerateInputError
from saleval.maps import FixationSet, density_from_fixations, invert_map, values_at
from saleval.metrics_histogram import (
    _skld_rows,
    _value_masses,
    emd_brute_oracle,
    emd_hat,
    jsd,
    semd,
    sjsd,
    sskld,
)
from saleval.shuffle import TrialPlan, build_shuffle_bank, shuffled_negative_trials


def _blob_setup(seed=0):
    rng = np.random.default_rng(seed)
    frame = (32, 24)
    fix_a = FixationSet("a", np.column_stack([rng.integers(4, 9, 12), rng.integers(4, 9, 12)]), frame)
    fix_b = FixationSet("b", np.column_stack([rng.integers(24, 29, 12), rng.integers(16, 21, 12)]), frame)
    bank = build_shuffle_bank([fix_a, fix_b], frame)
    g = density_from_fixations(fix_a, 4.0)
    return fix_a, bank, g


def test_hist_all_ones_land_in_last_bin():
    assert _value_masses(np.ones(3), 4).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_hist_two_values_two_bins():
    assert _value_masses(np.array([0.1, 0.9]), 2).tolist() == [0.5, 0.5]


def test_hist_mass_sums_to_one():
    rng = np.random.default_rng(6)
    s = rng.random((16, 16))
    pts = np.column_stack([rng.integers(0, 16, 100), rng.integers(0, 16, 100)])
    mass = _value_masses(values_at(s, pts), 16)
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    # normalized by the point count: each bin holds a whole number of the 100 points
    counts = np.rint(mass * 100)
    np.testing.assert_allclose(mass * 100, counts, rtol=0, atol=1e-9)
    assert counts.sum() == 100


def test_hist_rejects_empty_points():
    # the shuffled histograms bin the values at a FixationSet, which refuses no points
    with pytest.raises(ValueError, match="non-empty"):
        FixationSet("a", np.empty((0, 2), int), (2, 2))


def test_masses_are_refused_by_jsd_emd_hat_and_the_oracle():
    for bad in (
        np.full((2, 2), 0.25),  # not 1-D
        [1.0],  # a single bin
        [-0.1, 1.1],  # negative mass
        # negative mass whose residuals against [1, 1] the transport solver accepts
        [-1.0, 2.0],
        [np.nan, 1.0, 0.0],  # nan mass, first
        [1.0, np.nan, 0.0],  # nan mass, after a number
        [0.5, np.inf],  # infinite mass
        [0.5, -np.inf],
    ):
        good = np.ones(max(np.shape(bad)[-1], 2))
        for measure in (jsd, emd_hat, emd_brute_oracle):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="masses"):
                    measure(a, b)


def test_symmetric_kld_identical_zero():
    h = np.array([0.25, 0.25, 0.5])
    assert _skld_rows(h, h, 1e-12) == 0.0
    # row by row: each identical pair of rows scores 0
    rows = np.random.default_rng(7).random((5, 8))
    assert _skld_rows(rows, rows, 1e-12).tolist() == [0.0] * 5


def test_symmetric_kld_symmetric():
    a = np.array([0.7, 0.2, 0.1])
    b = np.array([0.1, 0.3, 0.6])
    assert _skld_rows(a, b, 1e-12) == pytest.approx(_skld_rows(b, a, 1e-12), abs=1e-12)


def test_symmetric_kld_two_bin_closed_form():
    eps = 1e-12
    got = _skld_rows(np.array([1.0, 0.0]), np.array([0.0, 1.0]), eps)
    expected = (1 + eps) * np.log((1 + eps) / eps) + eps * np.log(eps / (1 + eps))
    assert got == pytest.approx(expected, abs=1e-9)


def test_symmetric_kld_nonnegative_random():
    rng = np.random.default_rng(8)
    a = rng.random((100, 8))
    b = rng.random((100, 8))
    assert (_skld_rows(a, b, 1e-12) >= 0).all()
    # one row against many, as SSKLD scores the fixations against every trial
    assert (_skld_rows(a[0], b, 1e-12) >= 0).all()


@pytest.mark.parametrize(
    "measure",
    [jsd, emd_hat, emd_brute_oracle],
    ids=["jsd", "emd_hat", "oracle"],
)
def test_binning_mismatch_is_refused(measure):
    with pytest.raises(ValueError, match="same binning"):
        measure([1.0, 0.0], [0.5, 0.25, 0.25])


def test_jsd_self_zero_and_disjoint_one():
    p = [1.0, 0.0]
    q = [0.0, 1.0]
    assert jsd(p, p) == 0.0
    assert jsd(p, q) == 1.0


def test_jsd_matches_two_term_definition():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = rng.random(8)
        q = rng.random(8)
        pn, qn = p / p.sum(), q / q.sum()
        m = 0.5 * (pn + qn)
        ref = 0.5 * (entropy(pn, m, base=2) + entropy(qn, m, base=2))
        assert jsd(p, q) == pytest.approx(ref, abs=1e-12)


def test_jsd_bounds_and_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = rng.random(6)
        q = rng.random(6)
        v = jsd(p, q)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(jsd(q, p), abs=1e-12)


def test_sqrt_jsd_triangle_inequality_sampled():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        a, b, c = (rng.random(5) + 1e-9 for _ in range(3))
        dab = np.sqrt(jsd(a, b))
        dbc = np.sqrt(jsd(b, c))
        dac = np.sqrt(jsd(a, c))
        assert dac <= dab + dbc + 1e-12


def test_emd_identical_zero():
    h = [0.2, 0.5, 0.3]
    assert emd_hat(h, h) == 0.0


def test_emd_single_move():
    assert emd_hat([1.0, 0.0], [0.0, 1.0], saturation=1) == 1.0


def test_emd_mismatch_penalty_hand_case():
    # move 1 unit one bin (cost 1) plus |2 - 1| * saturation
    assert emd_brute_oracle([2.0, 0.0], [0.0, 1.0], 3) == 4.0
    assert emd_hat([2.0, 0.0], [0.0, 1.0], 3) == 4.0


def test_emd_matches_oracle_random_unnormalized():
    rng = np.random.default_rng(12)
    for _ in range(300):
        bins = int(rng.integers(2, 9))
        a = rng.random(bins) * rng.integers(1, 5)
        b = rng.random(bins) * rng.integers(1, 5)
        sat = int(rng.integers(1, 8))
        assert emd_hat(a, b, sat) == pytest.approx(emd_brute_oracle(a, b, sat), abs=1e-9)


def test_emd_symmetric_for_equal_mass():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.random(6)
        b = rng.random(6)
        b *= a.sum() / b.sum()
        assert emd_hat(a, b, 3) == pytest.approx(emd_hat(b, a, 3), abs=1e-9)


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        emd_brute_oracle(np.ones(9), np.ones(9))


def test_the_exact_dp_matches_the_lp_oracle():
    # the DP against the generic LP on every bin count and saturation the
    # oracle takes; integer masses agree exactly, float masses to 1e-12
    rng = np.random.default_rng(21)
    for bins in range(2, 9):
        for saturation in range(1, 9):
            a = rng.integers(0, 4, bins) * (rng.random(bins) < 0.7)  # zero-mass bins
            b = rng.integers(0, 4, bins) * (rng.random(bins) < 0.7)
            low = np.arange(bins) < rng.integers(1, bins)
            none = np.zeros(bins)
            middle, ends = np.zeros(bins), np.zeros(bins)
            middle[bins // 2], ends[[0, -1]] = 2, 1  # tied costs from the middle to both ends
            exact = [(a, b), (a * low, b * ~low), (a, none), (none, b), (middle, ends)]
            for p, q in exact:
                assert emd_hat(p, q, saturation) == emd_brute_oracle(p, q, saturation), (p, q)
            scale = rng.integers(1, 5, 2)
            p = rng.random(bins) * scale[0] * (rng.random(bins) < 0.8)
            q = rng.random(bins) * scale[1] * (rng.random(bins) < 0.8)
            assert abs(emd_hat(p, q, saturation) - emd_brute_oracle(p, q, saturation)) <= 1e-12
            # zero bins padded at either end change no bit
            for p, q in [*exact, (p, q)]:
                pad = rng.integers(0, 4, 2)
                padded = emd_hat(np.pad(p, pad), np.pad(q, pad), saturation)
                assert padded == emd_hat(p, q, saturation), (p, q, pad)


def test_ground_distance_validation():
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=3, master_seed=0)
    for saturation in (0, -1, 5.0, 2.5, True, "5"):
        for measure in (emd_hat, emd_brute_oracle):
            with pytest.raises(ValueError, match="saturation"):
                measure([1.0, 0.0], [0.0, 1.0], saturation)
        # refused before the constant map is found degenerate
        with pytest.raises(ValueError, match="saturation"):
            semd(np.full_like(g, 0.5), fix, bank, plan, saturation=saturation)
    # the oracle's bin count is its histograms' length
    for bins, match in ((1, "B >= 2 bins"), (9, "limited to 8 bins")):
        with pytest.raises(ValueError, match=match):
            emd_brute_oracle(np.ones(bins), np.ones(bins))


@pytest.mark.parametrize("bins", [1, 0, 2.5, True])
@pytest.mark.parametrize("metric", [sskld, sjsd, semd])
def test_shuffled_histogram_metrics_refuse_bins_that_are_not_integers_from_two(metric, bins):
    # at bins=1 SSKLD and SJSD silently scored 0.0; 0 and 2.5 failed inside numpy
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=3, master_seed=0)
    with pytest.raises(ValueError, match="bins must be"):
        metric(g, fix, bank, plan, bins=bins)


def test_sskld_positive_for_gt_negative_for_inverted():
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=1)
    pos = sskld(g, fix, bank, plan)
    neg = sskld(invert_map(g), fix, bank, plan)
    assert pos.value > 0
    assert neg.value < 0


def test_sskld_magnitude_equals_unsigned_kld_when_signs_agree(trial_rows):
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=2)
    trials = trial_rows("sskld", g, fix, bank, plan)
    assert (trials > 0).all()
    assert abs(sskld(g, fix, bank, plan).value) == pytest.approx(np.abs(trials).mean(), abs=1e-12)


def test_sskld_sign_modes():
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=10, master_seed=3)
    per_trial = sskld(g, fix, bank, plan, sign_mode="per-trial").value
    aggregate = sskld(g, fix, bank, plan, sign_mode="aggregate").value
    # consistent signs make the two modes coincide on this dataset
    assert per_trial == pytest.approx(aggregate, abs=1e-12)
    with pytest.raises(ValueError):
        sskld(g, fix, bank, plan, sign_mode="bogus")


def test_sskld_degenerate_map():
    fix, bank, _ = _blob_setup()
    plan = TrialPlan(num_trials=3, master_seed=0)
    with pytest.raises(DegenerateInputError):
        sskld(np.full((24, 32), 0.5), fix, bank, plan)


def test_sjsd_in_unit_interval_and_positive_for_gt(trial_rows):
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=4)
    score = sjsd(g, fix, bank, plan)
    assert 0.0 < score.value <= 1.0
    vals = trial_rows("sjsd", g, fix, bank, plan)
    assert ((0.0 <= vals) & (vals <= 1.0)).all()
    assert score.value == vals.mean()


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf"), True])
def test_sskld_refuses_a_bad_epsilon(epsilon):
    # an epsilon of 0 made every trial nan, a negative one finite wrong scores
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=3, master_seed=2)
    with pytest.raises(ValueError, match="epsilon"):
        sskld(g, fix, bank, plan, epsilon=epsilon)


def test_sjsd_zero_when_distributions_match():
    # negatives drawn from the same points as the fixations: a constant-value
    # region makes both histograms identical
    frame = (8, 8)
    fix_a = FixationSet("a", [[1, 1], [2, 2]], frame)
    fix_b = FixationSet("b", [[1, 1], [2, 2]], frame)
    bank = build_shuffle_bank([fix_a, fix_b], frame)
    s = np.zeros((8, 8))
    s[1, 1] = s[2, 2] = 1.0
    plan = TrialPlan(num_trials=5, master_seed=5)
    assert sjsd(s, fix_a, bank, plan).value == 0.0


def test_semd_identical_distributions_zero():
    frame = (8, 8)
    fix_a = FixationSet("a", [[1, 1], [2, 2]], frame)
    fix_b = FixationSet("b", [[1, 1], [2, 2]], frame)
    bank = build_shuffle_bank([fix_a, fix_b], frame)
    s = np.zeros((8, 8))
    s[1, 1] = s[2, 2] = 1.0
    plan = TrialPlan(num_trials=5, master_seed=6)
    assert semd(s, fix_a, bank, plan).value == 0.0


def test_semd_gt_beats_centered_gaussian_on_offcenter_data():
    from saleval.maps import centered_gaussian_baseline

    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=30, master_seed=7)
    gt_score = semd(g, fix, bank, plan).value
    blob = centered_gaussian_baseline(32, 24, 0.25)
    blob_score = semd(blob, fix, bank, plan).value
    assert gt_score > 0
    assert gt_score > blob_score


def test_shuffled_trials_bit_reproducible(trial_rows):
    fix, bank, g = _blob_setup()
    plan = TrialPlan(num_trials=15, master_seed=8)
    for metric in ("sskld", "sjsd", "semd"):
        rows = trial_rows(metric, g, fix, bank, plan)
        assert rows.shape == (15,) and np.array_equal(rows, trial_rows(metric, g, fix, bank, plan))


def _one_trial_masses(vals, bins, normalizer):
    # per-value binning written out: floor into uniform bins, 1.0 in the last
    idx = [min(int(np.floor(v * bins)), bins - 1) for v in vals]
    return np.array([idx.count(b) for b in range(bins)]) / normalizer


# fixation counts: None is tie_case's own 15; a trial draws one negative per fixation
@pytest.mark.parametrize("count", [None, 7, 40])
@pytest.mark.parametrize("bins", [8, 16])
def test_batched_trials_match_a_loop_over_trials(sized_tie_case, trial_rows, count, bins):
    s, fix, bank = sized_tie_case(count)
    plan = TrialPlan(num_trials=9, master_seed=5)
    eps, sat = 1e-9, 3
    n = len(fix)
    pos = s[fix.points[:, 1], fix.points[:, 0]]
    p = _one_trial_masses(pos, bins, n)
    mu, sd = s.mean(), s.std()

    def negatives(metric_id):
        for sample in shuffled_negative_trials(bank, fix, metric_id, plan):
            neg = s[sample[:, 1], sample[:, 0]]
            yield (pos.mean() - mu) / sd - (neg.mean() - mu) / sd, _one_trial_masses(neg, bins, n)

    signs, sklds = [], []
    for snss_val, q in negatives("sskld"):
        signs.append(np.sign(snss_val))
        sklds.append(0.5 * np.sum((p - q) * np.log((p + eps) / (q + eps))))
    sjsds = []
    for _, q in negatives("sjsd"):
        pm, qm = p / p.sum(), q / q.sum()
        mid = 0.5 * (pm + qm)
        terms = [a * np.log2(a / m) for masses in (pm, qm) for a, m in zip(masses, mid) if a > 0]
        sjsds.append(np.sqrt(0.5 * sum(terms)))
    semds = [emd_hat(p, q, sat) for _, q in negatives("semd")]

    signs, sklds = np.array(signs), np.array(sklds)
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(trial_rows("sskld", s, fix, bank, plan, bins, eps), signs * sklds, **close)
    per_trial = sskld(s, fix, bank, plan, bins, eps, "per-trial").value
    assert per_trial == pytest.approx(np.mean(signs * sklds), **{"rel": 0, "abs": 1e-12})
    snss_mean = np.mean([v for v, _ in negatives("sskld")])
    aggregate = sskld(s, fix, bank, plan, bins, eps, "aggregate").value
    assert aggregate == pytest.approx(np.sign(snss_mean) * sklds.mean(), rel=0, abs=1e-12)
    np.testing.assert_allclose(trial_rows("sjsd", s, fix, bank, plan, bins), sjsds, **close)
    np.testing.assert_allclose(trial_rows("semd", s, fix, bank, plan, bins, saturation=sat), semds, **close)
    assert sjsd(s, fix, bank, plan, bins).value == pytest.approx(np.mean(sjsds), rel=0, abs=1e-12)
    assert semd(s, fix, bank, plan, bins, sat).value == pytest.approx(np.mean(semds), rel=0, abs=1e-12)


def test_hist_is_the_one_row_case_with_values_on_edges(tie_case):
    s, fix, _ = tie_case
    vals = s[fix.points[:, 1], fix.points[:, 0]]
    np.testing.assert_array_equal(_value_masses(vals, 16), _one_trial_masses(vals, 16, len(fix)))
    # a value exactly on an inner edge opens the next bin; 1.0 closes the last
    assert _value_masses(np.array([0.25, 1.0]), 4).tolist() == [0.0, 0.5, 0.0, 0.5]
    # every inner edge of every binning, each row binned on its own
    for bins in (2, 8, 16):
        edges = np.arange(bins + 1) / bins
        rows = np.stack([edges, edges[::-1]])
        expected = _one_trial_masses(edges, bins, bins + 1)
        np.testing.assert_array_equal(_value_masses(rows, bins), [expected, expected])

import pickle

import numpy as np
import pytest
from scipy import stats

import saleval
from saleval import shuffle
from saleval.errors import DegenerateInputError
from saleval.maps import FixationSet
from saleval.shuffle import (
    ShuffleBank,
    TrialPlan,
    _nonfixated_points,
    build_shuffle_bank,
    derive_trial_seed,
    shuffled_draws,
    shuffled_negative_trials,
    uniform_draws,
    uniform_negative_trials,
)


def _pool_oracle(entries, image_id, n, seed):
    """A shuffled draw spelled out: index every other image's points, joined in id order."""
    pool = np.concatenate([entries[i] for i in sorted(entries) if i != image_id])
    return pool[np.random.Generator(np.random.PCG64(seed)).integers(0, len(pool), n)]


def _uniform_row(fixations, n, seed):
    """The uniform draw of one seed on its own."""
    w, h = fixations.frame
    return _nonfixated_points((seed,), w, h, fixations.points, n)[0]


def _bank():
    a = FixationSet("a", [[1, 1], [2, 2], [3, 3]], (10, 10))
    b = FixationSet("b", [[5, 5], [6, 6], [7, 7], [8, 8], [9, 9]], (10, 10))
    return build_shuffle_bank([a, b], (10, 10))


def test_bank_counts_and_ids():
    bank = _bank()
    assert set(bank.entries) == {"a", "b"}
    assert sum(len(p) for p in bank.entries.values()) == 8


def test_bank_proportional_rescale():
    fs = FixationSet("a", [[50, 50]], (100, 100))
    other = FixationSet("b", [[0, 0]], (200, 200))
    bank = build_shuffle_bank([fs, other], (200, 200))
    assert bank.entries["a"].tolist() == [[100, 100]]


def test_bank_deterministic():
    b1, b2 = _bank(), _bank()
    for k in b1.entries:
        assert np.array_equal(b1.entries[k], b2.entries[k])


def test_bank_requires_two_images():
    fs = FixationSet("a", [[1, 1]], (4, 4))
    with pytest.raises(ValueError):
        build_shuffle_bank([fs], (4, 4))
    with pytest.raises(ValueError, match="at least 2 images"):
        ShuffleBank({"a": fs.points}, (4, 4))


def test_bank_refuses_an_empty_entry_and_a_point_outside_its_frame():
    b = np.array([[1, 1]])
    with pytest.raises(ValueError, match="a: empty fixation list"):
        ShuffleBank({"a": np.empty((0, 2), np.int64), "b": b}, (4, 4))
    for bad in ([[4, 0]], [[0, 4]], [[-1, 0]]):
        with pytest.raises(ValueError, match="a: bank fixation outside 4x4 frame"):
            ShuffleBank({"a": np.array(bad), "b": b}, (4, 4))


def test_the_bank_joins_its_points_once_in_id_order():
    entries = {"b": np.array([[5, 5]]), "c": np.array([[6, 6], [7, 7]]), "a": np.array([[1, 1], [2, 2]])}
    bank = ShuffleBank(entries, (10, 10))
    assert bank._points.tolist() == [[1, 1], [2, 2], [5, 5], [6, 6], [7, 7]]
    assert not bank._points.flags.writeable
    assert bank._spans == {"a": (0, 2), "b": (2, 1), "c": (3, 2)}
    # a pickled bank (as a worker process gets it) keeps both
    again = pickle.loads(pickle.dumps(bank))
    assert again._spans == bank._spans and np.array_equal(again._points, bank._points)
def test_seed_derivation_stable_and_distinct():
    s = derive_trial_seed(42, "img", "sauc", 0)
    assert s == derive_trial_seed(42, "img", "sauc", 0)
    others = {
        derive_trial_seed(42, "img", "sauc", 1),
        derive_trial_seed(42, "img", "snss", 0),
        derive_trial_seed(43, "img", "sauc", 0),
        derive_trial_seed(42, "img2", "sauc", 0),
    }
    assert s not in others and len(others) == 4


def test_uniform_excludes_fixations_forced_case():
    fs = FixationSet("a", [[0, 0]], (2, 2))
    out = _uniform_row(fs, 3, seed=1)
    assert sorted(map(tuple, out.tolist())) == [(0, 1), (1, 0), (1, 1)]
def test_uniform_deterministic():
    fs = FixationSet("a", [[3, 3], [4, 4]], (32, 32))
    s1 = _uniform_row(fs, 10, seed=99)
    s2 = _uniform_row(fs, 10, seed=99)
    assert np.array_equal(s1, s2)
def test_uniform_never_hits_fixations():
    fs = FixationSet("a", [[x, y] for x in range(8) for y in range(4)], (8, 8))
    fixated = set(map(tuple, fs.points.tolist()))
    for out in _nonfixated_points(range(50), 8, 8, fs.points, 16):
        assert len(set(map(tuple, out.tolist()))) == 16
        assert not fixated & set(map(tuple, out.tolist()))
def test_uniform_rejection_branch_distinct_points():
    fs = FixationSet("a", [[0, 0]], (64, 64))
    out = _uniform_row(fs, 12, seed=5)
    assert len(set(map(tuple, out.tolist()))) == 12
    assert (0, 0) not in set(map(tuple, out.tolist()))
def test_uniform_n_too_large_rejected():
    fs = FixationSet("a", [[0, 0]], (2, 2))
    with pytest.raises(ValueError):
        _uniform_row(fs, 4, seed=0)
def test_uniform_chi_square_uniformity():
    # pooled pixel frequencies over many draws on an 8x8 frame, all in one call
    fixated = np.array([[0, 0], [7, 7]])
    out = _nonfixated_points(range(12500), 8, 8, fixated, 8)
    counts = np.bincount((out[..., 1] * 8 + out[..., 0]).ravel(), minlength=64)
    eligible = np.ones(64, bool)
    eligible[[0, 63]] = False
    assert counts[~eligible].sum() == 0
    _, p = stats.chisquare(counts[eligible])
    assert p > 0.01
def test_shuffled_source_correctness():
    bank = _bank()
    pool = set(map(tuple, bank.entries["b"].tolist()))
    fs = FixationSet("a", bank.entries["a"], (10, 10))
    out = shuffled_draws(bank, fs, "sauc", TrialPlan(num_trials=20, master_seed=3))
    assert set(map(tuple, out.reshape(-1, 2).tolist())) <= pool
    assert out.shape == (20, 3, 2)


@pytest.mark.parametrize("image_id", ["a", "c", "e", "0", "zz"], ids=["first", "middle", "last", "absent-first", "absent-last"])
def test_shuffled_draws_match_the_per_image_pool_oracle(image_id):
    # uneven counts, given out of id order; an absent id draws from the whole bank
    rng = np.random.default_rng(13)
    counts = {"d": 7, "b": 1, "e": 12, "a": 3, "c": 2}
    entries = {
        i: np.column_stack((rng.integers(0, 20, k), rng.integers(0, 15, k))) for i, k in counts.items()
    }
    bank = ShuffleBank(entries, (20, 15))
    plan = TrialPlan(num_trials=25, master_seed=5)
    for n in (1, 4, 9):
        fs = FixationSet(image_id, np.column_stack((np.arange(n), np.arange(n))), (20, 15))
        for metric in ("sauc", "semd"):
            draws = shuffled_draws(bank, fs, metric, plan)
            assert draws.shape == (25, n, 2) and draws.dtype == np.int64
            for t, row in enumerate(draws):
                want = _pool_oracle(entries, image_id, n, derive_trial_seed(5, image_id, metric, t))
                assert np.array_equal(row, want)
def test_shuffled_deterministic():
    bank = _bank()
    fs = FixationSet("b", bank.entries["b"], (10, 10))
    plan = TrialPlan(num_trials=7, master_seed=11)
    s1 = shuffled_draws(bank, fs, "snss", plan)
    shuffle._pool_index_tensor.cache_clear()
    s2 = shuffled_draws(_bank(), fs, "snss", plan)
    assert s1 is not s2 and np.array_equal(s1, s2)
def test_shuffled_forced_source():
    # excluding one of two images forces every sample onto the other's points
    a = FixationSet("a", [[1, 1]], (4, 4))
    b = FixationSet("b", [[2, 2], [3, 3]], (4, 4))
    bank = build_shuffle_bank([a, b], (4, 4))
    out = shuffled_draws(bank, a, "sauc", TrialPlan(num_trials=20))
    assert set(map(tuple, out.reshape(-1, 2).tolist())) <= {(2, 2), (3, 3)}
def test_shuffled_multiplicity_chi_square():
    # pooled draws should follow the multiplicity of the source fixations
    a = FixationSet("a", [[0, 0]], (4, 4))
    b = FixationSet("b", [[1, 1], [1, 1], [2, 2]], (4, 4))
    bank = build_shuffle_bank([a, b], (4, 4))
    hundred = FixationSet("a", [[0, 0]] * 100, (4, 4))  # 100 negatives per trial
    out = shuffled_draws(bank, hundred, "snss", TrialPlan(num_trials=300)).reshape(-1, 2)
    n_draws = 30000
    counts = [int((out == p).all(axis=1).sum()) for p in ([1, 1], [2, 2])]
    assert sum(counts) == n_draws
    _, p_val = stats.chisquare(counts, [n_draws * 2 / 3, n_draws * 1 / 3])
    assert p_val > 0.01
def test_trial_plan_defaults_and_digest():
    plan = TrialPlan()
    assert (plan.num_trials, plan.master_seed) == (100, 0)
    # pinned: the plan-v1 key keeps its literal "None" field, so recorded digests still match
    assert plan.digest() == "cefaee5979da7d7c"
    assert TrialPlan(num_trials=7, master_seed=3).digest() == "8ca57d494a33f829"
    assert plan.digest() == TrialPlan().digest()
    assert plan.digest() != TrialPlan(master_seed=1).digest()
    with pytest.raises(ValueError):
        TrialPlan(num_trials=0)


def test_trials_are_independent_and_indexed():
    bank = _bank()
    fs = FixationSet("a", [[1, 1], [2, 2], [3, 3]], (10, 10))
    plan = TrialPlan(num_trials=5, master_seed=7)
    samples = list(shuffled_negative_trials(bank, fs, "snss", plan))
    # the t-th draw is the one seeded by trial t
    for t, sample in enumerate(samples):
        seed = derive_trial_seed(7, "a", "snss", t)
        assert np.array_equal(sample, _pool_oracle(bank.entries, "a", 3, seed))
    # distinct seeds should yield at least one differing sample
    assert any(not np.array_equal(samples[0], s) for s in samples[1:])


def _counting_rng(monkeypatch) -> list:
    """Patch shuffle._rng to record the seed of every generator it builds."""
    constructions = []
    real_rng = shuffle._rng
    monkeypatch.setattr(shuffle, "_rng", lambda seed: constructions.append(seed) or real_rng(seed))
    return constructions


def test_shuffled_draws_are_memoized_without_changing_them(monkeypatch):
    bank = _bank()
    fs = FixationSet("a", [[1, 1], [2, 2], [3, 3], [4, 4]], (10, 10))  # n = 4 negatives per trial
    plan = TrialPlan(num_trials=6, master_seed=11)
    seeds = [derive_trial_seed(11, "a", "sauc", t) for t in range(6)]
    fresh = [_pool_oracle(bank.entries, "a", 4, s) for s in seeds]
    constructions = _counting_rng(monkeypatch)
    shuffle._pool_index_tensor.cache_clear()
    cold = shuffled_draws(bank, fs, "sauc", plan)
    warm = shuffled_draws(bank, fs, "sauc", plan)
    assert constructions == seeds  # the second call built no generator
    assert cold.shape == warm.shape == (6, 4, 2)
    for t, want in enumerate(fresh):
        assert np.array_equal(want, cold[t]) and np.array_equal(want, warm[t])
    assert all(np.array_equal(a, b) for a, b in zip(cold, shuffled_negative_trials(bank, fs, "sauc", plan)))


def test_memoized_draws_are_read_only_and_keyed_by_pool_and_n(monkeypatch):
    fs = FixationSet("a", [[1, 1], [2, 2], [3, 3], [4, 4]], (10, 10))  # n = 4
    bank = _bank()  # a pool of 5 points once "a" is left out
    more = build_shuffle_bank(
        [fs, FixationSet("b", [[x, 9 - x] for x in range(10)], (10, 10))], (10, 10)
    )
    plan = TrialPlan(num_trials=3, master_seed=99)
    constructions = _counting_rng(monkeypatch)
    shuffle._pool_index_tensor.cache_clear()
    draws = shuffled_draws(bank, fs, "snss", plan)
    assert not draws.flags.writeable
    with pytest.raises(ValueError):
        draws[0, 0, 0] = 0
    assert np.array_equal(shuffled_draws(bank, fs, "snss", plan), draws)
    assert len(constructions) == 3
    # another pool size and another n each draw their own tensor
    other_pool = shuffled_draws(more, fs, "snss", plan)
    five = FixationSet("a", [[1, 1], [2, 2], [3, 3], [4, 4], [0, 0]], (10, 10))
    other_n = shuffled_draws(bank, five, "snss", plan)
    assert len(constructions) == 9
    assert shuffle._pool_index_tensor.cache_info().currsize == 3
    assert other_n.shape == (3, 5, 2) and not other_n.flags.writeable
    for t, seed in enumerate(constructions[:3]):
        assert np.array_equal(other_pool[t], _pool_oracle(more.entries, "a", 4, seed))
        assert np.array_equal(other_n[t], _pool_oracle(bank.entries, "a", 5, seed))


def test_uniform_draws_are_memoized_without_changing_them(monkeypatch):
    fs = FixationSet("a", [[3, 3], [4, 4], [0, 1]], (9, 7))
    # pinned from the per-seed sampler of earlier versions: 6 of 60 free
    # pixels takes the rejection branch, 20 of 60 the permutation branch
    rejection = [[6, 1], [6, 4], [5, 0], [4, 1], [2, 2], [1, 2]]
    permutation = [[7, 0], [1, 5], [4, 3], [3, 0], [1, 2], [0, 3], [0, 4], [3, 1], [5, 0],
                   [5, 1], [5, 5], [0, 5], [6, 1], [0, 0], [2, 6], [6, 2], [1, 1], [3, 2],
                   [5, 3], [3, 4]]
    assert _uniform_row(fs, 6, seed=2024).tolist() == rejection
    assert _uniform_row(fs, 20, seed=2024).tolist() == permutation
    plan = TrialPlan(num_trials=5, master_seed=7)
    seeds = [derive_trial_seed(7, "a", "auc_f", t) for t in range(5)]
    # n fixations draw n negatives: 6 of 57 free pixels rejects, 20 of 43 permutes
    for n in (6, 20):
        fs_n = FixationSet("a", [[i % 9, i // 9] for i in range(0, 3 * n, 3)], (9, 7))
        constructions = _counting_rng(monkeypatch)
        shuffle._uniform_tensor.cache_clear()
        cold = uniform_draws(fs_n, "auc_f", plan)
        warm = uniform_draws(fs_n, "auc_f", plan)
        assert warm is cold and cold.shape == (5, n, 2)
        assert constructions == seeds  # the second call built no generator
        monkeypatch.undo()
        for t, seed in enumerate(seeds):
            assert np.array_equal(cold[t], _uniform_row(fs_n, n, seed))
        assert all(np.array_equal(a, b) for a, b in zip(cold, uniform_negative_trials(fs_n, "auc_f", plan)))
    # the pinned draws are the rows of a tensor made with their seed
    for n, pinned in ((6, rejection), (20, permutation)):
        tensor = shuffle._uniform_tensor((1, 2024, 3), 9, 7, fs.points.tobytes(), n)
        assert tensor[1].tolist() == pinned


def test_memoized_uniform_draws_are_read_only_and_keyed_by_fixations_frame_and_n(monkeypatch):
    five = [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]]
    fs = FixationSet("a", five, (16, 16))
    plan = TrialPlan(num_trials=2, master_seed=3)
    constructions = _counting_rng(monkeypatch)
    shuffle._uniform_tensor.cache_clear()
    pts = uniform_draws(fs, "auc_f", plan)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 0
    # another fixation set with the same id, another frame, another n
    moved = FixationSet("a", five[:-1] + [[5, 6]], (16, 16))
    wider = FixationSet("a", five, (17, 16))
    six = FixationSet("a", five + [[6, 6]], (16, 16))
    others = (
        (moved, uniform_draws(moved, "auc_f", plan)),
        (wider, uniform_draws(wider, "auc_f", plan)),
        (six, uniform_draws(six, "auc_f", plan)),
    )
    assert uniform_draws(fs, "auc_f", plan) is pts
    assert len(constructions) == 8
    assert shuffle._uniform_tensor.cache_info().currsize == 4
    seeds = constructions[:2]
    for source, tensor in others:
        assert not tensor.flags.writeable
        for t, seed in enumerate(seeds):
            assert np.array_equal(tensor[t], _uniform_row(source, tensor.shape[1], seed))


def test_trial_plan_refuses_non_integral_fields():
    for field in ("num_trials", "master_seed"):
        for bad in (2.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=field):
                TrialPlan(**{field: bad})
    # numpy integers are stored as int: same digest, same seeds, same draws
    plan = TrialPlan(num_trials=np.int64(4), master_seed=np.uint8(7))
    same = TrialPlan(num_trials=4, master_seed=7)
    assert plan == same and plan.digest() == same.digest()
    assert all(type(v) is int for v in (plan.num_trials, plan.master_seed))
    fs = FixationSet("a", [[1, 1], [2, 2], [3, 3]], (10, 10))
    assert np.array_equal(shuffled_draws(_bank(), fs, "sauc", plan), shuffled_draws(_bank(), fs, "sauc", same))


@pytest.mark.parametrize("bank_frame", [(64, 48), (16, 12)], ids=["larger", "smaller"])
@pytest.mark.parametrize("metric", ["sauc", "snss", "sskld", "sjsd", "semd"])
def test_shuffled_metrics_refuse_a_bank_of_another_frame(metric, bank_frame):
    # a bank built in another frame would index the map at the wrong pixels
    rng = np.random.default_rng(4)
    frame = (32, 24)
    sets = [
        FixationSet(i, np.column_stack([rng.integers(0, 32, 10), rng.integers(0, 24, 10)]), frame)
        for i in ("a", "b", "c")
    ]
    bank = build_shuffle_bank(sets, bank_frame)
    with pytest.raises(ValueError, match="shuffle bank frame"):
        getattr(saleval, metric)(rng.random((24, 32)), sets[0], bank, TrialPlan(num_trials=3))


def test_a_refused_or_degenerate_map_derives_no_trial_seeds(monkeypatch, tie_case):
    # every check runs before the draw, so a refused map costs no seed derivation
    s, fix, bank = tie_case  # s peaks at exactly 1.0
    plan = TrialPlan(num_trials=3)
    derived = []
    real = shuffle.derive_trial_seed
    monkeypatch.setattr(shuffle, "derive_trial_seed", lambda *key: derived.append(key) or real(*key))

    def score(metric, m):
        args = (fix, plan) if metric == "auc_f" else (fix, bank, plan)
        return getattr(saleval, metric)(m, *args)

    for metric in ("snss", "sskld", "sjsd", "semd"):
        with pytest.raises(DegenerateInputError, match=f"zero-variance map in {metric}"):
            score(metric, np.full(s.shape, 0.5))
    for metric in ("sauc", "auc_f", "sskld", "sjsd", "semd"):
        with pytest.raises(ValueError, match=f"{metric} expects a normalized map"):
            score(metric, s * 2.0)
    assert derived == []
    score("sauc", s)  # an accepted map derives one seed per trial
    assert derived == [(0, "a", "sauc", t) for t in range(3)]

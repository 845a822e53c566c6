"""Prepared maps: the same scores as plain arrays, and statistics that cannot go stale."""

import pickle

import numpy as np
import pytest

from saleval import metrics_fixation
from saleval.errors import DegenerateInputError
from saleval.maps import PreparedMap, density_from_fixations, prepare
from saleval.metrics_fixation import (
    auc_f,
    auc_s,
    cc,
    nss,
    sauc,
    sim,
    snss,
)
from saleval.metrics_histogram import semd, sjsd, sskld
from saleval.shuffle import TrialPlan

PLAN = TrialPlan(num_trials=6, master_seed=3)

# every public scoring function, as (name, call(s, g, fix, bank))
SCORERS = {
    "cc": lambda s, g, fix, bank: cc(s, g),
    "sim": lambda s, g, fix, bank: sim(s, g),
    "sim_16_bins": lambda s, g, fix, bank: sim(s, g, bins=16),
    "auc_s": lambda s, g, fix, bank: auc_s(s, g),
    "nss": lambda s, g, fix, bank: nss(s, fix),
    "auc_f": lambda s, g, fix, bank: auc_f(s, fix, PLAN),
    "sauc": lambda s, g, fix, bank: sauc(s, fix, bank, PLAN),
    "snss": lambda s, g, fix, bank: snss(s, fix, bank, PLAN),
    "sskld": lambda s, g, fix, bank: sskld(s, fix, bank, PLAN),
    "sskld_aggregate": lambda s, g, fix, bank: sskld(s, fix, bank, PLAN, sign_mode="aggregate"),
    "sjsd": lambda s, g, fix, bank: sjsd(s, fix, bank, PLAN),
    "semd": lambda s, g, fix, bank: semd(s, fix, bank, PLAN),
}


def _trial_scorers(trial_rows):
    """Each seeded metric's per-trial rows, as (name, call(s, g, fix, bank))."""
    return {
        f"{m}_trials": lambda s, g, fix, bank, m=m: trial_rows(m, s, fix, bank, PLAN)
        for m in ("auc_f", "sauc", "snss", "sskld", "sjsd", "semd")
    }


def _outcome(scorer, s, g, fix, bank):
    """The score, or the type and message of the error it raised."""
    try:
        return "value", scorer(s, g, fix, bank)
    except (DegenerateInputError, ValueError) as e:
        return type(e), str(e)


def _assert_same(raw, prepared):
    assert raw[0] == prepared[0]
    if isinstance(raw[1], np.ndarray):
        assert np.array_equal(raw[1], prepared[1])
    else:
        # exact: MetricScore, float and error message all compare with ==
        assert raw[1] == prepared[1]


def _maps(tie_case):
    s, fix, bank = tie_case
    rng = np.random.default_rng(8)
    g = density_from_fixations(fix, 5.0)
    return {
        "ties": (s, g),
        "random": (rng.random(s.shape), g),
        "ties_vs_random_g": (s, rng.random(s.shape)),
        # std() of this constant map is about 1e-17, not 0
        "constant": (np.full(s.shape, 0.1), g),
        "constant_g": (s, np.full(s.shape, 0.5)),
        "all_zero": (np.zeros(s.shape), np.zeros(s.shape)),
    }


@pytest.mark.parametrize("case", ["ties", "random", "ties_vs_random_g", "constant", "constant_g", "all_zero"])
def test_every_metric_scores_a_prepared_map_exactly_as_its_array(tie_case, trial_rows, case):
    s, g = _maps(tie_case)[case]
    _, fix, bank = tie_case
    # one prepared pair serves every metric in turn, so later metrics read
    # what earlier ones memoized
    ps, pg = prepare(s), prepare(g)
    for name, scorer in {**SCORERS, **_trial_scorers(trial_rows)}.items():
        raw = _outcome(scorer, s, g, fix, bank)
        _assert_same(raw, _outcome(scorer, ps, pg, fix, bank))
        _assert_same(raw, _outcome(scorer, s, pg, fix, bank))


def test_constant_maps_raise_the_same_degenerate_error_either_way(tie_case):
    s, g = _maps(tie_case)["constant"]
    _, fix, bank = tie_case
    ps, pg = prepare(s), prepare(g)
    for name in ("cc", "nss", "snss", "sskld", "sjsd", "semd"):
        for _ in range(2):  # the check repeats on every call, memoized or not
            with pytest.raises(DegenerateInputError, match=f"zero-variance map in {name}") as raw:
                SCORERS[name](s, g, fix, bank)
            with pytest.raises(DegenerateInputError) as prepared:
                SCORERS[name](ps, pg, fix, bank)
            assert str(prepared.value) == str(raw.value)


def test_sim_of_an_unnormalized_map_ignores_values_above_one(tie_case):
    s, g = _maps(tie_case)["random"]
    loud = s * 3.0
    assert sim(loud, g) == sim(prepare(loud), prepare(g))
    assert sim(loud, g) < sim(s, g)


def test_prepared_values_are_read_only():
    p = prepare(np.random.default_rng(0).random((4, 5)))
    assert not p.values.flags.writeable
    with pytest.raises(ValueError):
        p.values[0, 0] = 1.0
    assert prepare(p) is p


def test_mutating_the_callers_array_leaves_the_prepared_map_alone():
    a = np.random.default_rng(1).random((6, 7))
    before = a.copy()
    p = prepare(a)
    peak = p.peak  # one statistic before the mutation, the rest after it
    a[:] = 5.0
    a[0, 0] = 0.0
    assert np.array_equal(p.values, before)
    assert (peak, p.floor, p.mean, p.std) == (
        float(before.max()), float(before.min()), float(before.mean()), float(before.std())
    )


def test_only_a_read_only_array_that_owns_its_data_is_used_in_place():
    frozen = np.random.default_rng(2).random((3, 4))
    frozen.setflags(write=False)
    assert prepare(frozen).values is frozen
    base = np.random.default_rng(3).random((3, 8))
    view = base[:, ::2]
    view.setflags(write=False)
    assert not np.shares_memory(prepare(view).values, base)
    fortran = np.asfortranarray(np.random.default_rng(4).random((3, 4)))
    fortran.setflags(write=False)
    # statistics are summed in ravel order, so only C order is used in place
    assert prepare(fortran).values.flags.c_contiguous
    assert prepare([[0.0, 1.0], [2.0, 3.0]]).values.dtype == np.float64


def test_prepare_validates_like_as_map():
    with pytest.raises(ValueError):
        prepare(np.array([[0.5, -0.1]]))
    with pytest.raises(ValueError):
        prepare(np.array([[0.5, np.nan]]))
    with pytest.raises(ValueError):
        prepare(np.ones(3))


def test_a_pickled_prepared_map_comes_back_read_only():
    p = prepare(np.random.default_rng(4).random((3, 3)))
    q = pickle.loads(pickle.dumps(p))
    assert isinstance(q, PreparedMap)
    assert not q.values.flags.writeable
    assert np.array_equal(q.values, p.values) and q.std == p.std


def test_derived_data_is_computed_once_per_key():
    p = prepare(np.eye(3))
    calls = []
    for _ in range(3):
        assert p.derived("k", lambda m: calls.append(1) or m.size) == 9
    assert calls == [1]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (17, 13), (129, 3), (255, 257), (31, 1001)])
def test_std_from_the_kept_mean_is_numpys_std_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.random(shape)
    strided = np.zeros((2 * shape[0], 3 * shape[1]))
    strided[::2, ::3] = a
    sources = (
        a,
        a * 1e6,
        np.floor(a * 256),  # ties and exact integers
        np.full(shape, 0.1),  # a constant whose mean rounds
        np.asfortranarray(a),  # copied into C order
        a[::-1, ::-1],  # a reversed view, copied
        strided[::2, ::3],  # a strided view, copied
    )
    for source in sources:
        p = prepare(source)
        assert p.std == float(p.values.std())


def test_cc_keeps_only_a_float_with_a_prepared_density_map_derived_once(monkeypatch):
    rng = np.random.default_rng(9)
    g = rng.random((12, 16))
    candidates = [rng.random((12, 16)) for _ in range(4)]
    squares = []  # one entry per sum of squares derived for a density map

    def counted(a, b):
        if a is b:
            squares.append(a.size)
        return centred_dots(a, b)

    centred_dots = metrics_fixation._centred_dots
    monkeypatch.setattr(metrics_fixation, "_centred_dots", counted)
    pg = prepare(g)
    prepared_scores = [cc(s, pg) for s in candidates]
    assert len(squares) == 1
    assert type(pg._memo["cc"]) is float
    assert not any(isinstance(v, np.ndarray) for v in pg._memo.values())
    # a raw g is prepared, and its sum of squares derived, afresh on every call, to the same bits
    assert [cc(s, g) for s in candidates] == prepared_scores
    assert len(squares) == 1 + len(candidates)

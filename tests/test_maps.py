import math
import sys
import threading

import numpy as np
import pytest

from saleval import maps
from saleval.maps import (
    FWHM_TO_SIGMA,
    FixationSet,
    centered_gaussian_baseline,
    density_from_fixations,
    gaussian_blur,
    invert_map,
    normalize_map,
    resize_map,
    values_at,
)


def test_normalize_divides_by_max():
    out = normalize_map([[0, 2], [4, 8]])
    assert out.tolist() == [[0.0, 0.25], [0.5, 1.0]]


def test_normalize_all_zero_unchanged():
    out = normalize_map(np.zeros((3, 3)))
    assert (out == 0).all()


def test_normalize_idempotent_and_order_preserving():
    rng = np.random.default_rng(3)
    m = rng.random((16, 16)) * 7
    once = normalize_map(m)
    assert np.array_equal(normalize_map(once), once)
    assert np.argmax(once) == np.argmax(m)


def test_normalize_rejects_bad_values():
    with pytest.raises(ValueError):
        normalize_map([[0.0, -1.0]])
    with pytest.raises(ValueError):
        normalize_map([[np.nan, 1.0]])


def test_resize_identity():
    m = np.random.default_rng(0).random((2, 2))
    assert np.array_equal(resize_map(m, 2, 2), m)


def test_resize_constant_stays_constant():
    out = resize_map(np.full((4, 4), 3.3), 8, 8)
    assert out.shape == (8, 8)
    assert np.allclose(out, 3.3)


def test_resize_round_trip_close():
    # smooth map: blurred noise; 64x48 -> 768x512 -> back
    rng = np.random.default_rng(11)
    m = normalize_map(gaussian_blur(rng.random((48, 64)), 3.0))
    up = resize_map(m, 768, 512)
    back = resize_map(up, 64, 48)
    assert np.abs(back - m).mean() < 0.01


def _map_coordinates_resize(m, target_w, target_h):
    from scipy import ndimage

    h, w = m.shape
    ys = np.clip((np.arange(target_h) + 0.5) * (h / target_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(target_w) + 0.5) * (w / target_w) - 0.5, 0.0, w - 1.0)
    grid = np.meshgrid(ys, xs, indexing="ij")
    return np.maximum(ndimage.map_coordinates(m, grid, order=1, mode="nearest"), 0.0)


@pytest.mark.parametrize("levels", [255, 65535])
@pytest.mark.parametrize(
    "shape, target",
    [
        ((48, 64), (32, 24)),  # 2x down: weights of exactly 0.5
        ((48, 64), (16, 12)),  # 4x down
        ((12, 16), (64, 48)),  # 4x up
        ((40, 52), (37, 29)),  # non-integer factors both ways
        ((1, 9), (5, 3)),  # 1-pixel source axis
        ((7, 1), (1, 11)),  # 1-pixel axes on both sides
        ((6, 5), (5, 6)),
        ((9, 13), (13, 9)),
    ],
)
def test_resize_is_map_coordinates_bit_for_bit(levels, shape, target):
    # quantized like a PGM read: write_pgm's np.rint turns any last-bit
    # difference on a 0.5 weight into a one-level change, so equality is exact
    rng = np.random.default_rng(levels + shape[0] * 100 + target[0])
    for _ in range(20):
        m = rng.integers(0, levels + 1, size=shape) / levels
        assert np.array_equal(resize_map(m, *target), _map_coordinates_resize(m, *target))
    m = rng.integers(0, levels + 1, size=shape) / levels
    assert np.array_equal(resize_map(m, shape[1], shape[0]), m)


def test_resize_rejects_zero_target():
    with pytest.raises(ValueError):
        resize_map(np.ones((2, 2)), 0, 2)


def test_blur_sigma_zero_identity():
    m = np.random.default_rng(1).random((5, 7))
    assert np.array_equal(gaussian_blur(m, 0.0), m)


def test_blur_impulse_matches_truncated_kernel_oracle():
    imp = np.zeros((33, 33))
    imp[16, 16] = 1.0
    sigma = 2.0
    out = gaussian_blur(imp, sigma)
    radius = math.ceil(3 * sigma)
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    ref = np.zeros((33, 33))
    ref[16 - radius : 16 + radius + 1, 16 - radius : 16 + radius + 1] = np.outer(k, k)
    assert np.abs(out - ref).max() < 1e-9


def test_blur_preserves_interior_mass():
    imp = np.zeros((41, 41))
    imp[20, 20] = 2.5
    out = gaussian_blur(imp, 2.0)
    assert abs(out.sum() - 2.5) / 2.5 < 1e-9


def test_blur_constant_map():
    out = gaussian_blur(np.full((9, 13), 0.4), 5.0)
    assert (out == 0.4).all()


def test_blur_negative_sigma_rejected():
    for sigma in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gaussian_blur(np.ones((3, 3)), sigma)


def _two_pass_blur(m, sigma):
    # the blur as one whole-array convolve1d per axis, one division by the
    # outer product of the in-frame kernel masses, then the clamp at the peak
    from scipy.ndimage import convolve1d

    radius = math.ceil(3 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    out = convolve1d(convolve1d(m, k, axis=1, mode="constant"), k, axis=0, mode="constant")
    ny = convolve1d(np.ones(m.shape[0]), k, mode="constant")
    nx = convolve1d(np.ones(m.shape[1]), k, mode="constant")
    return np.minimum(out / np.outer(ny, nx), m.max())


_FLOOR = maps._BAND_MIN_PIXELS


@pytest.mark.parametrize(
    "shape",
    [
        (512, 768),  # the hires frame
        (1, _FLOOR),  # one row: the row pass has fewer lines than bands
        (_FLOOR, 1),  # one column
        (3, _FLOOR // 3 + 1),  # kernel radius larger than the frame height
        (256, _FLOOR // 256 - 1),  # just below the floor: one band
        (256, _FLOOR // 256),  # at the floor: banded
        (256, _FLOOR // 256 + 1),
    ],
)
@pytest.mark.parametrize("sigma", [0.2, 1.0, 3.7, 32.0])
def test_banded_blur_is_two_pass_convolve1d_bit_for_bit(shape, sigma):
    m = np.random.default_rng(shape[0] + shape[1]).random(shape) ** 3
    assert np.array_equal(gaussian_blur(m, sigma), _two_pass_blur(m, sigma))


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_banded_blur_with_more_bands_than_lines(monkeypatch, cpus):
    # every map banded, whatever this machine's CPU count: bands of one line,
    # more bands than rows or columns, kernels wider than the whole frame
    monkeypatch.setattr(maps, "_BAND_MIN_PIXELS", 1)
    monkeypatch.setattr(maps, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(cpus)
    for shape in ((1, 9), (9, 1), (2, 5), (5, 2), (7, 13), (40, 30)):
        for sigma in (0.2, 1.0, 3.7, 32.0):
            m = rng.random(shape) ** 3
            assert np.array_equal(gaussian_blur(m, sigma), _two_pass_blur(m, sigma))


def test_pool_worker_process_blurs_on_one_thread(monkeypatch):
    # pool workers share the CPUs with their siblings: one band, calling thread
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(maps.multiprocessing, "parent_process", lambda: object())
    seen = []
    maps._in_bands(((lambda band: seen.append((band, threading.get_ident())), 512),), 10**9)
    assert seen == [(slice(0, 512), threading.get_ident())]


def test_concurrent_blurs_match_serial():
    # more calling threads than cores, each blurring banded maps of its own
    rng = np.random.default_rng(8)
    jobs = [(rng.random((256, 512)), sigma) for sigma in (1.0, 4.0, 16.0, 32.0, 2.0, 8.0)]
    expected = [gaussian_blur(m, sigma) for m, sigma in jobs]
    results = [[] for _ in jobs]

    def run(i):
        for _ in range(3):
            results[i].append(gaussian_blur(*jobs[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == 3
        assert all(np.array_equal(g, want) for g in got)


def test_invert_basics():
    assert invert_map([[0.0, 1.0]]).tolist() == [[1.0, 0.0]]
    m = normalize_map(np.random.default_rng(2).random((6, 6)))
    assert np.allclose(invert_map(invert_map(m)), m)


def test_invert_requires_normalized():
    with pytest.raises(ValueError):
        invert_map([[0.0, 2.0]])


def test_centered_gaussian_peak_and_symmetry():
    g = centered_gaussian_baseline(101, 101, 0.25)
    assert g[50, 50] == 1.0
    assert np.unravel_index(g.argmax(), g.shape) == (50, 50)
    assert np.allclose(g, g[::-1, :]) and np.allclose(g, g[:, ::-1])


def test_centered_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        centered_gaussian_baseline(10, 10, 0.0)


def test_fixation_set_validates_frame():
    with pytest.raises(ValueError):
        FixationSet("x", [[999, 0]], (100, 100))
    with pytest.raises(ValueError):
        FixationSet("x", np.empty((0, 2), dtype=int), (10, 10))


def test_density_single_fixation_peak_location():
    fs = FixationSet("a", [[10, 10]], (33, 33))
    d = density_from_fixations(fs, 8.0)
    assert np.unravel_index(d.argmax(), d.shape) == (10, 10)
    assert d.sum() > 0


def test_density_coincident_fixations_match_single():
    single = density_from_fixations(FixationSet("a", [[7, 5]], (21, 21)), 6.0)
    double = density_from_fixations(FixationSet("a", [[7, 5], [7, 5]], (21, 21)), 6.0)
    assert np.allclose(single, double)


def test_density_half_value_at_half_fwhm():
    # fwhm 6 keeps the truncated kernel interior-supported around (10, 10)
    fwhm = 6.0
    fs = FixationSet("a", [[10, 10]], (33, 33))
    d = density_from_fixations(fs, fwhm)
    assert abs(d[10, 13] - 0.5) < 1e-6
    assert math.ceil(3 * fwhm * FWHM_TO_SIGMA) <= 10  # oracle precondition


def test_density_permutation_invariant():
    pts = [[3, 4], [10, 2], [7, 7], [1, 9]]
    a = density_from_fixations(FixationSet("a", pts, (12, 12)), 4.0)
    b = density_from_fixations(FixationSet("a", pts[::-1], (12, 12)), 4.0)
    assert np.array_equal(a, b)


def test_density_rejects_bad_fwhm():
    fs = FixationSet("a", [[1, 1]], (4, 4))
    with pytest.raises(ValueError):
        density_from_fixations(fs, 0.0)


def test_values_at():
    m = np.arange(12, dtype=float).reshape(3, 4)
    out = values_at(m, np.array([[0, 0], [3, 2]]))
    assert out.tolist() == [0.0, 11.0]

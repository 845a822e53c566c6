import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from saleval import maps
from saleval.harness import EvalConfig, dataset, synth_dataset
from saleval.io import write_pgm
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
from saleval.metrics_histogram import sskld
from saleval.shuffle import ShuffleBank, TrialPlan, build_shuffle_bank


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


@pytest.mark.parametrize(
    "target, field",
    [((2.5, 3), "target_w"), ((True, 3), "target_w"), ((3, 3.0), "target_h"), ((3, "3"), "target_h")],
)
def test_resize_refuses_a_target_that_is_not_an_integer(target, field):
    with pytest.raises(ValueError, match=field):
        resize_map(np.ones((2, 2)), *target)


def test_resize_allocates_two_output_maps_and_one_row_band():
    m = np.random.default_rng(8).random((128, 192))
    out_bytes = 512 * 768 * 8
    band_bytes = 512 * 192 * 8  # the source columns of every output row
    # the tap vectors and the input's checks scale with the sides, not the area
    slack = out_bytes // 16
    tracemalloc.start()
    try:
        resize_map(m, 768, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out_bytes + band_bytes + slack


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


@pytest.mark.parametrize("sigma", [0.0, 1.5, 6.0])
def test_blur_of_a_prepared_map_is_the_blur_of_its_array_unchecked(monkeypatch, sigma):
    rng = np.random.default_rng(5)
    for m in (rng.random((23, 31)), np.full((9, 13), 0.4)):
        expected = gaussian_blur(m, sigma)
        p = maps.prepare(m)
        # the prepared map's kept peak and floor serve the blur: it is not checked again
        monkeypatch.setattr(maps, "as_map", None)
        out = gaussian_blur(p, sigma)
        monkeypatch.undo()
        assert type(out) is np.ndarray and out.flags.writeable
        assert not np.shares_memory(out, p.values)
        assert np.array_equal(out, expected)


def test_blur_negative_sigma_rejected():
    for sigma in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            gaussian_blur(np.ones((3, 3)), sigma)


def _no_kernel(sigma):
    raise AssertionError(f"a kernel was built for sigma {sigma}")


def test_blur_refuses_a_sigma_whose_kernel_cannot_be_built(monkeypatch):
    # a radius of 3e9 taps would be a 48 GB kernel: refused before it is built
    monkeypatch.setattr(maps, "_gaussian_kernel", _no_kernel)
    for m in (np.eye(3), np.ones((3, 3))):  # a constant map is refused too
        with pytest.raises(ValueError, match="radius"):
            gaussian_blur(m, 1e9)
    with pytest.raises(ValueError, match="radius"):
        gaussian_blur(np.eye(3), (maps.MAX_BLUR_RADIUS + 1) / 3)
    maps.check_blur_sigma(maps.MAX_BLUR_RADIUS / 3)  # the widest kernel allowed
    for sigma in (-1.0, math.inf, math.nan, 1e9, 1e308):
        with pytest.raises(ValueError, match="sigma"):
            maps.check_blur_sigma(sigma)


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


_IMPORT_ORDER_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from saleval import maps
    scipy_first, out = sys.argv[1] == "scipy-first", sys.argv[2]
    m = np.random.default_rng(5).random((40, 30)) ** 3
    if scipy_first:
        import importlib.util
        import scipy.ndimage
        importlib.util.find_spec = None  # the loaded module is reused, not searched for
    ours = maps._nd_image()
    before = maps.gaussian_blur(m, 3.7)
    assert ("scipy.ndimage" in sys.modules) == scipy_first
    import scipy.ndimage
    from scipy.ndimage import _filters
    assert _filters._nd_image is ours  # one module serves both
    np.savez(
        out,
        before=before,
        after=maps.gaussian_blur(m, 3.7),
        convolve1d=scipy.ndimage.convolve1d(m, [1.0, 2.0, 4.0], axis=0),
        gaussian_filter=scipy.ndimage.gaussian_filter(m, 2.0),
        map_coordinates=scipy.ndimage.map_coordinates(m, [[0.5, 7.25], [3.0, 20.5]], order=1),
    )
    """
)


@pytest.mark.parametrize("order", ["saleval-first", "scipy-first"])
def test_the_blur_module_and_scipy_ndimage_load_in_either_order(tmp_path, order):
    from scipy import ndimage

    out = tmp_path / "out.npz"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER_SCRIPT, order, str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = np.load(out)
    m = np.random.default_rng(5).random((40, 30)) ** 3
    assert np.array_equal(got["before"], _two_pass_blur(m, 3.7))
    assert np.array_equal(got["after"], got["before"])
    assert np.array_equal(got["convolve1d"], ndimage.convolve1d(m, [1.0, 2.0, 4.0], axis=0))
    assert np.array_equal(got["gaussian_filter"], ndimage.gaussian_filter(m, 2.0))
    expected = ndimage.map_coordinates(m, [[0.5, 7.25], [3.0, 20.5]], order=1)
    assert np.array_equal(got["map_coordinates"], expected)


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
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    seen = []
    maps._in_bands(((lambda band: seen.append((band, threading.get_ident())), 512),), 10**9)
    assert seen == [(slice(0, 512), threading.get_ident())]


def test_a_pass_runs_as_one_band_per_cpu_each_on_its_own_thread(monkeypatch):
    monkeypatch.setattr(maps, "_BAND_MIN_PIXELS", 1)
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 3)
    events = []  # (pass, band, "start" | "end", thread), in order
    lock = threading.Lock()

    def work_for(index, bands):
        # every band of the pass waits for all the others: they must run at once
        barrier = threading.Barrier(bands, timeout=10)

        def work(band):
            with lock:
                events.append((index, band, "start", threading.get_ident()))
            barrier.wait()
            with lock:
                events.append((index, band, "end", threading.get_ident()))

        return work

    lines = (30, 2, 1, 7)
    bands = [min(n, 3) for n in lines]
    maps._in_bands([(work_for(i, b), n) for i, (b, n) in enumerate(zip(bands, lines))], 1)
    for index, (n, b) in enumerate(zip(lines, bands)):
        starts = [(band, t) for i, band, kind, t in events if i == index and kind == "start"]
        got = sorted(band for band, _ in starts)
        assert len(got) == b
        assert [r for band in got for r in range(band.start, band.stop)] == list(range(n))
        assert len({t for _, t in starts}) == b  # one thread per band
        assert (got[0], threading.get_ident()) in starts  # the first on the calling thread
    # a pass starts only after every band of the one before has ended
    passes = [index for index, *_ in events]
    assert passes == sorted(passes)


@pytest.mark.parametrize("failing", [0, 1])  # band 0 runs on the calling thread, band 1 in the pool
def test_a_failing_band_propagates_and_leaves_no_band_thread(monkeypatch, failing):
    monkeypatch.setattr(maps, "_BAND_MIN_PIXELS", 1)
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 3)
    started = []

    def fail_one(band):
        if band.start == [0, 10][failing]:  # the bands of 30 lines start at 0, 10 and 20
            raise ArithmeticError(f"band {failing}")

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"band {failing}"):
        maps._in_bands(((fail_one, 30), (started.append, 30)), 1)
    assert threading.active_count() == before
    assert started == []  # the pass after the failure never started


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


@pytest.mark.parametrize(
    "args, field",
    [
        ((2.5, 3), "width"),  # was a 3x3 map
        ((True, 3), "width"),  # was a 3x1 map
        (("4", 3), "width"),  # was a TypeError
        ((3, 0), "height"),
        ((3, 3.0), "height"),
        ((10, 10, float("nan")), "sigma_frac"),  # was an all-NaN map
        ((10, 10, float("inf")), "sigma_frac"),
        ((10, 10, -0.25), "sigma_frac"),
        ((10, 10, True), "sigma_frac"),
        ((10, 10, "0.25"), "sigma_frac"),
        ((2, 2, 1e-3), "sigma_frac"),  # the blob underflows at every pixel: was all NaN
        ((3, 3, 1e-200), "sigma_frac"),  # sigma squared underflows: was all NaN
    ],
)
def test_centered_gaussian_refuses_malformed_inputs(args, field):
    with pytest.raises(ValueError, match=field):
        centered_gaussian_baseline(*args)


def test_centered_gaussian_takes_numpy_numbers():
    g = centered_gaussian_baseline(np.int64(7), np.int32(5), np.float64(0.25))
    assert np.array_equal(g, centered_gaussian_baseline(7, 5, 0.25))


_A = FixationSet("a", [[1, 1], [2, 0]], (4, 3))
_B = FixationSet("b", [[3, 2]], (4, 3))


def _synth(tmp_path, **kwargs):
    synth_dataset(tmp_path / "x", **{"num_images": 2, "frame": (16, 12), **kwargs})


# every public entry point that takes a (width, height) frame
_FRAME_TAKERS = {
    "FixationSet": lambda tmp_path, frame: FixationSet("x", [[0, 0]], frame),
    "ShuffleBank": lambda tmp_path, frame: ShuffleBank({"a": _A.points, "b": _B.points}, frame),
    "build_shuffle_bank": lambda tmp_path, frame: build_shuffle_bank([_A, _B], frame),
    "synth_dataset": lambda tmp_path, frame: _synth(tmp_path, frame=frame),
}


@pytest.mark.parametrize("taker", list(_FRAME_TAKERS))
@pytest.mark.parametrize(
    "frame, message",
    [
        ((2.5, 3), "frame width must be an integer"),  # FixationSet failed later, the bank kept it
        ((True, 3), "frame width must be an integer"),  # was accepted
        (("4", 3), "frame width must be an integer"),  # was a TypeError
        ((4, 3.0), "frame height must be an integer"),
        ((4,), "frame must be a (width, height) pair"),  # was "not enough values to unpack"
        ((4, 3, 1), "frame must be a (width, height) pair"),
        (4, "frame must be a sequence"),  # was a TypeError
        ("43", "frame must be a sequence"),
        ((0, 3), "frame must be at least 1x1"),  # the bank named a fixation
        ((4, -1), "frame must be at least 1x1"),
    ],
)
def test_every_frame_taker_refuses_a_malformed_frame_naming_it(tmp_path, monkeypatch, taker, frame, message):
    # the fixation draw never ends on an empty frame; fail fast if it is reached
    monkeypatch.setattr(dataset, "_center_biased_points", lambda *a: pytest.fail("draw started"))
    with pytest.raises(ValueError, match=re.escape(message)):
        _FRAME_TAKERS[taker](tmp_path, frame)
    assert not (tmp_path / "x").exists()


def test_a_frame_of_numpy_integers_is_stored_as_plain_ints():
    frame = (np.int64(4), np.int32(3))
    fs = FixationSet("a", [[1, 1]], frame)
    for stored in (fs.frame, ShuffleBank({"a": _A.points, "b": _B.points}, frame).frame,
                   build_shuffle_bank([fs, _B], frame).frame):
        assert stored == (4, 3) and all(type(side) is int for side in stored)


def _sskld(epsilon):
    m = np.arange(12.0).reshape(3, 4) / 11
    return sskld(m, _A, build_shuffle_bank([_A, _B], (4, 3)), TrialPlan(2), epsilon=epsilon)


# every public entry point that takes a finite number > 0
_POSITIVE_TAKERS = {
    "sskld epsilon": ("epsilon", lambda tmp_path, x: _sskld(x)),
    "EvalConfig epsilon": ("epsilon", lambda tmp_path, x: EvalConfig(epsilon=x)),
    "sigma_frac": ("sigma_frac", lambda tmp_path, x: centered_gaussian_baseline(8, 6, x)),
    "fwhm_px": ("fwhm_px", lambda tmp_path, x: density_from_fixations(_A, x)),
    "pixels_per_degree": ("pixels_per_degree", lambda tmp_path, x: _synth(tmp_path, pixels_per_degree=x)),
}


@pytest.mark.parametrize("taker", list(_POSITIVE_TAKERS))
@pytest.mark.parametrize(
    "value",
    [True, "8", None, 0, -1.5, math.nan, math.inf, -math.inf, 10**400],
    ids=["true", "str", "none", "zero", "negative", "nan", "inf", "-inf", "huge-int"],
)
def test_every_positive_number_taker_refuses_a_bad_number_naming_it(tmp_path, taker, value):
    # fwhm_px took True, nan and inf failed only at the blur's sigma check, "8"
    # and None were a TypeError, and 10**400 overflowed epsilon's and
    # sigma_frac's math.isfinite
    field, call = _POSITIVE_TAKERS[taker]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call(tmp_path, value)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sigma", [True, "1", None, [1.0]])
def test_blur_refuses_a_sigma_that_is_not_a_real_number(sigma):
    with pytest.raises(ValueError, match="sigma must be a finite real number"):
        gaussian_blur(np.eye(4), sigma)  # True blurred at sigma 1, "1" was a TypeError


def test_positive_numbers_and_counts_take_numpy_numbers(tmp_path):
    m = np.random.default_rng(4).random((6, 5))
    assert np.array_equal(gaussian_blur(m, np.float32(2)), gaussian_blur(m, 2.0))
    assert np.array_equal(density_from_fixations(_A, np.float32(3)), density_from_fixations(_A, 3.0))
    assert _sskld(np.float64(1e-9)) == _sskld(1e-9)
    config = EvalConfig(epsilon=np.float32(0.5))
    assert config.epsilon == 0.5 and type(config.epsilon) is float
    for maxval in (np.int64(255), 255):
        write_pgm(tmp_path / f"{type(maxval).__name__}.pgm", m, maxval=maxval)
    assert (tmp_path / "int64.pgm").read_bytes() == (tmp_path / "int.pgm").read_bytes()
    # np.float32 was refused as "must be a finite number > 0"
    for name, ppd in (("a", np.float32(4)), ("b", 4.0)):
        synth_dataset(tmp_path / name, num_images=2, frame=(16, 12), pixels_per_degree=ppd)
    a, b = ({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            for root in (tmp_path / "a", tmp_path / "b"))
    assert a == b


def test_fixation_set_validates_frame():
    with pytest.raises(ValueError):
        FixationSet("x", [[999, 0]], (100, 100))
    # one past each edge of a 4x3 frame; at x = -1 numpy indexing would read
    # the last column without complaint
    for point in ([-1, 0], [0, -1], [4, 0], [0, 3]):
        with pytest.raises(ValueError, match="outside"):
            FixationSet("x", [[1, 1], point], (4, 3))
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

"""Saliency-map data model and transforms.

A saliency map is a plain 2-D float64 array (rows = y, columns = x) of
finite, non-negative values. A "normalized" map additionally has peak
value 1 unless it is all-zero. Fixations are integer pixel coordinates
stored as (N, 2) arrays of (x, y) = (column, row).

Every metric scores a ``PreparedMap``: a validated, read-only float64 map
whose peak, floor, mean and standard deviation, and whatever per-map data a
metric derives from it (a candidate's ascending sort, a density map's SIM
masses and AUC-S positives), are each computed on first use and then kept.
``prepare`` returns a prepared map as it is and validates and wraps
anything else, so a caller that passes plain arrays gets the same scores
from the same code, and the protocol, which prepares each density map once
per image and each blurred candidate once, stops recomputing them per
metric. A kept statistic cannot go stale: a prepared map's array is
read-only, and it is the caller's own array only when that array was
already read-only, C-ordered and owns its data; any other input is copied.

The Gaussian blur is the costliest transform: the blur search blurs every
model map once per sigma of the sweep. It runs the C loop behind
``scipy.ndimage.convolve1d``, whose summation order is part of the reported
scores, straight from scipy's compiled module ``scipy.ndimage._nd_image``.
Loading that module alone took about 0.02 s, where importing the
``scipy.ndimage`` package took about 0.35 s and 19 MB of memory (Python
3.11, scipy 1.17.1, 2-core x86-64 host), in every process that blurs. The
module is private to scipy; the signature used has been stable across
releases, but was tested only with scipy 1.17.1. On maps of at least
``_BAND_MIN_PIXELS`` pixels, outside pool workers, the blur runs in row and
column bands, one band per CPU the process may use. Banding is exact: the
loop gives each line the same arithmetic whatever other lines its array
holds, so the bands write the bits one whole-array call would. The floor
comes from a measured break-even: below it, starting and joining the band
threads costs about what it saves.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FWHM_TO_SIGMA",
    "FixationSet",
    "MAX_BLUR_RADIUS",
    "PreparedMap",
    "as_map",
    "centered_gaussian_baseline",
    "check_blur_sigma",
    "density_from_fixations",
    "gaussian_blur",
    "invert_map",
    "normalize_map",
    "prepare",
    "resize_map",
    "values_at",
]

# sigma = FWHM / (2 * sqrt(2 * ln 2))
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _integer(name: str, value, least: int | None = None) -> int:
    """value as a plain int; refused unless it is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _items(name: str, value) -> tuple:
    """value's items as a tuple; refused unless it is an iterable other than a str."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a sequence, not {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number, numpy's included, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive(name: str, value) -> float:
    """value as a plain float; refused unless it is a finite real number > 0 (not a bool)."""
    try:
        number = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int past the largest float
        number = math.inf
    if math.isfinite(number) and number > 0:
        return number
    raise ValueError(f"{name} must be a finite number > 0, not {value!r}")


def _frame(name: str, value) -> tuple[int, int]:
    """value as a (width, height) pair of plain ints; refused unless both are integers >= 1."""
    pair = _items(name, value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a (width, height) pair, not {pair!r}")
    w, h = _integer(f"{name} width", pair[0]), _integer(f"{name} height", pair[1])
    if w < 1 or h < 1:
        raise ValueError(f"{name} must be at least 1x1, not {w}x{h}")
    return w, h


def as_map(values) -> np.ndarray:
    """Coerce to a valid 2-D float64 saliency map (finite, non-negative)."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("saliency map must be a non-empty 2-D grid")
    if not np.isfinite(m).all():
        raise ValueError("saliency map values must be finite")
    if (m < 0).any():
        raise ValueError("saliency map values must be >= 0")
    return m


class PreparedMap:
    """A validated, read-only float64 saliency map with memoized statistics.

    Build one with ``prepare``. ``values`` is read-only and no caller holds
    a writeable alias of it, so each statistic is computed on first use and
    then kept.
    """

    __slots__ = ("values", "_memo")

    def __init__(self, values: np.ndarray):
        self.values = values
        self._memo = {}

    def __reduce__(self):
        # an unpickled array is a fresh writeable copy: freeze that in place
        return _frozen, (self.values,)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def derived(self, key, compute):
        """``compute(self)``, computed on the first call with this key and then kept."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value

    @property
    def peak(self) -> float:
        return self.derived("peak", lambda p: float(p.values.max()))

    @property
    def floor(self) -> float:
        return self.derived("floor", lambda p: float(p.values.min()))

    @property
    def mean(self) -> float:
        return self.derived("mean", _mean)

    @property
    def std(self) -> float:
        return self.derived("std", _std)


def _mean(p: PreparedMap) -> float:
    # a sum past float64 is inf, which the callers' range checks refuse
    with np.errstate(over="ignore"):
        return float(p.values.mean())


def _std(p: PreparedMap) -> float:
    """``np.std``'s own steps from the kept mean, with one centred temporary."""
    centred = p.values - p.mean
    # a square or sum past float64 is inf, which the callers' range checks refuse
    with np.errstate(over="ignore"):
        np.square(centred, out=centred)
        total = centred.sum()
    return float(np.sqrt(total / p.size))


def _frozen(m: np.ndarray) -> PreparedMap:
    """m prepared without a copy or a check, for a valid map that nothing else references."""
    m.setflags(write=False)
    return PreparedMap(m)


def prepare(m) -> PreparedMap:
    """A prepared map of m: m itself if it is one, else validated by ``as_map``.

    An array that is already read-only, C-ordered float64 and owns its data
    is used in place; anything else is copied, so the caller keeps no
    writeable alias of the prepared values, and a statistic summed over
    them runs in the order of their ravel.
    """
    if isinstance(m, PreparedMap):
        return m
    a = as_map(m)
    if a is not m or a.base is not None or a.flags.writeable or not a.flags.c_contiguous:
        a = a.copy()
    return _frozen(a)


def normalize_map(m) -> np.ndarray:
    """Scale a map so its peak is 1; an all-zero map is returned unchanged."""
    m = as_map(m)
    peak = m.max()
    if peak == 0.0:
        return m.copy()
    return m / peak


def resize_map(m, target_w: int, target_h: int) -> np.ndarray:
    """Bilinear resize to exactly (target_h, target_w).

    Samples with the half-pixel-center convention, clamping coordinates at
    the borders, and clamps output values at 0. Resizing to the source
    dimensions is the identity.

    The arithmetic is that of ``scipy.ndimage.map_coordinates(order=1,
    mode="nearest")``, copied to the last bit so that scipy stays off the
    import path: weights ``w0 = 1 - t`` and ``w1 = 1 - w0`` (not ``t``), each
    term ``(m * wy) * wx``, summed from 0.0 as y0x0, y0x1, y1x0, y1x1 with
    the ``+1`` neighbour clamped at the border. Bit-identity matters, not
    just closeness: integer-factor downscales put weights of exactly 0.5 on
    16-bit maps, and a 3e-16 difference flips ``write_pgm``'s ``np.rint``
    by one level.

    The row and column gathers write into buffers allocated once, and pass
    ``mode="clip"``: every index is already in range, so the values are
    those of numpy's default ``mode="raise"``, but with ``out=`` that mode
    gathers into a hidden buffer of the output's size and copies it over
    (at 512x768 on a 2-core x86-64 host, 3.1 MB and 0.85 ms per column
    gather, against none and 0.30 ms).
    """
    m = as_map(m)
    target_w = _integer("target_w", target_w, 1)
    target_h = _integer("target_h", target_h, 1)
    h, w = m.shape
    if (target_h, target_w) == (h, w):
        return m.copy()
    ys = np.clip((np.arange(target_h) + 0.5) * (h / target_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(target_w) + 0.5) * (w / target_w) - 0.5, 0.0, w - 1.0)
    y0, wy0, wy1, y1 = _linear_taps(ys, h)
    x0, wx0, wx1, x1 = _linear_taps(xs, w)
    out = np.zeros((target_h, target_w))
    term = np.empty_like(out)
    band = np.empty((target_h, w))
    for rows, wy in ((y0, wy0[:, None]), (y1, wy1[:, None])):
        np.take(m, rows, axis=0, out=band, mode="clip")
        for cols, wx in ((x0, wx0), (x1, wx1)):
            np.take(band, cols, axis=1, out=term, mode="clip")
            term *= wy
            term *= wx
            out += term
    return np.maximum(out, 0.0, out=out)


def _linear_taps(coords: np.ndarray, size: int):
    """Order-1 taps at in-frame coordinates: (i0, w0, w1, i1), i1 clamped."""
    i0 = np.floor(coords)
    w0 = 1.0 - (coords - i0)
    w1 = 1.0 - w0
    i0 = i0.astype(np.intp)
    return i0, w0, w1, np.minimum(i0 + 1, size - 1)


# The widest blur kernel built: radius ceil(3 * sigma) <= MAX_BLUR_RADIUS, so
# at most 2 * 2**16 + 1 taps (1 MB). The kernel is built whatever the frame,
# so without a cap a sigma of 1e9 would ask for a 48 GB kernel. Taps beyond
# the frame add nothing, but truncating the kernel to the frame would
# renormalize it differently and move scores, so a wider sigma is refused.
# The cap is far above the default sweep's largest sigma (32) and the density
# sigma (0.42 * pixels_per_degree, 3.4 at synth_dataset's default of 8).
MAX_BLUR_RADIUS = 2**16


def check_blur_sigma(sigma: float) -> None:
    """Refuse (ValueError) a sigma that is a bool, not real, negative, not finite or past MAX_BLUR_RADIUS."""
    if not _is_real(sigma) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a finite real number, not {sigma!r}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if 3.0 * sigma > MAX_BLUR_RADIUS:
        raise ValueError(
            f"sigma {sigma:g} needs a kernel radius above {MAX_BLUR_RADIUS} px"
            f" (sigma at most {MAX_BLUR_RADIUS / 3:g})"
        )


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _nd_image():
    """scipy's compiled module ``scipy.ndimage._nd_image``, loaded without the ``scipy.ndimage`` package.

    ``importlib.util.find_spec`` finds the package's directory without
    running its ``__init__``; the extension is loaded from there and
    registered in ``sys.modules``, and a module already registered, by an
    earlier call or an earlier ``import scipy.ndimage``, is reused. A
    package imported after this load lacks the ``_nd_image`` attribute, but
    its own ``from . import _nd_image`` still finds the registered module.
    """
    name = "scipy.ndimage._nd_image"
    module = sys.modules.get(name)
    if module is None:
        import importlib.util
        from importlib.machinery import PathFinder

        package = importlib.util.find_spec("scipy.ndimage")
        spec = PathFinder.find_spec(name, package.submodule_search_locations)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module = sys.modules.setdefault(name, module)
    return module


def gaussian_blur(m, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with a border-renormalized truncated kernel.

    Kernel radius is ceil(3 * sigma). Near the borders the kernel is
    renormalized by the mass that falls inside the frame, so a constant map
    blurs to itself and interior-supported mass is preserved. sigma = 0
    returns a copy of the input; a negative or non-finite sigma, or one
    whose kernel would pass MAX_BLUR_RADIUS, is refused before anything is
    allocated.
    m may be a ``PreparedMap``, whose kept peak and floor then serve every
    sigma of a sweep without checking the map again; the result is always
    a plain array.

    The convolution is the C loop of ``scipy.ndimage.convolve1d``, called
    from scipy's private compiled module (``_nd_image``) so that blurring
    does not import the ``scipy.ndimage`` package. Its summation order is
    part of the scores: a numpy banded-matrix blur differs by about 1e-15,
    which is enough to move synthesized density maps across ``np.rint``
    ties and change the seed-0 benchmark references. A numpy shifted-add
    form in the loop's own order (``w0 * x``, then
    ``(x[i-j] + x[i+j]) * w_j`` for j = r..1) is bit-identical but ran
    3-4x slower.

    Maps of at least ``_BAND_MIN_PIXELS`` pixels are blurred in bands, one
    band per CPU this process may run on, unless it is a pool worker (see
    ``_in_bands``): the row pass as row bands, the column pass, the
    normalizer division and the peak clamp as column bands. The loop
    computes each line with the same arithmetic whatever other lines its
    array holds, and every band writes its own slice of a shared output, so
    the result is bit-identical to one whole-array call per pass.
    """
    check_blur_sigma(sigma)
    correlate1d = _nd_image().correlate1d
    if isinstance(m, PreparedMap):
        peak, floor, m = m.peak, m.floor, m.values
    else:
        m = as_map(m)
        peak, floor = m.max(), m.min()
    if sigma == 0 or peak == floor:
        # constant maps blur to themselves exactly; skipping the convolution
        # avoids float ripple that would fake variance downstream
        return m.copy()
    k = _gaussian_kernel(sigma)

    def blur_lines(lines: np.ndarray, axis: int, output: np.ndarray) -> np.ndarray:
        # convolve1d reverses its weights, and for an odd kernel it passes
        # this loop origin 0; mode 4 is "constant", here with cval 0. So for
        # the odd, symmetric kernels of _gaussian_kernel this call gets the
        # same weights and arguments as convolve1d(..., mode="constant"),
        # and writes the same bits. Every caller passes an output of the
        # shape of lines, which the public function would check.
        correlate1d(lines, k, axis, output, 4, 0.0, 0)
        return output

    # in-frame kernel mass, separable: outer(ny, nx)
    ny = blur_lines(np.ones(m.shape[0]), 0, np.empty(m.shape[0]))
    nx = blur_lines(np.ones(m.shape[1]), 0, np.empty(m.shape[1]))
    tmp = np.empty_like(m)
    out = np.empty_like(m)

    def row_band(rows: slice):
        blur_lines(m[rows], 1, tmp[rows])

    def column_band(cols: slice):
        blur_lines(tmp[:, cols], 0, out[:, cols])
        # the band's tmp columns are consumed: reuse them for its normalizer
        norm = np.multiply.outer(ny, nx[cols], out=tmp[:, cols])
        band = out[:, cols]
        band /= norm
        # each output pixel is a convex combination of inputs, so the input
        # peak bounds it; clamp off the float dust the division can add
        np.minimum(band, peak, out=band)

    _in_bands(((row_band, m.shape[0]), (column_band, m.shape[1])), m.size)
    return out


# Break-even, measured on a 2-core host (Python 3.11, scipy 1.17) with serial
# and banded blurs interleaved over the sigmas 1-32: starting and joining the
# band threads costs about 0.5-1 ms per blur, so at 256x192 banding lost up to
# 1.5 ms per blur for sigma <= 4 and saved 10% of the sweep, within run-to-run
# spread; it saved 19% at 384x256 and 32% at 768x512. Smaller maps run as one
# band. Banding pays end to end: on the same host, in 10 alternating pairs of
# bench/run.py hires-baseline runs (768x512 maps), it scored 3.89 pairs/s
# against 2.76 with every pass as one band, ahead in 10 of 10 pairs, at a
# CPU/wall of 1.49 against 1.00.
_BAND_MIN_PIXELS = 384 * 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _in_pool_worker() -> bool:
    """Whether this process was started by ``multiprocessing``.

    A process that has not loaded ``multiprocessing`` is none of its
    children, so this imports nothing.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and multiprocessing.parent_process() is not None


def _in_bands(passes, pixels: int) -> None:
    """Run each pass ``(work, lines)`` as ``work(slice)`` over contiguous bands.

    The bands of one pass cover ``range(lines)``; a pass ends before the
    next starts. Below ``_BAND_MIN_PIXELS``, and in a process started by
    ``multiprocessing`` (a worker of ``evaluate_batch``'s pool, whose
    siblings already keep the CPUs busy), each pass is one band on the
    calling thread. Otherwise a pass is cut into one band per CPU this
    process may run on (fewer if it has fewer lines): the first band runs
    on the calling thread and the others on a pool of one thread per other
    CPU. The threads are started for this call, so no executor outlives it
    (or is inherited by a forked pool worker). Every band's result is read,
    so an exception in any band propagates, and the threads are joined
    before it does.
    """
    cpus = 1 if pixels < _BAND_MIN_PIXELS or _in_pool_worker() else _usable_cpus()
    if cpus == 1:
        for work, lines in passes:
            work(slice(0, lines))
        return
    # imported here, so that only a banded blur loads the thread machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cpus - 1) as pool:
        for work, lines in passes:
            count = min(lines, cpus)
            edges = [lines * i // count for i in range(count + 1)]
            bands = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
            futures = [pool.submit(work, band) for band in bands[1:]]
            work(bands[0])
            for future in futures:
                future.result()


def invert_map(m) -> np.ndarray:
    """Map each value v to 1 - v. Input must be normalized (values in [0, 1])."""
    m = as_map(m)
    if m.max() > 1.0:
        raise ValueError("invert_map expects a normalized map")
    return 1.0 - m


def centered_gaussian_baseline(width: int, height: int, sigma_frac: float = 0.25) -> np.ndarray:
    """Peak-normalized Gaussian blob centered on the frame.

    sigma_frac sets the standard deviation as a fraction of the smaller
    frame dimension. The blob is the classic trivially-center-biased
    prediction used to stress-test metrics.
    """
    width = _integer("width", width, 1)
    height = _integer("height", height, 1)
    sigma_frac = _positive("sigma_frac", sigma_frac)
    sigma = sigma_frac * min(width, height)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    y = np.arange(height, dtype=np.float64)[:, None]
    x = np.arange(width, dtype=np.float64)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma * sigma))
    peak = g.max()
    # a sigma so small that its square, or the blob at every pixel, underflows
    # to 0 leaves no peak to normalize by
    if not peak > 0:
        raise ValueError(f"sigma_frac {sigma_frac!r} is too small for a {width}x{height} frame")
    return g / peak


@dataclass(frozen=True)
class FixationSet:
    """Ground-truth fixation locations for one image.

    points is an unordered (N, 2) integer array of (x, y) pixels, N >= 1,
    all inside frame = (width, height), a pair of plain ints >= 1.
    """

    image_id: str
    points: np.ndarray
    frame: tuple[int, int]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError(f"{self.image_id}: fixations must be a non-empty (N, 2) array")
        w, h = _frame(f"{self.image_id}: frame", self.frame)
        if pts.min() < 0 or (pts[:, 0] >= w).any() or (pts[:, 1] >= h).any():
            raise ValueError(f"{self.image_id}: fixation outside {w}x{h} frame")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "frame", (w, h))

    def __len__(self) -> int:
        return self.points.shape[0]


def density_from_fixations(fixations: FixationSet, fwhm_px: float) -> np.ndarray:
    """Fixation density map: one Gaussian per fixation, peak-normalized.

    fwhm_px is the full width at half maximum in pixels of the Gaussian
    placed on every fixation; sigma = fwhm_px * FWHM_TO_SIGMA. The result
    is deterministic and invariant to the order of the fixation points.
    """
    fwhm_px = _positive("fwhm_px", fwhm_px)
    w, h = fixations.frame
    impulses = np.zeros((h, w), dtype=np.float64)
    np.add.at(impulses, (fixations.points[:, 1], fixations.points[:, 0]), 1.0)
    return normalize_map(gaussian_blur(impulses, fwhm_px * FWHM_TO_SIGMA))


def values_at(m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map values sampled at integer (x, y) points; unchecked, so callers keep them in the frame."""
    pts = np.asarray(points)
    return m[pts[:, 1], pts[:, 0]]

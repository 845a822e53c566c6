"""Saliency-map data model and transforms.

A saliency map is a plain 2-D float64 array (rows = y, columns = x) of
finite, non-negative values. A "normalized" map additionally has peak
value 1 unless it is all-zero. Fixations are integer pixel coordinates
stored as (N, 2) arrays of (x, y) = (column, row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FWHM_TO_SIGMA",
    "FixationSet",
    "as_map",
    "centered_gaussian_baseline",
    "density_from_fixations",
    "gaussian_blur",
    "invert_map",
    "normalize_map",
    "resize_map",
    "values_at",
]

# sigma = FWHM / (2 * sqrt(2 * ln 2))
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


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
    """
    m = as_map(m)
    if target_w < 1 or target_h < 1:
        raise ValueError("target dimensions must be >= 1")
    h, w = m.shape
    if (target_h, target_w) == (h, w):
        return m.copy()
    ys = np.clip((np.arange(target_h) + 0.5) * (h / target_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(target_w) + 0.5) * (w / target_w) - 0.5, 0.0, w - 1.0)
    y0, wy0, wy1, y1 = _linear_taps(ys, h)
    x0, wx0, wx1, x1 = _linear_taps(xs, w)
    out = np.zeros((target_h, target_w))
    term = np.empty_like(out)
    for rows, wy in ((y0, wy0[:, None]), (y1, wy1[:, None])):
        band = m[rows]
        for cols, wx in ((x0, wx0), (x1, wx1)):
            np.take(band, cols, axis=1, out=term)
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


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(m, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with a border-renormalized truncated kernel.

    Kernel radius is ceil(3 * sigma). Near the borders the kernel is
    renormalized by the mass that falls inside the frame, so a constant map
    blurs to itself and interior-supported mass is preserved. sigma = 0
    returns the input unchanged.

    The convolution stays ``scipy.ndimage.convolve1d``, imported here so
    that only blurring loads scipy. Its summation order is part of the
    scores: a numpy banded-matrix blur differs by about 1e-15, which is
    enough to move synthesized density maps across ``np.rint`` ties and
    change the seed-0 benchmark references.
    """
    from scipy.ndimage import convolve1d

    m = as_map(m)
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0 or m.max() == m.min():
        # constant maps blur to themselves exactly; skipping the convolution
        # avoids float ripple that would fake variance downstream
        return m.copy()
    k = _gaussian_kernel(sigma)
    out = convolve1d(m, k, axis=1, mode="constant")
    out = convolve1d(out, k, axis=0, mode="constant")
    # in-frame kernel mass, separable: outer(ny, nx)
    ny = convolve1d(np.ones(m.shape[0]), k, mode="constant")
    nx = convolve1d(np.ones(m.shape[1]), k, mode="constant")
    out /= np.outer(ny, nx)
    # each output pixel is a convex combination of inputs, so the input
    # peak bounds it; clamp off the float dust the division can add
    return np.minimum(out, m.max(), out=out)


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
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    if sigma_frac <= 0:
        raise ValueError("sigma_frac must be > 0")
    sigma = sigma_frac * min(width, height)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    y = np.arange(height, dtype=np.float64)[:, None]
    x = np.arange(width, dtype=np.float64)[None, :]
    g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma * sigma))
    return g / g.max()


@dataclass(frozen=True)
class FixationSet:
    """Ground-truth fixation locations for one image.

    points is an (N, 2) integer array of (x, y) pixel coordinates, all
    inside frame = (width, height). The point set is unordered; N >= 1.
    """

    image_id: str
    points: np.ndarray
    frame: tuple[int, int]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError(f"{self.image_id}: fixations must be a non-empty (N, 2) array")
        w, h = self.frame
        if w < 1 or h < 1:
            raise ValueError(f"{self.image_id}: frame must be at least 1x1")
        if pts.min() < 0 or (pts[:, 0] >= w).any() or (pts[:, 1] >= h).any():
            raise ValueError(f"{self.image_id}: fixation outside {w}x{h} frame")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def density_from_fixations(fixations: FixationSet, fwhm_px: float) -> np.ndarray:
    """Fixation density map: one Gaussian per fixation, peak-normalized.

    fwhm_px is the full width at half maximum in pixels of the Gaussian
    placed on every fixation; sigma = fwhm_px * FWHM_TO_SIGMA. The result
    is deterministic and invariant to the order of the fixation points.
    """
    if fwhm_px <= 0:
        raise ValueError("fwhm_px must be > 0")
    w, h = fixations.frame
    impulses = np.zeros((h, w), dtype=np.float64)
    np.add.at(impulses, (fixations.points[:, 1], fixations.points[:, 0]), 1.0)
    return normalize_map(gaussian_blur(impulses, fwhm_px * FWHM_TO_SIGMA))


def values_at(m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map values sampled at integer (x, y) points."""
    pts = np.asarray(points)
    return m[pts[:, 1], pts[:, 0]]

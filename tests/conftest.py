import numpy as np
import pytest

from saleval.maps import FixationSet
from saleval.shuffle import build_shuffle_bank


@pytest.fixture
def tie_case():
    """A map whose values sit exactly on the ROC grid, on bin edges and at 1.0.

    Values come from k/255, the 256-level threshold grid itself, the edges
    k/16 (which include every k/8) and 1.0, so every threshold and bin
    boundary tie the batched kernels must break is hit. Returns the map,
    the fixations of image "a" and a three-image shuffle bank.
    """
    rng = np.random.default_rng(21)
    frame = (32, 24)
    ties = np.concatenate(
        (np.arange(256) / 255, np.linspace(1.0, 0.0, 256), np.arange(17) / 16, [1.0])
    )
    s = rng.choice(ties, size=(frame[1], frame[0]))
    sets = [
        FixationSet(name, np.column_stack((rng.integers(0, 32, k), rng.integers(0, 24, k))), frame)
        for name, k in (("a", 15), ("b", 9), ("c", 12))
    ]
    fix = sets[0]
    s[fix.points[:4, 1], fix.points[:4, 0]] = 1.0
    return s, fix, build_shuffle_bank(sets, frame)

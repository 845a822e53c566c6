"""Exception types shared across the package."""

__all__ = ["DegenerateInputError", "ManifestError"]


class DegenerateInputError(ValueError):
    """Input is structurally valid but statistically degenerate for a metric.

    Raised when a map is constant under CC, NSS or a standardized trial
    metric; when a map's variance, or CC's squared denominator, falls below
    float64's smallest normal number or overflows to inf, so the score
    would lose its digits; and when AUC-S's density map is all zero or its
    binarization has no positives or no negatives. Batch evaluators catch
    this and record a missing score instead of fabricating a value.
    """


class ManifestError(ValueError):
    """A dataset manifest failed validation; the message names the offender."""

"""Exception types shared across the package."""

__all__ = ["DegenerateInputError", "ManifestError"]


class DegenerateInputError(ValueError):
    """Input is structurally valid but statistically degenerate for a metric.

    Raised e.g. for a zero-variance map under CC or NSS. Batch evaluators
    catch this and record a missing score instead of fabricating a value.
    """


class ManifestError(ValueError):
    """A dataset manifest failed validation; the message names the offender."""

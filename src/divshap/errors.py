"""Exception types raised across the divshap modules."""


class DivshapError(Exception):
    """Base class for all divshap errors."""


class RaggedRowError(DivshapError):
    """A row in a flat time-series file has a different field count than the rest."""


class NonNumericFieldError(DivshapError):
    """A sample field could not be parsed as a finite number."""


class EmptyInputError(DivshapError):
    """The input contains no usable series."""


class FoldCountTooLargeError(DivshapError):
    """More folds requested than there are series."""


class LengthMismatchError(DivshapError):
    """Two sequences that must have equal length do not."""


class ShapeletLongerThanSeriesError(DivshapError):
    """A query subsequence is longer than the series it is slid along."""


class BandEmptyError(DivshapError):
    """The candidate length band [min_len, max_len] is empty."""


class DimensionMismatchError(DivshapError):
    """Matrix dimensions are incompatible with the model."""


class NumericalFailureError(DivshapError):
    """A dense factorization failed to converge."""


class SingleClassTrainingError(DivshapError):
    """Training data contains fewer than two classes."""


class UnknownLabelError(DivshapError):
    """A test label does not occur among the training labels."""


class ModelFormatError(DivshapError):
    """A saved model file is not a well-formed divshap model."""


class InvalidConfigError(DivshapError):
    """A configuration value is outside the values it may take."""

"""Exception types raised across the divshap modules, the warning categories
they warn with, require_int and require_bool."""

import numbers

import numpy as np


class DivshapError(Exception):
    """Base class for all divshap errors."""


class RaggedRowError(DivshapError):
    """A row in a flat time-series file has a different field count than the rest."""


class NonNumericFieldError(DivshapError):
    """A sample field could not be parsed as a finite number."""


class ValueRangeError(DivshapError):
    """Series values are too large to square without overflow."""


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


class FlatTrainingSetError(DivshapError):
    """Every candidate window of a training set is flat, so z-normalized
    distances cannot tell its series apart."""


class DimensionMismatchError(DivshapError):
    """Matrix dimensions are incompatible with the model, or a sequence of
    values is not 1-D."""


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


class NoUsableFoldsWarning(UserWarning):
    """No cross-validation fold leaves two classes to fit on, so the k sweep
    scores training accuracy instead."""


class LeaveOneOutFoldsWarning(UserWarning):
    """A class has fewer members than folds, so its members are spread one
    per fold (leave-one-out on that class); every fold may still be usable."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise InvalidConfigError unless value is an integer (numpy's too, but
    not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidConfigError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def require_bool(name: str, value) -> None:
    """Raise InvalidConfigError unless value is a bool (numpy's too): a
    string such as "false" is truthy and would read as on."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfigError(f"{name} must be True or False, got {value!r}")

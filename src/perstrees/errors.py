"""Exception types shared across the package, and the checks of settings."""

import math
from numbers import Integral, Real

import numpy as np


class PerstreesError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PerstreesError):
    """A column, feature, or level is missing, duplicated, or malformed."""


class ParseError(PerstreesError):
    """A cell could not be parsed; carries row and column context."""

    def __init__(self, message, row=None, column=None):
        if row is not None or column is not None:
            message = f"{message} (row {row}, column {column!r})"
        super().__init__(message)
        self.row = row
        self.column = column


class DomainError(PerstreesError):
    """A value lies outside its documented domain (labels, probabilities...)."""


class ConfigError(PerstreesError):
    """An unknown identifier or an invalid configuration value."""


def _check_int(name, value, minimum, none_ok=False, maximum=None):
    """value if it is an integer (not a bool) of at least minimum and,
    where given, at most maximum, or None where none_ok; ConfigError
    naming the setting otherwise."""
    if value is None and none_ok:
        return value
    # exact ints (and floats below) skip the ABC check, slow enough to show on model files
    integral = type(value) is int or not isinstance(value, bool) and isinstance(value, Integral)
    if not integral or value < minimum or maximum is not None and value > maximum:
        what = "None or an integer" if none_ok else "an integer"
        bound = f"of at least {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ConfigError(f"{name} must be {what} {bound}, got {value!r}")
    return value


def _check_number(name, value):
    """value if it is a finite real number (not a bool); ConfigError
    naming the setting otherwise."""
    real = type(value) is float or not isinstance(value, bool) and isinstance(value, Real)
    if not real or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_shape(doc):
    """The treatment count m >= 1 and feature count d >= 0 of a model document."""
    return _check_int("m", doc["m"], 1), _check_int("d", doc["d"], 0)


def _check_keys(owner, params, valid):
    """ConfigError naming the first key of params that valid lacks."""
    for key in params:
        if key not in valid:
            listed = ", ".join(valid) or "none"
            raise ConfigError(f"unknown {owner} parameter {key!r}; valid keys: {listed}")


def _check_object(name, value):
    """value if it is a JSON object; ConfigError naming it otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _check_floats(name, value, shape):
    """value as a float64 array of the given shape, each entry of shape a
    length or None for any length of at least 1; ConfigError naming the
    setting unless value holds finite numbers (not bools) of that shape."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        problem = f"got {value!r:.60}"
    elif a.ndim != len(shape) or any(
        n < 1 if want is None else n != want for n, want in zip(a.shape, shape)
    ):
        problem = f"got shape {a.shape}"
    elif not np.isfinite(a).all():
        problem = "got a non-finite entry"
    else:
        return a.astype(np.float64, copy=False)
    want = " x ".join("k" if n is None else str(n) for n in shape)
    raise ConfigError(f"{name} must be {want} finite numbers, {problem}")


class UndefinedImpurityError(PerstreesError):
    """No treatment is eligible in the subsample, so impurity is undefined."""


class UndefinedEstimateError(PerstreesError):
    """A risk estimate is undefined, e.g. a leaf with no matching subjects."""


class MissingPropensityError(PerstreesError):
    """The dataset carries no assignment probabilities."""


class MissingCounterfactualError(PerstreesError):
    """The dataset carries no counterfactual outcomes."""


class EmptyMenuError(PerstreesError):
    """A tree node has no candidate cuts to choose from."""


class InfeasibleError(PerstreesError):
    """No assignment satisfies the minimum-leaf-occupancy requirements."""


class SolveTimeout(PerstreesError):
    """The work limit was reached before any incumbent solution existed."""

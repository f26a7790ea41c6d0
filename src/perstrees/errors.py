"""Exception types shared across the package, and the checks of settings."""

import numbers


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


def _check_int(name, value, minimum, none_ok=False):
    """value if it is an integer (not a bool) of at least minimum, or
    None where none_ok; ConfigError naming the setting otherwise."""
    if value is None and none_ok:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        what = "None or an integer" if none_ok else "an integer"
        raise ConfigError(f"{name} must be {what} of at least {minimum}, got {value!r}")
    return value


def _check_keys(owner, params, valid):
    """ConfigError naming the first key of params that valid lacks."""
    for key in params:
        if key not in valid:
            listed = ", ".join(valid) or "none"
            raise ConfigError(f"unknown {owner} parameter {key!r}; valid keys: {listed}")


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
    """The time limit expired before any incumbent solution existed."""

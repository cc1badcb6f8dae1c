"""Exception hierarchy shared across the toolbox."""


class TabkitError(Exception):
    """Base class for all toolbox errors."""


class DatasetError(TabkitError):
    """Problem with an on-disk dataset."""


class LoadError(DatasetError):
    """A required dataset file is missing or unreadable."""


class SchemaError(DatasetError):
    """Dataset contents disagree with the declared schema."""


class ParseError(DatasetError):
    """A cell could not be parsed; message names the file, row, and column."""


class FitError(TabkitError):
    """A transform or model could not be fitted on the given training data."""


class ConfigError(FitError, ValueError):
    """A hyperparameter is out of range; a run records it like any failed fit."""


class ShapeError(TabkitError):
    """Input shape does not match what was seen at fit time."""


def check_width(stage: str, fitted: int, got: int, columns: str = "columns"):
    """Raise ``ShapeError`` unless ``got`` columns match the ``fitted`` ones."""
    if got != fitted:
        raise ShapeError(f"{stage} was fitted on {fitted} {columns}, got {got}")


class EncodeError(TabkitError):
    """A value cannot be encoded (for example, a non-finite input)."""


class DivergenceError(FitError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class SpaceError(TabkitError):
    """Malformed search-space document; message carries the offending path."""


class TuningError(TabkitError):
    """Hyperparameter search failed; carries the trial log."""

    def __init__(self, message: str, trials=None):
        super().__init__(message)
        self.trials = trials or []


class MetricError(TabkitError):
    """Predictions are not valid inputs for metric computation."""


class RankError(TabkitError):
    """The (method, dataset) result grid is incomplete."""


def describe_failure(err: Exception) -> str:
    """The error text kept for a failed seed or trial: a toolbox error's own
    message, any other exception's prefixed with its type."""
    if isinstance(err, TabkitError):
        return str(err)
    return f"{type(err).__name__}: {err}"

"""Exception types shared across the package, and the number check the
configs share."""

import math
import numbers


class ShapeError(ValueError):
    """Operand shapes are incompatible with an operation's contract."""


class ConfigError(ValueError):
    """A configuration value is out of its documented domain."""


class DataError(ValueError):
    """Input data violates a format or consistency contract."""


class UndefinedResultError(ValueError):
    """A statistic is undefined for the given inputs (e.g. no comparable pairs)."""


class NonFiniteError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class ConsumedGraphError(RuntimeError):
    """backward() reached a graph that an earlier backward() already swept."""


def check_numbers(where: str, cfg, names, integer: bool):
    """ConfigError, prefixed by where, unless each named field of cfg is an
    integer (integer=True) or a finite real number; a bool is neither."""
    for name in names:
        v = getattr(cfg, name)
        if integer and (not isinstance(v, numbers.Integral) or isinstance(v, bool)):
            raise ConfigError(f"{where}: {name} {v!r} is not an integer")
        if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(v):
            raise ConfigError(f"{where}: {name} {v!r} is not a finite number")

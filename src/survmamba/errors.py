"""Exception types shared across the package."""


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

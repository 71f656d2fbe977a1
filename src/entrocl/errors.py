"""Exception types shared across the package, and the finiteness check of its configs."""

import math
from dataclasses import fields


class DimensionError(ValueError):
    """Shapes of the operands do not fit the operation."""


class ConfigError(ValueError):
    """A configuration value or combination is invalid."""


class FormatError(ValueError):
    """A data file does not match its declared binary/text format."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def require_finite(config):
    """Raise ConfigError naming the first float field of a config dataclass that is not finite."""
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value!r}")

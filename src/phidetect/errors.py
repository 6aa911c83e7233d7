"""Exception types shared across the package."""

__all__ = ["DomainError", "CacheCorruptionError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CacheCorruptionError(RuntimeError):
    """A calibration cache file exists but its contents cannot be trusted."""


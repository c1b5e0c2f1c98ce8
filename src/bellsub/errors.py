"""Exception types shared across the package."""


class DomainError(ValueError):
    """A state point or parameter violates an operation's domain precondition."""


class InvalidInputError(ValueError):
    """Non-finite or structurally invalid input."""


class ConfigError(ValueError):
    """Inconsistent configuration (grid, sampling or coefficient setup)."""


class SubordinationError(ValueError):
    """A martingale pair fails the differential subordination precondition."""

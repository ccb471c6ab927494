"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor extents are incompatible with the requested operation."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class DegenerateInputError(ValueError):
    """Input collapses to a case with no defined answer (e.g. zero vector)."""


class GenerationError(RuntimeError):
    """Synthetic scene generation could not satisfy the requested layout."""


class ConfigError(ValueError):
    """A config file or command line is malformed, names an unknown key, or
    asks for a value or combination of options that is out of range."""


class FormatError(ValueError):
    """A file is not in the format its reader expects, or is cut short."""

"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(RainbowError, ValueError):
    """Arguments violate a documented precondition."""


class InvalidSpec(InvalidInput):
    """Cycle geometry parameters are internally inconsistent: an
    InvalidInput, so a caller that refuses bad input refuses these too."""


class InvalidCycle(RainbowError, ValueError):
    """An edge sequence is not a cycle of the required shape."""


class TooLarge(RainbowError, ValueError):
    """Instance exceeds an enforced enumeration limit."""


class NoRealRoot(RainbowError, ValueError):
    """The coupling quadratic has no real root in the admissible range."""

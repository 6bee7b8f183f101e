"""Exception types shared across the package."""


class ValidationError(Exception):
    """Malformed or inconsistent input (machine, trace, formula, event)."""


class ParseError(ValidationError):
    """Syntax error with a position tag."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnsupportedFragmentError(ValidationError):
    """Formula outside the universally quantified fragment."""


class SizeGuardError(RuntimeError):
    """Instance exceeds a configured desk-scale guard."""

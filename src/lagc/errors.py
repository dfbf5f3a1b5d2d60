"""Error types shared across the engine."""


class LagcError(Exception):
    """Base class for all engine errors."""


class UnboundVariableError(LagcError):
    """A variable was dereferenced outside the domain of the current state."""

    def __init__(self, variable: str):
        super().__init__(f"unbound variable: {variable!r}")
        self.variable = variable


class UndefinedTraceOpError(LagcError):
    """A partial trace operation was applied outside its domain."""


class FreshBoundExceededError(LagcError):
    """Fresh-variable generation ran out of attempts before finding a free name."""


class DivergenceLimitError(LagcError):
    """Fixpoint composition gave up after the configured number of rounds."""


class PolicyError(LagcError, ValueError):
    """A composition policy was given an out-of-range value."""


class ParseError(LagcError):
    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        detail = f", found {found!r}" if found else ""
        super().__init__(f"{line}:{column}: expected {expected}{detail}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


class ModeError(LagcError):
    """A construct outside the selected language subset was used."""

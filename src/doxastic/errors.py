"""Exception types shared across the package."""

from __future__ import annotations


class DoxasticError(Exception):
    """Base class for every error raised by this package."""


class FormulaSyntaxError(DoxasticError):
    """Malformed formula text; `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlphabetMismatchError(DoxasticError):
    """Models or formulas do not fit the order's alphabet."""


class UndeclaredVariableError(AlphabetMismatchError):
    """A formula mentions a variable outside the ambient alphabet."""

    def __init__(self, name: str, position: int | None = None):
        where = f" (at position {position})" if position is not None else ""
        super().__init__(f"undeclared variable '{name}'{where}")
        self.name = name
        self.position = position


class CapExceededError(DoxasticError):
    """Model-space enumeration requested over too many variables."""


class LengthCapExceededError(DoxasticError):
    """A translation would emit more members or pairs than the configured limit."""


class NotAPreorderError(DoxasticError):
    """An explicit order fails reflexivity, transitivity, or connectedness."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            shown += f"; and {extra} more"
        super().__init__(f"not a connected preorder: {shown}")


class InconsistentRevisionError(DoxasticError):
    """A revision step requires a consistent formula but got none."""


class NotNormalizedError(DoxasticError):
    """An operation requires a normalized level order."""


class DocumentError(DoxasticError):
    """Malformed order document; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line

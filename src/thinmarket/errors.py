"""Exception types shared across the package."""


class InvalidModelError(ValueError):
    """Raised when a market model fails validation and a computation needs it."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid market model: " + "; ".join(self.violations))


class ScenarioError(ValueError):
    """Raised on malformed scenario files; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"scenario field '{field}': {message}")


class ConsistencyError(RuntimeError):
    """An internal cross-check disagreed beyond tolerance (an implementation bug,
    not bad input)."""


"""Exception hierarchy for kwbandit.

Everything derives from ValueError so callers that only care about
"bad input" can catch one type.
"""


def raise_first(problems: list[str]) -> None:
    """Raise the first of a value rule's problems as a ValueError (the
    config parser reports all of them)."""
    if problems:
        raise ValueError(problems[0])


class KWBanditError(ValueError):
    """Base class for all kwbandit errors."""


class DomainViolationError(KWBanditError):
    """A point was used outside the feasible box."""


class ContractionViolationError(KWBanditError):
    """The step size does not yield a contraction factor below one."""


class MeanValueConditionError(KWBanditError):
    """The gradient-offset radius is not below c**2."""


class ConfigValidationError(KWBanditError):
    """A config document failed validation.

    Carries the full list of problems, not just the first one; the
    message names them all on one line.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config: " + "; ".join(self.errors))

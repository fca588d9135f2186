"""Exception types shared across the package."""

from __future__ import annotations


class EconomyValidationError(ValueError):
    """Economy data violates a model invariant.

    ``errors`` carries the complete list of violations, one message per
    problem, each prefixed with a stable code such as ``BoundsCrossed``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InvalidMatching(ValueError):
    """A matching uses edges outside its graph or repeats a vertex."""


class DummyInSet(ValueError):
    """An item set that must contain only real items includes the dummy."""


class UpperBoundViolation(ValueError):
    """A price increase would push some item past its upper bound."""


class NoEntrants(RuntimeError):
    """A lottery was requested for an item nobody is eligible to buy.

    Cannot occur when the rationed set is over-demanded; raising it signals
    an internal contract violation, not bad user input.
    """


class ScriptError(ValueError):
    """A scripted lottery ran out of winners or named a non-entrant."""


class TreeSizeExceeded(RuntimeError):
    """The lottery tree grew past the configured node or leaf limit."""

    def __init__(self, message, nodes=None, leaves=None):
        super().__init__(message)
        self.nodes = nodes
        self.leaves = leaves


class SizeGuard(ValueError):
    """An exhaustive search was asked to cover too large a space."""


class RoundLimitExceeded(SizeGuard):
    """A run needed more rounds than its round limit allows.

    ``rounds`` is the count at which the run stopped: one past the limit.
    """

    def __init__(self, message, rounds):
        super().__init__(message)
        self.rounds = rounds


class NotTwoBuyers(ValueError):
    """Two-buyer case analysis was applied to a different market size."""

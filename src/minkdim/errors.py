"""Shared exception types."""

from __future__ import annotations


class BudgetExceededError(Exception):
    """An enumeration would produce more cylinders than the configured budget.

    ``requested`` names the cylinder count as "S^depth".
    """

    def __init__(self, requested: str, budget: int):
        super().__init__(
            f"enumerating {requested} cylinders exceeds the budget of {budget}"
        )
        self.requested = requested
        self.budget = budget


class ToleranceError(Exception):
    """A numeric routine could not reach its residual target."""

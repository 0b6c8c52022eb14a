"""Three-valued verdicts for semi-decidable checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class Outcome(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome plus evidence: a witness for Violated, budget use for Inconclusive.

    Inconclusive is never an error state; it records that the budget ran out
    before the question was settled, so it must never be conflated with
    Violated by callers.
    """

    outcome: Outcome
    witness: Any = None
    budget_used: tuple[tuple[str, int], ...] = field(default=())

    @property
    def is_holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    @property
    def is_violated(self) -> bool:
        return self.outcome is Outcome.VIOLATED

    @property
    def is_inconclusive(self) -> bool:
        return self.outcome is Outcome.INCONCLUSIVE

    def budget(self) -> dict[str, int]:
        return dict(self.budget_used)


# The plain Holds: verdicts are frozen, so every caller can share one.
_HOLDS = Verdict(Outcome.HOLDS)


def holds(witness: Any = None, **budget: int) -> Verdict:
    """Holds; without a witness or a budget, the one shared plain Holds."""
    if witness is None and not budget:
        return _HOLDS
    return Verdict(Outcome.HOLDS, witness, tuple(sorted(budget.items())))


def violated(witness: Any, **budget: int) -> Verdict:
    return Verdict(Outcome.VIOLATED, witness, tuple(sorted(budget.items())))


def inconclusive(witness: Any = None, **budget: int) -> Verdict:
    return Verdict(Outcome.INCONCLUSIVE, witness, tuple(sorted(budget.items())))

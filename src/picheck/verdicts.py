"""Three-valued verdicts for semi-decidable checks.

Verdicts are frozen, so equal ones can be one object: every Holds without
a witness is shared per budget, the way interned terms share equal values
(Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).  A Holds
with a witness, and every Violated and Inconclusive, is its own object.
"""

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


# The plain Holds, and every other witness-free Holds keyed by its witness
# and budget items, both in call order and sorted, so that keyword order
# makes no second verdict.  The table grows only with the distinct budgets
# a run returns.
_HOLDS = Verdict(Outcome.HOLDS)
_SHARED: dict = {}


def holds(witness: Any = None, **budget: int) -> Verdict:
    """Holds.  Without a witness (``None`` or ``()``) it is one shared
    verdict per budget, built with ``budget_used`` sorted on the first
    request; any other witness gets its own verdict."""
    if witness is None and not budget:
        return _HOLDS
    if witness is None or witness == ():
        key = (witness, *budget.items())
        try:
            return _SHARED[key]
        except KeyError:
            used = tuple(sorted(budget.items()))
            v = _SHARED.setdefault((witness, *used), Verdict(Outcome.HOLDS, witness, used))
            _SHARED[key] = v
            return v
    return Verdict(Outcome.HOLDS, witness, tuple(sorted(budget.items())))


def violated(witness: Any, **budget: int) -> Verdict:
    return Verdict(Outcome.VIOLATED, witness, tuple(sorted(budget.items())))


def inconclusive(witness: Any = None, **budget: int) -> Verdict:
    return Verdict(Outcome.INCONCLUSIVE, witness, tuple(sorted(budget.items())))

"""Three-valued verdicts: the shared witness-free Holds."""

import dataclasses

import pytest

from picheck import verdicts
from picheck.syntax import NIL
from picheck.verdicts import Outcome, Verdict


def test_plain_holds_is_one_frozen_verdict():
    v = verdicts.holds()
    assert v is verdicts.holds()
    assert v.is_holds and v.witness is None and v.budget() == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.outcome = Outcome.VIOLATED


def test_holds_with_a_witness_or_a_budget_is_its_own_verdict():
    """A Holds with a witness or a budget is never the plain Holds.  One
    with a witness is a new object on every call.  One without a witness,
    ``None`` or ``()``, is shared per budget: the same object for equal
    budgets, whatever the keyword order, and another for another budget."""
    with_witness = verdicts.holds(witness=NIL)
    with_budget = verdicts.holds(steps=1)
    for v in (with_witness, with_budget):
        assert v.is_holds and v is not verdicts.holds()
    assert with_witness.witness is NIL and with_witness.budget() == {}
    assert with_budget.witness is None and with_budget.budget() == {"steps": 1}
    assert verdicts.holds(witness=NIL) is not with_witness
    assert verdicts.holds(witness=(NIL,), steps=1) is not verdicts.holds(witness=(NIL,), steps=1)
    assert verdicts.holds(steps=1) is with_budget
    assert verdicts.holds(steps=2) is not with_budget
    no_witnesses = verdicts.holds(witness=(), steps=1)
    assert no_witnesses == Verdict(Outcome.HOLDS, (), (("steps", 1),))
    assert no_witnesses is not with_budget
    assert verdicts.holds(witness=(), steps=1) is no_witnesses
    assert verdicts.holds(witness=(), steps=2) is not no_witnesses
    shared = [with_budget, no_witnesses]
    for witness in (None, ()):
        # Budget keys no other test asks for, so this is their first request.
        first = verdicts.holds(witness, zeta=2, alpha=1)
        assert first.witness == witness
        assert first.budget_used == (("alpha", 1), ("zeta", 2))
        assert verdicts.holds(witness, alpha=1, zeta=2) is first
        assert verdicts.holds(witness, zeta=2, alpha=1) is first
        assert verdicts.holds(witness, zeta=2, alpha=3) is not first
        shared.append(first)
    for v in shared:
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.outcome = Outcome.VIOLATED
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.budget_used = ()

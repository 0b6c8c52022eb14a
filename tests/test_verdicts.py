"""Three-valued verdicts: the shared plain Holds."""

import dataclasses

import pytest

from picheck import verdicts
from picheck.syntax import NIL
from picheck.verdicts import Outcome


def test_plain_holds_is_one_frozen_verdict():
    v = verdicts.holds()
    assert v is verdicts.holds()
    assert v.is_holds and v.witness is None and v.budget() == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.outcome = Outcome.VIOLATED


def test_holds_with_a_witness_or_a_budget_is_its_own_verdict():
    with_witness = verdicts.holds(witness=NIL)
    with_budget = verdicts.holds(steps=1)
    for v in (with_witness, with_budget):
        assert v.is_holds and v is not verdicts.holds()
    assert with_witness.witness is NIL and with_witness.budget() == {}
    assert with_budget.witness is None and with_budget.budget() == {"steps": 1}
    assert verdicts.holds(steps=1) is not with_budget

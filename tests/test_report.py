import math

import pytest

from schlicht.errors import NonFiniteCoefficients
from schlicht.report import BoundReport


def test_a_case_passes_exactly_on_its_printed_bound():
    rep = BoundReport("r")
    rep.add("equal", 1.0, 1.0)
    rep.add("over-by-1e-10", 1.0 + 1e-10, 1.0)
    rep.add("over-zero-by-5e-10", 5e-10, 0.0)
    assert [c.passed for c in rep.cases] == [True, False, False]
    assert [c.id for c in rep.failures] == ["over-by-1e-10", "over-zero-by-5e-10"]
    assert not rep.all_pass
    # a NaN or an infinity has no verdict and no JSON text: add raises and
    # keeps no case
    for lhs, rhs in ((math.nan, 1.0), (math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(NonFiniteCoefficients, match="is not finite"):
            rep.add("non-finite", lhs, rhs)
    assert len(rep.cases) == 3


def test_report_schema_keeps_a_zero_tolerance():
    rep = BoundReport("r")
    rep.add("b", 2.0, 1.0)
    rep.add("a", 0.0, 1.0)
    assert rep.to_dict() == {
        "suite": "r",
        "tolerance": 0.0,
        "cases": [
            {"id": "a", "lhs": 0.0, "rhs": 1.0, "pass": True},
            {"id": "b", "lhs": 2.0, "rhs": 1.0, "pass": False},
        ],
    }

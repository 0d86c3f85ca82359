"""Pass/fail bookkeeping for inequality checks.

A case passes exactly when lhs <= rhs; any allowance is part of the printed
bound.  Both sides are finite: a NaN or an infinity has no verdict, and JSON
has no text for it, so adding one raises NonFiniteCoefficients.  Reports
serialize to the JSON schema {"suite": ..., "tolerance": 0.0 (a constant),
"cases": [{"id", "lhs", "rhs", "pass"}]}, cases sorted by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteCoefficients


@dataclass(frozen=True)
class Case:
    id: str
    lhs: float
    rhs: float

    @property
    def passed(self):
        return self.lhs <= self.rhs

    def to_dict(self):
        return {"id": self.id, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass
class BoundReport:
    name: str
    cases: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, case_id, lhs, rhs):
        case = Case(str(case_id), float(lhs), float(rhs))
        if not (math.isfinite(case.lhs) and math.isfinite(case.rhs)):
            raise NonFiniteCoefficients(
                f"case {case.id} is not finite: lhs = {case.lhs}, rhs = {case.rhs}"
            )
        self.cases.append(case)

    @property
    def all_pass(self):
        return all(c.passed for c in self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.passed]

    def to_dict(self):
        out = {
            "suite": self.name,
            "tolerance": 0.0,
            "cases": [c.to_dict() for c in sorted(self.cases, key=lambda c: c.id)],
        }
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out

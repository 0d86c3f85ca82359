"""Pass/fail bookkeeping for inequality checks.

A case passes when lhs <= rhs + tolerance.  Reports serialize to the JSON
schema {"suite": ..., "tolerance": ..., "cases": [{"id", "lhs", "rhs",
"pass"}]} and case lists are kept sorted by id for deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    id: str
    lhs: float
    rhs: float
    passed: bool

    def to_dict(self):
        return {"id": self.id, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass
class BoundReport:
    name: str
    tolerance: float
    cases: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, case_id, lhs, rhs):
        ok = bool(lhs <= rhs + self.tolerance)
        self.cases.append(Case(str(case_id), float(lhs), float(rhs), ok))
        return ok

    @property
    def all_pass(self):
        return all(c.passed for c in self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.passed]

    def to_dict(self):
        out = {
            "suite": self.name,
            "tolerance": self.tolerance,
            "cases": [c.to_dict() for c in sorted(self.cases, key=lambda c: c.id)],
        }
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out

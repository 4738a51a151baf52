"""Structured results of one classification scenario run."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def rat_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass
class OracleCheck:
    """One derived quantity compared against its frozen reference value."""

    name: str
    status: str  # "pass" | "fail"
    detail: str = ""

    @classmethod
    def of(cls, name, ok, detail=""):
        return cls(name, "pass" if ok else "fail", detail)


class Checks(list):
    """The oracle checks of one stage, in report order."""

    def add(self, name, ok, detail=""):
        self.append(OracleCheck.of(name, ok, detail))


@dataclass
class RootRecord:
    """A certified real root enclosure, with its angle when applicable."""

    poly: str
    interval: tuple  # (Fraction, Fraction)
    decimal: float
    theta2: float | None = None

    @property
    def width(self):
        return float(self.interval[1] - self.interval[0])

    def to_json(self):
        return {
            "poly": self.poly,
            "interval": [rat_str(self.interval[0]), rat_str(self.interval[1])],
            "decimal": self.decimal,
            "width": self.width,
            "theta2": self.theta2,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario derives, plus its oracle verdicts.

    ``artifacts`` holds live objects (bases, enclosures) for downstream
    verification; it is not serialised.
    """

    scenario: str
    pipeline_polynomials: list = field(default_factory=list)
    elimination_basis: list = field(default_factory=list)
    conditions: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    stability: dict = field(default_factory=dict)
    oracle_checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict, repr=False)

    def check(self, name, ok, detail=""):
        self.oracle_checks.append(OracleCheck.of(name, ok, detail))
        return ok

    def passed(self):
        return all(c.status == "pass" for c in self.oracle_checks)

    def failures(self):
        return [c for c in self.oracle_checks if c.status != "pass"]

    def to_document(self):
        return {
            "scenario": self.scenario,
            "pipeline_polynomials": list(self.pipeline_polynomials),
            "elimination_basis": list(self.elimination_basis),
            "conditions": list(self.conditions),
            "roots": [r.to_json() for r in self.roots],
            "stability": self.stability,
            "oracle_checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.oracle_checks
            ],
        }

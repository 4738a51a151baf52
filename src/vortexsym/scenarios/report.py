"""Structured results of one classification scenario run."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from vortexsym.trigvortex import angle_of_r
from vortexsym import targets

# The stages return isolating intervals; a report refines the ones it shows
# to its driver's ``eps``, DEFAULT_EPS unless given, and the oracle checks
# read theirs to the fixed CHECK_WIDTH, so that no verdict depends on eps.
DEFAULT_EPS = Fraction(1, 10**9)
CHECK_WIDTH = Fraction(1, 10**12)


def rat_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
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

    def expect(self, name, passing, derived):
        """Add a check that passes with the detail ``passing`` when nothing
        contrary was ``derived``, else shows both as expected and derived."""
        ok = derived is None
        self.add(name, ok, passing if ok else f"expected: {passing}; derived: {derived}")


def pipeline_check(comps, reference):
    """The ``pipeline_polynomials`` check, as a one-check :class:`Checks`:
    each reduced polynomial of ``comps`` is a scalar multiple of its product
    in ``reference``, a pipeline entry of :mod:`vortexsym.targets`; on
    failure the detail numbers, from 1, the components that are not."""
    goals = targets.build_products(targets.R_REGISTRY, reference)
    pairs = enumerate(zip(comps, goals), 1)
    differ = [k for k, (c, g) in pairs if c.r_poly.primitive() != g.primitive()]
    checks = Checks()
    checks.expect(
        "pipeline_polynomials",
        "three reduced polynomials match the reference forms up to scalars",
        f"components {differ} are not multiples of their references" if differ else None,
    )
    return checks


def four_circulations(caller, mus):
    """``mus`` as a tuple of four nonzero Fractions, None left as None; any
    other count raises ``ValueError`` naming ``caller``, and so does a zero
    circulation, at which the weighted Hessian is undefined."""
    if mus is not None:
        mus = tuple(Fraction(m) for m in mus)
        if len(mus) != 4:
            raise ValueError(f"{caller} needs four circulations")
        if not all(mus):
            raise ValueError(f"{caller} needs nonzero circulations")
    return mus


def checks_of(stages):
    """The oracle checks of the stage results in ``stages`` (a dict by stage
    name, None for a stage not run), in order."""
    return [c for stage in stages.values() if stage is not None for c in stage.checks]


@dataclass(frozen=True)
class RootRecord:
    """A certified enclosure of a real root r, with the angle theta2 there."""

    poly: str
    interval: tuple  # (Fraction, Fraction)
    decimal: float
    theta2: float

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


def root_records(poly, intervals, eps):
    """One record per isolating interval of a root of ``poly``, a polynomial
    in the half-angle variable r: the interval refined to width ``eps``, its
    float midpoint and the angle there, as a list."""
    records = []
    for iv in intervals:
        iv = iv.refine(eps)
        mid = float(iv)
        records.append(RootRecord(poly, (iv.lo, iv.hi), mid, angle_of_r(mid)))
    return records


@dataclass
class ScenarioReport:
    """Everything one scenario derives, plus its oracle verdicts.

    ``artifacts`` holds each stage result under its stage name, for
    downstream verification; it is not serialised.
    """

    scenario: str
    pipeline_polynomials: list = field(default_factory=list)
    elimination_basis: list = field(default_factory=list)
    conditions: list = field(default_factory=list)
    roots: list = field(default_factory=list)
    stability: dict = field(default_factory=dict)
    oracle_checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict, repr=False)

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

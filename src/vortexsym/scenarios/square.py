"""The square: equal circulations on opposite corners, never linearly stable."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from vortexsym.ratpoly import Poly, VarRegistry
from vortexsym.realroots import int_char_poly, sign_at
from vortexsym.scenarios.report import (
    Checks,
    ScenarioReport,
    checks_of,
    four_circulations,
    rat_str,
)
from vortexsym.trigvortex import (
    SQUARE,
    TRIG_REGISTRY,
    char_poly_in,
    gradient,
    hessian,
    scenario_cos_table,
)
from vortexsym import targets


# circulation samples (m1, m2) used to spot-check the eigenvalue formulas
EIGEN_SAMPLES = (
    (1, 1), (3, 2), (2, 3), (5, 1), (1, 5),
    (-1, 2), (2, -1), (7, 3), (4, 9), (-3, -4),
)


@dataclass(frozen=True)
class GradientConditions:
    """The gradient checks and the circulation conditions, sorted as text."""

    checks: tuple
    conditions: tuple


def gradient_conditions():
    """The gradient at the fixed square angles and the conditions its
    vanishing forces."""
    checks = Checks()
    # gradient components at the fixed angles: component i is half the
    # difference of the circulations before and after corner i
    comps = gradient(SQUARE)
    mu = [Poly.variable(TRIG_REGISTRY, f"mu{i}") for i in range(1, 5)]
    expected = [(mu[i - 1] - mu[(i + 1) % 4]) * Fraction(1, 2) for i in range(4)]
    checks.add(
        "gradient_components",
        all(t.num == e * t.den for t, e in zip(comps, expected)),
        "components are (mu4-mu2)/2, (mu1-mu3)/2, (mu2-mu4)/2, (mu3-mu1)/2",
    )

    # vanishing forces equal circulations on opposite corners
    cond_texts = tuple(sorted({t.num.primitive().format() for t in comps}))
    checks.add(
        "conditions",
        cond_texts == tuple(sorted(targets.SQUARE_CONDITIONS)),
        f"derived {list(cond_texts)}",
    )
    return GradientConditions(checks=tuple(checks), conditions=cond_texts)


@dataclass(frozen=True)
class SymbolicSpectra:
    """The spectral checks and the weighted Hessian eigenvalues as
    polynomials in (m1, m2)."""

    checks: tuple
    weighted_eigenvalues: tuple


def symbolic_spectra():
    """The Hessian and weighted Hessian spectra under mu = (m1, m2, m1, m2),
    their degenerate ratios and the never-stable certificate."""
    checks = Checks()
    msym = VarRegistry(["m1", "m2"])
    lreg = VarRegistry(["lam", "m1", "m2"])
    m1, m2 = Poly.variable(msym, "m1"), Poly.variable(msym, "m2")
    lam = Poly.variable(lreg, "lam")
    cos_table = scenario_cos_table(SQUARE)

    h_texts = ("0", "2*m1*m2", "-3/2*m1^2 + m1*m2", "m1*m2 - 3/2*m2^2")
    h_eigs = [targets.parsed(msym, t) for t in h_texts]
    h_factors = [lam - e.map_to(lreg) for e in h_eigs]
    h_rows = hessian(cos_table, [m1, m2, m1, m2])
    checks.add(
        "hessian_eigenvalues",
        char_poly_in(h_rows, lreg, "lam") == math.prod(h_factors),
        "spectrum 0, 2 m1 m2, (2 m1 m2 - 3 m1^2)/2, (2 m1 m2 - 3 m2^2)/2",
    )

    # degenerate exactly at the 3:2 and 2:3 circulation ratios
    deg32 = h_factors[2].subs({"m2": targets.parsed(lreg, "3/2*m1")})
    deg23 = h_factors[3].subs({"m2": targets.parsed(lreg, "2/3*m1")})
    checks.add(
        "degenerate_ratios",
        deg32 == lam and deg23 == lam,
        "extra zero eigenvalue exactly when m2 = 3/2 m1 or m2 = 2/3 m1",
    )

    e1 = targets.parsed(msym, "m1 - 3/2*m2")
    e2 = targets.parsed(msym, "-3/2*m1 + m2")
    e3 = targets.parsed(msym, "m1 + m2")
    w_eigs = [Poly.zero(msym), e1, e2, e3]
    w_rows = hessian(cos_table, [m1, m2, m1, m2], weighted=True)
    checks.add(
        "weighted_eigenvalues",
        char_poly_in(w_rows, lreg, "lam") == math.prod(lam - e.map_to(lreg) for e in w_eigs),
        "spectrum 0, (2 m1 - 3 m2)/2, (-3 m1 + 2 m2)/2, m1 + m2",
    )

    # Infeasibility certificate: 2 e1 + 2 e2 + e3 = 0 identically, so the
    # three nonzero weighted eigenvalues can never be simultaneously positive.
    checks.add(
        "never_linearly_stable",
        (2 * e1 + 2 * e2 + e3).is_zero(),
        "2*e1 + 2*e2 + e3 = 0 exactly with e3 = m1 + m2",
    )

    checks.add(
        "eigenvalue_formulas_at_samples",
        all(
            _roots_at_samples(rows, eigs, EIGEN_SAMPLES)
            for rows, eigs in ((w_rows, w_eigs), (h_rows, h_eigs))
        ),
        f"exact roots of the characteristic polynomial at {len(EIGEN_SAMPLES)} samples",
    )
    return SymbolicSpectra(checks=tuple(checks), weighted_eigenvalues=tuple(w_eigs))


def _roots_at_samples(rows, eigs, samples):
    """Whether every formula of ``eigs`` is, at each integer pair (m1, m2)
    of ``samples``, a root of the characteristic polynomial of the matrix
    ``rows``, all polynomials in (m1, m2), in integers only.

    With d the lcm of the entries' denominators, d*A is an integer matrix
    at an integer sample, and a value n/q of a formula is an eigenvalue of
    A exactly when d*n/q is a root of det(y*I - d*A).
    """
    d = reduce(math.lcm, (c.den for row in rows for c in row), 1)
    for a, b in samples:
        p = int_char_poly([[_numerator_at(c, a, b) * (d // c.den) for c in row] for row in rows])
        if any(sign_at(p, d * _numerator_at(e, a, b), e.den) for e in eigs):
            return False
    return True


def _numerator_at(p, a, b):
    """``p.den`` times the value of ``p``, a polynomial in (m1, m2), at the
    integers (a, b)."""
    return sum(c * a**i * b**j for (i, j), c in p.ints.items())


def stability(spectra, mus):
    """The report's stability section for four circulations ``mus``, from
    the weighted eigenvalues of ``spectra`` (a :class:`SymbolicSpectra`)."""
    section = {"verdict": "never linearly stable", "window": None}
    section["degenerate_ratios"] = ["3/2", "2/3"]
    if mus[0] == mus[2] and mus[1] == mus[3]:
        eigs = [e.evaluate({"m1": mus[0], "m2": mus[1]}) for e in spectra.weighted_eigenvalues]
        section["eigencounts"] = {
            "positive": sum(1 for e in eigs if e > 0),
            "negative": sum(1 for e in eigs if e < 0),
            "zero": sum(1 for e in eigs if e == 0),
        }
        section["weighted_eigenvalues"] = [rat_str(e) for e in eigs]
        section["sample_mu"] = [rat_str(m) for m in mus]
    else:
        section["eigencounts"] = None
        section["note"] = "circulations violate mu1 = mu3, mu2 = mu4; no equilibrium"
    return section


def run_square(mus=None):
    """Derive the circulation conditions and stability verdict for the square
    from the circulation-free stages ``gradient_conditions`` and
    ``symbolic_spectra``; ``mus`` (default (1, 1, 1, 1)) sets the
    ``stability`` section."""
    mus = four_circulations("run_square", mus) or (Fraction(1),) * 4
    stages = {"gradient_conditions": gradient_conditions(), "symbolic_spectra": symbolic_spectra()}
    conditions = stages["gradient_conditions"].conditions
    return ScenarioReport(
        scenario="square",
        elimination_basis=list(conditions),
        conditions=list(conditions),
        stability=stability(stages["symbolic_spectra"], mus),
        oracle_checks=checks_of(stages),
        artifacts=stages,
    )

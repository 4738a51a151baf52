"""The square: equal circulations on opposite corners, never linearly stable."""

from __future__ import annotations

from fractions import Fraction

from vortexsym.ratpoly import GrevLex, Poly, VarRegistry
from vortexsym.realroots import char_poly, eval_at
from vortexsym.scenarios.report import ScenarioReport, rat_str
from vortexsym.trigvortex import (
    SQUARE,
    TRIG_REGISTRY,
    char_poly_in,
    gradient_component,
    hessian,
    s_reduce,
    scenario_cos_table,
)
from vortexsym import targets

_ORD = GrevLex()

# circulation samples (m1, m2) used to spot-check the eigenvalue formulas
EIGEN_SAMPLES = (
    (1, 1), (3, 2), (2, 3), (5, 1), (1, 5),
    (-1, 2), (2, -1), (7, 3), (4, 9), (-3, -4),
)


def _pair_registry():
    return VarRegistry(["m1", "m2"])


def _lam_registry():
    return VarRegistry(["lam", "m1", "m2"])


def run_square(mus=None):
    """Derive the circulation conditions and stability verdict for the square.

    ``mus`` optionally gives four rationals used for the reported eigenvalue
    counts (defaults to (1, 1, 1, 1)).
    """
    report = ScenarioReport(scenario="square")

    # gradient components at the fixed angles: 1/2 of circulation differences
    comps = [gradient_component(i, SQUARE) for i in range(1, 5)]
    mu = [Poly.variable(TRIG_REGISTRY, f"mu{i}") for i in range(1, 5)]
    expected = [
        (mu[3] - mu[1]) * Fraction(1, 2),
        (mu[0] - mu[2]) * Fraction(1, 2),
        (mu[1] - mu[3]) * Fraction(1, 2),
        (mu[2] - mu[0]) * Fraction(1, 2),
    ]
    grad_ok = all(
        t.num == s_reduce(e * t.den) for t, e in zip(comps, expected)
    )
    report.check(
        "gradient_components",
        grad_ok,
        "components are (mu4-mu2)/2, (mu1-mu3)/2, (mu2-mu4)/2, (mu3-mu1)/2",
    )

    # vanishing forces equal circulations on opposite corners
    conditions = []
    for t in comps:
        prim = t.num.primitive(_ORD)
        if prim not in conditions:
            conditions.append(prim)
    cond_texts = sorted(p.format(_ORD) for p in conditions)
    report.conditions = cond_texts
    report.elimination_basis = cond_texts
    report.check(
        "conditions",
        cond_texts == sorted(targets.SQUARE_CONDITIONS),
        f"derived {cond_texts}",
    )

    # symbolic Hessian spectra under mu = (m1, m2, m1, m2)
    msym = _pair_registry()
    lreg = _lam_registry()
    m1, m2 = Poly.variable(msym, "m1"), Poly.variable(msym, "m2")
    lam = Poly.variable(lreg, "lam")

    cos_table = scenario_cos_table(SQUARE)
    h_rows = hessian(cos_table, [m1, m2, m1, m2])
    h_cp = char_poly_in(h_rows, lreg, "lam")
    h_factors = [
        lam,
        lam - Poly.parse(lreg, "2*m1*m2"),
        lam - Poly.parse(lreg, "-3/2*m1^2 + m1*m2"),
        lam - Poly.parse(lreg, "m1*m2 - 3/2*m2^2"),
    ]
    prod = Poly.constant(lreg, 1)
    for f in h_factors:
        prod = prod * f
    report.check(
        "hessian_eigenvalues",
        h_cp == prod,
        "spectrum 0, 2 m1 m2, (2 m1 m2 - 3 m1^2)/2, (2 m1 m2 - 3 m2^2)/2",
    )

    # degenerate exactly at the 3:2 and 2:3 circulation ratios
    deg32 = h_factors[2].subs({"m2": Poly.parse(lreg, "3/2*m1")})
    deg23 = h_factors[3].subs({"m2": Poly.parse(lreg, "2/3*m1")})
    report.check(
        "degenerate_ratios",
        deg32 == lam and deg23 == lam,
        "extra zero eigenvalue exactly when m2 = 3/2 m1 or m2 = 2/3 m1",
    )

    w_rows = hessian(cos_table, [m1, m2, m1, m2], weighted=True)
    w_cp = char_poly_in(w_rows, lreg, "lam")
    e1 = Poly.parse(msym, "m1 - 3/2*m2")
    e2 = Poly.parse(msym, "-3/2*m1 + m2")
    e3 = Poly.parse(msym, "m1 + m2")
    w_factors = [lam] + [lam - e.map_to(lreg) for e in (e1, e2, e3)]
    prod = Poly.constant(lreg, 1)
    for f in w_factors:
        prod = prod * f
    report.check(
        "weighted_eigenvalues",
        w_cp == prod,
        "spectrum 0, (2 m1 - 3 m2)/2, (-3 m1 + 2 m2)/2, m1 + m2",
    )

    # Infeasibility certificate: 2 e1 + 2 e2 + e3 = 0 identically, so the
    # three nonzero weighted eigenvalues can never be simultaneously positive.
    certificate = 2 * e1 + 2 * e2 + e3
    report.check(
        "never_linearly_stable",
        certificate.is_zero(),
        "2*e1 + 2*e2 + e3 = 0 exactly with e3 = m1 + m2",
    )

    # formula values are exact roots of the weighted characteristic polynomial
    sample_ok = True
    for a, b in EIGEN_SAMPLES:
        a, b = Fraction(a), Fraction(b)
        p = char_poly(hessian(cos_table, (a, b, a, b), weighted=True))
        values = (
            Fraction(0),
            a - Fraction(3, 2) * b,
            -Fraction(3, 2) * a + b,
            a + b,
        )
        if any(eval_at(p, v) != 0 for v in values):
            sample_ok = False
        px = char_poly(hessian(cos_table, (a, b, a, b)))
        hvalues = (
            Fraction(0),
            2 * a * b,
            Fraction(1, 2) * (-3 * a * a + 2 * a * b),
            Fraction(1, 2) * (2 * a * b - 3 * b * b),
        )
        if any(eval_at(px, v) != 0 for v in hvalues):
            sample_ok = False
    report.check(
        "eigenvalue_formulas_at_samples",
        sample_ok,
        f"exact roots of the characteristic polynomial at {len(EIGEN_SAMPLES)} samples",
    )

    # reported stability data for the requested circulations
    if mus is None:
        mus = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    mus = tuple(Fraction(m) for m in mus)
    stability = {"verdict": "never linearly stable", "window": None}
    stability["degenerate_ratios"] = ["3/2", "2/3"]
    if mus[0] == mus[2] and mus[1] == mus[3]:
        a, b = mus[0], mus[1]
        eigs = [Fraction(0), a - Fraction(3, 2) * b, -Fraction(3, 2) * a + b, a + b]
        stability["eigencounts"] = {
            "positive": sum(1 for e in eigs if e > 0),
            "negative": sum(1 for e in eigs if e < 0),
            "zero": sum(1 for e in eigs if e == 0),
        }
        stability["weighted_eigenvalues"] = [rat_str(e) for e in eigs]
        stability["sample_mu"] = [rat_str(m) for m in mus]
    else:
        stability["eigencounts"] = None
        stability["note"] = "circulations violate mu1 = mu3, mu2 = mu4; no equilibrium"
    report.stability = stability
    return report


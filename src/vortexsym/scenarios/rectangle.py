"""Rectangles: only the square survives equal pairs; opposite pairs sit on
perpendicular diagonals at 45 degrees and are always linearly unstable."""

from __future__ import annotations

import math
from fractions import Fraction

from vortexsym.groebner import Ideal, eliminate
from vortexsym.ratpoly import GrevLex, Poly, Sqrt2
from vortexsym.realroots import char_poly, coeffs_from_poly, sturm_isolate
from vortexsym.scenarios.report import RootRecord, ScenarioReport
from vortexsym.trigvortex import (
    RECTANGLE,
    R_REGISTRY,
    TRIG_REGISTRY,
    angle_of_r,
    hessian,
    pipeline,
    scenario_cos_table,
)
from vortexsym import targets

_ORD = GrevLex()
_EPS = Fraction(1, 10**9)


def run_rectangle(mus=None, eps=_EPS):
    report = ScenarioReport(scenario="rectangle")
    comps = pipeline(RECTANGLE)
    report.pipeline_polynomials = [c.r_poly.format(_ORD) for c in comps]

    goals = targets.build_products(targets.R_REGISTRY, targets.RECTANGLE_PIPELINE)
    report.check(
        "pipeline_polynomials",
        all(c.r_poly.primitive(_ORD) == g.primitive(_ORD) for c, g in zip(comps, goals)),
        "three reduced polynomials match the reference forms up to scalars",
    )

    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    report.artifacts["pipeline"] = comps
    report.artifacts["elimination_gb"] = gb
    report.elimination_basis = [p.format(gb.order) for p in gb.polys]
    mine = {p.primitive(gb.order) for p in gb.polys}
    want = {
        Poly.parse(R_REGISTRY, t).primitive(gb.order)
        for t in targets.RECTANGLE_ELIMINATION
    }
    report.check(
        "elimination_basis",
        mine == want,
        "projection is {mu2 mu3 - mu1 mu4, mu1 mu2 - mu3 mu4, mu1^2 - mu3^2}",
    )
    report.conditions = [
        "mu1 - mu3 and mu2 - mu4 (equal pairs)",
        "mu1 + mu3 and mu2 + mu4 (opposite pairs)",
    ]

    # Branch reductions of the gradient components.
    mu1 = Poly.variable(TRIG_REGISTRY, "mu1")
    mu2 = Poly.variable(TRIG_REGISTRY, "mu2")
    equal = {"mu3": mu1, "mu4": mu2}
    opposite = {"mu3": -1 * mu1, "mu4": -1 * mu2}

    equal_q = _branch_multiples(comps, equal, "c")
    opposite_q = _branch_multiples(comps, opposite, "2*c^2 - 1")
    report.check(
        "equal_pairs_residual",
        _all_nonzero(equal_q),
        "components reduce to multiples of cot(theta2); zeros at pi/2, 3*pi/2",
    )
    report.check(
        "opposite_pairs_residual",
        _all_nonzero(opposite_q),
        "components reduce to multiples of cos(2 theta2) csc(theta2);"
        " zeros at pi/4, 3*pi/4, 5*pi/4, 7*pi/4",
    )
    report.check(
        "equal_pairs_residual_exact",
        equal_q is not None,
        "exact: (1-c^2) * numerator is a constant multiple of c * denominator",
    )
    report.check(
        "opposite_pairs_residual_exact",
        opposite_q is not None,
        "exact: (1-c^2) * numerator is a constant multiple of (2c^2-1) * denominator",
    )

    # Angles from the r-world branch polynomials.
    report.roots = []
    square_roots = _branch_roots(comps, {"mu3": 1, "mu4": 2, "mu1": 1, "mu2": 2}, eps, "equal pairs")
    diag_roots = _branch_roots(comps, {"mu1": 1, "mu2": 2, "mu3": -1, "mu4": -2}, eps, "opposite pairs")
    report.roots = square_roots + diag_roots
    sq_angles = sorted(abs(r.theta2) for r in square_roots)
    di_angles = sorted(r.theta2 % (2 * math.pi) for r in diag_roots)
    report.check(
        "equal_pairs_only_square",
        len(square_roots) == 2 and all(abs(a - math.pi / 2) < 1e-9 for a in sq_angles),
        "equal pairs force theta2 = +-pi/2: the square",
    )
    expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
    report.check(
        "opposite_pairs_diagonal_angles",
        len(di_angles) == 4
        and all(abs(a - b) < 1e-9 for a, b in zip(di_angles, expected)),
        "opposite pairs force theta2 in {pi/4, 3pi/4, 5pi/4, 7pi/4}",
    )

    # Linear stability of the diagonal family: never three positive
    # eigenvalues; certified in exact arithmetic over Q(sqrt(2)).
    samples = [(1, 2), (2, 1), (1, 1), (3, 5), (-2, 3)] if mus is None else [(mus[0], mus[1])]
    verdicts = [_diagonal_instability(Fraction(a), Fraction(b)) for a, b in samples]
    report.check(
        "diagonal_instability",
        all(v["unstable"] and v["nondegenerate"] for v in verdicts),
        f"at most {max(v['positive_bound'] for v in verdicts)} positive eigenvalues"
        f" across {len(samples)} circulation samples; zero eigenvalue simple",
    )
    report.stability = {
        "verdict": "nondegenerate rectangles are never linearly stable",
        "window": None,
        "diagonal_samples": [
            {"mu": [str(a), str(b), str(-a), str(-b)], **{k: v for k, v in d.items()}}
            for (a, b), d in zip(samples, verdicts)
        ],
    }
    return report


def _branch_multiples(comps, substitution, target_text):
    """The quotients q, free of s and c, with (1-c^2)*num = q*target*den,
    one per component after the substitution; None when some component is
    not such a multiple.  Each component is then q*target*s/(1-c^2), a
    multiple of target/s."""
    target = Poly.parse(TRIG_REGISTRY, target_text)
    pyth = Poly.parse(TRIG_REGISTRY, "1 - c^2")
    zero = Poly.zero(TRIG_REGISTRY)
    quotients = []
    for comp in comps:
        t = comp.trig.subs_mu(substitution)
        groups = t.num.coefficients_in(["s"])
        if set(groups) - {(1,), (0,)} or not groups.get((0,), zero).is_zero():
            return None
        q = (pyth * groups.get((1,), zero)).try_divide(target * t.den, _ORD)
        if q is None or q.uses("s") or q.uses("c"):
            return None
        quotients.append(q)
    return tuple(quotients)


def _all_nonzero(quotients):
    """Whether every branch quotient exists and is nonzero, so that each
    component vanishes exactly where its target does."""
    return quotients is not None and not any(q.is_zero() for q in quotients)


def _branch_roots(comps, substitution, eps, label):
    """Isolate the r-roots shared by all three branch-substituted polynomials."""
    polys = [c.r_poly.subs({k: Fraction(v) for k, v in substitution.items()}) for c in comps]
    records = []
    for iv in sturm_isolate(coeffs_from_poly(polys[0], "r")):
        iv.refine(eps)
        # certified common root: the other two polynomials must be
        # proportional (they are, per branch structure), so checking signs
        # of the primitive parts suffices
        records.append(
            RootRecord(
                poly=f"{label} branch polynomial",
                interval=(iv.lo, iv.hi),
                decimal=float(iv.midpoint()),
                theta2=angle_of_r(float(iv.midpoint())),
            )
        )
    # proportionality across the three substituted polynomials
    prim = [p.primitive(_ORD) for p in polys]
    if not (prim[0] == prim[1] == prim[2]):
        return []
    return records


# cos(theta_i - theta_j) at the 45-degree point, where cos(theta2) = sqrt(2)/2
_DIAGONAL_COSINES = scenario_cos_table(RECTANGLE, Sqrt2(Fraction(0), Fraction(1, 2)))


def _diagonal_char_poly(m1, m2, weighted):
    """Exact characteristic polynomial over Q(sqrt(2)) at the 45-degree point.

    Circulations are (m1, m2, -m1, -m2); ``weighted`` selects mu^{-1} H
    instead of the Hessian H itself.  Ascending coefficients.
    """
    rows = hessian(_DIAGONAL_COSINES, [m1, m2, -m1, -m2], weighted)
    return [c if isinstance(c, Sqrt2) else Sqrt2(Fraction(c)) for c in char_poly(rows)]


def _diagonal_instability(m1, m2):
    """Exact certificate that the 45-degree rectangle is not linearly stable.

    Nondegeneracy (a simple rotational zero eigenvalue) is read off the
    Hessian itself; the stability count uses the circulation-weighted matrix,
    whose positive eigenvalues are bounded by Descartes' rule on the exact
    Q(sqrt(2)) characteristic coefficients.  A bound of two or less proves
    there are never N - 1 = 3 positive eigenvalues.
    """
    hess = _diagonal_char_poly(m1, m2, weighted=False)
    weighted = _diagonal_char_poly(m1, m2, weighted=True)
    signs = [c.sign() for c in weighted[1:] if not c.is_zero()]
    changes = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    return {
        "nondegenerate": hess[0].is_zero() and hess[1].sign() != 0,
        "positive_bound": changes,
        "unstable": weighted[0].is_zero() and changes <= 2,
    }

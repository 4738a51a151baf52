"""Rectangles: only the square survives equal pairs; opposite pairs sit on
perpendicular diagonals at 45 degrees and are always linearly unstable."""

from __future__ import annotations

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
    cheb_cos,
    half_angle_polynomialize,
    hessian,
    pipeline,
    scenario_cos_table,
)
from vortexsym import targets

_ORD = GrevLex()
_EPS = Fraction(1, 10**9)


def run_rectangle(mus=None, eps=_EPS):
    if mus is not None and len(mus) != 4:
        raise ValueError("run_rectangle needs four circulations")
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

    equal_target = Poly.parse(TRIG_REGISTRY, "c")
    opposite_target = Poly.parse(TRIG_REGISTRY, "2*c^2 - 1")
    equal_q = _branch_multiples(comps, equal, equal_target)
    opposite_q = _branch_multiples(comps, opposite, opposite_target)
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

    # Every component is q*target/s with a nonzero quotient q free of the
    # angle, so wherever q(mu) != 0 the branch angles are exactly the zeros
    # of the target, cos(theta2) or cos(2 theta2); the half-angle map
    # r -> theta2 is one to one, so a Sturm count of 2 or 4 real r-roots
    # finds them all.
    square_roots = _target_roots(equal_target, eps, "equal pairs")
    diag_roots = _target_roots(opposite_target, eps, "opposite pairs")
    report.roots = square_roots + diag_roots
    report.check(
        "equal_pairs_only_square",
        _all_nonzero(equal_q) and equal_target == cheb_cos(1) and len(square_roots) == 2,
        "equal pairs force theta2 = +-pi/2: the square",
    )
    report.check(
        "opposite_pairs_diagonal_angles",
        _all_nonzero(opposite_q) and opposite_target == cheb_cos(2) and len(diag_roots) == 4,
        "opposite pairs force theta2 in {pi/4, 3pi/4, 5pi/4, 7pi/4}",
    )

    # Linear stability of the diagonal family.  mu^{-1} H is linear in mu,
    # so at mu = (m1, m2, -m1, -m2) its trace is m1 (T1 - T3) + m2 (T2 - T4),
    # with T_k its trace at the unit circulation e_k.  When T1 = T3 and
    # T2 = T4, the three eigenvalues beside the rotational zero sum to 0
    # for every (m1, m2), so they are never all positive.
    traces = _weighted_traces()
    samples = [(1, 2), (2, 1), (1, 1), (3, 5), (-2, 3)] if mus is None else [(mus[0], mus[1])]
    simple = [_zero_eigenvalue_simple(Fraction(a), Fraction(b)) for a, b in samples]
    report.check(
        "diagonal_instability",
        traces[0] == traces[2] and traces[1] == traces[3] and all(simple),
        "trace of mu^-1 H is m1 (T1 - T3) + m2 (T2 - T4) with (T1, T2, T3, T4) ="
        f" ({', '.join(_show(t) for t in traces)}): the three eigenvalues beside"
        " the rotational zero sum to 0 for every (m1, m2); zero eigenvalue simple"
        f" at {sum(simple)} of {len(samples)} circulation samples",
    )
    report.stability = {
        "verdict": "nondegenerate rectangles are never linearly stable",
        "window": None,
        "diagonal_samples": [
            {"mu": [str(a), str(b), str(-a), str(-b)], "nondegenerate": ok}
            for (a, b), ok in zip(samples, simple)
        ],
    }
    if mus is not None and any(Fraction(mus[i + 2]) != -Fraction(mus[i]) for i in (0, 1)):
        report.stability["note"] = (
            "circulations violate mu3 = -mu1, mu4 = -mu2 (opposite pairs); the"
            " diagonal sample is taken at (mu1, mu2, -mu1, -mu2)"
        )
    return report


def _branch_multiples(comps, substitution, target):
    """The quotients q, free of s and c, with (1-c^2)*num = q*target*den,
    one per component after the substitution; None when some component is
    not such a multiple.  Each component is then q*target*s/(1-c^2), a
    multiple of target/s."""
    pyth = Poly.parse(TRIG_REGISTRY, "1 - c^2")
    zero = Poly.zero(TRIG_REGISTRY)
    quotients = []
    for comp in comps:
        t = comp.trig.subs_mu(substitution)
        groups = t.num.coefficients_in(["s"])
        if set(groups) - {(1,), (0,)} or not groups.get((0,), zero).is_zero():
            return None
        q = (pyth * groups.get((1,), zero)).try_divide(target * t.den)
        if q is None or q.uses("s") or q.uses("c"):
            return None
        quotients.append(q)
    return tuple(quotients)


def _all_nonzero(quotients):
    """Whether every branch quotient exists and is nonzero, so that each
    component vanishes exactly where its target does."""
    return quotients is not None and not any(q.is_zero() for q in quotients)


def _target_roots(target, eps, label):
    """Root records of the half-angle image of a target in c, one per real
    root, each enclosed to width ``eps``."""
    records = []
    for iv in sturm_isolate(coeffs_from_poly(half_angle_polynomialize(target), "r")):
        iv.refine(eps)
        records.append(
            RootRecord(
                poly=f"{label} branch polynomial",
                interval=(iv.lo, iv.hi),
                decimal=float(iv.midpoint()),
                theta2=angle_of_r(float(iv.midpoint())),
            )
        )
    return records


# cos(theta_i - theta_j) at the 45-degree point, where cos(theta2) = sqrt(2)/2
_DIAGONAL_COSINES = scenario_cos_table(RECTANGLE, Sqrt2(Fraction(0), Fraction(1, 2)))


def _weighted_traces():
    """Traces T_1..T_4 of mu^{-1} H at the 45-degree point for the unit
    circulations e_1..e_4, exact in Q(sqrt(2))."""
    traces = []
    for k in range(4):
        rows = hessian(_DIAGONAL_COSINES, [Fraction(int(i == k)) for i in range(4)], weighted=True)
        traces.append(sum(rows[i][i] for i in range(4)))
    return traces


def _zero_eigenvalue_simple(m1, m2):
    """Whether the rotational zero eigenvalue of the Hessian at the 45-degree
    point, circulations (m1, m2, -m1, -m2), is simple: the exact
    characteristic polynomial over Q(sqrt(2)) has a simple root at 0."""
    coeffs = char_poly(hessian(_DIAGONAL_COSINES, [m1, m2, -m1, -m2]))
    c0, c1 = (c if isinstance(c, Sqrt2) else Sqrt2(Fraction(c)) for c in coeffs[:2])
    return c0.is_zero() and c1.sign() != 0


def _show(x):
    """An element of Q(sqrt(2)) as text."""
    return str(x.a) if x.b == 0 else f"{x.a} + {x.b}*sqrt(2)"

"""Rectangles: only the square survives equal pairs; opposite pairs sit on
perpendicular diagonals at 45 degrees and are always linearly unstable."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from vortexsym.groebner import GroebnerBasis, Ideal, eliminate
from vortexsym.ratpoly import Poly, Sqrt2
from vortexsym.realroots import int_coeffs, sturm_isolate
from vortexsym.scenarios.report import (
    DEFAULT_EPS,
    Checks,
    OracleCheck,
    ScenarioReport,
    checks_of,
    four_circulations,
    pipeline_check,
    root_records,
)
from vortexsym.trigvortex import (
    RECTANGLE,
    R_REGISTRY,
    TRIG_REGISTRY,
    cheb_cos,
    half_angle_polynomialize,
    hessian,
    pipeline,
    scenario_cos_table,
)
from vortexsym import targets


def run_rectangle(mus=None, eps=DEFAULT_EPS):
    """Classify rectangles from the circulation-free stages
    ``rectangle_elimination`` and ``branch_angles`` and the per-circulation
    ``diagonal_instability``, sampled at five circulations without ``mus``;
    the branch angles are enclosed to width ``eps``."""
    mus = four_circulations("run_rectangle", mus)
    comps = pipeline(RECTANGLE)
    stages = {
        "elimination": rectangle_elimination(comps),
        "branch_angles": branch_angles(comps),
        "diagonal_instability": diagonal_instability(mus),
    }
    gb = stages["elimination"].gb
    angles = stages["branch_angles"]
    return ScenarioReport(
        scenario="rectangle",
        pipeline_polynomials=[c.r_poly.format() for c in comps],
        elimination_basis=[p.format(gb.order) for p in gb.polys],
        conditions=[
            "mu1 - mu3 and mu2 - mu4 (equal pairs)",
            "mu1 + mu3 and mu2 + mu4 (opposite pairs)",
        ],
        roots=root_records("equal pairs branch polynomial", angles.square_roots, eps)
        + root_records("opposite pairs branch polynomial", angles.diagonal_roots, eps),
        stability=stability(stages["diagonal_instability"], mus),
        oracle_checks=checks_of(stages),
        artifacts={"pipeline": comps, **stages},
    )


@dataclass(frozen=True)
class RectangleElimination:
    """The pipeline and elimination checks and the reduced circulation basis."""

    checks: tuple
    gb: GroebnerBasis


def rectangle_elimination(comps):
    """Check the rectangle ``pipeline`` and eliminate r."""
    checks = Checks([pipeline_check(comps, targets.RECTANGLE_PIPELINE)])
    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    mine = {p.primitive() for p in gb.polys}
    want = {
        targets.parsed(R_REGISTRY, t).primitive() for t in targets.RECTANGLE_ELIMINATION
    }
    checks.add(
        "elimination_basis",
        mine == want,
        "projection is {mu2 mu3 - mu1 mu4, mu1 mu2 - mu3 mu4, mu1^2 - mu3^2}",
    )
    return RectangleElimination(checks=tuple(checks), gb=gb)


@dataclass(frozen=True)
class BranchAngles:
    """The residual and angle checks of both branches and the isolating
    intervals of the half-angle images of their angles."""

    checks: tuple
    square_roots: tuple
    diagonal_roots: tuple


def branch_angles(comps):
    """Reduce the gradient components on the equal-pairs and opposite-pairs
    branches to multiples of cos(theta2) and cos(2 theta2), and enclose the
    angles where those targets vanish.

    Every component is q*target/s with a quotient q free of the angle, so
    wherever q(mu) != 0 the branch angles are exactly the zeros of the
    target; the half-angle map r -> theta2 is one to one, so a Sturm count
    of 2 or 4 real r-roots finds them all.
    """
    checks = Checks()
    mu1 = Poly.variable(TRIG_REGISTRY, "mu1")
    mu2 = Poly.variable(TRIG_REGISTRY, "mu2")
    equal_q = _branch_multiples(comps, {"mu3": mu1, "mu4": mu2}, cheb_cos(1))
    opposite_q = _branch_multiples(comps, {"mu3": -1 * mu1, "mu4": -1 * mu2}, cheb_cos(2))
    checks.add(
        "equal_pairs_residual",
        _all_nonzero(equal_q),
        "components reduce to multiples of cot(theta2); zeros at pi/2, 3*pi/2",
    )
    checks.add(
        "opposite_pairs_residual",
        _all_nonzero(opposite_q),
        "components reduce to multiples of cos(2 theta2) csc(theta2);"
        " zeros at pi/4, 3*pi/4, 5*pi/4, 7*pi/4",
    )
    checks.add(
        "equal_pairs_residual_exact",
        equal_q is not None,
        "exact: (1-c^2) * numerator is a constant multiple of c * denominator",
    )
    checks.add(
        "opposite_pairs_residual_exact",
        opposite_q is not None,
        "exact: (1-c^2) * numerator is a constant multiple of (2c^2-1) * denominator",
    )
    square_roots = _target_roots(cheb_cos(1))
    diag_roots = _target_roots(cheb_cos(2))
    checks.add(
        "equal_pairs_only_square",
        _all_nonzero(equal_q) and len(square_roots) == 2,
        "equal pairs force theta2 = +-pi/2: the square",
    )
    checks.add(
        "opposite_pairs_diagonal_angles",
        _all_nonzero(opposite_q) and len(diag_roots) == 4,
        "opposite pairs force theta2 in {pi/4, 3pi/4, 5pi/4, 7pi/4}",
    )
    return BranchAngles(tuple(checks), tuple(square_roots), tuple(diag_roots))


def _target_roots(target):
    """Isolating intervals of the real roots of the half-angle image of ``target``."""
    return sturm_isolate(int_coeffs(half_angle_polynomialize(target), "r"))


@dataclass(frozen=True)
class DiagonalInstability:
    """The instability check at one choice of circulations and its samples:
    pairs of (m1, m2) and whether the zero eigenvalue is simple at
    (m1, m2, -m1, -m2)."""

    checks: tuple
    samples: tuple


def diagonal_instability(mus):
    """Linear instability of the diagonal family, sampled at (mu1, mu2) of
    ``mus``, or at five samples for None.

    mu^{-1} H is linear in mu, so at mu = (m1, m2, -m1, -m2) its trace is
    m1 (T1 - T3) + m2 (T2 - T4), with T_k its trace at the unit circulation
    e_k.  When T1 = T3 and T2 = T4, the three eigenvalues beside the
    rotational zero sum to 0 for every (m1, m2), so they are never all
    positive.
    """
    traces = _WEIGHTED_TRACES
    samples = [(1, 2), (2, 1), (1, 1), (3, 5), (-2, 3)] if mus is None else [mus[:2]]
    simple = [_zero_eigenvalue_simple(Fraction(a), Fraction(b)) for a, b in samples]
    check = OracleCheck.of(
        "diagonal_instability",
        traces[0] == traces[2] and traces[1] == traces[3] and all(simple),
        "trace of mu^-1 H is m1 (T1 - T3) + m2 (T2 - T4) with (T1, T2, T3, T4) ="
        f" ({', '.join(_show(t) for t in traces)}): the three eigenvalues beside"
        " the rotational zero sum to 0 for every (m1, m2); zero eigenvalue simple"
        f" at {sum(simple)} of {len(samples)} circulation samples",
    )
    return DiagonalInstability(checks=(check,), samples=tuple(zip(samples, simple)))


def stability(instability, mus):
    """The report's stability section from the samples of ``instability``
    (a :class:`DiagonalInstability`), with a note when ``mus`` lies off the
    opposite-pairs branch."""
    section = {
        "verdict": "nondegenerate rectangles are never linearly stable",
        "window": None,
        "diagonal_samples": [
            {"mu": [str(a), str(b), str(-a), str(-b)], "nondegenerate": ok}
            for (a, b), ok in instability.samples
        ],
    }
    if mus is not None and (mus[2] != -mus[0] or mus[3] != -mus[1]):
        section["note"] = (
            "circulations violate mu3 = -mu1, mu4 = -mu2 (opposite pairs); the"
            " diagonal sample is taken at (mu1, mu2, -mu1, -mu2)"
        )
    return section


def _branch_multiples(comps, substitution, target):
    """The quotients q, free of s and c, with (1-c^2)*num = q*target*den,
    one per component after the substitution; None when some component is
    not such a multiple.  Each component is then q*target*s/(1-c^2), a
    multiple of target/s."""
    pyth = targets.parsed(TRIG_REGISTRY, "1 - c^2")
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


# cos(theta_i - theta_j) at the 45-degree point, where cos(theta2) = sqrt(2)/2
_DIAGONAL_COSINES = scenario_cos_table(RECTANGLE, Sqrt2(Fraction(0), Fraction(1, 2)))

# traces T_1..T_4 of mu^{-1} H at the 45-degree point for the unit
# circulations e_1..e_4, exact in Q(sqrt(2))
_WEIGHTED_TRACES = tuple(
    sum(rows[i][i] for i in range(4))
    for rows in (
        hessian(_DIAGONAL_COSINES, [Fraction(int(i == k)) for i in range(4)], weighted=True)
        for k in range(4)
    )
)


def _zero_eigenvalue_simple(m1, m2):
    """Whether the rotational zero eigenvalue of the Hessian H at the
    45-degree point, circulations (m1, m2, -m1, -m2), is simple, exactly in
    Q(sqrt(2)).  H is symmetric with zero row sums, so all its cofactors
    are equal and the lambda-coefficient of det(lambda I - H) is -4 times
    the minor of rows and columns 2-4: the zero is simple exactly when the
    rows sum to 0 and that minor is nonzero."""
    h = hessian(_DIAGONAL_COSINES, [m1, m2, -m1, -m2])
    (a, b, c), (d, e, f), (g, k, l) = (row[1:] for row in h[1:])
    minor = a * (e * l - f * k) - b * (d * l - f * g) + c * (d * k - e * g)
    return all(sum(row) == 0 for row in h) and minor != 0


def _show(x):
    """An element of Q(sqrt(2)) as text."""
    return str(x.a) if x.b == 0 else f"{x.a} + {x.b}*sqrt(2)"

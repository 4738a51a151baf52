"""Rectangles: only the square survives equal pairs; opposite pairs sit on
perpendicular diagonals at 45 degrees and are always linearly unstable."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from vortexsym.groebner import GroebnerBasis, Ideal, eliminate
from vortexsym.ratpoly import Poly, Sqrt2
from vortexsym.realroots import int_coeffs, sturm_isolate
from vortexsym.scenarios.report import (
    DEFAULT_EPS,
    Checks,
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
    hessian,
    pipeline,
    scenario_cos_table,
)
from vortexsym import targets


def run_rectangle(mus=None, eps=DEFAULT_EPS):
    """Classify rectangles from the circulation-free stages
    ``rectangle_elimination``, ``branch_angles`` and ``diagonal_instability``;
    ``mus`` only adds the off-branch note of the stability section, and the
    branch angles are enclosed to width ``eps``."""
    mus = four_circulations("run_rectangle", mus)
    comps = pipeline(RECTANGLE)
    stages = {
        "elimination": rectangle_elimination(comps),
        "branch_angles": branch_angles(comps),
        "diagonal_instability": diagonal_instability(),
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
        stability=stability(mus),
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
    checks = pipeline_check(comps, targets.RECTANGLE_PIPELINE)
    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    mine = {p.primitive() for p in gb.polys}
    want = {targets.parsed(R_REGISTRY, t).primitive() for t in targets.RECTANGLE_ELIMINATION}
    checks.expect(
        "elimination_basis",
        "projection is {mu2 mu3 - mu1 mu4, mu1 mu2 - mu3 mu4, mu1^2 - mu3^2}",
        None if mine == want else f"{{{', '.join(p.format() for p in gb.polys)}}}",
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
    """Divide the pipeline polynomials on the equal-pairs and opposite-pairs
    branches by ``targets.RECTANGLE_BRANCHES``, and enclose the angles
    where those targets vanish.

    Every polynomial is q*target with a quotient q free of r, so wherever
    q(mu) != 0 the branch angles are exactly the zeros of the target; the
    half-angle map r -> theta2 is one to one, so a Sturm count of 2 or 4
    real r-roots finds them all.
    """
    checks = Checks()
    mu1, mu2 = (Poly.variable(R_REGISTRY, name) for name in ("mu1", "mu2"))
    square, diagonal = (targets.parsed(R_REGISTRY, t) for t in targets.RECTANGLE_BRANCHES)
    equal_missing, equal_fault = _branch_faults(comps, {"mu3": mu1, "mu4": mu2}, square)
    opposite_missing, opposite_fault = _branch_faults(
        comps, {"mu3": -1 * mu1, "mu4": -1 * mu2}, diagonal
    )
    checks.expect(
        "equal_pairs_residual",
        "components reduce to multiples of cot(theta2); zeros at pi/2, 3*pi/2",
        equal_fault,
    )
    checks.expect(
        "opposite_pairs_residual",
        "components reduce to multiples of cos(2 theta2) csc(theta2);"
        " zeros at pi/4, 3*pi/4, 5*pi/4, 7*pi/4",
        opposite_fault,
    )
    for name, target, missing in (
        ("equal_pairs_residual_exact", square, equal_missing),
        ("opposite_pairs_residual_exact", diagonal, opposite_missing),
    ):
        passing = f"exact: each pipeline polynomial is an r-free multiple of {target.format()}"
        checks.expect(name, passing.replace("*", " "), missing)
    square_roots = sturm_isolate(int_coeffs(square, "r"))
    diag_roots = sturm_isolate(int_coeffs(diagonal, "r"))
    checks.expect(
        "equal_pairs_only_square",
        "equal pairs force theta2 = +-pi/2: the square",
        equal_fault or _count(square_roots, 2),
    )
    checks.expect(
        "opposite_pairs_diagonal_angles",
        "opposite pairs force theta2 in {pi/4, 3pi/4, 5pi/4, 7pi/4}",
        opposite_fault or _count(diag_roots, 4),
    )
    return BranchAngles(tuple(checks), tuple(square_roots), tuple(diag_roots))


@dataclass(frozen=True)
class DiagonalInstability:
    """The instability check of the diagonal family, one for every circulation."""

    checks: tuple


def diagonal_instability():
    """Linear instability of the diagonal family at every circulation.

    At the 45-degree point with mu = (mu1, mu2, -mu1, -mu2), in
    Q(sqrt(2))[mu1, mu2], the trace of mu^{-1} H vanishes identically, so
    the three eigenvalues beside the rotational zero sum to 0.  H is
    symmetric with zero row sums, so the lambda-coefficient of
    det(lambda I - H) is -4 C_11, with C_11 the minor of rows and columns
    2-4.  C_11 must equal ``targets.RECTANGLE_DIAGONAL_MINOR``, mu1^2 mu2^2
    times a mu1^2 + b sqrt(2) mu1 mu2 + c mu2^2, positive definite when
    a > 0 and 2 b^2 < 4 a c: the zero is simple exactly when mu1 mu2 != 0,
    as ``report.four_circulations`` guarantees.
    """
    trace, minor = _diagonal_forms()
    monomial, (a, b, c) = targets.RECTANGLE_DIAGONAL_MINOR
    parts = ((1, (monomial, f"{a}*mu1^2 + {c}*mu2^2")), (b, (monomial, "mu1*mu2")))
    want = Sqrt2(*targets.build_products(TRIG_REGISTRY, parts))
    ok = trace == 0 and minor == want and a > 0 and 2 * b * b < 4 * a * c
    checks = Checks()
    checks.expect(
        "diagonal_instability",
        "at mu = (mu1, mu2, -mu1, -mu2) over Q(sqrt(2))[mu1, mu2]: the trace of"
        " mu^-1 H is 0, so the three eigenvalues beside the rotational zero sum"
        f" to 0; the minor of rows and columns 2-4 of H is {monomial}*({a}*mu1^2"
        f" + {b}*sqrt(2)*mu1*mu2 + {c}*mu2^2), positive definite as"
        f" 2*({b})^2 < 4*{a}*{c}, so the zero is simple at every nonzero circulation",
        None if ok else f"trace {trace} and minor {minor}",
    )
    return DiagonalInstability(tuple(checks))


def stability(mus):
    """The report's stability section, with a note when ``mus`` lies off
    the opposite-pairs branch."""
    section = {"verdict": "nondegenerate rectangles are never linearly stable", "window": None}
    if mus is not None and (mus[2] != -mus[0] or mus[3] != -mus[1]):
        section["note"] = (
            "circulations violate mu3 = -mu1, mu4 = -mu2 (opposite pairs); the"
            " verdict covers the diagonal family on that branch, at every circulation"
        )
    return section


def _branch_faults(comps, substitution, target):
    """Two texts on the pipeline polynomials after the substitution,
    numbered from 1, each None when it names none: those that are no
    multiple q*target with q free of r, and those again or, failing them,
    the ones whose q is 0."""
    missing, vanishing = [], []
    for k, comp in enumerate(comps, 1):
        q = comp.r_poly.subs(substitution).try_divide(target)
        if q is None or q.uses("r"):
            missing.append(k)
        elif q.is_zero():
            vanishing.append(k)
    exact = f"components {missing} are not multiples" if missing else None
    return exact, exact or (f"components {vanishing} reduce to 0" if vanishing else None)


def _count(roots, expected):
    """The Sturm count of ``roots`` as text when it is not ``expected``."""
    return None if len(roots) == expected else f"{len(roots)} real roots, not {expected}"


# cos(theta_i - theta_j) at the 45-degree point, where cos(theta2) = sqrt(2)/2
_DIAGONAL_COSINES = scenario_cos_table(RECTANGLE, Sqrt2(Fraction(0), Fraction(1, 2)))


@functools.cache
def _diagonal_forms():
    """The trace of mu^{-1} H and the minor of rows and columns 2-4 of H at
    the 45-degree point, mu = (mu1, mu2, -mu1, -mu2), in
    Q(sqrt(2))[mu1, mu2]; derived once per process."""
    zero = Poly.zero(TRIG_REGISTRY)
    mu1, mu2 = (Sqrt2(Poly.variable(TRIG_REGISTRY, name), zero) for name in ("mu1", "mu2"))
    mus = [mu1, mu2, -mu1, -mu2]
    weighted = hessian(_DIAGONAL_COSINES, mus, weighted=True)
    (a, b, c), (d, e, f), (g, k, l) = (row[1:] for row in hessian(_DIAGONAL_COSINES, mus)[1:])
    minor = a * (e * l - f * k) - b * (d * l - f * g) + c * (d * k - e * g)
    return sum(weighted[i][i] for i in range(4)), minor

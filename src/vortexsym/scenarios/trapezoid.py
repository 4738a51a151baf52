"""Trapezoids with three equal sides: the full classification chain.

Angles are theta = (0, t, 2t, 3t).  The chain is five pure stages, each
returning a frozen result that carries its own oracle checks:

* ``pipeline`` (:mod:`vortexsym.trigvortex`) reduces the gradient to three
  r-polynomials;
* ``elimination_ideal`` (:class:`EliminationIdeal`) eliminates the
  half-angle variable: nine polynomials over the circulations whose variety
  contains the square family (mu1 = mu3, mu2 = mu4), three plane families
  and the planes {mu1 = 0, mu2 = mu4} and {mu1 = 0, mu4 = 0}; those two
  need a zero circulation, which every driver that takes circulations
  refuses (``report.four_circulations``), so no report admits them;
* ``plane_factorisation`` (:class:`PlaneSplit`) splits the quintic form
  inside the sixth basis element into three real planes and a positive
  semi-definite quadratic;
* ``annihilating_lines`` (:class:`AnnihilatingLines`) counts the
  annihilating lines of the mu1-linear basis elements by a Hermite trace
  form (signature 20, ten lines) and reconstructs them as certified unit
  vectors (:class:`AnnihilatingLine`);
* ``angle_analysis`` (:class:`AngleAnalysis`) projects onto (r, mu1, mu3)
  and pins the three admissible angles, of which exactly one lies below
  120 degrees and gives a true trapezoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from vortexsym.groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    normal_form,
)
from vortexsym.ratpoly import GrevLex, Lex, Poly, VarRegistry
from vortexsym.realroots import (
    RatInterval,
    coeffs_from_poly,
    derivative,
    descartes_positive,
    eval_interval,
    hermite_matrix,
    inertia,
    int_coeffs,
    poly_gcd,
    sign_at,
    squarefree_part,
    sturm_isolate,
)
from vortexsym.fork import fork_call
from vortexsym.scenarios.report import (
    CHECK_WIDTH,
    DEFAULT_EPS,
    Checks,
    ScenarioReport,
    checks_of,
    pipeline_check,
    root_records,
)
from vortexsym.trigvortex import R_REGISTRY, TRAPEZOID3, angle_of_r, pipeline
from vortexsym import targets

_TIGHT = Fraction(1, 10**24)
_GRID = 1 << 80

ANNI = targets.ANNI_REGISTRY
AB = targets.AB_REGISTRY


class IdealShapeError(ValueError):
    """An ideal lacks the shape a certified reconstruction step relies on."""


def run_trapezoid(eps=DEFAULT_EPS, check_appendix=True):
    """Classify trapezoids with three equal sides from the five stages of
    the module docstring (``annihilating_lines`` only with
    ``check_appendix``), with the roots of g(r) enclosed to width ``eps``.
    ``plane_factorisation`` reads only :mod:`vortexsym.targets`, so it runs
    first and feeds both lanes; ``angle_analysis`` then runs in a forked
    child (:func:`vortexsym.fork.fork_call`) while this process runs
    ``elimination_ideal`` and ``annihilating_lines``.  The report is the one
    a serial run gives.
    """
    comps = pipeline(TRAPEZOID3)
    plane = plane_factorisation()
    join_angles = fork_call(angle_analysis, comps, plane)
    try:
        elimination = elimination_ideal(comps)
        lines = annihilating_lines(elimination.ordered_basis, plane) if check_appendix else None
    finally:
        angles = join_angles()

    stages = {
        "elimination_ideal": elimination,
        "plane_factorisation": plane,
        "annihilating_lines": lines,
        "angle_analysis": angles,
    }
    gb = elimination.gb
    roots = root_records("g(r)", angles.roots, eps)
    return ScenarioReport(
        scenario="trapezoid",
        pipeline_polynomials=[c.r_poly.format() for c in comps],
        elimination_basis=[p.format(gb.order) for p in gb.polys],
        conditions=[
            "mu1 - mu3 with mu2 - mu4 (square family)",
            "plane families A1, B2, C3 (one angle each)",
        ],
        roots=roots,
        stability={
            "verdict": "existence classification; no stability claims for this family",
            "window": None,
            "true_trapezoid_theta2": (
                None if angles.true_index is None else roots[angles.true_index].theta2
            ),
        },
        oracle_checks=checks_of(stages),
        artifacts={"pipeline": comps, **stages},
    )


@dataclass(frozen=True)
class EliminationIdeal:
    """What the elimination stage derives: its oracle checks in report
    order, the reduced basis of the elimination ideal over the
    circulations, and its nine elements in the order of the reference
    basis."""

    checks: tuple
    gb: GroebnerBasis
    ordered_basis: tuple


def elimination_ideal(comps):
    """Check the pipeline output, eliminate r and factor the sixth basis
    element; see :class:`EliminationIdeal`."""
    checks = pipeline_check(comps, targets.TRAPEZOID_PIPELINE)
    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    f_ref = targets.f_basis()
    mine = {p.primitive() for p in gb.polys}
    theirs = {f.primitive() for f in f_ref}
    checks.add(
        "elimination_basis_exact",
        mine == theirs,
        "computed reduced basis equals the nine reference elements up to scalars",
    )
    checks.add(
        "elimination_ideal_equality",
        gb.same_ideal_as(f_ref),
        "the reference elements generate the ideal of the computed reduced basis"
        " (equal primitive parts, or equal reduced bases)",
    )
    f_mine = _order_like(gb, f_ref)

    # the sixth element factors as mu4^2 (mu2 - mu4) p1
    p1_r = targets.parsed(R_REGISTRY, targets.P1_QUINTIC)
    quotient = f_mine[5].try_divide(targets.parsed(R_REGISTRY, "mu4^2"))
    if quotient is not None:
        quotient = quotient.try_divide(targets.parsed(R_REGISTRY, "mu2 - mu4"))
    checks.add(
        "f6_factorisation",
        quotient is not None and quotient.primitive() == p1_r.primitive(),
        "f6 = mu4^2 (mu2 - mu4) p1 by exact division",
    )
    return EliminationIdeal(checks=tuple(checks), gb=gb, ordered_basis=tuple(f_mine))


def _order_like(gb, reference):
    """My basis elements rearranged to match the reference order (by primitive)."""
    by_primitive = {p.primitive(): p for p in gb.polys}
    return [by_primitive.get(f.primitive(), f) for f in reference]


# ---------------------------------------------------------------------------
# Splitting the quintic form by division against a generic plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneSplit:
    """What the plane stage derives: its oracle checks in report order, the
    plane-coefficient basis in (a, b), enclosures of the b- and a-values of
    the three real planes a mu2 + b mu3 + mu4, and enclosures of the
    symmetric matrix of the quadratic cofactor in (mu2, mu3, mu4), of its
    eigenvalues (descending) and of its unit null direction."""

    checks: tuple
    ab_gb: GroebnerBasis
    b_intervals: tuple
    a_intervals: tuple
    q_matrix: tuple
    q_eigenvalues: tuple
    null_direction: tuple


def plane_factorisation():
    """Split the quintic form into three real planes and a PSD quadratic;
    see :class:`PlaneSplit`.  Reads only the reference values in
    :mod:`vortexsym.targets`."""
    checks = Checks()
    # parametric reduction by the plane a*mu2 + b*mu3 + mu4: under lex with
    # mu4 first the plane is monic and linear in mu4, so the remainder of p1
    # is p1 at mu4 = -a*mu2 - b*mu3, and p1 minus it is a multiple of the plane
    preg = VarRegistry(["mu4", "mu2", "mu3", "a", "b"])
    p1 = targets.parsed(preg, targets.P1_QUINTIC)
    plane = targets.parsed(preg, "a*mu2 + b*mu3 + mu4")
    remainder = p1.subs({"mu4": targets.parsed(preg, "-a*mu2 - b*mu3")})
    groups = remainder.coefficients_in(["mu2", "mu3"])
    got = [groups.get((5 - k, k), Poly.zero(preg)) for k in range(6)]
    want = [targets.parsed(preg, t) for t in targets.REMAINDER_COEFFS]
    identity_ok = (p1 - remainder).try_divide(plane) is not None
    bad = next((k for k in range(6) if got[k] != want[k]), None)
    detail = "six remainder coefficients match the reference forms exactly"
    if bad is not None:
        mono = Poly.variable(preg, "mu2", 5 - bad) * Poly.variable(preg, "mu3", bad)
        detail = (
            f"coefficient of {mono}: expected {want[bad].format()},"
            f" derived {got[bad].format()}"
        )
    elif not identity_ok:
        detail = "p1 minus the remainder is not a multiple of the plane"
    remainder_ok = identity_ok and bad is None
    checks.add("parametric_remainder", remainder_ok, detail)

    # Groebner basis of the coefficient ideal in (a, b), lex a > b
    gb_ab = buchberger(Ideal.of(*(g.map_to(AB) for g in got)), Lex())
    b_quintic = targets.parsed(AB, targets.B_QUINTIC)
    a_linear = targets.parsed(AB, targets.AB_IDEAL_SECOND)
    basis = {p.primitive() for p in gb_ab.polys}
    basis_ok = len(gb_ab) == 2 and all(
        q.primitive() in basis for q in (b_quintic, a_linear)
    )
    checks.add(
        "ab_ideal_basis",
        basis_ok,
        "basis is the b-quintic and 178a + 578b^4 - 2907b^3 + 1885b^2 - 484b + 434",
    )

    # positive b-roots and the induced a-values
    bq = coeffs_from_poly(b_quintic, "b")
    b_ivs = tuple(_widen(iv.refine(_TIGHT)) for iv in sturm_isolate(bq))
    n_real = len(b_ivs)
    b_vals = [float(iv.midpoint()) for iv in b_ivs]
    changes, _ = descartes_positive(bq)
    # the plane families by ascending b, as the b-roots come out
    families = sorted(targets.PLANE_FAMILIES.items(), key=lambda item: item[1]["b"])
    b_table = tuple(fam["b"] for _, fam in families)
    checks.add(
        "b_quintic_roots",
        n_real == 3
        and changes == 5
        and all(abs(b - t) < targets.NUMERIC_TOL for b, t in zip(b_vals, b_table)),
        f"Descartes bound {changes}, exactly three positive roots near {b_table}",
    )

    a_poly = _a_of_b(gb_ab.polys)
    a_of_b = coeffs_from_poly(a_poly, "b")
    a_ivs = tuple(_widen(eval_interval(a_of_b, iv)) for iv in b_ivs)
    # the paper prints the plane coefficients to six digits
    mismatches = (
        f"a-coefficient mismatch for family {label}: expected {fam['a']},"
        f" derived {float(a.midpoint()):.6f}"
        for a, (label, fam) in zip(a_ivs, families)
        if abs(float(a.midpoint()) - fam["a"]) >= targets.NUMERIC_TOL
    )
    mismatch = next(mismatches, None)
    checks.add(
        "a_values",
        mismatch is None,
        mismatch
        or "a-values (-1.31061, +0.480743, -4.858868); the middle sign is fixed"
        " by the plane mu1 + 0.843716 mu2 + 0.480743 mu3 = 0",
    )

    # exact full split by degree: each plane a(b_i) mu2 + b_i mu3 + mu4 through
    # a complex root b_i of q divides p1, as the remainder coefficients
    # generate <q(b), a - a(b)>.  q is squarefree of degree 5, so the planes
    # are distinct, and the form p1 of degree 5 is c times their product, c =
    # p1(0, 0, 1) its mu4^5 coefficient; q(b) = -p1(0, 1, -b) has lead c too.
    q_ints = int_coeffs(b_quintic, "b")
    c = p1.evaluate({"mu4": 1, "mu2": 0, "mu3": 0, "a": 0, "b": 0})
    split_ok = (
        remainder_ok
        and basis_ok
        and len(q_ints) == 6
        and len(poly_gcd(q_ints, derivative(q_ints))) == 1
        and all(sum(m) == 5 for m in p1.ints)
        and c == bq[-1]
    )
    detail = (
        f"degree argument: the quintic form is {c} times the product of the"
        " five distinct plane factors"
    )
    if c != bq[-1]:
        detail = f"mu4^5 coefficient of the quintic form: expected {bq[-1]}, derived {c}"
    elif not split_ok:
        detail = "the planes through the roots of the b-quintic are not shown to split p1"
    checks.add("quintic_full_split", split_ok, detail)

    # symmetric functions of the complex conjugate root pair, by Vieta: the
    # five roots sum to -bq[4]/bq[5] and multiply to -bq[0]/bq[5]
    sum_real = RatInterval(0)
    prod_real = RatInterval(1)
    for iv in b_ivs:
        sum_real = sum_real + iv
        prod_real = prod_real * iv
    sigma = _widen(RatInterval(-bq[4] / bq[5]) - sum_real)
    tau = _widen(RatInterval(-bq[0] / bq[5]) / prod_real)
    im_sq = tau - sigma * sigma / 4
    checks.add(
        "cofactor_inertia",
        n_real == 3 and split_ok and im_sq.is_positive(),
        "quadratic cofactor is a product of two independent conjugate planes:"
        " inertia exactly (2, 0, 1)",
    )

    q_matrix = _cofactor_matrix(sigma, tau, a_of_b)
    eigen = _cofactor_eigenvalues(q_matrix)
    null_dir = _null_direction(q_matrix)
    # the paper prints the eigenvalues and the null direction to six digits
    eig_ok = all(abs(float(e) - t) < 1e-4 for e, t in zip(eigen, targets.Q_EIGENVALUES))
    dir_ok = any(
        all(abs(float(x) - sign * t) < 1e-5 for x, t in zip(null_dir, targets.Q_NULL_DIRECTION))
        for sign in (1, -1)
    )
    checks.add(
        "cofactor_numerics",
        eig_ok and dir_ok,
        f"eigenvalues {[round(float(e), 5) for e in eigen]},"
        f" null direction {[round(float(x), 6) for x in null_dir]}",
    )

    # the vanishing of f1 on the three plane families, certified exactly
    key = f1_plane_identity_in_ideal(gb_ab)
    checks.add(
        "f1_vanishes_on_planes",
        key is not None,
        "f1 restricted to (alpha mu2 + beta mu3, mu2, mu3, beta mu2 + alpha mu3)"
        " is (mu2^2 - mu3^2)(alpha^2 + beta - beta^2), and alpha^2 + beta -"
        " beta^2 lies in the plane-coefficient ideal",
    )
    # the generic plane alpha = beta = 1, that is a = b = -1
    generic_fails = key is not None and key.evaluate({"a": -1, "b": -1}) != 0
    # the null line (l1, l2, l3) of the cofactor, reversed, with its middle
    # coordinate appended, does not solve f1 = 0
    l1, l2, l3 = null_dir
    w = (l3, l2, l1, l2)
    f1_at_w = w[0] * w[0] - w[0] * w[2] + w[1] * w[3] - w[3] * w[3]
    checks.add(
        "f1_negative_controls",
        generic_fails and not f1_at_w.contains(0),
        "a generic plane fails, and the cofactor kernel line with its fourth"
        " coordinate appended misses the f1 variety",
    )

    return PlaneSplit(
        checks=tuple(checks),
        ab_gb=gb_ab,
        b_intervals=b_ivs,
        a_intervals=a_ivs,
        q_matrix=q_matrix,
        q_eigenvalues=eigen,
        null_direction=null_dir,
    )


def _a_of_b(polys):
    """a as a polynomial in b, read from the first of ``polys`` (elements
    of the plane-coefficient ideal) that is linear in a with a constant
    coefficient."""
    for p in polys:
        groups = p.coefficients_in(["a"])
        if set(groups) == {(0,), (1,)} and groups[(1,)].is_constant():
            (lead,) = groups[(1,)].ints.values()
            return groups[(0,)] * Fraction(-groups[(1,)].den, lead)
    raise IdealShapeError("no element of the plane-coefficient basis gives a as a polynomial in b")


def _widen(iv):
    """``iv`` widened outward to the grid of multiples of 2^-80, so that
    products of enclosures keep short endpoints."""
    lo = iv.lo.numerator * _GRID // iv.lo.denominator
    hi = -(-iv.hi.numerator * _GRID // iv.hi.denominator)
    return RatInterval(Fraction(lo, _GRID), Fraction(hi, _GRID))


def _cofactor_matrix(sigma, tau, a_of_b):
    """Enclosure of the symmetric matrix of the quadratic cofactor.

    The cofactor is (a(b4) mu2 + b4 mu3 + mu4)(a(b5) mu2 + b5 mu3 + mu4) for
    the conjugate pair b4 + b5 = sigma, b4 b5 = tau.  With a(x) = u x + v
    modulo x^2 - sigma x + tau its coefficients are q22 = u^2 tau + u v sigma
    + v^2, q23 = 2 u tau + v sigma and q24 = u sigma + 2 v at mu2^2, mu2 mu3
    and mu2 mu4, then tau, sigma and 1 at mu3^2, mu3 mu4 and mu4^2.
    """
    u = v = RatInterval(0)
    for c in reversed(a_of_b):
        u, v = _widen(u * sigma + v), _widen(c - u * tau)
    q22 = _widen(u * u * tau + u * v * sigma + v * v)
    q23 = _widen((2 * u * tau + v * sigma) / 2)
    q24 = _widen((u * sigma + 2 * v) / 2)
    half_sigma = sigma / 2
    return ((q22, q23, q24), (q23, tau, half_sigma), (q24, half_sigma, RatInterval(1)))


def _cofactor_eigenvalues(q):
    """Eigenvalue enclosures of the rank-two cofactor matrix, descending: the
    roots of l^2 - trace l + (sum of the principal 2x2 minors), then 0."""
    trace = q[0][0] + q[1][1] + q[2][2]
    minors = sum(q[i][i] * q[j][j] - q[i][j] * q[i][j] for i, j in ((0, 1), (0, 2), (1, 2)))
    root = (trace * trace - 4 * minors).sqrt()
    return ((trace + root) / 2, (trace - root) / 2, RatInterval(0))


def _null_direction(q):
    """Enclosure of the unit kernel vector of the cofactor matrix: the cross
    product of its last two rows, whose first coordinate tau - sigma^2/4
    ``cofactor_inertia`` proves positive."""
    (a1, a2, a3), (b1, b2, b3) = q[1], q[2]
    cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    norm = sum(x * x for x in cross).sqrt()
    return tuple(x / norm for x in cross)


def f1_plane_identity_in_ideal(gb_ab):
    """The certified key factor b^2 - a - a^2 of f1 on the plane family, or None.

    Substituting mu1 = alpha mu2 + beta mu3 and mu4 = beta mu2 + alpha mu3
    with alpha = -b, beta = -a collapses f1 to (mu2^2 - mu3^2)(b^2 - a - a^2);
    membership of b^2 - a - a^2 in the plane-coefficient ideal certifies the
    vanishing on all three planes at once.
    """
    reg = VarRegistry(["a", "b", "mu2", "mu3"])
    alpha = -1 * Poly.variable(reg, "b")
    beta = -1 * Poly.variable(reg, "a")
    mu2 = Poly.variable(reg, "mu2")
    mu3 = Poly.variable(reg, "mu3")
    mu1 = alpha * mu2 + beta * mu3
    mu4 = beta * mu2 + alpha * mu3
    f1 = mu1 * mu1 - mu1 * mu3 + mu2 * mu4 - mu4 * mu4
    groups = f1.coefficients_in(["mu2", "mu3"])
    key_poly = targets.parsed(reg, "b^2 - a - a^2")
    zero = Poly.zero(reg)
    shape = tuple(groups.get(m, zero) for m in ((1, 1), (2, 0), (0, 2)))
    key = key_poly.map_to(AB)
    ok = shape == (zero, key_poly, -key_poly) and normal_form(key, gb_ab).is_zero()
    return key if ok else None


# ---------------------------------------------------------------------------
# The annihilating lines and the Hermite count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatingLine:
    """One certified real annihilating line: enclosures of its direction
    (mu2, mu3, mu4), its case label ("mu4=0" for the lines of the binary
    slice, None for the affine ones until ``_match_table`` classifies
    them), and for an affine line the lex basis of the mu4 = 1 slice it
    solves, whose mu3 root it encloses in ``direction[1]``."""

    direction: tuple
    case: str | None
    slice_gb: GroebnerBasis | None = None


@dataclass(frozen=True)
class AnnihilatingLines:
    """What the line stage derives: its oracle checks in report order, the
    annihilator basis, the basis with the unit sphere added, and the
    reconstructed lines."""

    checks: tuple
    annihilator_gb: GroebnerBasis
    sphere_gb: GroebnerBasis
    lines: tuple


def annihilating_lines(ordered_basis, plane):
    """Extract the mu1-linear coefficients of the elimination basis (in
    reference order), count and reconstruct the lines, and match them with
    the reference table using the planes of ``plane`` (a
    :class:`PlaneSplit`); see :class:`AnnihilatingLines`."""
    checks = Checks()
    c_polys = []
    linear_ok = True
    for f in (ordered_basis[i] for i in (1, 2, 3, 4, 6, 7, 8)):
        groups = f.coefficients_in(["mu1"])
        if set(groups) - {(0,), (1,)}:
            linear_ok = False
            break
        c_polys.append(groups[(1,)].map_to(ANNI))
        c_polys.append(groups[(0,)].map_to(ANNI))
    want = [targets.parsed(ANNI, t) for t in targets.C_POLYS]
    checks.add(
        "linear_coefficients",
        linear_ok
        and len(c_polys) == 14
        and all(c.primitive() == w.primitive() for c, w in zip(c_polys, want)),
        "the fourteen mu1-linear coefficients match the reference forms",
    )

    p1 = targets.parsed(ANNI, targets.P1_QUINTIC)
    gb_anni = buchberger(Ideal.of(*(c_polys + [p1])), GrevLex())
    mine = {p.primitive() for p in gb_anni.polys}
    want_basis = {
        targets.parsed(ANNI, t).primitive() for t in targets.ANNIHILATOR_BASIS
    }
    checks.add(
        "annihilator_basis",
        mine == want_basis,
        "reduced six-element basis matches the reference forms",
    )

    sphere = targets.parsed(ANNI, "mu2^2 + mu3^2 + mu4^2 - 1")
    gb_sphere = buchberger(Ideal.of(*(list(gb_anni.polys) + [sphere])), GrevLex())
    hermite = hermite_matrix(gb_sphere)
    n_pos, n_neg, _ = inertia(hermite)
    signature = n_pos - n_neg
    rank = n_pos + n_neg
    checks.add(
        "hermite_signature",
        signature == 20,
        f"signature {signature}, rank {rank}, quotient dimension {hermite.n}:"
        f" twenty real sphere points, ten annihilating lines",
    )

    lines = _reconstruct_lines(gb_anni.polys)
    checks.add(
        "line_count",
        2 * len(lines) == signature,
        f"{len(lines)} certified real lines, matching the signature",
    )
    checks.add("table_of_lines", *_match_table(lines, plane))
    return AnnihilatingLines(
        checks=tuple(checks), annihilator_gb=gb_anni, sphere_gb=gb_sphere, lines=tuple(lines)
    )


def _reconstruct_lines(anni_polys):
    """Certified direction enclosures for the real annihilating lines,
    widened to the grid of :func:`_widen`.

    Lines with mu4 = 0 come from the binary-quintic slice; the rest are the
    affine solutions at mu4 = 1, solved from a triangular lex basis with
    certified back-substitution.
    """
    lines = []
    mu23 = VarRegistry(["mu2", "mu3"])

    # mu4 = 0 slice: the lines are the common roots of the surviving binary
    # forms.  One of them keeping its degree at mu3 = 1 has a pure mu2 power,
    # so mu3 = 0 is not a line of the slice and dehomogenising by mu3 loses
    # nothing
    forms = [q for q in (p.subs({"mu4": Fraction(0)}) for p in anni_polys) if not q.is_zero()]
    dehoms = [int_coeffs(q.map_to(mu23).subs({"mu3": 1}), "mu2") for q in forms]
    if not any(len(c) - 1 == q.total_degree() for c, q in zip(dehoms, forms)):
        raise IdealShapeError("dehomogenising the mu4 = 0 slice by mu3 drops its degree")
    dehom = dehoms[0]
    for other in dehoms[1:]:
        dehom = poly_gcd(dehom, other)
    for iv in sturm_isolate(dehom):
        direction = (_widen(iv.refine(Fraction(1, 10**18))), RatInterval(1), RatInterval(0))
        lines.append(AnnihilatingLine(direction=direction, case="mu4=0"))

    # mu4 = 1 slice: zero-dimensional, triangular in lex mu2 > mu3
    slice1 = [p.subs({"mu4": Fraction(1)}).map_to(mu23) for p in anni_polys]
    gb1 = buchberger(Ideal.of(*slice1), Lex())
    univariate = [p for p in gb1.polys if not p.uses("mu2")]
    if len(univariate) != 1:
        raise IdealShapeError("expected a single eliminant in mu3")
    h = univariate[0]
    linear = [p for p in gb1.polys if p.degree_in("mu2") == 1]
    if not linear:
        raise IdealShapeError("slice basis is not in solvable triangular form")
    shape = linear[0]
    groups = shape.coefficients_in(["mu2"])
    a_poly = coeffs_from_poly(groups[(1,)], "mu3")
    b_poly = coeffs_from_poly(groups.get((0,), Poly.zero(mu23)), "mu3")
    h_coeffs = int_coeffs(h, "mu3")
    common = poly_gcd(h_coeffs, a_poly)
    for iv in sturm_isolate(h_coeffs):
        # the refinement below ends only if a_poly is nonzero at the root
        if _vanishes_in(common, iv):
            raise IdealShapeError("the shape-lemma denominator vanishes at a root of the eliminant")
        window = iv.refine(Fraction(1, 10**18))
        denom = eval_interval(a_poly, window)
        while denom.contains(0):
            window = window.refine(window.width() / 2**10)
            denom = eval_interval(a_poly, window)
        mu2_iv = _widen(-1 * eval_interval(b_poly, window) / denom)
        lines.append(
            AnnihilatingLine(
                direction=(mu2_iv, _widen(window), RatInterval(1)), case=None, slice_gb=gb1
            )
        )
    return lines


def _vanishes_in(divisor, iv):
    """Whether ``divisor`` has a root in the enclosure ``iv``, given that
    ``divisor`` divides a polynomial h of which ``iv`` (from
    ``sturm_isolate``) isolates one root.

    An inexact ``iv`` has no root of h at either end, and the one root of h
    inside is simple in the squarefree part sf of ``divisor`` if it is a root
    of sf at all; so sf vanishes in ``iv`` exactly when sf(lo) sf(hi) <= 0,
    which for an exact ``iv`` reads sf(lo) = 0.
    """
    sf = squarefree_part(divisor)
    lo, hi = iv.lo, iv.hi
    return sign_at(sf, lo.numerator, lo.denominator) * sign_at(sf, hi.numerator, hi.denominator) <= 0


def _match_table(lines, plane):
    """Normalise, classify, and compare the ten lines with the reference
    table, matched bijectively up to overall sign: (ok, detail)."""
    if len(lines) != len(targets.TABLE_LINES):
        return False, f"expected {len(targets.TABLE_LINES)} lines, found {len(lines)}"

    # the affine lines share one slice basis; read its mu2 = mu4 points once
    slices = {line.slice_gb for line in lines if line.case is None}
    equal_pairs = {gb: _equal_pairs(gb) for gb in slices}
    used = set()
    for line in lines:
        d = line.direction
        norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
        unit = tuple(x / norm for x in d)
        unit_f = tuple(float(x) for x in unit)
        disc_iv = d[1] * d[1] - 4 * d[0] * d[2] + 4 * d[2] * d[2]
        if disc_iv.is_positive():
            disc_positive = True
        elif disc_iv.is_negative():
            disc_positive = False
        else:
            return False, "discriminant enclosure is not sign-definite"
        mu1_values = []
        if disc_positive:
            disc_unit = unit[1] * unit[1] - 4 * unit[0] * unit[2] + 4 * unit[2] * unit[2]
            root = disc_unit.sqrt()
            for sign in (1, -1):
                mu1_values.append(float((unit[1] + sign * root) / 2))
        case = line.case
        if case is None:
            case = _classify(line, plane, equal_pairs[line.slice_gb])
            if case is None:
                return False, f"line {unit_f} could not be classified"

        best = None
        for idx, ref in enumerate(targets.TABLE_LINES):
            if idx in used:
                continue
            for flip in (1, -1):
                dist = max(abs(a - flip * b) for a, b in zip(unit_f, ref["u"]))
                if dist < targets.NUMERIC_TOL:
                    best = (idx, flip)
                    break
            if best:
                break
        if not best:
            return False, f"no reference row within tolerance of {unit_f}"
        idx, flip = best
        used.add(idx)
        ref = targets.TABLE_LINES[idx]
        if disc_positive != ref["disc_positive"]:
            return False, (
                f"discriminant sign mismatch on row {idx + 1}: expected"
                f" {_sign_word(ref['disc_positive'])}, derived {_sign_word(disc_positive)}"
            )
        if ref["mu1"]:
            got = sorted(mu1_values)
            want = sorted(flip * x for x in ref["mu1"])
            if max(abs(a - b) for a, b in zip(got, want)) > targets.NUMERIC_TOL:
                return False, (
                    f"mu1 values mismatch on row {idx + 1}: expected {want},"
                    f" derived {[round(x, 6) for x in got]}"
                )
        if case != ref["case"]:
            return False, f"case mismatch on row {idx + 1}: {case} vs {ref['case']}"
    return True, "ten unit lines, discriminant signs, mu1 roots, and cases all match"


def _sign_word(positive):
    return "positive" if positive else "negative"


def _equal_pairs(slice_gb):
    """The gcd g of the mu4 = 1 slice basis at mu2 = 1, ascending in mu3,
    and isolating intervals of its real roots: the mu3 of the slice points
    with mu2 = mu4."""
    at_mu2_1 = (int_coeffs(p.subs({"mu2": 1}), "mu3") for p in slice_gb.polys)
    constrained = [c for c in at_mu2_1 if c]
    g = constrained[0]
    for other in constrained[1:]:
        g = poly_gcd(g, other)
    return g, sturm_isolate(g)


def _classify(line, plane, equal_pairs):
    """Label an affine line: equal pair, cofactor kernel, or plane crossing.

    The equal pair mu2 = mu4 is decided exactly on ``equal_pairs``, the
    :func:`_equal_pairs` of the line's slice basis.  The other two labels
    are read off enclosures, which can only rule a label out: "null-line"
    when every row of Q d may vanish, for the cofactor matrix Q of
    ``plane`` (a :class:`PlaneSplit`), and "intersection" when d may lie on
    at least two of its three real planes.
    """
    g, g_roots = equal_pairs
    window = line.direction[1]
    if any(root.meets(window) for root in g_roots):
        if eval_interval(g, window).contains(0):
            return "mu2=mu4"
    d = line.direction
    if all(sum(q * x for q, x in zip(row, d)).contains(0) for row in plane.q_matrix):
        return "null-line"
    planes = zip(plane.a_intervals, plane.b_intervals)
    if sum((a * d[0] + b * d[1] + d[2]).contains(0) for a, b in planes) >= 2:
        return "intersection"
    return None


# ---------------------------------------------------------------------------
# Valid angles: projection onto (r, mu1, mu3) and the plane pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleAnalysis:
    """What the angle stage derives: its oracle checks in report order, the
    projection basis onto (r, mu1, mu3), the isolating intervals of the
    roots of g(r), ascending, and the index among them of the true
    trapezoid (None unless it is proven unique)."""

    checks: tuple
    angle_projection_gb: GroebnerBasis
    roots: tuple
    true_index: int | None


def angle_analysis(comps, plane):
    """The angle stage from the pipeline output and ``plane``; see :class:`AngleAnalysis`."""
    checks = Checks()
    p1 = targets.parsed(R_REGISTRY, targets.P1_QUINTIC)
    ideal = Ideal.of(*([c.r_poly for c in comps] + [p1]))
    # Any order on the dropped block gives the same reduced basis of the
    # elimination ideal under grevlex in (r, mu1, mu3): the block-order basis
    # elements free of mu2 and mu4 are that basis.  mu4 first runs shorter.
    gb_vt = eliminate(ideal, ["mu4", "mu2"])
    reference = targets.valid_theta_basis()
    checks.add(
        "angle_projection_ideal",
        gb_vt.same_ideal_as(reference),
        "projection ideal onto (r, mu1, mu3) matches the reference basis",
    )

    # the degree-ten angle polynomial, extracted by exact division
    g_mine = None
    divisor = targets.parsed(R_REGISTRY, "mu1^2") * targets.parsed(R_REGISTRY, "mu1 - mu3")
    for p in gb_vt.polys:
        q = p.try_divide(divisor)
        if q is not None and not any(q.uses(n) for n in ("mu1", "mu2", "mu3", "mu4")):
            g_mine = q
            break
    g_ref = targets.parsed(R_REGISTRY, targets.G_OF_R)
    checks.add(
        "angle_polynomial",
        g_mine is not None and g_mine.primitive() == g_ref.primitive(),
        "mu1^2 (mu1 - mu3) g(r) appears in the projection basis",
    )
    g_coeffs = int_coeffs(g_ref, "r")

    # the checks read the roots to the fixed CHECK_WIDTH, so no verdict
    # depends on the width of the reported enclosures
    roots = sturm_isolate(g_coeffs)
    checked = [iv.refine(CHECK_WIDTH) for iv in roots]
    radii = [float(iv) for iv in checked]
    r_mags = sorted({round(abs(r), 6) for r in radii})
    want_r = sorted(row["r"] for row in targets.ANGLE_TABLE)
    theta_mags = sorted({round(abs(angle_of_r(r)), 6) for r in radii})
    want_theta = sorted(row["theta2"] for row in targets.ANGLE_TABLE)
    checks.add(
        "angle_roots",
        len(roots) == 6
        and all(abs(a - b) < targets.NUMERIC_TOL for a, b in zip(r_mags, want_r))
        and all(abs(a - b) < targets.NUMERIC_TOL for a, b in zip(theta_mags, want_theta)),
        f"six real radii {r_mags} with angles {theta_mags}",
    )

    checks.add("plane_pairing", *_plane_pairing(comps, g_ref, checked, plane))

    chosen = true_trapezoid_roots(g_coeffs, checked)
    if chosen is None:
        unique, detail = False, "a root of g(r) may lie at r = 0 or 3 r^2 = 1"
    else:
        true_angles = [angle_of_r(radii[i]) for i in chosen]
        # the paper prints theta2 to six digits
        (printed,) = (row["theta2"] for row in targets.ANGLE_TABLE if row["true_trapezoid"])
        unique = len(true_angles) == 1 and abs(true_angles[0] - printed) < targets.NUMERIC_TOL
        detail = (
            f"theta2 = {true_angles[0]:.6f} is the only angle below 2*pi/3"
            if true_angles
            else "no angle below 2*pi/3"
        )
    checks.add("unique_true_trapezoid", unique, detail)
    return AngleAnalysis(
        checks=tuple(checks),
        angle_projection_gb=gb_vt,
        roots=tuple(roots),
        true_index=chosen[0] if unique else None,
    )


def true_trapezoid_roots(g_coeffs, intervals):
    """Indices of the roots of g whose angle lies in (0, 2*pi/3), decided
    exactly, or None when a root may sit on the boundary of that range.

    ``angle_of_r`` gives theta2 = 2 arccot r in (0, 2*pi/3) exactly when
    r > 0 and 3 r^2 > 1.  Once g(0) != 0 and gcd(g, 3 r^2 - 1) = 1 are
    proven, no root is 0 or +-1/sqrt(3), so refining each isolating
    interval ends with r, and for r > 0 also 3 r^2 - 1, of one sign on it.
    """
    boundary = [Fraction(-1), Fraction(0), Fraction(3)]
    if g_coeffs[0] == 0 or len(poly_gcd(g_coeffs, boundary)) > 1:
        return None
    chosen = []
    for i, iv in enumerate(intervals):
        while True:
            if iv.hi < 0 or (iv.lo > 0 and 3 * iv.hi * iv.hi < 1):
                break
            if iv.lo > 0 and 3 * iv.lo * iv.lo > 1:
                chosen.append(i)
                break
            iv = iv.refine(iv.width() / 2)
    return chosen


def _plane_pairing(comps, g_ref, g_intervals, plane):
    """Exact pairing of the angle radii with the plane families of ``plane``.

    Writes the fourth pipeline polynomial as A(r) mu1 + B(r) mu2 + C(r) mu3,
    so that at a root of g the plane family has b = B/A and a = C/A.  Once
    gcd(g, g') = 1 (g is squarefree) and gcd(g, A) = 1 (A vanishes at no
    root of g) are proven, a polynomial P(a, b) of degree d vanishes at
    (C/A, B/A) on every root of g exactly when g divides the polynomial
    A^d P(C/A, B/A).  Three such divisions make the proof: by the a-free
    element q of ``plane.ab_gb``, B/A is a root of the b-quintic; by its
    a-linear element a(b), C/A = a(B/A); and the first two pipeline
    polynomials, linear in the circulations, vanish on the family, since g
    divides each (mu2, mu3)-coefficient of A times their value there.
    The positive radii, ascending, then take the labels of the one
    enclosure in ``plane.b_intervals`` that each B/A enclosure meets, which
    must be those of the ``targets.ANGLE_TABLE`` rows sorted by r; the
    printed radii are the ``angle_roots`` check's to compare, and the
    families' printed a-coefficients the ``a_values`` check's.
    """
    mus = ["mu1", "mu2", "mu3", "mu4"]
    groups = comps[2].r_poly.coefficients_in(mus)
    if set(groups) != {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}:
        return False, "unexpected structure in the fourth pipeline polynomial"
    A = groups[(1, 0, 0, 0)]
    B = groups[(0, 1, 0, 0)]
    C = groups[(0, 0, 1, 0)]

    g_c = int_coeffs(g_ref, "r")
    a_c = coeffs_from_poly(A, "r")
    if len(poly_gcd(g_c, derivative(g_c))) > 1:
        return False, "the angle polynomial is not squarefree"
    if len(poly_gcd(g_c, a_c)) > 1:
        return False, "the mu1 coefficient shares a root with the angle polynomial"

    (quintic,) = (p for p in plane.ab_gb.polys if not p.uses("a"))
    if _cleared(coeffs_from_poly(quintic, "b"), A, B).try_divide(g_ref) is None:
        return False, "division certificate failed: B/A is not a root of the b-quintic"

    a_of_b = coeffs_from_poly(_a_of_b(plane.ab_gb.polys), "b")
    d = len(a_of_b) - 1
    if (_cleared(a_of_b, A, B) - C * A ** (d - 1)).try_divide(g_ref) is None:
        return False, "division certificate failed: g does not divide A^d a(B/A) - C A^(d-1)"

    # A times the first two pipeline polynomials on the plane family
    mu2, mu3 = Poly.variable(R_REGISTRY, "mu2"), Poly.variable(R_REGISTRY, "mu3")
    on_plane = {
        "mu1": -B * mu2 - C * mu3,
        "mu2": A * mu2,
        "mu3": A * mu3,
        "mu4": -C * mu2 - B * mu3,
    }
    for comp in comps[:2]:
        if any(sum(m) != 1 for m in comp.r_poly.coefficients_in(mus)):
            return False, f"component {comp.index} is not linear in the circulations"
        image = comp.r_poly.subs(on_plane)
        for coefficient in image.coefficients_in(["mu2", "mu3"]).values():
            if coefficient.try_divide(g_ref) is None:
                return False, f"component {comp.index} does not vanish on the family"

    # labels: the real b-roots ascending, to the families by printed b
    labels = sorted(targets.PLANE_FAMILIES, key=lambda label: targets.PLANE_FAMILIES[label]["b"])
    if len(plane.b_intervals) != len(labels):
        return False, f"expected {len(labels)} real b-roots, found {len(plane.b_intervals)}"
    b_c = coeffs_from_poly(B, "r")
    positive = [iv for iv in g_intervals if iv.lo > 0]
    rows = sorted((row["r"], row["plane"]) for row in targets.ANGLE_TABLE)
    if len(positive) != len(rows):
        return False, f"expected {len(rows)} positive radii, found {len(positive)}"
    for iv, (r_val, want) in zip(positive, rows):
        b_val = eval_interval(b_c, iv) / eval_interval(a_c, iv)
        met = [labels[i] for i, root in enumerate(plane.b_intervals) if root.meets(b_val)]
        if len(met) != 1:
            return False, f"B/A meets {len(met)} isolating intervals of the b-quintic, expected 1"
        if met != [want]:
            return False, f"radius {r_val} did not pair with plane {want}; derived {met[0]}"
    return True, "each radius pairs with its plane family, certified exactly"


def _cleared(coeffs, A, B):
    """A^d c(B/A) for the polynomial c of degree d with ascending ``coeffs``,
    by Horner in B with the powers of A alongside."""
    total = Poly.zero(A.registry)
    a_power = Poly.constant(A.registry, 1)
    for c in reversed(coeffs):
        total = total * B + c * a_power
        a_power = a_power * A
    return total

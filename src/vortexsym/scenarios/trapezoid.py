"""Trapezoids with three equal sides: the full classification chain.

Angles are theta = (0, t, 2t, 3t).  Eliminating the half-angle variable
yields a nine-polynomial ideal over the circulations whose variety splits
into the square family (mu1 = mu3, mu2 = mu4) and three plane families.
The quintic form inside the sixth basis element factors into three real
planes and a positive semi-definite quadratic; the annihilating lines of
the mu1-linear basis elements are counted by a Hermite trace form
(signature 20, ten lines) and reconstructed as certified unit vectors.
Projecting onto (r, mu1, mu3) pins the three admissible angles, of which
exactly one lies below 120 degrees and gives a true trapezoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from vortexsym.groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    normal_form,
    reduce,
    resultant,
    standard_monomials,
)
from vortexsym.ratpoly import GrevLex, Poly, VarRegistry, lex
from vortexsym.realroots import (
    RatInterval,
    SturmSequence,
    coeffs_from_poly,
    derivative,
    descartes_positive,
    eval_at,
    eval_interval,
    hermite_matrix,
    inertia,
    poly_gcd,
    squarefree_part,
    sturm_isolate,
)
from vortexsym.fork import fork_call
from vortexsym.scenarios.report import OracleCheck, RootRecord, ScenarioReport
from vortexsym.trigvortex import R_REGISTRY, TRAPEZOID3, angle_of_r, pipeline
from vortexsym import targets

_ORD = GrevLex()
_EPS = Fraction(1, 10**9)
_TIGHT = Fraction(1, 10**24)

MU = targets.MU_REGISTRY
ANNI = targets.ANNI_REGISTRY
AB = targets.AB_REGISTRY


class InconclusiveEnclosureError(ValueError):
    """An enclosure is too wide to determine a sign; tighten, never guess."""


class IdealShapeError(ValueError):
    """An ideal lacks the shape a certified reconstruction step relies on."""


def run_trapezoid(eps=_EPS, check_appendix=True):
    """Classify trapezoids with three equal sides; returns the checked report.

    The run has two lanes.  ``angle_analysis`` needs only the pipeline
    output, so it runs in a forked child (:func:`vortexsym.fork.fork_call`)
    while this process eliminates the half-angle variable, splits the
    quintic form and, with ``check_appendix``, counts the annihilating
    lines.  Its checks are appended after theirs, so the report is the one
    a serial run gives.
    """
    report = ScenarioReport(scenario="trapezoid")

    comps = pipeline(TRAPEZOID3)
    join_angles = fork_call(angle_analysis, comps, eps)
    try:
        _elimination_chain(report, comps, eps, check_appendix)
    finally:
        angles = join_angles()
    report.oracle_checks.extend(angles.checks)
    report.artifacts["angle_projection_gb"] = angles.angle_projection_gb
    report.artifacts["angle_analysis"] = angles
    report.roots = list(angles.roots)
    report.stability = {
        "verdict": "existence classification; no stability claims for this family",
        "window": None,
        "true_trapezoid_theta2": angles.true_theta2,
    }
    return report


def _elimination_chain(report, comps, eps, check_appendix):
    """The main lane: pipeline check, elimination ideal, plane
    factorisation and, with ``check_appendix``, the annihilating lines."""
    report.pipeline_polynomials = [c.r_poly.format(_ORD) for c in comps]
    goals = targets.build_products(targets.R_REGISTRY, targets.TRAPEZOID_PIPELINE)
    report.check(
        "pipeline_polynomials",
        all(c.r_poly.primitive(_ORD) == g.primitive(_ORD) for c, g in zip(comps, goals)),
        "three reduced polynomials match the reference forms up to scalars",
    )

    # (ii) elimination ideal over the circulations: nine basis elements
    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    report.elimination_basis = [p.format(gb.order) for p in gb.polys]
    f_ref = [f.map_to(R_REGISTRY) for f in targets.f_basis(MU)]
    mine = {p.primitive(gb.order) for p in gb.polys}
    theirs = {f.primitive(gb.order) for f in f_ref}
    exact_match = mine == theirs
    report.check(
        "elimination_basis_exact",
        exact_match,
        "computed reduced basis equals the nine reference elements up to scalars",
    )
    both_ways = all(gb.contains(f) for f in f_ref) and gb.same_ideal_as(f_ref)
    report.check(
        "elimination_ideal_equality",
        both_ways,
        "every reference element reduces to zero and conversely",
    )
    f_mine = _order_like(gb, f_ref)

    # (iii) the sixth element factors as mu4^2 (mu2 - mu4) p1
    p1_r = Poly.parse(R_REGISTRY, targets.P1_QUINTIC)
    f6 = f_mine[5]
    quotient = f6.try_divide(Poly.parse(R_REGISTRY, "mu4^2"), _ORD)
    if quotient is not None:
        quotient = quotient.try_divide(Poly.parse(R_REGISTRY, "mu2 - mu4"), _ORD)
    report.check(
        "f6_factorisation",
        quotient is not None and quotient.primitive(_ORD) == p1_r.primitive(_ORD),
        "f6 = mu4^2 (mu2 - mu4) p1 by exact division",
    )

    report.artifacts["pipeline"] = comps
    report.artifacts["elimination_gb"] = gb
    plane_data = plane_factorisation(report, eps)
    report.artifacts["plane_factorisation"] = plane_data
    conditions = [
        "mu1 - mu3 with mu2 - mu4 (square family)",
        "plane families A1, B2, C3 (one angle each)",
    ]
    report.conditions = conditions

    if check_appendix:
        annihilating_lines(report, gb, f_mine, plane_data, eps)


def _order_like(gb, reference):
    """My basis elements rearranged to match the reference order (by primitive)."""
    prim_to_poly = {p.primitive(gb.order).format(_ORD): p for p in gb.polys}
    out = []
    for f in reference:
        key = f.primitive(gb.order).format(_ORD)
        out.append(prim_to_poly.get(key, f))
    return out


# ---------------------------------------------------------------------------
# Splitting the quintic form by division against a generic plane
# ---------------------------------------------------------------------------


def plane_factorisation(report, eps):
    """Split the quintic form into three real planes and a PSD quadratic.

    Returns certified data shared by later stages: b-root and a-value
    enclosures, the complex-pair symmetric functions sigma and tau, and the
    numeric quadratic cofactor.
    """
    # parametric reduction: divide by a*mu2 + b*mu3 + mu4 with mu4 ranked first
    preg = VarRegistry(["mu4", "mu2", "mu3", "a", "b"])
    p1 = Poly.parse(preg, targets.P1_QUINTIC)
    plane = Poly.parse(preg, "a*mu2 + b*mu3 + mu4")
    quotients, remainder = reduce(p1, [plane], lex(preg))
    identity_ok = quotients[0] * plane + remainder == p1 and not remainder.uses("mu4")
    groups = remainder.coefficients_in(["mu2", "mu3"])
    got = [groups.get((5 - k, k), Poly.zero(preg)) for k in range(6)]
    want = [Poly.parse(preg, t) for t in targets.REMAINDER_COEFFS]
    report.check(
        "parametric_remainder",
        identity_ok and got == want,
        "six remainder coefficients match the reference forms exactly",
    )

    # Groebner basis of the coefficient ideal in (a, b), lex a > b
    coeffs_ab = [g.map_to(AB) for g in got]
    gb_ab = buchberger(Ideal.of(*coeffs_ab), lex(AB))
    report.artifacts["ab_gb"] = gb_ab
    b_quintic = Poly.parse(AB, targets.B_QUINTIC)
    contains_quintic = any(
        p.primitive(gb_ab.order) == b_quintic.primitive(gb_ab.order) for p in gb_ab.polys
    )
    second_ok = any(
        p.primitive(gb_ab.order)
        == Poly.parse(AB, targets.AB_IDEAL_SECOND).primitive(gb_ab.order)
        for p in gb_ab.polys
    )
    report.check(
        "ab_ideal_basis",
        len(gb_ab) == 2 and contains_quintic and second_ok,
        "basis is the b-quintic and 178a + 578b^4 - 2907b^3 + 1885b^2 - 484b + 434",
    )

    # positive b-roots and the induced a-values
    bq = coeffs_from_poly(b_quintic, "b")
    sturm = SturmSequence(squarefree_part(bq))
    n_real = sturm.count_all()
    intervals = sturm_isolate(bq)
    for iv in intervals:
        iv.refine(_TIGHT)
    b_vals = [float(iv.midpoint()) for iv in intervals]
    changes, _ = descartes_positive(bq)
    report.check(
        "b_quintic_roots",
        n_real == 3
        and changes == 5
        and len(intervals) == 3
        and all(
            abs(b - t) < targets.NUMERIC_TOL for b, t in zip(sorted(b_vals), targets.B_ROOTS)
        ),
        f"Descartes bound {changes}, exactly three positive roots near {targets.B_ROOTS}",
    )

    # a as an exact rational function of b
    a_of_b = [Fraction(x) for x in _a_relation_coeffs()]
    a_ivs = [eval_interval(a_of_b, RatInterval(iv.lo, iv.hi)) for iv in intervals]
    a_vals = [float(iv.midpoint()) for iv in a_ivs]
    report.check(
        "a_values",
        all(abs(a - t) < targets.NUMERIC_TOL for a, t in zip(a_vals, targets.A_ROOTS)),
        "a-values (-1.31061, +0.480743, -4.858868); the middle sign is fixed"
        " by the plane mu1 + 0.843716 mu2 + 0.480743 mu3 = 0",
    )

    # exact full-split certificate: the resultant of the quintic and the
    # generic plane (cleared of denominators) reproduces the quintic form,
    # so the form is a product of five planes, two of them conjugate complex
    breg = VarRegistry(["b", "mu2", "mu3", "mu4"])
    q5 = Poly.parse(breg, "17*b^5 - 98*b^4 + 117*b^3 - 54*b^2 + 22*b - 8")
    m_plane = (
        Poly.parse(breg, "-434 + 484*b - 1885*b^2 + 2907*b^3 - 578*b^4")
        * Poly.variable(breg, "mu2")
        + 178 * Poly.variable(breg, "b") * Poly.variable(breg, "mu3")
        + 178 * Poly.variable(breg, "mu4")
    )
    res = resultant(q5, m_plane, "b")
    p1_b = Poly.parse(breg, targets.P1_QUINTIC)
    res_content, res_prim = res.content_strip(_ORD)
    p1_content, p1_prim = p1_b.content_strip(_ORD)
    split_ok = res_prim == p1_prim and res_content / p1_content == Fraction(
        17**3 * 178**5
    )
    report.check(
        "quintic_full_split",
        split_ok,
        "resultant certificate: the quintic form is 17 times the product of"
        " the five plane factors",
    )

    # symmetric functions of the complex conjugate root pair
    sum_real = RatInterval(0)
    prod_real = RatInterval(1)
    for iv in intervals:
        sum_real = sum_real + RatInterval(iv.lo, iv.hi)
        prod_real = prod_real * RatInterval(iv.lo, iv.hi)
    sigma = RatInterval(Fraction(98, 17)) - sum_real
    tau = RatInterval(Fraction(8, 17)) / prod_real
    im_sq = tau - sigma * sigma / 4
    psd_ok = n_real == 3 and split_ok and im_sq.is_positive()
    report.check(
        "cofactor_inertia",
        psd_ok,
        "quadratic cofactor is a product of two independent conjugate planes:"
        " inertia exactly (2, 0, 1)",
    )

    q_matrix, eigen, null_dir = _cofactor_numerics(float(sigma), float(tau))
    eig_ok = all(
        abs(e - t) < 1e-4 for e, t in zip(sorted(eigen, reverse=True), targets.Q_EIGENVALUES)
    )
    dir_ok = _matches_up_to_sign(null_dir, targets.Q_NULL_DIRECTION, 1e-5)
    report.check(
        "cofactor_numerics",
        eig_ok and dir_ok,
        f"eigenvalues {[round(e, 5) for e in sorted(eigen, reverse=True)]},"
        f" null direction {[round(x, 6) for x in null_dir]}",
    )

    # the vanishing of f1 on the three plane families, certified exactly
    symbolic_ok = f1_plane_identity_in_ideal(gb_ab)
    report.check(
        "f1_vanishes_on_planes",
        symbolic_ok,
        "f1 restricted to (alpha mu2 + beta mu3, mu2, mu3, beta mu2 + alpha mu3)"
        " is (mu2^2 - mu3^2)(alpha^2 + beta - beta^2), and alpha^2 + beta -"
        " beta^2 lies in the plane-coefficient ideal",
    )
    generic_fails = not check_f1_on_plane(1, 1, gb_ab=gb_ab)
    # the kernel line of the cofactor crossed with its own mu4 coordinate
    # does not solve f1 = 0
    ell2 = [-x for x in null_dir]  # (0.264487, 0.099719, 0.959220) reversed order
    w = (ell2[2], ell2[1], ell2[0], -0.0997192)
    f1_at_w = w[0] ** 2 - w[0] * w[2] + w[1] * w[3] - w[3] ** 2
    report.check(
        "f1_negative_controls",
        generic_fails and abs(f1_at_w) > 1e-3,
        "a generic plane fails, and the cofactor kernel line with its fourth"
        " coordinate appended misses the f1 variety",
    )

    return {
        "b_intervals": intervals,
        "a_intervals": a_ivs,
        "gb_ab": gb_ab,
        "sigma": sigma,
        "tau": tau,
        "q_matrix": q_matrix,
        "q_eigenvalues": eigen,
        "q_null_direction": null_dir,
    }


def _a_relation_coeffs():
    # 178 a + 434 - 484 b + 1885 b^2 - 2907 b^3 + 578 b^4 = 0
    return [
        Fraction(-434, 178),
        Fraction(484, 178),
        Fraction(-1885, 178),
        Fraction(2907, 178),
        Fraction(-578, 178),
    ]


def a_from_b(b):
    """Exact rational a-value of the plane through a given rational b."""
    coeffs = _a_relation_coeffs()
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * b + c
    return acc


def _cofactor_numerics(sigma, tau):
    """Numeric quadratic cofactor from the conjugate pair b4, b5.

    q = (a(b4) mu2 + b4 mu3 + mu4)(a(b5) mu2 + b5 mu3 + mu4) with
    b4 + b5 = sigma, b4 b5 = tau; returns (matrix, eigenvalues, unit kernel).
    """
    im = math.sqrt(tau - sigma * sigma / 4)
    b4 = complex(sigma / 2, im)
    coeffs = [float(c) for c in _a_relation_coeffs()]

    def a_of(b):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * b + c
        return acc

    alpha = a_of(b4)
    q22 = (alpha * alpha.conjugate()).real
    q23 = 2 * (alpha * b4.conjugate()).real
    q24 = 2 * alpha.real
    q33 = tau
    q34 = sigma
    rows = [
        [q22, q23 / 2, q24 / 2],
        [q23 / 2, q33, q34 / 2],
        [q24 / 2, q34 / 2, 1.0],
    ]
    eigen, vectors = _jacobi_eigen(rows)
    k = min(range(3), key=lambda i: abs(eigen[i]))
    null = vectors[k]
    norm = math.sqrt(sum(x * x for x in null))
    null = [x / norm for x in null]
    return rows, eigen, null


def _jacobi_eigen(rows, sweeps=30):
    """Jacobi rotations for a small symmetric matrix: (eigenvalues, eigenrows)."""
    n = len(rows)
    a = [row[:] for row in rows]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(sweeps):
        off = max(
            ((i, j) for i in range(n) for j in range(i + 1, n)),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        p, q = off
        if abs(a[p][q]) < 1e-18:
            break
        theta = 0.5 * math.atan2(2 * a[p][q], a[q][q] - a[p][p])
        c, s = math.cos(theta), math.sin(theta)
        for k in range(n):
            apk, aqk = a[p][k], a[q][k]
            a[p][k] = c * apk - s * aqk
            a[q][k] = s * apk + c * aqk
        for k in range(n):
            akp, akq = a[k][p], a[k][q]
            a[k][p] = c * akp - s * akq
            a[k][q] = s * akp + c * akq
        for k in range(n):
            vpk, vqk = v[p][k], v[q][k]
            v[p][k] = c * vpk - s * vqk
            v[q][k] = s * vpk + c * vqk
    return [a[i][i] for i in range(n)], v


def f1_plane_identity_in_ideal(gb_ab):
    """f1 on the plane family vanishes identically, via ideal membership.

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
    key_poly = Poly.parse(reg, "b^2 - a - a^2")
    shape_ok = (
        groups.get((1, 1), Poly.zero(reg)).is_zero()
        and groups.get((2, 0), Poly.zero(reg)) == key_poly
        and groups.get((0, 2), Poly.zero(reg)) == -1 * key_poly
    )
    member = normal_form(key_poly.map_to(AB), gb_ab).is_zero()
    return shape_ok and member


def check_f1_on_plane(alpha, beta, gb_ab=None, tighten=None):
    """Does f1 vanish identically on the plane family given by (alpha, beta)?

    Accepts exact numbers or (lo, hi) enclosures.  The restriction of f1 is
    (mu2^2 - mu3^2)(alpha^2 + beta - beta^2): a sign-definite enclosure of
    the second factor settles the question; an enclosure straddling zero is
    decided by the exact ideal-membership certificate when the plane comes
    from the coefficient ideal (``gb_ab`` supplied), and otherwise raises.
    """
    alpha_iv = _to_interval(alpha)
    beta_iv = _to_interval(beta)
    key = alpha_iv * alpha_iv + beta_iv - beta_iv * beta_iv
    if key.is_positive() or key.is_negative():
        return False
    if key.lo == key.hi == 0:
        return True
    if gb_ab is not None:
        reg = AB
        key_poly = Poly.parse(reg, "b^2 - a - a^2")
        return normal_form(key_poly, gb_ab).is_zero()
    raise InconclusiveEnclosureError(
        "enclosure of alpha^2 + beta - beta^2 straddles zero; tighten it or"
        " supply the plane-coefficient ideal"
    )


def _to_interval(x):
    if isinstance(x, RatInterval):
        return x
    if isinstance(x, tuple):
        return RatInterval(Fraction(x[0]), Fraction(x[1]))
    if isinstance(x, float):
        return RatInterval(Fraction(x))
    return RatInterval(Fraction(x))


def _matches_up_to_sign(vec, target, tol):
    direct = max(abs(a - b) for a, b in zip(vec, target))
    flipped = max(abs(a + b) for a, b in zip(vec, target))
    return min(direct, flipped) < tol


# ---------------------------------------------------------------------------
# The annihilating lines and the Hermite count
# ---------------------------------------------------------------------------


def annihilating_lines(report, gb, f_mine, plane_data, eps):
    """Extract the mu1-linear coefficients, count and reconstruct the lines."""
    linear_members = [f_mine[i] for i in (1, 2, 3, 4, 6, 7, 8)]
    c_polys = []
    linear_ok = True
    for f in linear_members:
        groups = f.coefficients_in(["mu1"])
        if set(groups) - {(0,), (1,)}:
            linear_ok = False
            break
        c_polys.append(groups[(1,)].map_to(ANNI))
        c_polys.append(groups[(0,)].map_to(ANNI))
    want = [Poly.parse(ANNI, t) for t in targets.C_POLYS]
    report.check(
        "linear_coefficients",
        linear_ok
        and len(c_polys) == 14
        and all(c.primitive(_ORD) == w.primitive(_ORD) for c, w in zip(c_polys, want)),
        "the fourteen mu1-linear coefficients match the reference forms",
    )

    p1 = Poly.parse(ANNI, targets.P1_QUINTIC)
    gb_anni = buchberger(Ideal.of(*(c_polys + [p1])), GrevLex())
    report.artifacts["annihilator_gb"] = gb_anni
    mine = {p.primitive(gb_anni.order) for p in gb_anni.polys}
    want_basis = {
        Poly.parse(ANNI, t).primitive(gb_anni.order) for t in targets.ANNIHILATOR_BASIS
    }
    report.check(
        "annihilator_basis",
        mine == want_basis,
        "reduced six-element basis matches the reference forms",
    )

    sphere = Poly.parse(ANNI, "mu2^2 + mu3^2 + mu4^2 - 1")
    gb_sphere = buchberger(Ideal.of(*(list(gb_anni.polys) + [sphere])), GrevLex())
    report.artifacts["sphere_gb"] = gb_sphere
    qb = standard_monomials(gb_sphere)
    h = hermite_matrix(gb_sphere, qb)
    n_pos, n_neg, n_zero = inertia(h)
    signature = n_pos - n_neg
    rank = n_pos + n_neg
    report.check(
        "hermite_signature",
        qb.finite and signature == 20,
        f"signature {signature}, rank {rank}, quotient dimension {len(qb)}:"
        f" twenty real sphere points, ten annihilating lines",
    )

    lines = _reconstruct_lines(gb_anni.polys, eps)
    count_ok = 2 * len(lines) == signature
    report.check(
        "line_count",
        count_ok,
        f"{len(lines)} certified real lines, matching the signature",
    )

    table_ok, details = _match_table(lines, plane_data)
    report.check("table_of_lines", table_ok, details)


def _reconstruct_lines(anni_polys, eps):
    """Certified direction enclosures for the real annihilating lines.

    Lines with mu4 = 0 come from the binary-quintic slice; the rest are the
    affine solutions at mu4 = 1, solved from a triangular lex basis with
    certified back-substitution.
    """
    lines = []
    mu23 = VarRegistry(["mu2", "mu3"])

    # mu4 = 0 slice: a single binary quintic survives
    slice0 = []
    for p in anni_polys:
        q = p.subs({"mu4": Fraction(0)})
        if not q.is_zero():
            slice0.append(q.map_to(mu23))
    gcd_poly = slice0[0]
    for q in slice0[1:]:
        gcd_poly = _bivariate_gcd_binary(gcd_poly, q)
    t_reg = VarRegistry(["t"])
    dehom = Poly(
        t_reg,
        {
            (m[0],): c
            for m, c in gcd_poly.terms.items()
        },
    )
    # no degree drop: a pure mu2 power survives, so mu3 = 0 is not a line of
    # the slice and dehomogenising by mu3 loses nothing
    if dehom.total_degree() != gcd_poly.total_degree():
        raise IdealShapeError("dehomogenising the mu4 = 0 slice by mu3 drops its degree")
    for iv in sturm_isolate(coeffs_from_poly(dehom, "t")):
        iv.refine(Fraction(1, 10**18))
        lines.append(
            {
                "direction": (RatInterval(iv.lo, iv.hi), RatInterval(1), RatInterval(0)),
                "case": "mu4=0",
            }
        )

    # mu4 = 1 slice: zero-dimensional, triangular in lex mu2 > mu3
    slice1 = [p.subs({"mu4": Fraction(1)}).map_to(mu23) for p in anni_polys]
    gb1 = buchberger(Ideal.of(*slice1), lex(mu23))
    univariate = [p for p in gb1.polys if not p.uses("mu2")]
    if len(univariate) != 1:
        raise IdealShapeError("expected a single eliminant in mu3")
    h = univariate[0]
    linear = [p for p in gb1.polys if p.degree_in("mu2") == 1]
    if not linear:
        raise IdealShapeError("slice basis is not in solvable triangular form")
    shape = linear[0]
    groups = shape.coefficients_in(["mu2"])
    a_poly = coeffs_from_poly(groups[(1,)].subs({}), "mu3")
    b_poly = coeffs_from_poly(groups.get((0,), Poly.zero(mu23)), "mu3")
    h_coeffs = coeffs_from_poly(h, "mu3")
    common = poly_gcd(h_coeffs, a_poly)
    for iv in sturm_isolate(h_coeffs):
        # the refinement below ends only if a_poly is nonzero at the root
        if _vanishes_in(common, iv):
            raise IdealShapeError("the shape-lemma denominator vanishes at a root of the eliminant")
        iv.refine(Fraction(1, 10**18))
        window = RatInterval(iv.lo, iv.hi)
        denom = eval_interval(a_poly, window)
        while denom.contains(0):
            iv.refine(window.width() / 2**10)
            window = RatInterval(iv.lo, iv.hi)
            denom = eval_interval(a_poly, window)
        mu2_iv = -1 * eval_interval(b_poly, window) / denom
        lines.append(
            {
                "direction": (mu2_iv, window, RatInterval(1)),
                "case": None,
                "mu3_interval": iv,
                "slice_gb": gb1,
            }
        )
    return lines


def _vanishes_in(coeffs, iv):
    """Whether the polynomial has a root in the closed enclosure ``iv``."""
    sf = squarefree_part(coeffs)
    if len(sf) < 2:
        return False
    if eval_at(sf, iv.lo) == 0 or eval_at(sf, iv.hi) == 0:
        return True
    return iv.lo < iv.hi and SturmSequence(sf).count_open(iv.lo, iv.hi) > 0


def _bivariate_gcd_binary(p, q):
    """gcd of two binary forms in (mu2, mu3), via univariate dehomogenisation."""
    reg = p.registry
    t_reg = VarRegistry(["t"])

    def dehom(f):
        # f(mu2, mu3) -> f(t, 1) plus bookkeeping for the mu3-power content
        terms = {}
        for m, c in f.terms.items():
            terms[(m[0],)] = terms.get((m[0],), Fraction(0)) + c
        return Poly(t_reg, terms)

    a = coeffs_from_poly(dehom(p), "t")
    b = coeffs_from_poly(dehom(q), "t")
    g = poly_gcd(a, b)
    # rehomogenise to the common total degree of contributing factors
    deg = len(g) - 1
    terms = {}
    for k, c in enumerate(g):
        if c:
            terms[(k, deg - k)] = c
    return Poly(reg, terms)


def _match_table(lines, plane_data):
    """Normalise, classify, and compare the ten lines with the reference table."""
    if len(lines) != len(targets.TABLE_LINES):
        return False, f"expected {len(targets.TABLE_LINES)} lines, found {len(lines)}"

    # classification helpers from the plane-splitting data
    null_dir = plane_data["q_null_direction"]
    plane_ab = []
    for b_iv, a_iv in zip(plane_data["b_intervals"], plane_data["a_intervals"]):
        plane_ab.append((float(a_iv.midpoint()), float(b_iv.midpoint())))
    intersections = []
    for i in range(3):
        for j in range(i + 1, 3):
            n1 = (plane_ab[i][0], plane_ab[i][1], 1.0)
            n2 = (plane_ab[j][0], plane_ab[j][1], 1.0)
            cross = (
                n1[1] * n2[2] - n1[2] * n2[1],
                n1[2] * n2[0] - n1[0] * n2[2],
                n1[0] * n2[1] - n1[1] * n2[0],
            )
            norm = math.sqrt(sum(x * x for x in cross))
            intersections.append(tuple(x / norm for x in cross))

    rows = []
    for line in lines:
        d = line["direction"]
        norm_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        norm = norm_sq.sqrt()
        unit = tuple(x / norm for x in d)
        unit_f = tuple(float(x) for x in unit)
        disc_iv = d[1] * d[1] - 4 * d[0] * d[2] + 4 * d[2] * d[2]
        if disc_iv.is_positive():
            disc_sign = True
        elif disc_iv.is_negative():
            disc_sign = False
        else:
            return False, "discriminant enclosure is not sign-definite"
        mu1_values = []
        if disc_sign:
            disc_unit = unit[1] * unit[1] - 4 * unit[0] * unit[2] + 4 * unit[2] * unit[2]
            root = disc_unit.sqrt()
            for sign in (1, -1):
                mu1_values.append(float((unit[1] + sign * root) / 2))
        case = line["case"]
        if case is None:
            case = _classify(line, unit_f, null_dir, intersections)
            if case is None:
                return False, f"line {unit_f} could not be classified"
        rows.append({"unit": unit_f, "disc": disc_sign, "mu1": mu1_values, "case": case})

    # bijective matching against the reference rows, up to overall sign
    used = set()
    for row in rows:
        best = None
        for idx, ref in enumerate(targets.TABLE_LINES):
            if idx in used:
                continue
            for flip in (1, -1):
                dist = max(
                    abs(a - flip * b) for a, b in zip(row["unit"], ref["u"])
                )
                if dist < targets.NUMERIC_TOL:
                    best = (idx, flip)
                    break
            if best:
                break
        if not best:
            return False, f"no reference row within tolerance of {row['unit']}"
        idx, flip = best
        used.add(idx)
        ref = targets.TABLE_LINES[idx]
        if row["disc"] != ref["disc_positive"]:
            return False, f"discriminant sign mismatch on row {idx + 1}"
        if ref["mu1"]:
            got = sorted(row["mu1"])
            want = sorted(flip * x for x in ref["mu1"])
            if max(abs(a - b) for a, b in zip(got, want)) > targets.NUMERIC_TOL:
                return False, f"mu1 values mismatch on row {idx + 1}"
        ref_case = ref["case"]
        if ref_case == "null-line":
            ref_case_match = row["case"] == "null-line"
        else:
            ref_case_match = row["case"] == ref_case
        if not ref_case_match:
            return False, f"case mismatch on row {idx + 1}: {row['case']} vs {ref_case}"
    return True, "ten unit lines, discriminant signs, mu1 roots, and cases all match"


def _classify(line, unit_f, null_dir, intersections):
    """Label an affine line: equal pair, cofactor kernel, or plane crossing."""
    # exact mu2 = mu4 test: the constrained slice must vanish at this mu3 root
    gb1 = line["slice_gb"]
    iv = line["mu3_interval"]
    constrained = []
    for p in gb1.polys:
        q = p.subs({"mu2": Fraction(1)})
        if not q.is_zero():
            constrained.append(coeffs_from_poly(q, "mu3"))
    g = constrained[0]
    for other in constrained[1:]:
        g = poly_gcd(g, other)
    if len(g) > 1 and any(
        root.lo <= iv.hi and iv.lo <= root.hi for root in sturm_isolate(g)
    ):
        window = RatInterval(iv.lo, iv.hi)
        if eval_interval(g, window).contains(0):
            return "mu2=mu4"
    if _matches_up_to_sign(unit_f, null_dir, 1e-6):
        return "null-line"
    for cand in intersections:
        if _matches_up_to_sign(unit_f, cand, 1e-6):
            return "intersection"
    return None


# ---------------------------------------------------------------------------
# Valid angles: projection onto (r, mu1, mu3) and the plane pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleAnalysis:
    """What the angle stage derives: its oracle checks in report order, the
    projection basis onto (r, mu1, mu3), the certified roots of g(r), and
    the angle of the true trapezoid (None unless it is proven unique)."""

    checks: tuple
    angle_projection_gb: GroebnerBasis
    roots: tuple
    true_theta2: float | None


def angle_analysis(comps, eps):
    """The angle stage, from the pipeline output alone; see :class:`AngleAnalysis`."""
    checks = []

    def check(name, ok, detail):
        checks.append(OracleCheck.of(name, ok, detail))

    ideal = Ideal.of(*([c.r_poly for c in comps] + [Poly.parse(R_REGISTRY, targets.P1_QUINTIC)]))
    gb_vt = eliminate(ideal, ["mu2", "mu4"], inner_names=["r", "mu1", "mu3"])
    reference = [p.map_to(R_REGISTRY) for p in targets.valid_theta_basis()]
    check(
        "angle_projection_ideal",
        gb_vt.same_ideal_as(reference),
        "projection ideal onto (r, mu1, mu3) matches the reference basis",
    )

    # the degree-ten angle polynomial, extracted by exact division
    g_mine = None
    divisor = Poly.parse(R_REGISTRY, "mu1^2") * Poly.parse(R_REGISTRY, "mu1 - mu3")
    for p in gb_vt.polys:
        q = p.try_divide(divisor, _ORD)
        if q is not None and not any(q.uses(n) for n in ("mu1", "mu2", "mu3", "mu4")):
            g_mine = q
            break
    g_ref = Poly.parse(R_REGISTRY, targets.G_OF_R)
    check(
        "angle_polynomial",
        g_mine is not None and g_mine.primitive(_ORD) == g_ref.primitive(_ORD),
        "mu1^2 (mu1 - mu3) g(r) appears in the projection basis",
    )
    g_coeffs = coeffs_from_poly(g_ref, "r")

    intervals = sturm_isolate(g_coeffs)
    for iv in intervals:
        iv.refine(eps)
    roots = []
    for iv in intervals:
        mid = float(iv.midpoint())
        roots.append(
            RootRecord(
                poly="g(r)",
                interval=(iv.lo, iv.hi),
                decimal=mid,
                theta2=angle_of_r(mid),
            )
        )
    r_mags = sorted({round(abs(r.decimal), 6) for r in roots})
    want_r = sorted(row["r"] for row in targets.ANGLE_TABLE)
    theta_mags = sorted({round(abs(r.theta2), 6) for r in roots})
    want_theta = sorted(row["theta2"] for row in targets.ANGLE_TABLE)
    check(
        "angle_roots",
        len(roots) == 6
        and all(abs(a - b) < targets.NUMERIC_TOL for a, b in zip(r_mags, want_r))
        and all(abs(a - b) < targets.NUMERIC_TOL for a, b in zip(theta_mags, want_theta)),
        f"six real radii {r_mags} with angles {theta_mags}",
    )

    check("plane_pairing", *_plane_pairing(comps, g_ref, intervals))

    chosen = true_trapezoid_roots(g_coeffs, intervals)
    if chosen is None:
        unique, detail = False, "a root of g(r) may lie at r = 0 or 3 r^2 = 1"
    else:
        true_angles = [roots[i].theta2 for i in chosen]
        # the paper prints theta2 to six digits
        unique = len(true_angles) == 1 and abs(true_angles[0] - 0.687197) < targets.NUMERIC_TOL
        detail = (
            f"theta2 = {true_angles[0]:.6f} is the only angle below 2*pi/3"
            if true_angles
            else "no angle below 2*pi/3"
        )
    check("unique_true_trapezoid", unique, detail)
    return AngleAnalysis(
        checks=tuple(checks),
        angle_projection_gb=gb_vt,
        roots=tuple(roots),
        true_theta2=true_angles[0] if unique else None,
    )


def true_trapezoid_roots(g_coeffs, intervals):
    """Indices of the roots of g whose angle lies in (0, 2*pi/3), decided
    exactly, or None when a root may sit on the boundary of that range.

    ``angle_of_r`` gives theta2 = 2 arccot r in (0, 2*pi/3) exactly when
    r > 0 and 3 r^2 > 1.  Once g(0) != 0 and gcd(g, 3 r^2 - 1) = 1 are
    proven, no root is 0 or +-1/sqrt(3), so bisecting a copy of each
    isolating interval ends with r, and for r > 0 also 3 r^2 - 1, of one
    sign on it.  The intervals passed in are left as they are.
    """
    boundary = [Fraction(-1), Fraction(0), Fraction(3)]
    if g_coeffs[0] == 0 or len(poly_gcd(g_coeffs, boundary)) > 1:
        return None
    chosen = []
    for i, iv in enumerate(intervals):
        iv = replace(iv)
        while True:
            if iv.hi < 0 or (iv.lo > 0 and 3 * iv.hi * iv.hi < 1):
                break
            if iv.lo > 0 and 3 * iv.lo * iv.lo > 1:
                chosen.append(i)
                break
            iv.refine(iv.width() / 2)
    return chosen


def _plane_pairing(comps, g_ref, g_intervals):
    """Exact pairing of the angle radii with the plane families.

    Writes the fourth pipeline polynomial as A(r) mu1 + B(r) mu2 + C(r) mu3.
    Resultant certificates prove that at every root of g the ratios B/A and
    C/A are exactly roots of the plane quintics, and ideal membership proves
    the other two pipeline polynomials vanish identically on the induced
    plane family; enclosure arithmetic then assigns each radius its plane.
    """
    groups = comps[2].r_poly.coefficients_in(["mu1", "mu2", "mu3", "mu4"])
    if set(groups) != {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}:
        return False, "unexpected structure in the fourth pipeline polynomial"
    A = groups[(1, 0, 0, 0)]
    B = groups[(0, 1, 0, 0)]
    C = groups[(0, 0, 1, 0)]

    g_c = coeffs_from_poly(g_ref, "r")
    a_c = coeffs_from_poly(A, "r")
    if len(poly_gcd(g_c, derivative(g_c))) > 1:
        return False, "the angle polynomial is not squarefree"
    if len(poly_gcd(g_c, a_c)) > 1:
        return False, "the mu1 coefficient shares a root with the angle polynomial"

    rb_reg = VarRegistry(["r", "b"])
    res_b = resultant(
        g_ref.map_to(rb_reg),
        A.map_to(rb_reg) * Poly.variable(rb_reg, "b") - B.map_to(rb_reg),
        "r",
    )
    quint_b = Poly.parse(rb_reg, targets.B_QUINTIC)
    ok_b = res_b.primitive(_ORD) == (quint_b * quint_b).primitive(_ORD)

    gba = eliminate(
        Ideal.of(*[Poly.parse(AB, t) for t in targets.REMAINDER_COEFFS]), ["b"]
    )
    a_quintic = gba.polys[0]
    ra_reg = VarRegistry(["r", "a"])
    res_a = resultant(
        g_ref.map_to(ra_reg),
        A.map_to(ra_reg) * Poly.variable(ra_reg, "a") - C.map_to(ra_reg),
        "r",
    )
    qa = a_quintic.map_to(ra_reg)
    ok_a = res_a.primitive(_ORD) == (qa * qa).primitive(_ORD)
    if not (ok_b and ok_a):
        return False, "resultant certificates failed"

    # membership: the first two pipeline polynomials vanish on the plane family
    big = VarRegistry(["r", "a", "b", "mu2", "mu3"])
    g_big = g_ref.map_to(big)
    t_star = [
        g_big,
        A.map_to(big) * Poly.variable(big, "b") - B.map_to(big),
        A.map_to(big) * Poly.variable(big, "a") - C.map_to(big),
    ]
    gb_t = buchberger(Ideal.of(*t_star), GrevLex())
    mu2 = Poly.variable(big, "mu2")
    mu3 = Poly.variable(big, "mu3")
    sub_mu1 = -1 * Poly.variable(big, "b") * mu2 - Poly.variable(big, "a") * mu3
    sub_mu4 = -1 * Poly.variable(big, "a") * mu2 - Poly.variable(big, "b") * mu3
    for comp in comps[:2]:
        image = _substitute_plane(comp.r_poly, big, sub_mu1, sub_mu4)
        for coefficient in image.coefficients_in(["mu2", "mu3"]).values():
            if not normal_form(coefficient, gb_t).is_zero():
                return False, f"component {comp.index} does not vanish on the family"

    # enclosure bijection: positive radii to plane labels
    a_int = [RatInterval(c) for c in a_c]
    b_int = [RatInterval(c) for c in coeffs_from_poly(B, "r")]
    c_int = [RatInterval(c) for c in coeffs_from_poly(C, "r")]
    assignments = {}
    for iv in g_intervals:
        if iv.midpoint() <= 0:
            continue
        window = RatInterval(iv.lo, iv.hi)
        a_val = eval_interval([c.midpoint() for c in a_int], window)
        b_val = eval_interval([c.midpoint() for c in b_int], window) / a_val
        matched = None
        for label, fam in targets.PLANE_FAMILIES.items():
            if b_val.contains(targets.fraction(fam["b"])) or abs(
                float(b_val.midpoint()) - fam["b"]
            ) < targets.NUMERIC_TOL:
                matched = label
        if matched is None:
            return False, f"no plane family matches b = {float(b_val.midpoint()):.6f}"
        c_val = eval_interval([c.midpoint() for c in c_int], window) / a_val
        fam = targets.PLANE_FAMILIES[matched]
        if abs(float(c_val.midpoint()) - fam["a"]) > targets.NUMERIC_TOL:
            return False, f"a-coefficient mismatch for family {matched}"
        assignments[round(float(iv.midpoint()), 6)] = matched
    want = {row["r"]: row["plane"] for row in targets.ANGLE_TABLE}
    for r_val, plane in want.items():
        key = min(assignments, key=lambda x: abs(x - r_val))
        if abs(key - r_val) > targets.NUMERIC_TOL or assignments[key] != plane:
            return False, f"radius {r_val} did not pair with plane {plane}"
    return True, "each radius pairs with its plane family, certified exactly"


def _substitute_plane(p, big, sub_mu1, sub_mu4):
    out = Poly.zero(big)
    names = p.registry.names
    for mono, coeff in p.terms.items():
        term = Poly.constant(big, coeff)
        for idx, e in enumerate(mono):
            if not e:
                continue
            name = names[idx]
            if name == "mu1":
                term = term * sub_mu1**e
            elif name == "mu4":
                term = term * sub_mu4**e
            else:
                term = term * Poly.variable(big, name, e)
        out = out + term
    return out

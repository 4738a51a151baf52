"""Acceptance criteria: the exit gate for the whole derivation chain.

Each test asserts one numbered criterion at its stated tolerance and prints
one pass line; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion output.
"""

import math
import random
from fractions import Fraction

import pytest

from vortexsym import targets
from vortexsym.groebner import Ideal, buchberger, eliminate
from vortexsym.ratpoly import GrevLex, Lex, Poly, VarRegistry
from vortexsym.realroots import (
    coeffs_from_poly,
    hermite_count,
    squarefree_part,
    sturm_isolate,
)
from vortexsym.trigvortex import (
    KITE,
    RECTANGLE,
    SQUARE,
    TRAPEZOID3,
    TRIG_REGISTRY,
    gradient_component,
    hessian,
)

from reference import (
    HALF_ANGLE_POINTS,
    buchberger_criterion,
    cos_table,
    gradient,
    gradient_rows,
    half_angle,
    weighted_gradient_sum,
)

TOL = targets.NUMERIC_TOL  # 1e-5 for published six-figure values


def _announce(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


def _status(report, name):
    return {c.name: c.status for c in report.oracle_checks}[name]


def test_criterion_01_example_smoke():
    """Lex, grevlex, and elimination bases of the plane/paraboloid system."""
    reg = VarRegistry(["x", "y", "z"])
    gens = [Poly.parse(reg, "x - y - z + 2"), Poly.parse(reg, "x^2 + y^2 - z")]
    expected = {"2 + x - y - z", "4 - 4*y + 2*y^2 - 5*z + 2*y*z + z^2"}

    for order in (Lex(), GrevLex()):
        gb = buchberger(Ideal.of(*gens), order)
        mine = {p.primitive() for p in gb.polys}
        want = {Poly.parse(reg, t).primitive() for t in expected}
        assert mine == want, f"basis mismatch under {order}"

    gb = eliminate(Ideal.of(*gens), ["z"])
    mine = {p.primitive() for p in gb.polys}
    want = {Poly.parse(reg, "-2 - x + x^2 + y + y^2").primitive()}
    assert mine == want
    _announce(1, "three textbook bases match up to scalar normalisation")


def test_criterion_02_kite_pipeline(kite_report):
    assert _status(kite_report, "pipeline_polynomials") == "pass"
    assert _status(kite_report, "elimination_basis") == "pass"
    assert kite_report.elimination_basis == ["mu2 - mu4"]
    # one scalar per polynomial, indepedently recomputed here
    comps = kite_report.artifacts["pipeline"]
    goals = targets.build_products(targets.R_REGISTRY, targets.KITE_PIPELINE)
    for comp, goal in zip(comps, goals):
        assert comp.r_poly.primitive() == goal.primitive()
    _announce(2, "kite pipeline reproduced; elimination over r is {mu2 - mu4}")


def test_criterion_03_rectangle(rectangle_report):
    gb = rectangle_report.artifacts["elimination"].gb
    mine = {p.primitive() for p in gb.polys}
    want = {
        Poly.parse(gb.registry, t).primitive()
        for t in targets.RECTANGLE_ELIMINATION
    }
    assert mine == want
    # On each branch every residual is one constant times cot(theta2), or
    # times cos(2 theta2) csc(theta2): exact ratios at fixed rational r, of
    # the program's component and of the gradient from the angles alone.
    m1, m2 = Fraction(9, 10), Fraction(17, 10)
    mu1 = Poly.variable(TRIG_REGISTRY, "mu1")
    mu2 = Poly.variable(TRIG_REGISTRY, "mu2")
    branches = [
        ({"mu3": mu1, "mu4": mu2}, (m1, m2, m1, m2), lambda c, s: c / s),
        ({"mu3": -1 * mu1, "mu4": -1 * mu2}, (m1, m2, -m1, -m2), lambda c, s: (2 * c * c - 1) / s),
    ]
    for substitution, mus, target in branches:
        comps = [gradient_component(i, RECTANGLE) for i in (2, 3, 4)]
        nums = [comp.num.subs(substitution) for comp in comps]
        ratios = [set() for _ in comps]
        for r in HALF_ANGLE_POINTS:
            rows = gradient_rows("rectangle", r)
            c, s = half_angle(r)
            if rows is None or c == 0:  # a collision, or a zero of cot(theta2)
                continue
            point = {"s": s, "c": c, "mu1": m1, "mu2": m2, "mu3": mus[2], "mu4": mus[3]}
            for comp, num, row, seen in zip(comps, nums, rows, ratios):
                value = num.evaluate(point) / comp.den.evaluate(point)
                assert value == sum(w * m for w, m in zip(row, mus))
                seen.add(value / target(c, s))
        assert all(len(seen) == 1 and 0 not in seen for seen in ratios), ratios
    _announce(3, "rectangle basis and both branch residuals verified (exact, 22 rational r)")


def test_criterion_04_trapezoid_ideal_equality(trapezoid_report):
    gb = trapezoid_report.artifacts["elimination_ideal"].gb
    f_ref = targets.f_basis()
    for f in f_ref:
        assert gb.contains(f), "a reference element fails to reduce to zero"
    other = buchberger(Ideal.of(*f_ref), gb.order)
    for p in gb.polys:
        assert other.normal_form(p).is_zero(), "converse membership fails"
    _announce(4, "trapezoid elimination ideal equals the nine-element reference")


def test_criterion_05_plane_division(trapezoid_report):
    assert _status(trapezoid_report, "parametric_remainder") == "pass"
    gb_ab = trapezoid_report.artifacts["plane_factorisation"].ab_gb
    quintic = Poly.parse(gb_ab.registry, targets.B_QUINTIC)
    assert any(
        p.primitive() == quintic.primitive() for p in gb_ab.polys
    )
    plane = trapezoid_report.artifacts["plane_factorisation"]
    b_vals = sorted(float(iv.midpoint()) for iv in plane.b_intervals)
    a_vals = [float(iv.midpoint()) for iv in plane.a_intervals]
    families = sorted(targets.PLANE_FAMILIES.values(), key=lambda fam: fam["b"])
    assert len(b_vals) == len(a_vals) == len(families)
    for got_b, got_a, fam in zip(b_vals, a_vals, families):
        assert abs(got_b - fam["b"]) < TOL
        assert abs(got_a - fam["a"]) < TOL
    _announce(
        5,
        "remainder coefficients exact; b-quintic in the basis; roots "
        f"{[round(b, 6) for b in b_vals]} and a-values {[round(a, 6) for a in a_vals]}",
    )


def test_criterion_06_quadratic_cofactor(trapezoid_report):
    assert _status(trapezoid_report, "cofactor_inertia") == "pass"
    plane = trapezoid_report.artifacts["plane_factorisation"]
    eigen = sorted((float(e) for e in plane.q_eigenvalues), reverse=True)
    for got, want in zip(eigen, targets.Q_EIGENVALUES):
        assert abs(got - want) < 1e-4
    null = [float(x) for x in plane.null_direction]
    direct = max(abs(a - b) for a, b in zip(null, targets.Q_NULL_DIRECTION))
    flipped = max(abs(a + b) for a, b in zip(null, targets.Q_NULL_DIRECTION))
    assert min(direct, flipped) < 1e-5
    _announce(6, "cofactor inertia (2,0,1) exact; eigenvalues and kernel match")


def test_criterion_07_annihilating_lines(trapezoid_report):
    assert _status(trapezoid_report, "linear_coefficients") == "pass"
    assert _status(trapezoid_report, "hermite_signature") == "pass"
    assert _status(trapezoid_report, "table_of_lines") == "pass"
    gb_sphere = trapezoid_report.artifacts["annihilating_lines"].sphere_gb
    from vortexsym.realroots import hermite_matrix, inertia

    n_pos, n_neg, _ = inertia(hermite_matrix(gb_sphere))
    assert n_pos - n_neg == 20
    _announce(7, "coefficients match; Hermite signature exactly 20; ten lines match")


def test_criterion_08_angles(trapezoid_report):
    assert _status(trapezoid_report, "angle_projection_ideal") == "pass"
    assert _status(trapezoid_report, "plane_pairing") == "pass"
    roots = trapezoid_report.roots
    assert len(roots) == 6
    got_r = sorted(abs(r.decimal) for r in roots)
    want_r = sorted([2.79493, 2.79493, 0.375563, 0.375563, 0.199167, 0.199167])
    for a, b in zip(got_r, want_r):
        assert abs(a - b) < TOL
    got_t = sorted(abs(r.theta2) for r in roots)
    want_t = sorted([0.687197, 0.687197, 2.42306, 2.42306, 2.74840, 2.74840])
    for a, b in zip(got_t, want_t):
        assert abs(a - b) < TOL
    for r in roots:
        assert abs(r.theta2 - math.atan2(2 * r.decimal, r.decimal**2 - 1)) < 1e-12
    _announce(8, "projection ideal, six radii, six angles, and pairings verified")


def test_criterion_09_square(square_report):
    assert square_report.conditions == ["mu1 - mu3", "mu2 - mu4"]
    assert _status(square_report, "eigenvalue_formulas_at_samples") == "pass"
    assert _status(square_report, "never_linearly_stable") == "pass"
    # the certificate, re-derived: 2 e1 + 2 e2 + e3 = 0 identically
    reg = VarRegistry(["m1", "m2"])
    e1 = Poly.parse(reg, "m1 - 3/2*m2")
    e2 = Poly.parse(reg, "-3/2*m1 + m2")
    e3 = Poly.parse(reg, "m1 + m2")
    assert (2 * e1 + 2 * e2 + e3).is_zero()
    _announce(9, "square conditions, sampled spectra, and infeasibility certificate")


def test_criterion_10_kite_window(kite_report):
    assert _status(kite_report, "special_angle_conditions") == "pass"
    window = kite_report.stability["special_angle"]["window"]
    assert abs(window["lower"]["decimal"] - (-0.335544)) < TOL
    assert abs(window["upper"]["decimal"] - (-1 / 3)) < TOL
    assert window["upper"]["exact"] == "-1/3"
    _announce(10, "theta2 = 2pi/3 forces mu1 = mu2 = mu4; window endpoints match")


class TestCriterion11Properties:
    def test_a_gradient_dependency(self):
        for scenario in (SQUARE, KITE, RECTANGLE, TRAPEZOID3):
            assert weighted_gradient_sum(scenario).is_zero()
        _announce(11, "(a) circulation-weighted gradient components sum to zero exactly")

    def test_b_hessian_properties(self):
        rng = random.Random(1105)
        checked = 0
        while checked < 20:
            thetas = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            gaps = [b - a for a, b in zip(thetas, thetas[1:])]
            gaps.append(thetas[0] + 2 * math.pi - thetas[3])
            if min(gaps) < 0.3:
                continue
            mus = tuple(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(4))
            h = hessian(cos_table(thetas), mus)
            for i in range(4):
                assert abs(sum(h[i])) <= 1e-12
                for j in range(4):
                    assert h[i][j] == h[j][i]
            step = 1e-5
            for j in range(4):
                up, dn = list(thetas), list(thetas)
                up[j] += step
                dn[j] -= step
                fd = [
                    (a - b) / (2 * step)
                    for a, b in zip(gradient(up, mus), gradient(dn, mus))
                ]
                for i in range(4):
                    assert abs(h[i][j] - fd[i]) < 1e-6 * max(1.0, abs(h[i][j]))
            checked += 1
        _announce(11, "(b) Hessian symmetric, annihilates rotations, matches differences")

    def test_c_spolynomial_checks(self, kite_report, rectangle_report, trapezoid_report):
        reg = VarRegistry(["x", "y", "z"])
        gens = [Poly.parse(reg, "x - y - z + 2"), Poly.parse(reg, "x^2 + y^2 - z")]
        bases = [
            buchberger(Ideal.of(*gens), Lex()),
            buchberger(Ideal.of(*gens), GrevLex()),
            kite_report.artifacts["elimination"].gb,
            rectangle_report.artifacts["elimination"].gb,
            trapezoid_report.artifacts["elimination_ideal"].gb,
            trapezoid_report.artifacts["plane_factorisation"].ab_gb,
            trapezoid_report.artifacts["annihilating_lines"].annihilator_gb,
            trapezoid_report.artifacts["annihilating_lines"].sphere_gb,
            trapezoid_report.artifacts["angle_analysis"].angle_projection_gb,
        ]
        for gb in bases:
            assert buchberger_criterion(gb), f"S-polynomial reduction failed for {gb!r}"
        _announce(11, f"(c) S-polynomial zero-reduction on {len(bases)} computed bases")

    def test_d_kite_parity(self):
        rng = random.Random(2718)
        from vortexsym.trigvortex import pipeline

        factor = pipeline(KITE)[2].r_poly.primitive()
        count = 0
        while count < 100:
            mu1 = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            mu2 = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            mu3 = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            if 0 in (mu1, mu2, mu3) or 2 * mu1 + mu2 == 0:
                continue
            sub = factor.subs({"mu1": mu1, "mu2": mu2, "mu3": mu3, "mu4": mu2})
            roots = sturm_isolate(coeffs_from_poly(sub, "r"))
            assert len(roots) % 2 == 0 and len(roots) <= 6
            count += 1
        _announce(11, "(d) kite configuration counts even and at most six, 100 samples")

    def test_e_hermite_equals_sturm(self):
        rng = random.Random(31415)
        reg = VarRegistry(["x"])
        done = 0
        while done < 20:
            deg = rng.randint(2, 6)
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
            coeffs.append(Fraction(rng.randint(1, 9)))
            sf = squarefree_part(coeffs)
            if len(sf) < 3:
                continue
            p = Poly(reg, {(i,): c for i, c in enumerate(sf)})
            real, cplx = hermite_count(Ideal.of(p))
            assert real == len(sturm_isolate(sf))
            assert real <= cplx == len(sf) - 1
            done += 1
        _announce(11, "(e) Hermite signature equals the Sturm count on 20 random ideals")

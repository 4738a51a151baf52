"""Scenario drivers: oracle outcomes, report structure, and property suites."""

import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from vortexsym import groebner, targets
from vortexsym.groebner import GroebnerBasis, Ideal, KernelStats, buchberger
from vortexsym.ratpoly import GrevLex, Poly, Sqrt2, VarRegistry
from vortexsym.realroots import RatInterval, coeffs_from_poly, poly_gcd, sturm_isolate
from vortexsym.scenarios import run_kite, run_rectangle, run_square, run_trapezoid
from vortexsym.scenarios import kite, rectangle, square, trapezoid
from vortexsym.scenarios.kite import count_configurations
from vortexsym.scenarios.rectangle import _branch_faults
from vortexsym.scenarios.report import DEFAULT_EPS, pipeline_check
from vortexsym.scenarios.trapezoid import (
    IdealShapeError,
    _classify,
    _equal_pairs,
    _match_table,
    _plane_pairing,
    _reconstruct_lines,
    _vanishes_in,
    f1_plane_identity_in_ideal,
    plane_factorisation,
    true_trapezoid_roots,
)
from vortexsym.trigvortex import (
    KITE,
    RECTANGLE,
    R_REGISTRY,
    SQUARE,
    TRIG_REGISTRY,
    TrigRational,
    hessian,
    pipeline,
    scenario_cos_table,
)

from reference import eval_at, reference_char_poly


def checks_by_name(report):
    return {c.name: c for c in report.oracle_checks}


class TestSquare:
    def test_all_oracles_pass(self, square_report):
        assert square_report.passed(), square_report.failures()

    def test_conditions(self, square_report):
        assert square_report.conditions == ["mu1 - mu3", "mu2 - mu4"]

    def test_never_stable_certificate_present(self, square_report):
        checks = checks_by_name(square_report)
        assert "never_linearly_stable" in checks
        assert square_report.stability["verdict"] == "never linearly stable"

    def test_uniform_eigencounts(self, square_report):
        counts = square_report.stability["eigencounts"]
        assert counts == {"positive": 1, "negative": 2, "zero": 1}
        assert sorted(square_report.stability["weighted_eigenvalues"]) == sorted(
            ["0/1", "-1/2", "-1/2", "2/1"]
        )

    def test_degenerate_sample(self):
        report = run_square(mus=(3, 2, 3, 2))
        assert report.passed()
        assert report.stability["eigencounts"]["zero"] == 2  # the 2:3 ratio

    def test_integer_sample_check_agrees_with_the_fraction_reference(self):
        # seeded integer (m1, m2), each formula and the formula plus m1 + 1:
        # the integer root test against Fraction Horner on the Fraction
        # characteristic polynomial of the Hessian built at the point
        rng = random.Random(29)
        msym = VarRegistry(["m1", "m2"])
        m1, m2 = Poly.variable(msym, "m1"), Poly.variable(msym, "m2")
        cos = scenario_cos_table(SQUARE)
        formulas = {
            False: ("0", "2*m1*m2", "-3/2*m1^2 + m1*m2", "m1*m2 - 3/2*m2^2"),
            True: ("0", "m1 - 3/2*m2", "-3/2*m1 + m2", "m1 + m2"),
        }
        seen = set()
        for weighted, texts in formulas.items():
            rows = hessian(cos, [m1, m2, m1, m2], weighted=weighted)
            for _ in range(12):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                point = [Fraction(x) for x in (a, b, a, b)]
                ref = reference_char_poly(hessian(cos, point, weighted=weighted))
                for text in texts:
                    for e in (Poly.parse(msym, text), Poly.parse(msym, text) + m1 + 1):
                        want = eval_at(ref, e.evaluate({"m1": a, "m2": b})) == 0
                        assert square._roots_at_samples(rows, [e], [(a, b)]) == want, (e, a, b)
                        seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1), (2, 3), (3, 0)])
    def test_a_flipped_hessian_entry_fails_the_sample_check(self, entry, monkeypatch):
        def flipped(*args, **kwargs):
            rows = hessian(*args, **kwargs)
            i, j = entry
            rows[i][j] = -rows[i][j]
            return rows

        monkeypatch.setattr(square, "hessian", flipped)
        checks = {c.name: c.status for c in square.symbolic_spectra().checks}
        assert checks["eigenvalue_formulas_at_samples"] == "fail"

    def test_document_shape(self, square_report):
        doc = square_report.to_document()
        assert set(doc) == {
            "scenario",
            "pipeline_polynomials",
            "elimination_basis",
            "conditions",
            "roots",
            "stability",
            "oracle_checks",
        }


class TestKite:
    def test_all_oracles_pass(self, kite_report):
        assert kite_report.passed(), kite_report.failures()

    def test_elimination_is_equal_offaxis_pair(self, kite_report):
        assert kite_report.elimination_basis == ["mu2 - mu4"]

    def test_uniform_circulations_give_six_kites(self, kite_report):
        assert len(kite_report.roots) == 6
        angles = sorted(round(abs(r.theta2), 6) for r in kite_report.roots)
        expected = sorted(
            round(x, 6)
            for x in (math.pi / 3, math.pi / 2, 2 * math.pi / 3) * 2
        )
        assert angles == expected

    def test_the_cached_pipeline_cannot_be_changed_in_place(self):
        terms = run_kite().artifacts["pipeline"][2].r_poly.terms
        with pytest.raises(AttributeError):
            terms.clear()
        with pytest.raises(TypeError):
            terms[next(iter(terms))] = Fraction(0)
        report = run_kite()
        assert report.passed(), report.failures()

    def test_window_endpoints(self, kite_report):
        window = kite_report.stability["special_angle"]["window"]
        assert abs(window["lower"]["decimal"] - (-0.335544)) < 1e-5
        assert window["upper"]["exact"] == "-1/3"
        assert window["lower"]["included"] and not window["upper"]["included"]

    def test_stability_window_without_a_stable_gap_is_none(self):
        treg = VarRegistry(["t"])
        lam2 = Poly.parse(treg, "t")
        # S < 0 everywhere, so the quadratic pair is never positive
        assert kite._stability_window(lam2, Poly.parse(treg, "-1"), Poly.parse(treg, "t^2 + 1")) is None
        # no boundary root at all
        one = Poly.parse(treg, "1")
        assert kite._stability_window(one, -one, one) is None

    def test_inexact_upper_end_fails_its_check(self, monkeypatch):
        # p = 1/8 - t^2 gives the gap (-1/sqrt(8), 1/sqrt(8)), whose upper
        # end is irrational and not -1/3
        treg = VarRegistry(["t"])
        one = Poly.parse(treg, "1")
        window = kite._stability_window(one, one, Poly.parse(treg, "1/8 - t^2"))
        assert window.upper_exact is None
        monkeypatch.setattr(kite, "_stability_window", lambda *args: window)
        special = kite.special_angle_analysis(pipeline(KITE))
        check = {c.name: c for c in special.checks}["stability_window"]
        assert check.status == "fail"
        assert "expected mu1/mu3 in [-0.335544, -1/3)" in check.detail
        assert "derived lower end -0.353553" in check.detail
        upper = window.upper
        assert f"[{upper.lo.numerator}/{upper.lo.denominator}," in check.detail
        assert special.window is None

    def test_rational_window_ends_are_found_exactly(self):
        # p = 1/25 - t^2 gives the gap (-1/5, 1/5); neither end is a
        # bisection point of the isolation, and neither is -1/3
        treg = VarRegistry(["t"])
        one = Poly.parse(treg, "1")
        window = kite._stability_window(one, one, Poly.parse(treg, "1/25 - t^2"))
        assert not window.lower.exact and not window.upper.exact
        assert window.upper_exact == Fraction(1, 5)
        assert window.lower.contains(Fraction(-1, 5))
        assert not window.lower_included and not window.upper_included

    def test_endpoint_inclusion_is_decided_exactly(self):
        # lam2 = S = 1 and P = (1 + t)/4: all three eigenvalues are positive
        # on (-1, 0); at t = -1 the pair lam^2 - lam + P has a zero root, at
        # t = 0 it is the double root 1/2, so the window is (-1, 0]
        treg = VarRegistry(["t"])
        one = Poly.parse(treg, "1")
        window = kite._stability_window(one, one, Poly.parse(treg, "1/4 + 1/4*t"))
        assert window.unique
        assert window.lower.contains(-1)
        assert window.upper_exact == 0
        assert not window.lower_included
        assert window.upper_included

    def test_missing_stability_window_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(kite, "_stability_window", lambda *args: None)
        special = kite.special_angle_analysis(pipeline(KITE))
        check = {c.name: c for c in special.checks}["stability_window"]
        assert check.status == "fail"
        assert "expected mu1/mu3 in [-0.335544, -1/3)" in check.detail
        assert "derived no bounded stable gap" in check.detail
        assert special.window is None

    def test_special_angle_conditions_come_from_the_derived_gradient(self):
        # the rectangle's components give another gradient at 2*pi/3, which
        # forces every circulation to 0, not mu1 = mu2 = mu4
        checks = {c.name: c for c in kite.special_angle_analysis(pipeline(RECTANGLE)).checks}
        assert checks["special_angle_gradient"].status == "fail"
        assert checks["special_angle_conditions"].status == "fail"

    def test_special_angle_conditions_fail_on_a_vanishing_gradient(self, monkeypatch):
        # every s-linear part zero: no ideal to take, and the check fails
        zero = TrigRational(Poly.zero(TRIG_REGISTRY))
        comps = [dataclasses.replace(c, trig=zero) for c in pipeline(KITE)]
        monkeypatch.setattr(kite, "gradient_component", lambda i, scenario: zero)
        checks = {c.name: c for c in kite.special_angle_analysis(comps).checks}
        assert checks["special_angle_conditions"].status == "fail"

    def test_requires_matching_pair(self):
        with pytest.raises(ValueError):
            run_kite(mus=(1, 2, 1, 3))
        with pytest.raises(ValueError):
            run_kite(mus=(1, 0, 1, 0))

    def test_root_count_parity_over_random_circulations(self):
        # the configuration count is even and at most six, across many samples
        rng = random.Random(20240810)
        comps = pipeline(KITE)
        factor = comps[2].r_poly.primitive()
        for _ in range(100):
            mu1 = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            mu2 = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            mu3 = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            if 0 in (mu1, mu2, mu3) or 2 * mu1 + mu2 == 0:
                continue
            roots = count_configurations(factor, (mu1, mu2, mu3, mu2))
            assert len(roots) % 2 == 0
            assert len(roots) <= 6


class TestRectangle:
    def test_all_oracles_pass(self, rectangle_report):
        assert rectangle_report.passed(), rectangle_report.failures()

    def test_square_and_diagonal_angles(self, rectangle_report):
        angles = sorted(round(r.theta2 % (2 * math.pi), 6) for r in rectangle_report.roots)
        expected = sorted(
            round(x, 6)
            for x in (
                math.pi / 2,
                3 * math.pi / 2,
                math.pi / 4,
                3 * math.pi / 4,
                5 * math.pi / 4,
                7 * math.pi / 4,
            )
        )
        assert angles == expected

    def test_instability_verdict(self, rectangle_report):
        assert "never" in rectangle_report.stability["verdict"]

    def test_off_branch_circulations_are_named(self, rectangle_report):
        off = run_rectangle(mus=(1, 2, 3, 4))
        assert off.passed(), off.failures()
        assert "violate mu3 = -mu1, mu4 = -mu2" in off.stability["note"]
        on = run_rectangle(mus=(Fraction(2, 3), Fraction(-5, 4), Fraction(-2, 3), Fraction(5, 4)))
        assert on.passed(), on.failures()
        assert "note" not in on.stability and "note" not in rectangle_report.stability
        with pytest.raises(ValueError):
            run_rectangle(mus=(1, 2))

    def test_simple_zero_agrees_with_the_reference_char_poly(self):
        # H has zero row and column sums, so all its cofactors are equal and
        # the lambda-coefficient of det(lambda I - H) is -4 C_11, with C_11
        # the closed form of the minor; the zero is simple exactly when that
        # coefficient is nonzero.  With m1 or m2 zero, two vortices carry no
        # circulation and the zero is not simple.
        monomial, (a, b, c) = targets.RECTANGLE_DIAGONAL_MINOR
        assert monomial == "mu1^2*mu2^2"
        derived = rectangle._diagonal_forms()[1]
        rng = random.Random(1296)
        points = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
            for _ in range(40)
        ]
        points += [(Fraction(3), Fraction(0)), (Fraction(0), Fraction(-2, 3))]
        verdicts = set()
        for m1, m2 in points:
            if m1 == m2 == 0:
                continue
            h = hessian(rectangle._DIAGONAL_COSINES, [m1, m2, -m1, -m2])
            c0, c1 = reference_char_poly(h)[:2]
            minor = m1 * m1 * m2 * m2 * Sqrt2(a * m1 * m1 + c * m2 * m2, b * m1 * m2)
            assert c0 == 0 and c1 == -4 * minor
            at = {"s": 0, "c": 0, "mu1": m1, "mu2": m2, "mu3": 0, "mu4": 0}
            assert Sqrt2(derived.a.evaluate(at), derived.b.evaluate(at)) == minor
            simple = m1 * m2 != 0
            assert simple == (c1 != 0)
            verdicts.add(simple)
        assert verdicts == {True, False}

    def test_oracle_checks_do_not_depend_on_the_circulations(self, rectangle_report):
        points = [
            (1, 2, -1, -2),
            (Fraction(2, 3), Fraction(-5, 4), Fraction(-2, 3), Fraction(5, 4)),
            (1, 2, 3, 4),
            (Fraction(-7, 2), 1, Fraction(1, 9), 5),
        ]
        for mus in points:
            assert run_rectangle(mus=mus).oracle_checks == rectangle_report.oracle_checks

    def test_patched_closed_form_fails_with_both_forms(self, monkeypatch):
        monkeypatch.setattr(
            targets, "RECTANGLE_DIAGONAL_MINOR", ("mu1^2*mu2^2", (6, Fraction(25, 4), 7))
        )
        (check,) = rectangle.diagonal_instability().checks
        assert check.status == "fail"
        expected, derived = check.detail.split("; derived: ")
        assert expected.startswith("expected: at mu = (mu1, mu2, -mu1, -mu2)")
        assert "mu1^2*mu2^2*(6*mu1^2 + 25/4*sqrt(2)*mu1*mu2 + 7*mu2^2)" in expected
        assert derived == (
            "trace Sqrt2(a=0, b=0) and minor"
            " Sqrt2(a=6*mu1^4*mu2^2 + 6*mu1^2*mu2^4, b=25/4*mu1^3*mu2^3)"
        )
        assert [c.name for c in run_rectangle().failures()] == ["diagonal_instability"]

    def test_branch_and_basis_failures_show_expected_and_derived(self, monkeypatch):
        # the kite's components are no multiples of either branch target, and
        # eliminating r from them gives another basis
        comps = pipeline(KITE)
        elim = {c.name: c.detail for c in rectangle.rectangle_elimination(comps).checks}
        assert elim["elimination_basis"] == (
            "expected: projection is {mu2 mu3 - mu1 mu4, mu1 mu2 - mu3 mu4, mu1^2 - mu3^2};"
            " derived: {mu2 - mu4}"
        )
        details = {c.name: c.detail for c in rectangle.branch_angles(comps).checks}
        assert details["equal_pairs_residual"] == (
            "expected: components reduce to multiples of cot(theta2); zeros at pi/2,"
            " 3*pi/2; derived: components [1, 3] are not multiples"
        )
        assert details["opposite_pairs_residual_exact"].endswith(
            "; derived: components [1, 2, 3] are not multiples"
        )
        # the rectangle's own components with a Sturm count that misses roots
        monkeypatch.setattr(rectangle, "sturm_isolate", lambda coeffs: [])
        angles = {c.name: c for c in rectangle.branch_angles(pipeline(RECTANGLE)).checks}
        assert [n for n, c in angles.items() if c.status == "fail"] == [
            "equal_pairs_only_square",
            "opposite_pairs_diagonal_angles",
        ]
        assert angles["equal_pairs_only_square"].detail == (
            "expected: equal pairs force theta2 = +-pi/2: the square;"
            " derived: 0 real roots, not 2"
        )
        assert angles["opposite_pairs_diagonal_angles"].detail.endswith(
            "; derived: 0 real roots, not 4"
        )

    def test_residuals_fail_when_every_circulation_vanishes(self):
        # every component is then 0, a multiple of any target but with no
        # zeros of its own: the quotients exist and all are zero
        comps = pipeline(RECTANGLE)
        zero = {name: Fraction(0) for name in ("mu1", "mu2", "mu3", "mu4")}
        for target in targets.RECTANGLE_BRANCHES:
            faults = _branch_faults(comps, zero, Poly.parse(R_REGISTRY, target))
            assert faults == (None, "components [1, 2, 3] reduce to 0")

    def test_pipeline_failure_names_the_differing_components(self):
        passing = "three reduced polynomials match the reference forms up to scalars"
        (check,) = pipeline_check(pipeline(KITE), targets.RECTANGLE_PIPELINE)
        assert check.status == "fail"
        assert check.detail == (
            f"expected: {passing}; derived: components [1, 2, 3] are not multiples"
            " of their references"
        )
        comps = list(pipeline(RECTANGLE))
        comps[1] = dataclasses.replace(comps[1], r_poly=comps[1].r_poly * 2 + comps[0].r_poly)
        (check,) = pipeline_check(comps, targets.RECTANGLE_PIPELINE)
        assert check.detail.endswith(
            "; derived: components [2] are not multiples of their references"
        )
        (check,) = pipeline_check(pipeline(RECTANGLE), targets.RECTANGLE_PIPELINE)
        assert (check.status, check.detail) == ("pass", passing)

    def test_branches_are_read_from_the_pipeline_polynomials(self, monkeypatch):
        # the trig forms of the components are not read: without them every
        # branch check still passes
        comps = [dataclasses.replace(c, trig=None) for c in pipeline(RECTANGLE)]
        checks = rectangle.branch_angles(comps).checks
        assert all(c.status == "pass" for c in checks), checks
        # a patched branch target fails its exact residual with the components named
        monkeypatch.setattr(targets, "RECTANGLE_BRANCHES", ("r^2 - 1", "r^4 - 6*r^2 + 1"))
        details = {c.name: c.detail for c in rectangle.branch_angles(comps).checks}
        assert details["equal_pairs_residual_exact"] == (
            "expected: exact: each pipeline polynomial is an r-free multiple of r^2 - 1;"
            " derived: components [1, 2, 3] are not multiples"
        )

    def test_every_check_passes_at_a_coarser_width(self):
        # the angle checks decide on the branch targets, not on the width of
        # the reported enclosures
        report = run_rectangle(eps=Fraction(1, 10**8))
        assert report.passed(), report.failures()
        assert all(0 < r.width < 1e-8 for r in report.roots[2:])


class TestTrapezoid:
    def test_all_oracles_pass(self, trapezoid_report):
        assert trapezoid_report.passed(), trapezoid_report.failures()

    def test_expected_checks_present(self, trapezoid_report):
        names = set(checks_by_name(trapezoid_report))
        assert {
            "pipeline_polynomials",
            "elimination_basis_exact",
            "elimination_ideal_equality",
            "f6_factorisation",
            "parametric_remainder",
            "ab_ideal_basis",
            "b_quintic_roots",
            "a_values",
            "quintic_full_split",
            "cofactor_inertia",
            "cofactor_numerics",
            "linear_coefficients",
            "annihilator_basis",
            "hermite_signature",
            "line_count",
            "table_of_lines",
            "angle_projection_ideal",
            "angle_polynomial",
            "angle_roots",
            "plane_pairing",
            "unique_true_trapezoid",
        } <= names

    def test_nine_basis_elements(self, trapezoid_report):
        assert len(trapezoid_report.elimination_basis) == 9

    def test_six_angle_roots_with_thetas(self, trapezoid_report):
        assert len(trapezoid_report.roots) == 6
        for r in trapezoid_report.roots:
            assert r.width < 1e-8
            assert abs(r.theta2 - math.atan2(2 * r.decimal, r.decimal**2 - 1)) < 1e-12

    def test_true_trapezoid_angle(self, trapezoid_report):
        assert abs(trapezoid_report.stability["true_trapezoid_theta2"] - 0.687197) < 1e-5

    def test_true_trapezoid_roots_are_decided_exactly(self):
        # lead * r^2 - 1 has its positive root 1/sqrt(lead), within 1e-31 of
        # 1/sqrt(3): above it for lead = 3 - delta (theta2 < 2*pi/3), below
        # it for lead = 3 + delta.  Neither a float nor a 1e-9 enclosure
        # tells the two apart; the exact test does.
        delta = Fraction(1, 10**30)
        for lead, below_two_thirds_pi in ((3 - delta, True), (3 + delta, False)):
            coeffs = [Fraction(-1), Fraction(0), lead]
            intervals = [iv.refine(Fraction(1, 10**9)) for iv in sturm_isolate(coeffs)]
            before = [(iv.lo, iv.hi) for iv in intervals]
            positive = [i for i, iv in enumerate(intervals) if iv.lo > 0]
            assert len(positive) == 1
            assert abs(float(intervals[positive[0]].midpoint()) - 1 / math.sqrt(3)) < 1e-9
            chosen = true_trapezoid_roots(coeffs, intervals)
            assert chosen == (positive if below_two_thirds_pi else [])
            assert [(iv.lo, iv.hi) for iv in intervals] == before

    def test_true_trapezoid_roots_refuse_a_root_on_the_boundary(self):
        # g = 3r^2 - 1, g = (3r^2 - 1)(3r + 2) and g(0) = 0
        for coeffs in ([-1, 0, 3], [-2, -3, 6, 9], [0, 1, 1]):
            coeffs = [Fraction(c) for c in coeffs]
            assert true_trapezoid_roots(coeffs, sturm_isolate(coeffs)) is None

    def test_elimination_kernel_counts(self, trapezoid_report):
        # Pinned so that a change to S-pair selection or to the criteria
        # shows up here.  The r elimination runs deflated: the ideal is even
        # in r, so the kernel sees r^2 as r.
        stages = trapezoid_report.artifacts
        counts = {
            "elimination_gb": stages["elimination_ideal"].gb.stats,
            "angle_projection_gb": stages["angle_analysis"].angle_projection_gb.stats,
        }
        assert counts == {
            "elimination_gb": KernelStats(
                pairs_created=208, pairs_reduced=173, zero_reductions=113
            ),
            "angle_projection_gb": KernelStats(
                pairs_created=83, pairs_reduced=77, zero_reductions=44
            ),
        }

    def test_shape_denominator_vanishing_at_a_root_is_rejected(self):
        # At mu4 = 1 the lex basis is {mu3^2 - mu3, mu2*mu3, mu2^2 - 3*mu2 -
        # 2*mu3 + 2}: the points (0, 1), (1, 0), (2, 0), two of them over
        # mu3 = 0, where the mu2-linear element's coefficient mu3 vanishes.
        slice_polys = [
            Poly.parse(targets.ANNI_REGISTRY, t)
            for t in ("mu3^2 - mu3*mu4", "mu2*mu3", "mu2^2 - 3*mu2*mu4 - 2*mu3*mu4 + 2*mu4^2")
        ]
        with pytest.raises(IdealShapeError):
            _reconstruct_lines(slice_polys)

    def test_mu4_slice_with_two_forms_on_mu3_zero_is_rejected(self):
        # Both forms survive at mu4 = 0 and both carry the factor mu3, so the
        # line (1, 0, 0) lies on the slice; dehomogenising by mu3 would lose it.
        common = Poly.parse(targets.ANNI_REGISTRY, "mu3*mu2 - mu3^2")
        forms = [
            common * Poly.parse(targets.ANNI_REGISTRY, t) for t in ("mu2 + 2*mu3", "mu2 - 5*mu3")
        ]
        with pytest.raises(IdealShapeError, match="drops its degree"):
            _reconstruct_lines(forms)

    @pytest.mark.parametrize(
        "a_roots, shared",
        [
            (("sqrt2", "-sqrt2", Fraction(-5)), {"sqrt2", "-sqrt2"}),
            ((Fraction(0), Fraction(0), Fraction(-3), Fraction(7)), {Fraction(0), Fraction(-3)}),
            ((Fraction(7), Fraction(1, 2)), set()),
        ],
        ids=["irrational", "rational", "none"],
    )
    def test_vanishes_in_matches_the_roots_of_the_divisor(self, a_roots, shared):
        # h = (mu3^2 - 2) mu3 (mu3 + 3) and a divisor gcd(h, a); each
        # isolating interval of h, at three widths, holds one root of h, which
        # the exact comparisons below find, and the divisor vanishes in the
        # interval exactly when that root is one a shares with h.  The root 0
        # is isolated as a point, the others in intervals.
        h_roots = ("sqrt2", "-sqrt2", Fraction(0), Fraction(-3))
        h = _from_roots(h_roots)
        common = poly_gcd(h, _from_roots(a_roots))
        intervals = sturm_isolate(h)
        assert [iv.exact for iv in intervals] == [False, False, True, False]
        seen = set()
        for iv in intervals:
            for width in (None, Fraction(1, 10), Fraction(1, 10**12)):
                enclosure = iv if width is None else iv.refine(width)
                (root,) = [r for r in h_roots if _root_in(r, enclosure)]
                seen.add(root)
                assert _vanishes_in(common, enclosure) == (root in shared), (root, enclosure)
        assert seen == set(h_roots)

    def test_classify_rejects_a_line_moved_off_its_case(self, trapezoid_report):
        # the three intersection lines and the null line each lose their
        # label when mu2 moves by 1e-12, a shift that no float comparison
        # at tolerance 1e-6 on the unit vector can see
        plane = trapezoid_report.artifacts["plane_factorisation"]
        lines = trapezoid_report.artifacts["annihilating_lines"].lines
        equal_pairs = _equal_pairs(lines[-1].slice_gb)
        labelled = [
            (line, _classify(line, plane, equal_pairs)) for line in lines if line.case is None
        ]
        moved = [line for line, case in labelled if case in ("null-line", "intersection")]
        assert sorted(case for _, case in labelled if case != "mu2=mu4") == [
            "intersection", "intersection", "intersection", "null-line"
        ]
        shift = Fraction(1, 10**12)
        for line in moved:
            d = line.direction
            off = dataclasses.replace(line, direction=(d[0] + shift, d[1], d[2]))
            assert _classify(off, plane, equal_pairs) is None

    def test_cofactor_enclosures(self, trapezoid_report):
        plane = trapezoid_report.artifacts["plane_factorisation"]
        null = plane.null_direction
        assert all(isinstance(x, RatInterval) for x in plane.q_eigenvalues + null)
        assert null[0].is_positive()
        for row in plane.q_matrix:
            assert sum(q * x for q, x in zip(row, null)).contains(0)
        assert plane.q_eigenvalues[-1].lo == plane.q_eigenvalues[-1].hi == 0
        assert plane.q_eigenvalues[1].is_positive()


TRAPEZOID_STAGES = ("elimination_ideal", "plane_factorisation", "annihilating_lines", "angle_analysis")


def _frozen(result):
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.checks = ()
    return True


class TestReferenceTexts:
    def test_a_second_op_parses_no_text(self, monkeypatch):
        # the reference texts are parsed on first use, and every later
        # driver call shares those polynomials
        mus = (Fraction(2, 3), Fraction(-5, 4), Fraction(1, 7), Fraction(-5, 4))
        runs = (run_square, run_kite, run_rectangle)
        first = [run(mus=mus).to_document() for run in runs]
        shared = targets.build_products(R_REGISTRY, targets.KITE_PIPELINE)
        parse = Poly.parse.__func__
        texts = []

        def counted(cls, registry, text):
            texts.append(text)
            return parse(cls, registry, text)

        monkeypatch.setattr(Poly, "parse", classmethod(counted))
        assert [run(mus=mus).to_document() for run in runs] == first
        assert texts == []
        assert targets.build_products(R_REGISTRY, targets.KITE_PIPELINE) is shared

    def test_a_changed_reference_text_changes_the_next_report(self, monkeypatch):
        assert run_kite().passed()  # every kite text is parsed by now
        entries = list(targets.KITE_PIPELINE)
        entries[1] = (1, ("mu2 - mu4", "-1 + 2*r^2"))
        monkeypatch.setattr(targets, "KITE_PIPELINE", tuple(entries))
        monkeypatch.setattr(
            targets, "KITE_CONFIG_FACTOR", targets.KITE_CONFIG_FACTOR.replace("15*mu2", "16*mu2")
        )
        failed = {c.name for c in run_kite().failures()}
        assert failed == {"pipeline_polynomials", "configuration_factor"}
        monkeypatch.undo()
        assert run_kite().passed()


class TestStages:
    """Each stage is a pure function whose frozen result carries its checks;
    the drivers only append them."""

    def test_trapezoid_report_is_its_stages_checks_in_order(self, trapezoid_report):
        stages = [trapezoid_report.artifacts[name] for name in TRAPEZOID_STAGES]
        assert trapezoid_report.oracle_checks == [c for stage in stages for c in stage.checks]

    def test_plane_factorisation_matches_the_report(self, trapezoid_report):
        plane = plane_factorisation()
        assert _frozen(plane)
        names = {c.name for c in plane.checks}
        assert len(names) == len(plane.checks) == 9
        assert list(plane.checks) == [
            c for c in trapezoid_report.oracle_checks if c.name in names
        ]

    def test_special_angle_analysis_matches_the_report(self, kite_report):
        special = kite.special_angle_analysis(pipeline(KITE))
        assert _frozen(special)
        assert [c.name for c in special.checks] == [
            "special_angle_gradient",
            "special_angle_conditions",
            "special_angle_weighted_spectrum",
            "stability_window",
        ]
        assert list(special.checks) == kite_report.oracle_checks[-4:]
        assert kite.stability(special, DEFAULT_EPS) == kite_report.stability

    def test_trapezoid_stage_results_survive_pickling(self, trapezoid_report):
        # the stages must stay forkable: their results cross a pipe pickled
        for name in TRAPEZOID_STAGES:
            stage = trapezoid_report.artifacts[name]
            assert _frozen(stage)
            copy = pickle.loads(pickle.dumps(stage, pickle.HIGHEST_PROTOCOL))
            assert type(copy) is type(stage)
            assert copy.checks == stage.checks

    def test_table_of_lines_failures_show_expected_and_derived(
        self, trapezoid_report, monkeypatch
    ):
        lines = trapezoid_report.artifacts["annihilating_lines"].lines
        plane = trapezoid_report.artifacts["plane_factorisation"]
        assert _match_table(lines, plane)[0]
        rows = list(targets.TABLE_LINES)
        # row 2 is the mu4 = 0 line (0.437709, 0.899117, 0)
        monkeypatch.setattr(
            targets, "TABLE_LINES", tuple(rows[:1] + [{**rows[1], "mu1": (0.9, 0.0)}] + rows[2:])
        )
        ok, detail = _match_table(lines, plane)
        assert not ok
        assert detail.startswith("mu1 values mismatch on row 2: expected")
        assert "0.9" in detail and "0.899117" in detail
        monkeypatch.setattr(
            targets, "TABLE_LINES", tuple(rows[:1] + [{**rows[1], "disc_positive": False}] + rows[2:])
        )
        ok, detail = _match_table(lines, plane)
        assert not ok
        assert detail == "discriminant sign mismatch on row 2: expected negative, derived positive"

    def test_parametric_remainder_failure_shows_expected_and_derived(self, monkeypatch):
        coeffs = list(targets.REMAINDER_COEFFS)
        coeffs[1] = coeffs[1].replace("30*a", "31*a", 1)
        monkeypatch.setattr(targets, "REMAINDER_COEFFS", tuple(coeffs))
        check = plane_factorisation().checks[0]
        assert check.name == "parametric_remainder" and check.status == "fail"
        assert check.detail.startswith("coefficient of mu2^4*mu3: expected ")
        assert "expected -85*a^4*b" in check.detail and "31*a" in check.detail
        assert "derived -85*a^4*b" in check.detail

    def test_plane_factorisation_takes_no_resultant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the quintic split is proven by degree")

        original = groebner.resultant
        ours = [module for name, module in sys.modules.items() if name.startswith("vortexsym")]
        for module in ours:
            if vars(module).get("resultant") is original:
                monkeypatch.setattr(module, "resultant", refuse)
        checks = plane_factorisation().checks
        assert all(c.status == "pass" for c in checks), checks

    def test_quintic_split_failure_shows_expected_and_derived(self, monkeypatch):
        doubled = 2 * Poly.parse(R_REGISTRY, targets.P1_QUINTIC)
        monkeypatch.setattr(targets, "P1_QUINTIC", doubled.format())
        check = {c.name: c for c in plane_factorisation().checks}["quintic_full_split"]
        assert check.status == "fail"
        assert check.detail == "mu4^5 coefficient of the quintic form: expected 17, derived 34"

    def test_quintic_split_needs_a_squarefree_b_quintic(self, monkeypatch):
        # a common factor of q and q' would merge two of the five planes
        monkeypatch.setattr(trapezoid, "poly_gcd", lambda a, b: [-1, 1])
        check = {c.name: c for c in plane_factorisation().checks}["quintic_full_split"]
        assert check.status == "fail"
        assert check.detail == (
            "the planes through the roots of the b-quintic are not shown to split p1"
        )

    def test_a_values_failure_shows_expected_and_derived(self, trapezoid_report, monkeypatch):
        comps = trapezoid_report.artifacts["pipeline"]
        plane = trapezoid_report.artifacts["plane_factorisation"]
        g_ref = Poly.parse(R_REGISTRY, targets.G_OF_R)
        g_roots = sturm_isolate(coeffs_from_poly(g_ref, "r"))
        intervals = [iv.refine(Fraction(1, 10**9)) for iv in g_roots]
        families = dict(targets.PLANE_FAMILIES)
        families["B2"] = {**families["B2"], "a": 0.5}
        monkeypatch.setattr(targets, "PLANE_FAMILIES", families)
        check = {c.name: c for c in plane_factorisation().checks}["a_values"]
        assert check.status == "fail"
        assert check.detail == "a-coefficient mismatch for family B2: expected 0.5, derived 0.480743"
        # the pairing reads the family labels alone; a_values owns the a's
        assert _plane_pairing(comps, g_ref, intervals, plane)[0]

    def test_a_perturbed_a_element_fails_the_plane_ideal_basis(self, monkeypatch):
        assert targets.AB_IDEAL_SECOND.endswith(" + 578*b^4")
        monkeypatch.setattr(
            targets, "AB_IDEAL_SECOND", targets.AB_IDEAL_SECOND.replace("578*b^4", "579*b^4")
        )
        check = {c.name: c for c in plane_factorisation().checks}["ab_ideal_basis"]
        assert check.status == "fail"

    def test_plane_pairing_reads_the_a_element_of_the_plane_ideal(self, trapezoid_report):
        comps = trapezoid_report.artifacts["pipeline"]
        plane = trapezoid_report.artifacts["plane_factorisation"]
        g_ref = Poly.parse(R_REGISTRY, targets.G_OF_R)
        g_roots = sturm_isolate(coeffs_from_poly(g_ref, "r"))
        intervals = [iv.refine(Fraction(1, 10**9)) for iv in g_roots]
        # the a-linear element with one b^4 more than the plane ideal has
        gb = plane.ab_gb
        corrupted = [p + Poly.parse(gb.registry, "b^4") if p.uses("a") else p for p in gb.polys]
        assert corrupted != list(gb.polys)
        bad_plane = dataclasses.replace(plane, ab_gb=GroebnerBasis(corrupted, gb.registry, gb.order))
        ok, detail = _plane_pairing(comps, g_ref, intervals, bad_plane)
        assert not ok
        assert detail.startswith("division certificate failed")

    @pytest.fixture
    def pairing_inputs(self, trapezoid_report):
        comps = trapezoid_report.artifacts["pipeline"]
        plane = trapezoid_report.artifacts["plane_factorisation"]
        g_ref = Poly.parse(R_REGISTRY, targets.G_OF_R)
        g_roots = sturm_isolate(coeffs_from_poly(g_ref, "r"))
        return comps, g_ref, [iv.refine(Fraction(1, 10**9)) for iv in g_roots], plane

    def test_plane_pairing_takes_only_divisions(self, pairing_inputs, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the plane pairing takes exact divisions only")

        for name in ("buchberger", "normal_form", "VarRegistry"):
            monkeypatch.setattr(trapezoid, name, refuse)
        assert _plane_pairing(*pairing_inputs) == (
            True,
            "each radius pairs with its plane family, certified exactly",
        )

    def test_plane_pairing_rejects_a_perturbed_b_quintic(self, pairing_inputs):
        comps, g_ref, intervals, plane = pairing_inputs
        gb = plane.ab_gb
        one = Poly.constant(gb.registry, 1)
        perturbed = [p if p.uses("a") else p + one for p in gb.polys]
        bad_plane = dataclasses.replace(plane, ab_gb=GroebnerBasis(perturbed, gb.registry, gb.order))
        assert _plane_pairing(comps, g_ref, intervals, bad_plane) == (
            False,
            "division certificate failed: B/A is not a root of the b-quintic",
        )

    def test_plane_pairing_rejects_a_swapped_plane_label(self, pairing_inputs, monkeypatch):
        rows = [dict(row) for row in targets.ANGLE_TABLE]
        rows[1]["plane"], rows[2]["plane"] = rows[2]["plane"], rows[1]["plane"]
        monkeypatch.setattr(targets, "ANGLE_TABLE", tuple(rows))
        ok, detail = _plane_pairing(*pairing_inputs)
        assert not ok
        # rows sorted by r: 0.199167 (now C3), 0.375563 (now B2), 2.79493
        assert detail == "radius 0.199167 did not pair with plane C3; derived B2"

    def test_plane_pairing_rejects_a_perturbed_component(self, pairing_inputs):
        comps, g_ref, intervals, plane = pairing_inputs
        bump = Poly.parse(R_REGISTRY, "mu2*r^2")
        first = dataclasses.replace(comps[0], r_poly=comps[0].r_poly + bump)
        assert _plane_pairing((first, *comps[1:]), g_ref, intervals, plane) == (
            False,
            "component 2 does not vanish on the family",
        )


@pytest.fixture(scope="module")
def gb_ab():
    from vortexsym.ratpoly import Lex

    coeffs = [Poly.parse(targets.AB_REGISTRY, t) for t in targets.REMAINDER_COEFFS]
    return buchberger(Ideal.of(*coeffs), Lex())


class TestReferenceBasis:
    def test_reference_elements_are_integer_primitive(self):
        # the stated basis elements carry no hidden rational content
        for f in targets.f_basis():
            content, _ = f.content_strip()
            assert abs(content) == 1

    def test_random_combinations_reduce_to_zero(self, trapezoid_report):
        gb = trapezoid_report.artifacts["elimination_ideal"].gb
        rng = random.Random(64)
        reg = gb.registry
        fs = list(targets.f_basis())
        for _ in range(5):
            combo = Poly.zero(reg)
            for f in rng.sample(fs, 3):
                mono = [0] * len(reg)
                mono[rng.randrange(1, 5)] = rng.randrange(2)
                h = Poly(reg, {tuple(mono): Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
                combo = combo + h * f
            assert gb.contains(combo)


class TestPlaneChecks:
    def test_symbolic_identity(self, gb_ab):
        assert f1_plane_identity_in_ideal(gb_ab) == Poly.parse(targets.AB_REGISTRY, "b^2 - a - a^2")

    def test_plane_enclosures_pass(self, gb_ab):
        # each computed plane family meets the zero set of the key factor
        plane = plane_factorisation()
        assert len(plane.b_intervals) == len(plane.a_intervals) == 3
        for b_iv, a_iv in zip(plane.b_intervals, plane.a_intervals):
            assert (b_iv * b_iv - a_iv - a_iv * a_iv).contains(0)

    def test_generic_plane_fails(self, gb_ab):
        key = f1_plane_identity_in_ideal(gb_ab)
        # (alpha, beta) = (1, 1) and (1/2, -2), with alpha = -b, beta = -a
        assert key.evaluate({"a": -1, "b": -1}) != 0
        assert key.evaluate({"a": 2, "b": Fraction(-1, 2)}) != 0

    def test_key_factor_outside_the_ideal_gives_none(self):
        ab = targets.AB_REGISTRY
        other = buchberger(Ideal.of(Poly.parse(ab, "a - 1"), Poly.parse(ab, "b")), GrevLex())
        assert f1_plane_identity_in_ideal(other) is None


class TestSolutionSetAnnihilation:
    def test_kite_solutions_kill_all_pipeline_polynomials(self):
        # on the mu2 = mu4 solution set, every isolated radius annihilates
        # all three reduced polynomials: the third vanishes identically and
        # the other two are proportional
        rng = random.Random(7)
        comps = pipeline(KITE)
        checked = 0
        while checked < 50:
            mu1 = Fraction(rng.randint(-40, 40), rng.randint(1, 10))
            mu2 = Fraction(rng.randint(-40, 40), rng.randint(1, 10))
            mu3 = Fraction(rng.randint(-40, 40), rng.randint(1, 10))
            if 0 in (mu1, mu2, mu3):
                continue
            values = {"mu1": mu1, "mu2": mu2, "mu3": mu3, "mu4": mu2}
            specialised = [c.r_poly.subs(values) for c in comps]
            assert specialised[1].is_zero()
            p0 = specialised[0].primitive()
            p2 = specialised[2].primitive()
            if specialised[0].is_zero():
                continue
            assert p0 == p2
            checked += 1


# circulations on the kite collision line mu2 + 2 mu3 = 0, then circulations
# with mu2 != mu4, which the kite driver refuses
SWEEP_POINTS = [
    tuple(Fraction(x) for x in point)
    for point in (
        ("5/9", "4/9", "-2/9", "4/9"),
        ("1", "2", "-1", "2"),
        ("-3/4", "6/7", "-3/7", "6/7"),
        ("2", "-4/5", "2/5", "-4/5"),
        ("-1/2", "-2", "1", "-2"),
        ("7/3", "1/3", "-1/6", "1/3"),
        ("1", "2", "3", "4"),
        ("2/3", "-5/4", "-2/3", "5/4"),
        ("1", "1", "1", "-1"),
        ("-7/2", "3/5", "1/9", "8/5"),
        ("4", "-1", "-4", "1"),
        ("1/2", "0", "1/3", "1"),
    )
]


# then circulation tuples of the wrong length
WRONG_LENGTHS = [(1, 2), (1, 2, 3, 4, 5)]


@pytest.mark.parametrize(
    "mus", SWEEP_POINTS + WRONG_LENGTHS, ids=lambda mus: ",".join(map(str, mus))
)
def test_small_drivers_end_in_checks_or_a_clean_error(mus):
    # each run passes, fails a named check, or refuses the input with a
    # ValueError; no other exception escapes
    for run in (run_square, run_kite, run_rectangle):
        try:
            report = run(mus=mus)
        except ValueError:
            continue
        names = [c.name for c in report.oracle_checks]
        assert names and all(names)
        assert {c.status for c in report.oracle_checks} <= {"pass", "fail"}


@pytest.mark.parametrize("mus", WRONG_LENGTHS, ids=lambda mus: ",".join(map(str, mus)))
def test_small_drivers_refuse_other_than_four_circulations(mus):
    for run in (run_square, run_kite, run_rectangle):
        with pytest.raises(ValueError, match=f"^{run.__name__} needs four circulations$"):
            run(mus=mus)


@pytest.mark.parametrize(
    "run, mus",
    [(run_square, (0, 1, 0, 1)), (run_kite, (1, 0, 1, 0)), (run_rectangle, (0, 1, 0, -1))],
    ids=["square", "kite", "rectangle"],
)
def test_small_drivers_refuse_a_zero_circulation(run, mus):
    # mu^-1 H is undefined there: the square reported weighted eigenvalues
    # and the rectangle failed an oracle check instead of refusing
    with pytest.raises(ValueError, match=f"^{run.__name__} needs nonzero circulations$"):
        run(mus=mus)


def _from_roots(roots):
    """Ascending Fraction coefficients of the monic polynomial with the given
    roots: Fractions, or "sqrt2" and "-sqrt2", which enter as one factor
    mu3^2 - 2 when both are listed."""
    factors = [[-r, Fraction(1)] for r in roots if isinstance(r, Fraction)]
    if "sqrt2" in roots:
        factors.append([Fraction(-2), Fraction(0), Fraction(1)])
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return out


def _root_in(root, iv):
    """Whether ``root`` (a Fraction, "sqrt2" or "-sqrt2") lies in the closed
    interval ``iv``, decided in exact arithmetic."""
    if isinstance(root, Fraction):
        return iv.lo <= root <= iv.hi
    if root == "-sqrt2":
        iv = -iv
    # sqrt(2) in [lo, hi]: hi^2 >= 2 with hi > 0, and lo <= 0 or lo^2 <= 2
    return iv.hi > 0 and iv.hi * iv.hi >= 2 and (iv.lo <= 0 or iv.lo * iv.lo <= 2)


def _scramble(value):
    """Mutate every list and dict reachable from ``value`` in place; the
    check and root records in them are frozen."""
    if isinstance(value, dict):
        for key in list(value):
            _scramble(value[key])
        value["scrambled"] = True
    elif isinstance(value, list):
        for item in value:
            _scramble(item)
        value.append("scrambled")
    elif dataclasses.is_dataclass(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, "scrambled")


@pytest.mark.parametrize("run", [run_square, run_kite, run_rectangle], ids=lambda run: run.__name__)
def test_mutating_a_report_leaves_the_next_report_unchanged(run):
    # the reports must share no mutable state with anything a later call
    # returns, however the stages come to be computed
    mus = (Fraction(3, 2), Fraction(1), Fraction(-4, 5), Fraction(1))
    first = run(mus=mus)
    want = pickle.dumps(first.to_document())
    stages = pickle.dumps(first.artifacts)
    for name in ("pipeline_polynomials", "elimination_basis", "conditions", "roots", "oracle_checks"):
        _scramble(getattr(first, name))
    _scramble(first.stability)
    # no report field aliases a stage result the report keeps
    assert pickle.dumps(first.artifacts) == stages
    assert pickle.dumps(run(mus=mus).to_document()) == want


def test_the_shared_pipeline_cannot_be_reassigned_through_a_report():
    # every report carries the one cached pipeline, so reassigning a slot of
    # a polynomial in it would change every later report
    with pytest.raises(AttributeError):
        run_kite().artifacts["pipeline"][2].r_poly.terms = {}
    report = run_kite()
    assert report.passed(), report.failures()


@pytest.mark.parametrize(
    "run,scenario", [(run_kite, KITE), (run_rectangle, RECTANGLE)], ids=["run_kite", "run_rectangle"]
)
def test_successive_reports_share_one_pipeline(run, scenario):
    # the circulation-free reduction is derived once per process; every
    # report carries that one immutable value, and the stages built on it
    # come out the same each time
    mus = (Fraction(3, 2), Fraction(1), Fraction(-4, 5), Fraction(1))
    first, second = run(mus=mus), run(mus=mus)
    assert first.artifacts["pipeline"] is second.artifacts["pipeline"] is pipeline(scenario)
    assert pickle.dumps(first.artifacts) == pickle.dumps(second.artifacts)


def test_eps_sets_only_the_width_of_the_reported_enclosures(
    square_report, kite_report, rectangle_report, trapezoid_report
):
    # the stages return isolating intervals and only the reports refine
    # them, so every check reads the same at any eps, and every enclosure a
    # report shows, the kite window's lower end included, is narrower than
    # eps
    checks = {}
    for eps in (Fraction(1, 10**3), DEFAULT_EPS, Fraction(1, 10**30)):
        if eps == DEFAULT_EPS:
            reports = [square_report, kite_report, rectangle_report, trapezoid_report]
        else:
            reports = [
                run_square(),
                run_kite(eps=eps),
                run_rectangle(eps=eps),
                run_trapezoid(eps=eps, check_appendix=True),
            ]
        checks[eps] = [r.oracle_checks for r in reports]
        for report in reports:
            assert report.passed(), (eps, report.failures())
            assert all(hi - lo < eps for lo, hi in (root.interval for root in report.roots))
        lower = reports[1].stability["special_angle"]["window"]["lower"]["interval"]
        width = Fraction(lower[1]) - Fraction(lower[0])
        assert 0 < width < eps
        if eps == Fraction(1, 10**3):
            assert width > Fraction(1, 10**4)
    first, *rest = checks.values()
    assert all(other == first for other in rest)


class TestNonPositiveEps:
    # a zero or negative enclosure width used to bisect forever in refine
    def test_kite(self):
        with pytest.raises(ValueError):
            run_kite(eps=0)

    def test_rectangle(self):
        with pytest.raises(ValueError):
            run_rectangle(eps=Fraction(-1, 10**9))

    def test_trapezoid(self):
        with pytest.raises(ValueError):
            run_trapezoid(eps=0, check_appendix=False)

"""Division, Buchberger, elimination ideals, and quotient-basis enumeration."""

import random
import sys
from fractions import Fraction

import pytest

from vortexsym import groebner
from vortexsym.groebner import (
    ExponentOverflowError,
    GroebnerBasis,
    Ideal,
    QuotientBasis,
    buchberger,
    eliminate,
    normal_form,
    resultant,
    standard_monomials,
)
from vortexsym.ratpoly import (
    ExactDivisionError,
    GrevLex,
    Lex,
    Poly,
    RegistryMismatchError,
    VarRegistry,
    _div_exact,
    elimination,
)

from vortexsym.realroots import PositiveDimensionalError, hermite_matrix

from reference import (
    box_standard_monomials,
    buchberger_criterion,
    reduce,
    s_polynomial,
    textbook_basis,
)

XYZ = VarRegistry(["x", "y", "z"])


def P(text, registry=XYZ):
    return Poly.parse(registry, text)


def basis_set(gb):
    """Basis as a set of primitive polynomials, for scalar-robust comparison."""
    return {p.primitive() for p in gb.polys}


def parsed_set(gb, texts):
    return {P(t, gb.registry).primitive() for t in texts}


class TestReduce:
    def test_single_divisor_exact(self):
        qs, rem = reduce(P("x^2 - 1"), [P("x - 1")], Lex())
        assert qs[0] == P("x + 1") and rem.is_zero()

    def test_no_leading_term_divides(self):
        qs, rem = reduce(P("x"), [P("x^2"), P("x^3")], Lex())
        assert rem == P("x") and all(q.is_zero() for q in qs)

    def test_division_identity_random(self):
        rng = random.Random(17)
        order = GrevLex()
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                mono = tuple(rng.randrange(3) for _ in range(3))
                terms[mono] = Fraction(rng.randint(-5, 5))
            p = Poly(XYZ, terms)
            divisors = [P("x^2 - y"), P("y^2 - z"), P("x*z - 1")]
            qs, rem = reduce(p, divisors, order)
            recombined = rem
            for q, d in zip(qs, divisors):
                recombined = recombined + q * d
            assert recombined == p
            lead = [d.leading_monomial(order) for d in divisors]
            for m in rem.terms:
                assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lead)

    def test_parametric_remainder_quintic_coefficient(self):
        # Dividing the degree-5 form by a generic plane a*mu2 + b*mu3 + mu4
        # (ordering mu4 > mu2 > mu3, parameters a, b ranked below) leaves a
        # remainder whose mu2^5 coefficient is a known quintic in a.
        reg = VarRegistry(["mu4", "mu2", "mu3", "a", "b"])
        p1 = Poly.parse(
            reg,
            "4*mu2^5 + 2*mu2^3*mu3^2 + 10*mu2^2*mu3^3 - 22*mu2*mu3^4 + 8*mu3^5"
            " - 24*mu2^4*mu4 - 30*mu2^3*mu3*mu4 + 82*mu2^2*mu3^2*mu4"
            " - 60*mu2*mu3^3*mu4 + 22*mu3^4*mu4 + 13*mu2^3*mu4^2"
            " + 135*mu2^2*mu3*mu4^2 - 181*mu2*mu3^2*mu4^2 + 54*mu3^3*mu4^2"
            " + 112*mu2^2*mu4^3 - 247*mu2*mu3*mu4^3 + 117*mu3^2*mu4^3"
            " - 106*mu2*mu4^4 + 98*mu3*mu4^4 + 17*mu4^5",
        )
        plane = Poly.parse(reg, "a*mu2 + b*mu3 + mu4")
        qs, rem = reduce(p1, [plane], Lex())
        assert not rem.uses("mu4")
        assert qs[0] * plane + rem == p1
        # the plane is monic and linear in mu4: the remainder is a substitution
        assert rem == p1.subs({"mu4": Poly.parse(reg, "-a*mu2 - b*mu3")})
        groups = rem.coefficients_in(["mu2", "mu3"])
        lead_coeff = groups[(5, 0)]
        assert lead_coeff == Poly.parse(
            reg, "4 + 24*a + 13*a^2 - 112*a^3 - 106*a^4 - 17*a^5"
        )
        tail_coeff = groups[(0, 5)]
        assert tail_coeff == Poly.parse(
            reg, "8 - 22*b + 54*b^2 - 117*b^3 + 98*b^4 - 17*b^5"
        )


class TestBuchberger:
    def test_plane_paraboloid_lex(self):
        gb = buchberger(Ideal.of(P("x - y - z + 2"), P("x^2 + y^2 - z")), Lex())
        assert basis_set(gb) == parsed_set(
            gb, ["2 + x - y - z", "4 - 4*y + 2*y^2 - 5*z + 2*y*z + z^2"]
        )

    def test_plane_paraboloid_grevlex(self):
        gb = buchberger(Ideal.of(P("x - y - z + 2"), P("x^2 + y^2 - z")), GrevLex())
        assert basis_set(gb) == parsed_set(
            gb, ["2 + x - y - z", "4 - 4*y + 2*y^2 - 5*z + 2*y*z + z^2"]
        )

    def test_single_generator(self):
        gb = buchberger(Ideal.of(P("x")), Lex())
        assert basis_set(gb) == parsed_set(gb, ["x"])

    @pytest.mark.parametrize(
        "compute",
        [lambda ideal: buchberger(ideal, GrevLex()), lambda ideal: eliminate(ideal, ["y"])],
        ids=["buchberger", "eliminate"],
    )
    def test_only_an_ideal_is_an_input(self, compute):
        xy, uv = VarRegistry(["x", "y"]), VarRegistry(["u", "v"])
        # a bare list would skip Ideal.of's registry check, and the kernel
        # would read the exponent tuples of both registries as one ring's
        mixed = [Poly.parse(xy, "x^2 - y"), Poly.parse(uv, "u - 1")]
        for bare in (mixed, [P("x^2 - y"), P("y - 1")]):
            with pytest.raises(TypeError):
                compute(bare)
        with pytest.raises(ValueError):
            Ideal.of(*mixed)

    def test_unit_ideal_collapses(self):
        gb = buchberger(Ideal.of(P("x"), P("x - 1")), Lex())
        assert basis_set(gb) == parsed_set(gb, ["1"])

    def test_spolynomials_reduce_to_zero(self):
        gb = buchberger(
            Ideal.of(P("x^2 + y"), P("x*y - z"), P("y^3 - x*z")), GrevLex()
        )
        assert buchberger_criterion(gb)

    def test_generators_have_zero_normal_form(self):
        gens = [P("x^2 - y*z + 1"), P("y^2 - 3*z"), P("x*z - y")]
        gb = buchberger(Ideal.of(*gens), GrevLex())
        for g in gens:
            assert gb.contains(g)

    def test_reduced_basis_unique_under_shuffle(self):
        gens = [P("x^2 + y^2 - 1"), P("x*y - z"), P("z^2 - x + y")]
        rng = random.Random(23)
        reference = None
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            gb = buchberger(Ideal.of(*shuffled), GrevLex())
            rendered = [p.format(gb.order) for p in gb.polys]
            if reference is None:
                reference = rendered
            assert rendered == reference

    def test_cross_order_membership(self):
        # Converse inclusion spot-check: every grevlex basis element lies in
        # the ideal as certified by an independently computed lex basis.
        gens = [P("x^2 + y^2 - 1"), P("x*y - z")]
        gb_grevlex = buchberger(Ideal.of(*gens), GrevLex())
        gb_lex = buchberger(Ideal.of(*gens), Lex())
        for p in gb_grevlex.polys:
            assert gb_lex.contains(p)
        for p in gb_lex.polys:
            assert gb_grevlex.contains(p)

    def test_vanishing_sets_agree_on_random_slices(self):
        # Evaluation homomorphism spot-check: freeze all but one variable at
        # random rationals; the gcd of the slices of the originals and of the
        # basis have the same roots (equal up to scalar).
        gens = [P("x^2 + y^2 + z^2 - 1"), P("x - y*z")]
        gb = buchberger(Ideal.of(*gens), GrevLex())
        rng = random.Random(31)
        t_reg = VarRegistry(["x"])

        def slice_gcd(polys, y0, z0):
            acc = None
            for p in polys:
                q = p.subs({"y": y0, "z": z0})
                q1 = Poly(
                    t_reg, {(m[0],): c for m, c in q.terms.items()}
                )
                acc = q1 if acc is None else _poly_gcd(acc, q1)
            return acc

        def _poly_gcd(a, b):
            while not b.is_zero():
                _, r = reduce(a, [b], Lex())
                a, b = b, r
            return a.primitive()

        for _ in range(20):
            y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            z0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            g1 = slice_gcd(gens, y0, z0)
            g2 = slice_gcd(gb.polys, y0, z0)
            assert g1.primitive() == g2.primitive()

    def test_random_combination_reduces_to_zero(self):
        rng = random.Random(47)
        gens = [P("x^2 - y"), P("y^2 - z"), P("x*y*z - 1")]
        gb = buchberger(Ideal.of(*gens), GrevLex())
        for _ in range(25):
            combo = Poly.zero(XYZ)
            for g in gens:
                h = Poly(
                    XYZ,
                    {
                        tuple(rng.randrange(2) for _ in range(3)): Fraction(
                            rng.randint(-4, 4)
                        )
                        for _ in range(2)
                    },
                )
                combo = combo + h * g
            assert gb.contains(combo)


def random_ideal(rng, registry):
    """Two or three generators of degree <= 3 with small integer coefficients."""
    gens = []
    while len(gens) < rng.randint(2, 3):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            mono = [0] * len(registry)
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(len(registry))] += 1
            terms[tuple(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = Poly(registry, terms)
        if not p.is_zero() and not p.is_constant():
            gens.append(p)
    return gens


class TestPackedKernel:
    def test_matches_textbook_basis_on_random_ideals(self):
        rng = random.Random(20261018)
        registries = [XYZ, VarRegistry(["w", "x", "y", "z"])]
        for n in range(42):
            reg = registries[n % 2]
            # the same ideal over a registry with a variable no generator uses
            wide = VarRegistry(["v", *reg.names])
            order, wide_order = (
                [Lex(), GrevLex(), elimination(r, [reg.names[n % len(reg)]])][n % 3]
                for r in (reg, wide)
            )
            gens = random_ideal(rng, reg)
            want = textbook_basis(gens, order)
            gb = buchberger(Ideal.of(*gens), order)
            assert list(gb.polys) == want, (order, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert list(buchberger(Ideal.of(*shuffled), order).polys) == want
            gb = buchberger(Ideal.of(*(g.map_to(wide) for g in gens)), wide_order)
            assert list(gb.polys) == [p.map_to(wide) for p in want], (order, gens)

    def test_exponent_beyond_packed_fields_raises(self):
        with pytest.raises(ExponentOverflowError):
            buchberger(Ideal.of(P("x^32768 - y")), Lex())

    def test_exponent_outgrowing_packed_fields_mid_run_raises(self):
        # Reducing x^2 by x - y^30000 under lex produces y^60000.
        with pytest.raises(ExponentOverflowError):
            buchberger(Ideal.of(P("x - y^30000"), P("x^2")), Lex())

    def test_largest_packed_exponent_is_exact(self):
        gb = buchberger(Ideal.of(P("x^32767 - y"), P("y^2 - 1")), GrevLex())
        assert basis_set(gb) == parsed_set(gb, ["y^2 - 1", "x^32767 - y"])


class TestEliminate:
    def test_plane_paraboloid_project_out_z(self):
        gb = eliminate(Ideal.of(P("x - y - z + 2"), P("x^2 + y^2 - z")), ["z"])
        assert basis_set(gb) == parsed_set(gb, ["-2 - x + x^2 + y + y^2"])

    def test_output_free_of_dropped_variables(self):
        gens = [P("x^2 + y^2 + z^2 - 1"), P("x*y - z"), P("x - y^2")]
        gb = eliminate(Ideal.of(*gens), ["x"])
        for p in gb.polys:
            assert not p.uses("x")

    def test_membership_of_eliminated_basis(self):
        gens = [P("x - y - z + 2"), P("x^2 + y^2 - z")]
        full = buchberger(Ideal.of(*gens), Lex())
        gb = eliminate(Ideal.of(*gens), ["z"])
        for p in gb.polys:
            assert full.contains(p)

    def test_kept_elements_are_the_inner_reduced_basis(self):
        rng = random.Random(31)
        reg = VarRegistry(["w", "x", "y", "z"])
        for n in range(24):
            gens = random_ideal(rng, reg)
            drop = [reg.names[n % 4]]
            gb = eliminate(Ideal.of(*gens), drop)
            assert isinstance(gb.order, GrevLex)
            if gb.polys:
                want = buchberger(Ideal.of(*gb.polys), GrevLex())
                assert gb.polys == want.polys, (gens, drop)
            # a registry variable that no generator uses changes no basis
            wide = VarRegistry(["v", *reg.names])
            wide_gb = eliminate(Ideal.of(*(g.map_to(wide) for g in gens)), drop)
            assert wide_gb.polys == tuple(p.map_to(wide) for p in gb.polys), (gens, drop)

    def test_empty_elimination_ideal_keeps_its_registry(self):
        # <x y - 1> meets Q[y] in 0: the basis is empty, its quotient infinite
        reg = VarRegistry(["x", "y"])
        gb = eliminate(Ideal.of(Poly.parse(reg, "x*y - 1")), ["x"])
        assert gb.polys == () and gb.registry == reg
        assert standard_monomials(gb) == QuotientBasis((), False)
        with pytest.raises(PositiveDimensionalError):
            hermite_matrix(gb)
        assert gb.normal_form(Poly.parse(reg, "y^2")) == Poly.parse(reg, "y^2")
        with pytest.raises(RegistryMismatchError):
            gb.normal_form(P("x"))

    def test_basis_elements_must_lie_over_its_registry(self):
        with pytest.raises(RegistryMismatchError):
            GroebnerBasis([P("x")], VarRegistry(["x", "y"]), GrevLex())


class TestEliminateDeflation:
    """``eliminate`` runs on r^2 -> r when every exponent of r is even; the
    elimination ideal and its reduced basis cannot change."""

    R = VarRegistry(["r", "a", "b"])

    def r_free_part(self, gens):
        full = buchberger(Ideal.of(*gens), elimination(self.R, ["r"]))
        return tuple(p for p in full.polys if not p.uses("r"))

    @pytest.mark.parametrize(
        "texts",
        [
            ("r^4*a - 2*r^2*b + a - 1", "r^2*a^2 + r^2*b - 3*b + 2", "r^6 - a*b"),
            ("r^2*a - b^2 + 1", "r^4 - a*b + r^2", "r^2*b - a + 2"),
        ],
    )
    def test_even_in_r_matches_the_undeflated_basis(self, texts):
        gens = [Poly.parse(self.R, t) for t in texts]
        gb = eliminate(Ideal.of(*gens), ["r"])
        assert gb.polys == self.r_free_part(gens)
        assert gb.polys

    def test_odd_power_of_r_deflates_nothing(self):
        gens = [Poly.parse(self.R, t) for t in ("r^2*a - b + 1", "r^3 - a*b", "r^2 + a^2 - 2")]
        gb = eliminate(Ideal.of(*gens), ["r"])
        full = buchberger(Ideal.of(*gens), elimination(self.R, ["r"]))
        assert gb.polys == self.r_free_part(gens)
        assert gb.stats == full.stats


def random_rational_poly(rng, registry, terms, degree):
    out = {}
    for _ in range(terms):
        mono = [0] * len(registry)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(len(registry))] += 1
        out[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Poly(registry, out)


class TestNormalForm:
    def test_matches_reduce_remainder_on_random_inputs(self):
        # Both reduce the largest term first by the first matching divisor,
        # so the remainders agree even when the divisors are no Groebner basis.
        rng = random.Random(4242)
        for n in range(40):
            order = [Lex(), GrevLex(), elimination(XYZ, ["y"])][n % 3]
            divisors = [random_rational_poly(rng, XYZ, 3, 3) for _ in range(rng.randint(1, 3))]
            divisors = [d for d in divisors if not d.is_constant()]
            if not divisors:
                continue
            bases = [
                GroebnerBasis(divisors, XYZ, order),
                buchberger(Ideal.of(*divisors), order),
                GroebnerBasis((), XYZ, order),
            ]
            for basis in bases:
                for _ in range(5):
                    p = random_rational_poly(rng, XYZ, 5, 5)
                    assert normal_form(p, basis) == reduce(p, basis.polys, order)[1]

    def test_inputs_the_kernel_cannot_pack_are_rejected(self):
        gb = buchberger(Ideal.of(P("x^2 - y")), Lex())
        other = VarRegistry(["x", "y"])
        with pytest.raises(RegistryMismatchError):
            normal_form(P("x", other), gb)
        # zero reduces to zero before the registries are compared
        assert normal_form(Poly.zero(other), gb) == Poly.zero(other)
        with pytest.raises(ExponentOverflowError):
            normal_form(P("y^32768"), gb)
        assert normal_form(P("x^3 + 1/2*y"), gb) == P("x*y + 1/2*y")

    def test_members_reduce_to_zero(self):
        gb = buchberger(Ideal.of(P("x^2 - 1")), Lex())
        for g in gb.polys:
            assert normal_form(g, gb).is_zero()

    def test_simple_quotient(self):
        gb = buchberger(Ideal.of(P("x^2 - 1")), Lex())
        assert normal_form(P("x^2"), gb) == P("1")

    def test_spolynomial_helper(self):
        s = s_polynomial(P("x^2 + y"), P("x*y + z"), GrevLex())
        assert s == P("y^2 - x*z")


class TestResultant:
    def test_product_over_the_roots_of_the_first_operand(self):
        # res(c * prod (x - a_i), g) = c^deg_x(g) * prod g(a_i)
        rng = random.Random(9001)
        for _ in range(25):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            f = P(str(c))
            for a in roots:
                f = f * (P("x") - a)
            g = random_rational_poly(rng, XYZ, 4, 3) + P("x^2*y + x*z")
            want = P(str(c)) ** g.degree_in("x")
            for a in roots:
                want = want * g.subs({"x": a})
            assert resultant(f, g, "x") == want, (f, g)

    def test_vanishing_pivot(self):
        # The Sylvester matrix of these two has a vanishing leading minor,
        # where an elimination would need a row swap: res = g(-1) * g(1) = 2 * (-2).
        assert resultant(P("x^2 - 1"), P("x^2 - 2*x - 1"), "x") == P("-4")

    def test_swapping_the_operands_gives_the_sign_of_mn(self):
        rng = random.Random(1991)
        for _ in range(25):
            f = random_rational_poly(rng, XYZ, 4, 4)
            g = random_rational_poly(rng, XYZ, 4, 3)
            if f.is_zero() or g.is_zero():
                continue
            var = rng.choice(XYZ.names)
            m, n = f.degree_in(var), g.degree_in(var)
            assert resultant(f, g, var) == (-1) ** (m * n) * resultant(g, f, var)

    def test_constant_operands(self):
        g = P("x^3*y - 2*x + z")
        assert resultant(P("3/2"), g, "x") == P("27/8")
        assert resultant(g, P("-2"), "x") == P("-8")
        assert resultant(P("5"), P("7/3"), "x") == P("1")
        # constant in x but not in y: res(f, g) = g^deg_x(f)
        assert resultant(P("x^2 + y"), P("3*y"), "x") == P("9*y^2")
        with pytest.raises(ValueError):
            resultant(P("0"), g, "x")

    def test_inexact_division_raises(self):
        x2_plus_1 = {(2,): 1, (0,): 1}
        x_plus_1 = {(1,): 1, (0,): 1}
        assert _div_exact({(2,): 1, (0,): -1}, x_plus_1) == {(1,): 1, (0,): -1}
        with pytest.raises(ExactDivisionError):
            _div_exact(x2_plus_1, x_plus_1)
        with pytest.raises(ExactDivisionError):
            _div_exact({(1,): 2, (0,): 1}, {(0,): 2})
        with pytest.raises(ExactDivisionError):
            _div_exact({(1,): 1}, {(2,): 1})


class TestStandardMonomials:
    def test_univariate(self):
        reg = VarRegistry(["x"])
        gb = buchberger(Ideal.of(Poly.parse(reg, "x^2 - 1")), GrevLex())
        qb = standard_monomials(gb)
        assert qb.finite
        assert qb.standard_monomials == ((0,), (1,))

    def test_staircase_enumeration(self):
        reg = VarRegistry(["x", "y"])
        gens = [Poly.parse(reg, t) for t in ("x^2", "x*y", "y^3")]
        gb = buchberger(Ideal.of(*gens), GrevLex())
        qb = standard_monomials(gb)
        # Independent oracle: enumerate the box below the pure powers and
        # drop everything under the staircase by brute force.
        expected = []
        for i in range(2):
            for j in range(3):
                if (i, j) not in [(1, 1), (1, 2)]:
                    expected.append((i, j))
        assert qb.finite
        assert set(qb.standard_monomials) == set(expected)
        assert len(qb) == 4

    def test_infinite_signal(self):
        reg = VarRegistry(["x", "y"])
        gb = buchberger(Ideal.of(Poly.parse(reg, "x^2")), GrevLex())
        qb = standard_monomials(gb)
        assert not qb.finite
        assert qb.standard_monomials == ()

    def test_requires_grevlex(self):
        reg = VarRegistry(["x"])
        gb = buchberger(Ideal.of(Poly.parse(reg, "x^2 - 1")), Lex())
        with pytest.raises(ValueError):
            standard_monomials(gb)

    def test_walks_the_order_ideal_not_the_box(self):
        # (x^n, y^n, z^n, xy, yz, xz) has 3n - 2 standard monomials below a
        # box of n^3: filtering the box made 6 * 160^3 divisibility tests.
        # Every function call, Python or builtin, counts as work here.
        n = 160
        gb = GroebnerBasis(
            [P(t) for t in ("x*y", "x*z", "y*z", f"x^{n}", f"y^{n}", f"z^{n}")], XYZ, GrevLex()
        )
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            qb = standard_monomials(gb)
        finally:
            sys.setprofile(None)
        powers = [tuple(e if j == i else 0 for j in range(3)) for i in range(3) for e in range(1, n)]
        assert qb.finite
        assert qb.standard_monomials == tuple(sorted([(0, 0, 0), *powers], key=gb.order.key))
        assert calls < 6 * 4 * len(qb)

    @pytest.mark.parametrize(
        "gens",
        [
            # a monomial basis with redundant leading monomials
            ("x^3", "x^2*y", "x^3*y", "y^2", "x*y^2", "z^2", "x*z", "x^2*z"),
            # a reduced basis plus multiples of its elements
            ("x^2 + y*z - 1", "y^2 - x + 2", "z^2 - x*y - 3"),
        ],
    )
    def test_basis_that_is_not_reduced_matches_the_box_filter(self, gens):
        polys = buchberger(Ideal.of(*map(P, gens)), GrevLex()).polys
        x, y = P("x"), P("y")
        gb = GroebnerBasis([*polys, x * polys[0], y * y * polys[-1]], XYZ, GrevLex())
        qb = standard_monomials(gb)
        assert qb.finite
        assert len(set(gb.leading_monomials())) > len(polys)
        assert qb.standard_monomials == box_standard_monomials(gb)


def test_groebner_basis_repr_and_same_ideal():
    gens = [P("x^2 - y"), P("y - 1")]
    gb = buchberger(Ideal.of(*gens), Lex())
    assert gb.same_ideal_as(gens)
    assert "GroebnerBasis" in repr(gb)
    # a different ideal, and the same ideal from generators that are not a basis
    assert not gb.same_ideal_as([P("x^2 - y"), P("y - 2")])
    not_a_basis = [P("x^2 - y"), P("x^2 - 1")]
    assert set(gb.polys) != set(not_a_basis)
    assert gb.same_ideal_as(not_a_basis)


def test_same_ideal_as_takes_scaled_basis_elements_without_a_buchberger_run(monkeypatch):
    gb = buchberger(Ideal.of(P("x^2 - y"), P("y - 1")), Lex())

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger must not run")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    scaled = [p * Fraction(-3, 7) for p in reversed(gb.polys)]
    assert gb.same_ideal_as(scaled)
    with pytest.raises(AssertionError, match="must not run"):
        gb.same_ideal_as([P("x^2 - y"), P("x^2 - 1")])

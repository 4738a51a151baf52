"""Ring arithmetic, monomial orders, normalisation, and the text format."""

import ast
import pickle
import random
from copy import deepcopy
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import vortexsym
from vortexsym.ratpoly import (
    ExactDivisionError,
    GrevLex,
    Lex,
    Poly,
    RegistryMismatchError,
    Sqrt2,
    VarRegistry,
    elimination,
    mono_degree,
)

from reference import FracPoly, reduce

XYZ = VarRegistry(["x", "y", "z"])


def P(text, registry=XYZ):
    return Poly.parse(registry, text)


def random_poly(rng, registry, max_terms=4, max_exp=3, coeff_range=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp + 1) for _ in registry.names)
        c = Fraction(rng.randint(-coeff_range, coeff_range), rng.randint(1, 4))
        if c:
            terms[mono] = c
    return Poly(registry, terms)


class TestArithmetic:
    def test_cancellation(self):
        assert P("x + 1") + P("x - 1") == P("2*x")

    def test_difference_of_squares(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_absorbing_zero(self):
        p = P("3*x^2*y - z + 7")
        assert (p * Poly.zero(XYZ)).is_zero()
        assert (p * 0).is_zero()

    def test_registry_mismatch_is_an_error(self):
        other = VarRegistry(["a", "b"])
        with pytest.raises(RegistryMismatchError):
            P("x") + Poly.variable(other, "a")
        with pytest.raises(RegistryMismatchError):
            P("x") * Poly.variable(other, "b")

    def test_scalar_ops(self):
        p = P("x - 2")
        assert 3 * p == P("3*x - 6")
        assert p * Fraction(1, 2) == P("1/2*x - 1")
        assert p / 2 == P("1/2*x - 1")

    def test_power(self):
        assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
        assert P("x + 1") ** 0 == P("1")

    def test_terms_are_read_only_and_survive_pickle_and_deepcopy(self):
        p = P("3*x^2*y - z + 7/2")
        with pytest.raises(TypeError):
            p.terms[(1, 0, 0)] = Fraction(1)
        for copy in (pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)), deepcopy(p)):
            assert copy == p and hash(copy) == hash(p)
            with pytest.raises(TypeError):
                copy.terms[(1, 0, 0)] = Fraction(1)

    def test_attributes_cannot_be_assigned_or_deleted(self):
        p = P("3*x^2*y - z + 7/2")
        for copy in (p, pickle.loads(pickle.dumps(p)), deepcopy(p)):
            with pytest.raises(AttributeError):
                copy.terms = {}
            with pytest.raises(AttributeError):
                copy.registry = XYZ
            with pytest.raises(AttributeError):
                del copy.terms
            with pytest.raises(AttributeError):
                copy.extra = 1
            assert copy == P("3*x^2*y - z + 7/2")

    def test_ring_axioms_randomized(self):
        # Associativity, distributivity, additive inverse on random triples.
        rng = random.Random(20240811)
        reg = XYZ
        for _ in range(10_000):
            p = random_poly(rng, reg)
            q = random_poly(rng, reg)
            r = random_poly(rng, reg)
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p - p).is_zero()
            assert p + q == q + p
            assert p * q == q * p


def canonical(p):
    """The integer form's invariant: den > 0, no zero numerator, and no
    common factor of den and the numerators."""
    return p.den > 0 and 0 not in p.ints.values() and gcd(p.den, *p.ints.values()) == 1


def same(got, want):
    """``got`` is canonical and equals the oracle's polynomial, term for
    term and in the same order."""
    return canonical(got) and list(got.terms.items()) == list(want.terms.items())


class TestIntegerForm:
    def test_canonical_form(self):
        p = Poly(XYZ, {(1, 0, 0): Fraction(6, 4), (0, 1, 0): Fraction(-9, 6), (0, 0, 1): 0})
        assert dict(p.ints) == {(1, 0, 0): 3, (0, 1, 0): -3} and p.den == 2
        q = Poly.over(XYZ, {(1, 0, 0): 4, (0, 0, 0): -10}, -6)
        assert dict(q.ints) == {(1, 0, 0): -2, (0, 0, 0): 5} and q.den == 3
        for zero in (Poly.zero(XYZ), P("x - x"), P("3/4*x") * 0, Poly.over(XYZ, {}, 7)):
            assert dict(zero.ints) == {} and zero.den == 1
        for r in (p, q, p * q, p + q, p - p, p**3, P("2/6*x - 4/6"), (p * q).divide_exact(q)):
            assert canonical(r)

    def test_equal_polynomials_from_different_fractions_are_equal_and_hash_alike(self):
        forms = [
            Poly(XYZ, {(1, 0, 0): Fraction(1, 2), (0, 0, 0): 1}),
            Poly(XYZ, {(1, 0, 0): Fraction(3, 6), (0, 0, 0): Fraction(4, 4)}),
            P("x + 2") / 2,
            P("1/4*x + 1/2") * 2,
            P("2/4*x + 3/3"),
            P("1/1*x") * Fraction(5, 10) + 1,
        ]
        assert len({(frozenset(f.ints.items()), f.den) for f in forms}) == 1
        assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
        assert len(set(forms)) == 1
        assert P("x + 1") != P("x + 1") / 2 and P("2") == 2 and P("1/2") == Fraction(1, 2)

    def test_terms_are_a_read_only_view_of_fractions(self):
        p = P("6/4*x^2 - 2*y + 1/3")
        assert p.terms == {(2, 0, 0): Fraction(3, 2), (0, 1, 0): Fraction(-2), (0, 0, 0): Fraction(1, 3)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert dict(p.ints) == {(2, 0, 0): 9, (0, 1, 0): -12, (0, 0, 0): 2} and p.den == 6
        for view in (p.terms, p.ints):
            with pytest.raises(TypeError):
                view[(0, 0, 1)] = 1
        with pytest.raises(AttributeError):
            p.den = 1
        with pytest.raises(AttributeError):
            p.ints = {}

    def test_pickle_round_trip_keeps_the_integer_form(self):
        # fork_call sends polynomials between processes by pickle
        for p in (P("6/4*x^2*y - z + 7/3"), Poly.zero(XYZ), P("-5")):
            for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(p, proto))
                assert copy == p and hash(copy) == hash(p) and copy.registry == XYZ
                assert dict(copy.ints) == dict(p.ints) and copy.den == p.den and canonical(copy)
                with pytest.raises(TypeError):
                    copy.ints[(0, 0, 0)] = 1

    def test_constructor_rejects_bad_exponents_and_inexact_coefficients(self):
        for mono in [(1, 0), (1, 0, 0, 0), (-1, 0, 0)]:
            with pytest.raises(ValueError):
                Poly(XYZ, {mono: 1})
        for coeff in [0.5, 1.0, "1", Decimal("0.5"), 1j]:
            with pytest.raises(TypeError):
                Poly(XYZ, {(1, 0, 0): coeff})
            with pytest.raises(TypeError):
                Poly.constant(XYZ, coeff)
        with pytest.raises(TypeError):
            P("x") * 0.5
        with pytest.raises(TypeError):
            P("x") + 0.5
        with pytest.raises(ZeroDivisionError):
            P("x") / 0
        with pytest.raises(ZeroDivisionError):
            P("1/0*x")

    def test_every_ring_operation_matches_the_fraction_dict_oracle(self):
        rng = random.Random(20261019)
        order = GrevLex()
        reg2 = VarRegistry(["w", "z", "x", "y"])
        for _ in range(600):
            p, q = random_poly(rng, XYZ, max_terms=5), random_poly(rng, XYZ, max_terms=4)
            fp, fq = FracPoly.of(p), FracPoly.of(q)
            s = Fraction(rng.choice([-6, -1, 1, 2, 9]), rng.choice([1, 2, 3, 4, 15]))
            n = rng.randint(-3, 3)
            assert same(p + q, fp + fq) and same(p - q, fp - fq) and same(-p, -fp)
            assert same(p * q, fp * fq) and same(q * p, fq * fp)
            assert same(p * s, fp * s) and same(s * p, fp * s) and same(p * n, fp * n)
            assert same(p / s, fp / s) and same(p + s, fp + s) and same(s - p, -(fp - s))
            k = rng.randint(0, 3)
            assert same(p**k, fp**k)
            images, fimages = {}, {}
            for name in rng.sample(XYZ.names, rng.randint(0, 3)):
                if rng.random() < 0.5:
                    images[name] = fimages[name] = rng.choice([0, 1, -2, Fraction(rng.randint(-5, 5), 3)])
                else:
                    images[name] = random_poly(rng, XYZ, max_terms=3, max_exp=2)
                    fimages[name] = FracPoly.of(images[name])
            assert same(p.subs(images), fp.subs(fimages))
            point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in XYZ.names}
            assert p.evaluate(point) == fp.evaluate(point)
            floats = {v: rng.uniform(-2, 2) for v in XYZ.names}
            assert p.evaluate(floats) == fp.evaluate(floats)
            assert same(p.map_to(reg2), fp.map_to(reg2))
            names = rng.sample(XYZ.names, rng.randint(1, 2))
            groups, fgroups = p.coefficients_in(names), fp.coefficients_in(names)
            assert list(groups) == list(fgroups)
            assert all(same(groups[k], fgroups[k]) for k in groups)
            c, prim = p.content_strip()
            fc, fprim = fp.content_strip(order)
            assert c == fc and same(prim, fprim) and same(p.primitive(), fprim)
            parsed = Poly.parse(XYZ, p.format(order))
            assert canonical(parsed) and parsed.terms == fp.terms
            if not q.is_zero():
                quotient = (p * q).divide_exact(q)
                assert canonical(quotient) and quotient.terms == fp.terms


class TestOrders:
    def test_leading_term_lex(self):
        p = P("x^2*y + z^4")
        m, c = p.leading_term(Lex())
        assert m == (2, 1, 0) and c == 1

    def test_leading_term_grevlex(self):
        p = P("x^2*y + z^4")
        m, c = p.leading_term(GrevLex())
        assert m == (0, 0, 4)

    def test_leading_term_elimination(self):
        order = elimination(XYZ, ["x"])
        m, _ = P("x + y").leading_term(order)
        assert m == (1, 0, 0)

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            Poly.zero(XYZ).leading_term(Lex())

    def test_leading_term_multiplicative(self):
        rng = random.Random(7)
        orders = [Lex(), GrevLex(), elimination(XYZ, ["y"])]
        for _ in range(300):
            p = random_poly(rng, XYZ)
            q = random_poly(rng, XYZ)
            if p.is_zero() or q.is_zero():
                continue
            for order in orders:
                mp, cp = p.leading_term(order)
                mq, cq = q.leading_term(order)
                mpq, cpq = (p * q).leading_term(order)
                assert mpq == tuple(a + b for a, b in zip(mp, mq))
                assert cpq == cp * cq

    def test_elimination_block_dominates(self):
        order = elimination(XYZ, ["x"])
        rng = random.Random(99)
        for _ in range(500):
            m = tuple(rng.randrange(4) for _ in range(3))
            m2 = (0,) + tuple(rng.randrange(4) for _ in range(2))
            if m[0] > 0:
                assert order.key(m) > order.key(m2)

    def test_weights_reproduce_key(self):
        def flatten(key):
            out = []
            for part in key:
                out.extend(flatten(part) if isinstance(part, tuple) else [part])
            return out

        rng = random.Random(11)
        orders = [
            Lex(),
            GrevLex(),
            elimination(XYZ, ["y"]),
            elimination(XYZ, ["z", "x"]),
        ]
        for order in orders:
            rows = order.weights(3)
            for _ in range(100):
                m = tuple(rng.randrange(5) for _ in range(3))
                dots = [sum(w * e for w, e in zip(row, m)) for row in rows]
                assert flatten(order.key(m)) == dots

    def test_orders_are_total_and_multiplicative(self):
        rng = random.Random(5)
        one = (0, 0, 0)
        for order in [Lex(), GrevLex(), elimination(XYZ, ["z"])]:
            for _ in range(500):
                u = tuple(rng.randrange(4) for _ in range(3))
                v = tuple(rng.randrange(4) for _ in range(3))
                w = tuple(rng.randrange(4) for _ in range(3))
                if order.key(u) < order.key(v):
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert order.key(uw) < order.key(vw)
                if u != one:
                    assert order.key(u) > order.key(one)


class TestContentStrip:
    def test_integer_content(self):
        c, q = P("32*x - 64").content_strip()
        assert c == 32
        assert q == P("x - 2")

    def test_negative_fraction_content(self):
        c, q = P("-1/2*x").content_strip()
        assert c == Fraction(-1, 2)
        assert q == P("x")

    def test_zero(self):
        c, q = Poly.zero(XYZ).content_strip()
        assert c == 1 and q.is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(500):
            p = random_poly(rng, XYZ)
            c, q = p.content_strip()
            assert q * c == p
            if not p.is_zero():
                coeffs = list(q.terms.values())
                assert all(x.denominator == 1 for x in coeffs)
                from math import gcd

                g = 0
                for x in coeffs:
                    g = gcd(g, x.numerator)
                assert g == 1
                assert q.leading_term(GrevLex())[1] > 0


class TestDivision:
    def test_exact(self):
        assert P("x^2 - 1").divide_exact(P("x - 1")) == P("x + 1")

    def test_kite_gradient_factor(self):
        reg = VarRegistry(["s", "c", "mu2", "mu4"])
        num = Poly.parse(reg, "mu2*s + 2*mu2*s*c - mu4*s - 2*mu4*s*c")
        quotient = num.divide_exact(Poly.parse(reg, "s"))
        assert quotient == Poly.parse(reg, "mu2 + 2*mu2*c - mu4 - 2*mu4*c")

    def test_non_exact_reports_remainder(self):
        with pytest.raises(ExactDivisionError) as err:
            P("x^2 + 1").divide_exact(P("x - 1"))
        assert err.value.remainder == P("2")

    def test_try_divide(self):
        assert P("x^2 - y^2").try_divide(P("x + y")) == P("x - y")
        assert P("x^2 + 1").try_divide(P("x - 1")) is None

    def test_random_products_divide_exactly(self):
        rng = random.Random(11)
        for _ in range(300):
            p = random_poly(rng, XYZ)
            d = random_poly(rng, XYZ)
            if d.is_zero():
                continue
            assert (p * d).divide_exact(d) == p

    def test_kernel_matches_the_reference_division(self):
        # Products and non-multiples by divisors with non-unit rational
        # content of either sign, one in five of them constant.
        rng = random.Random(20261018)
        order = GrevLex()
        exact = inexact = 0
        for n in range(400):
            if n % 5 == 0:
                d = Poly.constant(XYZ, Fraction(rng.choice([-7, -2, 3, 5]), rng.randint(1, 6)))
            else:
                d = random_poly(rng, XYZ, max_terms=3) * Fraction(
                    rng.choice([-6, -1, 2, 9]), rng.choice([1, 4, 15])
                )
            if d.is_zero():
                continue
            p = random_poly(rng, XYZ)
            if n % 2:
                p = p * d
            (want,), rem = reduce(p, [d], order)
            got = p.try_divide(d)
            assert (got is None) == (not rem.is_zero())
            if got is not None:
                exact += 1
                assert got == want
                continue
            inexact += 1
            with pytest.raises(ExactDivisionError) as err:
                p.divide_exact(d)
            left = err.value.remainder
            assert not left.is_zero() and (p - left).try_divide(d) is not None
        assert exact > 150 and inexact > 50

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            P("x").divide_exact(Poly.zero(XYZ))


def _subs_reference(p, mapping):
    """Substitution as a sum of one product Poly per term."""
    reg = p.registry
    images = [
        Poly.constant(reg, mapping[n])
        if isinstance(mapping.get(n), (int, Fraction))
        else mapping.get(n, Poly.variable(reg, n))
        for n in reg.names
    ]
    result = Poly.zero(reg)
    for mono, coeff in p.terms.items():
        term = Poly.constant(reg, coeff)
        for image, e in zip(images, mono):
            if e:
                term = term * image**e
        result = result + term
    return result


class TestSubstitutionAndGrouping:
    def test_subs_polynomial(self):
        p = P("x^2 + y")
        q = p.subs({"x": P("y + 1")})
        assert q == P("y^2 + 3*y + 1")

    @pytest.mark.parametrize("images", ["scalar", "poly", "mixed"])
    def test_subs_matches_term_by_term_reference(self, images):
        # The reference multiplies out and adds one Poly per term; the
        # one-pass subs must give the same terms in the same order, and the
        # substituted polynomial must evaluate like the original at the
        # images of a point.
        rng = random.Random(f"subs-{images}")
        for _ in range(40):
            p = random_poly(rng, XYZ, max_terms=6)
            mapping = {}
            for name in rng.sample(XYZ.names, rng.randint(0, 3)):
                scalar = images == "scalar" or (images == "mixed" and rng.random() < 0.5)
                if scalar:
                    mapping[name] = rng.choice([0, 1, -2, Fraction(rng.randint(-5, 5), 3)])
                else:
                    mapping[name] = random_poly(rng, XYZ, max_terms=3, max_exp=2)
            got = p.subs(mapping)
            want = _subs_reference(p, mapping)
            assert got == want
            assert list(got.terms) == list(want.terms)
            point = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for n in XYZ.names}
            moved = dict(point)
            for n, v in mapping.items():
                moved[n] = v.evaluate(point) if isinstance(v, Poly) else v
            assert got.evaluate(point) == p.evaluate(moved)

    def test_subs_keeps_the_order_of_a_cancelled_and_returning_monomial(self):
        # x and -z cancel in y; y comes back after y^2, so it is last
        p = Poly(XYZ, {(1, 0, 0): 1, (0, 0, 1): -1, (0, 2, 0): 1, (0, 1, 0): 1})
        q = p.subs({"x": P("y"), "z": P("y")})
        assert list(q.terms) == list(_subs_reference(p, {"x": P("y"), "z": P("y")}).terms)
        assert list(q.terms) == [(0, 2, 0), (0, 1, 0)]

    def test_evaluate_exact(self):
        p = P("x^2*y - 1/2*z")
        val = p.evaluate({"x": Fraction(2), "y": Fraction(3), "z": Fraction(4)})
        assert val == Fraction(10)

    def test_coefficients_in(self):
        reg = VarRegistry(["a", "b", "x"])
        p = Poly.parse(reg, "a*x^2 + b*x^2 + 3*x - a*b")
        groups = p.coefficients_in(["x"])
        assert groups[(2,)] == Poly.parse(reg, "a + b")
        assert groups[(1,)] == Poly.parse(reg, "3")
        assert groups[(0,)] == Poly.parse(reg, "-a*b")

    def test_map_to(self):
        reg2 = VarRegistry(["z", "x", "y", "w"])
        p = P("x^2 - z")
        q = p.map_to(reg2)
        assert q == Poly.parse(reg2, "x^2 - z")
        with pytest.raises(KeyError):
            P("x").map_to(VarRegistry(["y"]))


class TestTextFormat:
    def test_parse_examples(self):
        p = P("-3/2*x^2*y + z - 7")
        assert p.terms == {(2, 1, 0): Fraction(-3, 2), (0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-7)}

    def test_star_optional_after_coefficient(self):
        assert P("3x") == P("3*x")
        assert P("1/2x^2y") == P("1/2*x^2*y")

    def test_format_canonical(self):
        p = P("z - 7 - 3/2*x^2*y")
        assert p.format(Lex()) == "-3/2*x^2*y + z - 7"
        assert Poly.zero(XYZ).format() == "0"
        assert P("-x").format(Lex()) == "-x"

    def test_roundtrip_random(self):
        rng = random.Random(3)
        order = GrevLex()
        for _ in range(400):
            p = random_poly(rng, XYZ)
            assert Poly.parse(XYZ, p.format(order)) == p

    def test_rejects_garbage(self):
        for bad in ["", "x +", "^2", "x^", "3//4", "x y $", "(x+1)"]:
            with pytest.raises(ValueError):
                P(bad)

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            P("w + 1")


class TestSqrt2:
    def test_subtraction_of_an_unsupported_operand_is_a_type_error(self):
        # __sub__ and __rsub__ hand the operand back with NotImplemented, so
        # Python names both types instead of failing inside the method
        one = Sqrt2(Fraction(1))
        for left, right in ((one, 1.5), (1.5, one), (one, P("x")), (P("x"), one)):
            names = f"'{type(left).__name__}' and '{type(right).__name__}'"
            with pytest.raises(TypeError, match=f"unsupported operand .* {names}"):
                left - right

    def test_subtraction_by_parts(self):
        x = Sqrt2(Fraction(1), Fraction(2))
        assert x - 3 == Sqrt2(Fraction(-2), Fraction(2))
        assert 3 - x == Sqrt2(Fraction(2), Fraction(-2))
        assert x - x == 0

    def test_poly_parts_make_a_ring_over_one_registry(self):
        # (x + y sqrt2)(x - y sqrt2) = x^2 - 2 y^2, as in the rectangle's
        # symbolic Hessian
        zero = Poly.zero(XYZ)
        u = Sqrt2(P("x"), P("y"))
        v = Sqrt2(P("x"), -P("y"))
        assert u * v == Sqrt2(P("x^2 - 2*y^2"), zero)
        assert u - v == Sqrt2(zero, P("2*y")) and u + v - 2 * u == v - u
        assert 1 - Sqrt2(P("x"), zero) == Sqrt2(P("1 - x"), zero)


def test_mono_degree():
    assert mono_degree((1, 2, 0)) == 3


# gcd/lcm calls allowed to unpack their arguments, as "file:line" -> reason
STARRED_GCD_ALLOWED = {}


def test_no_gcd_or_lcm_unpacks_a_generator():
    # The rule of the ratpoly module docstring: fold with ``reduce``.  An
    # argument tuple of 20 items, or of 11 to 20 grown from a generator,
    # goes on a CPython free list that only a full collection empties, so
    # no call unpacks its arguments unless STARRED_GCD_ALLOWED says why.
    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(vortexsym.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and name(node.func) in ("gcd", "lcm")
        and any(isinstance(arg, ast.Starred) for arg in node.args)
    ]
    assert sorted(set(found) - set(STARRED_GCD_ALLOWED)) == []

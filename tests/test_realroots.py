"""Root isolation, Descartes/Sturm counting, inertia, and Hermite counting."""

import pickle
import random
from copy import deepcopy
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

import vortexsym.realroots as realroots_module
from vortexsym.groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    normal_form,
    standard_monomials,
)
from vortexsym.ratpoly import GrevLex, Poly, RegistryMismatchError, Sqrt2, VarRegistry
from vortexsym.realroots import (
    IsolatingInterval,
    PositiveDimensionalError,
    RatInterval,
    SymMatrix,
    char_poly,
    coeffs_from_poly,
    descartes_positive,
    hermite_count,
    hermite_matrix,
    eval_interval,
    inertia,
    int_char_poly,
    int_coeffs,
    poly_gcd,
    squarefree_part,
    sturm_isolate,
)
from vortexsym.realroots import (
    _border_normal_forms,
    _components,
    _neg_div_int,
    _neg_div_sparse,
    _primitive_int,
    sign_at,
    _sturm_chain,
    _variations,
)

from reference import eval_at, reference_char_poly, reference_hermite

X = VarRegistry(["x"])


def F(*ints):
    return [Fraction(c) for c in ints]


def positive_roots(coeffs):
    # every isolating interval lies on one side of 0, the first bisection
    # point, so a positive root is one whose interval ends above 0
    return sum(iv.hi > 0 for iv in sturm_isolate(coeffs))


# ascending coefficients of the two heavily used reference polynomials
B_QUINTIC = F(-8, 22, -54, 117, -98, 17)
G_OF_R = F(-1, 0, 33, 0, -202, 0, 146, 0, -117, 0, 13)


class TestDescartes:
    def test_quintic_bound_versus_sturm(self):
        changes, exact = descartes_positive(B_QUINTIC)
        assert changes == 5 and not exact
        assert positive_roots(B_QUINTIC) == 3

    def test_no_positive_roots(self):
        changes, exact = descartes_positive(F(1, 0, 1))  # x^2 + 1
        assert changes == 0 and exact

    def test_two_positive_roots(self):
        # x^2 - 3x + 2 = (x-1)(x-2)
        changes, _ = descartes_positive(F(2, -3, 1))
        assert changes == 2
        assert positive_roots(F(2, -3, 1)) == 2


class TestSturmIsolation:
    def test_g_of_r_six_roots(self):
        roots = sturm_isolate(G_OF_R)
        assert len(roots) == 6
        values = sorted(float(iv.refine(Fraction(1, 10**8))) for iv in roots)
        expected = [-2.79493, -0.375563, -0.199167, 0.199167, 0.375563, 2.79493]
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-5

    def test_b_quintic_roots(self):
        roots = sturm_isolate(B_QUINTIC)
        values = sorted(float(iv.refine(Fraction(1, 10**8))) for iv in roots)
        assert len(values) == 3
        for got, want in zip(values, [0.638032, 0.843716, 4.330096]):
            assert abs(got - want) < 1e-5

    def test_sqrt2(self):
        roots = sturm_isolate(F(-2, 0, 1))
        assert len(roots) == 2
        assert abs(float(roots[0]) + 1.41421) < 1e-2 or roots[0].lo < 0
        refined = roots[1].refine(Fraction(1, 10**9))
        assert abs(float(refined) - 1.414213562) < 1e-9
        assert refined.width() < Fraction(1, 10**9)

    def test_exact_rational_roots(self):
        # x(x-1)(x^2-2): roots 0, 1 and +-sqrt(2)
        q = _mul(_mul(F(0, 1), F(-1, 1)), F(-2, 0, 1))
        roots = sturm_isolate(q)
        assert len(roots) == 4
        # the bisection midpoint of the symmetric start interval is 0, so the
        # rational root there is reported exactly
        assert any(iv.exact and iv.lo == 0 for iv in roots)
        assert any(iv.contains(Fraction(1)) for iv in roots)
        one = next(iv for iv in roots if iv.contains(Fraction(1)))
        assert abs(float(one.refine(Fraction(1, 10**9))) - 1.0) < 1e-9

    def test_from_poly(self):
        p = Poly.parse(X, "x^2 - 2")
        assert len(sturm_isolate(coeffs_from_poly(p, "x"))) == 2

    def test_no_real_roots(self):
        assert sturm_isolate(F(1, 0, 1)) == []

    def test_multiple_roots_counted_once(self):
        # (x-1)^2 (x+2)
        p = _mul(_mul(F(-1, 1), F(-1, 1)), F(2, 1))
        assert len(sturm_isolate(p)) == 2

    def test_refine_halves_and_keeps_sign_change(self):
        iv = sturm_isolate(F(-2, 0, 1))[1]
        assert not iv.exact
        w0 = iv.width()
        refined = iv.refine(w0 / 16)
        assert refined.width() < w0 / 16
        assert iv.lo <= refined.lo and refined.hi <= iv.hi
        if not refined.exact:
            p = list(refined.coeffs)
            assert eval_at(p, refined.lo) * eval_at(p, refined.hi) < 0

    def test_refine_returns_a_value_and_leaves_the_receiver(self):
        iv = sturm_isolate(F(-2, 0, 1))[1]
        before = (iv.lo, iv.hi, iv.coeffs)
        refined = iv.refine(Fraction(1, 10**6))
        assert (iv.lo, iv.hi, iv.coeffs) == before
        assert refined.coeffs == iv.coeffs
        # an enclosure is an interval: it goes straight into interval arithmetic
        assert isinstance(refined, RatInterval)
        assert eval_interval([-2, 0, 1], refined).contains(0)
        assert (refined * refined).contains(2)
        copy = pickle.loads(pickle.dumps(refined))
        assert (copy.lo, copy.hi, copy.coeffs) == (refined.lo, refined.hi, refined.coeffs)
        # an exact root is already as narrow as it gets
        exact = next(r for r in sturm_isolate(F(0, -1, 1)) if r.exact)
        assert exact.refine(Fraction(1, 10**6)) is exact

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 4 + Fraction(1, 2**193)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(4), Fraction(4)),
            (Fraction(2), 2 + Fraction(1, 10**70)),
            (0, Fraction(1, 2**200)),
        ],
    )
    def test_sqrt_encloses_the_roots_of_both_ends(self, lo, hi):
        # the upper end is rounded up from hi itself: flooring hi onto the
        # 2^-192 grid first put sqrt(4 + 2^-193) at exactly 2, below the root
        root = RatInterval(lo, hi).sqrt()
        assert root.lo >= 0
        assert root.lo * root.lo <= lo and root.hi * root.hi >= hi

    def test_meets_is_a_closed_overlap(self):
        unit = RatInterval(0, 1)
        assert unit.meets(RatInterval(1, 2)) and RatInterval(1, 2).meets(unit)
        assert unit.meets(RatInterval(Fraction(1, 3))) and unit.meets(RatInterval(-1, 5))
        assert not unit.meets(RatInterval(Fraction(11, 10), 2))
        assert not RatInterval(-2, Fraction(-1, 10**30)).meets(unit)

    @pytest.mark.parametrize("eps", [0, Fraction(0), -1, Fraction(-1, 10**9), -0.5])
    def test_refine_rejects_non_positive_eps(self, eps):
        for iv in sturm_isolate(_mul(F(-1, 1), F(-2, 0, 1))):  # 1 exact, +-sqrt(2)
            with pytest.raises(ValueError):
                iv.refine(eps)

    def test_randomized_against_product_construction(self):
        rng = random.Random(1234)
        for _ in range(40):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
            p = [Fraction(1)]
            for r in roots:
                p = _mul(p, F(-r, 1))
            intervals = sturm_isolate(p)
            assert len(intervals) == len(roots)
            for iv, r in zip(intervals, roots):
                assert iv.contains(Fraction(r))


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestSquarefree:
    def test_strips_repeated_factors(self):
        p = _mul(_mul(F(-1, 1), F(-1, 1)), F(1, 1))
        sf = squarefree_part(p)
        assert len(sf) == 3  # degree 2: (x-1)(x+1)
        assert len(sturm_isolate(sf)) == 2

    def test_positive_multiple_of_the_quotient_by_the_gcd(self):
        # x^2 (x + 1) and its negative: gcd(p, p') = x, taken positive-leading
        assert squarefree_part([0, 0, 1, 1]) == [0, 1, 1]
        assert squarefree_part([0, 0, -2, -2]) == [0, -1, -1]
        for p in _test_polys(13, 40):
            sf, want = squarefree_part(p), reference_squarefree(p)
            ratios = {Fraction(c) / w for c, w in zip(sf, want) if w}
            assert len(sf) == len(want) and len(ratios) == 1
            assert sf[-1] * p[-1] > 0

    def test_gcd_is_positive_leading(self):
        assert poly_gcd([0, 0, 1, 1], [0, 2, 3]) == [0, 1]
        assert poly_gcd([0, 0, -1, -1], [0, -2, -3]) == [0, 1]
        assert poly_gcd([-4], [6]) == [1]
        assert poly_gcd([], []) == []


class TestInertia:
    def test_diag(self):
        assert inertia(SymMatrix([[2, 0], [0, -1]])) == (1, 1, 0)

    def test_zero_block(self):
        m = SymMatrix([[0, 0, 0], [0, 3, 0], [0, 0, -5]])
        assert inertia(m) == (1, 1, 1)

    def test_offdiagonal_zero_diagonal(self):
        # [[0,1],[1,0]] has eigenvalues +-1
        assert inertia(SymMatrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_charpoly_and_congruence_agree(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            assert inertia(SymMatrix(sym)) == reference_inertia(sym), sym

    @pytest.mark.parametrize("shape", ["dense", "zero_diagonal", "low_rank"])
    def test_congruence_agrees_with_charpoly_on_rational_matrices(self, shape):
        # Non-integer entries exercise the cleared denominators, zero
        # diagonals the congruence step, and U diag(d) U^T with negative and
        # zero d negative pivots and rank deficiency.
        rng = random.Random(f"inertia-{shape}")

        def q():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

        for n in range(1, 13):
            for _ in range(2):
                if shape == "low_rank":
                    u = [[q() for _ in range(n)] for _ in range(n)]
                    d = [rng.choice([Fraction(0), -q() ** 2 - 1, q() ** 2 + 1]) for _ in range(n)]
                    sym = [
                        [sum(u[i][k] * d[k] * u[j][k] for k in range(n)) for j in range(n)]
                        for i in range(n)
                    ]
                else:
                    a = [[q() for _ in range(n)] for _ in range(n)]
                    sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
                    if shape == "zero_diagonal":
                        for i in range(n):
                            sym[i][i] = Fraction(0)
                assert inertia(SymMatrix(sym)) == reference_inertia(sym), sym

    def test_congruence_invariance_random_unimodular(self):
        rng = random.Random(99)
        base = SymMatrix([[2, 1, 0], [1, -3, 1], [0, 1, 0]])
        want = inertia(base)
        n = base.n
        for _ in range(10):
            u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                for k in range(n):
                    u[i][k] += c * u[j][k]
            # congruent matrix u * A * u^T
            au = [[sum(base.rows[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
            m = [[sum(u[i][k] * au[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert inertia(SymMatrix(m)) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_block_diagonal_matches_blockwise_reference(self, seed):
        # Dense, zero, zero-diagonal, zero-first-pivot and negative definite
        # blocks, scattered by one symmetric permutation: the inertia must
        # find the blocks wherever their indices land and add up their
        # inertias.
        rng = random.Random(f"blocks-{seed}")

        def q():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        blocks = []
        for _ in range(rng.randint(2, 5)):
            k = rng.randint(1, 4)
            kind = rng.choice(["dense", "zero", "zero_diagonal", "zero_first", "negative"])
            a = [[q() for _ in range(k)] for _ in range(k)]
            if kind == "zero":
                b = [[Fraction(0)] * k for _ in range(k)]
            elif kind == "negative":  # -(a a^T + I)
                b = [
                    [-sum(a[i][t] * a[j][t] for t in range(k)) - (i == j) for j in range(k)]
                    for i in range(k)
                ]
            else:
                b = [[a[i][j] + a[j][i] for j in range(k)] for i in range(k)]
                if kind == "zero_diagonal":
                    for i in range(k):
                        b[i][i] = Fraction(0)
                elif kind == "zero_first":
                    b[0][0] = Fraction(0)
            blocks.append(b)
        n = sum(len(b) for b in blocks)
        diag = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                diag[at + i][at : at + len(b)] = row
            at += len(b)
        perm = rng.sample(range(n), n)
        m = [[diag[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        want = [sum(parts) for parts in zip(*map(reference_inertia, blocks))]
        assert list(inertia(SymMatrix(m))) == want

    def test_components_follow_the_nonzero_pattern(self):
        m = [[1, 0, 2, 0], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, -1]]
        assert _components(m) == [[0, 2], [1], [3]]

    def test_rational_and_integer_construction_agree(self):
        rng = random.Random(13)
        for n in range(5):
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            den = 3 * lcm(1, *(c.denominator for row in sym for c in row))
            ints = [[int(c * den) for c in row] for row in sym]
            from_rationals = SymMatrix(sym)
            from_ints = SymMatrix.over(ints, den)
            assert from_ints.n == from_rationals.n == n
            assert from_ints.rows == from_rationals.rows
            assert from_ints.rows == tuple(map(tuple, sym))
            assert inertia(from_ints) == inertia(from_rationals) == reference_inertia(sym)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1, 2], [3, 4]])

    def test_attributes_cannot_be_assigned_and_survive_pickle_and_deepcopy(self):
        m = SymMatrix.over(((1,),), 1)
        with pytest.raises(AttributeError):
            m.den = 2
        with pytest.raises(AttributeError):
            del m.ints
        assert m.rows == ((Fraction(1),),)
        h = SymMatrix([[Fraction(1, 2), 3], [3, -1]])
        for copy in (pickle.loads(pickle.dumps(h, pickle.HIGHEST_PROTOCOL)), deepcopy(h)):
            assert (copy.ints, copy.den, copy.n) == (h.ints, h.den, h.n)
            with pytest.raises(AttributeError):
                copy.n = 3

    def test_sums_to_dimension(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            assert sum(inertia(SymMatrix(sym))) == n


class TestCharPoly:
    def test_known_2x2(self):
        p = char_poly([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
        assert p == [Fraction(3), Fraction(-4), Fraction(1)]

    def test_matches_eigen_structure(self):
        # companion matrix of x^3 - 2x^2 - 5x + 6 = (x-1)(x+2)(x-3)
        c = [[0, 0, -6], [1, 0, 5], [0, 1, 2]]
        p = char_poly([[Fraction(v) for v in row] for row in c])
        assert p == [Fraction(-6), Fraction(5), Fraction(2), Fraction(1)] or p == [
            Fraction(6),
            Fraction(-5),
            Fraction(-2),
            Fraction(1),
        ]


class TestHermite:
    def test_two_real_roots(self):
        reg = X
        ideal = Ideal.of(Poly.parse(reg, "x^2 - 1"))
        assert hermite_count(ideal) == (2, 2)

    def test_two_complex_roots(self):
        ideal = Ideal.of(Poly.parse(X, "x^2 + 1"))
        assert hermite_count(ideal) == (0, 2)

    def test_mixed_system(self):
        # (x^2-1)(x^2+1): 2 real of 4 complex
        ideal = Ideal.of(Poly.parse(X, "x^4 - 1"))
        assert hermite_count(ideal) == (2, 4)

    def test_bivariate_circle_line(self):
        reg = VarRegistry(["x", "y"])
        ideal = Ideal.of(Poly.parse(reg, "x^2 + y^2 - 1"), Poly.parse(reg, "y"))
        assert hermite_count(ideal) == (2, 2)

    def test_positive_dimensional_signal(self):
        reg = VarRegistry(["x", "y"])
        with pytest.raises(PositiveDimensionalError):
            hermite_count(Ideal.of(Poly.parse(reg, "x*y - 1")))

    def test_matches_sturm_on_random_univariate(self):
        rng = random.Random(2024)
        trials = 0
        while trials < 20:
            deg = rng.randint(2, 6)
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [Fraction(rng.randint(1, 6))]
            sf = squarefree_part(coeffs)
            if len(sf) < 3:
                continue
            trials += 1
            p = Poly(X, {(i,): c for i, c in enumerate(sf)})
            real, cplx = hermite_count(Ideal.of(p))
            assert real == len(sturm_isolate(sf))
            assert cplx == len(sf) - 1  # squarefree: all complex roots distinct
            assert real <= cplx

    def test_hermite_matrix_matches_fraction_reference_on_cubic_system(self):
        reg = VarRegistry(["x", "y"])
        u = Poly.parse(reg, "x + y")
        v = Poly.parse(reg, "x - 2*y")
        f = u**3 - Fraction(1, 2) * u**2 - 2 * u + 1
        g = v**3 + Fraction(2, 3) * v - 1
        gb = buchberger(Ideal.of(f + g, f - 2 * g), GrevLex())
        h = hermite_matrix(gb)
        assert h.n == 9
        assert [list(row) for row in h.rows] == reference_hermite(gb)

    def test_hermite_matrix_matches_fraction_reference_on_sphere_basis(self, trapezoid_report):
        gb = trapezoid_report.artifacts["annihilating_lines"].sphere_gb
        h = hermite_matrix(gb)
        assert h.n == 50
        assert [list(row) for row in h.rows] == reference_hermite(gb)
        assert inertia(h) == (30, 10, 10)
        # the x -> -x parity of the ideal splits H into two blocks
        assert [len(b) for b in _components(h.ints)] == [25, 25]

    @pytest.mark.parametrize(
        "gens, count",
        [(("x^2 - 2", "y^2 - 3"), (4, 4)), (("x^2 + 2", "y^3 - y"), (0, 6))],
    )
    def test_hermite_count_on_parity_symmetric_ideals(self, gens, count):
        # Each generator is even or odd in each variable, so H_ij vanishes
        # whenever m_i * m_j is odd in some variable and H splits into blocks.
        reg = VarRegistry(["x", "y"])
        ideal = Ideal.of(*(Poly.parse(reg, g) for g in gens))
        assert hermite_count(ideal) == count
        gb = buchberger(ideal, GrevLex())
        h = hermite_matrix(gb)
        assert [list(row) for row in h.rows] == reference_hermite(gb)
        assert len(_components(h.ints)) > 1

    def test_hermite_matrix_univariate_power_sums(self):
        gb = buchberger(Ideal.of(Poly.parse(X, "x^2 - 1")), GrevLex())
        h = hermite_matrix(gb)
        assert h.rows == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))

    def test_a_point_has_the_unit_trace_form(self):
        reg = VarRegistry(["x", "y", "z"])
        gb = buchberger(Ideal.of(*(Poly.variable(reg, v) for v in "xyz")), GrevLex())
        h = hermite_matrix(gb)
        assert (h.ints, h.den) == (((1,),), 1)

    def test_every_perturbed_border_entry_breaks_the_symmetry(self, monkeypatch):
        # each off-diagonal entry is read off two transposed products; a
        # wrong multiplication column makes the two copies disagree
        reg = VarRegistry(["x", "y"])
        u = Poly.parse(reg, "x + y")
        v = Poly.parse(reg, "x - 2*y")
        f = u**3 - Fraction(1, 2) * u**2 - 2 * u + 1
        g = v**3 + Fraction(2, 3) * v - 1
        gb = buchberger(Ideal.of(f + g, f - 2 * g), GrevLex())
        basis = standard_monomials(gb).standard_monomials
        table = _border_normal_forms(gb, basis)
        for t, (coords, e) in table.items():
            for k in range(len(basis)):
                wrong = [x + (j == k) for j, x in enumerate(coords)]
                perturbed = {**table, t: (wrong, e)}
                monkeypatch.setattr(realroots_module, "_border_normal_forms", lambda *_: perturbed)
                with pytest.raises(ValueError, match=r"not symmetric at \(\d+,\d+\)"):
                    hermite_matrix(gb)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hermite_matrix_matches_fraction_reference_on_dense_trivariate_cubics(self, seed):
        # three dense cubics with a pure cube each: 27 solutions, a 27 x 27
        # trace form with large entries
        reg = VarRegistry(["x", "y", "z"])
        rng = random.Random(seed)
        gens = []
        for i in range(3):
            terms = {
                m: rng.randint(-2, 2) if sum(m) < 3 else rng.randint(-1, 1)
                for m in product(range(4), repeat=3)
                if sum(m) <= 3
            }
            terms[tuple(3 * (j == i) for j in range(3))] = 1
            gens.append(Poly(reg, terms))
        gb = buchberger(Ideal.of(*gens), GrevLex())
        h = hermite_matrix(gb)
        assert h.n == 27
        assert [list(row) for row in h.rows] == reference_hermite(gb)

    def test_basis_that_is_not_reduced_is_named(self):
        # y is a leading monomial, so the tail of x^2 + y - 2 is not standard
        reg = VarRegistry(["x", "y"])
        gb = GroebnerBasis(
            [Poly.parse(reg, "y - 1"), Poly.parse(reg, "x^2 + y - 2")], reg, GrevLex()
        )
        with pytest.raises(ValueError, match=r"x\^2 \+ y - 2"):
            hermite_matrix(gb)


def _random_cubic(rng, reg):
    """A dense cubic in x, y with small integer coefficients."""
    return Poly(
        reg,
        {(i, j): Fraction(rng.randint(-4, 4)) for i in range(4) for j in range(4 - i)},
    ) + Poly.parse(reg, "x^3 + y^3")


def _property_bases():
    reg = VarRegistry(["x", "y"])
    rng = random.Random(1993)
    gbs = []
    while len(gbs) < 6:
        gb = buchberger(Ideal.of(_random_cubic(rng, reg), _random_cubic(rng, reg)), GrevLex())
        if standard_monomials(gb).finite:
            gbs.append(pytest.param(gb, id=f"cubic{len(gbs)}"))
    # ideals with multiple roots, so that the trace form is singular
    for gens in (
        ("x^2", "y^2"),
        ("x^3", "x*y", "y^2"),
        ("x^2 - 2*x + 1", "x*y + 2*x - y - 2", "y^3 + 6*y^2 + 12*y + 8"),
        ("x^2 - 2*x*y + y^2", "y^3 - y"),
    ):
        gb = buchberger(Ideal.of(*(Poly.parse(reg, g) for g in gens)), GrevLex())
        gbs.append(pytest.param(gb, id=",".join(gens)))
    return gbs


@pytest.mark.parametrize("gb", _property_bases())
def test_border_normal_forms_and_hermite_matrix_match_references(gb):
    basis = standard_monomials(gb).standard_monomials
    border = _border_normal_forms(gb, basis)
    assert border.keys() == {
        m[:v] + (m[v] + 1,) + m[v + 1 :] for m in basis for v in range(2)
    } - set(basis)
    for t, (u, e) in border.items():
        nf = normal_form(Poly(gb.registry, {t: Fraction(1)}), gb)
        assert {basis[k]: Fraction(x, e) for k, x in enumerate(u) if x} == nf.terms, t
        # primitive: e is the least common denominator of the normal form
        assert e == lcm(*(c.denominator for c in nf.terms.values())), t
    h = hermite_matrix(gb)
    assert [list(row) for row in h.rows] == reference_hermite(gb)


def test_coeffs_from_poly_rejects_multivariate():
    reg = VarRegistry(["x", "y"])
    with pytest.raises(ValueError):
        coeffs_from_poly(Poly.parse(reg, "x*y"), "x")
    with pytest.raises(ValueError):
        int_coeffs(Poly.parse(reg, "x*y"), "x")


def test_int_coeffs_are_the_numerators_over_the_denominator():
    reg = VarRegistry(["x", "y"])
    p = Poly.parse(reg, "3/4*x^3 - 1/6*x + 5/2")
    ints = int_coeffs(p, "x")
    assert ints == [30, -2, 0, 9] and p.den == 12
    assert coeffs_from_poly(p, "x") == [Fraction(c, p.den) for c in ints]
    assert all(type(c) is int for c in ints)
    ends = [
        [(iv.lo, iv.hi, iv.coeffs) for iv in sturm_isolate(c)]
        for c in (ints, coeffs_from_poly(p, "x"))
    ]
    assert ends[0] == ends[1]
    assert int_coeffs(Poly.zero(reg), "x") == coeffs_from_poly(Poly.zero(reg), "x") == []


def test_isolating_interval_float():
    iv = IsolatingInterval(Fraction(1), Fraction(2), (Fraction(-3), Fraction(0), Fraction(1)))
    assert float(iv) == 1.5


# ---------------------------------------------------------------------------
# Integer kernels against Fraction references written here
# ---------------------------------------------------------------------------


def _sign(v):
    return (v > 0) - (v < 0)


def _trimmed(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    """Remainder of a by b over Q."""
    a = _trimmed(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a = _trimmed(a[:-1])
    return a


def _div(a, b):
    """Exact quotient of a by b over Q."""
    a, q = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    assert not any(a)
    return q


def reference_squarefree(p):
    p = _trimmed(p)
    a, b = p, _trimmed(i * c for i, c in enumerate(p))[1:]
    while b:
        a, b = b, _rem(a, b)
    return _div(p, a)


def reference_sturm_chain(p):
    """Classical Sturm chain over Q: p, p', then negated remainders."""
    chain = [_trimmed(p), [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def reference_variations(chain, x):
    signs = [s for s in (_sign(eval_at(p, x)) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def reference_isolate(p):
    """Sturm bisection with Fraction endpoints and Fraction signs."""
    sf = reference_squarefree(p)
    chain = reference_sturm_chain(sf)
    bound = 1 + max(abs(c) for c in sf[:-1]) / abs(sf[-1])

    def count(lo, hi):
        return reference_variations(chain, lo) - reference_variations(chain, hi)

    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = count(lo, hi)
        if n == 1:
            out.append((lo, hi))
        if n < 2:
            continue
        mid = (lo + hi) / 2
        if eval_at(sf, mid) == 0:
            out.append((mid, mid))
            delta = (hi - lo) / 4
            while not (
                eval_at(sf, mid - delta) and eval_at(sf, mid + delta) and count(mid - delta, mid + delta) == 1
            ):
                delta /= 2
            stack += [(lo, mid - delta), (mid + delta, hi)]
        else:
            stack += [(lo, mid), (mid, hi)]
    return sorted(out), sf


def reference_refine(lo, hi, sf, eps):
    s_lo = _sign(eval_at(sf, lo))
    while lo != hi and hi - lo >= eps:
        mid = (lo + hi) / 2
        s = _sign(eval_at(sf, mid))
        if s == 0:
            lo = hi = mid
        elif s == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_inertia(sym):
    """(n_pos, n_neg, n_zero) by Descartes' rule on the characteristic
    polynomial: exact for a symmetric matrix, whose roots are all real."""
    p = reference_char_poly(sym)
    n_zero = next(i for i, c in enumerate(p) if c)
    core = p[n_zero:]

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    flipped = [c if i % 2 == 0 else -c for i, c in enumerate(core)]
    return changes(core), changes(flipped), n_zero


def _random_rational(rng, num=9, den=6):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _from_roots(rng, lead):
    """lead * prod (x - r) * (x^2 - k) over random rational roots r, some
    repeated, and a quadratic with irrational or no real roots; the
    product is often even or odd, so chains skip degrees."""
    roots = [_random_rational(rng, 6, 3) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        roots += [-r for r in roots]
    p = [Fraction(lead)]
    for r in roots + roots[: rng.randint(0, 1)]:
        p = _mul(p, [-r, Fraction(1)])
    return _mul(p, F(-rng.choice([-1, 2, 3, 5]), 0, 1))


def _random_poly(rng):
    deg = rng.randint(1, 7)
    p = [_random_rational(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(deg)]
    return p + [_random_rational(rng) or Fraction(-1)]


def _test_polys(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield _random_poly(rng)
        else:
            yield _from_roots(rng, rng.choice([-1, 1]) * _random_rational(rng, 5, 4) or 1)


class TestIntegerKernels:
    def test_integer_sign_matches_eval_at(self):
        rng = random.Random(11)
        for p in _test_polys(11, 60):
            ints = _primitive_int(p)
            # the integer numerators of a Poly, another positive multiple
            numerators = int_coeffs(Poly(X, {(i,): c for i, c in enumerate(p) if c}), "x")
            points = [_random_rational(rng, 40, 16) for _ in range(8)]
            points += [-p[0], Fraction(0), Fraction(1, 3)]
            points += [iv.lo for iv in sturm_isolate(p) if iv.exact]
            for x in points:
                want = _sign(eval_at(p, x))
                assert sign_at(ints, x.numerator, x.denominator) == want, (p, x)
                assert sign_at(numerators, x.numerator, x.denominator) == want, (p, x)
                # an unreduced numerator/denominator pair gives the same sign
                assert sign_at(ints, 6 * x.numerator, 6 * x.denominator) == want

    def test_integer_char_poly_roots_match_the_fraction_reference(self):
        # B = E D E^-1 over elementary integer E has the rational eigenvalues
        # D; lambda is a root of det(lambda*I - B) exactly when d*lambda is a
        # root of int_char_poly(d*B)
        rng = random.Random(16)
        for trial in range(40):
            n = rng.randint(1, 5)
            eigs = [_random_rational(rng, 6, 4) for _ in range(n)]
            b = [[eigs[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    b[i][j] = _random_rational(rng)
            for _ in range(2 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                k = rng.randint(-2, 2)
                b[i] = [x + k * y for x, y in zip(b[i], b[j])]
                for row in b:
                    row[j] -= k * row[i]
            d = lcm(*(c.denominator for row in b for c in row))
            p = int_char_poly([[int(c * d) for c in row] for row in b])
            ref = reference_char_poly(b)
            for x in eigs + [_random_rational(rng, 40, 16) for _ in range(4)]:
                want = _sign(eval_at(ref, x))
                assert sign_at(p, d * x.numerator, x.denominator) == want, (b, x)
                if x in eigs:
                    assert want == 0

    def test_sturm_chains_with_negative_leading_coefficients(self):
        rng = random.Random(12)
        for p in _test_polys(12, 60):
            if p[-1] > 0:
                p = [-c for c in p]
            sf = reference_squarefree(p)
            chain = _sturm_chain(_primitive_int(sf))
            ref = reference_sturm_chain(sf)
            assert len(chain) == len(ref)
            for member, want in zip(chain, ref):
                # a positive multiple of the chain member over Q
                ratios = {Fraction(c) / w for c, w in zip(member, want) if w}
                assert len(ratios) == 1 and min(ratios) > 0
                assert [c == 0 for c in member] == [w == 0 for w in want]
            assert len(sturm_isolate(p)) == len(reference_isolate(p)[0])
            for _ in range(6):
                lo, hi = sorted(_random_rational(rng, 30, 8) for _ in range(2))
                if eval_at(sf, lo) and eval_at(sf, hi):
                    want = reference_variations(ref, lo) - reference_variations(ref, hi)
                    got = _variations(chain, lo.numerator, lo.denominator)
                    got -= _variations(chain, hi.numerator, hi.denominator)
                    assert got == want

    def test_isolate_and_refine_match_fraction_bisection(self):
        for p in _test_polys(13, 50):
            want, sf = reference_isolate(p)
            intervals = sturm_isolate(p)
            assert [(iv.lo, iv.hi) for iv in intervals] == want
            for iv, eps in zip(intervals, [Fraction(1, 10**6), Fraction(1, 3), 10**-9, 1]):
                for step in (eps, eps / 1000):
                    want_lo, want_hi = reference_refine(iv.lo, iv.hi, sf, step)
                    iv = iv.refine(step)
                    assert (iv.lo, iv.hi) == (want_lo, want_hi)

    def test_char_poly_matches_fraction_reference(self):
        rng = random.Random(14)
        kinds = ["integer", "rational", "zero_row", "negative", "mixed"]
        for trial in range(60):
            kind = kinds[trial % len(kinds)]
            n = rng.randint(0, 5)
            if kind == "integer":
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            elif kind == "negative":
                rows = [[-Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            elif kind == "mixed":
                rows = [[rng.choice([rng.randint(-5, 5), _random_rational(rng)]) for _ in range(n)] for _ in range(n)]
            else:
                rows = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
                if kind == "zero_row" and n:
                    rows[rng.randrange(n)] = [Fraction(0)] * n
            p = char_poly(rows)
            assert p == reference_char_poly(rows), rows
            assert all(type(c) is Fraction for c in p)


def _random_entry_poly(rng, reg):
    """A sparse Poly of degree <= 2 with signed rational coefficients; zero
    about one time in six."""
    terms = {}
    if rng.random() < 5 / 6:
        for _ in range(rng.randint(1, 3)):
            mono = [0] * len(reg)
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(len(reg))] += 1
            terms[tuple(mono)] = _random_rational(rng) or Fraction(-1)
    return Poly(reg, terms)


def _assert_same_coefficients(p, want, reg, rows):
    """``p`` is all ``Poly``s over ``reg`` and equals ``want`` converted to them."""
    want = [c if isinstance(c, Poly) else Poly.constant(reg, c) for c in want]
    assert all(isinstance(c, Poly) and c.registry == reg for c in p), rows
    assert p == want, rows


class TestFractionFreeRings:
    def test_poly_matrices_match_fraction_reference(self):
        rng = random.Random(15)
        names = ["x", "y", "z"]
        for trial in range(45):
            reg = VarRegistry(names[: 1 + trial % 3])
            n = 1 + trial % 5
            kind = rng.choice(["poly", "mixed", "negative", "off_diagonal"])
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    if kind == "poly" or (kind == "off_diagonal" and i != j and rng.random() < 0.5):
                        entry = _random_entry_poly(rng, reg)
                    elif kind == "negative":
                        entry = -1 * _random_entry_poly(rng, reg) if rng.random() < 0.5 else -rng.randint(1, 9)
                    elif kind == "mixed":
                        entry = rng.choice([_random_entry_poly(rng, reg), rng.randint(-5, 5), _random_rational(rng)])
                    else:
                        entry = rng.choice([rng.randint(-5, 5), _random_rational(rng)])
                    row.append(entry)
                rows.append(row)
            if not any(isinstance(c, Poly) for row in rows for c in row):
                rows[0][-1] = _random_entry_poly(rng, reg) + Poly.variable(reg, "x")
            _assert_same_coefficients(char_poly(rows), reference_char_poly(rows), reg, rows)

    def test_sqrt2_entries_raise(self):
        # Q(sqrt(2)) matrices have no characteristic-polynomial path; the
        # rectangle decides its nondegeneracy by a 3x3 minor instead
        r2 = Sqrt2(Fraction(0), Fraction(1))
        for rows in ([[r2, 0], [0, r2]], [[1, r2], [r2, 1]], [[Sqrt2(Fraction(1))]]):
            with pytest.raises(TypeError):
                char_poly(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2]], [[1, 2], [3]], [[1], [2]], [[Sqrt2(Fraction(1)), 2], [3]]],
        ids=["one_row", "ragged", "tall", "ragged_sqrt2"],
    )
    def test_non_square_rows_raise(self, rows):
        with pytest.raises(ValueError):
            char_poly(rows)

    def test_mixed_registries_raise(self):
        x = Poly.variable(VarRegistry(["x"]), "x")
        y = Poly.variable(VarRegistry(["y"]), "y")
        with pytest.raises(ValueError):
            char_poly([[x, 0], [0, y]])
        with pytest.raises(RegistryMismatchError):
            char_poly([[x, 1], [1, y]])

    def test_mixed_scalar_rings_raise(self):
        x = Poly.variable(VarRegistry(["x"]), "x")
        with pytest.raises(TypeError):
            char_poly([[x, Sqrt2(Fraction(1))], [1, 1]])
        with pytest.raises(TypeError):
            char_poly([[1, 2], [3, 0.5]])

    def test_inexact_division_raises(self):
        assert _neg_div_int(-6, 3) == 2
        assert _neg_div_sparse({0: 6, 5: -9}, 3) == {0: -2, 5: 3}
        with pytest.raises(ArithmeticError):
            _neg_div_int(5, 2)
        with pytest.raises(ArithmeticError):
            _neg_div_sparse({0: 4, 1: 3}, 2)

"""Root isolation, Descartes/Sturm counting, inertia, and Hermite counting."""

import random
from fractions import Fraction

import pytest

from vortexsym.groebner import Ideal, buchberger, reduce, standard_monomials
from vortexsym.ratpoly import Poly, VarRegistry, grevlex, mono_mul
from vortexsym.realroots import (
    IsolatingInterval,
    PositiveDimensionalError,
    SturmSequence,
    SymMatrix,
    char_poly,
    coeffs_from_poly,
    count_positive_roots,
    count_real_roots,
    descartes_positive,
    hermite_count,
    hermite_matrix,
    inertia,
    kernel_basis,
    squarefree_part,
    sturm_isolate,
)
from vortexsym.realroots import _inertia_charpoly, _inertia_congruence

X = VarRegistry(["x"])


def F(*ints):
    return [Fraction(c) for c in ints]


# ascending coefficients of the two heavily used reference polynomials
B_QUINTIC = F(-8, 22, -54, 117, -98, 17)
G_OF_R = F(-1, 0, 33, 0, -202, 0, 146, 0, -117, 0, 13)


class TestDescartes:
    def test_quintic_bound_versus_sturm(self):
        changes, exact = descartes_positive(B_QUINTIC)
        assert changes == 5 and not exact
        assert count_positive_roots(B_QUINTIC) == 3

    def test_no_positive_roots(self):
        changes, exact = descartes_positive(F(1, 0, 1))  # x^2 + 1
        assert changes == 0 and exact

    def test_two_positive_roots(self):
        # x^2 - 3x + 2 = (x-1)(x-2)
        changes, _ = descartes_positive(F(2, -3, 1))
        assert changes == 2
        assert count_positive_roots(F(2, -3, 1)) == 2


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
        mid = roots[1].refine(Fraction(1, 10**9))
        assert abs(float(mid) - 1.414213562) < 1e-9
        assert roots[1].width() < Fraction(1, 10**9)

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
        assert len(sturm_isolate(p)) == 2
        assert count_real_roots(p) == 2

    def test_no_real_roots(self):
        assert sturm_isolate(F(1, 0, 1)) == []
        assert count_real_roots(F(1, 0, 1)) == 0

    def test_multiple_roots_counted_once(self):
        # (x-1)^2 (x+2)
        p = _mul(_mul(F(-1, 1), F(-1, 1)), F(2, 1))
        assert count_real_roots(p) == 2
        assert len(sturm_isolate(p)) == 2

    def test_refine_halves_and_keeps_sign_change(self):
        iv = sturm_isolate(F(-2, 0, 1))[1]
        assert not iv.exact
        from vortexsym.realroots import eval_at

        w0 = iv.width()
        iv.refine(w0 / 16)
        assert iv.width() < w0 / 16
        if not iv.exact:
            assert eval_at(list(iv.coeffs), iv.lo) * eval_at(list(iv.coeffs), iv.hi) < 0

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
        assert count_real_roots(sf) == 2


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
            m = SymMatrix(sym)
            assert _inertia_charpoly(m) == _inertia_congruence(m)

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
                m = SymMatrix(sym)
                assert _inertia_congruence(m) == _inertia_charpoly(m), sym

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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1, 2], [3, 4]])

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


class TestKernel:
    def test_simple_kernel(self):
        rows = [[1, 1, 1], [0, 1, 2]]
        basis = kernel_basis(rows)
        assert len(basis) == 1
        v = basis[0]
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


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
            assert real == count_real_roots(sf)
            assert cplx == len(sf) - 1  # squarefree: all complex roots distinct
            assert real <= cplx

    def test_hermite_matrix_matches_fraction_reference_on_cubic_system(self):
        reg = VarRegistry(["x", "y"])
        u = Poly.parse(reg, "x + y")
        v = Poly.parse(reg, "x - 2*y")
        f = u**3 - Fraction(1, 2) * u**2 - 2 * u + 1
        g = v**3 + Fraction(2, 3) * v - 1
        gb = buchberger(Ideal.of(f + g, f - 2 * g), grevlex(reg))
        h = hermite_matrix(gb)
        assert h.n == 9
        assert [list(row) for row in h.rows] == reference_hermite(gb)

    def test_hermite_matrix_matches_fraction_reference_on_sphere_basis(self, trapezoid_report):
        gb = trapezoid_report.artifacts["sphere_gb"]
        h = hermite_matrix(gb)
        assert h.n == 50
        assert [list(row) for row in h.rows] == reference_hermite(gb)
        assert inertia(h) == (30, 10, 10)

    def test_hermite_matrix_univariate_power_sums(self):
        gb = buchberger(Ideal.of(Poly.parse(X, "x^2 - 1")), grevlex(X))
        h = hermite_matrix(gb)
        assert h.rows == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))


def reference_hermite(gb):
    """Trace form by the definition over Q: H_ij = Tr(m_i m_j), with
    Tr(m) = sum_k Tr(m)_k Tr(b_k) over the normal-form coordinates of m and
    Tr(b) = sum_k [NF(b b_k)]_k, every normal form taken with ``reduce``."""
    basis = standard_monomials(gb).standard_monomials
    coords = {}

    def nf(m):
        if m not in coords:
            _, r = reduce(Poly(gb.registry, {m: Fraction(1)}), gb.polys, gb.order)
            coords[m] = [r.terms.get(b, Fraction(0)) for b in basis]
        return coords[m]

    tr = [sum(nf(mono_mul(b, c))[k] for k, c in enumerate(basis)) for b in basis]
    return [[sum(x * t for x, t in zip(nf(mono_mul(a, b)), tr)) for b in basis] for a in basis]


def test_coeffs_from_poly_rejects_multivariate():
    reg = VarRegistry(["x", "y"])
    with pytest.raises(ValueError):
        coeffs_from_poly(Poly.parse(reg, "x*y"))


def test_isolating_interval_float():
    iv = IsolatingInterval(Fraction(1), Fraction(2), (Fraction(-3), Fraction(0), Fraction(1)))
    assert float(iv) == 1.5

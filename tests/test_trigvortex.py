"""Gradient components, trig reduction pipeline, and Hessian structure."""

import dataclasses
import math
import pickle
import random
from copy import deepcopy
from fractions import Fraction

import pytest

from vortexsym import targets
from vortexsym.ratpoly import Poly, VarRegistry
from vortexsym.scenarios import rectangle
from vortexsym.scenarios.rectangle import Sqrt2
from vortexsym.trigvortex import (
    KITE,
    R_REGISTRY,
    RECTANGLE,
    SQUARE,
    TRAPEZOID3,
    TRIG_REGISTRY,
    CollisionError,
    SymmetryScenario,
    _gprime,
    angle_of_r,
    char_poly_in,
    cheb_cos,
    cheb_sin_factor,
    gradient_component,
    half_angle_polynomialize,
    hessian,
    pipeline,
    reduce_component,
    s_reduce,
    scenario_cos_table,
    strip_collision_factors,
)

from reference import (
    cos_table,
    eval_at,
    gradient,
    potential,
    weighted_gradient_sum,
)


def T(text):
    return Poly.parse(TRIG_REGISTRY, text)


def R(text):
    return Poly.parse(R_REGISTRY, text)


def proportional(p, q):
    return p.primitive() == q.primitive()


class TestChebyshev:
    def test_triple_angle(self):
        assert cheb_cos(3) == T("4*c^3 - 3*c")
        assert cheb_sin_factor(3) == T("4*c^2 - 1")

    def test_matches_numeric(self):
        for k in range(6):
            x = 0.7345
            assert abs(cheb_cos(k).evaluate({"s": 0.0, "c": math.cos(x), "mu1": 0, "mu2": 0, "mu3": 0, "mu4": 0}) - math.cos(k * x)) < 1e-12


class TestGradientComponents:
    def test_square_components_are_half_differences(self):
        mu = [T("mu1"), T("mu2"), T("mu3"), T("mu4")]
        expected = [
            (mu[3] - mu[1]) * Fraction(1, 2),
            (mu[0] - mu[2]) * Fraction(1, 2),
            (mu[1] - mu[3]) * Fraction(1, 2),
            (mu[2] - mu[0]) * Fraction(1, 2),
        ]
        for i in range(1, 5):
            t = gradient_component(i, SQUARE)
            assert t.num == s_reduce(expected[i - 1] * t.den)

    def test_kite_component3_proportional_to_displayed_form(self):
        comp = reduce_component(3, KITE)
        displayed = half_angle_polynomialize(T("mu2 - mu4") * T("1 + 2*c"))
        assert proportional(comp.r_poly, displayed)
        assert any(f == R("r") for f, _ in comp.r_factors)

    def test_rectangle_component2_displayed_form(self):
        comp = reduce_component(2, RECTANGLE)
        target = T("mu1 + mu3") * T("c") + T("mu1 - mu3") * T("2*c^2 - 1")
        assert proportional(comp.r_poly, half_angle_polynomialize(target))

    def test_weighted_dependency_identity(self):
        for scenario in (SQUARE, KITE, RECTANGLE, TRAPEZOID3):
            assert weighted_gradient_sum(scenario).is_zero()

    def test_component_index_validation(self):
        with pytest.raises(ValueError):
            gradient_component(5, KITE)


class TestStripping:
    def test_kite_component2_strips_sin_cubed(self):
        # s^3 = (2r)^3 / (1 + r^2)^3 leaves r^3 once the denominators clear
        comp = reduce_component(2, KITE)
        assert comp.r_factors == ((R("r"), 3),)
        expected = T("2*mu1 - 2*mu3 - 2*mu1*c - 2*mu3*c + 6*mu4*c - 4*mu1*c^2 + 4*mu3*c^2 - 8*mu4*c^3")
        assert proportional(comp.r_poly, half_angle_polynomialize(expected))

    def test_r_world_strip(self):
        p = R("r^2") * R("r + 1")
        stripped, factors = strip_collision_factors(p, KITE)
        assert stripped == R("r + 1")
        assert factors == [(R("r"), 2)]

    def test_trapezoid_strips_collinear_factor(self):
        comp = reduce_component(4, TRAPEZOID3)
        assert comp.r_factors == ((R("r"), 1), (R("-1 + 3*r^2"), 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            strip_collision_factors(Poly.zero(R_REGISTRY), KITE)

    def test_trig_polynomial_refused(self):
        with pytest.raises(ValueError, match="stripped in r"):
            strip_collision_factors(s_reduce(T("s") ** 3), KITE)


class TestHalfAngle:
    def test_constant_passthrough(self):
        assert half_angle_polynomialize(T("1")) == R("1")

    def test_kite_component3_end_to_end(self):
        comp = reduce_component(3, KITE)
        assert proportional(comp.r_poly, R("mu2 - mu4") * R("-1 + 3*r^2"))

    def test_rectangle_component2_end_to_end(self):
        comp = reduce_component(2, RECTANGLE)
        assert proportional(comp.r_poly, R("-mu3 - 3*mu1*r^2 + 3*mu3*r^2 + mu1*r^4"))

    def test_substitution_identity_on_samples(self):
        # c^k s^e (1+r^2)^(N-k-e)-clearing must agree exactly with evaluating
        # the trig polynomial at the rational sine and cosine of the angle
        # whose half-angle cotangent is a rational r
        rng = random.Random(8)
        mus = {"mu1": 2, "mu2": 1, "mu3": 1, "mu4": 1}
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = (rng.randint(0, 1), rng.randint(0, 3), rng.randint(0, 1), 0, 0, 0)
                terms[mono] = Fraction(rng.randint(-4, 4))
            p = Poly(TRIG_REGISTRY, terms)
            if p.is_zero():
                continue
            rp = half_angle_polynomialize(p)
            rv = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            unit = 1 + rv * rv
            si = TRIG_REGISTRY.index("s")
            ci = TRIG_REGISTRY.index("c")
            clear = max(m[si] + m[ci] for m in p.terms)
            lhs = p.evaluate({"s": 2 * rv / unit, "c": (rv * rv - 1) / unit, **mus})
            assert lhs * unit**clear == rp.evaluate({"r": rv, **mus})


class TestPipelines:
    @pytest.mark.parametrize(
        "scenario,target",
        [
            (KITE, targets.KITE_PIPELINE),
            (RECTANGLE, targets.RECTANGLE_PIPELINE),
            (TRAPEZOID3, targets.TRAPEZOID_PIPELINE),
        ],
        ids=["kite", "rectangle", "trapezoid"],
    )
    def test_pipeline_matches_reference(self, scenario, target):
        comps = pipeline(scenario)
        goals = targets.build_products(targets.R_REGISTRY, target)
        for comp, goal in zip(comps, goals):
            assert proportional(comp.r_poly, goal)

    @pytest.mark.parametrize("scenario", [KITE, RECTANGLE, TRAPEZOID3], ids=lambda s: s.kind)
    def test_pipeline_is_one_frozen_value_per_scenario(self, scenario):
        comps = pipeline(scenario)
        assert pipeline(scenario) is comps
        assert isinstance(comps, tuple) and len(comps) == 3
        for comp in comps:
            assert isinstance(comp.r_factors, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                comp.r_poly = Poly.zero(R_REGISTRY)
            # nor can a slot of a value inside a component be reassigned
            with pytest.raises(AttributeError):
                comp.r_poly.terms = {}
            with pytest.raises(AttributeError):
                comp.trig.num = comp.trig.den
            with pytest.raises(AttributeError):
                del comp.trig.den

    def test_trig_rational_survives_pickle_and_deepcopy(self):
        t = pipeline(KITE)[0].trig
        for copy in (pickle.loads(pickle.dumps(t, pickle.HIGHEST_PROTOCOL)), deepcopy(t)):
            assert (copy.num, copy.den) == (t.num, t.den)
            with pytest.raises(AttributeError):
                copy.num = t.den

    @pytest.mark.parametrize("scenario", [KITE, RECTANGLE, TRAPEZOID3], ids=lambda s: s.kind)
    def test_fresh_derivation_equals_the_cached_one(self, scenario):
        cached = pipeline(scenario)
        pipeline.cache_clear()
        fresh = pipeline(scenario)
        assert fresh is not cached
        for a, b in zip(fresh, cached, strict=True):
            assert a.index == b.index
            assert (a.trig.num, a.trig.den) == (b.trig.num, b.trig.den)
            assert a.r_poly == b.r_poly
            assert a.content == b.content
            assert a.r_factors == b.r_factors

    def test_list_built_scenario_shares_the_cache_entry(self):
        twin = SymmetryScenario("kite", [0, 1, 0, -1], [0, 0, 1, 0], ["r"])
        assert twin.multiples == (0, 1, 0, -1) and twin.r_collision_factors == ("r",)
        assert twin == KITE and hash(twin) == hash(KITE)
        assert pipeline(twin) is pipeline(KITE)

    def test_square_has_no_pipeline(self):
        with pytest.raises(ValueError):
            pipeline(SQUARE)

    def test_evaluation_consistency(self):
        # each of the nine components is one exact identity in Q[r, mu]: the
        # cleared half-angle numerator is the content times the reduced
        # polynomial times the stripped factors
        for scenario in (KITE, RECTANGLE, TRAPEZOID3):
            for comp in pipeline(scenario):
                rebuilt = comp.content * comp.r_poly
                for f, mult in comp.r_factors:
                    rebuilt = rebuilt * f**mult
                assert half_angle_polynomialize(comp.trig.num) == rebuilt


class TestAngleOfR:
    def test_unit(self):
        assert abs(angle_of_r(1.0) - math.pi / 2) < 1e-12

    def test_reference_values(self):
        assert abs(angle_of_r(2.79493) - 0.687197) < 1e-5
        assert abs(angle_of_r(0.199167) - 2.74840) < 1e-5
        assert abs(angle_of_r(0.375563) - 2.42306) < 1e-5

    def test_inverts_cotangent_half_angle(self):
        for theta in (0.3, 1.2, 2.9, -0.7, -2.4):
            r = 1 / math.tan(theta / 2)
            assert abs(angle_of_r(r) - theta) < 1e-12


class TestHessian:
    def test_annihilates_uniform_rotation(self):
        rng = random.Random(3)
        for _ in range(20):
            thetas = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            if min(b - a for a, b in zip(thetas, thetas[1:])) < 0.1:
                continue
            mus = tuple(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(4))
            h = hessian(cos_table(thetas), mus)
            for i in range(4):
                assert abs(h[i][0] + h[i][1] + h[i][2] + h[i][3]) <= 1e-12
                for j in range(4):
                    assert h[i][j] == h[j][i]

    def test_matches_finite_differences(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            thetas = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            if min(b - a for a, b in zip(thetas, thetas[1:])) < 0.3:
                continue
            if thetas[0] + 2 * math.pi - thetas[3] < 0.3:
                continue
            mus = tuple(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(4))
            h = hessian(cos_table(thetas), mus)
            step = 1e-5
            for j in range(4):
                up = list(thetas)
                dn = list(thetas)
                up[j] += step
                dn[j] -= step
                fd = [
                    (gu - gd) / (2 * step)
                    for gu, gd in zip(gradient(up, mus), gradient(dn, mus))
                ]
                for i in range(4):
                    scale = max(1.0, abs(h[i][j]))
                    assert abs(h[i][j] - fd[i]) < 1e-6 * scale
            checked += 1

    def test_square_exact_eigenvalues_at_samples(self):
        # eigenvalues 0, 2 m1 m2, (2 m1 m2 - 3 m1^2)/2, (2 m1 m2 - 3 m2^2)/2
        from vortexsym.realroots import char_poly

        samples = [(1, 1), (3, 2), (2, 3), (5, 1), (1, 5), (-1, 2), (2, -1), (7, 3), (4, 9), (1, -1)]
        for m1, m2 in samples:
            m1, m2 = Fraction(m1), Fraction(m2)
            p = char_poly(hessian(scenario_cos_table(SQUARE), (m1, m2, m1, m2)))
            for lam in (
                Fraction(0),
                2 * m1 * m2,
                Fraction(1, 2) * (-3 * m1 * m1 + 2 * m1 * m2),
                Fraction(1, 2) * (2 * m1 * m2 - 3 * m2 * m2),
            ):
                assert eval_at(p, lam) == 0

    def test_square_symbolic_factorisation(self):
        reg = VarRegistry(["lam", "m1", "m2"])
        msym = VarRegistry(["m1", "m2"])
        m1, m2 = Poly.variable(msym, "m1"), Poly.variable(msym, "m2")
        rows = hessian(scenario_cos_table(SQUARE), [m1, m2, m1, m2])
        cp = char_poly_in(rows, reg, "lam")
        lam = Poly.variable(reg, "lam")
        factors = [
            lam,
            lam - Poly.parse(reg, "2*m1*m2"),
            lam - Poly.parse(reg, "-3/2*m1^2 + m1*m2"),
            lam - Poly.parse(reg, "m1*m2 - 3/2*m2^2"),
        ]
        prod = Poly.constant(reg, 1)
        for f in factors:
            prod = prod * f
        assert cp == prod

    def test_square_weighted_symbolic_factorisation(self):
        reg = VarRegistry(["lam", "m1", "m2"])
        msym = VarRegistry(["m1", "m2"])
        m1, m2 = Poly.variable(msym, "m1"), Poly.variable(msym, "m2")
        rows = hessian(scenario_cos_table(SQUARE), [m1, m2, m1, m2], weighted=True)
        cp = char_poly_in(rows, reg, "lam")
        lam = Poly.variable(reg, "lam")
        factors = [
            lam,
            lam - Poly.parse(reg, "m1 + m2"),
            lam - Poly.parse(reg, "m1 - 3/2*m2"),
            lam - Poly.parse(reg, "-3/2*m1 + m2"),
        ]
        prod = Poly.constant(reg, 1)
        for f in factors:
            prod = prod * f
        assert cp == prod

    def test_square_weighted_uniform_circulations(self):
        from vortexsym.realroots import char_poly

        thetas = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
        m = hessian(cos_table(thetas), (1.0, 1.0, 1.0, 1.0), weighted=True)
        # exact counterpart with unit circulations: constant polynomial entries
        rows = hessian(
            scenario_cos_table(SQUARE),
            [Poly.constant(VarRegistry(["mu1", "mu2", "mu3", "mu4"]), 1)] * 4,
            weighted=True,
        )
        exact_rows = [[Fraction(e.terms.get((0, 0, 0, 0), Fraction(0))) for e in row] for row in rows]
        cp = char_poly(exact_rows)
        for lam in (Fraction(0), Fraction(-1, 2), Fraction(2)):
            assert eval_at(cp, lam) == 0
        # numeric agreement
        for i in range(4):
            for j in range(4):
                assert abs(m[i][j] - float(exact_rows[i][j])) < 1e-12

    def test_kite_special_angle_weighted_factorisation(self):
        # weighted Hessian at theta2 = 2*pi/3 with mu1 = mu2 = mu4:
        # eigenvalues 0, (3*m3 - m1)/2, and a quadratic pair
        reg = VarRegistry(["lam", "m1", "m3"])
        msym = VarRegistry(["m1", "m3"])
        m1, m3 = Poly.variable(msym, "m1"), Poly.variable(msym, "m3")
        rows = hessian(scenario_cos_table(KITE, Fraction(-1, 2)), [m1, m1, m3, m1], weighted=True)
        cp = char_poly_in(rows, reg, "lam")
        lam = Poly.variable(reg, "lam")
        quad = (
            lam * lam
            - Poly.parse(reg, "7/4*m1 + 3/4*m3") * lam
            - Poly.parse(reg, "3/8") * Poly.parse(reg, "3*m1 + m3") * Poly.parse(reg, "m1 + 3*m3")
        )
        prod = lam * (lam - Poly.parse(reg, "-1/2*m1 + 3/2*m3")) * quad
        assert cp == prod

    def test_kite_special_angle_unweighted_factorisation(self):
        # Hessian spectrum at theta2 = 2*pi/3, mu1 = mu2 = mu4: eigenvalues
        # 0, -m1(m1 - 3 m3)/2, and a quadratic pair with rational symmetric
        # functions
        reg = VarRegistry(["lam", "m1", "m3"])
        msym = VarRegistry(["m1", "m3"])
        m1, m3 = Poly.variable(msym, "m1"), Poly.variable(msym, "m3")
        rows = hessian(scenario_cos_table(KITE, Fraction(-1, 2)), [m1, m1, m3, m1])
        cp = char_poly_in(rows, reg, "lam")
        lam = Poly.variable(reg, "lam")
        lam2 = Poly.parse(reg, "-1/2*m1^2 + 3/2*m1*m3")
        quad = (
            lam * lam
            - Poly.parse(reg, "1/2") * Poly.parse(reg, "m1") * Poly.parse(reg, "6*m3 - m1") * lam
            - Poly.parse(reg, "3/2*m1^2*m3") * Poly.parse(reg, "m1 + 3*m3")
        )
        assert cp == lam * (lam - lam2) * quad

    def test_kite_special_angle_exact_rational_entries(self):
        mus = [Fraction(m) for m in (1, 1, 3, 1)]
        h = hessian(scenario_cos_table(KITE, Fraction(-1, 2)), mus)
        from vortexsym.realroots import char_poly

        assert all(isinstance(e, Fraction) for row in h for e in row)
        assert all(h[i][j] == h[j][i] for i in range(4) for j in range(4))
        p = char_poly(h)
        assert eval_at(p, Fraction(0)) == 0
        assert eval_at(p, Fraction(-1, 2) * (1 - 9)) == 0  # -m1(m1-3m3)/2 = 4

    def test_rectangle_diagonal_cosines_derive_from_the_chebyshev_table(self):
        half_root2 = Sqrt2(Fraction(0), Fraction(1, 2))
        expected = {
            (0, 1): half_root2,  # cos(pi/4)
            (0, 2): Sqrt2(Fraction(-1)),  # cos(pi)
            (0, 3): -half_root2,  # cos(5pi/4)
            (1, 2): -half_root2,  # cos(3pi/4)
            (1, 3): Sqrt2(Fraction(-1)),  # cos(pi)
            (2, 3): half_root2,  # cos(pi/4)
        }
        table = rectangle._DIAGONAL_COSINES
        for (i, j), value in expected.items():
            assert table[i][j] == value
            assert table[j][i] == value

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sqrt2_hessian_matches_float_hessian(self, weighted):
        def to_float(x):
            if isinstance(x, Sqrt2):
                return float(x.a) + float(x.b) * math.sqrt(2)
            return float(x)

        for m1, m2 in [(1, 2), (2, 1), (3, 5), (-2, 3)]:
            mus = [Fraction(m1), Fraction(m2), Fraction(-m1), Fraction(-m2)]
            exact = hessian(rectangle._DIAGONAL_COSINES, mus, weighted)
            approx = hessian(cos_table(RECTANGLE.angles(math.pi / 4)), mus, weighted)
            for i in range(4):
                for j in range(4):
                    assert abs(to_float(exact[i][j]) - approx[i][j]) < 1e-12

    def test_equal_cosines_of_different_rings_keep_their_ring(self):
        # Sqrt2(1/2) == Fraction(1, 2), with equal hashes; g' is shared
        # between equal cosines of one ring only
        table = [
            [Sqrt2(Fraction(1, 2)) if (i + j) % 2 else Fraction(1, 2) for j in range(4)]
            for i in range(4)
        ]
        rows = hessian(table, [Fraction(1)] * 4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    want = _gprime(table[i][j])
                    assert rows[i][j] == want and type(rows[i][j]) is type(want)

    @pytest.mark.parametrize("one", [Fraction(1), Sqrt2(Fraction(1))])
    def test_coinciding_cosine_raises_collision(self, one):
        table = scenario_cos_table(SQUARE)
        table[0][1] = table[1][0] = one
        with pytest.raises(CollisionError):
            hessian(table, [Fraction(1)] * 4)

    def test_potential_gradient_consistency(self):
        # numeric gradient matches finite differences of the potential
        rng = random.Random(5)
        thetas = (0.0, 1.1, 2.9, 4.4)
        mus = (1.0, -0.7, 1.3, 0.9)
        g = gradient(thetas, mus)
        for i in range(4):
            up = list(thetas)
            dn = list(thetas)
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd = (potential(up, mus) - potential(dn, mus)) / 2e-6
            assert abs(g[i] - fd) < 1e-6
        del rng


class TestScenarioDefinitions:
    def test_angles(self):
        assert SQUARE.angles(0.0) == (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
        assert KITE.angles(0.5) == (0.0, 0.5, math.pi, -0.5)
        t = RECTANGLE.angles(0.8)
        assert abs(t[3] - (0.8 + math.pi)) < 1e-15
        assert TRAPEZOID3.angles(0.3) == pytest.approx((0.0, 0.3, 0.6, 0.9))

    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetryScenario("bad", (1, 0, 0, 0), (Fraction(0),) * 4)
        with pytest.raises(ValueError):
            SymmetryScenario("bad", (0, 1, 0, 0), (Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            SymmetryScenario(
                "bad", (0, 1, 0, 0), (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0))
            )

"""Kites: equal circulations off the symmetry axis, counting, and stability.

The reflection axis holds vortices 1 and 3; vortices 2 and 4 mirror each
other at angles +-theta2.  Eliminating the position variable forces
mu2 = mu4; the surviving even degree-six polynomial in r bounds the number
of kite angles by six for any circulation choice.  At theta2 = 120 degrees
the gradient further forces mu1 = mu2 = mu4 and a genuine linear-stability
window in mu1/mu3 opens up, whose endpoints are certified by root isolation
of an exact boundary polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from vortexsym.groebner import GroebnerBasis, Ideal, buchberger, eliminate
from vortexsym.ratpoly import GrevLex, Poly, VarRegistry
from vortexsym.realroots import (
    IsolatingInterval,
    eval_interval,
    int_coeffs,
    sign_at,
    sturm_isolate,
)
from vortexsym.scenarios.report import (
    CHECK_WIDTH,
    DEFAULT_EPS,
    Checks,
    ScenarioReport,
    checks_of,
    four_circulations,
    pipeline_check,
    rat_str,
    root_records,
)
from vortexsym.trigvortex import (
    KITE,
    R_REGISTRY,
    TRIG_REGISTRY,
    char_poly_in,
    gradient_component,
    hessian,
    pipeline,
    scenario_cos_table,
)
from vortexsym import targets


def run_kite(mus=None, eps=DEFAULT_EPS):
    """Full kite analysis for circulations ``mus`` (defaults to all ones),
    from the circulation-free stages ``kite_elimination`` and
    ``special_angle_analysis`` and the per-circulation
    ``configuration_count``; the radii and the window's lower end are
    enclosed to width ``eps``."""
    mus = four_circulations("run_kite", mus) or (Fraction(1),) * 4
    if mus[1] != mus[3]:
        raise ValueError("kite circulations require mu2 == mu4")
    comps = pipeline(KITE)
    elimination = kite_elimination(comps)
    stages = {
        "elimination": elimination,
        "configuration_count": configuration_count(elimination.config_factor, mus),
        "special_angle_analysis": special_angle_analysis(comps),
    }
    basis = [p.format(elimination.gb.order) for p in elimination.gb.polys]
    return ScenarioReport(
        scenario="kite",
        pipeline_polynomials=[c.r_poly.format() for c in comps],
        elimination_basis=basis,
        conditions=list(basis),
        roots=root_records("kite configuration factor", stages["configuration_count"].radii, eps),
        stability=stability(stages["special_angle_analysis"], eps),
        oracle_checks=checks_of(stages),
        artifacts={"pipeline": comps, **stages},
    )


@dataclass(frozen=True)
class KiteElimination:
    """The pipeline, elimination and factor checks, the reduced basis over
    the circulations and the even configuration-counting factor."""

    checks: tuple
    gb: GroebnerBasis
    config_factor: Poly


def kite_elimination(comps):
    """Check the kite ``pipeline``, eliminate r and read off the
    configuration factor."""
    checks = pipeline_check(comps, targets.KITE_PIPELINE)
    gb = eliminate(Ideal.of(*(c.r_poly for c in comps)), ["r"])
    checks.add(
        "elimination_basis",
        [p.primitive() for p in gb.polys] == [targets.parsed(R_REGISTRY, "mu2 - mu4")],
        "projection onto circulation space is {mu2 - mu4}",
    )
    # the even configuration-counting factor (V_theta4 side, mu4 eliminated)
    config_factor = comps[2].r_poly.primitive()
    checks.add(
        "configuration_factor",
        config_factor == targets.parsed(R_REGISTRY, targets.KITE_CONFIG_FACTOR).primitive(),
        "degree-six even factor matches the reference form",
    )
    return KiteElimination(checks=tuple(checks), gb=gb, config_factor=config_factor)


@dataclass(frozen=True)
class ConfigurationCount:
    """The count checks at one choice of circulations and the isolating
    intervals of the kite radii."""

    checks: tuple
    radii: tuple


def configuration_count(config_factor, mus):
    """Count the kite radii at the four circulations ``mus``."""
    checks = Checks()
    radii = count_configurations(config_factor, mus)
    checks.add(
        "root_count_even_and_bounded",
        len(radii) % 2 == 0 and len(radii) <= 6,
        f"{len(radii)} kite angles for mu = {tuple(map(str, mus))}",
    )
    if mus == (1, 1, 1, 1):
        uni = _specialize(config_factor, mus)
        checks.add(
            "uniform_circulation_exact_roots",
            sign_at(uni, 1, 1) == 0
            and all(c == 0 for c in uni[1::2])
            and sign_at(uni[::2], 1, 3) == 0,
            "r = 1 and r^2 = 1/3 are exact roots at mu = (1,1,1,1)",
        )
    return ConfigurationCount(checks=tuple(checks), radii=tuple(radii))


def _specialize(poly, mus):
    return int_coeffs(poly.subs({f"mu{i + 1}": Fraction(m) for i, m in enumerate(mus)}), "r")


def count_configurations(config_factor, mus):
    """Isolating intervals of the real kite radii for given circulations."""
    return sturm_isolate(_specialize(config_factor, mus))


@dataclass(frozen=True)
class StabilityWindow:
    """The first bounded range of t = mu1/mu3 where all three nonzero
    eigenvalues are positive: isolating intervals of the boundary roots at
    its ends, the upper end exactly (None unless it is rational),
    whether each end is stable itself, whether the range is the only one,
    and the lower end to width ``CHECK_WIDTH``, which the check reads."""

    lower: IsolatingInterval
    upper: IsolatingInterval
    upper_exact: Fraction | None
    lower_included: bool
    upper_included: bool
    unique: bool
    lower_decimal: float


@dataclass(frozen=True)
class SpecialAngle:
    """What the theta2 = 2*pi/3 stage derives: its four oracle checks in
    report order and the stability window, None unless its upper end is
    exact."""

    checks: tuple
    window: StabilityWindow | None


def stability(special, eps):
    """The report's stability section from ``special`` (a
    :class:`SpecialAngle`), with the window's lower end enclosed to width
    ``eps``."""
    summary = {
        "theta2": 2 * math.pi / 3,
        "conditions": ["mu1 - mu4", "mu2 - mu4"],
        "parameter": "mu1/mu3",
        "requires": "mu3 > 0",
        "window": None,
    }
    window = special.window
    if window is not None:
        lower = window.lower.refine(eps)
        summary["window"] = {
            "lower": {
                "decimal": float(lower.midpoint()),
                "interval": [rat_str(lower.lo), rat_str(lower.hi)],
                "included": window.lower_included,
                "defining_polynomial": targets.KITE_WINDOW_DISCRIMINANT,
            },
            "upper": {
                "decimal": float(window.upper_exact),
                "exact": rat_str(window.upper_exact),
                "included": window.upper_included,
            },
        }
    return {
        "verdict": "stable kites exist only at theta2 = 2*pi/3 with mu1 = mu2 = mu4",
        "special_angle": summary,
    }


def special_angle_analysis(comps):
    """The theta2 = 2*pi/3 kite: forced circulations and stability window;
    see :class:`SpecialAngle`.

    ``comps`` is the kite ``pipeline``, whose trig forms are gradient
    components 2, 3 and 4.
    """
    checks = Checks()
    # gradient at cos(theta2) = -1/2: mu_i * component_i = w_i / sqrt(3) with
    # w = (mu1(mu4-mu2), mu2(mu1-mu4), 0, mu4(mu2-mu1))
    half = Fraction(-1, 2)
    w_expected = [
        targets.parsed(TRIG_REGISTRY, "mu1*mu4 - mu1*mu2"),
        targets.parsed(TRIG_REGISTRY, "mu1*mu2 - mu2*mu4"),
        Poly.zero(TRIG_REGISTRY),
        targets.parsed(TRIG_REGISTRY, "mu2*mu4 - mu1*mu4"),
    ]
    display_ok = True
    s_parts = []
    trig = [gradient_component(1, KITE)] + [c.trig for c in comps]
    for i, t in enumerate(trig, 1):
        num = t.num.subs({"c": half})
        den_val = t.den.subs({"c": half})
        groups = num.coefficients_in(["s"])
        s_free = groups.get((0,), Poly.zero(TRIG_REGISTRY))
        s_lin = groups.get((1,), Poly.zero(TRIG_REGISTRY))
        s_parts.append(s_lin)
        # value = sqrt(3)/2 * s_lin / den; times mu_i it must equal
        # w_i / sqrt(3), i.e. 3 * mu_i * s_lin = 2 * w_i * den
        mu_i = Poly.variable(TRIG_REGISTRY, f"mu{i}")
        if not s_free.is_zero():
            display_ok = False
        if 3 * mu_i * s_lin != 2 * w_expected[i - 1] * den_val:
            display_ok = False
    checks.add(
        "special_angle_gradient",
        display_ok,
        "grad V at 2*pi/3 is (mu1(mu4-mu2), mu2(mu1-mu4), 0, mu4(mu2-mu1))/sqrt(3)",
    )

    # nonzero circulations annihilate that gradient only when all three agree
    forced_set = set()
    if any(not p.is_zero() for p in s_parts):
        forced = buchberger(Ideal.of(*s_parts), GrevLex())
        forced_set = {p.primitive().format(forced.order) for p in forced.polys}
    checks.add(
        "special_angle_conditions",
        forced_set == {"mu1 - mu4", "mu2 - mu4"},
        "mu1 = mu2 = mu4 forced at theta2 = 2*pi/3",
    )

    # stability window in t = mu1/mu3 (mu3 > 0): weighted Hessian spectrum is
    # 0, (3 - t)/2, and the roots of lam^2 - S lam + P
    treg = VarRegistry(["t"])
    lreg = VarRegistry(["lam", "t"])
    t = Poly.variable(treg, "t")
    one = Poly.constant(treg, 1)
    rows = hessian(scenario_cos_table(KITE, half), [t, t, one, t], weighted=True)
    lam = Poly.variable(lreg, "lam")
    lam2 = targets.parsed(lreg, "3/2 - 1/2*t")
    quad = char_poly_in(rows, lreg, "lam").divide_exact(lam).divide_exact(lam - lam2)
    groups = quad.coefficients_in(["lam"])
    s_poly = -groups[(1,)]
    p_poly = groups[(0,)]
    disc_poly = s_poly * s_poly - 4 * p_poly
    checks.add(
        "special_angle_weighted_spectrum",
        groups.get((2,)) == Poly.constant(lreg, 1)
        and disc_poly.map_to(treg).primitive()
        == targets.parsed(treg, targets.KITE_WINDOW_DISCRIMINANT).primitive(),
        "quadratic pair discriminant is (121 t^2 + 282 t + 81)/16",
    )

    window = _stability_window(lam2.map_to(treg), s_poly.map_to(treg), p_poly.map_to(treg))
    if window is None or window.upper_exact is None:
        if window is None:
            derived = "no bounded stable gap"
        else:
            upper = window.upper
            derived = (
                f"lower end {window.lower_decimal:.6f} and an upper end in"
                f" [{rat_str(upper.lo)}, {rat_str(upper.hi)}] that is not rational"
            )
        checks.add(
            "stability_window",
            False,
            f"expected mu1/mu3 in [{targets.KITE_WINDOW_LOWER:.6f}, -1/3) for mu3 > 0;"
            f" derived {derived}",
        )
        return SpecialAngle(tuple(checks), None)
    ok_lower = abs(window.lower_decimal - targets.KITE_WINDOW_LOWER) < targets.NUMERIC_TOL
    ok_upper = window.upper_exact == Fraction(-1, 3)
    checks.add(
        "stability_window",
        ok_lower and ok_upper and window.unique,
        f"mu1/mu3 in [{window.lower_decimal:.6f}, -1/3) for mu3 > 0",
    )
    return SpecialAngle(tuple(checks), window)


def _quad_positive_count(s, p, d):
    """Positive roots (with multiplicity) of lam^2 - s lam + p, disc d,
    from the signs s, p and d of those three values."""
    if d < 0:
        return 0
    if d == 0:
        return 2 if s > 0 else 0
    if p > 0:
        return 2 if s > 0 else 0
    if p < 0:
        return 1
    return 1 if s > 0 else 0


def _stability_window(lam2, s_poly, p_poly):
    """The certified :class:`StabilityWindow`, or None when the first stable
    gap is missing or unbounded.

    Boundary candidates are the roots of lam2, P, and the discriminant;
    sampling once below, between and above their isolating intervals with
    exact arithmetic finds the stable range.  An end is exact when it is a
    rational root, and included when all three eigenvalues are positive at it.
    """
    disc_poly = s_poly * s_poly - 4 * p_poly
    boundary = lam2 * p_poly * disc_poly
    intervals = sturm_isolate(int_coeffs(boundary, "t"))

    # positive multiples of the four polynomials: the same signs everywhere
    lam2_c, s_c, p_c, d_c = (int_coeffs(f, "t") for f in (lam2, s_poly, p_poly, disc_poly))

    def count(tv):
        signs = [sign_at(c, tv.numerator, tv.denominator) for c in (lam2_c, s_c, p_c, d_c)]
        return (signs[0] > 0) + _quad_positive_count(*signs[1:])

    def sample(left, right):
        # the isolating intervals are disjoint and no inexact one ends at a
        # root, so this point lies strictly between the two roots
        if left is None:
            return right.lo - 1 if right is not None else Fraction(0)
        if right is None:
            return left.hi + 1
        return (left.hi + right.lo) / 2

    gaps = zip([None] + intervals, intervals + [None])
    stable_gaps = [(left, right) for left, right in gaps if count(sample(left, right)) == 3]
    if not stable_gaps or None in stable_gaps[0]:
        return None
    lower_iv, upper_iv = stable_gaps[0]
    lower_check = lower_iv.refine(CHECK_WIDTH)

    def included(iv, exact):
        # An exact end is stable when all three eigenvalues are positive
        # there.  Inside an irrational end's enclosure the boundary root is
        # the only one, so lam2 > 0 and P > 0 throughout leave the
        # discriminant as the vanishing factor: a double eigenvalue, positive
        # when S > 0.
        if exact is not None:
            return count(exact) == 3
        iv = iv.refine(CHECK_WIDTH)
        return all(eval_interval(c, iv).is_positive() for c in (lam2_c, p_c, s_c))

    def rational_root(iv):
        # a rational root p/q in lowest terms of the primitive integer
        # polynomial iv.coeffs has q dividing its leading coefficient; below
        # width 1/lead the enclosure holds at most one p for each such q
        lead = abs(iv.coeffs[-1])
        iv = iv.refine(Fraction(1, lead))
        small = [d for d in range(1, math.isqrt(lead) + 1) if lead % d == 0]
        for q in small + [lead // d for d in small]:
            for p in range(math.ceil(iv.lo * q), math.floor(iv.hi * q) + 1):
                if sign_at(iv.coeffs, p, q) == 0:
                    return Fraction(p, q)
        return None

    lower_exact = rational_root(lower_check)
    upper_exact = rational_root(upper_iv)
    return StabilityWindow(
        lower=lower_iv,
        upper=upper_iv,
        upper_exact=upper_exact,
        lower_included=included(lower_check, lower_exact),
        upper_included=included(upper_iv, upper_exact),
        unique=len(stable_gaps) == 1,
        lower_decimal=float(lower_check.midpoint()),
    )

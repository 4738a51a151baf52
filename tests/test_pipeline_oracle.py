"""An exact differential test of the half-angle pipeline at rational r.

At a rational r = cot(theta2/2) the angle theta2 has the rational cosine
(r^2 - 1)/(r^2 + 1) and sine 2r/(r^2 + 1), and so has every scenario angle,
an integer multiple of theta2 plus a multiple of pi.  Row i of the scaled
gradient, sum_j mu_j sin d_ij (1 - 1/(2 - 2 cos d_ij)) with
d_ij = theta_i - theta_j, is then a linear form in mu with rational
coefficients.  ``reference.gradient_rows`` computes it from the angles alone, by exact
complex powers: no Chebyshev expansion, no trig ring, and nothing of
``trigvortex`` but the output under test.  Each pipeline polynomial, and
each reference polynomial of ``targets``, must give at r a nonzero rational
multiple of that row, or both must vanish.
"""

from fractions import Fraction

import pytest

from vortexsym import targets
from vortexsym.trigvortex import KITE, RECTANGLE, TRAPEZOID3, pipeline

from reference import HALF_ANGLE_POINTS, gradient_rows

REFERENCE = {
    "kite": targets.KITE_PIPELINE,
    "rectangle": targets.RECTANGLE_PIPELINE,
    "trapezoid": targets.TRAPEZOID_PIPELINE,
}

def mu_coefficients(poly, r):
    """The coefficients of mu1, ..., mu4 of a polynomial linear in mu, at r."""
    names = poly.registry.names
    out = [Fraction(0)] * 4
    for mono, coeff in poly.terms.items():
        powers = dict(zip(names, mono))
        (j,) = [j for j in range(4) if powers[f"mu{j + 1}"]]
        assert powers[f"mu{j + 1}"] == 1 and sum(mono) == 1 + powers["r"]
        out[j] += coeff * r ** powers["r"]
    return out


def assert_proportional(got, row):
    pivot = next((k for k, w in enumerate(row) if w), None)
    if pivot is None:
        assert not any(got)
        return
    ratio = got[pivot] / row[pivot]
    assert ratio != 0 and got == [ratio * w for w in row]


def _polys(scenario, source):
    if source == "pipeline":
        return [comp.r_poly for comp in pipeline(scenario)]
    return targets.build_products(targets.R_REGISTRY, REFERENCE[scenario.kind])


@pytest.mark.parametrize("source", ["pipeline", "targets"])
@pytest.mark.parametrize("scenario", [KITE, RECTANGLE, TRAPEZOID3], ids=lambda s: s.kind)
def test_rows_proportional_to_the_exact_gradient(scenario, source):
    polys = _polys(scenario, source)
    checked = 0
    for r in HALF_ANGLE_POINTS:
        if r == 0 or r * r == 1 or 3 * r * r == 1:
            continue
        rows = gradient_rows(scenario.kind, r)
        if rows is None:
            continue
        for poly, row in zip(polys, rows, strict=True):
            assert_proportional(mu_coefficients(poly, r), row)
        checked += 1
    assert checked >= 20


def test_oracle_separates_a_wrong_row():
    # the kite's second row at r = 2 is not proportional to its third
    rows = gradient_rows("kite", Fraction(2))
    with pytest.raises(AssertionError):
        assert_proportional(rows[1], rows[2])


def test_collision_is_reported():
    # r = 0 is theta2 = pi, where the kite puts vortices 2 and 3 together
    assert gradient_rows("kite", Fraction(0)) is None

"""Symbolic gradient and Hessian of the vortex interaction potential.

One dominant vortex sits at the origin and four infinitesimal vortices with
circulation parameters mu1..mu4 sit on the unit circle at angles theta1..4.
Critical points of

    V(theta) = -sum_{i<j} mu_i mu_j [cos(theta_i - theta_j)
                                     + 1/2 log(2 - 2 cos(theta_i - theta_j))]

give the symmetric relative equilibria.  This module builds the scaled
gradient components (1/mu_i) dV/dtheta_i symbolically for a symmetry
scenario that leaves only theta2 free, expands multiple angles into
polynomials in s = sin(theta2), c = cos(theta2) via Chebyshev recurrences,
and reduces each component to a polynomial in the half-angle variable r with

    sin(theta2) = 2r / (1 + r^2),     cos(theta2) = (r^2 - 1) / (1 + r^2).

The reduction drops the component's denominator (it vanishes only at
collisions), clears the half-angle denominators of its numerator, and only
then, in r, divides out the scenario's collision factors.  The
cosine convention here is the reflected one (r = cot(theta2/2)), so angles
are recovered as theta2 = atan2(2r, r^2 - 1).

The gradient and its reduction depend on the scenario alone, never on the
circulations, so ``gradient`` and ``pipeline`` derive them once per process
and scenario (lazily, on the first call) and hand every later caller the
same value: tuples of frozen ``TrigRational``s and ``PipelineComponent``s
whose factor lists are tuples.  Those values are immutable: a ``Poly``
exposes its terms only as a read-only view, so no caller can change a
shared polynomial in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from vortexsym.ratpoly import Poly, VarRegistry
from vortexsym.targets import R_REGISTRY, parsed

TRIG_REGISTRY = VarRegistry(["s", "c", "mu1", "mu2", "mu3", "mu4"])

HALF = Fraction(1, 2)


class CollisionError(ValueError):
    """Two vortices coincide (an angle difference is a multiple of 2*pi)."""


@dataclass(frozen=True)
class SymmetryScenario:
    """theta_i = multiple_i * theta2 + offset_i * pi, with theta1 = 0.

    Only theta2 is ever free, and a scenario that uses it offsets every
    angle by whole multiples of pi, so every cosine of an angle difference
    is free of s = sin(theta2); one without it has only multiples of pi/2.
    The construction rejects anything else.  The sequences are stored as
    tuples, so every scenario is hashable and one built from lists equals
    its tuple twin.
    """

    kind: str
    multiples: tuple
    offsets: tuple
    r_collision_factors: tuple = ()

    def __post_init__(self):
        for name in ("multiples", "offsets", "r_collision_factors"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.multiples) != 4 or len(self.offsets) != 4:
            raise ValueError("scenario needs four angle definitions")
        if self.multiples[0] != 0 or self.offsets[0] != 0:
            raise ValueError("theta1 is pinned to zero")
        for k, q in zip(self.multiples, self.offsets):
            if not isinstance(k, int):
                raise ValueError("angle multiples must be integers")
            if Fraction(q) * 2 % 1 != 0:
                raise ValueError("angle offsets must be multiples of pi/2")
        if self.has_free_angle and any(Fraction(q) % 1 for q in self.offsets):
            raise ValueError("pi/2 offsets cannot mix with a free angle")

    @property
    def has_free_angle(self):
        return any(self.multiples)

    def angles(self, theta2):
        return tuple(k * theta2 + float(q) * math.pi for k, q in zip(self.multiples, self.offsets))

    def difference(self, i, j):
        """Angle difference theta_i - theta_j as (multiple, pi-offset)."""
        return (
            self.multiples[i - 1] - self.multiples[j - 1],
            Fraction(self.offsets[i - 1]) - Fraction(self.offsets[j - 1]),
        )


SQUARE = SymmetryScenario("square", (0, 0, 0, 0), (Fraction(0), HALF, Fraction(1), 3 * HALF))
KITE = SymmetryScenario("kite", (0, 1, 0, -1), (Fraction(0), Fraction(0), Fraction(1), Fraction(0)), ("r",))
RECTANGLE = SymmetryScenario(
    "rectangle", (0, 1, 0, 1), (Fraction(0), Fraction(0), Fraction(1), Fraction(1)), ("r",)
)
TRAPEZOID3 = SymmetryScenario(
    "trapezoid", (0, 1, 2, 3), (Fraction(0),) * 4, ("r", "-1 + 3*r^2")
)

SCENARIOS = {s.kind: s for s in (SQUARE, KITE, RECTANGLE, TRAPEZOID3)}


# ---------------------------------------------------------------------------
# Chebyshev expansion of sin/cos of angle differences
# ---------------------------------------------------------------------------


@functools.cache
def cheb_cos(k):
    """cos(k*theta) as a polynomial in c = cos(theta)."""
    if k < 0:
        return cheb_cos(-k)
    if k < 2:
        return Poly.variable(TRIG_REGISTRY, "c") if k else Poly.constant(TRIG_REGISTRY, 1)
    return 2 * Poly.variable(TRIG_REGISTRY, "c") * cheb_cos(k - 1) - cheb_cos(k - 2)


@functools.cache
def cheb_sin_factor(k):
    """U_{k-1}(c) with sin(k*theta) = sin(theta) * U_{k-1}(cos(theta)), k >= 0."""
    c = Poly.variable(TRIG_REGISTRY, "c")
    if k < 3:
        return (Poly.zero(TRIG_REGISTRY), Poly.constant(TRIG_REGISTRY, 1), 2 * c)[k]
    return 2 * c * cheb_sin_factor(k - 1) - cheb_sin_factor(k - 2)


def _half_turns(q):
    """(cos(q*pi), sin(q*pi)) for q a multiple of 1/2, as exact integers."""
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[int(Fraction(q) * 2) % 4]


def sin_cos_of(k, q):
    """(sin, cos) of k*theta2 + q*pi as s,c polynomials (s-degree at most one)."""
    cq, sq = _half_turns(q)
    sin_k = (1 if k >= 0 else -1) * Poly.variable(TRIG_REGISTRY, "s") * cheb_sin_factor(abs(k))
    cos_k = cheb_cos(k)
    return cq * sin_k + sq * cos_k, cq * cos_k - sq * sin_k


@dataclass(frozen=True)
class TrigRational:
    """One gradient component as the quotient num / den of s,c,mu polynomials.

    The numerator is at most linear in s and the denominator is a nonzero
    polynomial free of s; the construction refuses anything else.
    """

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("trig rational with zero denominator")
        if self.den.uses("s"):
            raise ValueError("denominator must be free of s")
        if self.num.degree_in("s") > 1:
            raise ValueError("numerator must be at most linear in s")


def gradient_component(i, scenario):
    """(1/mu_i) dV/dtheta_i under the scenario substitution, as a TrigRational.

    Each pairwise term is mu_j sin(d_ij) (1 - 2cos(d_ij)) / (2 - 2cos(d_ij))
    with d_ij = theta_i - theta_j, added over the product of the
    denominators; an identically-one cosine means the scenario collides
    vortices i and j.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("vortex index must be 1..4")
    num, den = Poly.zero(TRIG_REGISTRY), Poly.constant(TRIG_REGISTRY, 1)
    for j in range(1, 5):
        if j == i:
            continue
        sin_ij, cos_ij = sin_cos_of(*scenario.difference(i, j))
        term_den = Poly.constant(TRIG_REGISTRY, 2) - 2 * cos_ij
        if term_den.is_zero():
            raise CollisionError(f"scenario {scenario.kind} collides vortices {i} and {j}")
        term_num = Poly.variable(TRIG_REGISTRY, f"mu{j}") * sin_ij * (term_den - 1)
        num, den = num * term_den + term_num * den, den * term_den
    return TrigRational(num, den)


@functools.cache
def gradient(scenario):
    """The four gradient components of ``scenario``, i = 1..4, as a tuple.

    Derived once per process and scenario, on the first call; every later
    call with an equal scenario returns the same tuple, and ``pipeline``
    reduces components 2-4 of it.  ``gradient.cache_clear()`` drops it.
    """
    return tuple(gradient_component(i, scenario) for i in range(1, 5))


# ---------------------------------------------------------------------------
# Collision stripping and the half-angle change of variables
# ---------------------------------------------------------------------------


def strip_collision_factors(p, scenario):
    """Divide a polynomial in r by all powers of the scenario's collision factors.

    Returns (stripped polynomial, list of (factor, multiplicity)); a
    polynomial outside the half-angle registry is refused.  This is the
    pipeline's only stripping step.  The collision factors of the trig ring
    need no pass of their own, because the half-angle map sends them to

        1 - c = 2 / (1 + r^2),  s = 2r / (1 + r^2),  1 + c = 2r^2 / (1 + r^2):

    the clearing power of ``half_angle_polynomialize`` absorbs 1 - c, and
    s and 1 + c become powers of r, which every free-angle scenario lists
    among its ``r_collision_factors``.
    """
    if p.registry != R_REGISTRY:
        raise ValueError(f"collision factors are stripped in r, not over {p.registry}")
    if p.is_zero():
        raise ValueError("cannot strip factors from the zero polynomial")
    stripped = []
    for text in scenario.r_collision_factors:
        f = parsed(R_REGISTRY, text)
        count = 0
        while (q := p.try_divide(f)) is not None:
            p = q
            count += 1
        if count:
            stripped.append((f, count))
    return p, stripped


def half_angle_polynomialize(p):
    """Numerator polynomial in r of an s,c polynomial under the tangent
    half-angle substitution.

    Every term c^k s^e maps to (r^2-1)^k (2r)^e (1+r^2)^(N-k-e) with N the
    maximal k+e, so the result is (1 + r^2)^N p(s(r), c(r)), cleared of all
    half-angle denominators.
    """
    if p.registry != TRIG_REGISTRY:
        raise ValueError("half-angle substitution expects the trig registry")
    si = TRIG_REGISTRY.index("s")
    ci = TRIG_REGISTRY.index("c")
    if p.is_zero():
        return Poly.zero(R_REGISTRY)
    clear = max(m[si] + m[ci] for m in p.ints)
    r = Poly.variable(R_REGISTRY, "r")
    one = Poly.constant(R_REGISTRY, 1)
    sin_num = 2 * r
    cos_num = r * r - one
    unit = r * r + one
    powers_sin = {0: one}
    powers_cos = {0: one}
    powers_unit = {0: one}

    def power(cache, base, e):
        if e not in cache:
            cache[e] = power(cache, base, e - 1) * base
        return cache[e]

    out = Poly.zero(R_REGISTRY)
    for mono, coeff in p.ints.items():
        e, k = mono[si], mono[ci]
        mu_mono = (0,) + mono[2:]
        term = Poly.over(R_REGISTRY, {mu_mono: coeff}, p.den)
        term = term * power(powers_sin, sin_num, e)
        term = term * power(powers_cos, cos_num, k)
        term = term * power(powers_unit, unit, clear - e - k)
        out = out + term
    return out


def angle_of_r(r):
    """theta2 in (-pi, pi] with sin = 2r/(1+r^2) and cos = (r^2-1)/(1+r^2)."""
    r = float(r)
    return math.atan2(2 * r, r * r - 1)


@dataclass(frozen=True)
class PipelineComponent:
    """One gradient component carried from trig form to an r-polynomial.

    The pieces satisfy one exact identity in Q[r, mu]:

        half_angle_polynomialize(trig.num)
            == content * r_poly * prod(f**m for f, m in r_factors).

    The trig denominator is dropped, since it vanishes only at collisions.
    Frozen, with the stripped factors as a tuple of (factor, multiplicity),
    so that the cached ``pipeline`` can hand one instance to every caller.
    """

    index: int
    trig: TrigRational
    r_factors: tuple
    content: Fraction
    r_poly: Poly


def reduce_component(i, scenario):
    """Clear one gradient component's numerator of half-angle denominators,
    then strip its collision factors in r and split off its content."""
    trig = gradient(scenario)[i - 1]
    if trig.num.is_zero():
        raise ValueError(f"component {i} of {scenario.kind} vanishes identically")
    stripped, r_factors = strip_collision_factors(half_angle_polynomialize(trig.num), scenario)
    content, canonical = stripped.content_strip()
    return PipelineComponent(
        index=i,
        trig=trig,
        r_factors=tuple(r_factors),
        content=content,
        r_poly=canonical,
    )


@functools.cache
def pipeline(scenario):
    """Reduced r-polynomials for the three independent components (i = 2, 3, 4).

    Returns a tuple of three frozen ``PipelineComponent``s.  The reduction
    does not depend on the circulations, so it runs once per process and
    scenario, on the first call; every later call with an equal scenario
    returns the same tuple.  ``pipeline.cache_clear()`` drops it.
    """
    if not scenario.has_free_angle:
        raise ValueError(f"{scenario.kind} scenario has no free angle to reduce")
    return tuple(reduce_component(i, scenario) for i in (2, 3, 4))


# ---------------------------------------------------------------------------
# Hessian evaluation
# ---------------------------------------------------------------------------


def _gprime(cos_d):
    """g'(x) = -cos x - 1/(2 - 2 cos x), in the scalar ring of ``cos_d``."""
    if cos_d == 1:
        raise CollisionError("coinciding vortices in Hessian")
    return -cos_d - 1 / (2 - 2 * cos_d)


def hessian(cos_table, mus, weighted=False):
    """Hessian of V as four rows, over the scalar ring of its inputs.

    ``cos_table[i][j]`` is cos(theta_i - theta_j), an even function of the
    difference, so only the entries above the diagonal are read; they lie
    in a field such as float, Fraction or Q(sqrt(2)).  ``mus`` are the four
    circulations in any ring that multiplies with it, Polys included.
    The i != j entry is mu_i mu_j g'(theta_i - theta_j) with
    g'(x) = -cos x - 1/(2 - 2 cos x), formed once per unordered pair;
    diagonals are the negated row sums, which realises the rotational
    degeneracy V_theta_theta * 1 = 0.  With ``weighted`` the rows are those
    of mu^{-1} V_theta_theta (row i divided by mu_i), which is not
    symmetric.  g' is evaluated once per distinct cosine of the table
    (keyed with its type, so that equal values of different rings keep
    their own ring).
    """
    gprime = {}
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            cos_d = cos_table[i][j]
            key = (type(cos_d), cos_d)
            g = gprime.get(key)
            if g is None:
                g = gprime[key] = _gprime(cos_d)
            if weighted:
                rows[i][j], rows[j][i] = mus[j] * g, mus[i] * g
            else:
                rows[i][j] = rows[j][i] = mus[i] * mus[j] * g
    for i, row in enumerate(rows):
        row[i] = -sum(x for j, x in enumerate(row) if j != i)
    return rows


def _eval_in_c(poly, x):
    """Value of a polynomial in c at c = x, by ring operations only."""
    c_idx = TRIG_REGISTRY.index("c")
    total = 0
    for mono, coeff in poly.ints.items():
        term = coeff
        for _ in range(mono[c_idx]):
            term = term * x
        total = total + term
    return total / poly.den if poly.den != 1 else total


def scenario_cos_table(scenario, cos_theta2=None):
    """Exact cos(theta_i - theta_j) values from a cosine of theta2.

    Needs cos(theta2) whenever the scenario actually uses the free angle.
    Entries come out of the Chebyshev expansion evaluated with ring
    operations, so they lie in the ring of ``cos_theta2``: a rational
    cosine gives rational cosines of all differences, an element of
    Q(sqrt(2)) gives elements of Q(sqrt(2)).  Differences free of theta2
    are rational.
    """
    if isinstance(cos_theta2, (int, float)):
        cos_theta2 = Fraction(cos_theta2)
    table = [[Fraction(1)] * 4 for _ in range(4)]
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            k, q = scenario.difference(i, j)
            if k != 0 and cos_theta2 is None:
                raise ValueError("scenario needs cos(theta2)")
            cq = _half_turns(q)[0]
            table[i - 1][j - 1] = cq * _eval_in_c(cheb_cos(k), cos_theta2) if k else Fraction(cq)
    return table


def char_poly_in(rows, registry, var):
    """Characteristic polynomial of a Poly-entried matrix, as a Poly in ``var``.

    The matrix entries and the result live in ``registry`` (which must
    contain ``var``).  ``realroots.char_poly`` runs Faddeev-LeVerrier
    fraction-free on the matrix cleared of denominators over Z[x], so the
    result is exact.
    """
    from vortexsym.realroots import char_poly

    lam = Poly.variable(registry, var)
    out = Poly.zero(registry)
    for k, ck in enumerate(char_poly(rows)):
        out = out + ck.map_to(registry) * lam**k
    return out

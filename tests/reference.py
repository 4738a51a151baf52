"""Plain references over Q that the tests check the package's kernels against.

``FracPoly`` is polynomial arithmetic on ``{monomial: Fraction}`` dicts,
the oracle for ``ratpoly.Poly``.  ``reduce`` is textbook multivariate
division with remainder on ``Fraction`` coefficients; ``textbook_basis`` and ``reference_hermite`` are built on it.
``box_standard_monomials`` filters the box below the pure powers.
``s_polynomial`` and ``buchberger_criterion`` check a basis pair by pair.
``reference_char_poly`` is Faddeev-LeVerrier over the entries' own ring,
and ``eval_at`` is Horner on a dense coefficient list in the ring of its
point, the oracle for the integer sign test ``realroots.sign_at``.
``weighted_gradient_sum`` is the rotation-symmetry identity of the gradient;
``potential``, ``gradient`` and ``cos_table`` evaluate the potential, its
gradient and the cosines of a configuration in floats.  The half-angle
pipeline has no float reference: each component is checked as one exact
identity in Q[r, mu], and against ``gradient_rows``, the gradient computed
exactly at rational half-angles from the angles alone.
None of them is fast, and none is used by the package itself.
"""

import math
from fractions import Fraction
from itertools import product

from vortexsym.groebner import normal_form, standard_monomials
from vortexsym.ratpoly import Poly, mono_div, mono_divides, mono_mul
from vortexsym.trigvortex import TRIG_REGISTRY, TrigRational, gradient_component


def reduce(p, divisors, order):
    """Multivariate division with remainder: ``p = sum q_i d_i + rem``.

    No term of ``rem`` is divisible by the leading monomial of any divisor;
    the result is deterministic in the divisor order (first match wins).
    """
    divisors = list(divisors)
    if any(d.is_zero() for d in divisors):
        raise ValueError("divisors must be nonzero")
    reg = p.registry
    lead = [d.leading_term(order) for d in divisors]
    quotients = [dict() for _ in divisors]
    remainder = {}
    tails = [dict(d.terms) for d in divisors]
    work = dict(p.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for i, (dm, dc) in enumerate(lead):
            if mono_divides(dm, m):
                qm = mono_div(m, dm)
                qc = c / dc
                quotients[i][qm] = quotients[i].get(qm, 0) + qc
                for m2, c2 in tails[i].items():
                    if m2 == dm:
                        continue
                    mm = mono_mul(qm, m2)
                    s = work.get(mm, Fraction(0)) - qc * c2
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = remainder.get(m, Fraction(0)) + c
    return (
        [Poly(reg, q) for q in quotients],
        Poly(reg, remainder),
    )


class FracPoly:
    """A polynomial as a dict ``{monomial: Fraction}`` of nonzero
    coefficients: the arithmetic ``ratpoly.Poly`` ran before it moved to
    integer numerators over one denominator, kept as the oracle for it.
    Every operation builds its dict in the same order as ``Poly`` does, so
    ``terms`` of both agree as ordered lists."""

    def __init__(self, registry, terms):
        self.registry = registry
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    @classmethod
    def of(cls, poly):
        return cls(poly.registry, poly.terms)

    def _scalar(self, value):
        zero = (0,) * len(self.registry)
        return FracPoly(self.registry, {zero: value})

    def _combine(self, other, sign):
        if not isinstance(other, FracPoly):
            other = self._scalar(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, Fraction(0)) + sign * c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return FracPoly(self.registry, res)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return FracPoly(self.registry, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly(self.registry, {m: c * other for m, c in self.terms.items()})
        return FracPoly(self.registry, _frac_mul(self.terms, other.terms))

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __pow__(self, n):
        result = self._scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, values):
        point = [values[n] for n in self.registry.names]
        total = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, mono):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def subs(self, mapping):
        """``mapping`` sends names to scalars or ``FracPoly``s."""
        images = [mapping.get(n) for n in self.registry.names]
        powers = {}
        result = {}
        for mono, coeff in self.terms.items():
            kept = list(mono)
            factors = []
            for i, e in enumerate(mono):
                v = images[i]
                if not e or v is None:
                    continue
                kept[i] = 0
                if isinstance(v, FracPoly):
                    if (i, e) not in powers:
                        powers[(i, e)] = (v**e).terms
                    factors.append(powers[(i, e)])
                else:
                    coeff *= Fraction(v) ** e
            if not coeff:
                continue
            term = {tuple(kept): coeff}
            for f in factors:
                term = _frac_mul(term, f)
            for m, c in term.items():
                s = result.get(m, 0) + c
                if s:
                    result[m] = s
                else:
                    result.pop(m, None)
        return FracPoly(self.registry, result)

    def map_to(self, registry):
        positions = [registry.index(n) if registry.contains(n) else None for n in self.registry.names]
        terms = {}
        for mono, coeff in self.terms.items():
            exps = [0] * len(registry)
            for i, e in enumerate(mono):
                if e:
                    exps[positions[i]] = e
            terms[tuple(exps)] = coeff
        return FracPoly(registry, terms)

    def coefficients_in(self, names):
        idx = [self.registry.index(n) for n in names]
        groups = {}
        for mono, coeff in self.terms.items():
            sub = tuple(mono[i] for i in idx)
            rest = tuple(0 if i in idx else e for i, e in enumerate(mono))
            groups.setdefault(sub, {})[rest] = coeff
        return {sub: FracPoly(self.registry, bucket) for sub, bucket in groups.items()}

    def content_strip(self, order):
        """``(c, q)`` with ``q`` integer-primitive and positive-leading."""
        if not self.terms:
            return Fraction(1), self
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = math.lcm(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        if self.terms[max(self.terms, key=order.key)] < 0:
            content = -content
        return content, FracPoly(self.registry, {m: c / content for m, c in self.terms.items()})


def _frac_mul(a, b):
    res = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = res.get(m, 0) + c1 * c2
            if s:
                res[m] = s
            else:
                res.pop(m, None)
    return res


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(f, g, order):
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    L = mono_lcm(mf, mg)
    tf = Poly(f.registry, {mono_div(L, mf): Fraction(1) / cf})
    tg = Poly(g.registry, {mono_div(L, mg): Fraction(1) / cg})
    return tf * f - tg * g


def buchberger_criterion(gb):
    """Whether every S-polynomial of ``gb`` reduces to zero modulo it."""
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            s = s_polynomial(gb.polys[i], gb.polys[j], gb.order)
            if not normal_form(s, gb).is_zero():
                return False
    return True


def textbook_basis(gens, order):
    """Reduced basis by plain Buchberger over Q: every S-polynomial is
    divided with ``reduce``, no criteria, then minimalised, inter-reduced,
    made primitive and positive-leading and sorted by leading monomial."""
    basis = list(gens)
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def lead(p):
        return order.key(p.leading_monomial(order))

    def lcm_degree(pair):
        a, b = (basis[k].leading_monomial(order) for k in pair)
        return sum(max(x, y) for x, y in zip(a, b))

    while pairs:
        pair = min(pairs, key=lcm_degree)
        pairs.remove(pair)
        i, j = pair
        _, r = reduce(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r.primitive())

    minimal = []
    for p in sorted(basis, key=lead):
        lm = p.leading_monomial(order)
        if not any(mono_divides(q.leading_monomial(order), lm) for q in minimal):
            minimal.append(p)
    reduced = [
        reduce(p, minimal[:i] + minimal[i + 1 :], order)[1].primitive()
        for i, p in enumerate(minimal)
    ]
    reduced = [-p if p.leading_term(order)[1] < 0 else p for p in reduced]
    return sorted(reduced, key=lead)


def box_standard_monomials(gb):
    """Standard monomials of a zero-dimensional grevlex basis by filtering
    the box below the smallest pure power of each variable: every monomial
    that no leading monomial divides, in increasing order."""
    lts = gb.leading_monomials()
    n = len(gb.registry)
    bounds = [min(lt[i] for lt in lts if lt[i] and sum(lt) == lt[i]) for i in range(n)]
    box = product(*(range(b) for b in bounds))
    standard = [t for t in box if not any(mono_divides(lt, t) for lt in lts)]
    return tuple(sorted(standard, key=gb.order.key))


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


def reference_char_poly(rows):
    """Faddeev-LeVerrier with Fraction arithmetic over the entries' own ring
    (Q, Q[x] as ``Poly`` or Q(sqrt(2)) as ``Sqrt2``), ascending coefficients.
    The leading 1 is a Fraction for a rational matrix and the int 1 otherwise."""
    n = len(rows)
    a = [[Fraction(c) if isinstance(c, int) else c for c in row] for row in rows]
    rational = all(isinstance(c, Fraction) for row in a for c in row)
    coeffs = [Fraction(1) if rational else 1]  # descending
    m = a
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + coeffs[-1] if t == j else x for j, x in enumerate(row)] for t, row in enumerate(m)]
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*shifted)] for row in a]
        coeffs.append(-sum(m[i][i] for i in range(n)) / k)
    return coeffs[::-1]


def eval_at(coeffs, x):
    """p(x) by Horner for dense ascending coefficients: exact for a rational
    x, a float for a float x."""
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def weighted_gradient_sum(scenario):
    """sum_i mu_i * gradient_component(i): identically zero by rotation symmetry."""
    total = TrigRational(Poly.zero(TRIG_REGISTRY))
    for i in range(1, 5):
        mu_i = Poly.variable(TRIG_REGISTRY, f"mu{i}")
        total = total + gradient_component(i, scenario) * mu_i
    return total


def potential(thetas, mus):
    total = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            d = thetas[i] - thetas[j]
            total -= float(mus[i] * mus[j]) * (
                math.cos(d) + 0.5 * math.log(2 - 2 * math.cos(d))
            )
    return total


def gradient(thetas, mus):
    """The four components of grad V (including the mu_i weights)."""
    out = []
    for i in range(4):
        acc = 0.0
        for j in range(4):
            if j == i:
                continue
            d = thetas[i] - thetas[j]
            acc += float(mus[j]) * math.sin(d) * (1 - 1 / (2 - 2 * math.cos(d)))
        out.append(float(mus[i]) * acc)
    return out


def cos_table(thetas):
    """cos(theta_i - theta_j) of four angles as floats, the input of
    ``hessian``."""
    return [[math.cos(a - b) for b in thetas] for a in thetas]


# ---------------------------------------------------------------------------
# The gradient at rational half-angles, exactly
# ---------------------------------------------------------------------------

# theta_i = k * theta2 + q * pi for i = 1..4, as (k, q), after the paper
ANGLES = {
    "kite": ((0, 0), (1, 0), (0, 1), (-1, 0)),
    "rectangle": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "trapezoid": ((0, 0), (1, 0), (2, 0), (3, 0)),
}

# 25 fixed points n/d, |n| <= 5, d <= 3; 22 survive the exclusions of
# r = 0 and r^2 = 1
HALF_ANGLE_POINTS = sorted({Fraction(n, d) for n, d in product(range(-5, 6), (1, 2, 3))})


def half_angle(r):
    """(cos theta2, sin theta2) at r = cot(theta2/2), exactly."""
    unit = r * r + 1
    return (r * r - 1) / unit, 2 * r / unit


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _unit_power(z, k):
    """z**k for z = (cos, sin) on the unit circle and any integer k."""
    if k < 0:
        z, k = (z[0], -z[1]), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _mul(out, z)
    return out


def gradient_rows(kind, r):
    """Rows i = 2, 3, 4 of the scaled gradient at r as coefficient lists
    over (mu1, ..., mu4), or None when two vortices collide: entry j of
    row i is sin d_ij (1 - 1/(2 - 2 cos d_ij)) with d_ij = theta_i - theta_j,
    from the angles alone."""
    e2 = half_angle(r)
    points = []
    for k, q in ANGLES[kind]:
        x, y = _unit_power(e2, k)
        points.append((-x, -y) if q % 2 else (x, y))
    rows = []
    for i in (1, 2, 3):
        row = [Fraction(0)] * 4
        for j in range(4):
            if j == i:
                continue
            cos_d, sin_d = _mul(points[i], (points[j][0], -points[j][1]))
            if cos_d == 1:
                return None
            row[j] = sin_d * (1 - 1 / (2 - 2 * cos_d))
        rows.append(row)
    return rows

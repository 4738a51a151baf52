"""Exact real-root counting and isolation, matrix inertia, Hermite trace forms.

Univariate polynomials are dense ascending coefficient lists.  Callers may
pass exact rationals; the Sturm layer converts each input once to a
primitive integer list (a positive multiple, so every sign is kept) and
then works in integers only: chains by pseudo-remainders, signs at a point
n/d by a scaled Horner that computes d^deg * p(n/d), and bisection on
integer numerators over a power-of-two-scaled common denominator (Collins &
Loos, "Real zeros of polynomials", 1982).  Root isolation runs Sturm
bisection on the squarefree part, with exact rational roots cut out, so
every interval is certified to contain exactly one root; endpoints become
``Fraction``s only when an interval is returned.  Characteristic
polynomials run one Faddeev-LeVerrier loop fraction-free, on the matrix
cleared of denominators over Z or Z[x].  The Hermite method builds
the trace form of a zero-dimensional quotient ring over its
standard-monomial basis in integer arithmetic (Pedersen, Roy & Szpirglas,
1993); its signature, found by fraction-free symmetric elimination on each
block of its nonzero pattern, counts distinct real solutions and its rank
distinct complex ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add, mul

from vortexsym.groebner import buchberger, standard_monomials
from vortexsym.ratpoly import (
    ExactDivisionError,
    GrevLex,
    Immutable,
    Poly,
    RegistryMismatchError,
    _div_exact,
)


class PositiveDimensionalError(ValueError):
    """The ideal has infinitely many solutions; counting does not apply."""


class InertiaCountError(ArithmeticError):
    """The signs found by an inertia computation do not add up to the size."""


# ---------------------------------------------------------------------------
# Dense univariate helpers (ascending coefficients)
# ---------------------------------------------------------------------------


def int_coeffs(p, var):
    """Dense ascending integer numerators of a polynomial in ``var`` alone:
    ``p.den`` times its coefficients, so the same roots and signs."""
    i = p.registry.index(var)
    if any(e and j != i for m in p.ints for j, e in enumerate(m)):
        raise ValueError(f"polynomial is not univariate in {var!r}")
    out = [0] * (p.degree_in(var) + 1)
    for m, c in p.ints.items():
        out[m[i]] = c
    return _trim(out)


def coeffs_from_poly(p, var):
    """Dense ascending ``Fraction`` coefficients of a polynomial in ``var`` alone."""
    return [Fraction(c, p.den) for c in int_coeffs(p, var)]


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(coeffs):
    return len(coeffs) - 1


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive_int(coeffs):
    """Integer coefficients with content 1: a positive multiple of the input."""
    den = reduce(lcm, (c.denominator for c in coeffs), 1)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = reduce(gcd, ints, 0)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def sign_at(coeffs, num, den):
    """Sign of p(num / den) for integer coefficients and den > 0.

    Horner on den^deg * p(num / den) = sum c_i num^i den^(deg - i), which
    has the sign of p(num / den) and stays in integers.  A positive multiple
    of p (``int_coeffs`` of a ``Poly``, say) has the same signs, so every
    sign or zero test at a rational point runs here.
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _scale_var(coeffs, den):
    """Coefficients of den^deg * p(y / den), whose roots are den times p's."""
    deg = degree(coeffs)
    return [c * den ** (deg - i) for i, c in enumerate(coeffs)]


def _poly_rem(a, b):
    """Primitive remainder of integer lists a mod b (b nonzero).

    A pseudo-remainder that scales ``a`` by ``|lc(b)|`` only, so it is a
    positive multiple of the remainder over Q and has the same signs.
    """
    a = list(a)
    db = degree(b)
    lb = b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    while degree(a) >= db and a:
        k = degree(a) - db
        f = sign * a[-1]
        a = [c * scale for c in a]
        for i in range(db + 1):
            a[k + i] -= f * b[i]
        a.pop()
        _trim(a)
    return _primitive_int(a)


def poly_gcd(a, b):
    """Primitive integer gcd of two coefficient lists, positive-leading;
    ``[]`` when both are zero."""
    a = _primitive_int(_trim(list(a)))
    b = _primitive_int(_trim(list(b)))
    while b:
        a, b = b, _poly_rem(a, b)
    return [-c for c in a] if a and a[-1] < 0 else a


def squarefree_part(coeffs):
    """Primitive integer squarefree part, a positive multiple of p / gcd(p, p')."""
    coeffs = _primitive_int(_trim(list(coeffs)))
    if degree(coeffs) < 1:
        return coeffs
    g = poly_gcd(coeffs, derivative(coeffs))
    if degree(g) == 0:
        return coeffs
    # quotient of two primitive lists: integral and primitive (Gauss's lemma)
    quotient = _div_exact(
        {(i,): c for i, c in enumerate(coeffs) if c}, {(i,): c for i, c in enumerate(g) if c}
    )
    dense = [0] * (degree(coeffs) - degree(g) + 1)
    for (i,), c in quotient.items():
        dense[i] = c
    return dense


# ---------------------------------------------------------------------------
# Certified rational interval arithmetic
# ---------------------------------------------------------------------------


class RatInterval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo, self.hi = lo, hi

    @classmethod
    def _of(cls, lo, hi):
        """The interval from ``Fraction`` endpoints already in order."""
        iv = object.__new__(cls)
        iv.lo, iv.hi = lo, hi
        return iv

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval._of(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval._of(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval._of(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatInterval):
            if other.lo <= 0 <= other.hi:
                raise ZeroDivisionError("interval denominator straddles zero")
            return self * RatInterval._of(1 / other.hi, 1 / other.lo)
        scalar = Fraction(other)
        if scalar == 0:
            raise ZeroDivisionError
        a, b = self.lo / scalar, self.hi / scalar
        return RatInterval._of(min(a, b), max(a, b))

    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return (self.lo + self.hi) / 2

    def __float__(self):
        return float(self.midpoint())

    def contains(self, x):
        return self.lo <= x <= self.hi

    def meets(self, other):
        """Whether the two closed intervals share a point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def is_positive(self):
        return self.lo > 0

    def is_negative(self):
        return self.hi < 0

    def sqrt(self):
        """An enclosure of the square roots of this interval's points, with
        endpoints on the grid of multiples of 2^-96: the floor of sqrt(lo)
        and the ceiling of sqrt(hi) there."""
        if self.lo < 0:
            raise ValueError("interval crosses zero; square root undefined")
        lo = isqrt((self.lo.numerator << 192) // self.lo.denominator)
        n = -(-(self.hi.numerator << 192) // self.hi.denominator)
        hi = isqrt(n)
        if hi * hi < n:
            hi += 1
        return RatInterval._of(Fraction(lo, 1 << 96), Fraction(hi, 1 << 96))

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def _as_interval(x):
    if isinstance(x, RatInterval):
        return x
    return RatInterval(x)


def eval_interval(coeffs, interval):
    """Interval Horner evaluation of a dense ascending coefficient list."""
    acc = RatInterval(0)
    for c in reversed(coeffs):
        acc = acc * interval
        acc = RatInterval._of(acc.lo + c, acc.hi + c)
    return acc


# ---------------------------------------------------------------------------
# Descartes and Sturm
# ---------------------------------------------------------------------------


def descartes_positive(coeffs):
    """Descartes bound on positive real roots: (count_or_bound, exact).

    The bound is exact when it is 0 or 1, as it can only drop by even
    numbers.
    """
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial")
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes, changes <= 1


def _variations(chain, num, den):
    """Sign variations of integer-list chain members at num / den, den > 0."""
    signs = [s for s in (sign_at(p, num, den) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_chain(sf):
    """Sturm chain of a squarefree primitive integer list of degree >= 1.

    The members are primitive integer lists, each a positive multiple of the
    classical chain member over Q, so they have the same signs everywhere.
    """
    chain = [sf, _primitive_int(derivative(sf))]
    while degree(chain[-1]) > 0:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


class IsolatingInterval(RatInterval):
    """Certified enclosure of exactly one real root of ``coeffs``: the root
    lies in [lo, hi], with lo == hi for an exact rational root and a strict
    sign change across the interval otherwise.

    A value like any :class:`RatInterval`: :meth:`refine` returns a new,
    narrower enclosure and leaves this one as it is.
    """

    __slots__ = ("coeffs",)

    def __init__(self, lo, hi, coeffs):
        super().__init__(lo, hi)
        self.coeffs = tuple(coeffs)

    @property
    def exact(self):
        return self.lo == self.hi

    def refine(self, eps):
        """The enclosure of width < eps that sign-preserving bisection of
        this one ends with.

        ``eps`` must be positive.  The bisection runs in integers: with D
        the lcm of the endpoint denominators, the endpoints after j halvings
        are integer numerators over D * 2^j, and each midpoint sign comes
        from the polynomial scaled by D.  The enclosure is exactly the one
        that halving ``Fraction`` endpoints gives.
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError(f"refinement width must be positive, got {eps}")
        if self.exact:
            return self
        den = lcm(self.lo.denominator, self.hi.denominator)
        a = self.lo.numerator * (den // self.lo.denominator)
        b = self.hi.numerator * (den // self.hi.denominator)
        scaled = _scale_var(_primitive_int(self.coeffs), den)
        s_lo = 1 if sign_at(scaled, a, 1) > 0 else -1
        # width (b - a) / (den * 2^j) >= eps, cross-multiplied
        limit = eps.numerator * den
        j = 0
        while (b - a) * eps.denominator >= limit << j:
            mid = a + b
            j += 1
            s = sign_at(scaled, mid, 1 << j)
            if s == 0:
                a = b = mid
                break
            if s == s_lo:
                a, b = mid, 2 * b
            else:
                a, b = 2 * a, mid
        return IsolatingInterval(Fraction(a, den << j), Fraction(b, den << j), self.coeffs)


def root_bound(coeffs):
    """Cauchy bound: every real root lies in (-B, B)."""
    lc = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(lc + m, lc)


def sturm_isolate(coeffs):
    """Disjoint isolating intervals for all real roots of the polynomial with
    dense ascending coefficients ``coeffs``, in ascending order; their
    number is the number of distinct real roots.

    The squarefree part is taken first; exact rational roots found during
    bisection are cut out and reported as point intervals.  With the root
    bound B = num / den, bisection runs in y = den * x, where the start
    interval is (-num, num) and every later endpoint is an integer
    numerator over a power of two; each stack entry carries the Sturm
    variations at its endpoints, so each new point is evaluated once.
    """
    sf = squarefree_part(coeffs)
    if degree(sf) < 1:
        return []
    bound = root_bound(sf)
    den = bound.denominator
    chain = [_scale_var(p, den) for p in _sturm_chain(sf)]
    p = chain[0]

    def variations(num, j):
        return _variations(chain, num, 1 << j)

    sf = tuple(sf)

    def interval(lo, hi, j):
        return IsolatingInterval(Fraction(lo, den << j), Fraction(hi, den << j), sf)

    intervals = []
    top = bound.numerator
    # entries (lo, variations at lo, hi, variations at hi, j): endpoints
    # are numerators over 2^j in y
    stack = [(-top, variations(-top, 0), top, variations(top, 0), 0)]
    while stack:
        lo, v_lo, hi, v_hi, j = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1:
            # one simple root inside, so the endpoint signs differ
            intervals.append(interval(lo, hi, j))
            continue
        mid, lo, hi, j = lo + hi, 2 * lo, 2 * hi, j + 1
        if sign_at(p, mid, 1 << j) == 0:
            # exact rational root at the split point: report it as a point
            # interval and cut out a window (mid - delta, mid + delta),
            # delta = width / 4 halved until it holds only this root
            intervals.append(interval(mid, mid, j))
            delta = hi - lo
            lo, mid, hi, j = 4 * lo, 4 * mid, 4 * hi, j + 2
            while True:
                a, b = mid - delta, mid + delta
                if sign_at(p, a, 1 << j) and sign_at(p, b, 1 << j):
                    v_a, v_b = variations(a, j), variations(b, j)
                    if v_a - v_b == 1:
                        break
                lo, mid, hi, j = 2 * lo, 2 * mid, 2 * hi, j + 1
            stack.append((lo, v_lo, a, v_a, j))
            stack.append((b, v_b, hi, v_hi, j))
            continue
        v_mid = variations(mid, j)
        stack.append((lo, v_lo, mid, v_mid, j))
        stack.append((mid, v_mid, hi, v_hi, j))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return intervals


# ---------------------------------------------------------------------------
# Exact symmetric matrices
# ---------------------------------------------------------------------------


class SymMatrix(Immutable):
    """Symmetric matrix with exact rational entries, held as integer rows
    ``ints`` over one positive denominator ``den``.

    ``SymMatrix(rows)`` takes rational rows and checks that they are square
    and symmetric; :meth:`over` wraps integer rows already known to be.
    ``rows`` reads the entries back as ``Fraction``s.  No attribute can be
    assigned or deleted after construction.
    """

    __slots__ = ("ints", "den", "n")

    def __init__(self, rows):
        rows = [tuple(Fraction(c) for c in row) for row in rows]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        den = reduce(lcm, (c.denominator for row in rows for c in row), 1)
        ints = tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "n", n)

    @classmethod
    def over(cls, ints, den):
        """The matrix ``ints / den`` from square, symmetric integer rows and
        a positive integer ``den``, taken as given."""
        m = object.__new__(cls)
        ints = tuple(map(tuple, ints))
        object.__setattr__(m, "ints", ints)
        object.__setattr__(m, "den", den)
        object.__setattr__(m, "n", len(ints))
        return m

    def __reduce__(self):
        return SymMatrix.over, (self.ints, self.den)

    @property
    def rows(self):
        den = self.den
        return tuple(tuple(Fraction(c, den) for c in row) for row in self.ints)


def char_poly(rows):
    """Faddeev-LeVerrier characteristic polynomial of a square matrix.

    Returns the ascending coefficients of det(lambda*I - A).  The entries
    are ints and ``Fraction``s, possibly mixed with ``Poly``s over one
    registry.  The matrix is lowered once to d*A, with d the positive lcm
    of every rational denominator in it, over Z or Z[x] (integer
    coefficient dicts keyed by packed monomials), and one fraction-free
    loop runs there (``int_char_poly`` over Z): its coefficients are
    integral, so each division by k
    is exact, and a nonzero remainder raises ``ExactDivisionError``.  The
    coefficient of lambda^(n-k) is lifted back over d^k.  The coefficients
    are all ``Fraction``s for a rational matrix and all ``Poly``s over the
    entries' registry, the leading 1 included, for a matrix with a ``Poly``
    entry.  Ragged or non-square rows and ``Poly``s over different
    registries raise ``ValueError``, other entries (``Sqrt2`` included)
    ``TypeError``.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("char_poly needs a square matrix")
    entries = [c for row in rows for c in row]
    if not any(isinstance(c, Poly) for c in entries):
        d = reduce(lcm, (c.denominator for _, c in map(_constant_part, entries)), 1)
        a = [[c.numerator * (d // c.denominator) for c in row] for row in rows]
        return [Fraction(c, d ** (n - k)) for k, c in enumerate(int_char_poly(a))]
    a, d, lift = _lower_poly(rows, entries)
    coeffs = _faddeev_leverrier(a, _dot_sparse, _add_sparse, _neg_div_sparse)
    out = [lift(c, d**k) for k, c in enumerate(coeffs, 1)]
    return [*reversed(out), lift({0: 1}, 1)]


def int_char_poly(a):
    """Ascending integer coefficients of det(y*I - A) for an integer matrix.

    For a rational matrix B cleared to A = d*B, det(lambda*I - B) has the
    root lambda exactly when this polynomial has the root d*lambda, so a
    root test needs no ``Fraction``: ``sign_at(p, d * num, den)``.
    """
    return [*reversed(_faddeev_leverrier(a, _dot_int, add, _neg_div_int)), 1]


def _faddeev_leverrier(a, dot, add, neg_div):
    """c_1, ..., c_n with det(lambda*I - A) = sum_k c_k lambda^(n-k), c_0 = 1.

    The scalars form an integral ring given by its dot product, its sum
    and its exact -x/k.  M_1 = A, M_k = A (M_{k-1} + c_{k-1} I) and
    c_k = -tr(M_k)/k; of M_n only the diagonal is formed.
    """
    n = len(a)
    coeffs = []
    m = a
    diag = [row[i] for i, row in enumerate(a)]
    for k in range(1, n + 1):
        if k > 1:
            cols = [list(col) for col in zip(*m)]
            for i, col in enumerate(cols):
                col[i] = add(col[i], coeffs[-1])
            if k < n:
                m = [[dot(row, col) for col in cols] for row in a]
                diag = [row[i] for i, row in enumerate(m)]
            else:
                diag = list(map(dot, a, cols))
        trace = diag[0]
        for x in diag[1:]:
            trace = add(trace, x)
        coeffs.append(neg_div(trace, k))
    return coeffs


def _constant_part(c):
    if isinstance(c, (int, Fraction)):
        return 0, c
    raise TypeError(f"cannot mix {type(c).__name__} entries into this matrix")


def _lower_poly(rows, entries):
    """d*A over Z[x] as integer dicts, d, and the lift back to ``Poly``: each
    monomial packs into one int whose fields fit every exponent of a
    degree-n product, so multiplying monomials is adding keys."""
    polys = [c for c in entries if isinstance(c, Poly)]
    reg = polys[0].registry
    for p in polys:
        if p.registry != reg:
            raise RegistryMismatchError(f"cannot mix registries {reg} and {p.registry}")
    top = max((e for p in polys for m in p.ints for e in m), default=0)
    width = (len(rows) * top).bit_length() or 1
    shifts = range(0, width * len(reg), width)
    mask = (1 << width) - 1

    def lowered(c):  # integer numerators keyed by packed monomial, and their denominator
        if not isinstance(c, Poly):
            _, q = _constant_part(c)
            return ({0: q.numerator} if q else {}), q.denominator
        return {sum(e << s for e, s in zip(m, shifts)): n for m, n in c.ints.items()}, c.den

    def lift(c, scale):
        return Poly.over(reg, {tuple(key >> s & mask for s in shifts): v for key, v in c.items()}, scale)

    split = [[lowered(c) for c in row] for row in rows]
    d = reduce(lcm, (den for row in split for _, den in row), 1)
    a = [[{k: n * (d // den) for k, n in ints.items()} for ints, den in row] for row in split]
    return a, d, lift


def _dot_int(row, col):
    return sum(map(mul, row, col))


def _neg_div_int(x, k):
    q, r = divmod(-x, k)
    if r:
        raise ExactDivisionError(r)
    return q


def _dot_sparse(row, col):
    """Sum of products of integer dicts whose keys add when multiplied."""
    acc = {}
    get = acc.get
    for x, y in zip(row, col):
        for kx, cx in x.items():
            for ky, cy in y.items():
                key = kx + ky
                acc[key] = get(key, 0) + cx * cy
    return {key: c for key, c in acc.items() if c}


def _add_sparse(x, y):
    out = dict(x)
    for key, c in y.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _neg_div_sparse(x, k):
    return {key: _neg_div_int(c, k) for key, c in x.items()}


def inertia(matrix):
    """Exact (n_pos, n_neg, n_zero) of a symmetric rational matrix.

    The integer rows ``B`` of the matrix (its entries times a positive
    denominator) are split into the connected components of their nonzero
    pattern, and the inertias of these diagonal blocks add up.  Each block
    is reduced by fraction-free symmetric elimination, by congruence
    transformations, on its upper triangle alone: ``B = s * S`` for a
    rational scalar ``s`` of known sign and the exact trailing block ``S``.
    Each step with pivot ``p = B_kk`` replaces the trailing block by
    ``p * B_ij - B_ik * B_kj``, which is ``p * s`` times the Schur complement
    of ``S_kk`` in ``S``, and then divides out its content.  The pivot of
    the congruent diagonal form is ``S_kk = p / s``, so its sign is that of
    ``p`` flipped when ``s`` is negative.  A zero pivot is replaced by a
    later nonzero diagonal entry, or made nonzero by adding a row and column
    with a nonzero off-diagonal entry; a zero row counts as a zero
    eigenvalue.  This stays in integers and avoids the coefficient blow-up
    of a characteristic polynomial in high dimension.
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix(matrix)
    n = matrix.n
    b = matrix.ints
    pos = neg = zero = 0
    for block in _components(b):
        upper = [[b[i][j] for j in block[k:]] for k, i in enumerate(block)]
        p, m, z = _upper_inertia(upper)
        pos, neg, zero = pos + p, neg + m, zero + z
    if pos + neg + zero != n:
        raise InertiaCountError(f"{pos} + {neg} + {zero} signs for size {n}")
    return (pos, neg, zero)


def _components(b):
    """Index sets of the connected components of the nonzero pattern of
    the symmetric matrix ``b``, each ascending, by smallest index."""
    seen = [False] * len(b)
    blocks = []
    for start in range(len(b)):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j, x in enumerate(b[i]):
                if x and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _upper_inertia(u):
    """(n_pos, n_neg, n_zero) of the symmetric integer matrix whose upper
    triangle is ``u``: row ``i`` holds the entries ``(i, j)`` for ``j >= i``."""
    pos = neg = zero = 0
    flipped = False  # whether the scalar s is negative
    while u:
        first = u[0]
        if first[0] == 0:
            pivot = next((i for i in range(1, len(u)) if u[i][0] != 0), None)
            if pivot is not None:
                u = _to_front(u, pivot)
            else:
                off = next((j for j in range(1, len(first)) if first[j] != 0), None)
                if off is None:
                    zero += 1
                    u = u[1:]
                    continue
                # congruence: add row and column ``off`` into 0, making
                # the pivot 2 * b[0][off] != 0 (b[off][off] is zero too)
                u[0] = [2 * first[off]] + [
                    x + (u[j][off - j] if j < off else u[off][j - off])
                    for j, x in enumerate(first[1:], 1)
                ]
        top = u[0]
        p = top[0]
        if (p > 0) != flipped:
            pos += 1
        else:
            neg += 1
        flipped ^= p < 0
        u = [
            [p * x - f * y for x, y in zip(row, top[i:])]
            for i, row in enumerate(u[1:], 1)
            for f in (top[i],)
        ]
        g = 0
        for row in u:
            g = reduce(gcd, row, g)
            if g == 1:
                break
        if g > 1:
            u = [[x // g for x in row] for row in u]
    return pos, neg, zero


def _to_front(u, k):
    """The upper triangle ``u`` with index ``k`` moved to the front."""
    order = [k, *range(k), *range(k + 1, len(u))]
    return [
        [u[i][j - i] if i <= j else u[j][i - j] for j in order[a:]]
        for a, i in enumerate(order)
    ]


# ---------------------------------------------------------------------------
# Hermite trace form
# ---------------------------------------------------------------------------


def _shift(mono, i, by=1):
    out = list(mono)
    out[i] += by
    return tuple(out)


def _border_normal_forms(gb, basis):
    """Normal forms of the border monomials of a reduced grevlex basis.

    The border is every product x_v * b of a variable and a standard
    monomial that is not itself standard.  Returns a dict from each border
    monomial t to (u, e): NF(t) = sum_k u[k] * basis[k] / e, with u a
    primitive integer list and e > 0.  The table is filled by the FGLM
    recursion (Faugere, Gianni, Lazard & Mora, JSC 1993), with no normal
    form taken modulo the basis:

    - a leading monomial seeds it: NF(lm g) = -tail(g) / lc(g), since the
      tail of an element of a reduced basis is standard;
    - every other border monomial t = x_v * b, taken in increasing order,
      has a variable w with t_w > 0 such that t - e_w is not standard (a
      leading monomial properly divides t; w is never v, as t - e_v = b).
      t - e_w = x_v * (b - e_w) lies on the border and is smaller than t,
      so NF(t - e_w) = sum_l c_l * b_l is in the table, and
      NF(t) = sum_l c_l * NF(x_w * b_l).  Every b_l is smaller than
      t - e_w, so every non-standard x_w * b_l is a border monomial smaller
      than t, already in the table.

    Raises ``ValueError`` naming the element when a basis tail holds a
    monomial that is not standard, that is when the basis is not reduced.
    """
    d = len(basis)
    index = {m: k for k, m in enumerate(basis)}
    nvars = len(gb.registry)
    table = {}
    for g in gb.polys:
        lm = g.leading_monomial(gb.order)
        lc = g.ints[lm]
        sign = -1 if lc > 0 else 1
        u = [0] * d
        for m, c in g.ints.items():
            if m == lm:
                continue
            if m not in index:
                raise ValueError(
                    f"basis element {g.format(gb.order)} is not reduced: "
                    f"its tail monomial {m} is not standard"
                )
            u[index[m]] = sign * c
        table[lm] = _primitive_over(u, abs(lc))
    border = {_shift(b, v) for b in basis for v in range(nvars)} - index.keys()
    for t in sorted(border - table.keys(), key=gb.order.key):
        w = next(i for i, x in enumerate(t) if x and _shift(t, i, -1) not in index)
        c, e = table[_shift(t, w, -1)]
        images = [(x, _shift(basis[l], w)) for l, x in enumerate(c) if x]
        den = reduce(lcm, (table[m][1] for _, m in images if m not in index), 1)
        out = [0] * d
        for x, m in images:
            k = index.get(m)
            if k is not None:
                out[k] += x * den
            else:
                u, f = table[m]
                s = x * (den // f)
                for k, y in enumerate(u):
                    if y:
                        out[k] += s * y
        table[t] = _primitive_over(out, e * den)
    return table


def hermite_matrix(gb):
    """Trace form H_ij = tau(b_i * b_j) over the standard basis b_1 = 1, ...,
    b_d, with tau(f) the trace of multiplication by f.

    Built by transposed multiplication (the transposition principle of
    Bostan, Lecerf & Schost, ISSAC 2003), in integers.  Each standard
    monomial b != 1 hangs off the tree at b = x_v * parent(b), with v the
    present variable with the fewest non-unit columns.  The columns of
    multiplication by x_v are the coordinates of x_v * b_k: a unit column
    when that product is standard, else its border normal form
    (:func:`_border_normal_forms`), over one denominator per variable.  So
    M_v^T w is one pass over the columns, one product per unit column and
    one dot product per border column.

    - The trace vector t_k = tau(b_k) = sum_l [NF(b_k * b_l)]_l is
      sum_l M_{b_l}^T e_l, by Horner over the tree, children first:
      W_b = e_b + sum over children c = x_v * b of M_v^T W_c, and t = W_1.
    - Row 1 of H is t and row b is M_v^T applied to row parent(b), since
      tau(b * b_j) = (M_b^T t)_j.

    That is 2 (d - 1) transposed products, with vectors kept as primitive
    (integer list, denominator) pairs and the matrix returned as integer
    rows over one denominator.  Each off-diagonal entry comes out twice,
    and ``ValueError`` names the first (i, j) whose two values differ,
    which happens only when the multiplication matrices do not commute.
    A basis that is not reduced raises ``ValueError`` too.
    """
    qb = standard_monomials(gb)
    if not qb.finite:
        raise PositiveDimensionalError("quotient ring is infinite-dimensional")
    basis = qb.standard_monomials
    d = len(basis)
    if d == 0:
        return SymMatrix([])
    index = {m: k for k, m in enumerate(basis)}
    nvars = len(gb.registry)
    non_unit = [sum(_shift(m, v) not in index for m in basis) for v in range(nvars)]
    tree = [None]  # (parent index, variable) of basis[k]; basis[0] is 1
    for m in basis[1:]:
        v = min((i for i, x in enumerate(m) if x), key=non_unit.__getitem__)
        tree.append((index[_shift(m, v, -1)], v))
    border = _border_normal_forms(gb, basis)
    columns = {v: _columns(basis, index, border, v) for v in {v for _, v in tree[1:]}}

    def transposed(v, u, e):
        """M_v^T (u / e) as a primitive (integer list, denominator) pair."""
        cols, den = columns[v]
        out = [u[c] * den if isinstance(c, int) else sum(map(mul, u, c)) for c in cols]
        return _primitive_over(out, e * den)

    pending = [[] for _ in range(d)]
    for k in range(d - 1, 0, -1):
        p, v = tree[k]
        pending[p].append(transposed(v, *_unit_plus(d, k, pending[k])))
    rows = [_unit_plus(d, 0, pending[0])]
    for p, v in tree[1:]:
        rows.append(transposed(v, *rows[p]))
    den = reduce(lcm, (e for _, e in rows), 1)
    ints = [[x * (den // e) for x in u] for u, e in rows]
    for i, row in enumerate(ints):
        for j in range(i):
            if row[j] != ints[j][i]:
                raise ValueError(
                    f"trace form is not symmetric at ({i},{j}): "
                    "the multiplication matrices do not commute"
                )
    # every row is primitive, so ints / den is already in lowest terms
    return SymMatrix.over(ints, den)


def _columns(basis, index, border, v):
    """Columns of multiplication by variable ``v`` and their denominator:
    the target index of a unit column, the dense integer normal form of a
    border column."""
    targets = [_shift(m, v) for m in basis]
    den = reduce(lcm, (border[t][1] for t in targets if t not in index), 1)
    cols = []
    for t in targets:
        if t in index:
            cols.append(index[t])
        else:
            u, e = border[t]
            cols.append([x * (den // e) for x in u])
    return cols, den


def _unit_plus(d, k, parts):
    """e_k plus the sum of the (integer list, denominator) pairs ``parts``,
    as a primitive pair."""
    den = reduce(lcm, (e for _, e in parts), 1)
    out = [0] * d
    out[k] = den
    for u, e in parts:
        s = den // e
        out = [x + s * y for x, y in zip(out, u)]
    return _primitive_over(out, den)


def _primitive_over(u, e):
    """Divide the integer vector ``u`` and denominator ``e`` by their gcd."""
    g = reduce(gcd, u, e)
    if g == 1:
        return u, e
    return [x // g for x in u], e // g


def hermite_count(ideal):
    """(distinct real roots, distinct complex roots) of a zero-dimensional ideal.

    The first is the signature of the Hermite matrix, the second its rank.
    Raises :class:`PositiveDimensionalError` when the quotient ring is
    infinite-dimensional.
    """
    n_pos, n_neg, _ = inertia(hermite_matrix(buchberger(ideal, GrevLex())))
    return (n_pos - n_neg, n_pos + n_neg)

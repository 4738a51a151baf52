"""Exact multivariate polynomial arithmetic over Q with pluggable monomial orders.

A polynomial is a sparse map from exponent tuples to integer numerators
over one positive denominator, tied to an immutable variable registry: the
content/primitive split of Geddes, Czapor & Labahn (*Algorithms for Computer
Algebra*, 1992), as in FLINT's ``fmpq_poly``.  The form is canonical: no
numerator is zero and the gcd of the denominator and every numerator is 1,
so equal polynomials have equal (numerators, denominator) pairs.  Ring
operations run on ints and take one gcd at the end to restore the form;
``Poly.terms`` reads the coefficients back as ``Fraction``s for callers
outside the arithmetic.  Mixing registries is an error: the classification
pipeline switches between several variable worlds (trig variables, the
half-angle variable, circulation parameters) and silent coercion between
them is the main source of bugs.

Every exact quotient in the package runs through one kernel,
:func:`_div_exact`, on integer coefficients keyed by monomial:
``Poly.divide_exact`` divides the integer-primitive parts of its operands
with it, and ``realroots`` the squarefree part.  Normal forms modulo a
basis are the job of ``groebner``'s packed kernel.

A gcd or lcm of many values folds with ``reduce``, never ``gcd(*values)``:
CPython 3.11 keeps freed argument tuples of 20 items, or of 11 to 20 built
from a generator, on free lists that only a full collection empties, and
these kernels, allocating few tracked objects, rarely trigger one.

``Sqrt2`` is the exact field Q(sqrt(2)), or with ``Poly`` parts over one
registry the ring Q(sqrt(2))[x], of the rectangle's diagonal Hessian.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from types import MappingProxyType


class RegistryMismatchError(ValueError):
    """Raised when two polynomials over different registries are combined."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(f"division is not exact; remainder {remainder}")


class VarRegistry:
    """Ordered collection of distinct variable names.

    The tuple order fixes the exponent positions of every monomial and the
    variable precedence of the monomial orders.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry({', '.join(self.names)})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} (registry has {self.names})") from None

    def contains(self, name):
        return name in self._index


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when monomial ``a`` divides monomial ``b``."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """Quotient monomial a / b; caller must ensure divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def _div_exact(num, den):
    """Exact quotient of integer polynomials ``{monomial: int}``.

    Divides the largest term in tuple order (lex in registry order) first.
    Raises :class:`ExactDivisionError` with the part of ``num`` left
    undivided when ``den`` does not divide ``num`` over the integers.
    """
    lm = max(den)
    lc = den[lm]
    tail = [(m, c) for m, c in den.items() if m != lm]
    work = dict(num)
    quotient = {}
    while work:
        m = max(work)
        q, r = divmod(work[m], lc)
        if r or not mono_divides(lm, m):
            raise ExactDivisionError(work)
        del work[m]
        qm = mono_div(m, lm)
        quotient[qm] = q
        for tm, tc in tail:
            mm = mono_mul(qm, tm)
            s = work.get(mm, 0) - q * tc
            if s:
                work[mm] = s
            else:
                del work[mm]
    return quotient


def _unit_row(nvars, i, weight=1):
    row = [0] * nvars
    row[i] = weight
    return tuple(row)


class MonomialOrder:
    """Total multiplicative monomial order exposed as a sort key function.

    ``key(m)`` returns a tuple that sorts ascending in the order, so the
    leading monomial of a polynomial is the key-maximum of its support.
    ``weights(n)`` gives the same order as integer rows over ``n``
    variables: ``key(m)``, flattened, is the rows' dot products with ``m``.
    """

    kind = "abstract"

    def key(self, exps):
        raise NotImplementedError

    def weights(self, nvars):
        raise NotImplementedError


class Lex(MonomialOrder):
    """Lexicographic order; the registry order is the variable precedence."""

    kind = "lex"

    def key(self, exps):
        return exps

    def weights(self, nvars):
        return [_unit_row(nvars, i) for i in range(nvars)]

    def __repr__(self):
        return "lex"


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order in registry precedence.

    Higher total degree wins; ties break in favour of the monomial whose
    last differing exponent is smaller.
    """

    kind = "grevlex"

    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def weights(self, nvars):
        return [(1,) * nvars] + [_unit_row(nvars, i, -1) for i in reversed(range(nvars))]

    def __repr__(self):
        return "grevlex"


_GREVLEX = GrevLex()


class Elimination(MonomialOrder):
    """Block order: any monomial touching the first block beats any that
    does not; grevlex within each block."""

    kind = "elimination"

    def __init__(self, block, rest):
        self.block = tuple(block)
        self.rest = tuple(rest)

    def key(self, exps):
        head = tuple(exps[i] for i in self.block)
        tail = tuple(exps[i] for i in self.rest)
        return (_GREVLEX.key(head), _GREVLEX.key(tail))

    def weights(self, nvars):
        rows = []
        for idx in (self.block, self.rest):
            for row in _GREVLEX.weights(len(idx)):
                full = [0] * nvars
                for i, w in zip(idx, row):
                    full[i] += w
                rows.append(tuple(full))
        return rows

    def __repr__(self):
        return f"elimination(block={self.block}, rest={self.rest})"


def elimination(registry, drop):
    """Block order eliminating the variables in ``drop``, which rank in the
    order given; the other variables keep registry precedence.  Both blocks
    are ordered by grevlex."""
    block = [registry.index(n) for n in drop]
    return Elimination(block, [i for i in range(len(registry)) if i not in block])


def _ratio(value):
    """``value`` as an integer pair (numerator, denominator > 0)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _mul_terms(a, b):
    """Product of two integer term dicts, in the order the nested loop meets it."""
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


class Immutable:
    """Base of slotted value types whose attributes cannot be assigned or
    deleted after construction; constructors set their slots past
    ``__setattr__`` (with ``object.__setattr__`` or the slot descriptors).
    Pickling such a type needs a ``__reduce__``, since unpickling would
    restore the slots by ``setattr``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Poly(Immutable):
    """Sparse multivariate polynomial: the read-only map ``ints`` of
    integer numerators over the denominator ``den``, in the canonical form
    of the module docstring (the zero polynomial is ``{}`` over 1).
    ``terms`` reads the coefficients back as ``Fraction``s.  No attribute
    can be assigned or deleted, so a polynomial never changes."""

    __slots__ = ("registry", "ints", "den")

    def __init__(self, registry, terms=None):
        n = len(registry)
        pairs = {}
        for mono, coeff in (terms or {}).items():
            num, den = _ratio(coeff)
            if num:
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for registry of size {n}")
                pairs[tuple(mono)] = num, den
        # reduced numerators share no factor with the lcm of the denominators
        den = reduce(lcm, (d for _, d in pairs.values()), 1)
        _set_registry(self, registry)
        _set_ints(self, MappingProxyType({m: num * (den // d) for m, (num, d) in pairs.items()}))
        _set_den(self, den)

    @staticmethod
    def over(registry, ints, den=1):
        """The polynomial ``ints / den`` in canonical form, from a fresh dict
        of nonzero integer numerators, which it takes over, and a nonzero
        integer ``den``.  The slots are set through their descriptors, the
        cheapest way past ``Immutable.__setattr__``."""
        if den != 1:
            g = reduce(gcd, ints.values(), abs(den))
            if den < 0:
                g = -g
            if g != 1:
                ints = {m: c // g for m, c in ints.items()}
                den //= g
        p = _new(Poly)
        _set_registry(p, registry)
        _set_ints(p, MappingProxyType(ints))
        _set_den(p, den)
        return p

    def __reduce__(self):  # a mappingproxy does not pickle
        return Poly.over, (self.registry, self.ints.copy(), self.den)

    @property
    def terms(self):
        """Read-only ``{monomial: Fraction}`` view of the coefficients."""
        den = self.den
        return MappingProxyType({m: Fraction(c, den) for m, c in self.ints.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry):
        return Poly.over(registry, {})

    @classmethod
    def constant(cls, registry, value):
        num, den = _ratio(value)
        return Poly.over(registry, {(0,) * len(registry): num} if num else {}, den)

    @classmethod
    def variable(cls, registry, name, power=1):
        exps = [0] * len(registry)
        exps[registry.index(name)] = power
        return Poly.over(registry, {tuple(exps): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.ints

    def is_constant(self):
        return all(mono_degree(m) == 0 for m in self.ints)

    def total_degree(self):
        if not self.ints:
            return -1
        return max(mono_degree(m) for m in self.ints)

    def degree_in(self, name):
        if not self.ints:
            return -1
        i = self.registry.index(name)
        return max(m[i] for m in self.ints)

    def uses(self, name):
        i = self.registry.index(name)
        return any(m[i] for m in self.ints)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.registry, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.registry == other.registry and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.registry, self.den, frozenset(self.ints.items())))

    def __bool__(self):
        return bool(self.ints)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.registry != other.registry:
            raise RegistryMismatchError(
                f"cannot mix registries {self.registry} and {other.registry}"
            )

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.registry, other)
        if isinstance(other, Poly):
            self._check(other)
            return other
        return None

    def _combine(self, other, sign):
        """``self + sign * other`` over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        res = {m: c * sa for m, c in self.ints.items()} if sa != 1 else self.ints.copy()
        for m, c in other.ints.items():
            s = res.get(m, 0) + sb * c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Poly.over(self.registry, res, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly.over(self.registry, {m: -c for m, c in self.ints.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else -self._combine(other, -1)

    def _scaled(self, num, den):
        """``self * num / den`` for ints ``num`` and ``den != 0``."""
        ints = {m: c * num for m, c in self.ints.items()} if num else {}
        return Poly.over(self.registry, ints, self.den * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly.over(self.registry, _mul_terms(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        num, den = _ratio(scalar)
        if not num:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self._scaled(den, num)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(self.registry, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- leading data ------------------------------------------------------

    def leading_monomial(self, order):
        """The order-maximal monomial; errors on zero."""
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        return max(self.ints, key=order.key)

    def leading_term(self, order):
        """The order-maximal (monomial, coefficient) pair; errors on zero."""
        m = self.leading_monomial(order)
        return m, Fraction(self.ints[m], self.den)

    # -- normalisation -----------------------------------------------------

    def _content(self):
        """The gcd of the numerators, signed like the grevlex-leading one, and
        the primitive part: ``self == content / den * primitive``."""
        g = reduce(gcd, self.ints.values(), 0)
        if self.ints[self.leading_monomial(_GREVLEX)] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return 1, self
        return g, Poly.over(self.registry, {m: c // g for m, c in self.ints.items()})

    def content_strip(self):
        """Split ``p = c * q`` with ``q`` integer-primitive and positive-leading
        under grevlex.

        Returns ``(c, q)``.  The zero polynomial yields ``(1, 0)``.
        """
        if not self.ints:
            return Fraction(1), self
        g, q = self._content()
        return Fraction(g, self.den), q

    def primitive(self):
        return self._content()[1] if self.ints else self

    # -- division ----------------------------------------------------------

    def divide_exact(self, divisor):
        """Exact quotient ``q`` with ``q * divisor == self``.

        Divides the integer-primitive parts of both numerators with
        :func:`_div_exact` and scales the quotient by the ratio of their
        contents: by Gauss's lemma a primitive divisor divides over Q
        exactly when it divides over Z.  When the division does not come
        out even, raises :class:`ExactDivisionError` whose ``remainder`` is
        the nonzero part of ``self`` left undivided.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        num_content = reduce(gcd, self.ints.values(), 0)
        den_content = reduce(gcd, divisor.ints.values(), 0)
        try:
            quotient = _div_exact(
                {m: c // num_content for m, c in self.ints.items()},
                {m: c // den_content for m, c in divisor.ints.items()},
            )
        except ExactDivisionError as err:
            left = {m: c * num_content for m, c in err.remainder.items()}
            raise ExactDivisionError(Poly.over(self.registry, left, self.den)) from None
        scale = num_content * divisor.den
        quotient = {m: q * scale for m, q in quotient.items()}
        return Poly.over(self.registry, quotient, self.den * den_content)

    def try_divide(self, divisor):
        """Exact quotient, or None when the division is not exact."""
        try:
            return self.divide_exact(divisor)
        except ExactDivisionError:
            return None

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, values):
        """Evaluate at a point given as ``{name: value}``; missing names error.

        Exact when all values are int/Fraction: the polynomial is
        substituted at the point on integers, and only the value becomes a
        ``Fraction``.  Float values give floats.
        """
        point = {n: values[n] for n in self.registry.names}
        if all(isinstance(x, (int, Fraction)) for x in point.values()):
            value = self.subs(point)
            return Fraction(value.ints.get((0,) * len(point), 0), value.den)
        total = 0
        for mono, coeff in self.terms.items():
            for x, e in zip(point.values(), mono):
                if e:
                    coeff = coeff * x**e
            total = total + coeff
        return total

    def subs(self, mapping):
        """Substitute polynomials (or scalars) for variables, same registry.

        One pass over the terms: a scalar image n/d multiplies n^e into the
        numerator and d^e into the term's denominator, an unmapped variable
        stays in the monomial, and each polynomial image enters as its
        power, computed once per exponent.  The terms are then summed over
        the lcm of their denominators.
        """
        reg = self.registry
        images = []
        for name in reg.names:
            v = mapping.get(name)
            if isinstance(v, (int, Fraction)):
                v = (v.numerator, v.denominator)
            elif v is not None and v.registry != reg:
                raise RegistryMismatchError("substitution image in a different registry")
            images.append(v)
        powers = {}
        pieces = []
        for mono, c in self.ints.items():
            kept = list(mono)
            factors = []
            d = 1
            for i, e in enumerate(mono):
                v = images[i]
                if not e or v is None:
                    continue
                kept[i] = 0
                if type(v) is tuple:
                    c *= v[0] ** e
                    d *= v[1] ** e
                else:
                    if (i, e) not in powers:
                        powers[(i, e)] = v**e
                    factors.append(powers[(i, e)].ints)
                    d *= powers[(i, e)].den
            if not c:
                continue
            term = {tuple(kept): c}
            for f in factors:
                term = _mul_terms(term, f)
            pieces.append((term, d))
        den = reduce(lcm, (d for _, d in pieces), 1)
        result = {}
        for term, d in pieces:
            scale = den // d
            for m, c in term.items():
                s = result.get(m, 0) + c * scale
                if s:
                    result[m] = s
                else:
                    result.pop(m, None)
        return Poly.over(reg, result, self.den * den)

    def map_to(self, registry):
        """Re-express the polynomial in another registry.

        Every used variable must exist in the target; unused variables may
        be dropped or added freely, so distinct monomials stay distinct.
        """
        names = enumerate(self.registry.names)
        positions = {i: registry.index(name) for i, name in names if registry.contains(name)}
        n = len(registry)
        ints = {}
        for mono, coeff in self.ints.items():
            exps = [0] * n
            for i, e in enumerate(mono):
                if not e:
                    continue
                if i not in positions:
                    raise KeyError(
                        f"variable {self.registry.names[i]!r} is used but missing "
                        f"from target registry {registry}"
                    )
                exps[positions[i]] = e
            ints[tuple(exps)] = coeff
        return Poly.over(registry, ints, self.den)

    def coefficients_in(self, names):
        """Group terms by their monomial in ``names``.

        Returns ``{sub-monomial: Poly}`` where each value polynomial is free
        of the grouped variables.  Used to read off parametric coefficients,
        e.g. the mu-monomial coefficients of a reduction remainder.
        """
        idx = [self.registry.index(n) for n in names]
        idx_set = set(idx)
        groups = {}
        for mono, coeff in self.ints.items():
            sub = tuple(mono[i] for i in idx)
            rest = tuple(0 if i in idx_set else e for i, e in enumerate(mono))
            groups.setdefault(sub, {})[rest] = coeff
        return {sub: Poly.over(self.registry, bucket, self.den) for sub, bucket in groups.items()}

    # -- text format ---------------------------------------------------------

    def format(self, order=None):
        """Canonical text: terms sorted leading-first under ``order``."""
        if not self.ints:
            return "0"
        if order is None:
            order = _GREVLEX
        parts = []
        for mono, coeff in sorted(self.ints.items(), key=lambda t: order.key(t[0]), reverse=True):
            factors = []
            for name, e in zip(self.registry.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            g = gcd(coeff, self.den)
            mag = str(abs(coeff) // g) + (f"/{self.den // g}" if self.den != g else "")
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return self.format()

    @classmethod
    def parse(cls, registry, text):
        return _parse_poly(registry, text)


_new = object.__new__
_set_registry, _set_ints, _set_den = (vars(Poly)[name].__set__ for name in Poly.__slots__)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize polynomial text at {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def _parse_poly(registry, text):
    """Parse the canonical text format: terms like ``-3/2*x^2*y + z - 7``.

    ``^`` for powers; ``*`` optional between a coefficient and its monomial.
    Parentheses are not part of the format.  Each term is read as an
    integer pair (numerator, denominator); the sum is taken over the lcm of
    the denominators.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    n = len(registry)
    terms = []  # (monomial, numerator, denominator) of each term
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in (("op", "-"), ("op", "+")):
            if tokens[i] == ("op", "-"):
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError(f"dangling sign in {text!r}")
        num, den = sign, 1
        exps = [0] * n
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, value = tokens[i]
            if kind == "num":
                num *= value
                i += 1
                if i < len(tokens) and tokens[i] == ("op", "/"):
                    if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
                        raise ValueError(f"malformed fraction in {text!r}")
                    if not tokens[i + 1][1]:
                        raise ZeroDivisionError(f"zero denominator in {text!r}")
                    den *= tokens[i + 1][1]
                    i += 2
                saw_factor = True
            elif kind == "name":
                j = registry.index(value)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i] == ("op", "^"):
                    if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
                        raise ValueError(f"malformed power in {text!r}")
                    power = tokens[i + 1][1]
                    i += 2
                exps[j] += power
                saw_factor = True
            elif (kind, value) == ("op", "*"):
                i += 1
                expect_factor = True
                continue
            else:
                break
            expect_factor = False
        if not saw_factor or expect_factor:
            raise ValueError(f"malformed term in {text!r}")
        terms.append((tuple(exps), num, den))
        if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] not in "+-":
            raise ValueError(f"unexpected {tokens[i][1]!r} in {text!r}")
    den = reduce(lcm, (d for _, _, d in terms), 1)
    result = {}
    for key, num, d in terms:
        s = result.get(key, 0) + num * (den // d)
        if s:
            result[key] = s
        else:
            result.pop(key, None)
    return Poly.over(registry, result, den)


# ---------------------------------------------------------------------------
# Exact arithmetic over Q(sqrt(2))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sqrt2:
    """Element a + b*sqrt(2) of Q(sqrt(2)) with exact rational parts, or of
    Q(sqrt(2))[x] with ``Poly`` parts over one registry, as the rectangle
    uses it; division stays rational-only."""

    a: Fraction
    b: Fraction = Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Sqrt2):
            return other
        if isinstance(other, (int, Fraction)):
            return Sqrt2(Fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Sqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Sqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, k):
        k = Fraction(k)
        return Sqrt2(self.a / k, self.b / k)

    def __rtruediv__(self, other):
        """other / self, inverting by the norm a^2 - 2 b^2 (nonzero off 0)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = self.a * self.a - 2 * self.b * self.b
        return other * Sqrt2(self.a / norm, -self.b / norm)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

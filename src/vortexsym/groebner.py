"""Buchberger's algorithm, elimination ideals, normal forms and resultants.

The Buchberger kernel works fraction-free over the integers: every
polynomial is kept integer-primitive and reductions rescale by integer
gcd cofactors instead of dividing coefficients.  Pair management uses the
Gebauer-Moeller update, which realises both classical Buchberger criteria
(coprime leading monomials and the chain criterion).  Pairs are selected
by (sugar, insertion indices), so runs are deterministic and the reduced
basis produced for a given ideal and order is unique.  The sugar of an
input generator is its total degree, that of an S-pair the larger of its
two S-polynomial halves' sugars (the entry's sugar plus the degree of the
monomial multiplier), and a reduced S-polynomial keeps its pair's sugar
(Giovini et al., "One sugar cube, please", ISSAC 1991).  Each run counts
its S-pairs in :class:`KernelStats`.

Inside the kernel a monomial with exponents ``e`` over the ``n`` variables
of the registry is two Python ints (Bachmann & Schoenemann, ISSAC 1998):

- ``k`` packs the rows ``w`` of the order's weight matrix
  (``MonomialOrder.weights``) into signed fields of ``W`` bits, first row
  most significant: ``k = sum_r (w_r . e) << W * (rows - 1 - r)``.  ``W`` is
  two bits more than the bit length of the largest row value an exponent
  vector within the limit below can reach, so a field never spills into the
  next one and plain int comparison of ``k`` is the monomial order.
- ``p`` packs the exponents into 16-bit fields, 15 exponent bits under one
  guard bit.  ``d`` divides ``m`` exactly when ``(p_m - p_d) & GUARD == 0``.

Both are linear in ``e``, so multiplying two monomials adds their ``k`` and
their ``p``.  Exponents are limited to ``2**15 - 1``.  An input exponent
above that raises :class:`ExponentOverflowError` when it is packed.  Every
product the kernel forms is a shift times a tail term, and each basis entry
keeps the fieldwise maximum of its tail exponents, so one guard test of
``shift + tail maximum`` per reduction step or S-polynomial finds any
product that would overflow, before it is formed.  The normal form takes
terms from a heap of ``-k`` (Monagan & Pearce, CASC 2007).  Polynomials are
converted to and from this form only on entry to and exit from
``_buchberger_int``.

``eliminate`` deflates a dropped variable x whose exponents in the
generators share a gcd d > 1: the block order runs on the generators with
x^d replaced by x.  The result cannot change.  Q[x, ...] is a free module
over Q[x^d, ...] with basis 1, x, ..., x^(d-1), so an ideal I generated by
polynomials in x^d splits as the direct sum of x^j * (I meet Q[x^d, ...])
over j < d, and I meets the ring free of x in the same ideal as its
deflated image does.  The reduced basis of that elimination ideal is
unique, so it is the same basis.

``standard_monomials`` walks the order ideal of a zero-dimensional basis
from 1, one total degree at a time, multiplying by one variable at a time.
It keeps a candidate t by the border test: t is standard exactly when it
is not a leading monomial and every t / x_i with t_i > 0 is standard.  A
monomial that a leading monomial divides properly has such a t / x_i that
the leading monomial divides, and induction on the degree does the rest,
so the test holds for a basis that is not reduced too.  All of degree
k - 1 are known when degree k is tested, so each test is n set lookups,
and the walk's cost grows with the number of standard monomials and that
of the border, not with the box below the pure powers.

``resultant`` is the Sylvester determinant, taken exactly by
``realroots.char_poly``; no classification stage calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd

from vortexsym.ratpoly import (
    GrevLex,
    Poly,
    RegistryMismatchError,
    VarRegistry,
    elimination,
)


@dataclass(frozen=True)
class Ideal:
    """A finite generating set for a polynomial ideal."""

    generators: tuple
    registry: VarRegistry

    @classmethod
    def of(cls, *polys):
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            raise ValueError("an ideal needs at least one nonzero generator")
        reg = polys[0].registry
        for p in polys:
            if p.registry != reg:
                raise ValueError("ideal generators must share a registry")
        return cls(tuple(polys), reg)


@dataclass(frozen=True)
class KernelStats:
    """Counters of one Buchberger run: S-pairs created (those the
    Gebauer-Moeller criteria let through when their newer element was
    added), S-pairs reduced, and S-pairs that reduced to zero."""

    pairs_created: int
    pairs_reduced: int
    zero_reductions: int


class GroebnerBasis:
    """A reduced Groebner basis: content-normalised, inter-reduced, sorted.

    ``registry`` is that of the ideal it came from, so an empty basis (an
    elimination ideal of 0) keeps it.  ``stats`` holds the
    :class:`KernelStats` of the run that computed it, or ``None``.
    """

    def __init__(self, polys, registry, order, stats=None):
        self.polys = tuple(polys)
        if any(p.registry != registry for p in self.polys):
            raise RegistryMismatchError(f"basis elements must lie over {registry}")
        self.registry = registry
        self.order = order
        self.stats = stats

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        body = ", ".join(p.format(self.order) for p in self.polys)
        return f"GroebnerBasis[{body}]"

    def normal_form(self, p):
        return normal_form(p, self)

    def contains(self, p):
        return normal_form(p, self).is_zero()

    def same_ideal_as(self, polys):
        """Whether ``polys`` generate the ideal of ``self``, which must be a
        reduced basis.  When the primitive parts of ``polys`` and of the
        basis agree as sets, each generator is a scalar multiple of a basis
        element and conversely, so the answer is yes with no Buchberger
        run.  Otherwise the reduced basis of ``polys`` is computed: reduced
        bases are unique and :func:`buchberger` returns them in canonical
        form, so the two bases agree as sets."""
        if {p.primitive() for p in polys} == {p.primitive() for p in self.polys}:
            return True
        return set(buchberger(Ideal.of(*polys), self.order).polys) == set(self.polys)

    def leading_monomials(self):
        return [p.leading_monomial(self.order) for p in self.polys]


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials of a grevlex basis, ascending, and whether the
    quotient ring they span is finite-dimensional."""

    standard_monomials: tuple
    finite: bool

    def __len__(self):
        return len(self.standard_monomials)


def normal_form(p, basis):
    """Remainder of ``p`` modulo a Groebner basis (unique for a true basis).

    Runs on the packed kernel and equals the remainder of textbook
    multivariate division by ``basis.polys`` in ``basis.order`` exactly,
    since both reduce the largest term first by the first basis element
    whose leading monomial divides it.

    Packs the basis on each call.  Raises :class:`ExponentOverflowError`
    for an exponent the packed fields cannot hold.
    """
    if not isinstance(basis, GroebnerBasis):
        raise TypeError("normal_form expects a GroebnerBasis")
    if p.is_zero():
        return Poly.zero(p.registry)
    if p.registry != basis.registry:
        raise RegistryMismatchError(
            f"cannot reduce over {p.registry} modulo a basis over {basis.registry}"
        )
    pk = _Packing(basis.order, len(p.registry))
    entries = [
        _entry(sorted((pk.pack(m) + (c,) for m, c in q.ints.items()), reverse=True), pk)
        for q in basis.polys
    ]
    rem, (mul, div) = _int_nf([pk.pack(m) + (c,) for m, c in p.ints.items()], entries, pk)
    # rem = mul / div * NF(den * p), so NF(p) = rem * div / (mul * den)
    return Poly.over(p.registry, {pk.unpack(q): c * div for _, q, c in rem}, mul * p.den)


# ---------------------------------------------------------------------------
# Fraction-free integer kernel over packed monomials
# ---------------------------------------------------------------------------


class ExponentOverflowError(OverflowError):
    """An exponent does not fit the packed monomial fields of the kernel."""


_EXP_BITS = 15  # exponent bits per variable in ``p``; one guard bit on top
_P_WIDTH = _EXP_BITS + 1
_EXP_MAX = (1 << _EXP_BITS) - 1


class _Packing:
    """The packed ``(k, p)`` encoding of monomials over ``nvars`` variables,
    one field per variable of the registry."""

    __slots__ = ("shifts", "k_of_var", "guard")

    def __init__(self, order, nvars):
        rows = [row for row in order.weights(nvars) if any(row)]
        bound = max((sum(abs(w) for w in row) for row in rows), default=0) * _EXP_MAX
        width = bound.bit_length() + 2
        self.shifts = tuple(_P_WIDTH * j for j in range(nvars))
        self.k_of_var = tuple(
            sum(row[j] << (width * (len(rows) - 1 - r)) for r, row in enumerate(rows))
            for j in range(nvars)
        )
        self.guard = sum(1 << (s + _EXP_BITS) for s in self.shifts)

    def pack(self, exps):
        k = p = 0
        for e, s, w in zip(exps, self.shifts, self.k_of_var):
            if e > _EXP_MAX:
                raise ExponentOverflowError(
                    f"exponent {e} exceeds the packed maximum {_EXP_MAX}"
                )
            k += e * w
            p |= e << s
        return k, p

    def exponents(self, p):
        return [(p >> s) & _EXP_MAX for s in self.shifts]

    def degree(self, p):
        return sum(self.exponents(p))

    def unpack(self, p):
        return tuple(self.exponents(p))

    def k_of(self, p):
        return sum(e * w for e, w in zip(self.exponents(p), self.k_of_var))

    def lcm(self, a, b):
        """Fieldwise maximum of two valid ``p`` packs."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit set where a >= b
        mask = ge - (ge >> _EXP_BITS)
        return (a & mask) | (b & ~mask)

    def check(self, p):
        """Raise unless every field of a ``p`` sum of valid packs fits."""
        if p & self.guard:
            raise ExponentOverflowError(
                f"an exponent of a product exceeds the packed maximum {_EXP_MAX}"
            )


def _int_nf(terms, basis, pk):
    """Fraction-free normal form of (k, p, c) ``terms`` against basis entries.

    ``terms`` may repeat a monomial; repeats are summed.  Terms are taken
    from a heap of ``-k``, largest first; heap entries whose term was
    cancelled are skipped.  A term is reduced by the first entry, in basis
    order, whose leading monomial divides it.  Returns integer-primitive
    terms, leading term first, and the scale ``(mul, div)`` that the
    reduction applied: the terms are ``mul / div`` times the exact normal
    form of ``terms``, with ``mul > 0``.
    """
    guard = pk.guard
    work = {}  # k -> coefficient of the terms still to be reduced
    where = {}  # k -> p of every monomial that entered ``work``
    for k, p, c in terms:
        s = work.get(k, 0) + c
        if s:
            work[k] = s
            where[k] = p
        else:
            del work[k]
    heap = [-k for k in work]
    heapify(heap)
    rem_k, rem_p, rem_c = [], [], []
    mul = div = 1
    steps = 0
    while heap:
        k = -heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue
        p = where[k]
        for dk, dp, dc, tail, tail_lcm in basis:
            if not (p - dp) & guard:
                sk = k - dk
                sp = p - dp
                pk.check(sp + tail_lcm)
                g = gcd(c, dc)
                lam = dc // g
                mu = c // g
                if lam < 0:
                    lam, mu = -lam, -mu
                if lam != 1:
                    work = {m: v * lam for m, v in work.items()}
                    rem_c = [x * lam for x in rem_c]
                    mul *= lam
                mu = -mu
                for tk, tp, tc in zip(*tail):
                    mk = sk + tk
                    s = work.get(mk)
                    if s is None:
                        work[mk] = mu * tc
                        where[mk] = sp + tp
                        heappush(heap, -mk)
                    else:
                        s += mu * tc
                        if s:
                            work[mk] = s
                        else:
                            del work[mk]
                break
        else:
            rem_k.append(k)
            rem_p.append(p)
            rem_c.append(c)
        steps += 1
        if steps % 64 == 0 and work:
            g = 0
            for v in work.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for v in rem_c:
                    g = gcd(g, v)
                    if g == 1:
                        break
            if g > 1:
                work = {m: v // g for m, v in work.items()}
                rem_c = [v // g for v in rem_c]
                div *= g
    # the remainder, leading term first, made primitive and positive-leading
    g = reduce(gcd, rem_c, 0) or 1
    if rem_c and rem_c[0] < 0:
        g = -g
    if g != 1:
        rem_c = [c // g for c in rem_c]
    return list(zip(rem_k, rem_p, rem_c)), (mul, div * g)


def _int_spoly(f, g, lcm_p, pk):
    """Fraction-free S-polynomial of two basis entries with leading-monomial
    lcm ``lcm_p``, as (k, p, c) terms that may repeat a monomial."""
    fk, fp, fc, ftail, ftail_lcm = f
    gk, gp, gc, gtail, gtail_lcm = g
    d = gcd(fc, gc)
    a = gc // d
    b = -(fc // d)
    lcm_k = pk.k_of(lcm_p)
    sfk, sfp = lcm_k - fk, lcm_p - fp
    sgk, sgp = lcm_k - gk, lcm_p - gp
    pk.check(sfp + ftail_lcm)
    pk.check(sgp + gtail_lcm)
    out = [(sfk + k, sfp + p, a * c) for k, p, c in zip(*ftail)]
    out += [(sgk + k, sgp + p, b * c) for k, p, c in zip(*gtail)]
    return out


def _entry(terms, pk):
    """Basis entry (k, p, c, tail, tail_lcm) of descending (k, p, c) terms.

    ``tail`` holds the other terms as three parallel lists (ks, ps, cs),
    three objects in place of one tuple per term, and lists rather than
    tuples for the free-list reason in ``ratpoly``'s module docstring;
    ``tail_lcm`` bounds every tail exponent for the overflow check.
    """
    k, p, c = terms[0]
    rest = terms[1:]
    tail = ([t[0] for t in rest], [t[1] for t in rest], [t[2] for t in rest])
    tail_lcm = 0
    for tp in tail[1]:
        tail_lcm = pk.lcm(tail_lcm, tp)
    return (k, p, c, tail, tail_lcm)


def _gm_update(entries, sugars, pairs, new_terms, sugar, pk):
    """Gebauer-Moeller pair update when appending a new basis element of
    sugar ``sugar``.

    Prunes existing pairs by the chain criterion and filters new pairs by
    the chain and coprimality criteria.  ``pairs`` maps ``(sugar, i, j)``
    to the ``p`` of the pair's leading-monomial lcm ``L``; a pair's sugar
    is ``max(sugar_i + deg(L / lm_i), sugar_j + deg(L / lm_j))`` (Giovini
    et al., ISSAC 1991).  Returns the updated pairs and the number of new
    pairs.
    """
    t = len(entries)
    guard = pk.guard
    lcm = pk.lcm
    lmf = new_terms[0][1]
    lm = [e[1] for e in entries]

    kept = {}
    for key, L in pairs.items():
        _, i, j = key
        if (L - lmf) & guard or lcm(lm[i], lmf) == L or lcm(lm[j], lmf) == L:
            kept[key] = L

    lcm_groups = {}
    for i in range(t):
        lcm_groups.setdefault(lcm(lm[i], lmf), []).append(i)
    # A proper divisor has a smaller p, so ascending p visits divisors first.
    minimal = []
    for L in sorted(lcm_groups):
        if all((L - Lm) & guard for Lm in minimal):
            minimal.append(L)
    created = 0
    lmf_deg = pk.degree(lmf)
    for L in minimal:
        group = lcm_groups[L]
        if any(L == lm[i] + lmf for i in group):
            continue  # coprime leading monomials: S-pair reduces to zero
        i = group[0]
        pair_sugar = pk.degree(L) + max(sugars[i] - pk.degree(lm[i]), sugar - lmf_deg)
        kept[(pair_sugar, i, t)] = L
        created += 1

    entries.append(_entry(new_terms, pk))
    sugars.append(sugar)
    return kept, created


def _buchberger_int(gens, order):
    """Reduced Groebner basis of nonzero Poly generators under ``order``,
    computed over packed monomials, as integer-primitive Polys, and the
    run's :class:`KernelStats`."""
    reg = gens[0].registry
    pk = _Packing(order, len(reg))
    entries = []
    sugars = []  # sugar degree of each entry
    pairs = {}
    n_created = n_reduced = n_zero = 0
    for g in gens:
        r, _ = _int_nf([pk.pack(m) + (c,) for m, c in g.ints.items()], entries, pk)
        if r:
            pairs, new = _gm_update(entries, sugars, pairs, r, g.total_degree(), pk)
            n_created += new

    while pairs:
        key = min(pairs)
        lcm_p = pairs.pop(key)
        sugar, i, j = key
        s = _int_spoly(entries[i], entries[j], lcm_p, pk)
        r, _ = _int_nf(s, entries, pk)
        n_reduced += 1
        if r:
            pairs, new = _gm_update(entries, sugars, pairs, r, sugar, pk)
            n_created += new
        else:
            n_zero += 1

    # Minimalise: drop entries whose leading monomial another one divides.
    guard = pk.guard
    minimal = []
    for e in sorted(entries, key=lambda e: e[0]):
        if all((e[1] - m[1]) & guard for m in minimal):
            minimal.append(e)

    # Inter-reduce tails for the unique reduced basis.
    reduced = []
    for i, e in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(_int_nf([e[:3], *zip(*e[3])], others, pk)[0])
    reduced.sort(key=lambda terms: terms[0][0])
    # integer-primitive numerators over 1: already canonical
    polys = [Poly.over(reg, {pk.unpack(p): c for _, p, c in terms}) for terms in reduced]
    return polys, KernelStats(n_created, n_reduced, n_zero)


def buchberger(ideal, order):
    """Reduced Groebner basis of ``ideal`` under ``order``.

    Basis elements are integer-primitive with positive leading coefficient
    and sorted by increasing leading monomial, so the output is canonical.
    A unit ideal collapses to the basis ``{1}``.  Raises
    :class:`ExponentOverflowError` when an exponent outgrows the packed
    fields.
    """
    if not isinstance(ideal, Ideal):
        raise TypeError("buchberger expects an Ideal")
    polys, stats = _buchberger_int(ideal.generators, order)
    return GroebnerBasis(polys, ideal.registry, order, stats=stats)


def eliminate(ideal, drop):
    """Reduced basis of the elimination ideal dropping the named variables.

    Works through a block elimination order whose block ranks ``drop`` in
    the order given, then keeps the basis elements free of the dropped
    variables.  By the elimination theorem these form a Groebner basis of
    the intersection ideal under grevlex, which is returned as the basis
    order.  On them the block order and grevlex agree, so they already are
    grevlex's reduced basis: primitive, positive-leading and sorted by
    leading monomial.

    A dropped variable whose exponents in the generators share a gcd
    d > 1 is deflated first (see the module docstring); only the kernel's
    work, and so ``stats``, changes.
    """
    if not isinstance(ideal, Ideal):
        raise TypeError("eliminate expects an Ideal")
    reg = ideal.registry
    order = elimination(reg, drop)
    steps = [1] * len(reg)
    for i in order.block:
        steps[i] = reduce(gcd, (m[i] for p in ideal.generators for m in p.ints), 0) or 1
    if any(x > 1 for x in steps):
        deflated = (
            Poly.over(reg, {tuple(e // x for e, x in zip(m, steps)): c for m, c in p.ints.items()}, p.den)
            for p in ideal.generators
        )
        ideal = Ideal.of(*deflated)
    gb = buchberger(ideal, order)
    kept = [p for p in gb.polys if all(all(m[i] == 0 for i in order.block) for m in p.ints)]
    return GroebnerBasis(kept, reg, GrevLex(), stats=gb.stats)


def resultant(f, g, var):
    """Resultant of two polynomials with respect to ``var``, free of ``var``:
    the determinant of their Sylvester matrix S over the other variables,
    of size m + n for ``m = deg f`` and ``n = deg g``.  The constant term
    of ``realroots.char_poly(S)``, det(-S), is (-1)^(m+n) det S."""
    from vortexsym.realroots import char_poly  # realroots imports this module

    reg = f.registry
    if g.registry != reg:
        raise ValueError("resultant operands must share a registry")
    fc, gc = (
        [groups.get((k,), 0) for k in range(p.degree_in(var), -1, -1)]
        for p in (f, g)
        for groups in [p.coefficients_in([var])]
    )
    m, n = len(fc) - 1, len(gc) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    if m + n == 0:
        return Poly.constant(reg, 1)
    rows = [
        [0] * k + coeffs + [0] * (shifts - 1 - k)
        for coeffs, shifts in ((fc, n), (gc, m))
        for k in range(shifts)
    ]
    det = char_poly(rows)[0]
    return -det if (m + n) % 2 else det


def standard_monomials(gb):
    """Monomials outside the leading-term ideal of a grevlex basis.

    Finite exactly when every variable has a pure power among the leading
    monomials; otherwise returns an empty ``QuotientBasis`` flagged
    infinite rather than raising.
    """
    if not isinstance(gb.order, GrevLex):
        raise ValueError("standard monomials are defined against a grevlex basis")
    lts = gb.leading_monomials()
    n = len(gb.registry)
    pure = set()  # variables with a pure power among the leading monomials
    for lt in lts:
        support = [i for i, e in enumerate(lt) if e]
        if not support:
            return QuotientBasis((), True)  # unit ideal: zero ring
        if len(support) == 1:
            pure.add(support[0])
    if len(pure) < n:
        return QuotientBasis((), False)

    leading = set(lts)
    standard = {(0,) * n}
    frontier = list(standard)
    while frontier:
        grown = []
        for m in frontier:
            for i in range(n):
                t = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if t in standard or t in leading:
                    continue
                for j in range(n):
                    if t[j] and t[:j] + (t[j] - 1,) + t[j + 1 :] not in standard:
                        break
                else:
                    standard.add(t)
                    grown.append(t)
        frontier = grown
    return QuotientBasis(tuple(sorted(standard, key=gb.order.key)), True)

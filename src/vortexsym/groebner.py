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
that occur in the generators is two Python ints (Bachmann & Schoenemann,
ISSAC 1998):

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

``resultant`` clears denominators and evaluates the Sylvester determinant
by Bareiss elimination on integer polynomials ``{monomial: int}``, whose
exact divisions by the previous pivot run on ``ratpoly._div_exact``.  The
package's two polynomial kernels thus do different jobs: ``_int_nf`` here
takes normal forms modulo a basis, ``_div_exact`` the quotient by one
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from vortexsym.ratpoly import (
    GrevLex,
    Poly,
    RegistryMismatchError,
    VarRegistry,
    _div_exact,
    elimination,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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

    ``stats`` holds the :class:`KernelStats` of the run that computed it,
    or ``None``.
    """

    def __init__(self, polys, order, stats=None):
        self.polys = tuple(polys)
        self.order = order
        self.stats = stats
        self._kernel = None  # (registry, packing, packed entries)

    def _packed(self, registry):
        """The kernel's packing and packed basis entries for inputs over
        ``registry``, built on first use.

        Every variable the order ranks gets a field, so any input free of
        unranked variables can be reduced.
        """
        if self.polys and registry != self.registry:
            raise RegistryMismatchError(
                f"cannot reduce over {registry} modulo a basis over {self.registry}"
            )
        if self._kernel is None or self._kernel[0] != registry:
            rows = self.order.weights(len(registry))
            ranked = [i for i in range(len(registry)) if any(row[i] for row in rows)]
            pk = _Packing(self.order, len(registry), ranked)
            entries = [_entry(_int_terms(p, pk)[0], pk) for p in self.polys]
            self._kernel = (registry, pk, entries)
        return self._kernel[1:]

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        body = ", ".join(p.format(self.order) for p in self.polys)
        return f"GroebnerBasis[{body}]"

    @property
    def registry(self):
        return self.polys[0].registry

    def normal_form(self, p):
        return normal_form(p, self)

    def contains(self, p):
        return normal_form(p, self).is_zero()

    def same_ideal_as(self, polys):
        """Two-sided membership: self and ``polys`` generate the same ideal."""
        other = buchberger(Ideal.of(*polys), self.order)
        return all(self.contains(p) for p in polys) and all(
            other.contains(g) for g in self.polys
        )

    def leading_monomials(self):
        return [p.leading_monomial(self.order) for p in self.polys]

    def verify(self):
        """Buchberger criterion: every S-polynomial reduces to zero."""
        for i in range(len(self.polys)):
            for j in range(i + 1, len(self.polys)):
                s = s_polynomial(self.polys[i], self.polys[j], self.order)
                if not normal_form(s, self).is_zero():
                    return False
        return True


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials of a zero-dimensional quotient ring, grevlex source."""

    standard_monomials: tuple
    source: GroebnerBasis
    finite: bool

    def __len__(self):
        return len(self.standard_monomials)


def s_polynomial(f, g, order):
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    L = mono_lcm(mf, mg)
    tf = Poly(f.registry, {mono_div(L, mf): Fraction(1) / cf})
    tg = Poly(g.registry, {mono_div(L, mg): Fraction(1) / cg})
    return tf * f - tg * g


def normal_form(p, basis):
    """Remainder of ``p`` modulo a Groebner basis (unique for a true basis).

    Runs on the packed kernel and equals the remainder of textbook
    multivariate division by ``basis.polys`` in ``basis.order`` exactly,
    since both reduce the largest term first by the first basis element
    whose leading monomial divides it.
    """
    coeffs, den = integer_normal_form(p, basis)
    return Poly(p.registry, {m: Fraction(c, den) for m, c in coeffs.items()})


def integer_normal_form(p, basis):
    """Normal form of ``p`` as ``(coeffs, den)``: integer coefficients by
    monomial, leading term first, over a positive common denominator, in
    lowest terms.

    Raises :class:`ExponentOverflowError` for an exponent the packed fields
    cannot hold and ``ValueError`` for a variable the basis order does not
    rank.
    """
    if not isinstance(basis, GroebnerBasis):
        raise TypeError("normal_form expects a GroebnerBasis")
    if p.is_zero():
        return {}, 1
    pk, entries = basis._packed(p.registry)
    terms, denom = _int_terms(p, pk)
    rem, (mul, div) = _int_nf(terms, entries, pk)
    if not rem:
        return {}, 1
    # rem = mul / div * NF(denom * p), so NF(p) = rem * div / (mul * denom)
    den = mul * denom
    g = gcd(div, den)
    return {pk.unpack(q): c * (div // g) for _, q, c in rem}, den // g


# ---------------------------------------------------------------------------
# Fraction-free integer kernel over packed monomials
# ---------------------------------------------------------------------------


class ExponentOverflowError(OverflowError):
    """An exponent does not fit the packed monomial fields of the kernel."""


_EXP_BITS = 15  # exponent bits per variable in ``p``; one guard bit on top
_P_WIDTH = _EXP_BITS + 1
_EXP_MAX = (1 << _EXP_BITS) - 1


class _Packing:
    """The packed ``(k, p)`` encoding of the monomials of one kernel run.

    Only the variables that occur in the generators get fields; no other
    variable can appear during the run.
    """

    __slots__ = ("order", "nvars", "active", "shifts", "k_of_var", "guard")

    def __init__(self, order, nvars, active):
        rows = order.weights(nvars)
        for i in active:
            if not any(row[i] for row in rows):
                raise ValueError(f"monomial order {order!r} does not rank variable {i}")
        self.order = order
        rows = [row for row in ([row[i] for i in active] for row in rows) if any(row)]
        bound = max((sum(abs(w) for w in row) for row in rows), default=0) * _EXP_MAX
        width = bound.bit_length() + 2
        self.nvars = nvars
        self.active = tuple(active)
        self.shifts = tuple(_P_WIDTH * j for j in range(len(active)))
        self.k_of_var = tuple(
            sum(row[j] << (width * (len(rows) - 1 - r)) for r, row in enumerate(rows))
            for j in range(len(active))
        )
        self.guard = sum(1 << (s + _EXP_BITS) for s in self.shifts)

    def pack(self, exps):
        k = p = total = 0
        for i, s, w in zip(self.active, self.shifts, self.k_of_var):
            e = exps[i]
            if e > _EXP_MAX:
                raise ExponentOverflowError(
                    f"exponent {e} exceeds the packed maximum {_EXP_MAX}"
                )
            k += e * w
            p |= e << s
            total += e
        if total != sum(exps):
            i = next(i for i, e in enumerate(exps) if e and i not in self.active)
            raise ValueError(f"monomial order {self.order!r} does not rank variable {i}")
        return k, p

    def exponents(self, p):
        return [(p >> s) & _EXP_MAX for s in self.shifts]

    def degree(self, p):
        return sum(self.exponents(p))

    def unpack(self, p):
        exps = [0] * self.nvars
        for i, e in zip(self.active, self.exponents(p)):
            exps[i] = e
        return tuple(exps)

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


def _int_terms(poly, pk):
    """Integer (k, p, c) terms of ``poly`` scaled by its common denominator,
    leading term first, and that denominator."""
    denom = 1
    for c in poly.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    terms = [pk.pack(m) + (c.numerator * (denom // c.denominator),) for m, c in poly.terms.items()]
    terms.sort(reverse=True)
    return terms, denom


def _int_strip(terms):
    """Make descending (k, p, c) terms primitive with positive leading sign;
    returns them with the signed content divided out."""
    if not terms:
        return terms, 1
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g != 1:
        return [(k, p, c // g) for k, p, c in terms], g
    return terms, 1


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
    rem, g = _int_strip(list(zip(rem_k, rem_p, rem_c)))
    return rem, (mul, div * g)


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

    ``tail`` holds the other terms as three parallel tuples (ks, ps, cs),
    three objects in place of one tuple per term; ``tail_lcm`` bounds every
    tail exponent for the overflow check.
    """
    k, p, c = terms[0]
    tail = tuple(zip(*terms[1:])) or ((), (), ())
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
    active = sorted({i for g in gens for m in g.terms for i, e in enumerate(m) if e})
    pk = _Packing(order, len(reg), active)
    entries = []
    sugars = []  # sugar degree of each entry
    pairs = {}
    n_created = n_reduced = n_zero = 0
    for g in gens:
        r, _ = _int_nf(_int_terms(g, pk)[0], entries, pk)
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
    polys = [
        Poly(reg, {pk.unpack(p): Fraction(c) for _, p, c in terms})
        for terms in reduced
    ]
    return polys, KernelStats(n_created, n_reduced, n_zero)


def buchberger(ideal, order):
    """Reduced Groebner basis of ``ideal`` under ``order``.

    Basis elements are integer-primitive with positive leading coefficient
    and sorted by increasing leading monomial, so the output is canonical.
    A unit ideal collapses to the basis ``{1}``.  Raises
    :class:`ExponentOverflowError` when an exponent outgrows the packed
    fields.
    """
    if isinstance(ideal, Ideal):
        gens = ideal.generators
    else:
        gens = [p for p in ideal if not p.is_zero()]
        if not gens:
            raise ValueError("cannot take a Groebner basis of the zero ideal")
    polys, stats = _buchberger_int(gens, order)
    return GroebnerBasis(polys, order, stats=stats)


def eliminate(ideal, drop, inner_names=None):
    """Reduced basis of the elimination ideal dropping the named variables.

    Works through a block elimination order, then keeps the basis elements
    free of the dropped variables.  By the elimination theorem these form a
    Groebner basis of the intersection ideal under the inner (grevlex)
    order, which is returned as the basis order.  On them the block order
    and the inner order agree, so they already are that order's reduced
    basis: primitive, positive-leading and sorted by leading monomial.
    """
    reg = ideal.registry if isinstance(ideal, Ideal) else ideal[0].registry
    drop = list(drop)
    for name in drop:
        reg.index(name)
    order = elimination(reg, drop, inner_names=inner_names)
    gb = buchberger(ideal, order)
    drop_idx = {reg.index(n) for n in drop}
    kept = [
        p
        for p in gb.polys
        if all(all(m[i] == 0 for i in drop_idx) for m in p.terms)
    ]
    return GroebnerBasis(kept, GrevLex(order.rest), stats=gb.stats)


def _mul_sub(a, b, c, d):
    """``a*b - c*d`` for integer polynomials ``{monomial: int}``."""
    out = {}
    for x, y, sign in ((a, b, 1), (c, d, -1)):
        for mx, cx in x.items():
            cx *= sign
            for my, cy in y.items():
                m = mono_mul(mx, my)
                s = out.get(m, 0) + cx * cy
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _bareiss_int(matrix):
    """Determinant of a square matrix of integer polynomials ``{monomial:
    int}`` by fraction-free elimination; each division by the previous
    pivot is exact by the Bareiss identity."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return {}
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_row = m[k]
        for row in m[k + 1 :]:
            for j in range(k + 1, n):
                num = _mul_sub(row[j], pivot_row[k], row[k], pivot_row[j])
                row[j] = _div_exact(num, prev) if prev and num else num
        prev = pivot_row[k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else {mono: -c for mono, c in det.items()}


def resultant(f, g, var):
    """Resultant of two polynomials with respect to ``var``.

    Treats both as univariate in ``var`` with coefficients in the remaining
    variables; the result is free of ``var``.  With ``m = deg f``, ``n =
    deg g`` and ``F = df * f``, ``G = dg * g`` cleared of denominators,
    ``res(f, g) = res(F, G) / (df**n * dg**m)``, and the Sylvester
    determinant of ``F`` and ``G`` is evaluated on integer polynomials.
    """
    reg = f.registry
    if g.registry != reg:
        raise ValueError("resultant operands must share a registry")
    i = reg.index(var)

    def coeff_list(p):
        """Integer coefficients in ``var``, highest degree first, and the
        denominator cleared from ``p``."""
        denom = lcm(*(c.denominator for c in p.terms.values()))
        rows = [dict() for _ in range(p.degree_in(var) + 1)]
        for mono, c in p.terms.items():
            rest = mono[:i] + (0,) + mono[i + 1 :]
            rows[mono[i]][rest] = c.numerator * (denom // c.denominator)
        return rows[::-1], denom

    fc, df = coeff_list(f)
    gc, dg = coeff_list(g)
    m, n = len(fc) - 1, len(gc) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    size = m + n
    if size == 0:
        return Poly.constant(reg, 1)
    rows = []
    for coeffs, shifts in ((fc, n), (gc, m)):
        for k in range(shifts):
            row = [{}] * size
            row[k : k + len(coeffs)] = coeffs
            rows.append(row)
    scale = df**n * dg**m
    det = _bareiss_int(rows)
    return Poly(reg, {mono: Fraction(c, scale) for mono, c in det.items()})


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
    bounds = [None] * n
    for lt in lts:
        support = [i for i, e in enumerate(lt) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lt[i] < bounds[i]:
                bounds[i] = lt[i]
        elif len(support) == 0:
            return QuotientBasis((), gb, True)  # unit ideal: zero ring
    if any(b is None for b in bounds):
        return QuotientBasis((), gb, False)

    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    standard = [
        m for m in monos if not any(mono_divides(lt, m) for lt in lts)
    ]
    standard.sort(key=gb.order.key)
    return QuotientBasis(tuple(standard), gb, True)

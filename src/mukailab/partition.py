"""Rank-r partition functions on an Enriques lattice and Hecke transforms.

A term of the rank-1 partition function is indexed by a Hilbert-scheme
level n and a lattice vector xi:

    2 chi(X^[n]) q^{(n - 1/2) + Q(xi_L^2)/2} qbar^{-Q(xi_R^2)/2} e^{Q(xi, x)},

where Q = -(intersection form) has signature (9,1) and (xi_L, xi_R) is
the split under an (unchosen) period point.  Terms are kept symbolic: the
split pieces are carried as tagged exponent coefficients on the vector
label, never as numbers, and the elliptic variable x stays at 0.

The Hecke transform of order r (odd) averages over the coset data (a, b, d):
tau -> (a tau + 2b)/d rescales both tagged exponents by a/d and multiplies
each term by the exact root of unity e^{2 pi i (2b/d) ((n-1/2)+Q(xi^2)/2)};
summation over b is the divisibility filter d | 2n-1+Q(xi^2).

Terms are computed on integers.  A function reads a term list once, with
its exponents and phases over one common denominator for the list (the
coefficients over another), carries a transformed phase as an integer
modulo the transformed denominator, and builds the output Fractions once
per distinct value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from ._record import record
from .errors import PreconditionError
from .lattice import mukai_square, rat, vector_stats
from .series import euler_hilb

ENRIQUES_EULER = 12

# Largest work a partition-function call accepts: (box vectors + levels)
# x levels, where levels - 1 is the highest Hilbert-scheme level a block
# needs, covers the term loop and the O(levels^2) Euler numbers.  The
# Hecke order r is bounded by the same number.
MAX_PARTITION_WORK = 10 ** 6


@record
class PartitionTerm:
    """One symbolic term of a partition function.

    hol_scalar is the split-independent part of the holomorphic exponent;
    pos_coef / neg_coef multiply Q(xi_L^2) and Q(xi_R^2) respectively
    (always opposite, which keeps the phase computable without a period
    point).  ``phase`` is the exponent of an exact root of unity e^{2 pi i
    phase}; ``x_scale`` tracks the elliptic-variable substitution x -> a x.
    """

    xi: tuple
    coeff: Fraction
    hol_scalar: Fraction
    pos_coef: Fraction
    neg_coef: Fraction
    x_scale: int = 1
    phase: Fraction = Fraction(0)


def q_form(lat, xi):
    """Q(xi^2) = -(xi . xi): positive definite on the 9-dimensional part."""
    return -sum(map(mul, xi, lat.gram_mul(xi)))


class _Fractions(dict):
    """k -> Fraction(k, den), each distinct value built on its first lookup."""

    def __init__(self, den):
        self.den = den

    def __missing__(self, k):
        f = self[k] = Fraction(k, self.den)
        return f


def _read_terms(terms):
    """A term list as integers: (den, cden, rows), one row (xi, C, H, P, N,
    x_scale, Ph, coeff) per term.  The exponents H, P, N and the phase Ph
    are over den, the coefficient C over cden (the least common
    denominators of the list); coeff is the term's own coefficient."""
    parts = [(t.xi, t.coeff, t.x_scale, t.coeff.as_integer_ratio(),
              t.hol_scalar.as_integer_ratio(), t.pos_coef.as_integer_ratio(),
              t.neg_coef.as_integer_ratio(), t.phase.as_integer_ratio()) for t in terms]
    den = lcm(*{d for row in parts for _, d in row[4:]})
    cden = lcm(*{row[3][1] for row in parts})
    return den, cden, [(xi, cn * (cden // cd), hn * (den // hd), pn * (den // pd),
                        nn * (den // nd), xs, phn * (den // phd), c)
                       for xi, c, xs, (cn, cd), (hn, hd), (pn, pd), (nn, nd), (phn, phd) in parts]


def _sorted_terms(acc, den, cden):
    """The terms of {(H, xi, P, x_scale, Ph, N): C} with nonzero C, sorted
    stably on (H, xi, P, x_scale, Ph), as Fractions over den and cden."""
    frac, coeff = _Fractions(den), _Fractions(cden)
    return [PartitionTerm(xi, coeff[c], frac[h], frac[p], frac[n], xs, frac[ph])
            for (h, xi, p, xs, ph, n), c in sorted(acc.items(), key=lambda kc: kc[0][:5]) if c]


def merge_terms(terms):
    """Sum the coefficients of equal terms, drop zero sums and sort by
    exponent, in one dict pass on the integer rows of ``_read_terms``."""
    den, cden, rows = _read_terms(terms)
    acc = {}
    for xi, c, h, p, n, xs, ph, _ in rows:
        # split tags and the elliptic scaling are vacuous on xi = 0
        key = (h, xi, p, xs, ph, n) if any(xi) else (h, xi, 0, 1, ph, 0)
        acc[key] = acc.get(key, 0) + c
    return _sorted_terms(acc, den, cden)


def lattice_box_vectors(lat, box):
    """All integer vectors with coordinates in the given (lo, hi) bounds."""
    if len(box) != lat.rank:
        raise PreconditionError("box-shape")
    out = [()]
    for lo, hi in box:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise PreconditionError("empty-box")
        out = [v + (x,) for v in out for x in range(lo, hi + 1)]
    return out


def _block_terms(lat, box, blocks, scale):
    """Merged terms of the divisor blocks (a, d, n_max) over a lattice box:

        scale d^2 chi(X^[n]) q^{(a/d)(n - 1/2)} (tags a/2d, -a/2d), x -> a x

    for every box vector xi and every level n <= n_max of a block with
    d | 2n - 1 + Q(xi^2): scale/2 times ``hecke_block_sum`` of
    ``partition_z1``, summed over the blocks and merged.  Exponents are
    integers over 2 lcm(d), so sorting the integer keys gives the order of
    ``merge_terms``.  Refuses work above MAX_PARTITION_WORK before enumerating.
    """
    if not blocks:
        return []
    top = max(n for _, _, n in blocks)
    if len(box) == lat.rank:
        points = prod(max(0, int(hi) - int(lo) + 1) for lo, hi in box)
        if (points + top + 1) * (top + 1) > MAX_PARTITION_WORK:
            raise PreconditionError("partition-too-large", "(box vectors + levels) x levels"
                                    " exceeds %d" % MAX_PARTITION_WORK)
    vectors = lattice_box_vectors(lat, box)
    euler = euler_hilb(ENRIQUES_EULER, top)
    L = lcm(*(d for _, d, _ in blocks))
    acc = {}
    for xi in vectors:
        qv = q_form(lat, xi)
        nonzero = any(xi)
        for a, d, n_max in blocks:
            m = a * (L // d)
            pos, xs = (m, a) if nonzero else (0, 1)
            for n in range(n_max + 1):
                if (2 * n - 1 + qv) % d:
                    continue
                key = ((2 * n - 1) * m, xi, pos, xs)
                acc[key] = acc.get(key, 0) + d * d * euler[n]
    frac, coeff = _Fractions(2 * L), _Fractions(scale.denominator)
    num = scale.numerator
    return [PartitionTerm(xi, coeff[num * c], frac[hol], frac[pos], frac[-pos], xs)
            for (hol, xi, pos, xs), c in sorted(acc.items())]


def partition_z1(lat, n_max, box):
    """Term list of the rank-1 partition function over a lattice box.

    The overall factor 2 carried by every coefficient is the torsion
    contribution of the second cohomology.
    """
    return _block_terms(lat, box, [(1, 1, n_max)], Fraction(2))


def _phase_units(rows, den, lat):
    """2 * (holomorphic - antiholomorphic exponent) of each row of
    ``_read_terms``, an exact integer, yielded term by term."""
    q_memo = {}
    for xi, _, h, p, n, *_ in rows:
        if p != -n:
            raise PreconditionError("tagged-exponents",
                                    "terms must carry opposite split tags")
        qv = q_memo.get(xi)
        if qv is None:
            qv = q_memo[xi] = q_form(lat, xi)
        u, rem = divmod(2 * (h + p * qv), den)
        if rem:
            raise PreconditionError("non-integral-phase")
        yield u


def hecke_coset_transform(terms, coset, lat):
    """Apply tau -> (a tau + 2 b)/d, x -> a x to a term list (one coset).

    Exponents rescale by a/d; each term picks up the exact root of unity
    e^{2 pi i (2b/d) E} with E the term's pre-transform exponent value.
    Over D = den d the phase is the integer (phase d + b units den) mod D.
    """
    a, b, d = coset
    den, _, rows = _read_terms(terms)
    D = den * d
    frac = _Fractions(D)
    return [PartitionTerm(xi, c, frac[h * a], frac[p * a], frac[n * a], a * xs,
                          frac[(ph * d + b * u * den) % D])
            for (xi, _, h, p, n, xs, ph, c), u in zip(rows, _phase_units(rows, den, lat))]


def hecke_block_sum(terms, a, d, lat):
    """sum_{0 <= b < d} d * (coset (a, b, d) transform), with the b-sum
    evaluated exactly: a term survives iff d divides its doubled exponent,
    contributing an extra factor d."""
    den, cden, rows = _read_terms(terms)
    m, D = (a, den * d) if d > 0 else (-a, -den * d)      # keys sort like values over D > 0
    acc = {}
    for (xi, c, h, p, n, xs, ph, _), u in zip(rows, _phase_units(rows, den, lat)):
        if ph:
            raise PreconditionError("phase-collision",
                                    "block sum expects untransformed input terms")
        if u % d == 0:
            key = (h * m, xi, p * m, a * xs, 0, n * m) if any(xi) else (h * m, xi, 0, 1, 0, 0)
            acc[key] = acc.get(key, 0) + c * d * d
    return _sorted_terms(acc, D, cden)


def hecke_zr(r, lat, order, box):
    """Hecke transform of order r of the rank-1 term list:

        Z^r = (1/r^2) sum_{(a,b,d)} d * Z^1((a tau + 2b)/d, a x),

    returned with all b-sums evaluated through the divisibility filter.
    ``order`` bounds the split-independent part of the output exponent, so
    every reported coefficient is complete: each divisor block is fed the
    rank-1 terms up to its own source level (a/d)(n - 1/2) <= order.
    """
    if r < 1 or r % 2 == 0:
        raise PreconditionError("even-r")
    if r > MAX_PARTITION_WORK:
        raise PreconditionError("partition-too-large",
                                "Hecke order r exceeds %d" % MAX_PARTITION_WORK)
    p, q = rat(order).as_integer_ratio()
    # block (a, d) = (r/d, d) takes the levels n <= order d/a + 1/2 = (2pd + qa)/2qa
    blocks = [(r // d, d, (2 * p * d + q * (r // d)) // (2 * q * (r // d)))
              for d in range(1, r + 1) if r % d == 0 and 2 * p * d + q * (r // d) >= 0]
    return _block_terms(lat, box, blocks, Fraction(2, r * r))


def rank_side_terms(d, a, lat, n_max, box):
    """The Mukai-vector side of the order-r evidence identity for one d | r:

        sum over w = (d, xi, -k/2) of
        d^2 chi(X^[(..w..^2+1)/2]) q^{(a/2d) <w^2>} (tagged split pieces),

    where k runs over the integers with k d = 2n - 1 + Q(xi^2), n <= n_max.
    <w^2> = 2n - 1 for w = (d, xi, -k/2), so this is the block (a, d).
    """
    return _block_terms(lat, box, [(a, d, n_max)], Fraction(1))


def multiplicity_chi(v, m, per_determinant=False):
    """Euler number the order-r conjecture assigns to a rank-odd class:

        sum over v = a*w (w integral) of (2/a^2) chi(X^[(<w^2>+1)/2]).

    Classes with <w^2> < -1 contribute 0.  ``per_determinant`` divides by
    the determinant-component factor 2.
    """
    if m.kind != "enriques":
        raise PreconditionError("surface-kind")
    if v.r.denominator != 1 or v.r <= 0 or v.r.numerator % 2 == 0:
        raise PreconditionError("even-rank", "rank must be odd and positive")
    mult = vector_stats(v, m).multiplicity
    needed = []
    for a in range(1, mult + 1):
        if mult % a:
            continue
        sq = mukai_square(v.scale(Fraction(1, a)))
        if sq >= -1:
            if (sq + 1) % 2:
                raise PreconditionError("odd-square", "<w^2> must be odd on this lattice")
            needed.append((a, int((sq + 1) // 2)))
    euler = euler_hilb(ENRIQUES_EULER, max((n for _, n in needed), default=0))
    total = sum((Fraction(2, a * a) * euler[n] for a, n in needed), Fraction(0))
    return total / 2 if per_determinant else total

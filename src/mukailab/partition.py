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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    return -lat.pair_coords(xi, xi)


_ZERO = Fraction(0)


def merge_terms(terms):
    """Sum the coefficients of equal terms, drop zero sums and sort by
    exponent.  Terms are keyed on the integer parts of their Fractions,
    which hash far faster than the Fractions themselves."""
    acc = {}
    for t in terms:
        hol, ph = t.hol_scalar, t.phase
        if any(t.xi):
            pos, neg, xs = t.pos_coef, t.neg_coef, t.x_scale
        else:
            # split tags and the elliptic scaling are vacuous on xi = 0
            pos, neg, xs = _ZERO, _ZERO, 1
        key = (t.xi, hol.numerator, hol.denominator, pos.numerator, pos.denominator,
               neg.numerator, neg.denominator, xs, ph.numerator, ph.denominator)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [_ZERO + t.coeff, hol, pos, neg, xs, ph]
        else:
            slot[0] += t.coeff
    out = [PartitionTerm(key[0], c, hol, pos, neg, xs, ph)
           for key, (c, hol, pos, neg, xs, ph) in acc.items() if c]
    out.sort(key=lambda t: (t.hol_scalar, t.xi, t.pos_coef, t.x_scale, t.phase))
    return out


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
    integers over the one scale 2 lcm(d), so sorting the integer keys gives
    the order of ``merge_terms``; Fractions are built once per distinct
    exponent.  Refuses work above MAX_PARTITION_WORK before enumerating.
    """
    if not blocks:
        return []
    top = max(n for _, _, n in blocks)
    if len(box) == lat.rank:
        points = 1
        for lo, hi in box:
            points *= max(0, int(hi) - int(lo) + 1)
        if (points + top + 1) * (top + 1) > MAX_PARTITION_WORK:
            raise PreconditionError(
                "partition-too-large",
                "%d box vectors at %d levels exceed %d" % (points, top + 1, MAX_PARTITION_WORK))
    vectors = lattice_box_vectors(lat, box)
    euler = euler_hilb(ENRIQUES_EULER, top)
    L = lcm(*(d for _, d, _ in blocks))
    acc = {}
    for xi in vectors:
        qv = -sum(x * g for x, g in zip(xi, lat.gram_mul(xi)))      # Q(xi^2)
        nonzero = any(xi)
        for a, d, n_max in blocks:
            m = a * (L // d)
            pos, xs = (m, a) if nonzero else (0, 1)
            for n in range(n_max + 1):
                if (2 * n - 1 + qv) % d:
                    continue
                key = ((2 * n - 1) * m, xi, pos, xs)
                acc[key] = acc.get(key, 0) + d * d * euler[n]
    den = 2 * L
    fracs = {}

    def frac(k):
        f = fracs.get(k)
        if f is None:
            f = fracs[k] = Fraction(k, den)
        return f

    num, sden = scale.numerator, scale.denominator
    return [PartitionTerm(xi, Fraction(num * c, sden), frac(hol), frac(pos), frac(-pos),
                          x_scale=xs)
            for (hol, xi, pos, xs), c in sorted(acc.items())]


def partition_z1(lat, n_max, box):
    """Term list of the rank-1 partition function over a lattice box.

    The overall factor 2 carried by every coefficient is the torsion
    contribution of the second cohomology.
    """
    return _block_terms(lat, box, [(1, 1, n_max)], Fraction(2))


def _phase_units(term, lat, q_memo):
    """2 * (holomorphic - antiholomorphic exponent): an exact integer."""
    if term.pos_coef != -term.neg_coef:
        raise PreconditionError("tagged-exponents",
                                "terms must carry opposite split tags")
    qv = q_memo.get(term.xi)
    if qv is None:
        qv = q_memo[term.xi] = q_form(lat, term.xi)
    val = 2 * (term.hol_scalar + term.pos_coef * qv)
    if val.denominator != 1:
        raise PreconditionError("non-integral-phase")
    return val.numerator


def hecke_coset_transform(terms, coset, lat):
    """Apply tau -> (a tau + 2 b)/d, x -> a x to a term list (one coset).

    Exponents rescale by a/d; each term picks up the exact root of unity
    e^{2 pi i (2b/d) E} with E the term's pre-transform exponent value.
    """
    a, b, d = coset
    scale = Fraction(a, d)
    q_memo = {}
    out = []
    for t in terms:
        units = _phase_units(t, lat, q_memo)
        phase = (t.phase + Fraction(b * units, d)) % 1
        out.append(PartitionTerm(t.xi, t.coeff, scale * t.hol_scalar,
                                 scale * t.pos_coef, scale * t.neg_coef,
                                 x_scale=a * t.x_scale, phase=phase))
    return out


def hecke_block_sum(terms, a, d, lat):
    """sum_{0 <= b < d} d * (coset (a, b, d) transform), with the b-sum
    evaluated exactly: a term survives iff d divides its doubled exponent,
    contributing an extra factor d."""
    scale = Fraction(a, d)
    q_memo = {}
    out = []
    for t in terms:
        units = _phase_units(t, lat, q_memo)
        if t.phase != 0:
            raise PreconditionError("phase-collision",
                                    "block sum expects untransformed input terms")
        if units % d:
            continue
        out.append(PartitionTerm(t.xi, t.coeff * d * d, scale * t.hol_scalar,
                                 scale * t.pos_coef, scale * t.neg_coef,
                                 x_scale=a * t.x_scale))
    return merge_terms(out)


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
                                "Hecke order %d exceeds %d" % (r, MAX_PARTITION_WORK))
    order = rat(order)
    blocks = []
    for d in range(1, r + 1):
        if r % d:
            continue
        a = r // d
        n_block = (order * d / a) + Fraction(1, 2)
        if n_block >= 0:
            blocks.append((a, d, int(n_block)))
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
    stats = vector_stats(v, m)
    total = Fraction(0)
    needed = []
    for a in range(1, stats.multiplicity + 1):
        if stats.multiplicity % a:
            continue
        w = v.scale(Fraction(1, a))
        sq = mukai_square(w)
        if sq < -1:
            continue
        n2 = sq + 1
        if n2 % 2:
            raise PreconditionError("odd-square", "<w^2> must be odd on this lattice")
        needed.append((a, int(n2 // 2)))
    if not needed:
        return total
    euler = euler_hilb(ENRIQUES_EULER, max(n for _, n in needed))
    for a, n in needed:
        total += Fraction(2, a * a) * euler[n]
    return total / 2 if per_determinant else total

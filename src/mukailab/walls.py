"""Twisted stability arithmetic, walls and chambers for dimension-1 classes.

An alpha-twisted slope of a rank-0 class gamma = (0, xi, chi) is

    mu_alpha(gamma) = (chi - (xi, alpha)) / (xi, H).

Candidate destabilizing data (D, n) with D and xi - D effective carve the
alpha-space NS tensor Q into chambers along the rational hyperplanes

    (chi - (xi, alpha)) / (xi, H) = (n - (D, alpha)) / (D, H).

Everything is enumerated exactly over a bounded coordinate box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import mul

from ._record import record
from .errors import PreconditionError
from .lattice import (MukaiVector, NSClass, _common_denominator, _form,
                      _gram_mul, _new, chi_of, rat, twist)

# Largest number of lattice points scanned for effective decompositions,
# and of walls emitted, by one walls_dim1 call.
MAX_WALL_WORK = 10 ** 6


@record
class TwistData:
    """Either a positive-rank twisting class G or a Q-divisor alpha, plus H."""

    H: NSClass
    G: MukaiVector = None
    alpha: NSClass = None

    def __post_init__(self):
        if (self.G is None) == (self.alpha is None):
            raise PreconditionError("twist-data", "give exactly one of G / alpha")
        if self.G is not None and self.G.r == 0:
            raise PreconditionError("twist-rank-zero", "rk G must be nonzero")

    def beta_class(self):
        """c_1(G)/rk G, the only datum twisted comparisons depend on."""
        if self.alpha is not None:
            return self.alpha
        return self.G.c.scale(Fraction(1) / self.G.r)


def twisted_invariants(v, td, m):
    """(rk_G, deg_G, chi_G) of v.

    chi_G is computed through the beta-reduction: the twist is replaced by
    alpha = c_1(G)/rk G and chi_alpha(v) = chi(v * exp(-alpha)), rescaled
    by rk G so that all three outputs scale linearly in G.  Ratios are
    therefore invariant under G -> t*G for positive rational t.
    """
    H = td.H
    alpha = td.beta_class()
    scale = td.G.r if td.G is not None else Fraction(1)
    rk = scale * v.r
    if td.G is not None:
        deg = td.G.r * v.c.dot(H) - v.r * td.G.c.dot(H)
    else:
        deg = v.c.dot(H) - v.r * alpha.dot(H)
    chi = scale * chi_of(twist(v, -alpha), m)
    return rk, deg, chi


def slope_dim1(g, alpha, H):
    """mu_alpha of a rank-0 gamma triple; requires (c_1, H) > 0."""
    if g.rank != 0:
        raise PreconditionError("rank-nonzero", "slope_dim1 needs rank 0")
    denom = g.c.dot(H)
    if denom <= 0:
        raise PreconditionError("degree-not-positive", "(c_1, H) must be > 0")
    return (g.chi - g.c.dot(alpha)) / denom


# ---------------------------------------------------------------------------
# Walls


@record
class Wall:
    """The rational hyperplane {alpha : normal . alpha = offset}.

    ``normal`` and ``offset`` are coprime integers with positive leading
    entry, so equality of hyperplanes is syntactic.  ``datum`` is the
    effective decomposition (D, n) that produced the wall.
    """

    normal: tuple
    offset: int
    D: NSClass
    n: int

    def value(self, alpha):
        return Fraction(_scaled_values(alpha, (self,))[0], alpha.den)

    def hyperplane(self):
        return (self.normal, self.offset)


def effective_decompositions(m, xi):
    """All integral effective D with xi - D effective and D not in {0, xi}.

    Requires the model's effective cone (independent generators); returns
    [] when xi admits no nontrivial decomposition.  With y = E.D.num the
    cone solver's coordinates, xi - D is effective iff 0 <= y_D <= y_xi, by
    linearity.  A box of more than MAX_WALL_WORK points is refused.
    """
    gens = m.effective_generators
    if gens is None:
        raise PreconditionError("no-effective-oracle")
    if not xi.is_integral():
        raise PreconditionError("non-integral-class", "xi must be integral")
    if not m.effective(xi):
        return []
    E, e = m._cone
    y_xi = _gram_mul(E, xi.num)
    # bounding box of {D : D, xi - D in cone} in NS coordinates
    lat = xi.lattice
    ranges = []
    for i in range(lat.rank):
        parts = [g.coords[i] * top for g, top in zip(gens, y_xi)]
        lo, hi = sum(x for x in parts if x < 0), sum(x for x in parts if x > 0)
        ranges.append(range(-(-lo // e), hi // e + 1))
    if prod(map(len, ranges)) > MAX_WALL_WORK:
        raise PreconditionError("walls-too-large",
                                "more than %d lattice points to scan" % MAX_WALL_WORK)
    skip = ((0,) * lat.rank, xi.num)
    return [_new(NSClass, lat, num, 1) for num in product(*ranges)
            if num not in skip and all(0 <= a <= b for a, b in zip(_gram_mul(E, num), y_xi))]


def _box_extremes(coeffs, ends):
    """(min, max) of the integer functional coeffs over the box with bound
    numerators ends = (lo_0, hi_0, lo_1, hi_1, ...), over their denominator."""
    box = list(zip(coeffs, ends[::2], ends[1::2]))
    return sum(min(c * a, c * b) for c, a, b in box), sum(max(c * a, c * b) for c, a, b in box)


def walls_dim1(g, H, box, m):
    """Candidate walls of the rank-0 class g = (0, xi, chi) meeting the box.

    ``box`` is a tuple of (lo, hi) bounds on the alpha coordinates.  Data
    (D, n) proportional to (xi, chi) are excluded; so are degenerate
    functionals.  Output is sorted canonically.
    """
    if g.rank != 0:
        raise PreconditionError("rank-nonzero")
    xi, chi = g.c, g.chi
    if len(box) != xi.lattice.rank:
        raise PreconditionError("box-shape")
    bounds = []
    for lo, hi in box:
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise PreconditionError("empty-box")
        bounds += lo, hi
    if xi.dot(H) <= 0:
        raise PreconditionError("degree-not-positive", "(xi, H) must be > 0")
    ends, L = _common_denominator(bounds)
    # xi and D are integral, so with h = H.den, xh = h (xi,H), dh = h (D,H)
    # and chi = cn/cd the wall (D,alpha)(xi,H) - (xi,alpha)(D,H) =
    # n (xi,H) - chi (D,H) is F . alpha = n xh - chi dh, F = G (xh D - dh xi)
    rows = xi.lattice._rows
    xh = _form(rows, xi.num, H.num)
    cn, cd = chi.numerator, chi.denominator
    # every family's n range first, so an oversized call is refused before
    # any wall is built
    families, total = [], 0
    for D in effective_decompositions(m, xi):
        dh = _form(rows, D.num, H.num)
        F = _gram_mul(rows, [xh * a - dh * b for a, b in zip(D.num, xi.num)])
        content = gcd(*F)
        if content == 0:
            # D proportional to xi (or in the radical): excluded data
            continue
        # F . alpha ranges over [lo, hi] / L, so n xh cd L over cd [lo, hi] + cn dh L
        lo, hi = _box_extremes(F, ends)
        den = xh * cd * L
        n_lo = -((-lo * cd - cn * dh * L) // den)
        n_hi = (hi * cd + cn * dh * L) // den
        if n_lo <= n_hi:
            total += n_hi - n_lo + 1
            families.append((D, F, content, dh, n_lo, n_hi))
    if total > MAX_WALL_WORK:
        raise PreconditionError("walls-too-large",
                                "more than %d walls in the box" % MAX_WALL_WORK)
    out = []
    for D, F, content, dh, n_lo, n_hi in families:
        # normal0 = +-F/content with positive leading entry, so the wall is
        # normal0 . alpha = (a1 n + b1) / q0; clearing that denominator
        # gives each wall's coprime (normal, offset)
        sign = 1 if next(x for x in F if x) > 0 else -1
        normal0 = [sign * x // content for x in F]
        a1, b1, q0 = sign * xh * cd, -sign * cn * dh, content * cd
        scaled = {}
        for n in range(n_lo, n_hi + 1):
            p = a1 * n + b1
            k = gcd(p, q0)
            q = q0 // k
            normal = scaled.get(q)
            if normal is None:
                normal = scaled[q] = tuple([q * x for x in normal0])
            out.append((normal, p // k, D.num, n, D))
    # the keys (normal, offset, D.num, n) are distinct, and D is integral,
    # so its numerators order walls as its coordinates do
    out.sort()
    return [Wall(normal, offset, D, n) for normal, offset, _, n, D in out]


def unique_hyperplanes(walls):
    """The first wall of each distinct hyperplane, in input order."""
    seen = {}
    for w in walls:
        seen.setdefault(w.hyperplane(), w)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Chambers


@record
class Chamber:
    sign_vector: tuple
    sample_point: NSClass


@record
class OnWall:
    indices: tuple


def _scaled_values(alpha, walls):
    """alpha.den * w.value(alpha) for every wall, alpha on the walls'
    lattice.  Sorted walls share normal . alpha.num along equal normals."""
    if walls:
        walls[0].D._check(alpha)
    num, den = alpha.num, alpha.den
    out, normal = [], None
    for w in walls:
        if w.normal != normal:
            normal = w.normal
            dot = sum(map(mul, normal, num))
        out.append(dot - w.offset * den)
    return out


def chamber_locate(alpha, walls):
    """Sign vector of alpha against every wall, or OnWall with the indices hit."""
    values = _scaled_values(alpha, walls)
    if 0 in values:
        return OnWall(tuple([i for i, x in enumerate(values) if x == 0]))
    return Chamber(tuple(["+" if x > 0 else "-" for x in values]), alpha)


@record
class Crossing:
    t: Fraction
    index: int
    wall: Wall


def chamber_path(alpha, alpha2, walls):
    """Walls crossed by the straight segment alpha -> alpha2, in order.

    Endpoints must lie strictly off every wall.
    """
    xs = _scaled_values(alpha, walls)
    if 0 in xs:
        raise PreconditionError("endpoint-on-wall", "start point lies on a wall")
    ys = _scaled_values(alpha2, walls)
    if 0 in ys:
        raise PreconditionError("endpoint-on-wall", "end point lies on a wall")
    # refused even when there are no walls to check the endpoints against
    alpha._check(alpha2)
    # a wall is crossed iff its value, x/a at t = 0 and y/b at t = 1, changes
    # sign; it vanishes at t = p/q, p = |x| b, q = p + |y| a <= q_max.  Distinct
    # times in (0, 1) differ by >= 1/q_max^2, so floor(K t) with K = q_max^2
    # orders them exactly and is equal only for equal times; ties go by index.
    a, b = alpha.den, alpha2.den
    q_max = max(map(abs, xs), default=0) * b + max(map(abs, ys), default=0) * a
    K = q_max * q_max
    hits = sorted([(abs(x) * b * K // (abs(x) * b + abs(y) * a), i)
                   for i, (x, y) in enumerate(zip(xs, ys)) if (x > 0) != (y > 0)])
    crossings, key = [], None
    for k, i in hits:
        if k != key:
            p = abs(xs[i]) * b
            key, t = k, Fraction(p, p + abs(ys[i]) * a)
        crossings.append(Crossing(t, i, walls[i]))
    return crossings


# ---------------------------------------------------------------------------
# Torsion-free wall parameter (flip parameter between moduli)


@record
class WallSolveResult:
    roots: tuple
    identical: bool = False


def wall_solve_tf(v, v_sub, H, direction, m):
    """Solve chi(v_sub exp(-t dir))/r_sub = chi(v exp(-t dir))/r_v for t.

    Preconditions: positive ranks and equal untwisted slopes.  Both sides
    have the quadratic term (dir^2)/2, so the equation is B t + C = 0 and
    has at most one root; proportional data (B = C = 0) give the explicit
    "no wall" signal.
    """
    if v.r <= 0 or v_sub.r <= 0:
        raise PreconditionError("rank-not-positive")
    if v.c.dot(H) / v.r != v_sub.c.dot(H) / v_sub.r:
        raise PreconditionError("slope-mismatch",
                                "wall solving requires equal untwisted slopes")
    B = v.c.dot(direction) / v.r - v_sub.c.dot(direction) / v_sub.r
    C = chi_of(v_sub, m) / v_sub.r - chi_of(v, m) / v.r
    if B == 0:
        return WallSolveResult((), identical=C == 0)
    return WallSolveResult((-C / B,))

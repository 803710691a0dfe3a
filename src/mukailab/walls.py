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
from math import ceil, floor, gcd, prod
from operator import mul

from ._record import record
from .errors import PreconditionError
from .lattice import (MukaiVector, NSClass, _gcd_many, _gram_mul, _new,
                      chi_of, rat, twist)

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
        return Fraction(self._scaled_value(alpha), alpha.den)

    def _scaled_value(self, alpha):
        """alpha.den * value(alpha): an integer with the sign of the value."""
        return sum(map(mul, self.normal, alpha.num)) - self.offset * alpha.den

    def hyperplane(self):
        return (self.normal, self.offset)


def wall_functional(xi, D, H):
    """(F, d) with alpha -> (D,alpha)(xi,H) - (xi,alpha)(D,H) equal to
    (F . alpha) / d: integer coefficients F and a positive integer d."""
    w = D.scale(xi.dot(H)) - xi.scale(D.dot(H))
    return w.lattice.gram_mul(w.num), w.den


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
        lo = hi = Fraction(0)
        for g, top in zip(gens, y_xi):
            contrib = g.coords[i] * Fraction(top, e)
            if contrib >= 0:
                hi += contrib
            else:
                lo += contrib
        ranges.append(range(ceil(lo), floor(hi) + 1))
    if prod(map(len, ranges)) > MAX_WALL_WORK:
        raise PreconditionError("walls-too-large",
                                "more than %d lattice points to scan" % MAX_WALL_WORK)
    out = []
    zero = (0,) * lat.rank
    for num in product(*ranges):
        if num == zero or num == xi.num:
            continue
        if all(0 <= a <= b for a, b in zip(_gram_mul(E, num), y_xi)):
            out.append(_new(NSClass, lat, num, 1))
    return out


def _box_extremes(coeffs, box):
    lo = Fraction(0)
    hi = Fraction(0)
    for c, (a, b) in zip(coeffs, box):
        c = rat(c)
        lo += min(c * rat(a), c * rat(b))
        hi += max(c * rat(a), c * rat(b))
    return lo, hi


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
    for lo, hi in box:
        if rat(lo) > rat(hi):
            raise PreconditionError("empty-box")
    xiH = xi.dot(H)
    if xiH <= 0:
        raise PreconditionError("degree-not-positive", "(xi, H) must be > 0")
    walls = []
    for D in effective_decompositions(m, xi):
        F, d = wall_functional(xi, D, H)
        content = _gcd_many(F)
        if content == 0:
            # D proportional to xi (or in the radical): excluded data
            continue
        DH = D.dot(H)
        lo, hi = _box_extremes(F, box)
        # wall equation: (F . alpha) / d = n*(xi,H) - chi*(D,H)
        n_lo = ceil((lo / d + chi * DH) / xiH)
        n_hi = floor((hi / d + chi * DH) / xiH)
        # normal0 = +-F/content with positive leading entry, so the wall is
        # normal0 . alpha = A*n + B; clearing the denominator of A*n + B
        # gives each wall's coprime (normal, offset)
        sign = 1 if next(x for x in F if x) > 0 else -1
        normal0 = tuple(sign * x // content for x in F)
        scale = Fraction(sign * d, content)
        A, B = scale * xiH, -scale * chi * DH
        an, ad, bn, bd = A.numerator, A.denominator, B.numerator, B.denominator
        if len(walls) + n_hi - n_lo + 1 > MAX_WALL_WORK:
            raise PreconditionError("walls-too-large",
                                    "more than %d walls in the box" % MAX_WALL_WORK)
        for n in range(n_lo, n_hi + 1):
            p, q = an * n * bd + bn * ad, ad * bd
            k = gcd(p, q)
            q //= k
            walls.append(Wall(tuple(q * x for x in normal0), p // k, D, n))
    # D is integral, so its numerators order walls as its coordinates do
    walls.sort(key=lambda w: (w.normal, w.offset, w.D.num, w.n))
    return walls


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


def chamber_locate(alpha, walls):
    """Sign vector of alpha against every wall, or OnWall with the indices hit."""
    values = [w._scaled_value(alpha) for w in walls]
    hits = tuple(i for i, x in enumerate(values) if x == 0)
    if hits:
        return OnWall(hits)
    return Chamber(tuple("+" if x > 0 else "-" for x in values), alpha)


@record
class Crossing:
    t: Fraction
    index: int
    wall: Wall


def chamber_path(alpha, alpha2, walls):
    """Walls crossed by the straight segment alpha -> alpha2, in order.

    Endpoints must lie strictly off every wall.
    """
    for name, pt in (("start", alpha), ("end", alpha2)):
        if isinstance(chamber_locate(pt, walls), OnWall):
            raise PreconditionError("endpoint-on-wall", "%s point lies on a wall" % name)
    direction = alpha2 - alpha
    # t = -value(alpha) / (normal . direction), kept as the integer ratio
    # p / q until a crossing is found
    d_num, d_den, a_den = direction.num, direction.den, alpha.den
    crossings = []
    for i, w in enumerate(walls):
        slope = sum(map(mul, w.normal, d_num))
        if slope == 0:
            continue
        p = -w._scaled_value(alpha) * d_den
        q = slope * a_den
        if q < 0:
            p, q = -p, -q
        if 0 < p < q:
            crossings.append(Crossing(Fraction(p, q), i, w))
    crossings.sort(key=lambda c: (c.t, c.index))
    return crossings


# ---------------------------------------------------------------------------
# Torsion-free wall parameter (flip parameter between moduli)


@record
class WallSolveResult:
    roots: tuple
    identical: bool = False

    @property
    def no_wall(self):
        return self.identical


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

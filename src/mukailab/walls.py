"""Twisted stability arithmetic, walls and chambers for dimension-1 classes.

An alpha-twisted slope of a rank-0 class gamma = (0, xi, chi) is

    mu_alpha(gamma) = (chi - (xi, alpha)) / (xi, H).

Candidate destabilizing data (D, n) with D and xi - D effective carve the
alpha-space NS tensor Q into chambers along the rational hyperplanes

    (chi - (xi, alpha)) / (xi, H) = (n - (D, alpha)) / (D, H).

Everything is enumerated exactly over a bounded coordinate box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from operator import mul

from .errors import PreconditionError
from .lattice import (MukaiVector, NSClass, _gcd_many, _ns_class, chi_of, rat,
                      twist)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    [] when xi admits no nontrivial decomposition.
    """
    gens = m.effective_generators
    if gens is None:
        raise PreconditionError("no-effective-oracle")
    if not xi.is_integral():
        raise PreconditionError("non-integral-class", "xi must be integral")
    from .lattice import _solve_in_span
    lam = _solve_in_span(gens, xi)
    if lam is None or any(x < 0 for x in lam):
        return []
    # bounding box of {D : D, xi - D in cone} in NS coordinates
    lat = xi.lattice
    lows = [Fraction(0)] * lat.rank
    highs = [Fraction(0)] * lat.rank
    for i in range(lat.rank):
        for g, top in zip(gens, lam):
            contrib = g.coords[i] * top
            if contrib >= 0:
                highs[i] += contrib
            else:
                lows[i] += contrib
    out = []
    def rec(i, coords):
        if i == lat.rank:
            D = _ns_class(lat, tuple(coords), 1)
            if D.is_zero() or D == xi:
                return
            if m.effective(D) and m.effective(xi - D):
                out.append(D)
            return
        for x in range(ceil(lows[i]), floor(highs[i]) + 1):
            rec(i + 1, coords + [x])
    rec(0, [])
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


@dataclass(frozen=True)
class Chamber:
    sign_vector: tuple
    sample_point: NSClass


@dataclass(frozen=True)
class OnWall:
    indices: tuple


def chamber_locate(alpha, walls):
    """Sign vector of alpha against every wall, or OnWall with the indices hit."""
    values = [w._scaled_value(alpha) for w in walls]
    hits = tuple(i for i, x in enumerate(values) if x == 0)
    if hits:
        return OnWall(hits)
    return Chamber(tuple("+" if x > 0 else "-" for x in values), alpha)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class WallSolveResult:
    roots: tuple
    identical: bool = False
    # (A, B, C): integer coefficients of the minimal polynomial when the
    # roots are irrational; None otherwise
    irrational: tuple = None

    @property
    def no_wall(self):
        return self.identical


def wall_solve_tf(v, v_sub, H, direction, m):
    """Solve chi(v_sub exp(-t dir))/r_sub = chi(v exp(-t dir))/r_v for t.

    Preconditions: positive ranks and equal untwisted slopes.  Returns all
    rational roots; proportional data give the explicit "no wall" signal,
    irrational roots are reported through their minimal polynomial.
    """
    if v.r <= 0 or v_sub.r <= 0:
        raise PreconditionError("rank-not-positive")
    if v.c.dot(H) / v.r != v_sub.c.dot(H) / v_sub.r:
        raise PreconditionError("slope-mismatch",
                                "wall solving requires equal untwisted slopes")

    def reduced_chi_coeffs(u):
        # chi(u exp(-t D))/r_u as a quadratic in t
        d2 = direction.self_intersection()
        const = chi_of(u, m) / u.r
        lin = -u.c.dot(direction) / u.r
        quad = d2 / 2
        return quad, lin, const

    a1, b1, c1 = reduced_chi_coeffs(v_sub)
    a2, b2, c2 = reduced_chi_coeffs(v)
    A, B, C = a1 - a2, b1 - b2, c1 - c2
    if A == 0 and B == 0 and C == 0:
        return WallSolveResult((), identical=True)
    if A == 0 and B == 0:
        return WallSolveResult(())
    if A == 0:
        return WallSolveResult((-C / B,))
    disc = B * B - 4 * A * C
    if disc < 0:
        return WallSolveResult(())
    num, den = disc.numerator, disc.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        lcm = A.denominator
        for x in (B, C):
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        return WallSolveResult((), irrational=(int(A * lcm), int(B * lcm), int(C * lcm)))
    root = Fraction(rn, rd)
    t1 = (-B - root) / (2 * A)
    t2 = (-B + root) / (2 * A)
    roots = tuple(sorted({t1, t2}))
    return WallSolveResult(roots)


def _isqrt_exact(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None

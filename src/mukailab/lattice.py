"""Exact Mukai-lattice arithmetic.

Surfaces are modelled by their numerical data only: a Neron-Severi Gram
matrix, chi(O_X), an ample class, and an effective-cone oracle.  A Mukai
vector is a triple (r, c, t) where r is the rank, c a rational NS class
and t the coefficient of the point class omega.  The pairing is

    <v, w> = (c_v . c_w) - r_v t_w - t_v r_w,

so that <omega, 1> = -1.  Everything is immutable and computed over exact
rationals; no floating point appears anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .errors import LatticeMismatchError, PreconditionError


def rat(x):
    """Coerce int / Fraction / "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise PreconditionError("not-a-rational", repr(x))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise PreconditionError("not-a-rational", repr(x))


def _gcd_many(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def _common_denominator(coords):
    """(integer numerators, positive denominator) of int/Fraction coordinates,
    over the least common denominator, so the pair is already in lowest terms."""
    den = 1
    for x in coords:
        d = x.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return tuple(x.numerator for x in coords), 1
    return tuple(x.numerator * (den // x.denominator) for x in coords), den


# The integer kernel: every pairing, functional and Gram product in the
# package goes through these two on the sparse rows of one NSLattice.


def _gram_mul(rows, x):
    """G x for an integer tuple x, G given by its sparse rows of (j, g_ij)
    (also used for the cone solver's matrix)."""
    out = []
    for row in rows:
        s = 0
        for j, g in row:
            s += g * x[j]
        out.append(s)
    return out


def _form(rows, a, b):
    """The integer bilinear form a^T G b."""
    return sum(map(mul, a, _gram_mul(rows, b)))


@dataclass(frozen=True)
class NSLattice:
    """A free Z-module with a symmetric integer intersection form."""

    gram: tuple
    basis_names: tuple

    def __post_init__(self):
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        n = len(gram)
        if len(self.basis_names) != n:
            raise PreconditionError("basis-size", "need one name per basis vector")
        for i in range(n):
            if len(gram[i]) != n:
                raise PreconditionError("gram-not-square")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise PreconditionError("gram-not-symmetric")
        object.__setattr__(self, "_rows", tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in gram))

    @property
    def rank(self):
        return len(self.gram)

    def cls(self, coords):
        return NSClass(self, coords)

    def zero(self):
        return _ns_class(self, (0,) * self.rank, 1)

    def basis_class(self, i):
        return _ns_class(self, tuple(1 if j == i else 0 for j in range(self.rank)), 1)

    def named(self, name):
        return self.basis_class(self.basis_names.index(name))

    def gram_mul(self, x):
        """G x for an integer coordinate tuple x, as a list of integers."""
        return _gram_mul(self._rows, x)

    def pair_coords(self, a, b):
        """(a . b) for int or Fraction coordinate tuples, as a Fraction."""
        an, ad = _common_denominator(a)
        bn, bd = _common_denominator(b)
        return Fraction(_form(self._rows, an, bn), ad * bd)


_set = object.__setattr__


def _ns_class(lattice, num, den):
    """NSClass from numerators already in lowest terms over den > 0."""
    c = object.__new__(NSClass)
    _set(c, "lattice", lattice)
    _set(c, "num", num)
    _set(c, "den", den)
    return c


def _reduced(lattice, num, den):
    """NSClass from integer numerators over any positive denominator."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return _ns_class(lattice, num, den)


class NSClass:
    """A rational divisor class in a fixed NS lattice basis.

    The class is ``num / den``: a tuple of integer numerators over one
    positive denominator with gcd(den, *num) = 1 (so the zero class has
    den 1).  The form is canonical, so equality and hashing agree with
    equality of the rational coordinates.  ``coords`` is the read-only
    Fraction tuple, built on first use.  Instances are immutable.
    """

    __slots__ = ("lattice", "num", "den", "_coords")

    def __init__(self, lattice, coords):
        num, den = _common_denominator(tuple(rat(x) for x in coords))
        if len(num) != lattice.rank:
            raise PreconditionError("coords-length", "expected rank %d" % lattice.rank)
        _set(self, "lattice", lattice)
        _set(self, "num", num)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("NSClass is immutable")

    def __delattr__(self, name):
        raise AttributeError("NSClass is immutable")

    def __reduce__(self):
        return _ns_class, (self.lattice, self.num, self.den)

    @property
    def coords(self):
        try:
            return self._coords
        except AttributeError:
            den = self.den
            coords = tuple(Fraction(x, den) for x in self.num)
            _set(self, "_coords", coords)
            return coords

    def __repr__(self):
        return "NSClass(lattice=%r, coords=%r)" % (self.lattice, self.coords)

    def __eq__(self, other):
        if other.__class__ is not NSClass:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self):
        return hash((self.num, self.den))

    def _check(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError()

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return _reduced(self.lattice, tuple(map(add, self.num, other.num)), a)
        return _reduced(self.lattice, tuple(x * b + y * a for x, y in zip(self.num, other.num)),
                        a * b)

    def __sub__(self, other):
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return _reduced(self.lattice, tuple(map(sub, self.num, other.num)), a)
        return _reduced(self.lattice, tuple(x * b - y * a for x, y in zip(self.num, other.num)),
                        a * b)

    def __neg__(self):
        return _ns_class(self.lattice, tuple(-x for x in self.num), self.den)

    def scale(self, k):
        if type(k) is int:
            p, q = k, 1
        else:
            k = rat(k)
            p, q = k.numerator, k.denominator
        if p == 0:
            return _ns_class(self.lattice, (0,) * len(self.num), 1)
        return _reduced(self.lattice, tuple(x * p for x in self.num), self.den * q)

    __mul__ = scale
    __rmul__ = scale

    def dot(self, other):
        """Intersection pairing (self . other) under the Gram form."""
        self._check(other)
        return Fraction(_form(self.lattice._rows, self.num, other.num), self.den * other.den)

    def self_intersection(self):
        return self.dot(self)

    def is_zero(self):
        return not any(self.num)

    def is_integral(self):
        return self.den == 1

    def content(self):
        """gcd of the (integral) coordinates; 0 for the zero class."""
        if self.den != 1:
            raise PreconditionError("non-integral-class")
        return _gcd_many(self.num)

    def int_coords(self):
        if self.den != 1:
            raise PreconditionError("non-integral-class")
        return self.num


# ---------------------------------------------------------------------------
# Standard lattices


def hyperbolic_lattice(names=("e", "f")):
    """Rank-2 even unimodular lattice U: (e^2)=(f^2)=0, (e,f)=1."""
    return NSLattice(((0, 1), (1, 0)), names)


# Cartan matrix of E8 (node 8 hangs off node 5), negated.  Even, negative
# definite, unimodular; unimodularity is what makes the pairing functionals
# surjective onto Z for primitive classes.
_E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


def e8_minus_gram():
    return tuple(tuple(-x for x in row) for row in _E8)


def enriques_lattice():
    """(Z sigma + Z f) perp E8(-1): the torsion-free H^2 of an Enriques surface."""
    names = ("sigma", "f") + tuple("e%d" % i for i in range(1, 9))
    e8 = e8_minus_gram()
    gram = []
    for i in range(10):
        row = []
        for j in range(10):
            if i < 2 and j < 2:
                row.append(1 if i != j else 0)
            elif i >= 2 and j >= 2:
                row.append(e8[i - 2][j - 2])
            else:
                row.append(0)
        gram.append(tuple(row))
    return NSLattice(tuple(gram), names)


# ---------------------------------------------------------------------------
# Surface models


KINDS = ("abelian", "k3", "enriques", "elliptic-with-section", "generic")

_CHI_O = {"abelian": 0, "k3": 2, "enriques": 1}


@dataclass(frozen=True)
class SurfaceModel:
    """Numerical model of a surface: lattice, chi(O), polarization, cone.

    Every chi conversion goes through the uniform rule chi = t + r*chi_O/2:
    the rank shift t = chi - epsilon*r of abelian (epsilon 0) and K3
    (epsilon 1) surfaces, and the half-integral shift on Enriques.
    """

    kind: str
    ns: NSLattice
    chi_O: int
    polarization: NSClass
    half_integral: bool = False
    effective_generators: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError("unknown-kind", self.kind)
        if self.kind in _CHI_O and self.chi_O != _CHI_O[self.kind]:
            raise PreconditionError("chi-O-kind", "%s needs chi_O=%d" % (self.kind, _CHI_O[self.kind]))
        if self.polarization.lattice != self.ns:
            raise LatticeMismatchError("polarization lives on a different lattice")
        if self.polarization.self_intersection() <= 0:
            raise PreconditionError("polarization-not-positive", "(H^2) must be > 0")
        gens = self.effective_generators
        if gens is not None:
            gens = tuple(gens)
            for g in gens:
                if g.lattice != self.ns:
                    raise LatticeMismatchError("effective generator on wrong lattice")
            object.__setattr__(self, "effective_generators", gens)
            object.__setattr__(self, "_cone", _cone_solver(gens, self.ns.rank))

    @property
    def chi_shift(self):
        return Fraction(self.chi_O, 2)

    def cls(self, coords):
        return self.ns.cls(coords)

    def vector(self, r, c, t):
        if not isinstance(c, NSClass):
            c = self.ns.cls(c)
        elif c.lattice != self.ns:
            raise LatticeMismatchError()
        return MukaiVector(rat(r), c, rat(t))

    def omega(self):
        return self.vector(0, self.ns.zero(), 1)

    def unit(self):
        return self.vector(1, self.ns.zero(), 0)

    def zero_vector(self):
        return self.vector(0, self.ns.zero(), 0)

    def structure_sheaf_vector(self):
        """v(O_X) = (1, 0, chi(O_X) - epsilon-shift) = (1, 0, chi_O/2)."""
        return self.vector(1, self.ns.zero(), self.chi_shift)

    def effective(self, D):
        """Cone-membership test against the generator list: one integer
        product y = E.D.num, D effective iff its lambda rows are >= 0 and
        its residual rows vanish."""
        gens = self.effective_generators
        if gens is None:
            raise PreconditionError("no-effective-oracle",
                                    "this model has no effective-cone generators")
        y = _gram_mul(self._cone[0], D.num)
        k = len(gens)
        return all(x >= 0 for x in y[:k]) and not any(y[k:])


def _cone_solver(gens, n):
    """(E, e) for generators g_1..g_k of Q^n: an integer n x n matrix E, as
    sparse rows, and a scale e > 0 with E.D.num = e*D.den*(lambda, residual),
    where D = sum lambda_i g_i exactly when the n - k residual entries are 0.

    One Gauss-Jordan pass on [G | I], the generators being the columns of
    G; a column without a pivot means the generators are dependent.
    """
    k = len(gens)
    aug = [[g.coords[i] for g in gens] + [Fraction(i == j) for j in range(n)]
           for i in range(n)]
    for c in range(k):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise PreconditionError("dependent-generators",
                                    "effective cone generators must be linearly independent")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    e = lcm(*(x.denominator for row in aug for x in row[k:]))
    return tuple(tuple((j, int(x * e)) for j, x in enumerate(row[k:]) if x)
                 for row in aug), e


def abelian_model(gram=None, names=None, polarization=(1, 1), effective_generators=None):
    lat = NSLattice(gram, names) if gram is not None else hyperbolic_lattice()
    m = SurfaceModel("abelian", lat, 0, lat.cls(polarization))
    return _with_gens(m, effective_generators)


def k3_model(gram=((0, 1), (1, 0)), names=("e", "f"), polarization=(1, 1),
             effective_generators=None):
    lat = NSLattice(gram, names)
    m = SurfaceModel("k3", lat, 2, lat.cls(polarization))
    return _with_gens(m, effective_generators)


def elliptic_model(sigma_sq=-1, chi_O=1, polarization=(1, 3), effective=True):
    """Rank-2 elliptic surface with a section: NS = Z sigma + Z f.

    (sigma^2) = sigma_sq, (sigma,f) = 1, (f^2) = 0.  The default effective
    cone is the conservative one spanned by sigma and f.
    """
    lat = NSLattice(((sigma_sq, 1), (1, 0)), ("sigma", "f"))
    gens = (lat.basis_class(0), lat.basis_class(1)) if effective else None
    return SurfaceModel("elliptic-with-section", lat, chi_O, lat.cls(polarization),
                        effective_generators=gens)


def enriques_model(polarization=None):
    lat = enriques_lattice()
    if polarization is None:
        polarization = [1, 1] + [0] * 8
    return SurfaceModel("enriques", lat, 1, lat.cls(polarization), half_integral=True)


def generic_model(gram, names, polarization, chi_O=0, effective_generators=None):
    lat = NSLattice(gram, names)
    m = SurfaceModel("generic", lat, chi_O, lat.cls(polarization))
    return _with_gens(m, effective_generators)


def _with_gens(m, gens):
    if gens is None:
        return m
    gens = tuple(g if isinstance(g, NSClass) else m.ns.cls(g) for g in gens)
    return replace(m, effective_generators=gens)


# ---------------------------------------------------------------------------
# Mukai vectors


@dataclass(frozen=True)
class MukaiVector:
    """(rank, NS class, omega coefficient) with exact rational entries."""

    r: Fraction
    c: NSClass
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", rat(self.r))
        object.__setattr__(self, "t", rat(self.t))

    def _check(self, other):
        self.c._check(other.c)

    def __add__(self, other):
        self._check(other)
        return MukaiVector(self.r + other.r, self.c + other.c, self.t + other.t)

    def __sub__(self, other):
        self._check(other)
        return MukaiVector(self.r - other.r, self.c - other.c, self.t - other.t)

    def __neg__(self):
        return MukaiVector(-self.r, -self.c, -self.t)

    def scale(self, k):
        k = rat(k)
        return MukaiVector(k * self.r, self.c.scale(k), k * self.t)

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self):
        return self.r == 0 and self.t == 0 and self.c.is_zero()


@dataclass(frozen=True)
class GammaTriple:
    """(rank, c_1, chi) image of a K-theory class."""

    rank: Fraction
    c: NSClass
    chi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rank", rat(self.rank))
        object.__setattr__(self, "chi", rat(self.chi))

    def __neg__(self):
        return GammaTriple(-self.rank, -self.c, -self.chi)


def mukai_pair(v, w):
    """<v, w> = (c_v . c_w) - r_v t_w - t_v r_w.  Symmetric and bilinear."""
    v._check(w)
    c, d = v.c, w.c
    rv, tv, rw, tw = v.r, v.t, w.r, w.t
    q1 = rv.denominator * tw.denominator
    q2 = tv.denominator * rw.denominator
    q = c.den * d.den
    num = (_form(c.lattice._rows, c.num, d.num) * q1 * q2
           - (rv.numerator * tw.numerator * q2 + tv.numerator * rw.numerator * q1) * q)
    return Fraction(num, q * q1 * q2)


def mukai_square(v):
    return mukai_pair(v, v)


def mukai_mul(v, w):
    """Cup product in the even cohomology ring (omega^2 = 0)."""
    v._check(w)
    return MukaiVector(v.r * w.r,
                       v.c.scale(w.r) + w.c.scale(v.r),
                       v.r * w.t + w.r * v.t + v.c.dot(w.c))


def exp_class(D):
    """exp(D) = (1, D, (D^2)/2); a homomorphism (NS tensor Q, +) -> units."""
    return MukaiVector(1, D, D.self_intersection() / 2)


def twist(v, D):
    """v . exp(D): tensoring with a (rational) line-bundle class."""
    return mukai_mul(v, exp_class(D))


def dual(v):
    """(r, c, t) -> (r, -c, t); a pairing isometry and ring anti-involution."""
    return MukaiVector(v.r, -v.c, v.t)


@dataclass(frozen=True)
class VectorStats:
    square: Fraction
    isotropic: bool
    multiplicity: int
    primitive_part: MukaiVector


def integral_coordinates(v, m):
    """Coordinates of v in the integral Mukai lattice of the model.

    On abelian/K3 surfaces this is (r, c, t).  On an Enriques surface the
    integral lattice consists of (r, c, t) with 2t = r (mod 2), and
    (r, c, t - r/2) is a free coordinate system for it.
    """
    t = v.t - v.r / 2 if m.half_integral else v.t
    if v.r.denominator != 1 or v.c.den != 1 or t.denominator != 1:
        raise PreconditionError("non-integral-vector",
                                "vector is not in the integral Mukai lattice")
    return (v.r.numerator, *v.c.num, t.numerator)


def vector_stats(v, m):
    """Square, isotropy, multiplicity m(v) and primitive part of v.

    v = m(v) * v_p with v_p primitive in the integral Mukai lattice.
    """
    if v.is_zero():
        raise PreconditionError("zero-vector")
    ints = integral_coordinates(v, m)
    mult = _gcd_many(ints)
    prim = v.scale(Fraction(1, mult))
    sq = mukai_square(v)
    return VectorStats(sq, sq == 0, mult, prim)


def chi_of(v, m):
    """Euler characteristic: chi = t + r*chi(O_X)/2."""
    return v.t + v.r * m.chi_shift


def gamma_of(v, m):
    """(rank, c_1, chi) triple of a Mukai vector."""
    return GammaTriple(v.r, v.c, chi_of(v, m))


def vector_of_gamma(g, m):
    """Inverse of gamma_of: t = chi - r*chi(O_X)/2."""
    return MukaiVector(g.rank, g.c, g.chi - g.rank * m.chi_shift)


# ---------------------------------------------------------------------------
# Random sampling (used by isometry checks and the property suites)


def random_ns_class(lat, rng, span=6, denom=4):
    coords = [Fraction(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(lat.rank)]
    return NSClass(lat, tuple(coords))


def random_mukai_vector(model, rng, span=6, denom=4):
    q = lambda: Fraction(rng.randint(-span, span), rng.randint(1, denom))
    return MukaiVector(q(), random_ns_class(model.ns, rng, span, denom), q())

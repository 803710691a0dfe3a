"""Exact Mukai-lattice arithmetic.

Surfaces are modelled by their numerical data only: a Neron-Severi Gram
matrix, chi(O_X), an ample class, and an effective-cone oracle.  A Mukai
vector is a triple (r, c, t) where r is the rank, c a rational NS class
and t the coefficient of the point class omega.  The pairing is

    <v, w> = (c_v . c_w) - r_v t_w - t_v r_w,

so that <omega, 1> = -1.  NS classes, Mukai vectors and gamma triples all
store one integer numerator tuple over one positive denominator, and every
pairing is an integer Gram product; Fractions appear only at the API edge.
Everything is immutable and exact; no floating point appears anywhere in
this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from ._record import FrozenInstanceError, record, replace
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


def _sparse(row):
    """The sparse form ((j, x) for nonzero x) of a dense integer row."""
    return tuple((j, x) for j, x in enumerate(row) if x)


def _rref(rows, k):
    """Integer Gauss-Jordan on the first k columns of integer rows.

    Returns (rows, pivots): each pivot row has a positive pivot, every
    other row is 0 in the pivot columns, and the rational row space is
    unchanged.  Rows are kept primitive so entries stay small.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(k):
        i = len(pivots)
        p = next((j for j in range(i, len(rows)) if rows[j][c]), None)
        if p is None:
            continue
        rows[i], rows[p] = rows[p], rows[i]
        top = rows[i]
        if top[c] < 0:
            top = rows[i] = [-x for x in top]
        for j, row in enumerate(rows):
            b = row[c]
            if j != i and b:
                row = [top[c] * x - b * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[j] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return rows, pivots


def _kernel(rows, n):
    """An integer basis of the rational null space of integer rows of length
    n, as {free column j: vector}: the lcm of the pivots at j, 0 at the other
    free columns, and the pivot entries the _rref rows then force."""
    red, pivots = _rref(rows, n)
    scale = lcm(*(red[i][c] for i, c in enumerate(pivots)))
    basis = {}
    for free in (j for j in range(n) if j not in pivots):
        b = basis[free] = [0] * n
        b[free] = scale
        for i, c in enumerate(pivots):
            b[c] = -red[i][free] * scale // red[i][c]
    return basis


def _xgcd(a, b):
    """(x, y, g) with x a + y b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return x0, y0, a


def _bezout(w):
    """(g, x) with x . w = g = gcd(w) >= 0: _xgcd folded left to right over
    the nonzero entries of the integer vector w (_xgcd(0, w_i) = (0, +-1, |w_i|))."""
    x, g = [0] * len(w), 0
    for i, wi in enumerate(w):
        if wi:
            a, b, g = _xgcd(g, wi)
            x = [a * c for c in x]
            x[i] = b
    return g, x


@record
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
        if any(len(row) != n for row in gram):
            raise PreconditionError("gram-not-square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise PreconditionError("gram-not-symmetric")
        rows = tuple(_sparse(row) for row in gram)
        object.__setattr__(self, "_rows", rows)
        # the Mukai form on (r, c, t): <v, w> = c_v G c_w - r_v t_w - t_v r_w
        object.__setattr__(self, "_mrows", (((n + 1, -1),),)
                           + tuple(tuple((j + 1, g) for j, g in row) for row in rows)
                           + (((0, -1),),))

    @property
    def rank(self):
        return len(self.gram)

    def cls(self, coords):
        return NSClass(self, coords)

    def zero(self):
        return _new(NSClass, self, (0,) * self.rank, 1)

    def basis_class(self, i):
        return _new(NSClass, self, tuple(1 if j == i else 0 for j in range(self.rank)), 1)

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


def _new(cls, lattice, num, den):
    """An exact object of class cls from numerators already in lowest terms
    over den > 0."""
    x = object.__new__(cls)
    _set(x, "lattice", lattice)
    _set(x, "num", num)
    _set(x, "den", den)
    return x


def _reduce(cls, lattice, num, den):
    """An exact object of class cls from integer numerators over any
    positive denominator.  Tuples are built from lists, not generators:
    CPython sizes a generator's tuple by resizing, which leaves the tuple
    free lists of the final sizes growing to their cap."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _new(cls, lattice, tuple([x // g for x in num]), den // g)
    return _new(cls, lattice, tuple(num), den)


def _lazy(slot, build):
    """A read-only property computed by build(self) on first use."""
    def get(self):
        try:
            return getattr(self, slot)
        except AttributeError:
            value = build(self)
            _set(self, slot, value)
            return value
    return property(get)


class _Exact:
    """``num / den`` over one lattice: a tuple of integer numerators over one
    positive denominator with gcd(den, *num) = 1 (so zero has den 1).  The
    form is canonical, so equality and hashing agree with equality of the
    rational coordinates.  Instances are immutable; arithmetic is integer.
    """

    __slots__ = ("lattice", "num", "den")

    def __setattr__(self, *args):
        raise FrozenInstanceError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return _new, (type(self), self.lattice, self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self):
        return hash((self.num, self.den))

    def _check(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError()

    def _combine(self, other, op):
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return _reduce(type(self), self.lattice, [*map(op, self.num, other.num)], a)
        return _reduce(type(self), self.lattice,
                       [op(x * b, y * a) for x, y in zip(self.num, other.num)], a * b)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return _new(type(self), self.lattice, tuple([-x for x in self.num]), self.den)

    def scale(self, k):
        if type(k) is int:
            p, q = k, 1
        else:
            k = rat(k)
            p, q = k.numerator, k.denominator
        if p == 0:
            return _new(type(self), self.lattice, (0,) * len(self.num), 1)
        return _reduce(type(self), self.lattice, [x * p for x in self.num], self.den * q)

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self):
        return not any(self.num)


class NSClass(_Exact):
    """A rational divisor class in a fixed NS lattice basis, stored as
    integer numerators over one denominator.  ``coords`` is the read-only
    Fraction tuple, built on first use."""

    __slots__ = ("_coords",)

    def __init__(self, lattice, coords):
        num, den = _common_denominator([x if type(x) is int else rat(x) for x in coords])
        if len(num) != lattice.rank:
            raise PreconditionError("coords-length", "expected rank %d" % lattice.rank)
        _set(self, "lattice", lattice)
        _set(self, "num", num)
        _set(self, "den", den)

    coords = _lazy("_coords", lambda c: tuple(Fraction(x, c.den) for x in c.num))

    def __repr__(self):
        return "NSClass(lattice=%r, coords=%r)" % (self.lattice, self.coords)

    def dot(self, other):
        """Intersection pairing (self . other) under the Gram form."""
        self._check(other)
        return Fraction(_form(self.lattice._rows, self.num, other.num), self.den * other.den)

    def self_intersection(self):
        return self.dot(self)

    def is_integral(self):
        return self.den == 1

    def content(self):
        """gcd of the (integral) coordinates; 0 for the zero class."""
        if self.den != 1:
            raise PreconditionError("non-integral-class")
        return gcd(*self.num)

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


@record
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
        return MukaiVector(r, c, t)

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
    """(E, e) for generators g_1..g_k of Q^n (integer ``num`` over ``den``):
    an integer n x n matrix E, as sparse rows, and a scale e > 0 with
    E.x.num = e*x.den*(lambda, residual), where x = sum lambda_i g_i exactly
    when the n - k residual entries are 0.  One _rref pass on [G | I], the
    numerators being the columns of G; a missing pivot means dependence.
    """
    k = len(gens)
    rows, pivots = _rref([[g.num[i] for g in gens] + [int(i == j) for j in range(n)]
                          for i in range(n)], k)
    if len(pivots) < k:
        raise PreconditionError("dependent-generators",
                                "effective cone generators must be linearly independent")
    e = lcm(*(rows[i][i] for i in range(k)))
    return tuple(_sparse([x * (e // row[i]) * gens[i].den for x in row[k:]] if i < k
                         else row[k:]) for i, row in enumerate(rows)), e


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


class _Triple(_Exact):
    """(first, c, last) with first and last rational and c an NS class,
    stored as one numerator tuple (first, *c, last) over one denominator,
    in canonical form like NSClass.  The three entries are read-only
    properties built on first use: Fractions and an NSClass."""

    __slots__ = ("_first", "_c", "_last")
    _names = ()

    def __init__(self, first, c, last):
        first = first if type(first) is int else rat(first)
        last = last if type(last) is int else rat(last)
        den = lcm(first.denominator, c.den, last.denominator)
        _set(self, "lattice", c.lattice)
        _set(self, "num", (first.numerator * den // first.denominator,
                           *(x * (den // c.den) for x in c.num),
                           last.numerator * den // last.denominator))
        _set(self, "den", den)

    c = _lazy("_c", lambda v: _reduce(NSClass, v.lattice, v.num[1:-1], v.den))

    def __repr__(self):
        a, b = self._names
        return "%s(%s=%r, c=%r, %s=%r)" % (type(self).__name__, a, getattr(self, a),
                                           self.c, b, getattr(self, b))


_first = _lazy("_first", lambda v: Fraction(v.num[0], v.den))
_last = _lazy("_last", lambda v: Fraction(v.num[-1], v.den))


class MukaiVector(_Triple):
    """(rank, NS class, omega coefficient) with exact rational entries."""

    __slots__ = ()
    _names = ("r", "t")
    r = _first
    t = _last


class GammaTriple(_Triple):
    """(rank, c_1, chi) image of a K-theory class."""

    __slots__ = ()
    _names = ("rank", "chi")
    rank = _first
    chi = _last


def mukai_pair(v, w):
    """<v, w> = (c_v . c_w) - r_v t_w - t_v r_w.  Symmetric and bilinear."""
    v._check(w)
    return Fraction(_form(v.lattice._mrows, v.num, w.num), v.den * w.den)


def mukai_square(v):
    return mukai_pair(v, v)


def twist(v, D):
    """v . exp(D): tensoring with a (rational) line-bundle class, as one
    integer kernel over the denominator 2 q^2 den(v), q = den(D)."""
    v._check(D)
    a, d, q = v.num, D.num, D.den
    r, c = a[0], a[1:-1]
    gd = _gram_mul(v.lattice._rows, d)
    s = 2 * q * q
    return _reduce(MukaiVector, v.lattice,
                   (s * r, *(s * x + 2 * q * r * y for x, y in zip(c, d)),
                    s * a[-1] + 2 * q * sum(map(mul, c, gd)) + r * sum(map(mul, d, gd))),
                   s * v.den)


def _dual_num(a):
    return (a[0], *(-x for x in a[1:-1]), a[-1])


def dual(v):
    """(r, c, t) -> (r, -c, t); a pairing isometry and ring anti-involution."""
    return _new(MukaiVector, v.lattice, _dual_num(v.num), v.den)


@record
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
    a, den = v.num, v.den
    last, lden = (2 * a[-1] - a[0], 2 * den) if m.half_integral else (a[-1], den)
    if last % lden or any(x % den for x in a[:-1]):
        raise PreconditionError("non-integral-vector",
                                "vector is not in the integral Mukai lattice")
    return (*(x // den for x in a[:-1]), last // lden)


def vector_stats(v, m):
    """Square, isotropy, multiplicity m(v) and primitive part of v.

    v = m(v) * v_p with v_p primitive in the integral Mukai lattice.
    """
    if v.is_zero():
        raise PreconditionError("zero-vector")
    mult = gcd(*integral_coordinates(v, m))
    prim = _reduce(MukaiVector, v.lattice, v.num, v.den * mult)
    sq = mukai_square(v)
    return VectorStats(sq, sq == 0, mult, prim)


def _shift_last(cls, x, chi_O):
    """(first, c, last + first*chi_O/2) as a cls: the uniform chi <-> t rule."""
    a = x.num
    return _reduce(cls, x.lattice, (*(2 * y for y in a[:-1]), 2 * a[-1] + chi_O * a[0]),
                   2 * x.den)


def chi_of(v, m):
    """Euler characteristic: chi = t + r*chi(O_X)/2."""
    return Fraction(2 * v.num[-1] + m.chi_O * v.num[0], 2 * v.den)


def gamma_of(v, m):
    """(rank, c_1, chi) triple of a Mukai vector."""
    return _shift_last(GammaTriple, v, m.chi_O)


def vector_of_gamma(g, m):
    """Inverse of gamma_of: t = chi - r*chi(O_X)/2."""
    return _shift_last(MukaiVector, g, -m.chi_O)


# ---------------------------------------------------------------------------
# Random sampling (used by the pair and transform selftests and the tests)


def random_mukai_vector(model, rng, span=6, denom=4):
    q = lambda: Fraction(rng.randint(-span, span), rng.randint(1, denom))
    return MukaiVector(q(), NSClass(model.ns, tuple(q() for _ in range(model.ns.rank))), q())

"""Virtual-Hodge-polynomial arithmetic and generating series.

The coefficient ring R for stack invariants is the ring of Laurent
polynomials in (x, y) over Q: the class of a quot-scheme locus divided by
e(GL(N)), a polynomial in xy, lands there.  The wall-crossing recursion
uses t := xy.

Conventions: for a smooth surface e(X) = sum (-1)^{p+q} h^{p,q} x^p y^q;
the Hilbert-scheme generating series is the standard product

    sum_n e(X^[n]) z^n
        = prod_{m>=1} prod_{p,q} (1 - x^{p+m-1} y^{q+m-1} z^m)^{-(-1)^{p+q} h^{p,q}}.

Both series are expanded by the recurrence of their logarithmic
derivative, in O(N^2) products of integers or integer polynomials:

    euler_hilb:  n a(n) = chi sum_{j=1}^n sigma(j) a(n-j),
                 sigma(j) the sum of the divisors of j;
    hilb_series: n e_n = sum_{j=1}^n b_j e_{n-j},
                 b_j = sum_{mk=j} m sum_{p,q} c_pq (x^{p+m-1} y^{q+m-1})^k,
                 c_pq = (-1)^{p+q} h^{p,q}.

Every division is exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from ._record import record
from .errors import PreconditionError
from .lattice import rat


class LaurentPoly:
    """Finitely supported map (i, j) -> Q, representing sum c_ij x^i y^j."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            c = rat(c)
            if c:
                clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def xy(cls, k=1, c=1):
        """c * (xy)^k."""
        return cls({(k, k): c})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = rat(other)
            return LaurentPoly({k: c * v for k, v in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PreconditionError("negative-power")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.constant(rat(x))

    def coefficient(self, i, j):
        return self.terms.get((i, j), Fraction(0))

    def eval_ones(self):
        """Euler specialization x = y = 1."""
        return sum(self.terms.values(), Fraction(0))

    def is_diagonal(self):
        return all(i == j for i, j in self.terms)

    def xy_degree(self):
        """Top power of xy for a polynomial supported on the diagonal."""
        if not self.terms:
            raise PreconditionError("zero-polynomial")
        if not self.is_diagonal():
            raise PreconditionError("not-xy-polynomial")
        return max(i for i, _ in self.terms)

    def diagonal_coefficients(self):
        if not self.is_diagonal():
            raise PreconditionError("not-xy-polynomial")
        return {i: c for (i, _), c in self.terms.items()}

    def hodge_numbers(self):
        """h^{p,q} = (-1)^{p+q} * coefficient; surface support (0..2)^2 only."""
        out = {}
        for (p, q), c in self.terms.items():
            if not (0 <= p <= 2 and 0 <= q <= 2):
                raise PreconditionError("non-surface-hodge-data")
            if c.denominator != 1:
                raise PreconditionError("non-surface-hodge-data")
            h = (-1) ** (p + q) * c.numerator
            if h < 0:
                raise PreconditionError("non-surface-hodge-data")
            out[(p, q)] = h
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in self.sorted_terms():
            mono = "x^%d y^%d" % (i, j)
            bits.append("%s %s" % (c, mono))
        return " + ".join(bits)


@record
class QSeries:
    """sum a_k q^{k/denom}, truncated: exponents above ``order`` are unknown.

    ``coefficient`` refuses to report coefficients beyond the truncation.
    """

    denom: int
    coeffs: dict
    order: Fraction

    def __post_init__(self):
        object.__setattr__(self, "order", rat(self.order))
        clean = {}
        for k, c in self.coeffs.items():
            c = rat(c)
            if c and Fraction(k, self.denom) <= self.order:
                clean[int(k)] = c
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, exponent):
        exponent = rat(exponent)
        if exponent > self.order:
            raise PreconditionError("beyond-truncation",
                                    "coefficient of q^%s unknown at order %s" % (exponent, self.order))
        k = exponent * self.denom
        if k.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(k.numerator, Fraction(0))

    def min_exponent(self):
        if not self.coeffs:
            return Fraction(0)
        return Fraction(min(self.coeffs), self.denom)

    def sorted_terms(self):
        return [(Fraction(k, self.denom), c) for k, c in sorted(self.coeffs.items())]


# ---------------------------------------------------------------------------
# e(GL(N)) and the Hilbert-scheme series


def e_gl(N):
    """Virtual Hodge polynomial of GL(N): prod_{i<N} ((xy)^N - (xy)^i),
    expanded as an integer coefficient list in t = xy, one factor at a time."""
    if N < 1:
        raise PreconditionError("gl-rank", "N must be >= 1")
    coeffs = [1]
    for i in range(N):
        out = [0] * N + coeffs                  # t^N * coeffs
        for k, c in enumerate(coeffs, i):
            out[k] -= c                         # - t^i * coeffs
        coeffs = out
    return LaurentPoly({(k, k): c for k, c in enumerate(coeffs) if c})


def _divisor_sums(n_max):
    """[0, sigma(1), ..., sigma(n_max)] by a divisor sieve."""
    sigma = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        for j in range(m, n_max + 1, m):
            sigma[j] += m
    return sigma


def hilb_series(hodge_xy, n_max):
    """[e(X^[0]), ..., e(X^[n_max])] from the surface Hodge polynomial.

    With c_pq the coefficients of e(X), the log-derivative of the product
    gives n e_n = sum_{j=1}^n b_j e_{n-j}, where
    b_j = sum_{mk=j} m sum_{p,q} c_pq (x^{p+m-1} y^{q+m-1})^k.
    """
    if n_max < 0:
        raise PreconditionError("negative-order")
    hodge = hodge_xy.hodge_numbers() if isinstance(hodge_xy, LaurentPoly) \
        else LaurentPoly.constant(hodge_xy).hodge_numbers()
    coeffs = [((p, q), (-1) ** (p + q) * h) for (p, q), h in hodge.items()]
    b = [{} for _ in range(n_max + 1)]
    for m in range(1, n_max + 1):
        for k in range(1, n_max // m + 1):
            bj = b[m * k]
            for (p, q), c in coeffs:
                key = ((p + m - 1) * k, (q + m - 1) * k)
                bj[key] = bj.get(key, 0) + m * c
    series = [{(0, 0): 1}]
    for n in range(1, n_max + 1):
        acc = {}
        for j in range(1, n + 1):
            for (i1, j1), c1 in b[j].items():
                if not c1:
                    continue
                for (i2, j2), c2 in series[n - j].items():
                    key = (i1 + i2, j1 + j2)
                    acc[key] = acc.get(key, 0) + c1 * c2
        series.append({key: c // n for key, c in acc.items() if c})
    return [LaurentPoly(e) for e in series]


def euler_hilb(chi_X, n_max):
    """Integer coefficients of prod (1 - q^m)^{-chi_X} up to q^{n_max}, by
    the divisor-sum recurrence n a(n) = chi_X sum_{j=1}^n sigma(j) a(n-j)."""
    if n_max < 0:
        raise PreconditionError("negative-order")
    chi_X = index(chi_X)        # the floor division below is exact only for integers
    sigma = _divisor_sums(n_max)
    out = [1]
    for n in range(1, n_max + 1):
        out.append(chi_X * sum(sigma[j] * out[n - j] for j in range(1, n + 1)) // n)
    return out


def eta_inv12(order):
    """q^{-1/2} prod_{n>=1} (1 - q^n)^{-12} through the q^{order - 1/2} term.

    The coefficient of q^{n - 1/2} is the Euler number of the n-point
    Hilbert scheme of a surface with chi = 12.
    """
    if order < 0:
        raise PreconditionError("negative-order")
    euler = euler_hilb(12, order)
    coeffs = {2 * n - 1: euler[n] for n in range(order + 1)}
    return QSeries(2, coeffs, Fraction(2 * order - 1, 2))


# ---------------------------------------------------------------------------
# Hecke cosets


def hecke_cosets(r):
    """Upper-triangular coset data (a, b, d): a d = r, 0 <= b < d; r odd.

    The list has length sigma_1(r) = sum of divisors of r.
    """
    if r < 1 or r % 2 == 0:
        raise PreconditionError("even-r", "Hecke order must be odd and positive")
    out = []
    for d in range(1, r + 1):
        if r % d:
            continue
        a = r // d
        for b in range(d):
            out.append((a, b, d))
    return out


# ---------------------------------------------------------------------------
# Wall-crossing recursion (t := xy)


def wallcross_epoly(base, strata):
    """e on the wall from one side:

        e = base + sum_strata (xy)^{-sum_{i<j} (c_i, c_j)} prod_i e_i.

    Each stratum is (pairing_matrix, [factor polys]); the exponent must be
    an integer.
    """
    out = base
    for matrix, factors in strata:
        s = len(factors)
        if len(matrix) != s or any(len(row) != s for row in matrix):
            raise PreconditionError("stratum-shape")
        total = Fraction(0)
        for i in range(s):
            for j in range(i + 1, s):
                total += rat(matrix[i][j])
        if total.denominator != 1:
            raise PreconditionError("non-integer-exponent")
        term = LaurentPoly.xy(-total.numerator)
        for fpoly in factors:
            term = term * fpoly
        out = out + term
    return out

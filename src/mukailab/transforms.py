"""Cohomological Fourier-Mukai transforms as exact integer matrices.

Each transform is linear on Mukai vectors (r, c, t) and preserves the
Mukai pairing.  A CohMap is one integer matrix over one positive
denominator acting on the numerators (r, *c, t) of a vector.  A map
defined only on a sublattice (the elliptic kinds) also carries integer
constraint rows, each group naming the error that a vector outside the
domain raises.  ``apply`` is one matrix-vector product followed by the
sign, ``compose`` is a matrix product, and ``check_isometry`` is an exact
proof over an integer basis of the domain.  Contravariant transforms are
flattened to linear maps with an explicit overall sign recorded on the
map; stability-transport statements of the form "M(v) maps to M(-Phi(v))"
are realized by maps carrying sign = -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._record import record
from .errors import LatticeMismatchError, PreconditionError
from .lattice import (GammaTriple, MukaiVector, NSClass, SurfaceModel,
                      _cone_solver, _dual_num, _form, _gram_mul,
                      _reduce, _rref, integral_coordinates,
                      mukai_pair, rat, vector_of_gamma)


def _unit(n, i, x=1):
    row = [0] * n
    row[i] = x
    return row


def _mul(rows, x):
    """The integer matrix-vector product of dense rows and x."""
    return [sum(map(mul, row, x)) for row in rows]


def _canon(rows, den):
    """Dense integer rows over den > 0, divided by gcd(den, entries)."""
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def _matrix(n_out, n_in, terms, diag=()):
    """The rational matrix diag + sum(col row^T / d) over the terms (col,
    row, d), with integer columns and rows and nonzero integer d, as
    canonical (dense integer rows, den)."""
    den = lcm(*(d for _, _, d in terms))
    m = [[0] * n_in for _ in range(n_out)]
    for i, x in enumerate(diag):
        m[i][i] = x * den
    for col, row, d in terms:
        k = den // d
        for mi, x in zip(m, col):
            if x:
                x *= k
                for j, y in enumerate(row):
                    mi[j] += x * y
    return _canon(m, den)


class CohMap:
    """A pairing-preserving linear map on Mukai vectors.

    ``matrix`` is (dense integer rows, den) acting on source numerators.
    ``checks`` holds (rows, precondition, message) groups: a vector on
    which a row of a group is nonzero lies outside the domain and raises
    that group's error.  ``apply`` includes the recorded sign.  Maps can
    be composed when adjacent source/target models agree.
    """

    def __init__(self, kind, source, target, matrix, sign=1, params=None, checks=()):
        if sign not in (1, -1):
            raise PreconditionError("bad-sign")
        self.kind = kind
        self.source = source
        self.target = target
        self.sign = sign
        self.params = dict(params or {})
        self._rows, self._den = matrix
        self._checks = tuple(checks)

    def apply(self, v):
        lat = self.source.ns
        if v.lattice is not lat and v.lattice != lat:
            raise LatticeMismatchError()
        x = v.num
        for rows, precondition, message in self._checks:
            if any(_mul(rows, x)):
                raise PreconditionError(precondition, message)
        num = _mul(self._rows, x)
        if self.sign != 1:
            num = [-y for y in num]
        return _reduce(MukaiVector, self.target.ns, num, self._den * v.den)

    def __repr__(self):
        return "CohMap(%s, sign=%+d)" % (self.kind, self.sign)


def identity_map(model):
    n = model.ns.rank + 2
    return CohMap("identity", model, model, _matrix(n, n, [], [1] * n))


def twist_map(model, D, sign=1):
    """T_D: v -> v * exp(D).  D integral means honest line-bundle twisting;
    rational D is allowed for alpha-twist bookkeeping."""
    if D.lattice != model.ns:
        raise LatticeMismatchError()
    n, d, q = model.ns.rank + 2, D.num, D.den
    gd = model.ns.gram_mul(d)
    omega, r = _unit(n, n - 1), _unit(n, 0)
    # (r, c, t) -> (r, c + r D, t + (c, D) + r (D^2)/2)
    matrix = _matrix(n, n, [((0, *d, 0), r, q), (omega, (0, *gd, 0), q),
                            (omega, _unit(n, 0, sum(map(mul, d, gd))), 2 * q * q)], [1] * n)
    return CohMap("twist", model, model, matrix, sign=sign, params={"D": D})


# ---------------------------------------------------------------------------
# Enriques (-1)-reflection


def _check_reflection_kernel(v0):
    if mukai_pair(v0, v0) != -1:
        raise PreconditionError("v0-square", "<v0^2> must be -1")
    if v0.r.denominator != 1 or v0.r <= 0 or v0.r.numerator % 2 == 0:
        raise PreconditionError("v0-rank", "rk v0 must be odd and positive")


def enriques_reflection_map(model, v0=None, sign=1):
    """Reflection attached to a (-1)-class v0 on an Enriques surface:

        x -> -(x^dual + 2 v0^dual <x, v0>).

    Preconditions: v0 on the model's lattice, <v0^2> = -1 and rk v0 odd.
    The default kernel v0 = (1, 0, 1/2) swaps r + c + (s/2)omega into
    s + c + (r/2)omega and is an involution; for c_1(v0) != 0 the inverse
    is the map of the dual kernel class.
    """
    if model.kind != "enriques":
        raise PreconditionError("surface-kind", "reflection needs an Enriques model")
    if v0 is None:
        v0 = model.structure_sheaf_vector()
    elif v0.lattice != model.ns:
        raise LatticeMismatchError("the kernel v0 lives on a different lattice")
    _check_reflection_kernel(v0)
    n = model.ns.rank + 2
    # -(dual + 2 dual(v0) <., v0>), the pairing row being G_Mukai v0
    matrix = _matrix(n, n, [([-2 * x for x in _dual_num(v0.num)],
                             _gram_mul(model.ns._mrows, v0.num), v0.den * v0.den)],
                     [-1] + [1] * (n - 2) + [-1])
    return CohMap("enriques_reflection", model, model, matrix, sign=sign, params={"v0": v0})


# ---------------------------------------------------------------------------
# Transforms attached to a primitive isotropic vector v1


@record
class IsotropicCoords:
    """v = l*v1 - a*omega + d*(H + (H,c1)/r omega) + (D + (D,c1)/r omega)."""

    l: Fraction
    a: Fraction
    d: Fraction
    D: NSClass


def _check_isotropic_kernel(v1, m):
    if v1.num[0] <= 0:
        raise PreconditionError("kernel-rank", "rk v1 must be positive")
    if _form(v1.lattice._mrows, v1.num, v1.num):
        raise PreconditionError("kernel-not-isotropic")
    if gcd(*integral_coordinates(v1, m)) != 1:
        raise PreconditionError("kernel-not-primitive")


def isotropic_coords(v, v1, H, m):
    """Unique decomposition of v against the isotropic kernel class v1."""
    _check_isotropic_kernel(v1, m)
    h2 = H.self_intersection()
    if h2 == 0:
        raise PreconditionError("degenerate-polarization", "(H^2) must be nonzero")
    r1 = v1.r
    l = v.r / r1
    a = mukai_pair(v, v1) / r1
    d = (r1 * v.c.dot(H) - v.r * v1.c.dot(H)) / (r1 * h2)
    D = v.c - v1.c.scale(l) - H.scale(d)
    return IsotropicCoords(l, a, d, D)


def isotropic_reconstruct(coords, v1, H, m):
    r1 = v1.r
    omega = MukaiVector(0, v1.c.lattice.zero(), 1)
    hpart = MukaiVector(0, H, H.dot(v1.c) / r1)
    dpart = MukaiVector(0, coords.D, coords.D.dot(v1.c) / r1)
    return v1.scale(coords.l) - omega.scale(coords.a) + hpart.scale(coords.d) + dpart


@record
class IsotropicContext:
    """Data for the transform sending l*v1 - a*omega + (dH + D + ...) to
    l*omega' - a*w1 + (d H_hat + D_hat + ...).

    ``hat_map`` carries H-perp classes to H_hat-perp classes and must be an
    isometry; by default it is the identity on shared coordinates.  The
    geometric hypotheses behind stability transport (the hatted
    polarization is general for w1; the kernel restricted to a point is
    stable) cannot be decided numerically and are not modelled.
    """

    source: SurfaceModel
    target: SurfaceModel
    v1: MukaiVector
    w1: MukaiVector
    H: NSClass
    H_hat: NSClass
    hat_map: object = None

    def map_perp(self, D):
        if self.hat_map is None:
            return self.target.ns.cls(D.coords)
        return self.hat_map(D)


def _validate_isotropic_context(ctx):
    """Check the context; returns {i: image} of the H-perp basis under the
    hat map, keyed by the coordinate each basis vector stands for."""
    _check_isotropic_kernel(ctx.v1, ctx.source)
    _check_isotropic_kernel(ctx.w1, ctx.target)
    v1, w1, H, K = ctx.v1, ctx.w1, ctx.H, ctx.H_hat
    if v1.num[0] * w1.den != w1.num[0] * v1.den:
        raise PreconditionError("kernel-rank", "v1 and w1 must have equal rank")
    if _form(H.lattice._rows, H.num, H.num) * K.den ** 2 \
            != _form(K.lattice._rows, K.num, K.num) * H.den ** 2:
        raise PreconditionError("polarization-square",
                                "(H^2) and (H_hat^2) must agree for an isometry")
    # the hat map must send H-perp isometrically into H_hat-perp
    basis = _perp_basis(ctx.H)
    images = {i: ctx.map_perp(b) for i, b in basis.items()}
    for i, bi in basis.items():
        if images[i].dot(ctx.H_hat) != 0:
            raise PreconditionError("hat-map-not-perp")
        for j, bj in basis.items():
            if j > i:
                break
            if images[i].dot(images[j]) != bi.dot(bj):
                raise PreconditionError("hat-map-not-isometry")
    return images


def _perp_basis(H):
    """A rational basis of the orthogonal complement of H in NS tensor Q,
    as {i: e_i - ((H, e_i)/(H, e_p)) e_p} over the coordinates i other
    than the first p with (H, e_p) != 0."""
    lat = H.lattice
    n = lat.rank
    w = lat.gram_mul(H.num)          # (H . e_i), up to the factor 1/H.den
    piv = next((i for i, x in enumerate(w) if x != 0), None)
    if piv is None:
        return {i: lat.basis_class(i) for i in range(n)}
    p = abs(w[piv])
    return {i: _reduce(NSClass, lat, [p if j == i else -w[i] * p // w[piv] if j == piv else 0
                                      for j in range(n)], p)
            for i in range(n) if i != piv}


def isotropic_fm_map(ctx, sign=1):
    """The transform of IsotropicContext as an integer matrix.

    With l, a, d, D the isotropic_coords of v, P(y) = (0, y^, (y^, c_1(w1))
    / r1) and the hat map extended to NS by sending the pivot coordinate of
    the H-perp basis to 0 (D lies in H-perp, where the two agree), v maps to

        l (omega' - P(c_1(v1))) - a w1 + d (P'(H_hat) - P(H)) + P(c),

    P' taking H_hat itself.  Each term is an integer outer product.
    """
    images = _validate_isotropic_context(ctx)
    src, tgt = ctx.source.ns, ctx.target.ns
    H, K = ctx.H, ctx.H_hat
    gh = src.gram_mul(H.num)
    h2 = sum(map(mul, H.num, gh))
    if h2 == 0:
        raise PreconditionError("degenerate-polarization", "(H^2) must be nonzero")
    p, *u, _ = ctx.v1.num
    p2, *u2, _ = ctx.w1.num
    e1, hd, kd = ctx.v1.den, H.den, K.den
    g2 = tgt.gram_mul(u2)
    # the extended hat map: column i over the common denominator ad
    ad = lcm(*(b.den for b in images.values()))
    cols = [[x * (ad // images[i].den) for x in images[i].num] if i in images
            else [0] * tgt.rank for i in range(src.rank)]
    arows = list(zip(*cols))
    au = [sum(map(mul, row, u)) for row in arows]
    ah = [sum(map(mul, row, H.num)) for row in arows]
    ug, kg, hg = sum(map(mul, au, g2)), sum(map(mul, K.num, g2)), sum(map(mul, ah, g2))
    n_in, n_out = src.rank + 2, tgt.rank + 2
    terms = [
        # l(v) = r e1 / p
        ([0, *[-p2 * y for y in au], ad * e1 * p2 - ug], _unit(n_in, 0, e1), ad * e1 * p2 * p),
        # a(v) = <v, v1> / r1 = (G_Mukai v1.num) v / p
        ([-x for x in ctx.w1.num], _gram_mul(src._mrows, ctx.v1.num), ctx.w1.den * p),
        # d(v) = hd (p (c, G H.num) - r (u, G H.num)) / (p (H.num)^2)
        ([0, *[p2 * (ad * hd * x - kd * y) for x, y in zip(K.num, ah)], ad * hd * kg - kd * hg],
         [-hd * sum(map(mul, u, gh)), *[hd * p * x for x in gh], 0], kd * ad * hd * p2 * p * h2),
    ] + [([0, *[p2 * x for x in col], sum(map(mul, col, g2))], _unit(n_in, i + 1), ad * p2)
         for i, col in enumerate(cols)]
    return CohMap("isotropic_fm", ctx.source, ctx.target, _matrix(n_out, n_in, terms),
                  sign=sign, params={"ctx": ctx})


def cor_ext_context(model, k):
    """The rank-2 preset: NS = Ze + Zf, H = e + k f, kernel v1 = (1, 0, 0).

    Models the Poincare kernel (abelian) / ideal of the diagonal (K3).
    """
    if model.ns.rank != 2 or model.ns.gram != ((0, 1), (1, 0)):
        raise PreconditionError("model-shape", "need NS = Ze + Zf with (e,f)=1")
    H = model.ns.cls((1, k))
    v1 = model.vector(1, (0, 0), 0)
    return IsotropicContext(model, model, v1, v1, H, H)


def cor_ext_map(model, k):
    """r + c*D - a*omega  ->  a - c*D_hat - r*omega  (D = e - k f).

    The sign -1 realizes the minus sign in the stability-transport
    statements for this kernel.  On (r, e, f, t) numerators the transform
    is the swap (r, c, t) -> (t, c, r) for every k, so the matrix is
    written down instead of built by isotropic_fm_map, which gives the
    same matrix and stays the general path (tests compare the two).
    H = e + k f needs (H^2) = 2k > 0.
    """
    ctx = cor_ext_context(model, k)
    # v1 = (1, 0, 0) is refused only on a half-integral model
    _check_isotropic_kernel(ctx.v1, model)
    if k < 0:
        raise PreconditionError("polarization-not-positive", "(H^2) must be > 0")
    if k == 0:
        raise PreconditionError("degenerate-polarization", "(H^2) must be nonzero")
    swap = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    return CohMap("isotropic_fm", model, model, (swap, 1), sign=-1, params={"ctx": ctx})


@record
class FMPreconditions:
    deg_G1: Fraction
    l: Fraction
    a: Fraction

    @property
    def deg_G1_zero(self):
        return self.deg_G1 == 0

    @property
    def l_pos(self):
        return self.l > 0

    @property
    def a_pos(self):
        return self.a > 0

    @property
    def applicable(self):
        return self.deg_G1_zero and self.l_pos and self.a_pos


def fm_preconditions(v, v1, m, H):
    """Evaluate deg_{G1}(v) = 0, l(v) > 0, a(v) > 0 for stability transport."""
    if mukai_pair(v1, v1) != 0:
        raise PreconditionError("kernel-not-isotropic")
    r1 = v1.r
    deg = r1 * v.c.dot(H) - v.r * v1.c.dot(H)
    l = v.r / r1
    a = mukai_pair(v, v1) / r1
    return FMPreconditions(deg, l, a)


# ---------------------------------------------------------------------------
# Elliptic-surface transforms (gamma-triple level)


def _sigma_f(model):
    names = model.ns.basis_names
    if "sigma" not in names or "f" not in names:
        raise PreconditionError("model-shape", "need basis classes named sigma and f")
    return model.ns.named("sigma"), model.ns.named("f")


def elliptic_jacobian_fm(r, l, D, n, model):
    """Transform by the compactified relative Jacobian on gamma data.

    Input: a class with (rk, c_1, -ch_2) = (r, l*f + D, n), D in <sigma,f>-perp.
    Output: the gamma triple -(0, r*sigma + n*f - D, r + l).
    """
    sigma, f = _sigma_f(model)
    r, l, n = rat(r), rat(l), rat(n)
    if D.lattice != model.ns:
        raise LatticeMismatchError()
    if D.dot(sigma) != 0 or D.dot(f) != 0:
        raise PreconditionError("not-fiber-perp", "D must pair to 0 with sigma and f")
    c = sigma.scale(r) + f.scale(n) - D
    return -GammaTriple(0, c, r + l)


def elliptic_jacobian_inverse(g, model):
    """Recover (r, l, D, n) from the un-negated output (0, r*sigma+n*f-D, r+l)."""
    sigma, f = _sigma_f(model)
    if g.rank != 0:
        raise PreconditionError("rank-nonzero", "jacobian transform images have rank 0")
    sig2 = sigma.self_intersection()
    r = g.c.dot(f)                       # (r*sigma + n*f - D, f) = r
    n = g.c.dot(sigma) - r * sig2        # (., sigma) = r*(sigma^2) + n
    D = sigma.scale(r) + f.scale(n) - g.c
    l = g.chi - r
    return r, l, D, n


def elliptic_jacobian_map(model):
    """Mukai-vector form of the Jacobian transform on an elliptic K3 model.

    Uses chi = 2r + ch_2 to bridge (r, c, t) and the (r, l, D, n)
    presentation: l = (c, sigma), D = c - l f and n = 2r - chi = r - t,
    so v maps to (0, c - l f - r sigma - (r - t) f, -(r + l)).  Defined on
    vectors with (c_1, f) = 0, and D must then be fiber-perp.
    """
    if model.kind != "k3":
        raise PreconditionError("surface-kind",
                                "the Mukai-vector bridge needs an elliptic K3 model")
    sigma, f = _sigma_f(model)
    n, s, fn = model.ns.rank + 2, sigma.num, f.num
    gs, gf = model.ns.gram_mul(s), model.ns.gram_mul(fn)
    minus_f = (0, *(-x for x in fn), 0)
    matrix = _matrix(n, n, [
        (minus_f, (0, *gs, 0), 1), (minus_f, _unit(n, n - 1, -1), 1),
        ((0, *(-x - y for x, y in zip(s, fn)), 0), _unit(n, 0), 1),
        (_unit(n, n - 1), (-1, *(-x for x in gs), 0), 1)], [0] + [1] * (n - 2) + [0])
    checks = [([[0, *gf, 0]], "relative-degree", "(c_1, f) = 0 required for this presentation")]
    # given (c, f) = 0, (D, sigma) = l (1 - (f, sigma)) and (D, f) = -l (f^2)
    if sum(map(mul, fn, gs)) != 1 or sum(map(mul, fn, gf)) != 0:
        checks.append(([[0, *gs, 0]], "not-fiber-perp", "D must pair to 0 with sigma and f"))
    return CohMap("elliptic_jacobian", model, model, matrix, checks=checks)


@record
class EllipticRelativeParams:
    """Numerical data of a relative-moduli kernel of fiber rank r.

    chi_O_sigma is chi of the structure sheaf of the section (1 over a
    rational base); chi_F0_f is chi of the second kernel bundle restricted
    to a fiber.
    """

    r: int
    chi_O_sigma: int = 1
    chi_F0_f: int = 0


def elliptic_relative_fm(a, b, c, params, model):
    """-gamma(transform) of x = a*E0 + b*E0|f + c*C in the kernel basis:

        (0, a*sigma - c*r*f, b - c*chi(F0|f) + a*chi(O_sigma)).
    """
    sigma, f = _sigma_f(model)
    a, b, c = rat(a), rat(b), rat(c)
    cls = sigma.scale(a) - f.scale(c * params.r)
    return GammaTriple(0, cls, b - c * params.chi_F0_f + a * params.chi_O_sigma)


def elliptic_relative_map(model, params, d, k, chi_E0):
    """Mukai-vector form on an elliptic K3 model.

    The kernel data is pinned by gamma(E0) = (r, -d*sigma + k*f, chi_E0);
    the map is defined on the rational span of E0, E0|f and the point
    class.  Geometric consistency ((sigma^2) = -2, chi(O_sigma) = 1 and
    d^2 + d k + r*chi_E0 - r^2 = 1) makes it a pairing isometry.  One
    solver pass gives the kernel-basis coordinates, whose residual rows
    are the domain constraints.
    """
    if model.kind != "k3":
        raise PreconditionError("surface-kind",
                                "the Mukai-vector bridge needs an elliptic K3 model")
    sigma, f = _sigma_f(model)
    r = params.r
    if not r:
        raise PreconditionError("kernel-rank", "the fiber rank r must be nonzero")
    basis = (vector_of_gamma(GammaTriple(r, sigma.scale(-d) + f.scale(k), chi_E0), model),
             vector_of_gamma(GammaTriple(0, f.scale(r), -d), model),
             vector_of_gamma(GammaTriple(0, model.ns.zero(), 1), model))
    n = model.ns.rank + 2
    E, e = _cone_solver(basis, n)
    images = [vector_of_gamma(elliptic_relative_fm(*x, params, model), model)
              for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    E = [[dict(row).get(j, 0) for j in range(n)] for row in E]
    matrix = _matrix(n, n, [(w.num, row, w.den * e) for w, row in zip(images, E)])
    return CohMap("elliptic_relative", model, model, matrix,
                  params={"params": params, "d": d, "k": k, "chi_E0": chi_E0},
                  checks=[(E[3:], "outside-span", "vector is not in the kernel-basis span")])


# ---------------------------------------------------------------------------
# Composition and the isometry proof


def compose(maps):
    """Composite map applying ``maps`` in list order: the matrix product,
    with each later map's constraint rows pulled back through the maps
    before it, so a vector leaving a map's domain raises that map's error."""
    maps = list(maps)
    if not maps:
        raise PreconditionError("empty-composition")
    for a, b in zip(maps, maps[1:]):
        if a.target != b.source:
            raise PreconditionError("model-mismatch",
                                    "composition needs matching target/source models")
    rows, den, sign, checks = maps[0]._rows, maps[0]._den, maps[0].sign, list(maps[0]._checks)
    for m in maps[1:]:
        cols = list(zip(*rows))
        for group, precondition, message in m._checks:
            group = [row for row in (_mul(cols, r) for r in group) if any(row)]
            if group:
                checks.append((group, precondition, message))
        rows, den, sign = [_mul(cols, r) for r in m._rows], den * m._den, sign * m.sign
    return CohMap("composite", maps[0].source, maps[-1].target, _canon(rows, den), sign=sign,
                  params={"maps": maps}, checks=checks)


def check_isometry(cmap, samples=1000, rng=None):
    """Exact proof that cmap preserves the Mukai pairing on its domain.

    With B an integer basis of the domain (the null space of the
    constraint rows) and M / den the map's matrix, it checks
    B^T M^T G_target M B = den^2 B^T G_source B entry by entry in
    integers, G being the Mukai Gram matrices; by bilinearity this covers
    every vector of the domain.  The proof is recomputed on every call.
    ``samples`` and ``rng`` are accepted and unused.
    """
    n = cmap.source.ns.rank + 2
    red, pivots = _rref([row for group, _, _ in cmap._checks for row in group], n)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        b = _unit(n, free, lcm(*(red[i][c] for i, c in enumerate(pivots))))
        for i, c in enumerate(pivots):
            b[c] = -red[i][free] * b[free] // red[i][c]
        basis.append(b)
    images = [_mul(cmap._rows, b) for b in basis]
    g_images = [_gram_mul(cmap.target.ns._mrows, y) for y in images]
    g_basis = [_gram_mul(cmap.source.ns._mrows, b) for b in basis]
    d2 = cmap._den ** 2
    return all(sum(map(mul, images[i], g_images[j])) == d2 * sum(map(mul, basis[i], g_basis[j]))
               for i in range(len(basis)) for j in range(i + 1))

"""Cohomological Fourier-Mukai transforms as exact linear maps.

Each transform acts on Mukai vectors (or gamma triples, for the elliptic
kinds) and preserves the Mukai pairing.  Contravariant transforms are
flattened to linear maps with an explicit overall sign recorded on the
map; stability-transport statements of the form "M(v) maps to
M(-Phi(v))" are realized by maps carrying sign = -1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import LatticeMismatchError, PreconditionError
from .lattice import (GammaTriple, MukaiVector, NSClass, SurfaceModel, chi_of,
                      dual, mukai_pair, rat, random_mukai_vector, twist,
                      vector_of_gamma, vector_stats)


class CohMap:
    """A pairing-preserving linear map on Mukai vectors.

    ``apply`` includes the recorded sign; ``raw_apply`` omits it.  Maps can
    be composed when adjacent source/target models agree.
    """

    def __init__(self, kind, source, target, func, sign=1, params=None, sampler=None):
        if sign not in (1, -1):
            raise PreconditionError("bad-sign")
        self.kind = kind
        self.source = source
        self.target = target
        self.sign = sign
        self.params = dict(params or {})
        self._func = func
        self._sampler = sampler

    def raw_apply(self, v):
        return self._func(v)

    def apply(self, v):
        w = self._func(v)
        return w if self.sign == 1 else -w

    def random_domain_vector(self, rng):
        if self._sampler is not None:
            return self._sampler(rng)
        return random_mukai_vector(self.source, rng)

    def __repr__(self):
        return "CohMap(%s, sign=%+d)" % (self.kind, self.sign)


def identity_map(model):
    return CohMap("identity", model, model, lambda v: v)


def twist_map(model, D, sign=1):
    """T_D: v -> v * exp(D).  D integral means honest line-bundle twisting;
    rational D is allowed for alpha-twist bookkeeping."""
    if D.lattice != model.ns:
        raise LatticeMismatchError()
    return CohMap("twist", model, model, lambda v: twist(v, D), sign=sign,
                  params={"D": D})


# ---------------------------------------------------------------------------
# Enriques (-1)-reflection


def enriques_reflection(v0, x):
    """Reflection attached to a (-1)-class v0 on an Enriques surface:

        x -> -(x^dual + 2 v0^dual <x, v0>).

    Preconditions: <v0^2> = -1 and rk v0 odd.  With the structure-sheaf
    kernel v0 = (1, 0, 1/2) this swaps r + c + (s/2)omega into
    s + c + (r/2)omega and is an involution; for kernels with c_1(v0) != 0
    the inverse is the analogous formula built from the dual kernel class.
    """
    if mukai_pair(v0, v0) != -1:
        raise PreconditionError("v0-square", "<v0^2> must be -1")
    if v0.r.denominator != 1 or v0.r <= 0 or v0.r.numerator % 2 == 0:
        raise PreconditionError("v0-rank", "rk v0 must be odd and positive")
    s = mukai_pair(x, v0)
    return -(dual(x) + dual(v0).scale(2 * s))


def enriques_reflection_map(model, v0=None, sign=1):
    if model.kind != "enriques":
        raise PreconditionError("surface-kind", "reflection needs an Enriques model")
    if v0 is None:
        v0 = model.structure_sheaf_vector()
    return CohMap("enriques_reflection", model, model,
                  lambda x: enriques_reflection(v0, x), sign=sign,
                  params={"v0": v0})


# ---------------------------------------------------------------------------
# Transforms attached to a primitive isotropic vector v1


@dataclass(frozen=True)
class IsotropicCoords:
    """v = l*v1 - a*omega + d*(H + (H,c1)/r omega) + (D + (D,c1)/r omega)."""

    l: Fraction
    a: Fraction
    d: Fraction
    D: NSClass


def _check_isotropic_kernel(v1, m):
    if v1.r <= 0:
        raise PreconditionError("kernel-rank", "rk v1 must be positive")
    if mukai_pair(v1, v1) != 0:
        raise PreconditionError("kernel-not-isotropic")
    if vector_stats(v1, m).multiplicity != 1:
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


@dataclass(frozen=True)
class IsotropicContext:
    """Data for the transform sending l*v1 - a*omega + (dH + D + ...) to
    l*omega' - a*w1 + (d H_hat + D_hat + ...).

    ``hat_map`` carries H-perp classes to H_hat-perp classes and must be an
    isometry; by default it is the identity on shared coordinates.  The two
    geometric hypotheses behind stability transport (the hatted
    polarization is general for w1; the kernel restricted to a point is
    stable) cannot be decided numerically and are carried as booleans.
    """

    source: SurfaceModel
    target: SurfaceModel
    v1: MukaiVector
    w1: MukaiVector
    H: NSClass
    H_hat: NSClass
    hat_map: object = None
    assume_hat_polarization_general: bool = True
    assume_kernel_fibers_stable: bool = True

    def map_perp(self, D):
        if self.hat_map is None:
            return self.target.ns.cls(D.coords)
        return self.hat_map(D)


def _validate_isotropic_context(ctx):
    _check_isotropic_kernel(ctx.v1, ctx.source)
    _check_isotropic_kernel(ctx.w1, ctx.target)
    if ctx.v1.r != ctx.w1.r:
        raise PreconditionError("kernel-rank", "v1 and w1 must have equal rank")
    if ctx.H.self_intersection() != ctx.H_hat.self_intersection():
        raise PreconditionError("polarization-square",
                                "(H^2) and (H_hat^2) must agree for an isometry")
    # the hat map must send H-perp isometrically into H_hat-perp
    basis = _perp_basis(ctx.H)
    images = [ctx.map_perp(b) for b in basis]
    for i, bi in enumerate(basis):
        if images[i].dot(ctx.H_hat) != 0:
            raise PreconditionError("hat-map-not-perp")
        for j in range(i + 1):
            if images[i].dot(images[j]) != bi.dot(basis[j]):
                raise PreconditionError("hat-map-not-isometry")


def _perp_basis(H):
    """A rational basis of the orthogonal complement of H in NS tensor Q."""
    lat = H.lattice
    n = lat.rank
    w = lat.gram_mul(H.num)          # (H . e_i), up to the factor 1/H.den
    piv = next((i for i, x in enumerate(w) if x != 0), None)
    if piv is None:
        return [lat.basis_class(i) for i in range(n)]
    out = []
    for i in range(n):
        if i == piv:
            continue
        coords = [0] * n
        coords[i] = 1
        coords[piv] = Fraction(-w[i], w[piv])
        out.append(lat.cls(coords))
    return out


def isotropic_fm(v, ctx):
    """Apply the degree-preserving transform of the isotropic kernel."""
    co = isotropic_coords(v, ctx.v1, ctx.H, ctx.source)
    r1 = ctx.w1.r
    omega = MukaiVector(0, ctx.target.ns.zero(), 1)
    H_hat = ctx.H_hat
    D_hat = ctx.map_perp(co.D)
    hpart = MukaiVector(0, H_hat, H_hat.dot(ctx.w1.c) / r1)
    dpart = MukaiVector(0, D_hat, D_hat.dot(ctx.w1.c) / r1)
    return omega.scale(co.l) - ctx.w1.scale(co.a) + hpart.scale(co.d) + dpart


def isotropic_fm_map(ctx, sign=1):
    _validate_isotropic_context(ctx)
    return CohMap("isotropic_fm", ctx.source, ctx.target,
                  lambda v: isotropic_fm(v, ctx), sign=sign, params={"ctx": ctx})


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
    statements for this kernel.
    """
    return isotropic_fm_map(cor_ext_context(model, k), sign=-1)


@dataclass(frozen=True)
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
    presentation; defined on vectors with (c_1, f) = 0.
    """
    if model.kind != "k3":
        raise PreconditionError("surface-kind",
                                "the Mukai-vector bridge needs an elliptic K3 model")
    sigma, f = _sigma_f(model)

    def func(v):
        if v.c.dot(f) != 0:
            raise PreconditionError("relative-degree",
                                    "(c_1, f) = 0 required for this presentation")
        l = v.c.dot(sigma)              # c = l*f + D with D perp sigma, f
        D = v.c - f.scale(l)
        chi = chi_of(v, model)
        n = 2 * v.r - chi               # n = -ch_2, ch_2 = chi - 2r on K3
        g = elliptic_jacobian_fm(v.r, l, D, n, model)
        return vector_of_gamma(g, model)

    def sampler(rng):
        v = random_mukai_vector(model, rng)
        # strip the sigma-component so that (c_1, f) = 0
        c = v.c - sigma.scale(v.c.dot(f))
        return MukaiVector(v.r, c, v.t)

    return CohMap("elliptic_jacobian", model, model, func, sampler=sampler)


@dataclass(frozen=True)
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
    d^2 + d k + r*chi_E0 - r^2 = 1) makes it a pairing isometry.
    """
    if model.kind != "k3":
        raise PreconditionError("surface-kind",
                                "the Mukai-vector bridge needs an elliptic K3 model")
    sigma, f = _sigma_f(model)
    r = params.r
    vE0 = vector_of_gamma(GammaTriple(r, sigma.scale(-d) + f.scale(k), chi_E0), model)
    vE0f = vector_of_gamma(GammaTriple(0, f.scale(r), -d), model)
    vC = vector_of_gamma(GammaTriple(0, model.ns.zero(), 1), model)
    basis = (vE0, vE0f, vC)

    def decompose(v):
        a = v.r / r                                   # only E0 has rank
        rest = v - vE0.scale(a)
        # rest = b*(0, r f, t_Ef) + c*(0, 0, 1): read b off the f-coefficient
        b = rest.c.dot(sigma) / (r * f.dot(sigma))
        rest2 = rest - vE0f.scale(b)
        if not rest2.c.is_zero() or rest2.r != 0:
            raise PreconditionError("outside-span",
                                    "vector is not in the kernel-basis span")
        return a, b, rest2.t

    def func(v):
        a, b, c = decompose(v)
        return vector_of_gamma(elliptic_relative_fm(a, b, c, params, model), model)

    def sampler(rng):
        q = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return vE0.scale(q()) + vE0f.scale(q()) + vC.scale(q())

    return CohMap("elliptic_relative", model, model, func,
                  params={"params": params, "d": d, "k": k, "chi_E0": chi_E0},
                  sampler=sampler)


# ---------------------------------------------------------------------------
# Composition and the isometry check


def compose(maps):
    """Composite map applying ``maps`` in list order."""
    maps = list(maps)
    if not maps:
        raise PreconditionError("empty-composition")
    for a, b in zip(maps, maps[1:]):
        if a.target != b.source:
            raise PreconditionError("model-mismatch",
                                    "composition needs matching target/source models")
    sign = 1
    for m in maps:
        sign *= m.sign

    def func(v):
        for m in maps:
            v = m.raw_apply(v)
        return v

    return CohMap("composite", maps[0].source, maps[-1].target, func, sign=sign,
                  params={"maps": maps}, sampler=maps[0]._sampler)


def check_isometry(cmap, samples=1000, rng=None):
    """Exact <Phi v, Phi w> = <v, w> on ``samples`` random rational pairs."""
    rng = rng or random.Random(20201)
    for _ in range(samples):
        v = cmap.random_domain_vector(rng)
        w = cmap.random_domain_vector(rng)
        if mukai_pair(cmap.apply(v), cmap.apply(w)) != mukai_pair(v, w):
            return False
    return True

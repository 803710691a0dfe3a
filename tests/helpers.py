"""Shared builders and independent oracles used across the test modules."""

import contextlib
import io
import random
from fractions import Fraction as F
from math import comb, gcd, lcm
from types import SimpleNamespace

from mukailab import (Crossing, EllipticRelativeParams, GammaTriple, LaurentPoly,
                      MoveTrace, MukaiVector, NSClass, PreconditionError,
                      SurfaceModel, cor_ext_map, dual, elliptic_relative_map,
                      enriques_reduce, generic_model, hyperbolic_lattice,
                      isotropic_coords, k3_model, mukai_pair, mukai_square, rat,
                      twist, vector_of_gamma, vector_stats)
from mukailab._record import replace
from mukailab.cli import main
from mukailab.lattice import (_reduce, _rref, _xgcd, integral_coordinates,
                              random_mukai_vector)


def run_cli(argv):
    """(exit code, stdout, stderr) of cli.main(argv), an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def k3_with_perp(n):
    """K3 with NS = ZH + ZD, (H^2) = 2, (D^2) = -2n, (H, D) = 0."""
    return k3_model(gram=((2, 0), (0, -2 * n)), names=("h", "d"), polarization=(1, 0))


def elliptic_k3(extra_rank=0):
    """Elliptic K3: (sigma^2) = -2, (sigma, f) = 1, optional f-perp summand."""
    n = 2 + extra_rank
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = -2
    gram[0][1] = gram[1][0] = 1
    for i in range(2, n):
        gram[i][i] = -2
    names = ["sigma", "f"] + ["d%d" % i for i in range(extra_rank)]
    return k3_model(gram=tuple(tuple(r) for r in gram), names=tuple(names),
                    polarization=(1, 3) + (0,) * extra_rank)


def consistent_relative_map():
    """A relative-kernel transform whose data satisfies the K3 isometry
    constraint d^2 + d k + r chi_E0 - r^2 = 1."""
    m = elliptic_k3()
    r, d, k = 3, 2, 3          # 1 - d^2 - dk + r^2 = 0 mod r
    chi_E0 = (1 - d * d - d * k + r * r) // r
    params = EllipticRelativeParams(r=r, chi_O_sigma=1, chi_F0_f=7)
    return m, elliptic_relative_map(m, params, d, k, chi_E0)


def inconsistent_relative_map():
    """The relative-kernel transform of consistent_relative_map with chi_E0
    one too large, so d^2 + d k + r chi_E0 - r^2 = 4: not an isometry."""
    m, cmap = consistent_relative_map()
    p = cmap.params
    return m, elliptic_relative_map(m, p["params"], p["d"], p["k"], p["chi_E0"] + 1)


def isotropic_fm_formula(v, ctx):
    """The isotropic transform from isotropic_coords in Fractions:
    l omega' - a w1 + d (H_hat + ...) + (D_hat + ...), D_hat = hat(D)."""
    co = isotropic_coords(v, ctx.v1, ctx.H, ctx.source)
    r1 = ctx.w1.r
    omega = MukaiVector(0, ctx.target.ns.zero(), 1)
    D_hat = ctx.map_perp(co.D)
    hpart = MukaiVector(0, ctx.H_hat, ctx.H_hat.dot(ctx.w1.c) / r1)
    dpart = MukaiVector(0, D_hat, D_hat.dot(ctx.w1.c) / r1)
    return omega.scale(co.l) - ctx.w1.scale(co.a) + hpart.scale(co.d) + dpart


def random_ns_class(lat, rng, span=6, denom=4):
    """A random rational NS class, drawn as random_mukai_vector draws its c."""
    coords = [F(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(lat.rank)]
    return NSClass(lat, tuple(coords))


# --- defining formulas: oracles for the integer matrices and kernels --------


def enriques_reflection(v0, x):
    """The (-1)-reflection by v0 in Fractions: x -> -(x^dual + 2 v0^dual <x, v0>)."""
    return -(dual(x) + dual(v0).scale(2 * mukai_pair(x, v0)))


def mukai_mul(v, w):
    """Cup product in the even cohomology ring (omega^2 = 0), in Fractions:
    (r r', r c' + r' c, r t' + r' t + (c . c'))."""
    return MukaiVector(v.r * w.r, w.c.scale(v.r) + v.c.scale(w.r),
                       v.r * w.t + w.r * v.t + v.c.dot(w.c))


def exp_class(D):
    """exp(D) = (1, D, (D^2)/2); a homomorphism (NS tensor Q, +) -> units."""
    return MukaiVector(1, D, D.self_intersection() / 2)


def elliptic_epoly_recursion(side, wall, terms):
    """Elliptic-surface specialization of the wall-crossing recursion:

        e = side + sum_k e_k1 * e_k2 * (xy)^{k*l},

    where (l, d) is the wall datum and each term is (k, e_k1, e_k2).
    The literal exponent sign differs from wallcross_epoly; the two
    statements are reconciled by t -> 1/t on strata of this shape.
    """
    l, d = wall
    l, d = int(l), int(d)
    if l <= 0:
        raise PreconditionError("malformed-datum", "fiber multiple l must be positive")
    out = side
    for k, e1, e2 in terms:
        k = int(k)
        if k <= 0:
            raise PreconditionError("malformed-datum", "k must be positive")
        out = out + e1 * e2 * LaurentPoly.xy(k * l)
    return out


# --- the sampled isometry check: an oracle for the exact proof -------------


def domain_sampler(cmap):
    """rng -> a random rational vector in the domain of cmap (of its first
    map, for a composite)."""
    if cmap.kind == "composite":
        return domain_sampler(cmap.params["maps"][0])
    m = cmap.source
    q = lambda rng: F(rng.randint(-6, 6), rng.randint(1, 4))
    if cmap.kind == "elliptic_jacobian":
        sigma, f = m.ns.named("sigma"), m.ns.named("f")

        def draw(rng):
            v = random_mukai_vector(m, rng)
            # strip the sigma-component so that (c_1, f) = 0
            return MukaiVector(v.r, v.c - sigma.scale(v.c.dot(f)), v.t)
        return draw
    if cmap.kind == "elliptic_relative":
        p = cmap.params
        r, sigma, f = p["params"].r, m.ns.named("sigma"), m.ns.named("f")
        basis = [vector_of_gamma(g, m) for g in (
            GammaTriple(r, sigma.scale(-p["d"]) + f.scale(p["k"]), p["chi_E0"]),
            GammaTriple(0, f.scale(r), -p["d"]), GammaTriple(0, m.ns.zero(), 1))]
        return lambda rng: sum((b.scale(q(rng)) for b in basis[1:]), basis[0].scale(q(rng)))
    return lambda rng: random_mukai_vector(m, rng)


def sampled_isometry(cmap, samples=1000, rng=None):
    """Exact <Phi v, Phi w> = <v, w> on ``samples`` random rational pairs
    from the domain: the check that check_isometry's proof replaced."""
    rng = rng or random.Random(20201)
    draw = domain_sampler(cmap)
    for _ in range(samples):
        v, w = draw(rng), draw(rng)
        if mukai_pair(cmap.apply(v), cmap.apply(w)) != mukai_pair(v, w):
            return False
    return True


def random_enriques_vector(m, rng, ranks=(1, 3, 5, 7), s_span=4, max_square=None):
    """Random primitive odd-rank integral vector with <v^2> >= -1 (and at
    most max_square).  ranks=(3, 5, 7), s_span=6, max_square=15 is the shape
    of the benchmark's Enriques jobs."""
    while True:
        r = rng.choice(ranks)
        c = m.cls([rng.randint(-2, 2) for _ in range(10)])
        s = 2 * rng.randint(-s_span, s_span) + 1
        v = m.vector(r, c, F(-s, 2))
        sq = mukai_square(v)
        if sq < -1 or (max_square is not None and sq > max_square):
            continue
        if vector_stats(v, m).multiplicity != 1:
            continue
        return v



def e8_twist_grow_s_by_search(m, v, sq):
    """The first twist class M e1, M = 1, 2, ..., with s(v exp(M e1)) > sq,
    found one twist at a time (e1 the first E8(-1) basis class; None when
    s(v) > sq already): the search the closed form of
    reductions._e8_twist_grow_s replaced."""
    s_of = lambda w: -2 * w.t
    if s_of(v) > sq:
        return None
    M = 1
    while True:
        eta = m.cls((0, 0, M) + (0,) * 7)
        if s_of(twist(v, eta)) > sq:
            return eta
        M += 1


def rank_one_per_call(l, r, c1, a, m):
    """reduce_to_rank_one as it was built before its per-model values: a
    fresh hyperbolic_lattice() target on every call, cor_ext_map(target, k)
    for each swap, and each step's params sorted from a dict.  Assumes the
    preconditions hold."""
    trace = MoveTrace()

    def step(move, params, v, w, model):
        trace.record(move, tuple(sorted(params.items())), v, w,
                     (mukai_square(w), gcd(*integral_coordinates(w, model))))
        return w

    v0 = m.vector(l * r, c1.scale(l), a)
    trace.invariant_log.append((mukai_square(v0), gcd(*integral_coordinates(v0, m))))
    trace.final = v0
    if l == 1 and r == 1:
        return trace
    lat = hyperbolic_lattice()
    target = SurfaceModel(m.kind, lat, m.chi_O, lat.cls((1, 1)))
    emkf = lambda k: lat.cls((1, -k))
    half_c1sq = c1.self_intersection().numerator // 2
    lam = max(-((-1 - half_c1sq) // r), -((-1 - a) // l))
    b, k = -a + l * lam, -half_c1sq + r * lam
    v = step("deform", {"lambda": lam, "b": b, "k": k}, v0,
             target.vector(l * r, emkf(k).scale(l), -b), target)
    v = step("fm_swap", {"kind": "rank2-isotropic", "k": k}, v,
             cor_ext_map(target, k).apply(v), target)
    lam2 = max(-((l * l * k - 1) // b), 1 - l * r, 1 + l * r * (b - 1) - l * l * k, 0)
    b2, k2 = l * r + lam2, l * l * k + b * lam2
    k3 = l * r * (1 - b) + l * l * k + lam2
    v = step("deform", {"lambda'": lam2, "b'": b2, "k'": k2}, v,
             target.vector(b, emkf(k2), -b2), target)
    v = step("fm_swap", {"kind": "rank2-isotropic", "k": k2}, v,
             cor_ext_map(target, k2).apply(v), target)
    v = step("deform", {"k''": k3}, v, target.vector(b2, -emkf(k3), -1), target)
    step("fm_swap", {"kind": "rank2-isotropic", "k": k3}, v,
         cor_ext_map(target, k3).apply(v), target)
    return trace


def enriques_per_call(v, m):
    """enriques_reduce on a copy of m made through _record.replace, whose
    empty __dict__ makes the call build its reflection map afresh, as every
    call did before the map was kept on the model."""
    return enriques_reduce(v, replace(m))


def rank_one_inputs(rng, m):
    """(l, r, c1, a) of the benchmark's rank-one jobs: l in 1..5, r in 2..7,
    c1 and a nonzero with gcd(r, content(c1)) = gcd(l, a) = 1."""
    l, r = rng.randint(1, 5), rng.randint(2, 7)
    while True:
        c = (rng.randint(-6, 6), rng.randint(-6, 6))
        a = rng.randint(-9, 9)
        if any(c) and gcd(r, *c) == 1 and a and gcd(l, a) == 1:
            return l, r, m.cls(c), a


def euclid_sequence(r, d):
    """Remainder sequence with remainders normalized into (0, m]."""
    seq = [r]
    prev, cur = r, d
    while seq[-1] != 1:
        cur = cur % prev
        if cur == 0:
            cur = prev
        seq.append(cur)
        prev, cur = cur, -prev
    return seq


def synthetic_git_data(rng):
    from mukailab import GitData
    l = rng.randint(1, 3)
    eps = [F(rng.randint(0, 3), 7) for _ in range(l)]
    return GitData(rng.randint(5, 30), tuple(rng.randint(0, 4) for _ in range(l)),
                   tuple(eps), rng.randint(1, 5), rng.randint(2, 9))


def brute_force_walls(g, H, box, m):
    """Independent wall scan: every effective decomposition by direct cone
    arithmetic, every integer n up to a bound from maximizing over box
    corners, wall kept iff the hyperplane meets the box."""
    xi, chi = g.c, g.chi
    xiH = xi.dot(H)
    lat = m.ns
    out = set()
    xi0, xi1 = int(xi.coords[0]), int(xi.coords[1])
    for u in range(0, xi0 + 1):
        for w in range(0, xi1 + 1):
            if (u, w) in ((0, 0), (xi0, xi1)):
                continue
            D = lat.cls((u, w))
            DH = D.dot(H)
            # functional of alpha: (D,alpha)(xi,H) - (xi,alpha)(D,H)
            wvec = [xiH * D.coords[i] - DH * xi.coords[i] for i in range(2)]
            coeffs = [sum(lat.gram[i][j] * wvec[j] for j in range(2)) for i in range(2)]
            if coeffs == [0, 0]:
                continue
            corners = [(lo, hi) for lo, hi in box]
            vals = [coeffs[0] * a + coeffs[1] * b
                    for a in corners[0] for b in corners[1]]
            n_bound = max(abs(x) for x in vals) + abs(chi * DH)
            for n in range(-int(n_bound) - 1, int(n_bound) + 2):
                off = n * xiH - chi * DH
                if not (min(vals) <= off <= max(vals)):
                    continue
                ints = [int(c) for c in coeffs] + [int(off)]
                g0 = 0
                for x in ints:
                    g0 = gcd(g0, abs(x))
                ints = [x // g0 for x in ints]
                lead = next((x for x in ints[:-1] if x), 0)
                if lead < 0:
                    ints = [-x for x in ints]
                out.add(((u, w), n, tuple(ints[:-1]), ints[-1]))
    return out


def rank3_model():
    """Rank-3 surface with the coordinate orthant as effective cone."""
    return generic_model(((-1, 1, 0), (1, 0, 0), (0, 0, -2)), ("sigma", "f", "e"), (1, 3, 0),
                         chi_O=1, effective_generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def fraction_box_extremes(coeffs, box):
    """(min, max) of sum c_i alpha_i over the box, summed in Fractions."""
    lo = F(0)
    hi = F(0)
    for c, (a, b) in zip(coeffs, box):
        c = rat(c)
        lo += min(c * rat(a), c * rat(b))
        hi += max(c * rat(a), c * rat(b))
    return lo, hi


def _scaled_value(w, alpha):
    """alpha.den * w.value(alpha), one wall at a time."""
    return sum(x * y for x, y in zip(w.normal, alpha.num)) - w.offset * alpha.den


def fraction_chamber_path(alpha, alpha2, walls):
    """Crossings of alpha -> alpha2 wall by wall along the direction, each
    t a Fraction, sorted on (t, index)."""
    for name, pt in (("start", alpha), ("end", alpha2)):
        if any(_scaled_value(w, pt) == 0 for w in walls):
            raise PreconditionError("endpoint-on-wall", "%s point lies on a wall" % name)
    direction = alpha2 - alpha
    d_num, d_den, a_den = direction.num, direction.den, alpha.den
    crossings = []
    for i, w in enumerate(walls):
        slope = sum(x * y for x, y in zip(w.normal, d_num))
        if slope == 0:
            continue
        p = -_scaled_value(w, alpha) * d_den
        q = slope * a_den
        if q < 0:
            p, q = -p, -q
        if 0 < p < q:
            crossings.append(Crossing(F(p, q), i, w))
    crossings.sort(key=lambda c: (c.t, c.index))
    return crossings


def fraction_pair(gram, a, b):
    """(a . b) summed entry by entry over the Gram matrix in Fractions."""
    return sum((F(a[i]) * gram[i][j] * F(b[j])
                for i in range(len(gram)) for j in range(len(gram))), F(0))


def quadratic_unique_hyperplanes(walls):
    """First wall of each hyperplane, by a linear scan of the kept list."""
    seen = []
    for w in walls:
        if w.hyperplane() not in [x.hyperplane() for x in seen]:
            seen.append(w)
    return seen


# --- generating-series and Hecke oracles: the former product expansions ----


def _binomial_factor_coeffs(exponent, kmax):
    """z-coefficients of (1 - u z)^exponent up to z^kmax (u symbolic)."""
    out = []
    for k in range(kmax + 1):
        if exponent < 0:
            out.append(F(comb(-exponent + k - 1, k)))
        else:
            out.append(F((-1) ** k * comb(exponent, k)) if k <= exponent else F(0))
    return out


def product_hilb_series(hodge_xy, n_max):
    """[e(X^[0]), ..., e(X^[n_max])] by multiplying out Goettsche's product
    one binomial factor (1 - x^{p+m-1} y^{q+m-1} z^m)^{-c_pq} at a time,
    on {(i, j): coefficient} dicts."""
    hodge = hodge_xy.hodge_numbers() if isinstance(hodge_xy, LaurentPoly) \
        else LaurentPoly.constant(hodge_xy).hodge_numbers()
    series = [{(0, 0): 1}] + [{} for _ in range(n_max)]
    for m in range(1, n_max + 1):
        for (p, q), h in sorted(hodge.items()):
            coeffs = _binomial_factor_coeffs(-((-1) ** (p + q)) * h, n_max // m)
            new = [{} for _ in range(n_max + 1)]
            for n in range(n_max + 1):
                for k in range(0, (n_max - n) // m + 1):
                    if not coeffs[k]:
                        continue
                    # u^k with u = x^{p+m-1} y^{q+m-1}
                    di, dj = (p + m - 1) * k, (q + m - 1) * k
                    target = new[n + k * m]
                    for (i, j), c in series[n].items():
                        key = (i + di, j + dj)
                        target[key] = target.get(key, 0) + c * coeffs[k]
            series = new
    return [LaurentPoly(e) for e in series]


def product_euler_hilb(chi, n_max):
    """prod (1 - q^m)^{-chi} up to q^{n_max}, one binomial factor at a time."""
    out = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        factors = _binomial_factor_coeffs(-chi, n_max // m)
        new = [0] * (n_max + 1)
        for n in range(n_max + 1):
            if out[n] == 0:
                continue
            for k in range(0, (n_max - n) // m + 1):
                new[n + k * m] += out[n] * factors[k]
        out = new
    return [int(x) for x in out]


def composed_z1(lat, n_max, box):
    """The rank-1 term list built term by term and merged, as partition_z1
    did before it became a single block of the integer kernel."""
    from mukailab import PartitionTerm, lattice_box_vectors, merge_terms
    euler = product_euler_hilb(12, n_max)
    return merge_terms([PartitionTerm(xi, F(2 * euler[n]), F(2 * n - 1, 2), F(1, 2), F(-1, 2))
                        for xi in lattice_box_vectors(lat, box) for n in range(n_max + 1)])


def composed_hecke_zr(r, lat, order, box):
    """Z^r composed block by block: the rank-1 terms at each block's own
    level, hecke_block_sum over them, then one merge of all blocks with 1/r^2."""
    from mukailab import PartitionTerm, hecke_block_sum, hecke_cosets, merge_terms
    order = F(order)
    blocks = []
    for a, d in dict.fromkeys((a, d) for a, _, d in hecke_cosets(r)):
        n_block = order * d / a + F(1, 2)
        if n_block < 0:
            continue
        blocks.extend(hecke_block_sum(composed_z1(lat, int(n_block), box), a, d, lat))
    return merge_terms([PartitionTerm(t.xi, t.coeff / (r * r), t.hol_scalar, t.pos_coef,
                                      t.neg_coef, t.x_scale, t.phase) for t in blocks])


# --- partition and e(GL(N)) oracles: the former per-term Fraction code -----


def fraction_merge_terms(terms):
    """merge_terms on Fractions: keyed on each field's numerator and
    denominator, the first-seen fields kept, sorted stably by exponent."""
    from mukailab import PartitionTerm
    acc = {}
    for t in terms:
        hol, ph = t.hol_scalar, t.phase
        if any(t.xi):
            pos, neg, xs = t.pos_coef, t.neg_coef, t.x_scale
        else:
            pos, neg, xs = F(0), F(0), 1
        key = (t.xi, hol.numerator, hol.denominator, pos.numerator, pos.denominator,
               neg.numerator, neg.denominator, xs, ph.numerator, ph.denominator)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [F(0) + t.coeff, hol, pos, neg, xs, ph]
        else:
            slot[0] += t.coeff
    out = [PartitionTerm(key[0], c, hol, pos, neg, xs, ph)
           for key, (c, hol, pos, neg, xs, ph) in acc.items() if c]
    out.sort(key=lambda t: (t.hol_scalar, t.xi, t.pos_coef, t.x_scale, t.phase))
    return out


def fraction_phase_units(term, lat):
    """2 * (holomorphic - antiholomorphic exponent), with the refusals."""
    from mukailab import PreconditionError, q_form
    if term.pos_coef != -term.neg_coef:
        raise PreconditionError("tagged-exponents", "terms must carry opposite split tags")
    val = 2 * (term.hol_scalar + term.pos_coef * F(q_form(lat, term.xi)))
    if val.denominator != 1:
        raise PreconditionError("non-integral-phase")
    return val.numerator


def fraction_hecke_coset_transform(terms, coset, lat):
    """hecke_coset_transform with every exponent and phase a Fraction product."""
    from mukailab import PartitionTerm
    a, b, d = coset
    scale = F(a, d)
    out = []
    for t in terms:
        phase = (t.phase + F(b * fraction_phase_units(t, lat), d)) % 1
        out.append(PartitionTerm(t.xi, t.coeff, scale * t.hol_scalar, scale * t.pos_coef,
                                 scale * t.neg_coef, x_scale=a * t.x_scale, phase=phase))
    return out


def fraction_hecke_block_sum(terms, a, d, lat):
    """hecke_block_sum as Fraction products of each kept term, then merged."""
    from mukailab import PartitionTerm, PreconditionError
    scale = F(a, d)
    out = []
    for t in terms:
        units = fraction_phase_units(t, lat)
        if t.phase != 0:
            raise PreconditionError("phase-collision",
                                    "block sum expects untransformed input terms")
        if units % d:
            continue
        out.append(PartitionTerm(t.xi, t.coeff * d * d, scale * t.hol_scalar,
                                 scale * t.pos_coef, scale * t.neg_coef, x_scale=a * t.x_scale))
    return fraction_merge_terms(out)


def product_e_gl(N):
    """prod_{i<N} ((xy)^N - (xy)^i), one LaurentPoly binomial at a time."""
    out = LaurentPoly.one()
    for i in range(N):
        out = out * (LaurentPoly.xy(N) - LaurentPoly.xy(i))
    return out


# --- cone-solver oracle: the former per-call Fraction elimination ----------


def solve_in_span(gens, D):
    """Solve D = sum lambda_i gens_i by Gaussian elimination in Fractions;
    None if D is outside the span."""
    n = D.lattice.rank
    k = len(gens)
    aug = [[gens[j].coords[i] for j in range(k)] + [D.coords[i]] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    out = [F(0)] * k
    for row, c in zip(range(r), piv_cols):
        out[c] = aug[row][k]
    return out


# --- elimination oracles: the former hand-rolled integer routines ----------
# (lattice._xgcd is the extended gcd they used, moved there unchanged)


def unimodular_complement(c):
    """Given a primitive integer vector c, return u with (c, u) part of a
    Z-basis.  Deterministic pairwise-Euclid construction."""
    n = len(c)
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = list(c)
    for j in range(1, n):
        aa, bb = w[0], w[j]
        if bb == 0:
            continue
        x, y, g = _xgcd(aa, bb)
        # rows (0, j) of the reduction get [[x, y], [-b/g, a/g]]; columns of
        # the inverse accumulate [[a/g, -y], [b/g, x]]
        w[0], w[j] = g, 0
        for i in range(n):
            c0, cj = tinv[i][0], tinv[i][j]
            tinv[i][0] = (aa // g) * c0 + (bb // g) * cj
            tinv[i][j] = -y * c0 + x * cj
    if w[0] == -1:
        w[0] = 1
        for i in range(n):
            tinv[i][0] = -tinv[i][0]
    if w[0] != 1:
        raise PreconditionError("not-primitive", "complement needs a primitive vector")
    return tuple(row[1] for row in tinv)


def solve_pairing(lat, c, target):
    """Deterministic integer solution eta of (eta, c) = target.

    Needs the functional (., c) to be surjective onto Z, which holds for
    primitive c on a unimodular lattice.
    """
    n = lat.rank
    w = lat.gram_mul(c)
    # multi-extended-gcd over the functional coefficients
    coeffs = [0] * n
    g = 0
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            coeffs[i] = 1 if wi > 0 else -1
            continue
        x, y, g2 = _xgcd(g, wi)
        coeffs = [x * ci for ci in coeffs]
        coeffs[i] += y
        g = g2
    if g == 0 or target % g:
        raise PreconditionError("pairing-unsolvable")
    mult = target // g
    return tuple(ci * mult for ci in coeffs)


def perp_basis(H):
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


def former_kernel(rows, n):
    """The integer null-space basis check_isometry built by its own loop
    on the _rref rows, as a list in free-column order."""
    red, pivots = _rref(rows, n)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        b = [0] * n
        b[free] = lcm(*(red[i][c] for i, c in enumerate(pivots)))
        for i, c in enumerate(pivots):
            b[c] = -red[i][free] * b[free] // red[i][c]
        basis.append(b)
    return basis


def bezout_by_solve_pairing(w):
    """(g, x) of lattice._bezout(w) from solve_pairing, on a stand-in
    lattice whose Gram product is w."""
    g = gcd(*w)
    return g, list(solve_pairing(SimpleNamespace(rank=len(w), gram_mul=lambda c: w), None, g))


def e8_twist_for_content_and_s(m, v, want_s_above):
    """reductions._e8_twist_for_content_and_s with the former pairwise
    unimodular_complement in place of its closed form."""
    r = v.r.numerator
    c8 = v.c.int_coords()[2:]
    gamma = gcd(*c8)
    l = gcd(r, gamma)
    if gamma == 0:
        candidates = ((1, N) + (0,) * 6 for N in range(0, 10 ** 6))
        need_twist = True
    else:
        u = unimodular_complement(tuple(x // gamma for x in c8))
        candidates = (tuple(M * x for x in u)
                      for M in range(1, 10 ** 6) if gcd(M, gamma // l) == 1)
        need_twist = (gamma != l)
    s_of = lambda w: -2 * w.t
    if not need_twist and (want_s_above is None or s_of(v) > want_s_above):
        return None
    for xi8 in candidates:
        xi = m.ns.cls((0, 0) + xi8)
        if want_s_above is None or s_of(twist(v, xi)) > want_s_above:
            return xi
    raise AssertionError("content twist search failed")


# --- removed public names, kept as test oracles ------------------------------


def git_weight_factored(dims, data):
    """The equivalent factored form h(m)*(b0 dim a(V'xW) - sum e_i dim V_i
    - a_1-weight * dimV' - b0' dimV'); valid when the unprimed dims are the
    global ones (dimV = h(m), dim a_i(V) = h_i(m), dim a(VxW) = a1 n + h(m))."""
    a1n = rat(data.a1) * rat(data.n)
    if a1n == 0:
        raise PreconditionError("division-by-zero")
    eps = [rat(x) for x in data.eps_i]
    him = [rat(x) for x in data.h_i_m]
    hm = rat(data.h_m)
    reduced = hm - sum(e * h for e, h in zip(eps, him))
    beta0 = reduced / a1n
    alpha1 = 1 - sum(eps, F(0))
    inner = (beta0 * rat(dims.dim_alpha_VpW)
             - sum(e * rat(ki) for e, ki in zip(eps, dims.dim_V_i))
             - alpha1 * rat(dims.dimVp)
             - reduced * rat(dims.dimVp) / a1n)
    return hm * inner


def isotropic_reconstruct(coords, v1, H):
    """l*v1 - a*omega + d*(H + (H,c1)/r omega) + (D + (D,c1)/r omega): the
    vector whose isotropic_coords are coords."""
    r1 = v1.r
    omega = MukaiVector(0, v1.c.lattice.zero(), 1)
    hpart = MukaiVector(0, H, H.dot(v1.c) / r1)
    dpart = MukaiVector(0, coords.D, coords.D.dot(v1.c) / r1)
    return v1.scale(coords.l) - omega.scale(coords.a) + hpart.scale(coords.d) + dpart


def diagonal_coefficients(p):
    """{i: coefficient of (xy)^i} of a LaurentPoly supported on the diagonal."""
    assert p.is_diagonal()
    return {i: c for (i, _), c in p.terms.items()}


def xy_degree(p):
    """Top power of xy of a nonzero LaurentPoly supported on the diagonal."""
    return max(diagonal_coefficients(p))


def min_exponent(s):
    """The lowest exponent with a nonzero coefficient in a QSeries (0 if none)."""
    return F(min(s.coeffs), s.denom) if s.coeffs else F(0)

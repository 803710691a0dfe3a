"""Independent checkers for the benchmark's outputs.

Nothing here imports mukailab: every reference value is recomputed from
the defining formula with plain integers and Fractions, so that a fault in
the library cannot hide by agreeing with itself.  Inputs and outputs are
plain tuples: a Mukai vector is (r, c, t) with c a tuple of coordinates,
a Gram matrix is a tuple of integer rows, a wall is (normal, offset).
"""

from fractions import Fraction
from math import gcd


class CheckFailed(AssertionError):
    """An output disagreed with its independent reference."""


# what verifying a malformed output can raise besides CheckFailed
REJECTIONS = (CheckFailed, ValueError, KeyError, TypeError, IndexError, ArithmeticError)


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Lattice pairing


def gram_pair(gram, a, b):
    """Exact bilinear form sum_ij a_i G_ij b_j, straight from the matrix."""
    total = Fraction(0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            total += Fraction(ai) * gram[i][j] * Fraction(bj)
    return total


def mukai_pair(gram, v, w):
    """<v, w> = (c_v . c_w) - r_v t_w - t_v r_w."""
    (r1, c1, t1), (r2, c2, t2) = v, w
    return gram_pair(gram, c1, c2) - Fraction(r1) * t2 - Fraction(t1) * r2


def content(ints):
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return g


# ---------------------------------------------------------------------------
# Euler numbers and Laurent polynomials


def sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def euler_numbers(chi, n_max):
    """Coefficients of prod_m (1 - q^m)^(-chi) by the divisor-sum recurrence

        a(0) = 1,  a(n) = (chi / n) * sum_{j=1..n} sigma_1(j) a(n - j).
    """
    sig = [0] + [sigma1(j) for j in range(1, n_max + 1)]
    a = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(sig[j] * a[n - j] for j in range(1, n + 1))
        a.append(Fraction(chi, n) * s)
    for x in a:
        require(x.denominator == 1, "divisor-sum recurrence left a fraction")
    return [int(x) for x in a]


def laurent_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def laurent_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def e_gl_terms(N):
    """prod_{i<N} ((xy)^N - (xy)^i) as {(k, k): coefficient}."""
    poly = {0: 1}
    for i in range(N):
        nxt = {}
        for k, c in poly.items():
            nxt[k + N] = nxt.get(k + N, 0) + c
            nxt[k + i] = nxt.get(k + i, 0) - c
        poly = nxt
    return {(k, k): c for k, c in poly.items() if c}


def check_hilb_series(series, hodge):
    """Each e(X^[n]) specializes to the Euler number for chi(h) at x = y = 1
    and is symmetric under x <-> y when the surface data is."""
    chi = sum(hodge.values())       # topological Euler number of the surface
    euler = euler_numbers(chi, len(series) - 1)
    symmetric = all(hodge.get((q, p), 0) == c for (p, q), c in hodge.items())
    for n, poly in enumerate(series):
        require(sum(poly.values()) == euler[n], "e(X^[%d]) at x=y=1 is not chi(X^[%d])" % (n, n))
        if symmetric:
            require(all(poly.get((j, i), 0) == c for (i, j), c in poly.items()),
                    "e(X^[%d]) is not symmetric in x <-> y" % n)


def wallcross_epoly(base, strata):
    """base + sum over strata (xy)^(-sum_{i<j} m_ij) prod factors."""
    out = dict(base)
    for matrix, factors in strata:
        s = len(factors)
        total = sum(Fraction(matrix[i][j]) for i in range(s) for j in range(i + 1, s))
        require(total.denominator == 1, "stratum exponent must be integral")
        term = {(-total.numerator, -total.numerator): 1}
        for f in factors:
            term = laurent_mul(term, f)
        out = laurent_add(out, term)
    return out


# ---------------------------------------------------------------------------
# Hecke transforms of the rank-1 Enriques partition function


def divisor_pairs(r):
    """(a, d) with a*d = r, one per divisor block of the sigma_1(r) cosets."""
    return [(r // d, d) for d in range(1, r + 1) if r % d == 0]


def coset_count(r):
    return sum(d for _, d in divisor_pairs(r))


def _term_key(xi, hol, scale_tag, x_scale):
    if not any(xi):
        return (xi, hol, Fraction(0), Fraction(0), 1, Fraction(0))
    return (xi, hol, scale_tag, -scale_tag, x_scale, Fraction(0))


def _merge(acc):
    return {k: c for k, c in acc.items() if c}


def hecke_terms(r, gram, order, vectors, euler):
    """Z^r = (1/r^2) sum over cosets (a, b, d) of d * Z^1((a tau + 2b)/d).

    Block (a, d) takes the rank-1 terms with n <= order*d/a + 1/2.  The
    b-sum of e^{2 pi i (2b/d) E} over 0 <= b < d is d when d divides
    2E = 2n - 1 + Q(xi^2) and 0 otherwise.  Returns {key: coefficient}
    with key (xi, q-exponent, +tag, -tag, x-scale, phase).
    """
    order = Fraction(order)
    acc = {}
    for a, d in divisor_pairs(r):
        n_block = int(order * d / a + Fraction(1, 2))
        scale = Fraction(a, d)
        for xi in vectors:
            qv = -gram_pair(gram, xi, xi)
            for n in range(n_block + 1):
                units = 2 * n - 1 + qv
                if units % d:
                    continue
                key = _term_key(xi, scale * Fraction(2 * n - 1, 2), scale / 2, a)
                acc[key] = acc.get(key, 0) + Fraction(2 * euler[n] * d * d, r * r)
    return _merge(acc)


def rank_side_terms(d, a, gram, n_max, vectors, euler):
    """Mukai-vector side of the order-r evidence identity for one d | r:
    w = (d, xi, -k/2) with k d = 2n - 1 + Q(xi^2) contributes
    d^2 chi(X^[n]) q^{(a/2d) <w^2>}, <w^2> = 2n - 1."""
    acc = {}
    for xi in vectors:
        qv = -gram_pair(gram, xi, xi)
        for n in range(n_max + 1):
            if (2 * n - 1 + qv) % d:
                continue
            key = _term_key(xi, Fraction(a * (2 * n - 1), 2 * d), Fraction(a, 2 * d), a)
            acc[key] = acc.get(key, 0) + d * d * euler[n]
    return _merge(acc)


def box_vectors(box):
    out = [()]
    for lo, hi in box:
        out = [v + (x,) for v in out for x in range(lo, hi + 1)]
    return out


def multiplicity_chi(v, gram, half_integral, euler_of):
    """sum over v = a*w, w integral, <w^2> >= -1 of (2/a^2) chi(X^[(<w^2>+1)/2])."""
    r, c, t = v
    coords = [Fraction(r)] + [Fraction(x) for x in c] + \
        [Fraction(t) - Fraction(r, 2) if half_integral else Fraction(t)]
    require(all(x.denominator == 1 for x in coords), "vector is not integral")
    m = content(int(x) for x in coords)
    total = Fraction(0)
    for a in range(1, m + 1):
        if m % a:
            continue
        w = (Fraction(r, a), tuple(Fraction(x, a) for x in c), Fraction(t) / a)
        sq = mukai_pair(gram, w, w)
        if sq < -1:
            continue
        total += Fraction(2, a * a) * euler_of(int((sq + 1) / 2))
    return total


# ---------------------------------------------------------------------------
# Walls and chambers


def normalize(coeffs, offset):
    """Coprime integer (normal, offset) with positive leading normal entry."""
    coeffs = [Fraction(x) for x in coeffs]
    offset = Fraction(offset)
    lcm = 1
    for x in coeffs + [offset]:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in coeffs]
    off = int(offset * lcm)
    g = content(ints + [off])
    ints = [x // g for x in ints]
    off //= g
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
        off = -off
    return tuple(ints), off


def scan_walls(gram, xi, chi, H, box):
    """Brute-force wall scan over an orthant effective cone.

    Every integral D with 0 <= D <= xi coordinatewise (D not 0, not xi)
    is tried; the functional alpha -> (D, alpha)(xi, H) - (xi, alpha)(D, H)
    is expanded from the Gram matrix, and every integer n whose hyperplane
    meets the box (found by evaluating the functional at all box corners)
    gives a wall.  Returns {(D, n, normal, offset)}.
    """
    rank = len(xi)
    xiH = gram_pair(gram, xi, H)
    corners = box_vectors([(0, 1)] * rank)
    out = set()
    for D in box_vectors([(0, x) for x in xi]):
        if not any(D) or D == tuple(xi):
            continue
        DH = gram_pair(gram, D, H)
        w = [xiH * D[i] - DH * xi[i] for i in range(rank)]
        coeffs = [sum(gram[i][j] * w[j] for j in range(rank)) for i in range(rank)]
        if not any(coeffs):
            continue
        vals = [sum(c * box[i][pick[i]] for i, c in enumerate(coeffs)) for pick in corners]
        lo, hi = min(vals), max(vals)
        # offset(n) = n*(xi,H) - chi*(D,H) must lie in [lo, hi]
        n = -1
        while n * xiH - chi * DH >= lo:
            n -= 1
        n += 1
        while n * xiH - chi * DH <= hi:
            if n * xiH - chi * DH >= lo:
                normal, off = normalize(coeffs, n * xiH - chi * DH)
                out.add((tuple(D), n, normal, off))
            n += 1
    return out


def wall_value(wall, point):
    normal, offset = wall
    return sum(c * Fraction(x) for c, x in zip(normal, point)) - offset


def sign_vector(walls, point):
    out = []
    for w in walls:
        val = wall_value(w, point)
        require(val != 0, "sample point lies on a wall")
        out.append(val > 0)
    return tuple(out)


def segment_point(alpha, alpha2, t):
    return tuple(Fraction(a) + t * (Fraction(b) - Fraction(a)) for a, b in zip(alpha, alpha2))


def path_crossings(walls, alpha, alpha2):
    """Every (t, index) with 0 < t < 1 where the segment alpha -> alpha2
    meets walls[index], from each wall's own linear equation in t."""
    out = []
    for i, (normal, offset) in enumerate(walls):
        start = wall_value((normal, offset), alpha)
        slope = sum(c * (Fraction(b) - Fraction(a)) for c, a, b in zip(normal, alpha, alpha2))
        if slope == 0:
            continue
        t = -start / slope
        if 0 < t < 1:
            out.append((t, i))
    out.sort()
    return out


def check_crossings(walls, alpha, alpha2, crossings, probes=3):
    """A chamber path must list exactly the walls the segment meets, each
    at a point that lies on it, and the sign vectors on either side of a
    crossing time must differ exactly on the walls crossed there.

    ``crossings`` is [(t, index)]; sign vectors are recomputed at up to
    ``probes`` crossing times spread along the path.
    """
    require(list(crossings) == path_crossings(walls, alpha, alpha2),
            "crossing list differs from the independent segment scan")
    for t, i in crossings:
        require(wall_value(walls[i], segment_point(alpha, alpha2, t)) == 0,
                "crossing point is not on its wall")
    times = sorted({t for t, _ in crossings})
    if not times:
        require(sign_vector(walls, alpha) == sign_vector(walls, alpha2),
                "no crossings but the endpoints lie in different chambers")
        return
    bounds = [Fraction(0)] + times + [Fraction(1)]
    picks = sorted({0, len(times) // 2, len(times) - 1})[:probes]
    for k in picks:
        before = sign_vector(walls, segment_point(alpha, alpha2, (bounds[k] + bounds[k + 1]) / 2))
        after = sign_vector(walls, segment_point(alpha, alpha2, (bounds[k + 1] + bounds[k + 2]) / 2))
        flipped = {i for i, (x, y) in enumerate(zip(before, after)) if x != y}
        require(flipped == {i for t, i in crossings if t == times[k]},
                "sign vectors across t=%s differ off the crossed walls" % times[k])


# ---------------------------------------------------------------------------
# Reductions


def euclid_sequence(r, d):
    """Rank sequence r, r_1, ..., 1 of the Euclid alternation on (r, d)
    with remainders normalized into (0, previous rank]."""
    seq = [r]
    prev, cur = r, d
    while seq[-1] != 1:
        cur = cur % prev
        if cur == 0:
            cur = prev
        seq.append(cur)
        prev, cur = cur, -prev
    return seq


def check_euclid_steps(r, d, steps):
    """Steps [(move, (rank, degree))] of the Euclid alternation from (r, d):
    a twist keeps the rank and moves the degree by a multiple of it into
    (0, rank]; a transform sends (r, d) to (d, -r); the ranks before each
    transform are the Euclid remainder sequence, ending at rank one."""
    state = (r, d)
    ranks = [r]
    for move, after in steps:
        if move == "twist":
            require(after[0] == state[0] and (after[1] - state[1]) % state[0] == 0
                    and 0 < after[1] <= state[0], "bad twist step %r -> %r" % (state, after))
        else:
            require(move == "fm_swap" and tuple(after) == (state[1], -state[0]),
                    "bad transform step %r -> %r" % (state, after))
            ranks.append(after[0])
        state = tuple(after)
    require(ranks == euclid_sequence(r, d), "rank sequence is not Euclid's")
    return state


def check_trace(states, grams, square):
    """Every state of a reduction trace keeps the Mukai square and the
    chain ends at rank one.  ``grams`` gives the Gram matrix per state."""
    for k, (v, gram) in enumerate(zip(states, grams)):
        require(mukai_pair(gram, v, v) == square, "step %d changed the Mukai square" % k)
    require(states[-1][0] == 1, "trace does not end at rank one")


def git_weight(dims, data):
    """dimV (b0 dim a(V'xW) + sum e_i (dimV' - dim V_i))
       - dimV' (b0 dim a(VxW) + sum e_i dim a_i(V)),  b0 = (h(m) - sum e_i h_i(m)) / (a1 n)."""
    f = lambda x: Fraction(x)
    eps = [f(x) for x in data["eps_i"]]
    b0 = (f(data["h_m"]) - sum(e * f(h) for e, h in zip(eps, data["h_i_m"]))) / (f(data["a1"]) * f(data["n"]))
    left = f(dims["dimV"]) * (b0 * f(dims["dim_alpha_VpW"])
                              + sum(e * (f(dims["dimVp"]) - f(k)) for e, k in zip(eps, dims["dim_V_i"])))
    right = f(dims["dimVp"]) * (b0 * f(dims["dim_alpha_VW"])
                                + sum(e * f(x) for e, x in zip(eps, dims["dim_alpha_i_V"])))
    return left - right

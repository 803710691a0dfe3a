"""Constructive reduction chains with per-step invariant checking.

Three reduction algorithms are implemented as explicit move traces:

* ``reduce_to_rank_one``    -- twist / transform / deform chain taking a
  primitive positive-rank class on an abelian or K3 surface to a rank-1
  class on the rank-2 product model, preserving the Mukai square and the
  multiplicity at every step;
* ``enriques_reduce``       -- the inductive twist-and-reflect chain on an
  Enriques surface terminating at rank 1, emitting n = (<v^2>+1)/2 and
  the Hodge polynomial of the n-point Hilbert scheme;
* ``elliptic_gcd_reduce``   -- the Euclid-style twist/transform alternation
  on (rank, fiber degree) pairs for a relative moduli space.

The module also houses the filtration-stack dimension identities, moduli
dimension conventions, the properly-semistable bound, and the GIT-weight /
parabolic Euler-characteristic arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._record import record
from .errors import InvariantError, PreconditionError
from .lattice import (SurfaceModel, hyperbolic_lattice, integral_coordinates,
                      mukai_pair, mukai_square, rat, twist, vector_stats)
from .series import LaurentPoly, hilb_series
from .transforms import cor_ext_map, enriques_reflection_map


@record
class MoveStep:
    move: str        # 'twist' | 'fm_swap' | 'deform'
    params: tuple    # (name, value) pairs sorted by name, JSON-friendly
    before: object
    after: object


@record(frozen=False)
class MoveTrace:
    steps: list = None
    invariant_log: list = None
    final: object = None

    def __post_init__(self):
        self.steps = self.steps or []
        self.invariant_log = self.invariant_log or []

    def record(self, move, params, before, after, invariants):
        """Append a step; ``params`` is a tuple of (name, value) pairs
        already sorted by name."""
        self.steps.append(MoveStep(move, params, before, after))
        self.invariant_log.append(invariants)
        self.final = after


def _invariants(v, m):
    """(<v^2>, m(v)): the pair every rank-one and Enriques move keeps."""
    return mukai_square(v), gcd(*integral_coordinates(v, m))


def _start(v, m):
    return MoveTrace(invariant_log=[_invariants(v, m)], final=v)


def _step(trace, move, params, v, w, m):
    """Record the move v -> w on the model m and return w, after checking
    that w has the Mukai square and multiplicity the chain started with."""
    invariants = _invariants(w, m)
    if invariants != trace.invariant_log[0]:
        raise InvariantError("%s changed the Mukai square or the multiplicity" % move)
    trace.record(move, params, v, w, invariants)
    return w


def _per_model(m, slot, build):
    """build(m), kept in the model record's ``__dict__`` from the first use
    on: a value that depends only on the model is built once per model."""
    try:
        return m.__dict__[slot]
    except KeyError:
        value = m.__dict__[slot] = build(m)
        return value


# ---------------------------------------------------------------------------
# Rank-one reduction on the rank-2 product model


ENRIQUES_DEFAULT_HODGE = LaurentPoly({(0, 0): 1, (1, 1): 10, (2, 2): 1})

# Largest n = (<v^2> + 1)/2 enriques_reduce accepts: e(X^[n]) costs about
# n^4 (n = 100 takes ~1.2 s), so larger orders are refused up front.
MAX_HILBERT_ORDER = 100

_enriques_hilb_cache = []


def _enriques_hilb(n):
    """e(X^[n]) for the default Enriques Hodge polynomial.

    The series is cached in a module-level list that at least doubles
    each time n passes its end, up to MAX_HILBERT_ORDER, so growing n
    costs O(log n) refills.  The cache is global mutable state and is not
    thread-safe.
    """
    if n >= len(_enriques_hilb_cache):
        _enriques_hilb_cache[:] = hilb_series(ENRIQUES_DEFAULT_HODGE, max(
            n, min(2 * len(_enriques_hilb_cache), MAX_HILBERT_ORDER), 8))
    return _enriques_hilb_cache[n]


def _ceil_div(a, b):
    return -((-a) // b)


def _rank_one_target(m):
    """(target, e, f, swap): the rank-2 product model of m's kind, its
    basis classes, and the cor_ext swap.  The swap is one matrix for every
    k >= 1, so the map of k = 1 serves every swap of every chain on m (no
    step reads its params)."""
    lat = hyperbolic_lattice()
    target = SurfaceModel(m.kind, lat, m.chi_O, lat.cls((1, 1)))
    return target, lat.basis_class(0), lat.basis_class(1), cor_ext_map(target, 1)


def reduce_to_rank_one(l, r, c1, a, m):
    """Reduce the primitive class l*(r + c1) + a*omega to rank one.

    Preconditions: r > 0, gcd(r, content(c1)) = 1 (so l is the full gcd of
    rank and first Chern class), gcd(l, a) = 1, and (c1^2) even.  The
    deformation parameters are the minimal integers making the relevant
    divisor classes ample on the rank-2 model; they are recorded in the
    trace so runs are reproducible.
    """
    l, r, a = int(l), int(r), int(a)
    if m.kind not in ("abelian", "k3"):
        raise PreconditionError("surface-kind", "need an abelian or K3 model")
    if r <= 0 or l <= 0:
        raise PreconditionError("rank-not-positive")
    if gcd(r, c1.content()) != 1:
        raise PreconditionError("gcd-rank-c1", "l must absorb the full gcd")
    if gcd(l, a) != 1:
        raise PreconditionError("gcd-l-a", "input class must be primitive")
    c1sq = c1.self_intersection()
    if c1sq.denominator != 1 or c1sq.numerator % 2:
        raise PreconditionError("odd-self-intersection", "(c1^2) must be an even integer")
    c1sq = c1sq.numerator

    v0 = m.vector(l * r, c1.scale(l), a)
    trace = _start(v0, m)
    if l == 1 and r == 1:
        return trace
    target, e_cls, f_cls, swap = _per_model(m, "_rank_one", _rank_one_target)

    def emkf(k):
        return e_cls - f_cls.scale(k)

    # deform: b = -a + l*lambda, k = -(c1^2)/2 + r*lambda, minimal lambda
    # with k >= 1 (e + k f ample) and b >= 1
    lam = max(_ceil_div(1 + c1sq // 2, r), _ceil_div(1 + a, l))
    b = -a + l * lam
    k = -(c1sq // 2) + r * lam
    # the one swap map stands for cor_ext_map(target, k), which needs k >= 1
    if k < 1:
        raise InvariantError("k must be >= 1 for the cor_ext swap")
    v1 = _step(trace, "deform", (("b", b), ("k", k), ("lambda", lam)), v0,
               target.vector(l * r, emkf(k).scale(l), -b), target)
    v2 = _step(trace, "fm_swap", (("k", k), ("kind", "rank2-isotropic")), v1,
               swap.apply(v1), target)

    # deform: b' = l*r + lambda', k' = l^2 k + b lambda'; lambda' minimal
    # with k' >= 1, b' >= 1 and k'' >= 1 for the following step
    lam2 = max(_ceil_div(1 - l * l * k, b), 1 - l * r, 1 + l * r * (b - 1) - l * l * k)
    lam2 = max(lam2, 0)
    b2 = l * r + lam2
    k2 = l * l * k + b * lam2
    # k'' = l r (1 - b) + l^2 k + lambda', for the last deformation
    k3 = l * r * (1 - b) + l * l * k + lam2
    if min(k2, k3) < 1:
        raise InvariantError("k' and k'' must be >= 1 for the cor_ext swap")
    v3 = _step(trace, "deform", (("b'", b2), ("k'", k2), ("lambda'", lam2)), v2,
               target.vector(b, emkf(k2), -b2), target)
    v4 = _step(trace, "fm_swap", (("k", k2), ("kind", "rank2-isotropic")), v3,
               swap.apply(v3), target)

    # deform to omega-coefficient -1
    v5 = _step(trace, "deform", (("k''", k3),), v4, target.vector(b2, -emkf(k3), -1), target)
    v6 = _step(trace, "fm_swap", (("k", k3), ("kind", "rank2-isotropic")), v5,
               swap.apply(v5), target)

    if v6.r != 1:
        raise InvariantError("reduction did not reach rank one")
    return trace


# ---------------------------------------------------------------------------
# E8 integer linear algebra helpers


def _unimodular_complement(c):
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


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return x0, y0, a


def _solve_pairing(lat, c, target):
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


# ---------------------------------------------------------------------------
# Enriques reduction


@record
class EnriquesReduction:
    trace: MoveTrace
    n: int
    hodge: LaurentPoly


def _e8_embed(m, e8_coords):
    """Lift an E8-coordinate vector into the rank-10 Enriques lattice."""
    return m.ns.cls((0, 0) + tuple(e8_coords))


def _e8_part(c):
    return c.int_coords()[2:]


def _s_param(v):
    s = -2 * v.t
    if s.denominator != 1:
        raise PreconditionError("non-integral-vector")
    return s.numerator


def _twist_step(trace, m, v, D, note):
    return _step(trace, "twist", (("D", tuple(str(x) for x in D.coords)), ("note", note)),
                 v, twist(v, D), m)


def _enriques_reflection(m):
    """The (-1)-reflection by v(O_X), negated: one matrix for every swap."""
    return enriques_reflection_map(m, sign=-1)


def _swap_step(trace, m, v):
    # reflection precondition of the Hodge-polynomial swap: (c^2) < 0
    if v.c.self_intersection() >= 0:
        raise PreconditionError("reflection-precondition",
                                "(c1^2) < 0 required for the r <-> s swap")
    reflect = _per_model(m, "_reflect", _enriques_reflection)
    return _step(trace, "fm_swap", (("kind", "minus-one-reflection"),), v,
                 reflect.apply(v), m)


def _e8_twist_for_content_and_s(m, v, want_s_above):
    """Find xi in E8(-1) with content(c + r*xi) = gcd(r, content(c)) and,
    if requested, s(v exp(xi)) > want_s_above.  Returns the lifted twist
    class, or None when no twist is needed."""
    r = v.r.numerator
    c8 = _e8_part(v.c)
    gamma = gcd(*c8)
    l = gcd(r, gamma)

    if gamma == 0:
        # c = 0: need content(r*xi) = r, i.e. xi primitive; (1, N, 0, ...)
        candidates = ((1, N) + (0,) * 6 for N in range(0, 10 ** 6))
        need_twist = True
    else:
        chat = tuple(x // gamma for x in c8)
        u = _unimodular_complement(chat)
        mbar = gamma // l
        candidates = (tuple(M * x for x in u)
                      for M in range(1, 10 ** 6) if gcd(M, mbar) == 1)
        need_twist = (gamma != l)

    if not need_twist and (want_s_above is None or _s_param(v) > want_s_above):
        return None

    # every candidate already has content l: r = l when gamma = 0, else
    # gcd(gamma, r M) = l since gcd(M, gamma/l) = gcd(gamma/l, r/l) = 1
    for xi8 in candidates:
        xi = _e8_embed(m, xi8)
        if want_s_above is None or _s_param(twist(v, xi)) > want_s_above:
            return xi
    raise InvariantError("unreachable: content twist search failed")


def _e8_twist_grow_s(m, v, sq):
    """Smallest positive multiple eta = M e1 of the first E8(-1) basis class
    with s(v exp(eta)) > <v^2>; keeps the sigma/f components of c_1.

    With p = (c_1, e1) and (e1^2) = -2 the twist gives s' = s - 2pM + 2rM^2,
    so M starts just below the larger root of s' = <v^2> and steps up at
    most twice."""
    s = _s_param(v)
    if s > sq:
        return None
    e1 = _e8_embed(m, (1, 0, 0, 0, 0, 0, 0, 0))
    r, p = v.r.numerator, v.c.dot(e1).numerator
    M = max(1, (2 * p + isqrt(4 * p * p - 8 * r * (s - sq))) // (4 * r))
    while s - 2 * p * M + 2 * r * M * M <= sq:
        M += 1
    return e1.scale(M)


def enriques_reduce(v, m):
    """Twist-and-reflect an odd-rank primitive class down to rank one.

    Emits n = (<v^2> + 1)/2 and e(X^[n]) for the default Enriques Hodge
    polynomial.  Errors: even rank, non-primitive input, <v^2> < -1 (the
    moduli space is empty below that bound), n > MAX_HILBERT_ORDER.
    """
    if m.kind != "enriques":
        raise PreconditionError("surface-kind")
    if v.r.denominator != 1 or v.r <= 0 or v.r.numerator % 2 == 0:
        raise PreconditionError("even-rank", "rank must be odd and positive")
    trace = _start(v, m)
    sq, mult = trace.invariant_log[0]
    if mult != 1:
        raise PreconditionError("non-primitive")
    if sq < -1:
        raise PreconditionError("square-below-minus-one",
                                "moduli are empty for <v^2> < -1")
    if sq.denominator != 1 or sq.numerator % 2 == 0:
        raise PreconditionError("even-square", "odd rank forces odd <v^2>")
    sq = sq.numerator
    n = (sq + 1) // 2
    if n > MAX_HILBERT_ORDER:
        raise PreconditionError("hilbert-order-too-large",
                                "n = (<v^2>+1)/2 = %d exceeds %d" % (n, MAX_HILBERT_ORDER))

    sigma = m.ns.named("sigma")
    f = m.ns.named("f")
    # d1 = (c_1, f) is the sigma-coefficient of c_1, d2 = (c_1, sigma) the
    # f-coefficient; each is first shifted by r into (-r/2, r/2) (r odd)
    halves = (("reduce |d1| mod r", f, sigma), ("reduce |d2| mod r", sigma, f))

    state = v
    guard = 0
    while state.r != 1:
        guard += 1
        if guard > 500:
            raise InvariantError("enriques reduction failed to terminate")
        r = state.r.numerator
        for note, pair_cls, twist_cls in halves:
            d = state.c.dot(pair_cls)
            k = round(Fraction(-d, r))
            if k:
                state = _twist_step(trace, m, state, twist_cls.scale(k), note)
                d = state.c.dot(pair_cls)
            if d != 0:
                state = _reduce_mixed_round(trace, m, state, sq, d, pair_cls)
                break
        else:
            # c_1 lies in the E8(-1) part: the terminating chain
            state = _reduce_e8_case(trace, m, state, sq, sigma, f)

    return EnriquesReduction(trace, n, _enriques_hilb(n))


def _reduce_mixed_round(trace, m, state, sq, d, twist_cls):
    """One rank-lowering round when c_1 has a nonzero sigma/f coefficient d.

    ``twist_cls`` is the isotropic class used for the post-swap twist (f
    when d is the sigma-coefficient, sigma when it is the f-coefficient).
    The rank strictly decreases: r -> r + 2 d k in (0, 2|d|).
    """
    r = state.r.numerator
    if not (0 < 2 * abs(d) < r):
        raise InvariantError("mixed round needs 0 < 2|d| < r")
    eta = _e8_twist_grow_s(m, state, sq)
    if eta is not None:
        state = _twist_step(trace, m, state, eta, "grow s beyond <v^2>")
    state = _swap_step(trace, m, state)
    # choose k with 0 < r + 2 d k < 2|d|
    rho = r % (2 * abs(d))
    k = (rho - r) // (2 * d)
    state = _twist_step(trace, m, state, twist_cls.scale(k), "lower the rank")
    state = _swap_step(trace, m, state)
    if state.r.numerator >= r:
        raise InvariantError("mixed round did not lower the rank")
    return state


def _reduce_e8_case(trace, m, state, sq, sigma, f):
    """Terminating chain when c_1 lies in E8(-1)."""
    # make c_1 / gcd(r, c_1) primitive while pushing s above <v^2>
    xi = _e8_twist_for_content_and_s(m, state, sq)
    if xi is not None:
        state = _twist_step(trace, m, state, xi, "normalize content, grow s")
    r = state.r.numerator
    s = _s_param(state)
    l = gcd(r, state.c.content())
    if gcd(l, s) != 1:
        raise InvariantError("primitivity must force gcd(l, s) = 1")
    state = _swap_step(trace, m, state)

    # rank is now the old s (> <v^2>); make c_1 itself primitive
    xi = _e8_twist_for_content_and_s(m, state, None)
    if xi is not None:
        state = _twist_step(trace, m, state, xi, "make c1 primitive")
    if state.c.content() != 1:
        raise InvariantError("c1 should be primitive now")

    # solve 2(eta, c1) = s - 1 and twist by D = sigma - ((eta^2)/2) f + eta
    s_cur = _s_param(state)
    if (s_cur - 1) % 2:
        raise InvariantError("s parameter must be odd")
    eta8 = _solve_pairing(m.ns, (0, 0) + _e8_part(state.c), (s_cur - 1) // 2)
    eta = m.ns.cls(eta8)
    eta_sq = eta.self_intersection()
    D = sigma - f.scale(eta_sq / 2) + eta
    if D.self_intersection() != 0:
        raise InvariantError("isotropic twist class expected")
    state = _twist_step(trace, m, state, D, "drive s to 1")
    if _s_param(state) != 1:
        raise InvariantError("s = 1 expected after the isotropic twist")
    state = _swap_step(trace, m, state)
    if state.r != 1:
        raise InvariantError("E8 chain should end at rank one")
    return state


# ---------------------------------------------------------------------------
# Elliptic Euclid reduction


# Largest trace elliptic_gcd_reduce builds.  Its length is not bounded by
# the size of the input: (r, d) = (10^6, -1) needs 2 * 10^6 - 1 steps.
MAX_TRACE_STEPS = 10 ** 5


def _euclid_steps(r, d):
    """The number of steps elliptic_gcd_reduce records for coprime (r, d),
    r > 1, in O(log r): the ranks after each swap follow x' = x - (p mod x)
    from the pair (p, x), and a run of equal differences p - x < x is
    counted at once."""
    p, x = r, d % r or r
    steps = 1 + (x != d)
    while x != 1:
        delta = p % x
        # while x > delta the ranks fall by delta per swap
        run = -(-x // delta) - 1 if p < 2 * x else 1
        p, x = x - (run - 1) * delta, x - run * delta
        steps += 2 * run
    return steps


def elliptic_gcd_reduce(r, d):
    """Alternate fiber-degree twists and relative transforms on (rank,
    degree) pairs until the rank reaches 1; requires gcd(r, d) = 1.

    The rank sequence reproduces the Euclidean remainder sequence on
    (r, d) with remainders normalized into (0, rank].
    """
    r, d = int(r), int(d)
    if r < 1:
        raise PreconditionError("rank-not-positive")
    if gcd(r, d) != 1:
        raise PreconditionError("gcd-not-one")
    if r > 1 and _euclid_steps(r, d) > MAX_TRACE_STEPS:
        raise PreconditionError("trace-too-long",
                                "more than %d trace steps" % MAX_TRACE_STEPS)
    trace = MoveTrace()
    trace.invariant_log.append((None, gcd(r, abs(d))))
    trace.final = (r, d)
    state = (r, d)

    def normalize(state):
        r0, d0 = state
        k = (r0 - d0) // r0          # 0 < d0 + k r0 <= r0
        if k:
            new = (r0, d0 + k * r0)
            trace.record("twist", (("k", k),), state, new, (None, 1))
            return new
        return state

    if r == 1:
        trace.final = normalize(state)
        return trace

    while state[0] != 1:
        state = normalize(state)
        r0, d0 = state
        if r0 == d0:
            raise InvariantError("coprimality rules out r == d > 1")
        new = (d0, -r0)
        trace.record("fm_swap", (("kind", "relative-jacobian"),), state, new, (None, 1))
        state = new
    return trace


def trace_rank_sequence(trace, initial_rank):
    """Ranks before each transform step plus the final rank."""
    seq = [initial_rank]
    for step in trace.steps:
        if step.move == "fm_swap":
            seq.append(step.after[0] if isinstance(step.after, tuple) else step.after.r)
    return seq


# ---------------------------------------------------------------------------
# Filtration-stack dimensions and moduli dimensions


@record
class FiltrationDims:
    sum_form: Fraction      # sum dims + sum_{i<j} <v_i, v_j>
    deficit_form: Fraction  # sum_{i<j} <v_i, v_j> - (s - 1)


def filtration_stack_dim(vs, dims, m):
    """Both displayed forms of the filtration-stack dimension count.

    sum_form = sum(dims) + sum_{i<j} <v_i, v_j>; deficit_form is computed
    independently as <v^2>+1 - (sum(<v_i^2>+1) + sum_{i<j}<v_i,v_j>) and
    asserted equal to sum_{i<j}<v_i,v_j> - (s-1), the algebraic identity
    <v^2> = sum <v_i^2> + 2 sum_{i<j} <v_i, v_j>.
    """
    if not vs:
        raise PreconditionError("empty-list")
    if len(dims) != len(vs):
        raise PreconditionError("length-mismatch")
    s = len(vs)
    cross = Fraction(0)
    for i in range(s):
        for j in range(i + 1, s):
            cross += mukai_pair(vs[i], vs[j])
    total = vs[0]
    for w in vs[1:]:
        total = total + w
    first_display = mukai_square(total) + 1 - (
        sum((mukai_square(w) + 1 for w in vs), Fraction(0)) + cross)
    deficit = cross - (s - 1)
    if first_display != deficit:
        raise InvariantError("the two displayed dimension forms must agree")
    sum_form = sum((rat(x) for x in dims), Fraction(0)) + cross
    return FiltrationDims(sum_form, deficit)


def moduli_dim(v, m, flavor="stack"):
    """dim of the semistable locus: stack = <v^2> + 1, coarse = <v^2> + 2.

    Conventions covered: abelian and K3 surfaces (any rank > 0), Enriques
    surfaces at odd rank.  Other kind/flavor combinations are errors.
    """
    if flavor not in ("stack", "coarse"):
        raise PreconditionError("unknown-flavor", flavor)
    if m.kind not in ("abelian", "k3", "enriques"):
        raise PreconditionError("unsupported-kind", m.kind)
    if m.kind == "enriques" and (v.r.denominator != 1 or v.r.numerator % 2 == 0):
        raise PreconditionError("even-rank", "Enriques dimension needs odd rank")
    sq = mukai_square(v)
    return sq + 1 if flavor == "stack" else sq + 2


def lagrangian_fiber_dim(xi):
    """Fiber dimension over the curve linear system: (xi^2)/2 + 1."""
    return xi.self_intersection() / 2 + 1


def pss_bound(v, m):
    """(<v^2>, strict?) for the properly-semistable locus bound
    dim <= <v^2>; strict unless m(v) = 2 and <v^2> = 8."""
    if v.r <= 0:
        raise PreconditionError("rank-not-positive")
    stats = vector_stats(v, m)
    strict = not (stats.multiplicity == 2 and stats.square == 8)
    return stats.square, strict


# ---------------------------------------------------------------------------
# GIT weights and parabolic Euler characteristics


@record
class GitDims:
    """Dimension data of a subspace V' inside the GIT weight computation."""

    dimV: Fraction
    dimVp: Fraction
    dim_alpha_VW: Fraction
    dim_alpha_VpW: Fraction
    dim_alpha_i_V: tuple
    dim_V_i: tuple


@record
class GitData:
    h_m: Fraction
    h_i_m: tuple
    eps_i: tuple
    a1: Fraction
    n: Fraction


def git_weight(dims, data):
    """The GIT semistability weight

        dimV (b0 dim a(V'xW) + sum_i e_i dim a_i(V'))
      - dimV' (b0 dim a(VxW) + sum_i e_i dim a_i(V)),

    with b0 = (h(m) - sum e_i h_i(m)) / (a1(h) n) and dim a_i(V') read off
    the kernel dimensions.  Semistable means >= 0 over all V' data.
    """
    if len(data.h_i_m) != len(data.eps_i) or len(dims.dim_alpha_i_V) != len(data.eps_i) \
            or len(dims.dim_V_i) != len(data.eps_i):
        raise PreconditionError("length-mismatch")
    a1n = rat(data.a1) * rat(data.n)
    if a1n == 0:
        raise PreconditionError("division-by-zero", "a1(h) * n must be nonzero")
    eps = [rat(x) for x in data.eps_i]
    him = [rat(x) for x in data.h_i_m]
    beta0 = (rat(data.h_m) - sum(e * h for e, h in zip(eps, him))) / a1n
    dim_ai_Vp = [rat(dims.dimVp) - rat(ki) for ki in dims.dim_V_i]
    left = rat(dims.dimV) * (beta0 * rat(dims.dim_alpha_VpW)
                             + sum(e * x for e, x in zip(eps, dim_ai_Vp)))
    right = rat(dims.dimVp) * (beta0 * rat(dims.dim_alpha_VW)
                               + sum(e * rat(x) for e, x in zip(eps, dims.dim_alpha_i_V)))
    return left - right


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
    alpha1 = 1 - sum(eps, Fraction(0))
    inner = (beta0 * rat(dims.dim_alpha_VpW)
             - sum(e * rat(ki) for e, ki in zip(eps, dims.dim_V_i))
             - alpha1 * rat(dims.dimVp)
             - reduced * rat(dims.dimVp) / a1n)
    return hm * inner


def parabolic_euler(chi_F_top, chi_gr, alphas, chi_E):
    """Parabolic Euler characteristic, computed both displayed ways.

    Form 1: chi(F_{l+1}) + sum_i alpha_i chi(gr_i); form 2: chi(E) -
    sum_i eps_i chi(gr_i) with eps_i = alpha_{i+1} - alpha_i, alpha_{l+1}=1.
    The two agree on every single-step filtration (and whenever the
    trailing weights equal 1); a mismatch raises.
    """
    chis = [rat(x) for x in chi_gr]
    als = [rat(x) for x in alphas]
    chi_F_top = rat(chi_F_top)
    chi_E = rat(chi_E)
    if len(chis) != len(als):
        raise PreconditionError("length-mismatch")
    if not als:
        raise PreconditionError("empty-filtration")
    if als[0] <= 0 or any(a > b for a, b in zip(als, als[1:])) or als[-1] > 1:
        raise PreconditionError("weight-ordering", "need 0 < a_1 <= ... <= a_l <= 1")
    if chi_E != chi_F_top + sum(chis, Fraction(0)):
        raise PreconditionError("chi-additivity",
                                "chi(E) must equal chi(F_top) + sum chi(gr_i)")
    eps = [b - a for a, b in zip(als, als[1:] + [Fraction(1)])]
    form1 = chi_F_top + sum(a * c for a, c in zip(als, chis))
    form2 = chi_E - sum(e * c for e, c in zip(eps, chis))
    if form1 != form2:
        raise PreconditionError("forms-disagree",
                                "the two displayed forms differ on this filtration")
    return form1

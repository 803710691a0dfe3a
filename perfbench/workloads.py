"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload is a list of jobs, one round.  Each job's output is turned
into plain data and verified against the independent checkers in
``checkers.py``; reference answers are computed on first use, never in
set-up.  Job sizes are fixed per cost class and the seed picks the
contents, so every seed gives the same mix of costs.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction as F
from functools import cache

import mukailab as M
from mukailab import cli

import checkers as C
from checkers import require


class Job:
    """One timed call and its untimed checks.

    ``run()`` is the timed call.  ``canon(out)`` turns its output into plain
    data (numbers, strings, tuples); ``verify(canon)`` checks that data
    against the independent checkers and raises CheckFailed.
    ``known_fault`` names a fault of the program that makes this job fail
    every time; such a job is counted as failed, not as incorrect.
    """

    def __init__(self, kind, run, canon, verify, known_fault=None):
        self.kind = kind
        self.run = run
        self.canon = canon
        self.verify = verify
        self.known_fault = known_fault


def vec(v):
    return (v.r, tuple(v.c.coords), v.t)


# Enriques lattice U + E8(-1), written out from the E8 Dynkin diagram
# (nodes 1-7 in a chain, node 8 attached to node 5) for the checkers.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def enriques_gram():
    g = [[0] * 10 for _ in range(10)]
    g[0][1] = g[1][0] = 1
    for i in range(8):
        g[2 + i][2 + i] = -2
    for i, j in _E8_EDGES:
        g[2 + i][2 + j] = g[2 + j][2 + i] = 1
    return tuple(tuple(row) for row in g)


ENRIQUES_GRAM = enriques_gram()
HODGE = {
    "k3": {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1},
    "enriques": {(0, 0): 1, (1, 1): 10, (2, 2): 1},
    "abelian": {(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (0, 2): 1, (1, 1): 4,
                (2, 1): -2, (1, 2): -2, (2, 2): 1},
}


_EULER = {}


def euler_table(chi, n):
    """Reference Euler numbers for chi through at least index n, kept across jobs."""
    if len(_EULER.get(chi, ())) <= n:
        _EULER[chi] = C.euler_numbers(chi, max(n, 2 * len(_EULER.get(chi, ())), 16))
    return _EULER[chi]


def odd_prime_point(rng, box, primes=(1009, 1013, 1019)):
    """A rational point inside the box with coordinate denominators
    1009, 1013, 1019.  Wall normals here have entries far below those
    primes, so such a point can lie on no wall."""
    out = []
    for (lo, hi), p in zip(box, primes):
        while True:
            k = rng.randint(lo * p + 1, hi * p - 1)
            if k % p:
                break
        out.append(F(k, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# cli-batch


SURFACES = {
    "k3": {"kind": "k3", "gram": [[0, 1], [1, 0]], "basis": ["e", "f"], "polarization": [1, 1]},
    "abelian": {"kind": "abelian", "gram": [[0, 1], [1, 0]], "basis": ["e", "f"],
                "polarization": [1, 1]},
    "elliptic": {"kind": "elliptic-with-section", "gram": [[-1, 1], [1, 0]],
                 "basis": ["sigma", "f"], "polarization": [1, 3], "chi_O": 1,
                 "effective": [[1, 0], [0, 1]]},
    "enriques": {"kind": "enriques"},
}


def _q(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _vdoc(r, c, t):
    return {"r": _q(r), "c": [_q(x) for x in c], "t": _q(t)}


def _parse_vec(doc):
    return (F(doc["r"]), tuple(F(x) for x in doc["c"]), F(doc["t"]))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_job(kind, argv, check_ok, fmt, known_fault=None):
    """A CLI call expected to exit 0; ``kind`` names the subcommand (and
    the reduce kind), one warm-up each."""
    argv = list(argv) + ["--format", fmt]

    def verify(result):
        code, out, err = result
        require(code == 0, "%s exited %s: %s%s" % (kind, code, out, err))
        rows = [line.split("\t") for line in out.splitlines()] if fmt == "tsv" \
            else json.loads(out)
        check_ok(rows, fmt)

    return Job("cli." + kind, lambda: run_cli(argv), _same, verify, known_fault)


def _cli_refused(kind, argv, code_want, marker, known_fault=None):
    def verify(result):
        code, out, err = result
        require(code == code_want, "%s: want exit %d, got %s" % (kind, code_want, code))
        require(marker in out + err, "%s: refusal does not name %r" % (kind, marker))

    return Job("cli.refused", lambda: run_cli(argv), _same, verify, known_fault)


def _same(out):
    return out


def cli_batch(rng):
    jobs = []
    fmts = ["json", "tsv"]

    def fmt():
        fmts.reverse()
        return fmts[0]

    def job(kind, argv, check_ok, **kw):
        jobs.append(_cli_job(kind, argv, check_ok, fmt(), **kw))

    u = SURFACES["k3"]["gram"]
    # pair on K3 and on Enriques (half-integral t)
    for name, gram, rank, half in (("k3", u, 2, False), ("enriques", ENRIQUES_GRAM, 10, True)):
        v = (rng.randint(-5, 5), [rng.randint(-3, 3) for _ in range(rank)],
             F(rng.randint(-7, 7), 2 if half else 1))
        w = (rng.randint(-5, 5), [rng.randint(-3, 3) for _ in range(rank)],
             F(rng.randint(-7, 7), 2 if half else 1))
        job("pair", ["pair", "--surface", json.dumps(SURFACES[name]),
                     "--in", json.dumps({"v": _vdoc(*v), "w": _vdoc(*w)})],
            lambda rows, f, gram=gram, v=v, w=w: require(
                F(rows[0][0] if f == "tsv" else rows["pair"]) == C.mukai_pair(gram, v, w),
                "pair value"))

    # transforms with exact images: twist, rank-2 swap, Enriques reflection
    D = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
    v = (F(rng.randint(-5, 5)), (F(rng.randint(-5, 5)), F(rng.randint(-5, 5))), F(rng.randint(-5, 5)))
    twisted = cache(lambda v=v, D=D: (v[0], tuple(x + v[0] * y for x, y in zip(v[1], D)),
                                      v[2] + C.gram_pair(u, v[1], D) + v[0] * C.gram_pair(u, D, D) / 2))
    k, r, a, c = rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 5)
    swap_in = (F(r), (F(c), F(-c * k)), F(-a))
    swap_out = (F(a), (F(-c), F(c * k)), F(-r))
    rr, ss = rng.randint(-9, 9), rng.randint(-9, 9)
    cc = tuple(F(rng.randint(-3, 3)) for _ in range(10))
    refl_in = (F(rr), cc, F(ss, 2))
    swapped = lambda out=swap_out: out
    reflected = lambda out=(F(ss), cc, F(rr, 2)): out
    for name, surface, mapdoc, src, want in (
            ("abelian", "abelian", {"kind": "twist", "params": {"D": [_q(x) for x in D]}}, v, twisted),
            ("k3", "k3", {"kind": "cor_ext", "params": {"k": k}}, swap_in, swapped),
            ("enriques", "enriques", {"kind": "enriques_reflection"}, refl_in, reflected)):
        gram = ENRIQUES_GRAM if surface == "enriques" else u

        def check_transform(rows, f, src=src, want=want, gram=gram):
            if f == "tsv":
                got = (F(rows[0][0]), tuple(F(x) for x in rows[0][1:-1]), F(rows[0][-1]))
            else:
                got = _parse_vec(rows["vector"])
            require(got == want(), "transform image")
            require(C.mukai_pair(gram, got, got) == C.mukai_pair(gram, src, src),
                    "transform changed the Mukai square")

        job("transform", ["transform", "--surface", json.dumps(SURFACES[surface]),
                          "--in", json.dumps({"map": mapdoc, "vector": _vdoc(*src)})],
            check_transform)

    # walls and a chamber path on the elliptic surface, tiny boxes
    ell = SURFACES["elliptic"]
    ell_gram, H = ell["gram"], (1, 3)
    for xi in ((1, 2), (2, 1)):
        chi, b = rng.randint(-2, 2), 1
        box = ((-b, b), (-b, b))
        want = cache(lambda xi=xi, chi=chi, box=box: C.scan_walls(ell_gram, xi, chi, H, box))

        def check_walls(rows, f, want=want):
            if f == "tsv":
                got = {(tuple(int(x) for x in row[0].split(",")), int(row[1]),
                        tuple(int(x) for x in row[2].split(",")), int(row[3])) for row in rows}
                n = len(rows)
            else:
                got = {(tuple(int(x) for x in w["D"]), w["n"], tuple(w["normal"]), w["offset"])
                       for w in rows["walls"]}
                n = len(rows["walls"])
            require(got == want() and n == len(got), "walls differ from the brute-force scan")

        job("walls", ["walls", "--surface", json.dumps(ell), "--box=%d,%d;%d,%d" % (-b, b, -b, b),
                      "--in", json.dumps({"gamma": {"rank": 0, "c": list(xi), "chi": chi},
                                          "H": list(H)})],
            check_walls)
    # the heaviest CLI jobs, four chamber paths: the top seventh of the
    # round, so the 90th percentile falls among them
    for _ in range(4):
        xi, chi, box = (2, 3), rng.randint(-2, 2), ((-1, 1), (-1, 1))
        alpha, alpha2 = odd_prime_point(rng, box), odd_prime_point(rng, box)
        found = cache(lambda chi=chi: sorted(
            (normal, off, D, n) for D, n, normal, off in C.scan_walls(ell_gram, xi, chi, H, box)))

        def check_path(rows, f, found=found, alpha=alpha, alpha2=alpha2):
            walls = found()
            if f == "tsv":
                got = [(F(row[0]), int(row[1]), tuple(int(x) for x in row[2].split(",")), int(row[3]))
                       for row in rows]
            else:
                got = [(F(c["t"]), c["wall_index"], tuple(int(x) for x in c["D"]), c["n"])
                       for c in rows["crossings"]]
            for t, i, D, n in got:
                require(walls[i][2:] == (D, n), "crossing names the wrong wall")
            C.check_crossings([w[:2] for w in walls], alpha, alpha2, [(t, i) for t, i, _, _ in got])

        job("chamberpath", ["chamberpath", "--surface", json.dumps(ell), "--box=-1,1;-1,1",
                            "--in", json.dumps({"gamma": {"rank": 0, "c": list(xi), "chi": chi},
                                                "H": list(H), "alpha": [_q(x) for x in alpha],
                                                "alpha2": [_q(x) for x in alpha2]})],
            check_path)
    for _ in range(3):
        rl, rr = rng.randint(1, 3), rng.randint(2, 5)
        while True:
            c1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            ra = rng.randint(-7, 7)
            if C.content(c1) and C.content([rr, C.content(c1)]) == 1 and ra and C.content([rl, ra]) == 1:
                break
        v0 = (F(rl * rr), tuple(F(rl * x) for x in c1), F(ra))
        job("reduce.rank-one", ["reduce", "--kind", "rank-one", "--surface", json.dumps(SURFACES["abelian"]),
                       "--in", json.dumps({"l": rl, "r": rr, "c1": list(c1), "a": ra})],
            lambda rows, f, v0=v0: _check_reduce_states(rows, f, v0, u))

    # torsion-free flip parameter on K3 with NS = ZH + ZD, (D^2) = -2n
    n = rng.randint(3, 12)
    perp = {"kind": "k3", "gram": [[2, 0], [0, -2 * n]], "basis": ["h", "d"], "polarization": [1, 0]}
    ws_v, ws_sub = (2, (0, 0), 1 - 2 * n), (1, (0, 1), -n)

    def check_wallsolve(rows, f, gram=perp["gram"], v=ws_v, sub=ws_sub):
        roots = [F(x) for x in (rows[0][0].split() if f == "tsv" else rows["roots"])]
        require(len(roots) == 1, "expected exactly one flip parameter")
        t = roots[0]
        d = (0, 1)

        def reduced_chi(u):   # chi(u exp(-t d)) / rk u on a K3 (chi_O = 2)
            r, c, s = u
            cd = C.gram_pair(gram, c, d)
            return (s - t * cd + r * t * t * C.gram_pair(gram, d, d) / 2 + r) / r

        require(reduced_chi(v) == reduced_chi(sub), "root does not solve the wall equation")

    job("wallsolve", ["wallsolve", "--surface", json.dumps(perp),
                      "--in", json.dumps({"v": _vdoc(*ws_v), "v_sub": _vdoc(*ws_sub),
                                          "H": [1, 0], "dir": [0, 1]})],
        check_wallsolve)

    # wall-crossing Laurent polynomial
    def rand_poly():
        return {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-5, 5) or 1 for _ in range(3)}

    base = rand_poly()
    strata = []
    for _ in range(2):
        s = rng.randint(2, 3)
        mat = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i + 1, s):
                mat[i][j] = mat[j][i] = rng.randint(-3, 3)
        strata.append((mat, [rand_poly() for _ in range(s)]))
    pdoc = lambda p: {"terms": [[i, j, c] for (i, j), c in sorted(p.items())]}

    def check_epoly(rows, f, base=base, strata=strata):
        if f == "tsv":
            got = {(int(i), int(j)): F(c) for i, j, c in rows}
        else:
            got = {(i, j): F(c) for i, j, c in rows["terms"]}
        require(got == C.wallcross_epoly(base, strata), "wall-crossing polynomial")

    job("epoly", ["epoly", "--in", json.dumps({"base": pdoc(base), "strata": [
        {"pairings": m, "factors": [pdoc(p) for p in fs]} for m, fs in strata]})], check_epoly)

    # Hecke-transformed partition function at xi = 0
    r, order = rng.choice((1, 3)), rng.randint(2, 4)
    job("partition", ["partition", "--r", str(r), "--order", str(order)],
        lambda rows, f, r=r, order=order: _check_partition(rows, f, r, order))

    # reductions: Euclid alternation, Enriques at rank one
    while True:
        er, ed = rng.randint(2, 60), rng.randint(-60, 60)
        if C.content([er, ed]) == 1:
            break

    def check_euclid(rows, f, r=er, d=ed):
        if f == "tsv":
            steps = [(row[0], json.loads(row[1])) for row in rows]
            logged = [(row[2], row[3]) for row in rows]
        else:
            steps = [(s["move"], s["state"]) for s in rows["steps"]]
            logged = [(s["square"], s["multiplicity"]) for s in rows["steps"]]
            require(tuple(rows["final"]) == tuple(steps[-1][1]), "final state")
        C.check_euclid_steps(r, d, steps)
        require(all(x in (("-", "1"), (None, 1)) for x in logged), "logged invariants")

    job("reduce.elliptic", ["reduce", "--kind", "elliptic-jacobian", "--in", json.dumps({"r": er, "d": ed})],
        check_euclid)
    ev = small_enriques_vector(rng, ranks=(1,), spread=1, max_square=7)

    def check_enriques(rows, f, v=ev):
        _check_reduce_states(rows, f, v, ENRIQUES_GRAM, half_integral=True)
        if f == "json":
            sq = C.mukai_pair(ENRIQUES_GRAM, v, v)
            require(rows["n"] == (sq + 1) / 2, "n is not (<v^2>+1)/2")
            hodge = {(i, j): F(c) for i, j, c in rows["hodge"]["terms"]}
            require(sum(hodge.values()) == euler_table(12, rows["n"])[rows["n"]],
                    "hodge polynomial does not give chi(X^[n])")

    job("reduce.enriques", ["reduce", "--kind", "enriques", "--surface", json.dumps(SURFACES["enriques"]),
                   "--in", json.dumps({"v": _vdoc(*ev)})], check_enriques)

    # moduli dimensions
    dv = (F(rng.randint(1, 5)), (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))), F(rng.randint(-5, 5)))
    flavor = rng.choice(("stack", "coarse"))
    job("dims", ["dims", "--surface", json.dumps(SURFACES["k3"]),
                 "--in", json.dumps({"v": _vdoc(*dv), "flavor": flavor})],
        lambda rows, f, dv=dv, flavor=flavor: require(F(rows[0][1] if f == "tsv" else rows["dim"]) ==
                                C.mukai_pair(u, dv, dv) + (1 if flavor == "stack" else 2),
                                "moduli dimension"))

    # GIT weight
    lg = rng.randint(1, 3)
    data = {"h_m": rng.randint(5, 30), "h_i_m": [rng.randint(0, 4) for _ in range(lg)],
            "eps_i": ["%d/7" % rng.randint(0, 3) for _ in range(lg)],
            "a1": rng.randint(1, 5), "n": rng.randint(2, 9)}
    dims = {"dimV": rng.randint(4, 12), "dimVp": rng.randint(1, 4),
            "dim_alpha_VW": rng.randint(10, 50), "dim_alpha_VpW": rng.randint(0, 20),
            "dim_alpha_i_V": [rng.randint(0, 5) for _ in range(lg)],
            "dim_V_i": [rng.randint(0, 3) for _ in range(lg)]}
    job("gitweight", ["gitweight", "--in", json.dumps({"dims": dims, "data": data})],
        lambda rows, f, dims=dims, data=data: require(
            F(rows[0][0] if f == "tsv" else rows["weight"]) == C.git_weight(dims, data), "GIT weight"))

    # refused jobs: exit 1 names the precondition, exit 2 is a parse error
    even_r = rng.choice((2, 4, 6, 8))
    jobs.append(_cli_refused("partition", ["partition", "--r", str(even_r)], 1, "even-r"))
    g = rng.choice((2, 3, 5))
    jobs.append(_cli_refused("reduce", ["reduce", "--kind", "elliptic-jacobian", "--in",
                                        json.dumps({"r": 2 * g * 3, "d": g * rng.randint(1, 9)})],
                             1, "gcd-not-one"))
    jobs.append(_cli_refused("dims", ["dims", "--surface", json.dumps(SURFACES["enriques"]), "--in",
                                      json.dumps({"v": _vdoc(2 * rng.randint(1, 4), [0] * 10, 0)})],
                             1, "even-rank"))
    jobs.append(_cli_refused("pair", ["pair", "--surface", json.dumps(SURFACES["k3"]), "--in",
                                      '{"v": {"r": 1, "c": [0, 0], "t": %d' % rng.randint(0, 9)],
                             2, "parse error"))
    jobs.append(_cli_refused("transform", ["transform", "--surface", json.dumps(SURFACES["k3"]),
                                           "--in", json.dumps({"map": {"kind": "mirror"},
                                                               "vector": _vdoc(1, [0, 0], 0)})],
                             2, "unknown transform kind"))

    # two jobs that fail every time, with inputs that do not depend on the seed
    jobs.append(_cli_job("partition", ["partition", "--order", "3", "--in", '{"r": 3}'],
                         lambda rows, f: _check_partition(rows, f, 3, 3), "json",
                         known_fault="partition ignores r from --in (the --r default wins)"))
    jobs.append(_cli_refused("gitweight", ["gitweight", "--in", json.dumps({
        "dims": {"dimV": 6, "dimVp": 2, "dim_alpha_VW": 30, "dim_alpha_VpW": 10,
                 "dim_alpha_i_V": [3]},
        "data": {"h_m": 6, "h_i_m": [3], "eps_i": ["1/2"], "a1": 2, "n": 2}})], 2, "parse error",
        known_fault="gitweight raises KeyError on a missing field instead of exiting 2"))
    return jobs


def _check_partition(rows, f, r, order):
    if f == "tsv":
        got = {}
        for hol, xi, tag, coeff in rows:
            got[(F(hol), tuple(int(x) for x in xi.split(",")), F(tag))] = F(coeff)
    else:
        require(rows["r"] == r, "partition reports r=%s, asked for r=%s" % (rows["r"], r))
        got = {(F(t["q_exponent"]), tuple(t["xi"]), F(t["split_tag"])): F(t["coeff"])
               for t in rows["terms"]}
    want = C.hecke_terms(r, ENRIQUES_GRAM, order, [(0,) * 10], euler_table(12, r * order + 2))
    require(got == {(k[1], k[0], k[2]): c for k, c in want.items()},
            "Hecke terms differ from the coset sum")


def _check_reduce_states(rows, f, v0, gram, half_integral=False):
    """Every step keeps <v^2> (recomputed and as printed) and the
    multiplicity of v0, and the chain ends at rank one."""
    sq = C.mukai_pair(gram, v0, v0)
    r, c, t = v0
    mult = C.content(int(x) for x in (r, *c, t - r / 2 if half_integral else t))
    if f == "tsv":
        states = [_parse_vec(json.loads(row[1])) for row in rows]
        logged = [(F(row[2]), int(row[3])) for row in rows]
    else:
        states = [_parse_vec(s["state"]) for s in rows["steps"]]
        logged = [(F(s["square"]), s["multiplicity"]) for s in rows["steps"]]
        require(_parse_vec(rows["final"]) == ([v0] + states)[-1], "final state")
    require(all(x == (sq, mult) for x in logged), "logged square or multiplicity changed")
    C.check_trace([v0] + states, [gram] * (len(states) + 1), sq)




def small_enriques_vector(rng, ranks=(3, 5, 7), spread=2, max_square=15):
    """Odd-rank primitive integral Enriques vector with -1 <= <v^2> <= max_square."""
    while True:
        r = rng.choice(ranks)
        c = tuple(F(rng.randint(-spread, spread)) for _ in range(10))
        s = 2 * rng.randint(-6, 6) + 1
        v = (F(r), c, F(-s, 2))
        sq = C.mukai_pair(ENRIQUES_GRAM, v, v)
        coords = [r] + [int(x) for x in c] + [int(v[2] - F(r, 2))]
        if -1 <= sq <= max_square and C.content(coords) == 1:
            return v


# ---------------------------------------------------------------------------
# wall-chambers


ELLIPTIC_GRAM = ((-1, 1), (1, 0))
RANK3_GRAM = ((-1, 1, 0), (1, 0, 0), (0, 0, -2))
# (surface, xi, half-width of the box), one job each per round.  The
# median falls among the four rank-3 jobs and the 90th percentile among the
# three large ones (35 decompositions, about 760 walls); jobs of one shape
# differ only in chi and the sample points, so they cost the same.
WALL_SHAPES = (
    ("elliptic", (2, 3), 2), ("elliptic", (3, 2), 2), ("elliptic", (2, 4), 2),
    ("rank3", (1, 2, 1), 2), ("rank3", (1, 2, 1), 2), ("rank3", (1, 2, 1), 2),
    ("rank3", (1, 2, 1), 2),
    ("elliptic", (4, 6), 4), ("elliptic", (4, 6), 4), ("elliptic", (4, 6), 4),
)


def wall_models():
    ell = M.elliptic_model()
    r3 = M.generic_model(RANK3_GRAM, ("sigma", "f", "e"), (1, 3, 0), chi_O=1,
                         effective_generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return {"elliptic": (ell, (1, 3), ELLIPTIC_GRAM), "rank3": (r3, (1, 3, 0), RANK3_GRAM)}


def wall_chambers(rng):
    """Both surfaces have the coordinate orthant as effective cone, which
    is what the brute-force scan in the checkers enumerates."""
    models = wall_models()
    jobs = []
    for name, xi, b in WALL_SHAPES:
        m, H, gram = models[name]
        box = tuple((-b, b) for _ in xi)
        chi = rng.randint(-3, 3)
        points = [odd_prime_point(rng, box) for _ in range(3)]
        alpha, alpha2 = odd_prime_point(rng, box), odd_prime_point(rng, box)
        # the path runs across the box in the first coordinate and near the
        # middle in the others, so it meets a similar share of the walls
        # whatever the seed; the prime denominators survive the scaling
        alpha = (box[0][0] + (alpha[0] - box[0][0]) / (10 * b),) + tuple(x / 10 for x in alpha[1:])
        alpha2 = (box[0][1] - (box[0][1] - alpha2[0]) / (10 * b),) + tuple(x / 10 for x in alpha2[1:])
        kind = "walls.large" if b >= 4 else "walls.small"
        jobs.append(_wall_job(kind, m, gram, xi, chi, H, box, points, alpha, alpha2))
    return jobs


def _wall_job(kind, m, gram, xi, chi, H, box, points, alpha, alpha2):
    g = M.GammaTriple(0, m.cls(xi), chi)
    Hc = m.cls(H)
    fbox = tuple((F(lo), F(hi)) for lo, hi in box)
    pts = [m.cls(p) for p in points]
    a1, a2 = m.cls(alpha), m.cls(alpha2)
    scan = cache(lambda: C.scan_walls(gram, xi, chi, H, box))

    def run():
        walls = M.walls_dim1(g, Hc, fbox, m)
        unique = M.unique_hyperplanes(walls)
        located = [M.chamber_locate(p, walls) for p in pts]
        path = M.chamber_path(a1, a2, walls)
        return walls, unique, located, path

    def canon(out):
        walls, unique, located, path = out
        return ([(w.normal, w.offset, tuple(int(x) for x in w.D.coords), w.n) for w in walls],
                [w.hyperplane() for w in unique],
                [getattr(loc, "sign_vector", None) for loc in located],
                [(c.t, c.index, c.wall.hyperplane()) for c in path])

    def verify(c):
        walls, unique, located, path = c
        require(walls == sorted(walls), "walls are not in canonical order")
        require({(D, n, nm, off) for nm, off, D, n in walls} == scan() and
                len(walls) == len(set(walls)), "walls differ from the brute-force scan")
        planes = [w[:2] for w in walls]
        require(unique == list(dict.fromkeys(planes)), "unique_hyperplanes")
        for p, signs in zip(points, located):
            want = tuple("+" if s else "-" for s in C.sign_vector(planes, p))
            require(signs == want, "chamber_locate")
        require(all(planes[i] == plane for _, i, plane in path), "crossing names the wrong wall")
        C.check_crossings(planes, alpha, alpha2, [(t, i) for t, i, _ in path])

    return Job(kind, run, canon, verify)


# ---------------------------------------------------------------------------
# series-hecke


def series_hecke(rng):
    """Seven tiny jobs (e(GL(N)), multiplicities), eight medium ones of
    13-22 ms (Euler numbers, Hodge series, eta) so that the median falls
    among the Euler numbers, and five heavy Hecke jobs for the 90th
    percentile.  Hecke boxes free four pairwise orthogonal E8 axes, on
    which Q(xi^2) = 2 * sum x_i^2 whichever axes the seed picks, so every
    seed gives the same term counts and costs."""
    lat = M.enriques_lattice()
    enr = M.enriques_model()
    jobs = []
    for N in rng.sample(range(4, 10), 4):
        jobs.append(Job("series.e_gl", lambda N=N: M.e_gl(N), lambda p: dict(p.terms),
                        lambda got, N=N: require(got == C.e_gl_terms(N), "e_gl")))
    for a in (1, 3, 3):
        # <w^2> <= 1 keeps every Hilbert-scheme level needed at n <= 5
        w = small_enriques_vector(rng, ranks=(1, 3), spread=1, max_square=1)
        v = (w[0] * a, tuple(x * a for x in w[1]), w[2] * a)
        mv = enr.vector(*v)
        jobs.append(Job("partition.multiplicity_chi", lambda mv=mv: M.multiplicity_chi(mv, enr),
                        _same, lambda got, v=v: require(got == C.multiplicity_chi(
                            v, ENRIQUES_GRAM, True, lambda n: euler_table(12, n)[n]),
                            "multiplicity_chi")))
    for _ in range(4):
        chi, n = rng.choice((12, 24)), 40
        jobs.append(Job("series.euler_hilb", lambda chi=chi, n=n: M.euler_hilb(chi, n), list,
                        lambda got, chi=chi, n=n: require(got == euler_table(chi, n)[:n + 1],
                                                          "euler_hilb")))
    hodge_polys = {k: M.LaurentPoly(h) for k, h in HODGE.items()}
    for name, n in (("k3", 4), ("enriques", 6), ("abelian", 3)):
        jobs.append(Job("series.hilb_series", lambda h=hodge_polys[name], n=n: M.hilb_series(h, n),
                        lambda out: [dict(p.terms) for p in out],
                        lambda polys, name=name: C.check_hilb_series(polys, HODGE[name])))
    jobs.append(Job("series.eta_inv12", lambda: M.eta_inv12(40),
                    lambda eta: (eta.denom, dict(eta.coeffs), eta.order),
                    lambda c: _check_eta(c, 40)))
    for r, order in ((3, 7), (5, 5), (5, 5), (7, 4)):
        jobs.append(_hecke_job(lat, r, order, _enriques_box(rng)))
    jobs.append(_evidence_job(lat, _enriques_box(rng), 6))
    return jobs


def _orthogonal_e8_axes():
    nodes = range(8)
    return [s for s in itertools.combinations(nodes, 4)
            if not any((i, j) in _E8_EDGES or (j, i) in _E8_EDGES
                       for i, j in itertools.combinations(s, 2))]


def _enriques_box(rng):
    """[-1, 1] on four pairwise orthogonal E8 coordinates, 0 elsewhere."""
    axes = {2 + i for i in rng.choice(_orthogonal_e8_axes())}
    return tuple((-1, 1) if i in axes else (0, 0) for i in range(10))


def _check_eta(c, order):
    denom, coeffs, top = c
    euler = euler_table(12, order)
    require(denom == 2 and top == F(2 * order - 1, 2), "eta^-12 truncation")
    require(coeffs == {2 * n - 1: euler[n] for n in range(order + 1)},
            "eta^-12 coefficients are not chi(X^[n]) for chi = 12")


def _terms_map(terms):
    return {(t.xi, t.hol_scalar, t.pos_coef, t.neg_coef, t.x_scale, t.phase): t.coeff for t in terms}


def _hecke_job(lat, r, order, box):
    def canon(terms):
        return _terms_map(terms), len(M.hecke_cosets(r))

    def verify(c):
        got, cosets = c
        require(cosets == C.coset_count(r) == C.sigma1(r), "coset count is not sigma_1(r)")
        require(got == C.hecke_terms(r, ENRIQUES_GRAM, order, C.box_vectors(box),
                                     euler_table(12, r * order + 2)),
                "hecke_zr differs from the coset sum")

    return Job("partition.hecke_zr", lambda: M.hecke_zr(r, lat, order, box), canon, verify)


def _evidence_job(lat, box, n_max):
    """Order-3 evidence identity: the d-blocks of the Hecke transform of Z^1,
    halved, equal the Mukai-vector side for d = 1 and d = 3."""
    def run():
        z1 = M.partition_z1(lat, n_max, box)
        out = []
        for d in (1, 3):
            a = 3 // d
            lhs = M.merge_terms([M.PartitionTerm(t.xi, t.coeff / 2, t.hol_scalar, t.pos_coef,
                                                 t.neg_coef, t.x_scale, t.phase)
                                 for t in M.hecke_block_sum(z1, a, d, lat)])
            out.append((lhs, M.rank_side_terms(d, a, lat, n_max, box)))
        return out

    def canon(out):
        return [(_terms_map(lhs), _terms_map(rhs), len(lhs), len(rhs)) for lhs, rhs in out]

    def verify(c):
        for (lhs, rhs, nl, nr), d in zip(c, (1, 3)):
            want = C.rank_side_terms(d, 3 // d, ENRIQUES_GRAM, n_max, C.box_vectors(box),
                                     euler_table(12, n_max))
            require(rhs == want and nr == len(want), "rank_side_terms differs from its formula")
            require(lhs == rhs and nl == nr and lhs, "order-3 evidence identity fails at d=%d" % d)

    return Job("partition.evidence", run, canon, verify)


# ---------------------------------------------------------------------------
# reduce-isometry


def reduce_isometry(rng):
    """Six tiny Euclid sweeps and ten rank-one reductions of about 2 ms are
    over half the round, so the median falls among the rank-one
    reductions; the seven isometry checks, one
    per CohMap kind with samples chosen to cost about the same, are the top
    quarter so the 90th percentile falls among them.  Enriques vectors keep
    <v^2> <= 15, so n <= 8 and the warm-up fills the Hilbert-series cache
    that every later Enriques reduction reads."""
    enr = M.enriques_model()
    ab, k3 = M.abelian_model(), M.k3_model()
    jobs = []
    for m in (ab, k3) * 5:
        jobs.append(_rank_one_job(rng, m))
    for _ in range(6):
        pairs = []
        while len(pairs) < 12:
            r, d = rng.randint(1, 200), rng.randint(-200, 200)
            if C.content([r, d]) == 1:
                pairs.append((r, d))
        jobs.append(_euclid_job(pairs))
    for _ in range(6):
        jobs.append(_enriques_job(enr, small_enriques_vector(rng)))
    for name, cmap, domain, samples in isometry_maps(rng):
        jobs.append(_isometry_job(name, cmap, domain, rng.randrange(10 ** 9), samples))
    return jobs


def _enriques_job(enr, v):
    mv = enr.vector(*v)

    def canon(red):
        return ([vec(s.after) for s in red.trace.steps], vec(red.trace.final), red.n,
                dict(red.hodge.terms))

    def verify(c):
        states, final, n, hodge = c
        sq = C.mukai_pair(ENRIQUES_GRAM, v, v)
        require(final == ([v] + states)[-1], "final state")
        C.check_trace([v] + states, [ENRIQUES_GRAM] * (len(states) + 1), sq)
        require(n == (sq + 1) / 2, "n is not (<v^2>+1)/2")
        require(sum(hodge.values()) == euler_table(12, n)[n], "e(X^[n]) at x=y=1")
        require(all(hodge.get((j, i)) == c for (i, j), c in hodge.items()), "Hodge symmetry")

    return Job("reductions.enriques", lambda: M.enriques_reduce(mv, enr), canon, verify)


def _rank_one_job(rng, m):
    l, r = rng.randint(1, 5), rng.randint(2, 7)
    while True:
        c = (rng.randint(-6, 6), rng.randint(-6, 6))
        a = rng.randint(-9, 9)
        if C.content(c) and C.content([r, C.content(c)]) == 1 and a and C.content([l, a]) == 1:
            break
    c1 = m.cls(c)
    v0 = (F(l * r), tuple(F(l * x) for x in c), F(a))

    def canon(trace):
        return [(vec(s.after), s.after.c.lattice.gram) for s in trace.steps]

    def verify(steps):
        states = [v0] + [s for s, _ in steps]
        grams = [m.ns.gram] + [g for _, g in steps]
        C.check_trace(states, grams, C.mukai_pair(m.ns.gram, v0, v0))

    return Job("reductions.rank_one", lambda: M.reduce_to_rank_one(l, r, c1, a, m), canon, verify)


def _euclid_job(pairs):
    def canon(traces):
        return [([(s.move, s.after) for s in tr.steps], tr.final) for tr in traces]

    def verify(c):
        require(len(c) == len(pairs), "one trace per pair")
        for (r, d), (steps, final) in zip(pairs, c):
            require(C.check_euclid_steps(r, d, steps) == final, "final state")

    return Job("reductions.euclid", lambda: [M.elliptic_gcd_reduce(r, d) for r, d in pairs],
               canon, verify)


def isometry_maps(rng):
    """Every CohMap kind with a generator of seeded domain vectors and a
    sample count that makes each check_isometry call cost about the same."""
    ab, enr = M.abelian_model(), M.enriques_model()
    ek3 = M.k3_model(gram=((-2, 1, 0), (1, 0, 0), (0, 0, -2)), names=("sigma", "f", "d0"),
                     polarization=(1, 3, 0))
    k3e = M.k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
    q = lambda: F(rng.randint(-6, 6), rng.randint(1, 4))

    def any_vector(m):
        return lambda: m.vector(q(), [q() for _ in range(m.ns.rank)], q())

    # relative kernel data with d^2 + d k + r chi_E0 - r^2 = 1
    rk, dk, kk = 3, 2, 3
    chi_e0 = (1 - dk * dk - dk * kk + rk * rk) // rk
    params = M.EllipticRelativeParams(r=rk, chi_O_sigma=1, chi_F0_f=rng.randint(0, 9))
    # E0, E0|f and the point class in (r, c, t) with t = chi - 2r on K3
    e0 = k3e.vector(rk, (-dk, kk), chi_e0 - rk)
    e0f = k3e.vector(0, (0, rk), -dk)
    pt = k3e.vector(0, (0, 0), 1)
    return [
        ("identity", M.identity_map(ab), any_vector(ab), 200),
        ("twist", M.twist_map(ab, ab.cls((q(), q()))), any_vector(ab), 70),
        ("enriques_reflection", M.enriques_reflection_map(enr), any_vector(enr), 16),
        ("isotropic_fm", M.cor_ext_map(ab, rng.randint(1, 6)), any_vector(ab), 28),
        ("elliptic_jacobian", M.elliptic_jacobian_map(ek3),
         lambda: ek3.vector(q(), (0, q(), q()), q()), 35),
        ("elliptic_relative", M.elliptic_relative_map(k3e, params, dk, kk, chi_e0),
         lambda: e0.scale(q()) + e0f.scale(q()) + pt.scale(q()), 35),
        ("composite", M.compose([M.twist_map(ab, ab.cls((rng.randint(-3, 3), 1))),
                                 M.cor_ext_map(ab, rng.randint(1, 6))]), any_vector(ab), 22),
    ]


def _isometry_job(name, cmap, domain, seed, samples):
    vectors = [domain() for _ in range(8)]
    src = [vec(v) for v in vectors]
    src_gram, dst_gram = cmap.source.ns.gram, cmap.target.ns.gram

    def run():
        ok = M.check_isometry(cmap, samples, random.Random(seed))
        return ok, [cmap.apply(v) for v in vectors]

    def canon(out):
        ok, images = out
        return ok, [vec(w) for w in images]

    def verify(c):
        ok, dst = c
        require(ok is True, "check_isometry rejected %s" % name)
        for i in range(len(src)):
            for j in range(i, len(src)):
                require(C.mukai_pair(dst_gram, dst[i], dst[j]) == C.mukai_pair(src_gram, src[i], src[j]),
                        "%s does not preserve the Mukai pairing" % name)

    return Job("transforms.%s" % name, run, canon, verify)


WORKLOADS = {
    "cli-batch": cli_batch,
    "wall-chambers": wall_chambers,
    "series-hecke": series_hecke,
    "reduce-isometry": reduce_isometry,
}

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import mukailab
from mukailab import (GammaTriple, LatticeMismatchError, MukaiVector, NSClass,
                      NSLattice, PreconditionError, SurfaceModel, Wall, chi_of, dual, elliptic_model, enriques_lattice,
                      gamma_of, hyperbolic_lattice, k3_model,
                      mukai_pair, mukai_square, twist,
                      vector_of_gamma, vector_stats)
from mukailab.lattice import _bezout, _kernel, random_mukai_vector

from helpers import (exp_class, former_kernel, fraction_pair, mukai_mul, random_ns_class,
                     solve_in_span)


def pair_oracle(v, w):
    # direct expansion of the pairing, independent of mukai_pair
    gram = v.c.lattice.gram
    inter = sum(v.c.coords[i] * gram[i][j] * w.c.coords[j]
                for i in range(len(gram)) for j in range(len(gram)))
    return inter - v.r * w.t - v.t * w.r


def test_pair_omega_unit(k3_u):
    assert mukai_pair(k3_u.omega(), k3_u.unit()) == -1


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_rank_one_square(k3_u, n):
    v = k3_u.vector(1, (0, 0), 1 - n)
    assert mukai_square(v) == pair_oracle(v, v) == 2 * n - 2


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_rank_two_square(k3_u, n):
    v = k3_u.vector(2, (0, 0), 1 - 2 * n)
    assert mukai_square(v) == pair_oracle(v, v) == 8 * n - 4


def test_pair_lattice_mismatch(k3_u, enriques):
    with pytest.raises(LatticeMismatchError):
        mukai_pair(k3_u.unit(), enriques.unit())


def test_pair_symmetric_bilinear(k3_u, rng):
    for _ in range(1000):
        v = random_mukai_vector(k3_u, rng)
        w = random_mukai_vector(k3_u, rng)
        u = random_mukai_vector(k3_u, rng)
        a = F(rng.randint(-5, 5), rng.randint(1, 3))
        assert mukai_pair(v, w) == mukai_pair(w, v) == pair_oracle(v, w)
        assert mukai_pair(v + w.scale(a), u) == mukai_pair(v, u) + a * mukai_pair(w, u)


def test_mul_unit_and_omega(k3_u):
    v = k3_u.vector(3, (1, -2), F(5, 2))
    assert mukai_mul(k3_u.unit(), v) == v
    assert mukai_mul(k3_u.omega(), k3_u.omega()) == k3_u.zero_vector()


def test_mul_exp_square(k3_u):
    D = k3_u.cls((2, 3))
    v = k3_u.vector(1, D, 0)
    assert mukai_mul(v, v) == k3_u.vector(1, D.scale(2), D.self_intersection())


def test_mul_ring_laws(k3_u, rng):
    for _ in range(300):
        u, v, w = (random_mukai_vector(k3_u, rng) for _ in range(3))
        assert mukai_mul(u, v) == mukai_mul(v, u)
        assert mukai_mul(mukai_mul(u, v), w) == mukai_mul(u, mukai_mul(v, w))
        assert mukai_mul(k3_u.unit(), u) == u


def test_exp_class_basic(k3_u):
    assert exp_class(k3_u.ns.zero()) == k3_u.unit()
    D = k3_u.cls((1, 2))
    assert mukai_mul(exp_class(D), exp_class(-D)) == k3_u.unit()


def test_exp_class_riemann_roch(k3_u):
    # chi(O(D)) = (D^2)/2 + 2 on a K3 surface
    D = k3_u.cls((1, 3))
    v = twist(k3_u.structure_sheaf_vector(), D)
    assert v == k3_u.vector(1, D, 1 + D.self_intersection() / 2)
    assert chi_of(v, k3_u) == D.self_intersection() / 2 + 2


def test_exp_class_homomorphism(k3_u, rng):
    for _ in range(300):
        D1 = random_ns_class(k3_u.ns, rng)
        D2 = random_ns_class(k3_u.ns, rng)
        assert mukai_mul(exp_class(D1), exp_class(D2)) == exp_class(D1 + D2)


def test_twist_is_the_product_with_exp_class(k3_u, enriques, rng):
    # the algebraic definition of twist, against its one integer kernel
    for m in (k3_u, enriques):
        for _ in range(200):
            v = random_mukai_vector(m, rng)
            D = random_ns_class(m.ns, rng)
            assert twist(v, D) == mukai_mul(v, exp_class(D))


def test_dual_involution_and_isometry(k3_u, rng):
    assert dual(k3_u.unit()) == k3_u.unit()
    for _ in range(500):
        v = random_mukai_vector(k3_u, rng)
        w = random_mukai_vector(k3_u, rng)
        assert dual(dual(v)) == v
        assert mukai_pair(dual(v), dual(w)) == mukai_pair(v, w)
        # ring anti-involution fixing degree 0 and 4
        assert dual(mukai_mul(v, w)) == mukai_mul(dual(v), dual(w))
        assert dual(v).r == v.r and dual(v).t == v.t


def test_twist_isometry(k3_u, rng):
    for _ in range(500):
        v = random_mukai_vector(k3_u, rng)
        w = random_mukai_vector(k3_u, rng)
        D = random_ns_class(k3_u.ns, rng)
        assert mukai_pair(twist(v, D), twist(w, D)) == mukai_pair(v, w)


def test_vector_stats_examples(abelian_u, k3_u):
    st = vector_stats(abelian_u.vector(2, (0, 0), -4), abelian_u)
    assert st.multiplicity == 2
    assert st.primitive_part == abelian_u.vector(1, (0, 0), -2)
    assert vector_stats(k3_u.vector(1, (0, 0), -4), k3_u).multiplicity == 1
    with pytest.raises(PreconditionError):
        vector_stats(k3_u.zero_vector(), k3_u)


def test_vector_stats_square_scaling(k3_u, rng):
    for _ in range(400):
        v = k3_u.vector(rng.randint(-6, 6), (rng.randint(-6, 6), rng.randint(-6, 6)),
                        rng.randint(-6, 6))
        if v.is_zero():
            continue
        st = vector_stats(v, k3_u)
        assert mukai_square(v) == st.multiplicity ** 2 * mukai_square(st.primitive_part)


def test_multiplicity_invariant_under_integral_twist(k3_u, rng):
    # the lattice is even, so integral twists keep the vector integral
    for _ in range(300):
        v = k3_u.vector(rng.randint(-5, 5), (rng.randint(-5, 5), rng.randint(-5, 5)),
                        rng.randint(-5, 5))
        if v.is_zero():
            continue
        D = k3_u.cls((rng.randint(-4, 4), rng.randint(-4, 4)))
        assert vector_stats(twist(v, D), k3_u).multiplicity == \
            vector_stats(v, k3_u).multiplicity


def test_enriques_parity_multiplicity(enriques):
    # integral lattice is (r, c, 2t) with 2t = r mod 2
    c0 = [0] * 10
    v = enriques.vector(2, c0, 1)          # (r, c, t - r/2) = (2, 0, 0): m = 2
    assert vector_stats(v, enriques).multiplicity == 2
    v = enriques.vector(2, c0, 2)          # (2, 0, 1): m = 1 despite gcd(2,0,4) = 2
    assert vector_stats(v, enriques).multiplicity == 1
    bad = enriques.vector(1, c0, 1)        # 2t = 2 != 1 mod 2: not integral
    with pytest.raises(PreconditionError):
        vector_stats(bad, enriques)


def test_chi_of_conventions(k3_u, abelian_u, enriques):
    assert chi_of(k3_u.structure_sheaf_vector(), k3_u) == 2
    assert chi_of(enriques.structure_sheaf_vector(), enriques) == 1
    v = abelian_u.vector(3, (1, 2), F(7, 3))
    assert chi_of(v, abelian_u) == v.t


def test_gamma_of_examples(k3_u):
    ek3 = k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
    g = gamma_of(ek3.vector(0, (1, 0), 1), ek3)
    assert (g.rank, g.c.coords, g.chi) == (0, (F(1), F(0)), 1)
    v = k3_u.vector(1, (0, 0), -3)
    assert gamma_of(v, k3_u).chi == -2
    for vec in (v, k3_u.vector(2, (1, 1), F(1, 2))):
        assert vector_of_gamma(gamma_of(vec, k3_u), k3_u) == vec


# --- integer core against the Fraction oracle ------------------------------


RANK3 = NSLattice(((-1, 1, 0), (1, 0, 2), (0, 2, -2)), ("s", "f", "e"))


@pytest.mark.parametrize("lat", [hyperbolic_lattice(), elliptic_model().ns, RANK3,
                                 enriques_lattice()], ids=["U", "elliptic", "rank3", "enriques"])
def test_dot_and_pair_coords_match_fraction_gram_sum(lat, rng):
    for _ in range(300):
        a = random_ns_class(lat, rng)
        b = random_ns_class(lat, rng)
        want = fraction_pair(lat.gram, a.coords, b.coords)
        assert a.dot(b) == b.dot(a) == want
        assert lat.pair_coords(a.coords, b.coords) == want
        ints = [rng.randint(-9, 9) for _ in range(lat.rank)]
        mixed = [x if i % 2 else F(x, 3) for i, x in enumerate(ints)]
        assert lat.pair_coords(ints, mixed) == fraction_pair(lat.gram, ints, mixed)
        k = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert (a + b.scale(k)).coords == tuple(x + k * y for x, y in zip(a.coords, b.coords))
        assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))


def test_class_canonical_form(k3_u):
    lat = k3_u.ns
    half = lat.cls((F(1, 2), 1))
    same = lat.cls((F(2, 4), 1))
    assert half == same and hash(half) == hash(same)
    assert (half.num, half.den) == ((1, 2), 2)
    assert half.coords == (F(1, 2), F(1))
    assert (half + half) == lat.cls((1, 2)) and (half + half).den == 1
    zero = half - same
    assert zero == lat.zero() and zero.num == (0, 0) and zero.den == 1
    assert half.scale(0) == lat.zero() and half.scale(0).den == 1
    assert half.scale(F(4, 3)) == lat.cls((F(2, 3), F(4, 3)))
    assert -half == lat.cls((F(-1, 2), -1)) and (-half).den == 2
    assert -(-half) == half and (-lat.zero()).den == 1
    assert hash(lat.cls((3, 0))) == hash(lat.cls((F(6, 2), 0)))
    with pytest.raises(AttributeError):
        half.num = (0, 0)
    assert pickle.loads(pickle.dumps(half)) == half


def test_vector_integer_canonical_form(k3_u, enriques):
    lat = k3_u.ns
    v = k3_u.vector(F(1, 2), (F(1, 3), 1), F(5, 6))
    assert (v.num, v.den) == ((3, 2, 6, 5), 6)
    assert (v.r, v.c, v.t) == (F(1, 2), lat.cls((F(1, 3), 1)), F(5, 6))
    # built from Fraction triples in any presentation: equal and hashing alike
    same = MukaiVector(F(3, 6), lat.cls((F(2, 6), F(4, 4))), "5/6")
    assert same == v and hash(same) == hash(v)
    assert v.scale(6) == k3_u.vector(3, (2, 6), 5) and v.scale(6).den == 1
    zero = v - same
    assert zero.is_zero() and (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert v.scale(0) == k3_u.zero_vector() and v.scale(0).den == 1
    assert (-v).den == 6 and -(-v) == v and v + (-v) == k3_u.zero_vector()
    assert v != GammaTriple(v.r, v.c, v.t) and v != (v.r, v.c, v.t)
    assert {v: 1}[same] == 1
    # the half-integral omega coefficient of v(O) on an Enriques surface
    o = enriques.structure_sheaf_vector()
    assert (o.num[0], o.num[-1], o.den) == (2, 1, 2) and not any(o.num[1:-1])
    assert repr(v) == "MukaiVector(r=%r, c=%r, t=%r)" % (v.r, v.c, v.t)


@pytest.mark.parametrize("bad", [True, 1.5])
def test_constructors_refuse_bools_and_floats(k3_u, bad):
    lat, zero = k3_u.ns, k3_u.ns.zero()
    for build in (lambda: NSClass(lat, (bad, 0)), lambda: lat.cls((0, bad)),
                  lambda: k3_u.vector(bad, (0, 0), 0), lambda: k3_u.vector(1, (bad, 0), 0),
                  lambda: k3_u.vector(1, (0, 0), bad), lambda: MukaiVector(bad, zero, 0),
                  lambda: MukaiVector(0, zero, bad), lambda: GammaTriple(bad, zero, 0)):
        with pytest.raises(PreconditionError, match="not-a-rational"):
            build()


def test_int_fraction_and_string_coordinates_agree(k3_u):
    lat = k3_u.ns
    for values in ((3, F(3), "3"), (-4, F(-8, 2), "-4"), (0, F(0), "0/5"),
                   (10 ** 30, F(10 ** 30), str(10 ** 30))):
        built = [(lat.cls((x, 1)), NSClass(lat, (1, x)), k3_u.vector(x, (x, 2), x),
                  MukaiVector(1, lat.cls((0, x)), x), GammaTriple(x, lat.zero(), 1))
                 for x in values]
        for objects in zip(*built):
            first = objects[0]
            assert all(o == first and o.num == first.num and o.den == first.den
                       and all(type(n) is int for n in o.num) for o in objects)


def test_vector_immutable_and_pickles(k3_u):
    v = k3_u.vector(F(1, 2), (F(1, 3), 1), F(5, 6))
    g = GammaTriple(2, k3_u.cls((1, F(1, 2))), F(7, 3))
    for x in (v, g):
        with pytest.raises(AttributeError):
            x.num = (0,) * 4
        with pytest.raises(AttributeError):
            x.den = 1
        with pytest.raises(AttributeError):
            del x.num
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x) and type(back) is type(x)
    with pytest.raises(AttributeError):
        v.r = 1
    assert (g.rank, g.chi) == (2, F(7, 3)) and g.c == k3_u.cls((1, F(1, 2)))


def test_import_footprint_stays_small():
    # dataclasses pulls in inspect, ast and dis (about 1 MB resident);
    # argparse is loaded only when cli.main builds its parser, random and
    # importlib.resources only by --selftest.  -S leaves out site, whose
    # .pth hooks may import these for other packages; the path is then set
    # by hand to where this mukailab lives.
    src = str(Path(mukailab.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import mukailab, mukailab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'random', "
            "'importlib.resources'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_records_compare_hash_refuse_assignment_and_replace(k3_u):
    from mukailab.lattice import replace
    w = Wall((3, -1), -7, k3_u.cls((0, 2)), -3)
    assert w == Wall((3, -1), -7, k3_u.cls((0, 2)), -3) and hash(w) == hash(copy.copy(w))
    assert w != Wall((3, -1), -6, k3_u.cls((0, 2)), -3) and w != (3, -1)
    assert repr(w).startswith("Wall(normal=(3, -1), offset=-7, D=NSClass(")
    with pytest.raises(AttributeError):
        w.n = 0
    m = replace(k3_u, polarization=k3_u.cls((1, 2)))
    assert m.polarization == k3_u.cls((1, 2)) and m.ns is k3_u.ns and m != k3_u
    with pytest.raises(PreconditionError):
        replace(k3_u, kind="surface")
    assert pickle.loads(pickle.dumps(m)) == m


def test_class_lattice_checks(k3_u, enriques):
    with pytest.raises(LatticeMismatchError):
        k3_u.ns.zero() + enriques.ns.zero()
    with pytest.raises(PreconditionError):
        k3_u.ns.cls((1, 2, 3))
    assert k3_u.ns.zero() != hyperbolic_lattice(("a", "b")).zero()


# --- the integer cone solver against the Fraction elimination -------------


def _model_with_gens(lat, gens):
    # (1, 1, 0, ...) has positive square on every lattice used below
    return SurfaceModel("generic", lat, 0, lat.cls((1, 1) + (0,) * (lat.rank - 2)),
                        effective_generators=[lat.cls(g) for g in gens])


def _random_gens(lat, k, rng):
    """k random rational generators, independent by construction: on the
    coordinates ``cols`` they form a triangular block with nonzero diagonal."""
    n = lat.rank
    cols = rng.sample(range(n), k)
    gens = []
    for i, c in enumerate(cols):
        g = [F(0)] * n
        g[c] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for j in cols[:i]:
            g[j] = F(rng.randint(-4, 4), rng.randint(1, 3))
        for j in range(n):
            if j not in cols:
                g[j] = F(rng.randint(-4, 4), rng.randint(1, 3))
        gens.append(tuple(g))
    return gens


CONE_LATTICES = [elliptic_model().ns, RANK3, enriques_lattice()]


@pytest.mark.parametrize("lat", CONE_LATTICES, ids=["rank2", "rank3", "enriques"])
def test_effective_matches_fraction_solver(lat, rng):
    seen = {"inside": 0, "outside": 0, "span": 0}
    for trial in range(40):
        k = rng.randint(1, lat.rank)
        gens = _random_gens(lat, k, rng)
        if trial % 4 == 0:
            # integral but not unimodular: every nonzero entry even
            gens = [tuple(F(2 * rng.randint(1, 3)) if x else F(0) for x in g) for g in gens]
        m = _model_with_gens(lat, gens)
        for _ in range(25):
            if rng.random() < 0.5:
                # a combination of the generators, so classes in the span occur
                lam = [F(rng.randint(-3, 5), rng.randint(1, 4)) for _ in gens]
                D = lat.cls([sum(l * g[i] for l, g in zip(lam, gens)) for i in range(lat.rank)])
            else:
                D = random_ns_class(lat, rng)
            coeffs = solve_in_span(m.effective_generators, D)
            want = coeffs is not None and all(x >= 0 for x in coeffs)
            assert m.effective(D) == want
            seen["span" if coeffs is not None else "outside"] += 1
            seen["inside"] += want
    assert all(seen.values())


@pytest.mark.parametrize("gens", [
    [(1, 0), (2, 0)],                       # dependent
    [(1, 0), (0, 1), (1, 1)],               # more generators than the rank
    [(0, 0)],                               # a zero generator
    [(1, 0), (0, 0)],
    [(F(1, 2), F(1, 3)), (F(3, 2), 1)],    # rational and proportional
])
def test_dependent_generators_refused(gens):
    lat = elliptic_model().ns
    with pytest.raises(PreconditionError, match="dependent-generators"):
        _model_with_gens(lat, gens)


@pytest.mark.parametrize("lat", [RANK3, enriques_lattice()], ids=["rank3", "enriques"])
def test_dependent_generators_refused_high_rank(lat, rng):
    gens = _random_gens(lat, lat.rank - 1, rng)
    combo = tuple(a + 2 * b for a, b in zip(gens[0], gens[-1]))
    for bad in (gens + [combo], gens + [(0,) * lat.rank],
                gens + _random_gens(lat, 2, rng)):
        with pytest.raises(PreconditionError, match="dependent-generators"):
            _model_with_gens(lat, bad)


# --- the two elimination helpers: _kernel and _bezout ------------------------


def _rational_rank(rows, n):
    """Rank of integer rows by Gaussian elimination in Fractions."""
    rows = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def test_kernel_is_a_null_space_basis_and_matches_the_former_loop(rng):
    for _ in range(600):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        if rows and rng.random() < 0.3:
            rows.append([2 * x - 3 * y for x, y in zip(rows[0], rows[-1])])
        basis = _kernel(rows, n)
        assert len(basis) == n - _rational_rank(rows, n)
        for j, b in basis.items():
            assert all(sum(x * y for x, y in zip(row, b)) == 0 for row in rows)
            # one free column each: the vectors are independent
            assert b[j] > 0 and all(b[k] == 0 for k in basis if k != j)
        assert list(basis.values()) == former_kernel(rows, n)


def test_bezout_writes_the_gcd_as_a_combination(rng):
    sizes = (lambda: rng.randint(-60, 60), lambda: rng.randint(-10 ** 12, 10 ** 12), lambda: 0)
    for _ in range(3000):
        w = [rng.choice(sizes)() for _ in range(rng.randint(0, 10))]
        g, x = _bezout(w)
        assert len(x) == len(w)
        assert sum(a * b for a, b in zip(x, w)) == g == gcd(*w)
    assert _bezout([]) == (0, []) and _bezout([0, 0]) == (0, [0, 0])
    assert _bezout([0, -4, 6]) == (2, [0, 1, 1])

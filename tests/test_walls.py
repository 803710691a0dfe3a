import random
import time
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from mukailab import walls as walls_mod
from mukailab import (Chamber, GammaTriple, LatticeMismatchError, OnWall,
                      PreconditionError, TwistData, chamber_locate, chamber_path,
                      chi_of, effective_decompositions, generic_model, rat,
                      slope_dim1, twist, twisted_invariants, unique_hyperplanes,
                      wall_solve_tf, walls_dim1)
from mukailab.lattice import _common_denominator, random_mukai_vector

from helpers import (brute_force_walls, fraction_box_extremes, fraction_chamber_path,
                     k3_with_perp, quadratic_unique_hyperplanes, rank3_model)


BOX = ((F(-2), F(2)), (F(-2), F(2)))


def gamma_fixture(el):
    return GammaTriple(0, el.cls((1, 2)), 1), el.cls((1, 3))


# --- twisted invariants ----------------------------------------------------


def test_twisted_invariants_untwisted(k3_u, rng):
    td = TwistData(H=k3_u.polarization, G=k3_u.structure_sheaf_vector())
    for _ in range(100):
        v = random_mukai_vector(k3_u, rng)
        rk, deg, chi = twisted_invariants(v, td, k3_u)
        assert rk == v.r
        assert deg == v.c.dot(k3_u.polarization)
        assert chi == chi_of(v, k3_u)


def test_twisted_degree_zero_example(abelian_u):
    k = 2
    H = abelian_u.cls((1, k))
    G = abelian_u.vector(1, (0, 0), 0)
    v = abelian_u.vector(3, (2, -2 * k), -1)    # c = 2D, (D, H) = 0
    _, deg, _ = twisted_invariants(v, TwistData(H=H, G=G), abelian_u)
    assert deg == 0


def test_twisted_invariants_scaling(k3_u, rng):
    H = k3_u.polarization
    for _ in range(200):
        G = random_mukai_vector(k3_u, rng)
        if G.r <= 0:
            continue
        v = random_mukai_vector(k3_u, rng)
        rk1, deg1, chi1 = twisted_invariants(v, TwistData(H=H, G=G), k3_u)
        t = F(rng.randint(1, 7), rng.randint(1, 5))
        rk2, deg2, chi2 = twisted_invariants(v, TwistData(H=H, G=G.scale(t)), k3_u)
        if rk1 != 0:
            assert deg1 / rk1 == deg2 / rk2
            assert chi1 / rk1 == chi2 / rk2


def test_twisted_invariants_alpha_vs_G(k3_u, rng):
    # the beta-reduction: G and alpha = c_1(G)/rk G give proportional data
    H = k3_u.polarization
    for _ in range(100):
        G = random_mukai_vector(k3_u, rng)
        if G.r == 0:
            continue
        alpha = G.c.scale(1 / G.r)
        v = random_mukai_vector(k3_u, rng)
        rkG, degG, chiG = twisted_invariants(v, TwistData(H=H, G=G), k3_u)
        rkA, degA, chiA = twisted_invariants(v, TwistData(H=H, alpha=alpha), k3_u)
        assert (degG, chiG) == (G.r * degA, G.r * chiA) and rkG == G.r * rkA


def test_twist_data_validation(k3_u):
    with pytest.raises(PreconditionError):
        TwistData(H=k3_u.polarization)
    with pytest.raises(PreconditionError):
        TwistData(H=k3_u.polarization, G=k3_u.omega())


# --- slopes ----------------------------------------------------------------


def test_slope_examples(elliptic):
    g, H = gamma_fixture(elliptic)
    assert slope_dim1(g, elliptic.ns.zero(), H) == F(1, 4)
    assert slope_dim1(g, elliptic.ns.named("f"), H) == 0


def test_slope_affine_in_alpha(elliptic, rng):
    g, H = gamma_fixture(elliptic)
    for _ in range(200):
        a1 = elliptic.cls((F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3)))
        a2 = elliptic.cls((F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3)))
        s = F(rng.randint(0, 10), 10)
        mid = a1.scale(1 - s) + a2.scale(s)
        assert slope_dim1(g, mid, H) == \
            (1 - s) * slope_dim1(g, a1, H) + s * slope_dim1(g, a2, H)


def test_slope_rejects_nonpositive_degree(elliptic):
    g = GammaTriple(0, elliptic.cls((0, -1)), 1)
    with pytest.raises(PreconditionError):
        slope_dim1(g, elliptic.ns.zero(), elliptic.cls((1, 3)))


# --- wall enumeration ------------------------------------------------------


def test_walls_elliptic_example(elliptic):
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    # the D = f, n = 0 wall is 3u - w + 1 = 0
    assert any(w.D.coords == (0, 1) and w.n == 0 and
               w.normal == (3, -1) and w.offset == -1 for w in walls)


def test_walls_match_brute_force(elliptic):
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    got = {(tuple(int(x) for x in w.D.coords), w.n, w.normal, w.offset) for w in walls}
    assert got == brute_force_walls(g, H, BOX, elliptic)


def test_walls_empty_for_primitive_fiber(elliptic):
    g = GammaTriple(0, elliptic.cls((0, 1)), 1)
    assert walls_dim1(g, elliptic.cls((1, 3)), BOX, elliptic) == []


@pytest.mark.parametrize("xi,box", [((1, 2), BOX), ((4, 6), ((F(-3), F(3)), (F(-3), F(3))))])
def test_unique_hyperplanes_matches_linear_scan(elliptic, xi, box):
    walls = walls_dim1(GammaTriple(0, elliptic.cls(xi), 1), elliptic.cls((1, 3)), box, elliptic)
    for order in (walls, walls[::-1]):
        got = unique_hyperplanes(order)
        assert got == quadratic_unique_hyperplanes(order)
        assert len(got) < len(order)


def test_walls_box_refinement(elliptic):
    g, H = gamma_fixture(elliptic)
    big = walls_dim1(g, H, BOX, elliptic)
    small = walls_dim1(g, H, ((F(-1), F(1)), (F(-1), F(1))), elliptic)
    assert set(w.hyperplane() for w in small) <= set(w.hyperplane() for w in big)
    assert set((w.D.coords, w.n) for w in small) <= set((w.D.coords, w.n) for w in big)


def test_wall_membership_is_slope_equality(elliptic):
    # a point on the wall (D, n) equalizes the two reduced slopes
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    w = next(x for x in walls if x.D.coords == (0, 1) and x.n == 0)
    # solve 3u - w + 1 = 0 at u = 1/3, w = 2
    alpha = elliptic.cls((F(1, 3), 2))
    assert w.value(alpha) == 0
    sub = GammaTriple(0, w.D, w.n)
    assert slope_dim1(g, alpha, H) == slope_dim1(sub, alpha, H)


# --- chambers --------------------------------------------------------------


def test_chamber_locate(elliptic):
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    on = chamber_locate(elliptic.cls((F(1, 3), 2)), walls)
    assert isinstance(on, OnWall) and on.indices
    ch = chamber_locate(elliptic.cls((F(1, 100), F(1, 200))), walls)
    assert isinstance(ch, Chamber)
    # no wall in this configuration passes through the origin
    assert all(w.offset != 0 for w in walls)
    assert isinstance(chamber_locate(elliptic.ns.zero(), walls), Chamber)


def test_same_chamber_same_signs(elliptic, rng):
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    found = 0
    while found < 50:
        a = elliptic.cls((F(rng.randint(-20, 20), 10), F(rng.randint(-20, 20), 10)))
        b = a + elliptic.cls((F(1, 1000), F(1, 1700)))
        ca, cb = chamber_locate(a, walls), chamber_locate(b, walls)
        if not isinstance(ca, Chamber) or not isinstance(cb, Chamber):
            continue
        if ca.sign_vector != cb.sign_vector:
            continue
        found += 1
        # reduced-slope order of gamma against any wall datum is constant
        for w in walls[:6]:
            sub = GammaTriple(0, w.D, w.n)
            da = slope_dim1(g, a, H) - slope_dim1(sub, a, H)
            db = slope_dim1(g, b, H) - slope_dim1(sub, b, H)
            assert (da > 0) == (db > 0) and (da < 0) == (db < 0)


def test_chamber_path(elliptic):
    g, H = gamma_fixture(elliptic)
    walls = walls_dim1(g, H, BOX, elliptic)
    a = elliptic.cls((F(-1, 2), F(1, 3)))
    assert chamber_path(a, a + elliptic.ns.zero(), walls) == []
    b = elliptic.cls((F(1, 2), F(1, 3)))
    crossings = chamber_path(a, b, walls)
    assert crossings and all(0 < c.t < 1 for c in crossings)
    assert [c.t for c in crossings] == sorted(c.t for c in crossings)
    back = chamber_path(b, a, walls)
    assert [1 - c.t for c in reversed(back)] == [c.t for c in crossings]
    on_wall = elliptic.cls((F(1, 3), 2))
    with pytest.raises(PreconditionError):
        chamber_path(on_wall, b, walls)


def test_chamber_path_single_crossing(elliptic):
    g, H = gamma_fixture(elliptic)
    walls = [w for w in walls_dim1(g, H, BOX, elliptic)
             if w.D.coords == (0, 1) and w.n == 0]
    a = elliptic.cls((0, 2))       # 3*0 - 2 + 1 = -1 < 0
    b = elliptic.cls((1, 2))       # 3 - 2 + 1 = 2 > 0
    crossings = chamber_path(a, b, walls)
    assert len(crossings) == 1 and crossings[0].t == F(1, 3)


# --- integer chamber queries against the Fraction oracles -------------------


def _models(elliptic):
    return {"elliptic": elliptic, "rank3": rank3_model()}


def _random_walls(m, rng):
    rank = m.ns.rank
    g = GammaTriple(0, m.cls([rng.randint(1, 3) for _ in range(rank)]),
                    F(rng.randint(-6, 6), rng.choice((1, 2))))
    return walls_dim1(g, m.cls((1, 3) + (0,) * (rank - 2)), ((-2, 2),) * rank, m)


def _random_point(m, rng):
    return m.cls([F(rng.randint(-40, 40), rng.choice((1, 7, 11, 13, 20)))
                  for _ in range(m.ns.rank)])


def _on_wall(w, rng):
    """A point of w's hyperplane, solved for its last nonzero normal entry."""
    j = max(i for i, x in enumerate(w.normal) if x)
    c = [F(rng.randint(-9, 9), rng.choice((1, 3))) for _ in w.normal]
    c[j] = 0
    c[j] = (w.offset - sum(x * y for x, y in zip(w.normal, c))) / w.normal[j]
    return w.D.lattice.cls(c)


def _assert_same_path(a, b, walls):
    try:
        want = fraction_chamber_path(a, b, walls)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as raised:
            chamber_path(a, b, walls)
        assert str(raised.value) == str(exc)
        return None
    got = chamber_path(a, b, walls)
    assert got == want
    assert all(type(c.t) is F and c.wall is d.wall for c, d in zip(got, want))
    return got


@pytest.mark.parametrize("name", ["elliptic", "rank3"])
def test_chamber_queries_match_fraction_oracles(elliptic, name):
    m = _models(elliptic)[name]
    rng = random.Random(2026 + len(name))
    paths = ties = 0
    for _ in range(15):
        walls = _random_walls(m, rng)
        points = [_random_point(m, rng) for _ in range(5)] + \
            [_on_wall(w, rng) for w in rng.sample(walls, min(2, len(walls)))]
        for a in points:
            values = [sum(F(x) * y for x, y in zip(w.normal, a.coords)) - w.offset for w in walls]
            if 0 in values:
                want = OnWall(tuple(i for i, v in enumerate(values) if v == 0))
            else:
                want = Chamber(tuple("+" if v > 0 else "-" for v in values), a)
            assert chamber_locate(a, walls) == want
        for a in points:
            for b in points:
                got = _assert_same_path(a, b, walls)
                if got:
                    paths += 1
                    ties += len(got) - len({c.t for c in got})
    # the same hyperplane from two D gives crossings at one time
    assert paths > 200 and ties > 0


def test_chamber_path_through_a_meeting_point():
    # on a rank-2 NS every wall is parallel to H-perp, so two walls meet only
    # in rank 3; the segment P - d -> P + d crosses walls through P at t = 1/2
    m = rank3_model()
    rng = random.Random(7)
    walls = walls_dim1(GammaTriple(0, m.cls((2, 2, 2)), 1), m.cls((1, 3, 0)),
                       ((-2, 2),) * 3, m)
    d = m.cls((F(1, 97), F(1, 89), F(1, 83)))
    checked = 0
    for _ in range(60):
        i, j = sorted(rng.sample(range(len(walls)), 2))
        (a0, a, b), (c0, c, e) = walls[i].normal, walls[j].normal
        det = a * e - b * c
        if det == 0:
            continue
        # P = (1/5, y, z) on both walls
        u, v = walls[i].offset - F(a0, 5), walls[j].offset - F(c0, 5)
        P = m.cls((F(1, 5), (u * e - b * v) / det, (a * v - u * c) / det))
        got = _assert_same_path(P - d, P + d, walls)
        if got is not None:
            at_half = [x.index for x in got if x.t == F(1, 2)]
            assert i in at_half and j in at_half and at_half == sorted(at_half)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("name", ["elliptic", "rank3"])
def test_chamber_path_endpoints(elliptic, name):
    m = _models(elliptic)[name]
    rng = random.Random(31)
    walls = _random_walls(m, rng)
    a = next(p for p in iter(lambda: _random_point(m, rng), None)
             if isinstance(chamber_locate(p, walls), Chamber))
    on = _on_wall(walls[0], rng)
    assert chamber_path(a, a, walls) == [] == fraction_chamber_path(a, a, walls)
    for start, end, which in ((on, a, "start"), (a, on, "end"), (on, on, "start")):
        for path in (chamber_path, fraction_chamber_path):
            with pytest.raises(PreconditionError, match="endpoint-on-wall: %s point" % which):
                path(start, end, walls)


def test_chamber_queries_refuse_another_lattice(elliptic):
    walls = walls_dim1(GammaTriple(0, elliptic.cls((2, 3)), 1), elliptic.cls((1, 3)), BOX,
                       elliptic)
    a = elliptic.cls((F(1, 7), F(1, 11)))
    other = rank3_model().cls((F(1, 7), F(1, 11), F(1, 13)))
    for call in (lambda: chamber_locate(other, walls), lambda: chamber_path(other, a, walls),
                 lambda: chamber_path(a, other, walls), lambda: walls[0].value(other)):
        with pytest.raises(LatticeMismatchError):
            call()
    # with no walls there is nothing to compare a lone point against
    assert chamber_locate(other, []) == Chamber((), other)
    assert chamber_path(other, other, []) == []
    with pytest.raises(LatticeMismatchError):
        chamber_path(a, other, [])


def test_box_extremes_match_fraction_sums():
    rng = random.Random(5)
    for _ in range(300):
        rank = rng.randint(1, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(rank)]
        box = []
        for _ in range(rank):
            lo, hi = sorted(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
            box.append(rng.choice(((lo, hi), (str(lo), str(hi)), (lo.numerator, hi))))
        ends, den = _common_denominator([rat(x) for pair in box for x in pair])
        lo, hi = walls_mod._box_extremes(coeffs, ends)
        assert (F(lo, den), F(hi, den)) == fraction_box_extremes(coeffs, box)


@pytest.mark.parametrize("box", [
    ((F(-3, 2), F(5, 3)), (F(-7, 4), F(2))),
    (("-3/2", "5/3"), ("-7/4", "2")),
    ((F(-1, 3), F(1, 2)), ("-5/6", F(7, 5))),
    ((F(1, 3), F(1, 3)), (F(-9, 4), "13/6")),
])
@pytest.mark.parametrize("xi,chi", [((1, 2), 1), ((2, 3), -2), ((4, 6), 3)])
def test_walls_on_rational_boxes_match_brute_force(elliptic, box, xi, chi):
    g, H = GammaTriple(0, elliptic.cls(xi), chi), elliptic.cls((1, 3))
    walls = walls_dim1(g, H, box, elliptic)
    got = {(tuple(int(x) for x in w.D.coords), w.n, w.normal, w.offset) for w in walls}
    assert len(got) == len(walls)
    assert got == brute_force_walls(g, H, tuple((rat(a), rat(b)) for a, b in box), elliptic)


@pytest.mark.parametrize("name", ["elliptic", "rank3"])
def test_walls_invariant_under_scaling_H(elliptic, name):
    # the wall equation is homogeneous of degree 1 in H
    m = _models(elliptic)[name]
    rng = random.Random(17)
    for _ in range(10):
        rank = m.ns.rank
        g = GammaTriple(0, m.cls([rng.randint(1, 3) for _ in range(rank)]),
                        F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        H = m.cls((1, 3) + (0,) * (rank - 2))
        box = (("-3/2", "5/3"),) + ((F(-7, 4), 2),) * (rank - 1)
        walls = walls_dim1(g, H, box, m)
        assert walls
        for k in (F(1, 6), F(7, 4), 5):
            assert walls_dim1(g, H.scale(k), box, m) == walls


# --- flip parameter --------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_wall_solve_quarter_n(n):
    m = k3_with_perp(n)
    v = m.vector(2, (0, 0), 1 - 2 * n)
    v_sub = m.vector(1, (0, 1), -n)
    res = wall_solve_tf(v, v_sub, m.polarization, m.cls((0, 1)), m)
    assert res.roots == (F(1, 4 * n),)


def test_wall_solve_proportional_no_wall():
    m = k3_with_perp(3)
    v = m.vector(2, (0, 2), -4)
    res = wall_solve_tf(v, v.scale(F(1, 2)), m.polarization, m.cls((0, 1)), m)
    assert res.no_wall


def test_wall_solve_orthogonal_direction_no_wall():
    m = k3_with_perp(3)
    # equal chi/r and (dir, c-difference) = 0: identically equal
    v = m.vector(2, (0, 0), 2)
    v_sub = m.vector(1, (0, 0), 1)
    res = wall_solve_tf(v, v_sub, m.polarization, m.cls((1, 0)), m)
    assert res.no_wall


def test_wall_solve_scaling_invariance(rng):
    m = k3_with_perp(4)
    v = m.vector(2, (0, 0), -7)
    v_sub = m.vector(1, (0, 1), -4)
    d = m.cls((0, 1))
    base = wall_solve_tf(v, v_sub, m.polarization, d, m)
    scaled = wall_solve_tf(v.scale(3), v_sub.scale(2), m.polarization, d, m)
    assert base.roots == scaled.roots


def test_wall_solve_slope_mismatch():
    m = k3_with_perp(3)
    v = m.vector(2, (1, 0), 0)
    v_sub = m.vector(1, (0, 1), 0)
    with pytest.raises(PreconditionError):
        wall_solve_tf(v, v_sub, m.polarization, m.cls((0, 1)), m)


def _reduced_chi(u, d, m, t):
    """chi(u exp(-t d)) / r_u, computed through the twist itself."""
    return chi_of(twist(u, d.scale(-t)), m) / u.r


@pytest.mark.parametrize("n", (1, 3, 4))
def test_wall_solve_roots_equalize_reduced_chi(n):
    rng = random.Random(20260 + n)
    m = k3_with_perp(n)
    H = m.polarization
    roots = identical = 0
    for _ in range(150):
        r_v, r_sub = rng.randint(1, 4), rng.randint(1, 4)
        # equal slopes: (c, H) = 2 c_0, so c_0 / r must agree
        h = F(rng.randint(-3, 3), rng.randint(1, 3))
        v = m.vector(r_v, (h * r_v, F(rng.randint(-4, 4), rng.randint(1, 2))),
                     F(rng.randint(-9, 9), rng.randint(1, 2)))
        if rng.random() < 0.2:
            v_sub = v.scale(F(r_sub, r_v))
        else:
            v_sub = m.vector(r_sub, (h * r_sub, rng.randint(-4, 4)),
                             F(rng.randint(-9, 9), rng.randint(1, 2)))
        d = m.cls((rng.randint(-2, 2), rng.randint(-2, 2)))
        res = wall_solve_tf(v, v_sub, H, d, m)
        assert len(res.roots) <= 1
        for t in res.roots:
            assert _reduced_chi(v_sub, d, m, t) == _reduced_chi(v, d, m, t)
            roots += 1
        if res.identical:
            identical += 1
            for t in (F(0), F(1), F(-5, 3)):
                assert _reduced_chi(v_sub, d, m, t) == _reduced_chi(v, d, m, t)
        elif not res.roots:
            assert _reduced_chi(v_sub, d, m, 0) != _reduced_chi(v, d, m, 0)
            assert _reduced_chi(v_sub, d, m, 1) - _reduced_chi(v, d, m, 1) == \
                _reduced_chi(v_sub, d, m, 0) - _reduced_chi(v, d, m, 0)
    assert roots and identical


# --- effective decompositions and the work guard ---------------------------


def test_effective_decompositions_match_cone_tests():
    m = generic_model(((-1, 1, 0), (1, 0, 2), (0, 2, -2)), ("s", "f", "e"), (1, 1, 0),
                      effective_generators=((1, 0, 0), (1, 1, 0), (0, F(1, 2), 1)))
    rng = random.Random(4)
    for _ in range(20):
        xi = m.cls([rng.randint(0, 4) for _ in range(3)])
        got = effective_decompositions(m, xi)
        want = [m.cls(p) for p in product(range(-2, 9), repeat=3)
                if m.effective(m.cls(p)) and m.effective(xi - m.cls(p))
                and m.cls(p) not in (m.ns.zero(), xi)]
        assert got == want


def test_walls_work_guard(elliptic, monkeypatch):
    g, H = gamma_fixture(elliptic)
    with pytest.raises(PreconditionError, match="walls-too-large"):
        effective_decompositions(elliptic, elliptic.cls((10 ** 5, 10 ** 5)))
    with pytest.raises(PreconditionError, match="walls-too-large"):
        walls_dim1(g, H, ((-10 ** 9, 10 ** 9), (-2, 2)), elliptic)
    # the limit itself is allowed: 5 x 5 box points, or every wall of BOX
    monkeypatch.setattr(walls_mod, "MAX_WALL_WORK", 25)
    assert len(effective_decompositions(elliptic, elliptic.cls((4, 4)))) == 23
    with pytest.raises(PreconditionError, match="walls-too-large"):
        effective_decompositions(elliptic, elliptic.cls((4, 5)))
    n_walls = len(walls_dim1(g, H, BOX, elliptic))
    monkeypatch.setattr(walls_mod, "MAX_WALL_WORK", n_walls)
    assert len(walls_dim1(g, H, BOX, elliptic)) == n_walls
    monkeypatch.setattr(walls_mod, "MAX_WALL_WORK", n_walls - 1)
    with pytest.raises(PreconditionError, match="walls-too-large"):
        walls_dim1(g, H, BOX, elliptic)


def test_oversized_wall_list_is_refused_before_any_wall_is_built(elliptic):
    # every decomposition's n range is summed first: this call, with over
    # 10^6 walls in the box, once built ~10^6 of them in ~1.6 s before refusing
    g = GammaTriple(0, elliptic.cls((20, 30)), 1)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="walls-too-large"):
        walls_dim1(g, elliptic.cls((1, 3)), ((-66, 66), (-66, 66)), elliptic)
    assert time.perf_counter() - start < 0.2

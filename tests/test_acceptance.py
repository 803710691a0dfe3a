"""Acceptance criteria, one test per criterion.

Every check is exact rational arithmetic (tolerance zero); the stated
runtime budgets are asserted.  Each criterion prints a PASS/FAIL line.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd

import mukailab as M
from mukailab.lattice import random_mukai_vector
from mukailab.series import LaurentPoly as LP

from helpers import (brute_force_walls, consistent_relative_map, elliptic_k3,
                     euclid_sequence, git_weight_factored, k3_with_perp,
                     random_enriques_vector, synthetic_git_data, xy_degree)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %02d %s: FAIL" % (number, name))
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print("criterion %02d %s: FAIL (%.2fs over %.0fs budget)"
              % (number, name, elapsed, budget))
        raise AssertionError("budget exceeded: %.2fs" % elapsed)
    print("criterion %02d %s: PASS (%.2fs)" % (number, name, elapsed))


def test_01_isometry_suite():
    rng = random.Random(101)
    with criterion(1, "isometry-suite", budget=5.0):
        ab = M.abelian_model()
        enr = M.enriques_model()
        ek3 = elliptic_k3(extra_rank=1)
        maps = {
            "twist": M.twist_map(ab, ab.cls((F(3, 2), -2))),
            "enriques_reflection": M.enriques_reflection_map(enr),
            "isotropic_fm": M.cor_ext_map(ab, 2),
            "elliptic_jacobian": M.elliptic_jacobian_map(ek3),
            "elliptic_relative": consistent_relative_map()[1],
            "composite": M.compose([M.twist_map(ab, ab.cls((1, 0))),
                                    M.cor_ext_map(ab, 3)]),
        }
        for kind, cmap in maps.items():
            assert M.check_isometry(cmap, 1000, rng), kind


def test_02_enriques_reflection():
    rng = random.Random(102)
    with criterion(2, "enriques-reflection"):
        enr = M.enriques_model()
        reflect = M.enriques_reflection_map(enr).apply
        for _ in range(1000):
            x = random_mukai_vector(enr, rng, span=6, denom=4)
            assert reflect(reflect(x)) == x
        for _ in range(100):
            r, s = rng.randint(-20, 20), rng.randint(-20, 20)
            c = enr.cls([rng.randint(-5, 5) for _ in range(10)])
            y = reflect(enr.vector(r, c, F(s, 2)))
            assert y == enr.vector(s, c, F(r, 2))


def test_03_flip_parameter_quarter_n():
    with criterion(3, "flip-parameter-quarter-n"):
        for n in range(3, 11):
            m = k3_with_perp(n)
            res = M.wall_solve_tf(m.vector(2, (0, 0), 1 - 2 * n),
                                  m.vector(1, (0, 1), -n),
                                  m.polarization, m.cls((0, 1)), m)
            assert res.roots == (F(1, 4 * n),)


def test_04_rank2_transform_square_preservation():
    rng = random.Random(104)
    with criterion(4, "rank2-transform-square"):
        ab = M.abelian_model()
        for _ in range(200):
            r, a = rng.randint(1, 12), rng.randint(1, 12)
            c, k = rng.randint(0, 9), rng.randint(1, 7)
            cmap = M.cor_ext_map(ab, k)
            D = ab.cls((1, -k))
            v = ab.vector(r, D.scale(c).coords, -a)
            img = cmap.apply(v)
            assert img == ab.vector(a, (-D.scale(c)).coords, -r)
            assert M.mukai_square(img) == 2 * r * a - 2 * k * c * c
            assert M.mukai_square(v) == M.mukai_square(img)


def test_05_wall_enumeration_oracle():
    with criterion(5, "wall-enumeration-oracle", budget=1.0):
        el = M.elliptic_model()
        g = M.GammaTriple(0, el.cls((1, 2)), 1)
        H = el.cls((1, 3))
        box = ((F(-2), F(2)), (F(-2), F(2)))
        walls = M.walls_dim1(g, H, box, el)
        got = {(tuple(int(x) for x in w.D.coords), w.n, w.normal, w.offset)
               for w in walls}
        assert got == brute_force_walls(g, H, box, el)
        assert any(w.D.coords == (0, 1) and w.n == 0 and
                   w.normal == (3, -1) and w.offset == -1 for w in walls)


def test_06_eta_hilbert_cross_check():
    with criterion(6, "eta-hilbert-cross-check"):
        n_max = 20
        eta = M.eta_inv12(n_max)
        hs = M.hilb_series(LP.constant(12), n_max)
        # independent oracle: direct prefix-sum expansion of the product
        direct = [1] + [0] * n_max
        for _ in range(12):
            for m in range(1, n_max + 1):
                for n in range(m, n_max + 1):
                    direct[n] += direct[n - m]
        assert direct[:4] == [1, 12, 90, 520]
        for n in range(n_max + 1):
            value = eta.coefficient(F(2 * n - 1, 2))
            assert value == hs[n].eval_ones() == direct[n]


def test_07_coset_counting():
    with criterion(7, "coset-counting"):
        assert M.hecke_cosets(3) == [(3, 0, 1), (1, 0, 3), (1, 1, 3), (1, 2, 3)]
        for r in range(1, 100, 2):
            sigma1 = sum(d for d in range(1, r + 1) if r % d == 0)
            assert len(M.hecke_cosets(r)) == sigma1


def test_08_hecke_evidence_identity():
    with criterion(8, "hecke-evidence-identity", budget=30.0):
        lat = M.enriques_lattice()
        box = ((-1, 1), (-1, 1), (-1, 1), (-1, 1)) + tuple((0, 0) for _ in range(6))
        assert len(M.lattice_box_vectors(lat, box)) == 81 <= 500
        n_max = 6
        z1 = M.partition_z1(lat, n_max, box)
        for d in (1, 3):
            a = 3 // d
            lhs = M.merge_terms([
                M.PartitionTerm(t.xi, t.coeff / 2, t.hol_scalar, t.pos_coef,
                                t.neg_coef, t.x_scale, t.phase)
                for t in M.hecke_block_sum(z1, a, d, lat)])
            rhs = M.rank_side_terms(d, a, lat, n_max, box)
            assert lhs == rhs and lhs


def test_09_wallcross_round_trip():
    rng = random.Random(109)
    with criterion(9, "wallcross-round-trip"):
        for _ in range(100):
            def rand_poly():
                return LP({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                           for _ in range(4)})
            base = rand_poly()
            sides = ([], [])
            for _ in range(rng.randint(1, 4)):
                s = rng.randint(2, 4)
                matrix = [[0] * s for _ in range(s)]
                for i in range(s):
                    for j in range(i + 1, s):
                        matrix[i][j] = matrix[j][i] = rng.randint(-4, 4)
                sides[rng.randint(0, 1)].append((matrix, [rand_poly() for _ in range(s)]))
            strata_c, strata_cp = sides
            e_wall = M.wallcross_epoly(base, strata_c)
            e_cp = e_wall - M.wallcross_epoly(LP.zero(), strata_cp)
            assert M.wallcross_epoly(e_cp, strata_cp) == e_wall


def test_10_reduction_invariants():
    rng = random.Random(110)
    with criterion(10, "reduction-invariants", budget=10.0):
        ab = M.abelian_model()
        for _ in range(200):
            r = rng.randint(1, 7)
            while True:
                c = ab.cls((rng.randint(-6, 6), rng.randint(-6, 6)))
                if c.content() and gcd(r, c.content()) == 1:
                    break
            l = rng.randint(1, 5)
            while True:
                a = rng.randint(-9, 9)
                if a and gcd(l, a) == 1:
                    break
            tr = M.reduce_to_rank_one(l, r, c, a, ab)
            assert tr.final.r == 1
            assert len(set(tr.invariant_log)) == 1

        enr = M.enriques_model()
        for _ in range(200):
            v = random_enriques_vector(enr, rng)
            red = M.enriques_reduce(v, enr)
            sq = M.mukai_square(v)
            assert red.trace.final.r == 1
            assert red.n == (sq + 1) / 2
            assert set(red.trace.invariant_log) == {(sq, 1)}

        for r in range(1, 201):
            for d in range(-200, 201):
                if gcd(r, d) != 1:
                    continue
                tr = M.elliptic_gcd_reduce(r, d)
                assert M.trace_rank_sequence(tr, r) == euclid_sequence(r, d)


def test_11_filtration_dimension_identities():
    rng = random.Random(111)
    with criterion(11, "filtration-dimension-identities"):
        m = M.k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"),
                       polarization=(1, 3))
        for _ in range(100):
            rs = [rng.randint(1, 7) for _ in range(rng.randint(1, 5))]
            vs = [m.vector(0, (ri, 0), rng.randint(-5, 5)) for ri in rs]
            out = M.filtration_stack_dim(vs, [-ri * ri for ri in rs], m)
            assert out.sum_form == -sum(rs) ** 2
            vs = [m.vector(0, (0, ri), rng.randint(-5, 5)) for ri in rs]
            out = M.filtration_stack_dim(vs, list(rs), m)
            assert out.sum_form == sum(rs)
        k3 = M.k3_model()
        for _ in range(1000):
            vs = [random_mukai_vector(k3, rng, span=4, denom=2)
                  for _ in range(rng.randint(1, 4))]
            dims = [M.mukai_square(v) + 1 for v in vs]
            out = M.filtration_stack_dim(vs, dims, k3)   # raises on mismatch
            total = vs[0]
            for v in vs[1:]:
                total = total + v
            assert out.sum_form + out.deficit_form == M.mukai_square(total) + 1


def test_12_appendix_arithmetic():
    rng = random.Random(112)
    with criterion(12, "appendix-arithmetic"):
        for _ in range(100):
            data = synthetic_git_data(rng)
            dimV = data.h_m
            avw = data.a1 * data.n + data.h_m
            aiv = tuple(data.h_i_m)
            same = M.GitDims(dimV, dimV, avw, avw, aiv,
                             tuple(dimV - x for x in aiv))
            zero = M.GitDims(dimV, 0, avw, 0, aiv, tuple(0 for _ in aiv))
            assert M.git_weight(same, data) == 0
            assert M.git_weight(zero, data) == 0
            dims = M.GitDims(dimV, rng.randint(1, dimV), avw, rng.randint(0, 50),
                             aiv, tuple(rng.randint(0, 5) for _ in aiv))
            assert M.git_weight(dims, data) == git_weight_factored(dims, data)
        for _ in range(100):
            chi_top = F(rng.randint(-9, 9), rng.randint(1, 3))
            chi_gr = F(rng.randint(-9, 9), rng.randint(1, 3))
            alpha = F(rng.randint(1, 12), 12)
            # the two displayed forms are computed and compared inside
            val = M.parabolic_euler(chi_top, [chi_gr], [alpha], chi_top + chi_gr)
            assert val == chi_top + alpha * chi_gr


def test_13_e_gl_degree_law():
    with criterion(13, "e-gl-degree-law"):
        assert M.e_gl(1) == LP({(1, 1): 1, (0, 0): -1})
        for N in range(1, 9):
            assert xy_degree(M.e_gl(N)) == N * N

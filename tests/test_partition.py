import random
from fractions import Fraction as F

import pytest

from mukailab import (PartitionTerm, PreconditionError, e_gl, enriques_lattice,
                      euler_hilb, hecke_block_sum, hecke_coset_transform,
                      hecke_zr, lattice_box_vectors, merge_terms,
                      multiplicity_chi, partition_z1, q_form, rank_side_terms)
from mukailab.partition import MAX_PARTITION_WORK

from helpers import (composed_hecke_zr, composed_z1, fraction_hecke_block_sum,
                     fraction_hecke_coset_transform, fraction_merge_terms, product_e_gl)

LAT = enriques_lattice()
BOX0 = tuple((0, 0) for _ in range(10))


def small_box():
    # 36 vectors: sigma, f coefficients in [-1, 1], first two E8 coordinates in {0, 1}
    return ((-1, 1), (-1, 1), (0, 1), (0, 1)) + tuple((0, 0) for _ in range(6))


def test_q_form_signature():
    # Q = -(intersection form): positive on the E8 part, hyperbolic part mixed
    e1 = (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert q_form(LAT, e1) == 2
    sig_plus_f = (1, 1) + (0,) * 8
    assert q_form(LAT, sig_plus_f) == -2


def test_lattice_box_count():
    assert len(lattice_box_vectors(LAT, small_box())) == 36
    assert lattice_box_vectors(LAT, BOX0) == [(0,) * 10]


def test_z1_terms_structure():
    terms = partition_z1(LAT, 2, BOX0)
    assert [t.hol_scalar for t in terms] == [F(-1, 2), F(1, 2), F(3, 2)]
    assert [t.coeff for t in terms] == [2, 24, 180]   # 2 * chi(X^[n])


def test_hecke_coset_phase_tracking():
    terms = partition_z1(LAT, 3, BOX0)
    moved = hecke_coset_transform(terms, (1, 1, 3), LAT)
    for before, after in zip(terms, moved):
        assert after.hol_scalar == before.hol_scalar / 3
        assert after.pos_coef == before.pos_coef / 3
        # phase = (2b/d) * exponent = (2/3)(n - 1/2) mod 1
        units = 2 * before.hol_scalar           # 2n - 1 at xi = 0
        assert after.phase == F(units.numerator, 3) % 1


def test_hecke_block_divisibility_filter():
    # sum over b keeps exactly the terms with d | 2n - 1 + Q(xi^2), with a
    # factor d^2 (one d from the filter, one from the measure)
    terms = partition_z1(LAT, 7, BOX0)
    block = hecke_block_sum(terms, 1, 3, LAT)
    kept = {t.hol_scalar: t.coeff for t in block}
    euler = euler_hilb(12, 7)
    expect = {}
    for n in range(8):
        if (2 * n - 1) % 3 == 0:
            expect[F(2 * n - 1, 6)] = 9 * 2 * euler[n]
    assert kept == expect


def test_hecke_block_equals_explicit_b_sum():
    # the filter agrees with literally summing the b-cosets as exact roots
    # of unity: group transformed terms by key-without-phase and sum the
    # full root-of-unity orbit (zero unless all phases vanish)
    terms = partition_z1(LAT, 5, small_box())
    d, a = 3, 1
    orbit = {}
    for b in range(d):
        for t in hecke_coset_transform(terms, (a, b, d), LAT):
            key = (t.xi, t.hol_scalar, t.pos_coef, t.neg_coef, t.x_scale)
            orbit.setdefault(key, []).append((t.phase, t.coeff))
    summed = []
    for key, parts in orbit.items():
        phases = sorted(p for p, _ in parts)
        coeff = parts[0][1]
        assert all(c == coeff for _, c in parts)
        if all(p == 0 for p in phases):
            total = d * coeff
        else:
            # nontrivial orbit: phases are (b*M/d mod 1) for d not dividing M;
            # the root-of-unity sum vanishes
            assert len(set(phases)) > 1
            total = 0
        if total:
            summed.append(PartitionTerm(key[0], d * total, key[1], key[2], key[3],
                                        x_scale=key[4]))
    assert merge_terms(summed) == hecke_block_sum(terms, a, d, LAT)


def test_hecke_zr_order_one_is_z1():
    box = small_box()
    assert hecke_zr(1, LAT, F(7, 2), box) == partition_z1(LAT, 4, box)


def test_evidence_identity_small_box():
    # (1/2) sum_b d Z^1((a tau + 2b)/d, 0) = sum_{rk w = d} d^2 chi(...) q^{...}
    box = small_box()
    n_max = 6
    z1 = partition_z1(LAT, n_max, box)
    for d in (1, 3):
        a = 3 // d
        lhs = merge_terms([PartitionTerm(t.xi, t.coeff / 2, t.hol_scalar,
                                         t.pos_coef, t.neg_coef, t.x_scale, t.phase)
                           for t in hecke_block_sum(z1, a, d, LAT)])
        rhs = rank_side_terms(d, a, LAT, n_max, box)
        assert lhs == rhs


def test_merge_terms_keys_on_values():
    xi0, xi1 = (0,) * 10, (1,) + (0,) * 9
    terms = [PartitionTerm(xi1, F(1), F(1, 2), F(1, 2), F(-1, 2)),
             PartitionTerm(xi1, 2, F(2, 4), F(1, 2), F(-1, 2), phase=0),   # same key
             PartitionTerm(xi0, F(5), F(1, 2), F(1, 6), F(-1, 6), x_scale=3),
             PartitionTerm(xi0, F(-5), F(1, 2), F(1, 2), F(-1, 2)),        # cancels the above
             PartitionTerm(xi0, F(7), F(-1, 2), F(1, 2), F(-1, 2), x_scale=5)]
    assert merge_terms(terms) == [PartitionTerm(xi0, F(7), F(-1, 2), F(0), F(0)),
                                  PartitionTerm(xi1, F(3), F(1, 2), F(1, 2), F(-1, 2))]


def test_z1_kernel_matches_composition():
    for box in (BOX0, small_box()):
        for n_max in (0, 1, 4):
            assert partition_z1(LAT, n_max, box) == composed_z1(LAT, n_max, box)


@pytest.mark.parametrize("r,order", [(1, F(7, 2)), (3, 3), (5, 2), (7, F(3, 2)),
                                     (9, 5), (15, 1), (3, -1), (9, F(-1, 2))])
def test_hecke_zr_kernel_matches_composition(r, order):
    # every box contains xi = 0, where split tags and x-scaling merge
    # across divisor blocks
    e8_pair = ((0, 0), (0, 0), (-1, 1), (0, 0), (-1, 1)) + ((0, 0),) * 5
    for box in (BOX0, small_box(), e8_pair):
        assert hecke_zr(r, LAT, order, box) == composed_hecke_zr(r, LAT, order, box)


def test_hecke_zr_cross_block_collision():
    # r = 9: level 1 of block (9, 1), level 5 of (3, 3) and level 41 of
    # (1, 9) all land on xi = 0, q^{9/2}, with weights 2 d^2 / r^2
    euler = euler_hilb(12, 41)
    terms = [t for t in hecke_zr(9, LAT, 5, BOX0) if t.hol_scalar == F(9, 2)]
    assert [t.coeff for t in terms] == [F(2 * euler[1] + 18 * euler[5] + 162 * euler[41], 81)]


def test_partition_size_guard():
    box = tuple((-3, 3) for _ in range(10))
    for call in (lambda: partition_z1(LAT, 2, box), lambda: hecke_zr(3, LAT, 2, box),
                 lambda: rank_side_terms(3, 1, LAT, 2, box),
                 lambda: hecke_zr(1, LAT, MAX_PARTITION_WORK, BOX0),
                 lambda: hecke_zr(MAX_PARTITION_WORK + 1, LAT, 0, BOX0)):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.precondition == "partition-too-large"


def test_partition_work_bounds_are_exact(monkeypatch):
    from mukailab import partition
    # hecke_zr(1, ., 2, BOX0): one box vector and levels 0..2, work (1 + 2 + 1) * (2 + 1)
    monkeypatch.setattr(partition, "MAX_PARTITION_WORK", 12)
    assert hecke_zr(1, LAT, 2, BOX0)
    monkeypatch.setattr(partition, "MAX_PARTITION_WORK", 11)
    assert refusal(lambda: hecke_zr(1, LAT, 2, BOX0)) == "partition-too-large"
    # the Hecke order r itself (order 0 needs work 2 only)
    monkeypatch.setattr(partition, "MAX_PARTITION_WORK", 5)
    assert hecke_zr(5, LAT, 0, BOX0)
    monkeypatch.setattr(partition, "MAX_PARTITION_WORK", 4)
    assert refusal(lambda: hecke_zr(5, LAT, 0, BOX0)) == "partition-too-large"


def test_partition_refusals_do_not_print_huge_numbers():
    # str() of an int over 4300 digits raises ValueError, which once
    # replaced these refusals
    huge = tuple((-10 ** 999, 10 ** 999) for _ in range(10))
    for call in (lambda: hecke_zr(10 ** 5000 + 1, LAT, 0, BOX0),
                 lambda: partition_z1(LAT, 1, huge)):
        assert refusal(call) == "partition-too-large"


def test_hecke_zr_even_rejected():
    with pytest.raises(PreconditionError):
        hecke_zr(4, LAT, 2, BOX0)


# --- refusals of the block sum and the coset transform ---------------------

XI0, XI1 = (0,) * 10, (0, 0, 1) + (0,) * 7         # Q(XI1^2) = 2


def refusal(call):
    with pytest.raises(PreconditionError) as exc:
        call()
    return exc.value.precondition


def test_tagged_exponents_are_refused():
    tagged = PartitionTerm(XI1, F(1), F(1, 2), F(1, 2), F(-1, 3))
    for terms in ([tagged], partition_z1(LAT, 2, small_box()) + [tagged]):
        assert refusal(lambda: hecke_block_sum(terms, 1, 3, LAT)) == "tagged-exponents"
        assert refusal(lambda: hecke_coset_transform(terms, (1, 1, 3), LAT)) == "tagged-exponents"


def test_non_integral_phase_is_refused():
    # 2 (1/3 + (1/2) * 2) is not an integer
    odd = PartitionTerm(XI1, F(1), F(1, 3), F(1, 2), F(-1, 2))
    for terms in ([odd], partition_z1(LAT, 2, BOX0) + [odd]):
        assert refusal(lambda: hecke_block_sum(terms, 1, 3, LAT)) == "non-integral-phase"
        assert refusal(lambda: hecke_coset_transform(terms, (1, 1, 3), LAT)) == "non-integral-phase"


def test_phase_collision_is_refused_by_the_block_sum():
    # coset (3, 1, 3) of r = 9 keeps the exponents and moves the phases
    moved = hecke_coset_transform(partition_z1(LAT, 3, small_box()), (3, 1, 3), LAT)
    assert any(t.phase for t in moved)
    assert refusal(lambda: hecke_block_sum(moved, 1, 3, LAT)) == "phase-collision"
    # the coset transform itself composes phases
    again = hecke_coset_transform(moved, (1, 0, 1), LAT)
    assert [t.phase for t in again] == [t.phase for t in moved]


def test_first_refused_term_names_the_refusal():
    # within a term: tags, then integrality, then the phase
    both = PartitionTerm(XI1, F(1), F(1, 3), F(1, 2), F(-1, 3), phase=F(1, 3))
    assert refusal(lambda: hecke_block_sum([both], 1, 3, LAT)) == "tagged-exponents"
    odd = PartitionTerm(XI1, F(1), F(1, 3), F(1, 2), F(-1, 2), phase=F(1, 3))
    assert refusal(lambda: hecke_block_sum([odd], 1, 3, LAT)) == "non-integral-phase"
    # across terms: the earliest offending term
    phased = PartitionTerm(XI0, F(1), F(1, 2), F(0), F(0), phase=F(1, 3))
    tagged = PartitionTerm(XI1, F(1), F(1, 2), F(1, 2), F(-1, 3))
    assert refusal(lambda: hecke_block_sum([phased, tagged], 1, 3, LAT)) == "phase-collision"
    assert refusal(lambda: hecke_block_sum([tagged, phased], 1, 3, LAT)) == "tagged-exponents"


# --- the integer passes against the former Fraction code --------------------

XIS = (XI0, XI1, (1,) + (0,) * 9, (1, 1) + (0,) * 8, (-1, 0, 1, 1) + (0,) * 6)


def random_terms(rng, n, tagged=False, phased=False):
    """Terms with mixed denominators whose doubled exponent is an integer;
    ``tagged`` lets neg_coef differ from -pos_coef, ``phased`` draws
    nonzero phases.  Repeats of earlier terms with a new or negated
    coefficient, or a new neg_coef, make merges, cancellations and ties."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.4:
            t = rng.choice(out)
            kind = rng.choice(("same", "cancel", "tie") if tagged else ("same", "cancel"))
            coeff = {"same": rng.choice((F(1, 3), 2)), "cancel": -t.coeff, "tie": t.coeff}[kind]
            neg = F(rng.randint(-3, 3), 4) if kind == "tie" else t.neg_coef
            out.append(PartitionTerm(t.xi, coeff, t.hol_scalar, t.pos_coef, neg,
                                     t.x_scale, t.phase))
            continue
        xi = rng.choice(XIS)
        pos = F(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 6)))
        neg = F(rng.randint(-3, 3), 6) if tagged and rng.random() < 0.2 else -pos
        hol = F(rng.randint(-6, 6), 2) - pos * q_form(LAT, xi)
        coeff = rng.choice((F(rng.randint(-4, 4), rng.choice((1, 2, 3))), rng.randint(-4, 4)))
        phase = F(rng.randint(0, 5), rng.choice((2, 3, 6))) % 1 if phased else F(0)
        out.append(PartitionTerm(xi, coeff, hol, pos, neg, rng.choice((1, 3)), phase))
    return out


def assert_same_terms(got, want):
    assert got == want
    types = lambda terms: [[type(getattr(t, n)) for n in t._fields] for t in terms]
    assert types(got) == types(want)
    assert repr(got) == repr(want)


def test_merge_terms_matches_fraction_merge():
    rng = random.Random(7)
    for _ in range(60):
        terms = random_terms(rng, rng.randint(0, 40), tagged=True, phased=True)
        assert_same_terms(merge_terms(terms), fraction_merge_terms(terms))
    z1 = partition_z1(LAT, 4, small_box())
    assert_same_terms(merge_terms(z1 + z1[::-1]), fraction_merge_terms(z1 + z1[::-1]))


def test_merge_terms_ties_keep_first_seen_order():
    # equal sort keys (hol_scalar, xi, pos_coef, x_scale, phase), neg_coef apart
    a = PartitionTerm(XI1, F(1), F(1, 2), F(1, 2), F(-1, 2))
    b = PartitionTerm(XI1, 2, F(1, 2), F(1, 2), F(1, 3))
    for terms in ([a, b], [b, a], [b, a, b]):
        got = merge_terms(terms)
        assert_same_terms(got, fraction_merge_terms(terms))
        assert [t.neg_coef for t in got] == [terms[0].neg_coef, terms[1].neg_coef]


@pytest.mark.parametrize("a,d", [(1, 1), (3, 1), (1, 3), (3, 3), (1, 5), (5, 1), (2, 3),
                                 (1, -3), (0, 3)])
def test_hecke_block_sum_matches_fraction_block_sum(a, d):
    rng = random.Random(100 * a + d)
    for _ in range(30):
        terms = random_terms(rng, rng.randint(0, 40))
        assert_same_terms(hecke_block_sum(terms, a, d, LAT),
                          fraction_hecke_block_sum(terms, a, d, LAT))
    z1 = partition_z1(LAT, 6, small_box())
    assert_same_terms(hecke_block_sum(z1, a, d, LAT), fraction_hecke_block_sum(z1, a, d, LAT))


@pytest.mark.parametrize("coset", [(1, 0, 1), (3, 0, 1), (1, 1, 3), (1, 2, 3), (2, 1, 3),
                                   (1, 4, 9), (1, 2, 5), (1, 1, -3), (0, 1, 3)])
def test_hecke_coset_transform_matches_fraction_transform(coset):
    rng = random.Random(sum(coset))
    for _ in range(30):
        terms = random_terms(rng, rng.randint(0, 40), phased=True)
        assert_same_terms(hecke_coset_transform(terms, coset, LAT),
                          fraction_hecke_coset_transform(terms, coset, LAT))
    z1 = partition_z1(LAT, 5, small_box())
    assert_same_terms(hecke_coset_transform(z1, coset, LAT),
                      fraction_hecke_coset_transform(z1, coset, LAT))


def test_e_gl_matches_binomial_product():
    for N in range(1, 13):
        got, want = e_gl(N), product_e_gl(N)
        assert got == want and got.sorted_terms() == want.sorted_terms()
        assert {type(c) for c in got.terms.values()} == {F}


# --- conjectural Euler numbers ----------------------------------------------


def test_multiplicity_chi_primitive(enriques):
    v = enriques.vector(1, [0] * 10, F(-1, 2))      # <v^2> = 1
    assert multiplicity_chi(v, enriques) == 24
    v = enriques.vector(1, [0] * 10, F(1, 2))       # <v^2> = -1
    assert multiplicity_chi(v, enriques) == 2
    assert multiplicity_chi(v, enriques, per_determinant=True) == 1


def test_multiplicity_chi_triple(enriques):
    v = enriques.vector(3, [0] * 10, F(-3, 2))      # v = 3w, <w^2> = 1
    euler = euler_hilb(12, 5)
    assert multiplicity_chi(v, enriques) == 2 * euler[5] + F(2, 9) * euler[1]


def test_multiplicity_chi_even_rank(enriques):
    with pytest.raises(PreconditionError):
        multiplicity_chi(enriques.vector(2, [0] * 10, 1), enriques)


def test_hecke_zr_matches_multiplicity_chi(enriques):
    # order-3 transform at xi = 0: coefficients against the divisor formula
    terms = hecke_zr(3, LAT, F(9, 2), BOX0)
    coeffs = {t.hol_scalar: t.coeff for t in terms}
    for exponent, coeff in coeffs.items():
        sq = 6 * exponent                    # exponent = <v^2> / (2 r)
        t = -sq / 6                          # v = (3, 0, t): <v^2> = -6 t
        v = enriques.vector(3, [0] * 10, t)
        assert multiplicity_chi(v, enriques) == coeff

import copy
import pickle
import time
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from mukailab import (GitData, GitDims, PreconditionError,
                      elliptic_gcd_reduce, enriques_reduce, euler_hilb,
                      filtration_stack_dim, git_weight,
                      hilb_series, moduli_dim, mukai_square,
                      parabolic_euler, pss_bound, reduce_to_rank_one,
                      trace_rank_sequence, twist, vector_stats)
from mukailab._record import replace
from mukailab.lattice import abelian_model, enriques_model, k3_model

from helpers import (bezout_by_solve_pairing, e8_twist_for_content_and_s,
                     e8_twist_grow_s_by_search, enriques_per_call, enriques_reflection,
                     euclid_sequence, git_weight_factored, random_enriques_vector,
                     rank_one_inputs, rank_one_per_call, solve_pairing,
                     synthetic_git_data, unimodular_complement)


# --- rank-one reduction ------------------------------------------------------


def test_reduce_rank_one_trivial(abelian_u):
    tr = reduce_to_rank_one(1, 1, abelian_u.cls((0, 1)), 5, abelian_u)
    assert tr.steps == [] and tr.final.r == 1


def test_reduce_rank_one_worked_example(abelian_u):
    # (l, r, a) = (1, 2, -1), (c1^2) = 0: minimal lambda = 1, b = 2, k = 2
    tr = reduce_to_rank_one(1, 2, abelian_u.cls((0, 1)), -1, abelian_u)
    params = dict(tr.steps[0].params)
    assert (params["lambda"], params["b"], params["k"]) == (1, 2, 2)
    squares = {sq for sq, _ in tr.invariant_log}
    assert squares == {4}                        # <v^2> = -2*2*(-1) = 4
    assert {m for _, m in tr.invariant_log} == {1}
    assert tr.final.r == 1


def test_reduce_rank_one_random(abelian_u, rng):
    for _ in range(100):
        r = rng.randint(1, 6)
        while True:
            c = abelian_u.cls((rng.randint(-5, 5), rng.randint(-5, 5)))
            if c.content() and gcd(r, c.content()) == 1:
                break
        l = rng.randint(1, 4)
        while True:
            a = rng.randint(-8, 8)
            if a and gcd(l, a) == 1:
                break
        tr = reduce_to_rank_one(l, r, c, a, abelian_u)
        assert tr.final.r == 1
        assert len({sq for sq, _ in tr.invariant_log}) == 1
        assert {mult for _, mult in tr.invariant_log} == {1}


def test_reduce_rank_one_preconditions(abelian_u):
    with pytest.raises(PreconditionError):
        reduce_to_rank_one(2, 2, abelian_u.cls((1, 0)), 2, abelian_u)   # gcd(l, a) = 2
    with pytest.raises(PreconditionError):
        reduce_to_rank_one(1, 2, abelian_u.cls((2, 0)), 1, abelian_u)   # gcd(r, c) = 2


# --- Enriques reduction ------------------------------------------------------




def test_enriques_reduce_rank_one_input(enriques):
    v = enriques.vector(1, [0] * 10, F(-5, 2))
    red = enriques_reduce(v, enriques)
    assert red.trace.steps == []
    assert red.n == (mukai_square(v) + 1) / 2


def test_enriques_reduce_small_example(enriques):
    # r = 3, c = 0, s = 1: <v^2> = 3, n = 2, Euler number 90
    v = enriques.vector(3, [0] * 10, F(-1, 2))
    red = enriques_reduce(v, enriques)
    assert red.n == 2
    assert red.hodge.eval_ones() == euler_hilb(12, 2)[2]
    assert red.trace.final.r == 1


def test_enriques_hilb_cache_grows_geometrically(monkeypatch):
    from mukailab import reductions
    calls = []

    def counted(hodge, n_max):
        calls.append(n_max)
        return hilb_series(hodge, n_max)

    monkeypatch.setattr(reductions, "hilb_series", counted)
    monkeypatch.setattr(reductions, "_enriques_hilb_cache", [])
    got = [reductions._enriques_hilb(n) for n in range(1, 41)]
    assert got == hilb_series(reductions.ENRIQUES_DEFAULT_HODGE, 40)[1:]
    assert calls == [8, 18, 38, 78]          # O(log n) refills, each at least doubling


def test_enriques_reduce_random(enriques, rng):
    for _ in range(150):
        v = random_enriques_vector(enriques, rng)
        red = enriques_reduce(v, enriques)
        sq = mukai_square(v)
        assert red.trace.final.r == 1
        assert red.n == (sq + 1) / 2 and red.n >= 0
        assert {entry for entry in red.trace.invariant_log} == {(sq, 1)}


def test_enriques_reduce_errors(enriques):
    with pytest.raises(PreconditionError):
        enriques_reduce(enriques.vector(2, [0] * 10, 1), enriques)       # even rank
    with pytest.raises(PreconditionError):
        # primitive but <v^2> = -3 < -1
        enriques_reduce(enriques.vector(1, [0] * 10, F(3, 2)), enriques)
    with pytest.raises(PreconditionError):
        # non-primitive: (3, 0, -3/2) = 3 * (1, 0, -1/2)
        enriques_reduce(enriques.vector(3, [0] * 10, F(-3, 2)), enriques)



def test_e8_twist_grow_s_matches_the_search(enriques, rng):
    from mukailab import reductions
    for _ in range(400):
        r = rng.choice((1, 3, 5, 7, 9))
        c = enriques.cls([rng.randint(-2, 2) for _ in range(2)]
                         + [rng.randint(-40, 40) for _ in range(8)])
        s = 2 * rng.randint(-30, 30) + 1
        v = enriques.vector(r, c, F(-s, 2))
        sq = s + rng.choice((-1, 0, 1, rng.randint(0, 400)))
        assert reductions._e8_twist_grow_s(enriques, v, sq) \
            == e8_twist_grow_s_by_search(enriques, v, sq)


def test_e8_content_twist_reaches_the_content(enriques, rng):
    from mukailab import reductions
    kinds = {"gamma = 0": 0, "gamma != l": 0}
    for _ in range(300):
        r = rng.choice((1, 3, 5, 7, 9, 15))
        c8 = [rng.choice((2, 3, 4, 6)) * rng.randint(-3, 3) for _ in range(8)]
        if rng.random() < 0.2:
            c8 = [0] * 8
        gamma = gcd(*c8)
        if gamma and gamma == gcd(r, gamma):
            continue            # the content is already gcd(r, gamma)
        kinds["gamma = 0" if gamma == 0 else "gamma != l"] += 1
        s = 2 * rng.randint(-20, 20) + 1
        v = enriques.vector(r, [0, 0] + c8, F(-s, 2))
        want_s = rng.choice((None, s + rng.randint(-3, 30)))
        xi = reductions._e8_twist_for_content_and_s(enriques, v, want_s)
        w = twist(v, xi)
        assert xi.int_coords()[:2] == (0, 0)
        assert w.c.content() == gcd(r, v.c.content())
        assert want_s is None or -2 * w.t > want_s
    assert min(kinds.values()) >= 20, kinds


# --- the E8 eliminations against the former routines --------------------------


def _primitive(rng, n):
    while True:
        c = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
        if any(c):
            g = gcd(*c)
            return [x // g for x in c]


def test_e8_complement_matches_the_pairwise_construction(enriques, rng):
    from mukailab import reductions
    for _ in range(600):
        r, gamma = rng.choice((1, 3, 5, 7, 9, 15)), rng.randint(2, 12)
        if gcd(r, gamma) == gamma:
            continue            # no content twist is needed
        chat = _primitive(rng, 8)
        if rng.random() < 0.3:
            chat[rng.randrange(2)] = 0
            if not any(chat):
                continue
            chat = [x // gcd(*chat) for x in chat]
        v = enriques.vector(r, [0, 0] + [gamma * x for x in chat], F(-1, 2))
        # with no bound on s the content twist is the first candidate, 1 * u
        u = reductions._e8_twist_for_content_and_s(enriques, v, None).int_coords()[2:]
        assert u == unimodular_complement(chat)
        assert gcd(*(chat[i] * u[j] - chat[j] * u[i]
                     for i in range(8) for j in range(i + 1, 8))) == 1
        want_s = 2 * rng.randint(-20, 20) + 1
        assert reductions._e8_twist_for_content_and_s(enriques, v, want_s) \
            == e8_twist_for_content_and_s(enriques, v, want_s)


def test_pairing_solution_matches_the_former_solve(enriques, rng):
    from mukailab.lattice import NSLattice, _bezout
    solved = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            lat, c = enriques.ns, [0, 0] + _primitive(rng, 8)
        else:
            n = rng.randint(1, 5)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-4, 4)
            lat = NSLattice(gram, tuple("b%d" % i for i in range(n)))
            c = [rng.randint(-5, 5) for _ in range(n)]
        target = rng.randint(-60, 60)
        try:
            want = solve_pairing(lat, c, target)
        except PreconditionError:
            want = None
        # the "drive s to 1" solve of reductions._reduce_e8_case
        g, x = _bezout(lat.gram_mul(c))
        got = tuple(xi * (target // g) for xi in x) if g and target % g == 0 else None
        assert got == want
        solved += want is not None
    assert solved > 1500


def test_enriques_traces_equal_the_oracle_chain(enriques, rng, monkeypatch):
    from mukailab import reductions
    vs = [_benchmark_enriques_vector(enriques, rng) for _ in range(300)]
    got = [enriques_reduce(v, enriques) for v in vs]
    monkeypatch.setattr(reductions, "_e8_twist_for_content_and_s", e8_twist_for_content_and_s)
    monkeypatch.setattr(reductions, "_bezout", bezout_by_solve_pairing)
    want = [enriques_reduce(v, enriques) for v in vs]
    assert [(_whole(r.trace), r.n, r.hodge) for r in got] \
        == [(_whole(r.trace), r.n, r.hodge) for r in want]
    drives = sum(any(("note", "drive s to 1") in s.params for s in r.trace.steps) for r in got)
    assert drives >= 5, drives


def test_enriques_swaps_match_the_reflection_formula(enriques, rng):
    # the README and demo vectors, a huge E8 pairing, and the benchmark's shape
    vs = [enriques.vector(3, [0] * 10, F(-1, 2)),
          enriques.vector(5, [1, 1, 1] + [0] * 7, F(-3, 2)),
          enriques.vector(3, [1, 10 ** 6, -10 ** 3] + [0] * 7, F(-1, 2))]
    vs += [random_enriques_vector(enriques, rng, ranks=(3, 5, 7), s_span=6, max_square=15)
           for _ in range(60)]
    v0 = enriques.structure_sheaf_vector()
    swaps = 0
    for v in vs:
        for step in enriques_reduce(v, enriques).trace.steps:
            if step.move == "fm_swap":
                swaps += 1
                assert step.after == -enriques_reflection(v0, step.before)
    assert swaps >= 100


def test_enriques_reduce_with_a_huge_e8_pairing_is_fast(enriques):
    # v = (3, sigma + X^2 f + X e1, -1/2): <v^2> = 3, and the twist growing s
    # needs M ~ |X| / 6 multiples of e1
    X = -10 ** 6
    v = enriques.vector(3, [1, X * X, X] + [0] * 7, F(-1, 2))
    start = time.perf_counter()
    red = enriques_reduce(v, enriques)
    assert time.perf_counter() - start < 1.0
    assert red.n == 2 and red.trace.final.r == 1
    assert set(red.trace.invariant_log) == {(3, 1)}


def test_enriques_hilbert_order_is_bounded(enriques, monkeypatch):
    from mukailab import reductions
    monkeypatch.setattr(reductions, "MAX_HILBERT_ORDER", 5)
    # (1, 0, -s/2) has <v^2> = s and n = (s + 1)/2
    assert enriques_reduce(enriques.vector(1, [0] * 10, F(-9, 2)), enriques).n == 5
    with pytest.raises(PreconditionError) as err:
        enriques_reduce(enriques.vector(1, [0] * 10, F(-11, 2)), enriques)
    assert err.value.precondition == "hilbert-order-too-large"


def test_enriques_hilb_refills_stop_at_the_bound(monkeypatch):
    from mukailab import reductions
    calls = []

    def counted(hodge, n_max):
        calls.append(n_max)
        return hilb_series(hodge, n_max)

    monkeypatch.setattr(reductions, "hilb_series", counted)
    monkeypatch.setattr(reductions, "_enriques_hilb_cache", [])
    monkeypatch.setattr(reductions, "MAX_HILBERT_ORDER", 20)
    got = [reductions._enriques_hilb(n) for n in range(1, 21)]
    assert got == hilb_series(reductions.ENRIQUES_DEFAULT_HODGE, 20)[1:]
    assert calls == [8, 18, 20]


# --- the checked move step -------------------------------------------------------


def test_move_step_checks_the_square_and_the_multiplicity(k3_u):
    from mukailab import InvariantError, reductions
    v = k3_u.vector(1, (0, 0), -4)                     # <v^2> = 8, m(v) = 1
    trace = reductions._start(v, k3_u)
    assert trace.invariant_log == [(8, 1)] and trace.final == v
    w = k3_u.vector(2, (1, 2), -1)                     # <w^2> = 8, m(w) = 1
    assert reductions._step(trace, "deform", (("x", 1),), v, w, k3_u) == w
    assert trace.invariant_log == [(8, 1), (8, 1)] and trace.final == w
    assert trace.steps[-1] == reductions.MoveStep("deform", (("x", 1),), v, w)
    for bad in (k3_u.vector(2, (0, 0), -2),            # <.^2> = 8, m = 2
                k3_u.vector(1, (0, 0), -3)):           # <.^2> = 6, m = 1
        with pytest.raises(InvariantError, match="deform changed the Mukai square"):
            reductions._step(trace, "deform", (), w, bad, k3_u)
    assert len(trace.steps) == 1


def test_broken_moves_raise_invariant_errors(abelian_u, enriques, monkeypatch):
    from mukailab import InvariantError, reductions, twist

    class Doubling:
        def apply(self, v):
            return v.scale(2)

    monkeypatch.setattr(reductions, "cor_ext_map", lambda m, k: Doubling())
    with pytest.raises(InvariantError, match="fm_swap changed"):
        reduce_to_rank_one(1, 2, abelian_u.cls((0, 1)), -1, abelian_u)
    # a twist that also adds the point class: <v^2> drops by 2r
    point = enriques.vector(0, [0] * 10, 1)
    monkeypatch.setattr(reductions, "twist", lambda v, D: twist(v, D) + point)
    with pytest.raises(InvariantError, match="twist changed"):
        enriques_reduce(enriques.vector(3, [0] * 10, F(-1, 2)), enriques)

# --- per-model values of the chains ---------------------------------------------


def _whole(trace):
    return trace.steps, trace.invariant_log, trace.final


def _benchmark_enriques_vector(m, rng):
    return random_enriques_vector(m, rng, ranks=(3, 5, 7), s_span=6, max_square=15)


def test_chains_match_the_per_call_construction(rng):
    ab, k3, enr = abelian_model(), k3_model(), enriques_model()
    for _ in range(40):
        for m in (ab, k3):
            args = rank_one_inputs(rng, m)
            assert _whole(reduce_to_rank_one(*args, m)) == _whole(rank_one_per_call(*args, m))
    for _ in range(40):
        v = _benchmark_enriques_vector(enr, rng)
        got, want = enriques_reduce(v, enr), enriques_per_call(v, enr)
        assert (_whole(got.trace), got.n, got.hodge) == (_whole(want.trace), want.n, want.hodge)


def test_per_model_values_are_built_once_per_model(monkeypatch, rng):
    from mukailab import reductions
    calls = Counter()

    def count(name):
        real = getattr(reductions, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(reductions, name, counted)

    for name in ("hyperbolic_lattice", "SurfaceModel", "cor_ext_map", "enriques_reflection_map"):
        count(name)
    rank_one_models = (abelian_model(), k3_model(), abelian_model())
    enriques_models = (enriques_model(), enriques_model())
    # chains that make no move build nothing
    trivial_abelian, trivial_enriques = abelian_model(), enriques_model()
    for _ in range(20):
        for m in rank_one_models:
            reduce_to_rank_one(*rank_one_inputs(rng, m), m)
        for m in enriques_models:
            enriques_reduce(_benchmark_enriques_vector(m, rng), m)
        reduce_to_rank_one(1, 1, trivial_abelian.cls((0, 1)), 5, trivial_abelian)
        enriques_reduce(trivial_enriques.vector(1, [0] * 10, F(-3, 2)), trivial_enriques)
    assert calls == {"hyperbolic_lattice": 3, "SurfaceModel": 3, "cor_ext_map": 3,
                     "enriques_reflection_map": 2}
    assert not vars(trivial_abelian) and not vars(trivial_enriques)


def test_models_with_filled_slots_round_trip(rng):
    ab, enr = abelian_model(), enriques_model()
    args, v = rank_one_inputs(rng, ab), _benchmark_enriques_vector(enr, rng)
    rank_one, enriques_red = reduce_to_rank_one(*args, ab), enriques_reduce(v, enr)
    assert set(vars(ab)) == {"_rank_one"} and set(vars(enr)) == {"_reflect"}
    for make in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)), replace):
        ab2, enr2 = make(ab), make(enr)
        assert ab2 == ab and hash(ab2) == hash(ab) and enr2 == enr
        assert _whole(reduce_to_rank_one(*args, ab2)) == _whole(rank_one)
        got = enriques_reduce(v, enr2)
        assert (_whole(got.trace), got.n, got.hodge) == (
            _whole(enriques_red.trace), enriques_red.n, enriques_red.hodge)


def test_every_move_kind_has_its_params_sorted_by_name(rng):
    ab, k3, enr = abelian_model(), k3_model(), enriques_model()
    traces = [reduce_to_rank_one(*rank_one_inputs(rng, m), m) for m in (ab, k3) * 10]
    traces += [enriques_reduce(_benchmark_enriques_vector(enr, rng), enr).trace
               for _ in range(20)]
    traces += [elliptic_gcd_reduce(r, d) for r, d in ((1, 5), (5, 2), (13, -8), (200, 7))]
    shapes = set()
    for trace in traces:
        for step in trace.steps:
            names = tuple(name for name, _ in step.params)
            assert names == tuple(sorted(names)) and type(step.params) is tuple
            shapes.add((step.move, names))
    assert shapes == {("deform", ("b", "k", "lambda")), ("deform", ("b'", "k'", "lambda'")),
                      ("deform", ("k''",)), ("fm_swap", ("k", "kind")), ("fm_swap", ("kind",)),
                      ("twist", ("D", "note")), ("twist", ("k",))}


# --- elliptic Euclid reduction -------------------------------------------------




def test_elliptic_gcd_examples():
    tr = elliptic_gcd_reduce(1, 5)
    assert [s.move for s in tr.steps] == ["twist"] and tr.final == (1, 1)
    tr = elliptic_gcd_reduce(1, 1)
    assert tr.steps == []
    tr = elliptic_gcd_reduce(2, 1)
    assert [(s.move, s.after) for s in tr.steps] == [("fm_swap", (1, -2))]
    tr = elliptic_gcd_reduce(5, 2)
    assert [s.after for s in tr.steps] == [(2, -5), (2, 1), (1, -2)]
    assert trace_rank_sequence(tr, 5) == [5, 2, 1]


def test_elliptic_gcd_matches_euclid(rng):
    for _ in range(300):
        r = rng.randint(1, 60)
        d = rng.randint(-60, 60)
        if gcd(r, d) != 1:
            continue
        tr = elliptic_gcd_reduce(r, d)
        start = r if r > 1 else 1
        assert trace_rank_sequence(tr, r) == euclid_sequence(r, d)
        # twist steps never change the rank; transform steps swap in -rank
        for s in tr.steps:
            if s.move == "twist":
                assert s.before[0] == s.after[0]
            else:
                assert s.after == (s.before[1], -s.before[0])


def test_elliptic_gcd_rejects_common_factor():
    with pytest.raises(PreconditionError):
        elliptic_gcd_reduce(4, 2)


def test_euclid_step_count_matches_the_trace(monkeypatch):
    import random
    from mukailab import reductions
    rng = random.Random(6)
    pairs = [(r, d) for r in range(2, 120) for d in range(-300, 300)]
    pairs += [(rng.randint(2, 10 ** 5), rng.randint(-10 ** 6, 10 ** 6)) for _ in range(2000)]
    for r, d in pairs:
        if gcd(r, d) == 1:
            assert reductions._euclid_steps(r, d) == len(elliptic_gcd_reduce(r, d).steps), (r, d)
    # the limit itself is allowed; (40, -1) takes 78 steps
    monkeypatch.setattr(reductions, "MAX_TRACE_STEPS", 78)
    assert len(elliptic_gcd_reduce(40, -1).steps) == 78
    monkeypatch.setattr(reductions, "MAX_TRACE_STEPS", 77)
    with pytest.raises(PreconditionError, match="trace-too-long"):
        elliptic_gcd_reduce(40, -1)


# --- filtration dimensions -----------------------------------------------------


def test_filtration_genus_zero_case(rng):
    # v_i = r_i sigma + a_i omega on an elliptic K3: dims = -r_i^2,
    # <v_i, v_j> = -2 r_i r_j, total -(sum r_i)^2
    m = k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
    for _ in range(100):
        s = rng.randint(1, 5)
        rs = [rng.randint(1, 6) for _ in range(s)]
        vs = [m.vector(0, (ri, 0), rng.randint(-5, 5)) for ri in rs]
        dims = [-ri * ri for ri in rs]
        out = filtration_stack_dim(vs, dims, m)
        assert out.sum_form == -sum(rs) ** 2


def test_filtration_genus_one_case(rng):
    # v_i = r_i f + a_i omega: all pairings vanish, dims = r_i, total sum r_i
    m = k3_model(gram=((-2, 1), (1, 0)), names=("sigma", "f"), polarization=(1, 3))
    for _ in range(100):
        s = rng.randint(1, 5)
        rs = [rng.randint(1, 6) for _ in range(s)]
        vs = [m.vector(0, (0, ri), rng.randint(-5, 5)) for ri in rs]
        out = filtration_stack_dim(vs, [ri for ri in rs], m)
        assert out.sum_form == sum(rs)


def test_filtration_two_forms_agree(k3_u, rng):
    from mukailab.lattice import random_mukai_vector
    for _ in range(1000):
        s = rng.randint(1, 4)
        vs = [random_mukai_vector(k3_u, rng, span=4, denom=2) for _ in range(s)]
        dims = [mukai_square(v) + 1 for v in vs]
        out = filtration_stack_dim(vs, dims, k3_u)
        total = vs[0]
        for v in vs[1:]:
            total = total + v
        # with dims = <v_i^2> + 1, sum_form + deficit_form = <v^2> + 1
        assert out.sum_form + out.deficit_form == mukai_square(total) + 1


def test_filtration_empty():
    with pytest.raises(PreconditionError):
        filtration_stack_dim([], [], None)


# --- dimensions, bounds ----------------------------------------------------------


def test_moduli_dim(k3_u, enriques):
    v = k3_u.vector(1, (0, 0), -3)     # n = 4: coarse dim 2n = 8
    assert moduli_dim(v, k3_u, "coarse") == 8
    w = enriques.vector(3, [0] * 10, F(-1, 2))
    assert moduli_dim(w, enriques, "stack") == mukai_square(w) + 1
    with pytest.raises(PreconditionError):
        moduli_dim(enriques.vector(2, [0] * 10, 1), enriques)
    with pytest.raises(PreconditionError):
        moduli_dim(v, k3_u, "orbifold")


def test_lagrangian_fiber_dim(k3_u):
    # (xi^2) = 2g - 2 gives fiber dimension g
    for g in range(0, 6):
        xi = k3_u.cls((1, g))          # (xi^2) = 2g
        assert xi.self_intersection() / 2 + 1 == g + 1


def test_pss_bound(abelian_u):
    v = abelian_u.vector(1, (1, 2), -1)
    sq, strict = pss_bound(v, abelian_u)
    assert strict
    v2 = abelian_u.vector(2, (0, 0), -2)      # m = 2, <v^2> = 8
    sq, strict = pss_bound(v2, abelian_u)
    assert sq == 8 and not strict
    v3 = abelian_u.vector(2, (0, 0), -4)      # m = 2, <v^2> = 16
    sq, strict = pss_bound(v3, abelian_u)
    assert sq == 16 and strict


# --- GIT weights and parabolic chi -----------------------------------------------




def test_git_weight_vanishes_on_trivial_blocks(rng):
    for _ in range(50):
        data = synthetic_git_data(rng)
        l = len(data.eps_i)
        dimV = data.h_m
        avw = data.a1 * data.n + data.h_m
        aiv = list(data.h_i_m)
        same = GitDims(dimV, dimV, avw, avw, tuple(aiv),
                       tuple(dimV - x for x in aiv))
        assert git_weight(same, data) == 0
        zero = GitDims(dimV, 0, avw, 0, tuple(aiv), tuple(0 for _ in aiv))
        assert git_weight(zero, data) == 0


def test_git_weight_matches_factored_form(rng):
    for _ in range(100):
        data = synthetic_git_data(rng)
        l = len(data.eps_i)
        dimV = data.h_m
        avw = data.a1 * data.n + data.h_m
        dimVp = rng.randint(1, dimV)
        dims = GitDims(dimV, dimVp, avw, rng.randint(0, 40),
                       tuple(data.h_i_m),
                       tuple(rng.randint(0, dimVp) for _ in range(l)))
        assert git_weight(dims, data) == git_weight_factored(dims, data)


def test_git_weight_linear_in_primed_block(rng):
    data = synthetic_git_data(rng)
    l = len(data.eps_i)
    dimV = data.h_m
    avw = data.a1 * data.n + data.h_m
    def weight(dimVp, avpw, kis):
        return git_weight(GitDims(dimV, dimVp, avw, avpw,
                                  tuple(data.h_i_m), tuple(kis)), data)
    w1 = weight(2, 10, [1] * l)
    w2 = weight(3, 4, [2] * l)
    w12 = weight(5, 14, [3] * l)
    assert w12 == w1 + w2


def test_parabolic_euler_examples():
    assert parabolic_euler(3, [2], [1], 5) == 5
    assert parabolic_euler(3, [2], [F(1, 2)], 5) == 3 + F(2, 2)


def test_parabolic_euler_random_single_weight(rng):
    for _ in range(200):
        chi_gr = F(rng.randint(-9, 9))
        chi_top = F(rng.randint(-9, 9))
        alpha = F(rng.randint(1, 8), 8)
        val = parabolic_euler(chi_top, [chi_gr], [alpha], chi_top + chi_gr)
        assert val == chi_top + alpha * chi_gr


def test_parabolic_euler_validation():
    with pytest.raises(PreconditionError):
        parabolic_euler(3, [2], [F(3, 2)], 5)          # weight above 1
    with pytest.raises(PreconditionError):
        parabolic_euler(3, [2], [F(1, 2)], 6)          # additivity broken
    with pytest.raises(PreconditionError):
        parabolic_euler(3, [2, 1], [F(3, 4), F(1, 4)], 6)   # ordering broken


def test_parabolic_euler_multi_step_mismatch_raises():
    # with an interior weight < 1 and chi(gr_1) != 0 the two displayed
    # forms differ; the operation reports the disagreement rather than
    # silently choosing one
    with pytest.raises(PreconditionError):
        parabolic_euler(5, [2, 3], [F(1, 4), F(1, 2)], 10)
    # trailing weights equal to one restore the identity
    assert parabolic_euler(5, [2, 3], [F(1, 4), 1], 10) == 5 + F(2, 4) + 3

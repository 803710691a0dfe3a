import random
from fractions import Fraction as F

import pytest

from mukailab import (EllipticRelativeParams, GammaTriple, IsotropicContext,
                      LatticeMismatchError, PreconditionError, chi_of,
                      check_isometry, compose,
                      cor_ext_context, cor_ext_map, dual,
                      elliptic_jacobian_fm, elliptic_jacobian_inverse,
                      elliptic_jacobian_map, elliptic_relative_fm,
                      elliptic_relative_map, enriques_reflection_map,
                      fm_preconditions, generic_model, identity_map,
                      isotropic_coords, isotropic_fm_map,
                      isotropic_reconstruct, k3_model, mukai_pair,
                      mukai_square, twist_map, vector_of_gamma)
from mukailab.lattice import random_mukai_vector, replace

from helpers import (consistent_relative_map, domain_sampler, elliptic_k3,
                     enriques_reflection, inconsistent_relative_map,
                     isotropic_fm_formula, sampled_isometry)




# --- twists ----------------------------------------------------------------


def test_twist_map_identity(k3_u, rng):
    t0 = twist_map(k3_u, k3_u.ns.zero())
    for _ in range(50):
        v = random_mukai_vector(k3_u, rng)
        assert t0.apply(v) == v


def test_twist_structure_sheaf_riemann_roch(k3_u):
    D = k3_u.cls((2, -1))
    img = twist_map(k3_u, D).apply(k3_u.structure_sheaf_vector())
    assert img.c == D and chi_of(img, k3_u) == D.self_intersection() / 2 + 2


def test_twist_group_law(k3_u, rng):
    D = k3_u.cls((F(1, 2), 3))
    um = compose([twist_map(k3_u, D), twist_map(k3_u, -D)])
    for _ in range(100):
        v = random_mukai_vector(k3_u, rng)
        assert um.apply(v) == v


# --- Enriques reflection ---------------------------------------------------


def test_reflection_structure_sheaf_case(enriques, rng):
    rmap = enriques_reflection_map(enriques)
    for _ in range(100):
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        c = enriques.cls([rng.randint(-4, 4) for _ in range(10)])
        x = enriques.vector(r, c, F(s, 2))
        y = rmap.apply(x)
        assert y == enriques.vector(s, c, F(r, 2))


def test_reflection_of_kernel_class(enriques):
    # x = v0 maps to v0^dual: substitute <v0, v0> = -1
    c = enriques.cls([0, 0, 1, 0, 0, 0, 0, 0, 0, 0])   # (c^2) = -2
    v0 = enriques.vector(1, c, F(-1, 2))
    assert mukai_pair(v0, v0) == -1
    assert enriques_reflection_map(enriques, v0).apply(v0) == dual(v0)


def test_reflection_involution(enriques, rng):
    rmap = enriques_reflection_map(enriques)
    for _ in range(1000):
        x = random_mukai_vector(enriques, rng, span=5, denom=3)
        assert rmap.apply(rmap.apply(x)) == x


def test_reflection_rejects_wrong_kernel(enriques):
    with pytest.raises(PreconditionError):
        enriques_reflection_map(enriques, enriques.unit())


def test_reflection_rejects_a_kernel_on_another_lattice(enriques):
    # U + A1^8 instead of U + E8(-1): v0 = (1, e1 + e2, -3/2) has <v0^2> = -1
    # on its own lattice, but 1 on the Enriques lattice, where (e1 + e2)^2 = -2
    gram = [[0] * 10 for _ in range(10)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, 10):
        gram[i][i] = -2
    other = generic_model(gram, ["u1", "u2"] + ["a%d" % i for i in range(8)],
                          [1, 1] + [0] * 8)
    v0 = other.vector(1, [0, 0, 1, 1] + [0] * 6, F(-3, 2))
    assert mukai_pair(v0, v0) == -1
    with pytest.raises(LatticeMismatchError):
        enriques_reflection_map(enriques, v0)


# --- isotropic decomposition and transform ---------------------------------


def test_isotropic_coords_examples(abelian_u):
    v1 = abelian_u.vector(1, (0, 0), 0)
    H = abelian_u.cls((1, 2))
    co = isotropic_coords(v1, v1, H, abelian_u)
    assert (co.l, co.a, co.d) == (1, 0, 0) and co.D.is_zero()
    co = isotropic_coords(abelian_u.omega(), v1, H, abelian_u)
    assert (co.l, co.a, co.d) == (0, -1, 0) and co.D.is_zero()


def test_isotropic_coords_roundtrip(abelian_u, rng):
    v1 = abelian_u.vector(1, (0, 0), 0)
    H = abelian_u.cls((1, 2))
    for _ in range(300):
        v = random_mukai_vector(abelian_u, rng)
        co = isotropic_coords(v, v1, H, abelian_u)
        assert isotropic_reconstruct(co, v1, H, abelian_u) == v


def test_isotropic_fm_kernel_to_omega(abelian_u):
    ctx = cor_ext_context(abelian_u, 2)
    cmap = isotropic_fm_map(ctx)
    assert cmap.apply(ctx.v1) == abelian_u.omega()
    # and the point class goes to w1, so omega is the w1-preimage
    assert cmap.apply(abelian_u.omega()) == ctx.w1


def test_cor_ext_verbatim(abelian_u, rng):
    k = 3
    cmap = cor_ext_map(abelian_u, k)
    D = abelian_u.cls((1, -k))
    D_hat = D
    for _ in range(200):
        r, a = rng.randint(1, 9), rng.randint(1, 9)
        c = rng.randint(0, 9)
        v = abelian_u.vector(r, D.scale(c).coords, -a)
        img = cmap.apply(v)
        assert img == abelian_u.vector(a, (-D_hat.scale(c)).coords, -r)
        assert mukai_square(img) == mukai_square(v) == 2 * r * a - 2 * k * c * c


def test_cor_ext_closed_form_matches_the_general_builder(abelian_u, k3_u):
    # the general isotropic builder is the reference: for k >= 1 both give
    # one map; for k <= -1 the general builder still gives the same swap
    # matrix, but H = e + k f has (H^2) = 2k < 0 and cor_ext_map refuses
    for m in (abelian_u, k3_u):
        for k in range(-20, 21):
            if k == 0:
                continue
            ctx = cor_ext_context(m, k)
            ref = isotropic_fm_map(ctx, sign=-1)
            if k < 0:
                with pytest.raises(PreconditionError) as err:
                    cor_ext_map(m, k)
                assert err.value.precondition == "polarization-not-positive"
                closed = cor_ext_map(m, -k)
            else:
                closed = cor_ext_map(m, k)
                assert closed.params == {"ctx": ctx}
            assert (closed._rows, closed._den) == (ref._rows, ref._den)
            assert closed._checks == ref._checks == ()
            assert (closed.kind, closed.sign, closed.source, closed.target) == \
                (ref.kind, ref.sign, ref.source, ref.target)
            assert check_isometry(closed)


@pytest.mark.parametrize("surface,k,name", [
    (None, 0, "degenerate-polarization"),
    (k3_model(gram=((2, 0), (0, -2)), names=("h", "d"), polarization=(1, 0)), 1, "model-shape"),
    (replace(k3_model(), half_integral=True), 2, "non-integral-vector"),
])
def test_cor_ext_refusals_match_the_general_builder(abelian_u, surface, k, name):
    m = surface or abelian_u
    with pytest.raises(PreconditionError) as err:
        cor_ext_map(m, k)
    assert err.value.precondition == name
    if name != "model-shape":
        with pytest.raises(PreconditionError) as err:
            isotropic_fm_map(cor_ext_context(m, k), sign=-1)
        assert err.value.precondition == name


def test_isotropic_fm_square_example(abelian_u):
    # (r, c, a, k) = (2, 1, 3, 1): <v^2> = 2*2*3 - 2*1*1 = 10 on both sides
    cmap = cor_ext_map(abelian_u, 1)
    v = abelian_u.vector(2, (1, -1), -3)
    assert mukai_square(v) == 10
    assert mukai_square(cmap.apply(v)) == 10


def test_isotropic_fm_preserves_twisted_degree_zero(abelian_u, rng):
    # the transform carries twisted-degree-zero classes to twisted-degree-zero classes
    ctx = cor_ext_context(abelian_u, 2)
    cmap = isotropic_fm_map(ctx)
    H = ctx.H
    for _ in range(300):
        v = random_mukai_vector(abelian_u, rng)
        # project to deg_{G1} = 0: deg = (c, H) since c_1(v1) = 0
        c = v.c - H.scale(v.c.dot(H) / H.self_intersection())
        v = type(v)(v.r, c, v.t)
        assert v.c.dot(H) == 0
        w = cmap.apply(v)
        assert ctx.w1.r * w.c.dot(ctx.H_hat) - w.r * ctx.w1.c.dot(ctx.H_hat) == 0


def test_isotropic_context_validation(abelian_u):
    v1 = abelian_u.vector(1, (0, 0), 0)
    bad = IsotropicContext(abelian_u, abelian_u, v1, v1,
                           abelian_u.cls((1, 2)), abelian_u.cls((1, 3)))
    with pytest.raises(PreconditionError):
        isotropic_fm_map(bad)


def test_fm_preconditions(abelian_u):
    v1 = abelian_u.vector(1, (0, 0), 0)
    H = abelian_u.cls((1, 2))
    rep = fm_preconditions(v1, v1, abelian_u, H)
    assert rep.a == 0 and not rep.applicable
    rep = fm_preconditions(abelian_u.omega(), v1, abelian_u, H)
    assert rep.l == 0 and not rep.applicable
    v = abelian_u.vector(2, (1, -2), -3)      # c = D with (D, H) = 0
    rep = fm_preconditions(v, v1, abelian_u, H)
    assert rep.applicable


# --- elliptic transforms ---------------------------------------------------


def test_elliptic_jacobian_examples():
    m = elliptic_k3()
    sigma, f = m.ns.named("sigma"), m.ns.named("f")
    g = elliptic_jacobian_fm(1, 0, m.ns.zero(), 0, m)
    assert g == -GammaTriple(0, sigma, 1)
    g = elliptic_jacobian_fm(2, 3, m.ns.zero(), 1, m)
    assert g == -GammaTriple(0, sigma.scale(2) + f, 5)
    m3 = elliptic_k3(extra_rank=1)
    D0 = m3.ns.named("d0")
    g = elliptic_jacobian_fm(1, 1, D0, 2, m3)
    assert g == -GammaTriple(0, m3.ns.named("sigma") + m3.ns.named("f").scale(2) - D0, 2)


def test_elliptic_jacobian_inverse_roundtrip(rng):
    m = elliptic_k3(extra_rank=2)
    for _ in range(300):
        r, l, n = (F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        D = m.ns.cls((0, 0, rng.randint(-4, 4), rng.randint(-4, 4)))
        g = elliptic_jacobian_fm(r, l, D, n, m)
        # undo the sign bookkeeping, then invert the linear map
        assert elliptic_jacobian_inverse(-g, m) == (r, l, D, n)


def test_elliptic_relative_examples():
    m = elliptic_k3()
    sigma, f = m.ns.named("sigma"), m.ns.named("f")
    params = EllipticRelativeParams(r=3, chi_O_sigma=1, chi_F0_f=2)
    assert elliptic_relative_fm(0, 1, 0, params, m) == GammaTriple(0, m.ns.zero(), 1)
    g = elliptic_relative_fm(0, 0, 1, params, m)
    assert -g == GammaTriple(0, f.scale(3), 2)     # gamma(F) = (0, r f, chi(F0|f))
    assert elliptic_relative_fm(1, 0, 0, params, m) == GammaTriple(0, sigma, 1)




def test_elliptic_relative_isometry(rng):
    _, cmap = consistent_relative_map()
    assert check_isometry(cmap, 300, rng)


# --- composition / isometry ------------------------------------------------


def test_compose_reflection_involution(enriques, rng):
    rmap = enriques_reflection_map(enriques)
    double = compose([rmap, rmap])
    for _ in range(200):
        x = random_mukai_vector(enriques, rng)
        assert double.apply(x) == x


def test_compose_model_mismatch(k3_u, enriques):
    with pytest.raises(PreconditionError):
        compose([identity_map(k3_u), identity_map(enriques)])


@pytest.mark.parametrize("make", [
    lambda m, _: twist_map(m, m.cls((F(3, 2), -2))),
    lambda m, _: cor_ext_map(m, 2),
])
def test_isometry_rank2_kinds(abelian_u, rng, make):
    assert check_isometry(make(abelian_u, rng), 400, rng)


def test_isometry_elliptic_jacobian(rng):
    m = elliptic_k3(extra_rank=1)
    assert check_isometry(elliptic_jacobian_map(m), 400, rng)


def test_isometry_reflection(enriques, rng):
    assert check_isometry(enriques_reflection_map(enriques), 300, rng)


# --- matrices against the defining formulas --------------------------------


def _hat_negation_context(k3_u):
    """H = e + f on U with the hat map D -> -D, an isometry of H-perp."""
    v1 = k3_u.vector(2, (1, 2), 1)
    w1 = k3_u.vector(2, (2, 1), 1)
    H = k3_u.cls((1, 1))
    return IsotropicContext(k3_u, k3_u, v1, w1, H, H, hat_map=lambda D: -D)


def test_isotropic_matrix_matches_formula(k3_u, abelian_u, rng):
    contexts = [cor_ext_context(abelian_u, 3), _hat_negation_context(k3_u),
                IsotropicContext(k3_u, k3_u, k3_u.vector(1, (0, 0), 0),
                                 k3_u.vector(1, (1, -1), -1), k3_u.cls((1, 2)),
                                 k3_u.cls((2, 1)), hat_map=lambda D: k3_u.cls(
                                     (-D.coords[1], -D.coords[0])))]
    for ctx in contexts:
        for sign in (1, -1):
            cmap = isotropic_fm_map(ctx, sign=sign)
            for _ in range(50):
                v = random_mukai_vector(ctx.source, rng)
                assert cmap.apply(v) == isotropic_fm_formula(v, ctx).scale(sign)


def test_reflection_matrix_matches_formula(enriques, rng):
    kernels = [enriques.structure_sheaf_vector(),
               enriques.vector(1, enriques.cls([0, 0, 1] + [0] * 7), F(-1, 2))]
    for v0 in kernels:
        for sign in (1, -1):
            rmap = enriques_reflection_map(enriques, v0, sign=sign)
            for _ in range(50):
                x = random_mukai_vector(enriques, rng)
                assert rmap.apply(x) == enriques_reflection(v0, x).scale(sign)


def test_elliptic_matrices_match_formulas(rng):
    m = elliptic_k3(extra_rank=1)
    sigma, f = m.ns.named("sigma"), m.ns.named("f")
    jac = elliptic_jacobian_map(m)
    for _ in range(50):
        v = domain_sampler(jac)(rng)
        l = v.c.dot(sigma)
        g = elliptic_jacobian_fm(v.r, l, v.c - f.scale(l), 2 * v.r - chi_of(v, m), m)
        assert jac.apply(v) == vector_of_gamma(g, m)
    m, rel = consistent_relative_map()
    p = rel.params
    for _ in range(50):
        a, b, c = (F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        E0 = vector_of_gamma(GammaTriple(3, m.ns.named("sigma").scale(-p["d"])
                                         + m.ns.named("f").scale(p["k"]), p["chi_E0"]), m)
        E0f = vector_of_gamma(GammaTriple(0, m.ns.named("f").scale(3), -p["d"]), m)
        v = E0.scale(a) + E0f.scale(b) + m.omega().scale(c)
        assert rel.apply(v) == vector_of_gamma(elliptic_relative_fm(a, b, c, p["params"], m), m)


# --- the exact isometry proof against the sampled oracle -------------------


def _every_kind(k3_u, abelian_u, enriques):
    ek3 = elliptic_k3(extra_rank=1)
    v0 = enriques.vector(1, enriques.cls([0, 0, 1] + [0] * 7), F(-1, 2))
    return {
        "identity": identity_map(abelian_u),
        "twist": twist_map(abelian_u, abelian_u.cls((F(3, 2), -2))),
        "twist-sign": twist_map(k3_u, k3_u.cls((2, F(-1, 3))), sign=-1),
        "enriques_reflection": enriques_reflection_map(enriques),
        "enriques_reflection-v0": enriques_reflection_map(enriques, v0),
        "isotropic_fm": cor_ext_map(abelian_u, 2),
        "isotropic_fm-hat": isotropic_fm_map(_hat_negation_context(k3_u)),
        "elliptic_jacobian": elliptic_jacobian_map(ek3),
        "elliptic_relative": consistent_relative_map()[1],
        "composite": compose([twist_map(abelian_u, abelian_u.cls((1, 0))),
                              cor_ext_map(abelian_u, 3)]),
        "composite-relative": compose([consistent_relative_map()[1],
                                       twist_map(elliptic_k3(), elliptic_k3().cls((0, 1)))]),
    }


def test_exact_proof_agrees_with_sampled_oracle(k3_u, abelian_u, enriques, rng):
    for name, cmap in _every_kind(k3_u, abelian_u, enriques).items():
        assert check_isometry(cmap) is True, name
        assert sampled_isometry(cmap, 60, rng) is True, name


def test_non_isometry_is_refused_by_both():
    _, cmap = inconsistent_relative_map()
    assert check_isometry(cmap) is False
    assert sampled_isometry(cmap, 60) is False
    # the proof needs no samples, and never draws from the generator
    rng = random.Random(5)
    state = rng.getstate()
    assert check_isometry(cmap, 0, rng) is False
    assert check_isometry(compose([cmap, identity_map(cmap.target)]), 0) is False
    assert rng.getstate() == state


# --- domain constraints ------------------------------------------------------


def test_out_of_domain_raises_directly_and_through_compose():
    m = elliptic_k3()
    sigma = m.ns.named("sigma")
    jac = elliptic_jacobian_map(m)
    off = m.vector(1, (1, 0), 0)                     # (c_1, f) = 1
    on = m.vector(1, (0, 2), 0)                      # (c_1, f) = 0
    out_of_jacobian = twist_map(m, sigma)            # sends `on` off the domain
    cases = [(jac, off), (compose([jac, identity_map(m)]), off),
             (compose([identity_map(m), jac]), off), (compose([out_of_jacobian, jac]), on)]
    for cmap, v in cases:
        with pytest.raises(PreconditionError) as err:
            cmap.apply(v)
        assert err.value.precondition == "relative-degree"
    assert compose([jac, out_of_jacobian]).apply(on) == out_of_jacobian.apply(jac.apply(on))
    _, rel = consistent_relative_map()
    outside = rel.source.vector(0, (1, 0), 0)
    for cmap in (rel, compose([rel, twist_map(rel.target, sigma)]),
                 compose([twist_map(rel.source, rel.source.ns.zero()), rel])):
        with pytest.raises(PreconditionError) as err:
            cmap.apply(outside)
        assert err.value.precondition == "outside-span"


def test_jacobian_keeps_the_fiber_perp_check_on_other_fibrations():
    # (sigma, f) = 2: with (c, f) = 0, D = c - (c, sigma) f is fiber-perp
    # only when (c, sigma) = 0, as elliptic_jacobian_fm demands
    m = k3_model(gram=((-2, 2), (2, 0)), names=("sigma", "f"), polarization=(1, 3))
    jac = elliptic_jacobian_map(m)
    with pytest.raises(PreconditionError) as err:
        jac.apply(m.vector(1, (0, 1), 0))
    assert err.value.precondition == "not-fiber-perp"
    v = m.vector(2, (0, 0), 3)
    g = elliptic_jacobian_fm(v.r, 0, m.ns.zero(), 2 * v.r - chi_of(v, m), m)
    assert jac.apply(v) == vector_of_gamma(g, m)


def test_apply_refuses_a_vector_on_another_lattice(k3_u, enriques):
    with pytest.raises(LatticeMismatchError):
        identity_map(k3_u).apply(enriques.unit())

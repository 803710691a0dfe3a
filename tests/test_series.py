from fractions import Fraction as F

import pytest

from mukailab import (PreconditionError, e_gl, eta_inv12, euler_hilb,
                      hecke_cosets, hilb_series, wallcross_epoly)
from mukailab.series import LaurentPoly as LP

from helpers import (diagonal_coefficients, elliptic_epoly_recursion, min_exponent,
                     product_euler_hilb, product_hilb_series, xy_degree)

K3_HODGE = LP({(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})
ENRIQUES_HODGE = LP({(0, 0): 1, (1, 1): 10, (2, 2): 1})
ABELIAN_HODGE = LP({(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (0, 2): 1, (1, 1): 4,
                    (2, 1): -2, (1, 2): -2, (2, 2): 1})


def product_coeffs_oracle(chi, n_max):
    """prod (1 - q^m)^{-chi} by direct convolution with (1-q^m)^-1 chi times."""
    out = [1] + [0] * n_max
    for _ in range(chi):
        for m in range(1, n_max + 1):
            # multiply by 1/(1 - q^m): prefix-sum along residue classes
            for n in range(m, n_max + 1):
                out[n] += out[n - m]
    return out


# --- e(GL(N)) ---------------------------------------------------------------


def test_e_gl_one():
    assert e_gl(1) == LP({(1, 1): 1, (0, 0): -1})


def test_e_gl_two():
    expect = (LP.xy(2) - LP.one()) * (LP.xy(2) - LP.xy(1))
    assert e_gl(2) == expect


@pytest.mark.parametrize("N", range(1, 9))
def test_e_gl_degree(N):
    assert xy_degree(e_gl(N)) == N * N


def test_e_gl_univariate_product():
    # evaluated as a polynomial in q = xy, e_gl(N) is prod (q^N - q^i)
    for N in range(1, 7):
        coeffs = diagonal_coefficients(e_gl(N))
        direct = {0: F(1)}
        for i in range(N):
            new = {}
            for k, c in direct.items():
                new[k + N] = new.get(k + N, F(0)) + c
                new[k + i] = new.get(k + i, F(0)) - c
            direct = {k: c for k, c in new.items() if c}
        assert coeffs == direct
    with pytest.raises(PreconditionError):
        e_gl(0)


# --- Hilbert-scheme series ---------------------------------------------------


def test_hilb_series_first_terms(enriques):
    eX = LP({(0, 0): 1, (1, 1): 10, (2, 2): 1})
    hs = hilb_series(eX, 2)
    assert hs[0] == LP.one()
    assert hs[1] == eX


def test_hilb_series_euler_12():
    hs = hilb_series(LP.constant(12), 3)
    assert [h.eval_ones() for h in hs] == [1, 12, 90, 520]


@pytest.mark.parametrize("chi", [0, 12, 24])
def test_hilb_series_euler_specialization(chi):
    n_max = 20
    hs = hilb_series(LP.constant(chi), n_max)
    assert [h.eval_ones() for h in hs] == product_coeffs_oracle(chi, n_max)
    assert euler_hilb(chi, n_max) == product_coeffs_oracle(chi, n_max)


def test_hilb_series_k3_hodge_sanity():
    eK3 = LP({(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})
    hs = hilb_series(eK3, 2)
    # Hilb^2 of a K3 surface has Euler number 324
    assert hs[2].eval_ones() == 324
    assert hs[2].coefficient(0, 0) == 1


@pytest.mark.parametrize("hodge", [K3_HODGE, ENRIQUES_HODGE, ABELIAN_HODGE, 0, 1, 2, 12, 24],
                         ids=["k3", "enriques", "abelian", "0", "1", "2", "12", "24"])
def test_hilb_series_recurrence_matches_product(hodge):
    assert hilb_series(hodge, 12) == product_hilb_series(hodge, 12)


@pytest.mark.parametrize("chi", [-4, 0, 1, 2, 12, 24])
def test_euler_hilb_recurrence_matches_product(chi):
    assert euler_hilb(chi, 200) == product_euler_hilb(chi, 200)


def test_negative_series_order_rejected():
    for call in (lambda: euler_hilb(12, -1), lambda: hilb_series(ENRIQUES_HODGE, -1),
                 lambda: hilb_series(LP.constant(-4), -1)):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.precondition == "negative-order"


def test_hilb_series_rejects_bad_hodge():
    with pytest.raises(PreconditionError):
        hilb_series(LP({(3, 0): 1}), 1)
    with pytest.raises(PreconditionError):
        hilb_series(LP({(1, 1): -4}), 1)


# --- eta^{-12} ----------------------------------------------------------------


def test_eta_leading_and_low_coeffs():
    eta = eta_inv12(3)
    assert min_exponent(eta) == F(-1, 2)
    assert eta.coefficient(F(-1, 2)) == 1
    assert eta.coefficient(F(1, 2)) == 12
    assert eta.coefficient(F(3, 2)) == 90


def test_eta_matches_hilbert_euler():
    n_max = 20
    eta = eta_inv12(n_max)
    euler = euler_hilb(12, n_max)
    for n in range(n_max + 1):
        assert eta.coefficient(F(2 * n - 1, 2)) == euler[n]


def test_eta_truncation_guard():
    eta = eta_inv12(4)
    with pytest.raises(PreconditionError):
        eta.coefficient(F(11, 2))


def _beyond_truncation(eta, exponent):
    with pytest.raises(PreconditionError) as exc:
        eta.coefficient(exponent)
    return exc.value.precondition == "beyond-truncation"


def test_eta_truncation_is_exact():
    # order 4 knows q^{7/2} = q^{4 - 1/2}; q^{9/2} is the first unknown term
    eta = eta_inv12(4)
    assert eta.coefficient(F(7, 2)) == 2535 and eta.coefficient(3) == 0
    assert _beyond_truncation(eta, F(9, 2))


def test_order_zero_series():
    assert hilb_series(ENRIQUES_HODGE, 0) == [LP.one()]
    assert euler_hilb(12, 0) == [1] and euler_hilb(-4, 0) == [1]
    eta = eta_inv12(0)
    assert eta.coefficient(F(-1, 2)) == 1 and eta.order == F(-1, 2)
    assert _beyond_truncation(eta, F(1, 2))


# --- Hecke cosets -------------------------------------------------------------


def test_hecke_cosets_examples():
    assert hecke_cosets(1) == [(1, 0, 1)]
    assert hecke_cosets(3) == [(3, 0, 1), (1, 0, 3), (1, 1, 3), (1, 2, 3)]
    assert len(hecke_cosets(9)) == 13


def test_hecke_cosets_sigma_one():
    for r in range(1, 100, 2):
        sigma1 = sum(d for d in range(1, r + 1) if r % d == 0)
        cs = hecke_cosets(r)
        assert len(cs) == sigma1
        assert all(a * d == r and 0 <= b < d for a, b, d in cs)


def test_hecke_cosets_even_rejected():
    with pytest.raises(PreconditionError):
        hecke_cosets(4)


# --- wall-crossing recursions --------------------------------------------------


def test_wallcross_no_strata():
    base = LP({(1, 1): 5, (0, 0): 1})
    assert wallcross_epoly(base, []) == base


def test_wallcross_single_stratum():
    base = LP.one()
    e1, e2 = LP({(1, 1): 1}), LP({(0, 0): 2})
    out = wallcross_epoly(base, [([[0, 3], [3, 0]], [e1, e2])])
    assert out == base + LP.xy(-3) * e1 * e2


def test_wallcross_non_integer_exponent():
    with pytest.raises(PreconditionError):
        wallcross_epoly(LP.one(), [([[0, F(1, 2)], [F(1, 2), 0]], [LP.one(), LP.one()])])


def test_wallcross_round_trip(rng):
    for _ in range(100):
        def rand_poly():
            return LP({(rng.randint(-2, 3), rng.randint(-2, 3)): rng.randint(1, 5)
                       for _ in range(3)})
        base_c = rand_poly()
        strata_c = []
        strata_cp = []
        for _ in range(rng.randint(1, 3)):
            s = rng.randint(2, 3)
            matrix = [[0] * s for _ in range(s)]
            for i in range(s):
                for j in range(i + 1, s):
                    matrix[i][j] = matrix[j][i] = rng.randint(-3, 3)
            factors = [rand_poly() for _ in range(s)]
            (strata_c if rng.random() < 0.5 else strata_cp).append((matrix, factors))
        # e on the wall from side C, then recover side C' and re-derive
        e_wall = wallcross_epoly(base_c, strata_c)
        e_cp = e_wall - wallcross_epoly(LP.zero(), strata_cp)
        assert wallcross_epoly(e_cp, strata_cp) == e_wall


def test_elliptic_recursion_basic():
    side = LP({(2, 2): 1})
    assert elliptic_epoly_recursion(side, (2, 1), []) == side
    e1, e2 = LP({(1, 1): 3}), LP({(0, 0): 5})
    out = elliptic_epoly_recursion(side, (2, 1), [(1, e1, e2)])
    assert out == side + e1 * e2 * LP.xy(2)


def test_elliptic_recursion_sign_reconciliation(elliptic):
    # the strata of the elliptic recursion have s = 2 and pairing
    # (tau + (n'-kl) f, k l f) = k l when (tau, f) = 1 and (f^2) = 0;
    # the general recursion then uses (xy)^{-kl} where the elliptic
    # statement uses (xy)^{+kl}: literal forms match after xy -> 1/(xy)
    # on the correction term.
    lat = elliptic.ns
    tau, f = lat.basis_class(0), lat.basis_class(1)
    k, l, nprime = 2, 3, 7
    g1 = tau + f.scale(nprime - k * l)
    g2 = f.scale(k * l)
    pairing = g1.dot(g2)
    assert pairing == k * l
    e1, e2 = LP({(1, 1): 2}), LP({(0, 0): 3})
    side = LP.one()
    general = wallcross_epoly(side, [([[0, pairing], [pairing, 0]], [e1, e2])])
    special = elliptic_epoly_recursion(side, (l, 5), [(k, e1, e2)])
    gen_term = general - side
    spe_term = special - side
    assert gen_term == e1 * e2 * LP.xy(-k * l)
    assert spe_term == e1 * e2 * LP.xy(k * l)
    # same stratum, inverse monomial prefactors: exponents agree up to sign
    assert gen_term * LP.xy(k * l) == spe_term * LP.xy(-k * l)


def test_elliptic_recursion_malformed():
    with pytest.raises(PreconditionError):
        elliptic_epoly_recursion(LP.one(), (0, 1), [])
    with pytest.raises(PreconditionError):
        elliptic_epoly_recursion(LP.one(), (1, 1), [(0, LP.one(), LP.one())])

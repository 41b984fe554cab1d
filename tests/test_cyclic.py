"""Tests for cyclic-algebra arithmetic on polynomial coordinates over a
central t^i (1+t)^j denominator: the matrix representation, reduced
norms, inverses, normal forms, and specialization."""

import random

import numpy as np
import pytest

from cayplex.ffield import frobenius_matrix, get_ext_field, mult_generator, regular_rep
from cayplex.ratfunc import Poly
from cayplex.cyclic import CycAlg, CycElem, gamma_from_alpha
from cayplex.genforge import make_params

E35 = get_ext_field(3, 1, 5)
E53 = get_ext_field(5, 1, 3)

# Printed reference generators for q=3, d=5, modulus t^5 - t - 1, alpha=1.
B1_REF = (
    (2, 1, 2, 0, 1),
    (0, 2, 2, 1, 2),
    (0, 2, 0, 0, 1),
    (0, 2, 1, 1, 2),
    (0, 1, 2, 0, 0),
)
B2_REF = (
    (2, 1, 1, 1, 1),
    (0, 1, 2, 1, 1),
    (0, 1, 2, 2, 2),
    (0, 0, 1, 0, 0),
    (0, 1, 1, 1, 0),
)


def rand_elem(rng, alg, max_deg=2, max_den=False):
    """Random polynomial coordinates; with ``max_den`` also a random
    denominator t^i (1+t)^j with i, j <= 1."""
    coords = [
        Poly(alg.E, [rng.randrange(alg.E.order) for _ in range(rng.randrange(max_deg + 1))])
        for _ in range(alg.d)
    ]
    den = (rng.randrange(2), rng.randrange(2)) if max_den else (0, 0)
    return alg.elem(coords, den)


def omega_word(alg, us):
    out = alg.omega(us[0])
    for u in us[1:]:
        out = out * alg.omega(u)
    return out


def omega_word_inv(alg, us):
    """The inverse of ``omega_word(alg, us)``: the reversed product of
    the letters' closed-form inverses."""
    out = alg.omega_inv(us[-1])
    for u in reversed(us[:-1]):
        out = out * alg.omega_inv(u)
    return out


def norm_product(x, y):
    """Product of two reduced norms in the (rest, a, b) normal form."""
    return x[0] * y[0], x[1] + y[1], x[2] + y[2]


def poly_matmul(A, B):
    d = len(A)
    zero = Poly.zero(A[0][0].field)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(d)), zero) for j in range(d))
        for i in range(d)
    )


def basis_elem(alg, k, p, den=(0, 0)):
    """p z^k / (t^den[0] (1+t)^den[1]), built with ``alg.elem``."""
    coords = [Poly.zero(alg.E)] * alg.d
    coords[k] = p
    return alg.elem(coords, den)


def z_elem(alg):
    return basis_elem(alg, 1, Poly.one(alg.E))


def z_inv_elem(alg):
    """z^{-1} = z^{d-1} / (1+t)."""
    return basis_elem(alg, alg.d - 1, Poly.one(alg.E), (0, 1))


def field_elem(alg, code):
    """The element ``code`` of E, a constant coordinate of z^0."""
    return basis_elem(alg, 0, Poly.const(alg.E, code))


@pytest.fixture(scope="module")
def alg35():
    return CycAlg(E35, 1)


@pytest.fixture(scope="module")
def alg53():
    return CycAlg(E53, 1)


def test_defining_relations(alg35, alg53):
    for alg in (alg35, alg53):
        E, d = alg.E, alg.d
        z = z_elem(alg)
        a = field_elem(alg, E.tau_code)
        assert z * a == field_elem(alg, E.frob(E.tau_code, alg.s)) * z
        zd = alg.one()
        for _ in range(d):
            zd = zd * z
        expect = alg.elem([alg.one_plus_t] + [Poly.zero(E)] * (d - 1))
        assert zd == expect


def test_z_inverse(alg35):
    assert z_elem(alg35) * z_inv_elem(alg35) == alg35.one()
    assert z_inv_elem(alg35) * z_elem(alg35) == alg35.one()
    # (1 - z^{-1}) z = z - 1
    E, zero = alg35.E, Poly.zero(alg35.E)
    z_minus_one = alg35.elem([Poly.const(E, E.neg(1)), Poly.one(E)] + [zero] * 3)
    assert alg35.one_minus_z_inv() * z_elem(alg35) == z_minus_one
    assert alg35.one_minus_z_inv() == alg35.omega(1)


def test_representation_is_homomorphism(alg35):
    rng = random.Random(401)
    for _ in range(100):
        a = rand_elem(rng, alg35)
        b = rand_elem(rng, alg35)
        assert (a * b).matrix_rep() == poly_matmul(a.matrix_rep(), b.matrix_rep())


def test_representation_generator_images(alg35):
    E = alg35.E
    Mz = z_elem(alg35).matrix_rep()
    for i in range(5):
        for j in range(5):
            if i == j + 1:
                assert Mz[i][j] == Poly.one(E)
            elif (i, j) == (0, 4):
                assert Mz[i][j] == alg35.one_plus_t
            else:
                assert Mz[i][j].is_zero()
    # diagonal twist: matrix of a field element is diag(sigma^{-k}(c))
    c = 137
    Mc = field_elem(alg35, c).matrix_rep()
    for k in range(5):
        assert Mc[k][k] == Poly.const(E, alg35.sigma(c, -k))
        assert all(Mc[k][j].is_zero() for j in range(5) if j != k)


def test_reduced_norm_reference_values(alg35, alg53):
    for alg in (alg35, alg53):
        F = alg.E.base
        one = Poly.one(F)
        w = alg.one_minus_z_inv()
        assert w.reduced_norm() == (one, 1, -1)  # t / (1+t)
        sign = Poly.const(F, 1 if (alg.d - 1) % 2 == 0 else F.neg(1))
        assert z_elem(alg).reduced_norm() == (sign, 0, 1)
        assert z_inv_elem(alg).reduced_norm() == (sign, 0, -1)
        assert alg.one().reduced_norm() == (one, 0, 0)


def test_reduced_norm_multiplicative_and_conj_invariant(alg35):
    rng = random.Random(402)
    for _ in range(20):
        a = rand_elem(rng, alg35, max_den=True)
        b = rand_elem(rng, alg35, max_den=True)
        if alg35.zero() in (a, b):
            # zero has no normal form
            with pytest.raises(ValueError):
                (a * b).reduced_norm()
            continue
        assert (a * b).reduced_norm() == norm_product(a.reduced_norm(), b.reduced_norm())
    w = alg35.one_minus_z_inv()
    for _ in range(10):
        u = rng.randrange(1, E35.order)
        conj = field_elem(alg35, u) * w * field_elem(alg35, E35.inv(u))
        assert conj.reduced_norm() == (Poly.one(E35.base), 1, -1)
        assert alg35.omega(u) == conj


def test_conj_by_unit_basics(alg35):
    """u a u^{-1} for a field unit u: trivial for u = 1, and z picks up
    the factor u / sigma(u)."""
    rng = random.Random(403)
    a = rand_elem(rng, alg35, max_den=True)
    E = alg35.E

    def conj(x, u):
        return field_elem(alg35, u) * x * field_elem(alg35, E.inv(u))

    assert conj(a, 1) == a
    u = 99
    factor = E.mul(u, E.inv(alg35.sigma(u, 1)))
    assert conj(z_elem(alg35), u) == field_elem(alg35, factor) * z_elem(alg35)


def test_inverse(alg35, alg53):
    w = alg35.one_minus_z_inv()
    wi = alg35.omega_inv(1)
    assert w * wi == alg35.one()
    assert wi * w == alg35.one()
    rng = random.Random(404)
    for alg, alpha in ((alg35, 1), (alg53, 3)):
        ms = alg.space()
        for _ in range(5):
            us = [rng.randrange(1, alg.E.order) for _ in range(rng.randrange(1, 4))]
            x = omega_word(alg, us)
            xi = omega_word_inv(alg, us)
            assert xi * x == alg.one() and x * xi == alg.one()
            S = alg.specialize([x, xi], alpha)
            assert np.array_equal(ms.mul(S[1:], S[:1]), ms.identity_batch(1))


@pytest.mark.parametrize("q,d,s", [(5, 3, 1), (5, 3, 2), (3, 5, 1), (3, 5, 2),
                                   (4, 4, 1), (4, 4, 3)])
def test_omega_inv_closed_form(q, d, s):
    """omega_inv(u^j) is the two-sided inverse of omega(u^j) for every j:
    by exact products, after specialization, and in the reduced norm
    (1+t)/t."""
    params = make_params(q, d, s=s)
    alg, E, F = params.alg(), params.E, params.base
    one = alg.one()
    ws, wis = [], []
    for j in range(params.n):
        u = E.pow_(params.u, j)
        w, wi = alg.omega(u), alg.omega_inv(u)
        assert w * wi == one and wi * w == one
        assert wi.reduced_norm() == (Poly.one(F), -1, 1)
        ws.append(w)
        wis.append(wi)
    ms = alg.space()
    S, Si = alg.specialize(ws, params.alpha), alg.specialize(wis, params.alpha)
    assert np.array_equal(ms.mul(Si, S), ms.identity_batch(params.n))


def test_elem_cleared_requires_central_monomial_denominator(alg35):
    """Only elements whose reduced norm is c t^a (1+t)^b have an inverse
    with a central monomial denominator; the norm's split keeps any
    other factor apart."""
    E, zero = E35, Poly.zero(E35)
    # Nrd(2 - z) = 2^5 - (1+t) = 1 - t over F_3: a root at t = 1
    bad = alg35.elem([Poly.const(E, 2), Poly.const(E, E.neg(1))] + [zero] * 3)
    assert bad.reduced_norm() == (Poly(E35.base, (1, 2)), 0, 0)
    # the split keeps 1 - t apart from the monomial t / (1+t)
    mixed = bad * alg35.one_minus_z_inv()
    assert mixed.reduced_norm() == (Poly(E35.base, (1, 2)), 1, -1)
    # Nrd(1 - z) = -t is a central monomial, and 1 - z inverts over t:
    # (1 - z)(1 + z + ... + z^4) = 1 - z^5 = -t
    good = alg35.elem([Poly.one(E), Poly.const(E, E.neg(1))] + [zero] * 3)
    assert good.reduced_norm() == (Poly.const(E35.base, E.neg(1)), 1, 0)
    good_inv = alg35.elem([Poly.const(E, E.neg(1))] * 5, (1, 0))
    assert good_inv * good == alg35.one() and good * good_inv == alg35.one()


def test_specialize_reproduces_printed_generators():
    alg1 = CycAlg(E35, 1)
    alg2 = CycAlg(E35, 2)
    assert np.array_equal(alg1.specialize([alg1.one_minus_z_inv()], 1)[0], B1_REF)
    assert np.array_equal(alg2.specialize([alg2.one_minus_z_inv()], 1)[0], B2_REF)
    assert np.array_equal(alg1.specialize([alg1.one()], 1), alg1.space().identity_batch(1))


def test_specialize_is_homomorphism(alg35, alg53):
    rng = random.Random(405)
    for alg, alpha in ((alg35, 1), (alg53, 3)):  # 3 = -2 in F_5
        a = [rand_elem(rng, alg, max_den=True) for _ in range(25)]
        b = [rand_elem(rng, alg, max_den=True) for _ in range(25)]
        ab = alg.specialize([x * y for x, y in zip(a, b)], alpha)
        A, B = alg.specialize(a, alpha), alg.specialize(b, alpha)
        assert np.array_equal(ab, alg.space().mul(A, B))


def test_specialize_z_image_consistency(alg53):
    E, F, ms = alg53.E, alg53.E.base, alg53.space()
    alpha = 3  # -2 in F_5
    gamma = gamma_from_alpha(E, alpha)
    assert gamma == F.neg(2)  # d odd, alpha = -2  =>  gamma = -2
    Z, Z_inv = alg53.specialize([z_elem(alg53), z_inv_elem(alg53)], alpha)[:, None]
    one_plus_gamma = F.add(1, gamma)
    assert np.array_equal(ms.power(Z, 3), ms.identity_batch(1) * one_plus_gamma)
    assert np.array_equal(ms.mul(Z_inv, Z), ms.identity_batch(1))
    rng = random.Random(406)
    v = [rng.randrange(1, E.order) for _ in range(20)]
    R = ms.asbatch(regular_rep(E, x) for x in v)
    R_frob = ms.asbatch(regular_rep(E, E.frob(x, alg53.s)) for x in v)
    # Z * regular_rep(v) * Z^-1 = regular_rep(sigma(v))
    assert np.array_equal(ms.mul(Z, R), ms.mul(R_frob, Z))


def test_specialize_errors(alg35):
    with pytest.raises(ValueError):
        gamma_from_alpha(E35, 0)
    with pytest.raises(ValueError):
        gamma_from_alpha(E35, E35.neg(1))
    # alpha with (1+alpha)^d = 1 makes gamma = 0
    with pytest.raises(ValueError):
        gamma_from_alpha(get_ext_field(2, 2, 3), 2)  # F_4, every cube is 1
    with pytest.raises(ValueError):
        alg35.specialize([alg35.one()], 0)


def test_z_powers_are_cached_exact_powers(alg53):
    """The cached image map: its rows for tau^0 are the powers Z^k, and
    ``image`` is sum_k regular_rep(v_k) Z^k term by term."""
    E, ms = alg53.E, alg53.space()
    rng = random.Random(409)
    values = [[rng.randrange(E.order) for _ in range(3)] for _ in range(10)]
    digits = np.array([[E.decode(v) for v in vs] for vs in values])
    for c in (1, E.add(1, 3)):  # the twist's Frobenius, and Z at alpha = 3
        Z = ms.mul(ms.asbatch(regular_rep(E, c)), ms.asbatch(frobenius_matrix(E, alg53.s)))
        pows = np.concatenate([ms.power(Z, k) for k in range(3)])
        M = alg53._image_map(c)
        assert alg53._image_map(c) is M
        assert np.array_equal(M.reshape(3, 3, 3, 3)[:, 0], pows)
        want = sum(
            ms.mul(ms.asbatch(regular_rep(E, vs[k]) for vs in values), pows[k]).astype(int)
            for k in range(3)
        ) % E.q
        assert np.array_equal(alg53.image(digits, c), want)
    Z = alg53._image_map(E.add(1, 3)).reshape(3, 3, 3, 3)[1, 0]
    assert np.array_equal(alg53.specialize([z_elem(alg53)], 3)[0], Z)
    # an inadmissible alpha is refused on every call, cached or not
    for _ in range(2):
        with pytest.raises(ValueError):
            alg53.specialize([alg53.one()], 0)


def test_global_mat_projective_equality(alg35):
    """Projective equality is a central-scalar quotient: scaling by an
    element of F_q(t)^x keeps the class, scaling by tau does not."""
    rng = random.Random(407)
    us = [rng.randrange(1, E35.order) for _ in range(3)]
    a, a_inv = omega_word(alg35, us), omega_word_inv(alg35, us)
    zero = Poly.zero(E35)
    central = alg35.elem([Poly(E35, (2, 0, 1))] + [zero] * 4, (1, 2))
    assert (a_inv * (a * central)).is_central_scalar()
    assert (a_inv * (central * a)).is_central_scalar()
    tau = field_elem(alg35, E35.tau_code)
    assert not (a_inv * (a * tau)).is_central_scalar()


def test_sigma_fixes_t_and_base(alg35):
    t = Poly.t(E35)
    assert alg35.sigma_poly(t, 1) == t
    r = Poly(E35, (1, 2, 0, 1))  # coefficients in F_3
    assert alg35.sigma_poly(r, 3) == r
    # t is central: it commutes with z
    t_elem = alg35.elem([t] + [Poly.zero(E35)] * 4)
    assert t_elem * z_elem(alg35) == z_elem(alg35) * t_elem


def test_pc_kernel_matches_elem_arithmetic(alg35):
    """Words in the omega lifts: the product adds denominator exponents,
    associates, and specializes to the product of the finite images."""
    rng = random.Random(408)
    ms = alg35.space()
    for _ in range(15):
        us = [rng.randrange(1, E35.order) for _ in range(3)]
        om = [alg35.omega(u) for u in us]
        left = (om[0] * om[1]) * om[2]
        assert left.den == (0, 3)
        assert all(p.degree <= 3 for p in left.coords)
        assert left == om[0] * (om[1] * om[2])
        assert left.matrix_rep() == poly_matmul(
            poly_matmul(om[0].matrix_rep(), om[1].matrix_rep()), om[2].matrix_rep()
        )
        S = alg35.specialize(om + [left], 1)[:, None]
        assert np.array_equal(S[3], ms.mul(ms.mul(S[0], S[1]), S[2]))


def test_pc_canonical_invariance(alg35):
    """Equality and hashing see through common t and (1+t) factors of the
    numerators and the denominator, and nothing else."""
    A = omega_word(alg35, [17, 200])
    i, j = A.den
    t3 = Poly(E35, (0, 0, 0, 1))
    rescaled = alg35.elem(
        [p * alg35.one_plus_t * t3 for p in A.coords], (i + 3, j + 1)
    )
    assert rescaled == A and hash(rescaled) == hash(A)
    doubled = alg35.elem([p.scale(2) for p in A.coords], A.den)
    assert doubled != A
    A_inv = omega_word_inv(alg35, [17, 200])
    assert (A_inv * doubled).is_central_scalar()
    zero = alg35.zero()
    assert alg35.elem(zero.coords, (2, 5)) == zero


def test_pc_central_scalar_detection(alg35):
    zero = Poly.zero(E35)
    yes = alg35.elem((Poly(E35, (0, 1, 1)),) + (zero,) * 4, (2, 1))
    assert yes.is_central_scalar()
    no1 = alg35.elem((Poly(E35, (0, 1)), Poly.one(E35)) + (zero,) * 3)
    assert not no1.is_central_scalar()
    no2 = alg35.elem((Poly(E35, (E35.tau_code,)),) + (zero,) * 4)
    assert not no2.is_central_scalar()
    assert not alg35.zero().is_central_scalar()


def test_cyc_elem_serialization_roundtrip(alg35):
    """An element is determined by plain integer data: its denominator
    exponents and the coefficient codes of its numerators."""
    rng = random.Random(409)
    for _ in range(5):
        a = rand_elem(rng, alg35, max_den=True)
        data = (a.den, tuple(p.coeffs for p in a.coords))
        back = CycElem(alg35, data[0], (Poly(E35, c) for c in data[1]))
        assert back == a and hash(back) == hash(a)


def test_algebra_validation():
    with pytest.raises(ValueError):
        CycAlg(E53, 3)  # s = 0 mod 3
    with pytest.raises(ValueError):
        CycAlg(get_ext_field(3, 1, 4), 2)  # gcd(2,4) != 1
    with pytest.raises(ValueError):
        CycAlg(E53, 1).elem([Poly.zero(E53)] * 2)
    with pytest.raises(ValueError):
        CycAlg(E53, 1).one() * CycAlg(E53, 2).one()
    u = mult_generator(E35)
    alg = CycAlg(E35, 2)
    assert alg.omega(u).reduced_norm() == (Poly.one(E35.base), 1, -1)

"""Tests for finite-field code arithmetic and derived matrices."""

import random

import numpy as np
import pytest

from cayplex.ffield import (
    ExtField,
    Field,
    default_extension_modulus,
    frobenius_matrix,
    gaussian_binomial,
    get_ext_field,
    get_field,
    mult_generator,
    regular_rep,
)

# Reference values for the q=3, d=5 construction with modulus t^5 - t - 1,
# power basis {1, t, ..., t^4}: the matrix of x -> x^3 and the matrix of
# multiplication by t, both acting on coordinate columns.
PHI1_REF = (
    (1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 1, 0, 1),
    (0, 1, 0, 0, 2),
    (0, 0, 0, 1, 1),
)
THETA_REF = (
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
)


def matmul_mod(A, B, p):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) % p for j in range(len(B[0])))
        for i in range(len(A))
    )


def test_prime_field_axioms():
    F = get_field(7)
    rng = random.Random(20240)
    for _ in range(200):
        a, b, c = (rng.randrange(7) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1
    assert F.pow_(3, -1) == F.inv(3)


def test_f9_against_direct_polynomial_arithmetic():
    F = get_field(3, 2)
    c0, c1, _ = F.modulus

    def slow_mul(a, b):
        a0, a1 = a % 3, a // 3
        b0, b1 = b % 3, b // 3
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0
        lo = a0 * b0
        mid = a0 * b1 + a1 * b0
        hi = a1 * b1
        lo += hi * (-c0)
        mid += hi * (-c1)
        return (lo % 3) + 3 * (mid % 3)

    for a in range(9):
        for b in range(9):
            assert F.mul(a, b) == slow_mul(a, b)
            assert F.add(a, b) == (a % 3 + b % 3) % 3 + 3 * ((a // 3 + b // 3) % 3)


def test_f243_power_facts():
    E = get_ext_field(3, 1, 5)
    assert E.modulus == (2, 2, 0, 0, 0, 1)
    t = E.tau_code
    assert E.pow_(t, 5) == E.add(t, 1)
    assert E.decode(E.pow_(t, 11)) == (0, 1, 2, 1, 0)
    assert E.pow_(t, 121) == 1  # norm of t is -(-1) = 1, so order divides 121
    assert all(E.pow_(t, k) != 1 for k in (11, 1))
    assert E.pow_(t, 242) == 1


def test_frobenius_matrix_reference():
    E = get_ext_field(3, 1, 5)
    assert frobenius_matrix(E, 1) == PHI1_REF


def test_regular_rep_reference():
    E = get_ext_field(3, 1, 5)
    assert regular_rep(E, E.tau_code) == THETA_REF
    assert regular_rep(E, E.mul(E.tau_code, E.tau_code)) == matmul_mod(
        THETA_REF, THETA_REF, 3
    )


def test_frobenius_matrix_acts_as_frobenius():
    E = get_ext_field(3, 1, 5)
    rng = random.Random(77)
    for i in range(5):
        M = frobenius_matrix(E, i)
        for _ in range(20):
            a = rng.randrange(E.order)
            col = E.decode(a)
            img = tuple(sum(M[r][j] * col[j] for j in range(5)) % 3 for r in range(5))
            assert E.encode(img) == E.frob(a, i)
    M1 = frobenius_matrix(E, 1)
    M = M1
    for _ in range(4):
        M = matmul_mod(M, M1, 3)
    assert M == frobenius_matrix(E, 0)
    assert M1 != frobenius_matrix(E, 0)


def test_regular_rep_is_multiplicative():
    E = get_ext_field(3, 1, 5)
    rng = random.Random(78)
    for _ in range(25):
        a, b = rng.randrange(E.order), rng.randrange(E.order)
        assert matmul_mod(regular_rep(E, a), regular_rep(E, b), 3) == regular_rep(
            E, E.mul(a, b)
        )


def test_frobenius_is_field_automorphism_fixing_base():
    E = get_ext_field(5, 1, 3)
    rng = random.Random(79)
    for _ in range(60):
        a, b = rng.randrange(E.order), rng.randrange(E.order)
        assert E.frob(E.add(a, b), 1) == E.add(E.frob(a, 1), E.frob(b, 1))
        assert E.frob(E.mul(a, b), 1) == E.mul(E.frob(a, 1), E.frob(b, 1))
    fixed = [a for a in range(E.order) if E.frob(a, 1) == a]
    assert fixed == list(range(E.q))


def test_norm_is_multiplicative():
    E = get_ext_field(3, 1, 5)
    rng = random.Random(80)
    for _ in range(40):
        a, b = rng.randrange(1, E.order), rng.randrange(1, E.order)
        assert E.norm(E.mul(a, b)) == E.base.mul(E.norm(a), E.norm(b))


def test_gaussian_binomial_against_span_enumeration():
    # q = 2, d = 4: collect distinct spans of all k-subsets of nonzero vectors
    def all_subspaces(d, q, i):
        vecs = list(range(q**d))

        def add(u, v):
            out = 0
            mul = 1
            for _ in range(d):
                out += ((u % q + v % q) % q) * mul
                u //= q
                v //= q
                mul *= q
            return out

        def span(gens):
            s = {0}
            for g in gens:
                cur = list(s)
                acc = g
                for _ in range(1, q):
                    s.update(add(v, acc) for v in cur)
                    acc = add(acc, g)
            return frozenset(s)

        import itertools

        found = set()
        for combo in itertools.combinations(vecs[1:], i):
            sp = span(combo)
            if len(sp) == q**i:
                found.add(sp)
        if i == 0:
            return 1
        return len(found)

    for i in range(5):
        assert gaussian_binomial(4, i, 2) == all_subspaces(4, 2, i)
    for i in (1, 2):
        assert gaussian_binomial(3, i, 3) == all_subspaces(3, 3, i)
    assert gaussian_binomial(5, 1, 3) == 121
    assert gaussian_binomial(5, 2, 3) == 1210
    assert sum(gaussian_binomial(5, i, 3) for i in range(1, 5)) == 2662
    assert sum(gaussian_binomial(3, i, 5) for i in range(1, 3)) == 62
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)


def test_mult_generator_image_order_is_exact():
    E = get_ext_field(3, 1, 5)
    u = mult_generator(E)
    assert u == E.tau_code  # t itself generates the quotient here
    n = (E.order - 1) // (E.q - 1)
    k = 1
    cur = u
    while not E.in_base(cur):
        cur = E.mul(cur, u)
        k += 1
    assert k == n

    # brute-force the smallest valid code and compare
    def image_order(c):
        k, cur = 1, c
        while not E.in_base(cur):
            cur = E.mul(cur, c)
            k += 1
        return k

    expected = next(c for c in range(2, E.order) if not E.in_base(c) and image_order(c) == n)
    assert u == expected


def test_mult_generator_small_fields():
    E9 = ExtField(get_field(3), 2)
    u = mult_generator(E9)
    n = (9 - 1) // 2
    cur, k = u, 1
    while not E9.in_base(cur):
        cur = E9.mul(cur, u)
        k += 1
    assert k == n


def test_extension_over_nonprime_base():
    F4 = get_field(2, 2)
    E16 = ExtField(F4, 2)
    assert E16.order == 16
    rng = random.Random(81)
    for _ in range(50):
        a, b = rng.randrange(16), rng.randrange(16)
        # char 2: squaring is additive
        sq = lambda x: E16.mul(x, x)
        assert sq(E16.add(a, b)) == E16.add(sq(a), sq(b))
        assert E16.frob(a, 1) == E16.pow_(a, 4)
    fixed = [a for a in range(16) if E16.frob(a, 1) == a]
    assert fixed == list(range(4))


def test_np_tables_match_scalar_ops():
    F4 = get_field(2, 2)
    add, mul, inv = F4.np_tables()
    for a in range(4):
        for b in range(4):
            assert add[a, b] == F4.add(a, b)
            assert mul[a, b] == F4.mul(a, b)
        if a:
            assert inv[a] == F4.inv(a)


def test_default_extension_modulus_cases():
    assert default_extension_modulus(get_field(3), 5) == (2, 2, 0, 0, 0, 1)
    m53 = default_extension_modulus(get_field(5), 3)
    assert m53 == (1, 1, 0, 1)
    # degree <= 3: irreducible iff no roots in the base field
    F5 = get_field(5)
    for r in range(5):
        val = (m53[0] + m53[1] * r + m53[2] * r * r + m53[3] * r**3) % 5
        assert val != 0


def test_validation_errors():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(3, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        ExtField(get_field(3), 1)
    with pytest.raises(ZeroDivisionError):
        get_field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        get_ext_field(3, 1, 5).inv(0)


def test_lookup_tables_match_digit_arithmetic():
    # the scalar lookup tables agree with the untabled digit and Poly
    # reduction path, which serves fields past the table sizes
    rng = random.Random(11)
    for fld in (get_field(2, 2), get_field(3, 2), get_field(2, 7),
                get_ext_field(3, 1, 5), get_ext_field(2, 2, 4)):
        assert not {"add", "sub", "neg", "mul", "inv", "pow_"} & vars(fld).keys()
        for _ in range(400):
            a, b = rng.randrange(fld.order), rng.randrange(fld.order)
            e = rng.randrange(-fld.order, 2 * fld.order)
            assert fld.add(a, b) == fld._untabled_add(a, b)
            assert fld.sub(a, b) == fld._untabled_sub(a, b)
            assert fld.neg(a) == fld._untabled_neg(a)
            assert fld.mul(a, b) == fld._untabled_mul(a, b)
            if a:
                assert fld.inv(a) == fld._untabled_inv(a)
                assert fld.pow_(a, e) == fld._untabled_pow(a, e)
            if isinstance(fld, ExtField):
                assert fld.frob(a, 2) == fld._untabled_pow(a, fld.q**2)
        assert fld.pow_(0, 0) == fld._untabled_pow(0, 0) == 1
        assert fld.pow_(0, 3) == fld._untabled_pow(0, 3) == 0


def test_untabled_fields():
    # orders past the table sizes: digit addition and Poly reduction
    rng = random.Random(13)
    for args in ((11, 1, 5), (2, 1, 17), (2, 2, 9)):
        E = get_ext_field(*args)
        assert E.order > 1 << 16 and E.mul == E._untabled_mul and E.add == E._untabled_add
        for _ in range(30):
            a, b, c = (rng.randrange(E.order) for _ in range(3))
            assert E.add(E.add(a, b), c) == E.add(a, E.add(b, c))
            assert E.mul(E.mul(a, b), c) == E.mul(a, E.mul(b, c))
            assert E.mul(a, b) == E.mul(b, a)
            assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
            assert E.add(a, E.neg(a)) == 0 and E.sub(E.add(a, b), b) == a
            assert E.mul(a, 1) == a and E.add(a, 0) == a
            if a:
                assert E.mul(a, E.inv(a)) == 1
                assert E.pow_(a, -2) == E.inv(E.mul(a, a))
            i = rng.randrange(1, E.d)
            assert E.frob(a, i) == E.pow_(a, E.q**i)
            assert E.frob(E.add(a, b), i) == E.add(E.frob(a, i), E.frob(b, i))
        assert [x for x in range(E.q + 3) if E.frob(x, 1) == x] == list(range(E.q))


def test_convolve_is_polynomial_product():
    rng = random.Random(12)
    for fld in (get_field(7), get_field(2, 2), get_ext_field(3, 1, 5)):
        for _ in range(50):
            a = [rng.randrange(fld.order) for _ in range(rng.randint(1, 5))]
            b = [rng.randrange(fld.order) for _ in range(rng.randint(1, 5))]
            ref = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    ref[i + j] = fld.add(ref[i + j], fld.mul(x, y))
            assert fld.convolve(a, b) == ref


def test_getters_share_one_cache_entry():
    assert get_field(2, 2) is get_field(2, 2, None)
    assert get_ext_field(3, 1, 5) is get_ext_field(3, 1, 5, None)
    assert get_ext_field(3, 1, 5, [2, 2, 0, 0, 0, 1]) is get_ext_field(
        3, 1, 5, (2, 2, 0, 0, 0, 1)
    )

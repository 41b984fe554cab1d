"""Tests for polynomial arithmetic over field codes with valuations."""

import random

from cayplex.ffield import get_ext_field, get_field
from cayplex.ratfunc import INF, Poly

F7 = get_field(7)
E243 = get_ext_field(3, 1, 5)


def rand_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(max_deg + 2))])


def test_poly_arith_against_int_polynomials():
    rng = random.Random(101)

    def slow_mul(a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 7
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    for _ in range(100):
        a = rand_poly(rng, F7, 6)
        b = rand_poly(rng, F7, 6)
        assert (a * b).coeffs == slow_mul(a.coeffs, b.coeffs)
        s = a + b
        for k in range(max(len(a.coeffs), len(b.coeffs))):
            assert s.coeff(k) == (a.coeff(k) + b.coeff(k)) % 7
        assert (a - a).is_zero()


def test_poly_divmod_invariant():
    rng = random.Random(102)
    for _ in range(100):
        a = rand_poly(rng, F7, 8)
        b = rand_poly(rng, F7, 4)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_divides_and_is_monic():
    rng = random.Random(103)
    for _ in range(60):
        g = rand_poly(rng, F7, 3)
        if g.is_zero():
            continue
        a = g * rand_poly(rng, F7, 3)
        b = g * rand_poly(rng, F7, 3)
        h = a.gcd(b)
        if h.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert h.lead == 1
        assert (a % h).is_zero() and (b % h).is_zero()
        if not (a.is_zero() or b.is_zero()):
            assert h.degree >= g.degree - (g.degree - g.monic().degree)
            assert (h % g.monic()).is_zero() or g.degree == 0 or not (a % g).is_zero()


def test_poly_valuations_constructed():
    t = Poly.t(F7)
    c = 3
    u = Poly(F7, (2, 0, 5, 1))
    assert u.t_valuation() == 0 and u.root_multiplicity(c) == 0
    f = t * t * t * (t - c) * (t - c) * u
    assert f.t_valuation() == 3
    assert f.root_multiplicity(c) == 2
    assert f.deflate(c, 2).root_multiplicity(c) == 0
    assert f.deflate(0, 3) == (t - c) * (t - c) * u
    assert Poly.zero(F7).t_valuation() == INF
    assert Poly.zero(F7).root_multiplicity(2) == INF


def test_poly_over_extension_field_codes():
    # coefficients are codes of F_243; multiplication goes through tables
    t = Poly.t(E243)
    tau = E243.tau_code
    f = (t - Poly.const(E243, tau)) * (t - Poly.const(E243, E243.frob(tau, 1)))
    assert f.root_multiplicity(tau) == 1
    assert f.root_multiplicity(E243.frob(tau, 1)) == 1


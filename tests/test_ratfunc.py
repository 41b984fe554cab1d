"""Tests for polynomial and rational-function arithmetic with valuations."""

import random

import pytest

from cayplex.ffield import get_ext_field, get_field
from cayplex.ratfunc import INF, Poly, RatFunc

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


def test_poly_eval_horner():
    rng = random.Random(104)
    for _ in range(50):
        a = rand_poly(rng, F7, 6)
        x = rng.randrange(7)
        direct = sum(c * pow(x, i, 7) for i, c in enumerate(a.coeffs)) % 7
        assert a.eval_code(x) == direct


def test_poly_valuations_constructed():
    t = Poly.t(F7)
    c = 3
    u = Poly(F7, (2, 0, 5, 1))
    assert u.eval_code(0) != 0 and u.eval_code(c) != 0
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
    assert f.eval_code(tau) == 0
    assert f.eval_code(E243.frob(tau, 1)) == 0
    assert f.root_multiplicity(tau) == 1


def test_ratfunc_reduction_and_equality():
    t = Poly.t(F7)
    r = RatFunc((t * t - 1), (t - 1))
    assert r == RatFunc(t + 1)
    assert r.num == t + 1 and r.den == Poly.one(F7)
    # denominator normalized monic
    s = RatFunc(t, t.scale(2) + 2)
    assert s.den.lead == 1
    assert s == RatFunc(t.scale(4), t + 1)
    assert hash(s) == hash(RatFunc(t.scale(4), t + 1))


def test_ratfunc_field_axioms_random():
    rng = random.Random(105)
    for _ in range(40):
        a = RatFunc(rand_poly(rng, F7, 3), rand_poly(rng, F7, 2).shift(1) + 1)
        b = RatFunc(rand_poly(rng, F7, 3), rand_poly(rng, F7, 2).shift(1) + 1)
        c = RatFunc(rand_poly(rng, F7, 2), rand_poly(rng, F7, 2).shift(1) + 1)
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a + (-a) == RatFunc(Poly.zero(F7))
    x = RatFunc.t(F7)
    assert x**3 / x == x * x
    assert (1 + x) - x == RatFunc.one(F7)


def test_ratfunc_valuations():
    t = RatFunc.t(E243)
    r = t / (1 + t)
    assert r.valuation_at(0) == 1
    assert r.valuation_at(2) == -1  # code 2 is -1, the root of 1+t
    assert r.valuation_at(1) == 0
    assert r.valuation_infty() == 0
    assert (t * t).valuation_infty() == -2
    assert RatFunc(Poly.zero(E243)).valuation_at(0) == INF
    rng = random.Random(106)
    for _ in range(30):
        a = RatFunc(rand_poly(rng, F7, 3), rand_poly(rng, F7, 2).shift(1) + 1)
        b = RatFunc(rand_poly(rng, F7, 3), rand_poly(rng, F7, 2).shift(1) + 1)
        if a.is_zero() or b.is_zero():
            continue
        for c in (0, 1, 5):
            assert (a * b).valuation_at(c) == a.valuation_at(c) + b.valuation_at(c)
        assert (a * b).valuation_infty() == a.valuation_infty() + b.valuation_infty()


def test_ratfunc_eval_and_poles():
    t = RatFunc.t(F7)
    r = (1 + t) / (t - 2)
    assert r.valuation_at(2) == -1  # a simple pole at t = 2
    assert r.valuation_at(6) == 1  # and a simple zero at t = -1
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.t(F7), Poly.zero(F7))
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.zero(F7)).inverse()
    with pytest.raises(ZeroDivisionError):
        r / (t - t)

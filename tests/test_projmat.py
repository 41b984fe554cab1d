"""Tests for exact matrix ops, projective canonical forms, and the
batched kernel."""

import random

import numpy as np
import pytest

from cayplex import projmat
from cayplex.ffield import get_field
from cayplex.projmat import (
    MatSpace,
    ProjMat,
    canon_rows,
    column_space_rref,
    mat_det,
    mat_eye,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_rref,
    mat_scale,
    mat_transpose,
)

F5 = get_field(5)
F4 = get_field(2, 2)


def rand_mat(rng, F, d):
    return tuple(tuple(rng.randrange(F.q) for _ in range(d)) for _ in range(d))


def rand_invertible(rng, F, d):
    while True:
        A = rand_mat(rng, F, d)
        if mat_det(F, A) != 0:
            return A


def test_mat_mul_against_numpy():
    rng = random.Random(301)
    for _ in range(50):
        d = rng.choice((2, 3, 4))
        A, B = rand_mat(rng, F5, d), rand_mat(rng, F5, d)
        expect = (np.array(A) @ np.array(B)) % 5
        assert mat_mul(F5, A, B) == tuple(tuple(int(x) for x in r) for r in expect)


def test_mat_det_against_numpy():
    rng = random.Random(302)
    for _ in range(50):
        d = rng.choice((2, 3))
        A = rand_mat(rng, F5, d)
        expect = int(round(np.linalg.det(np.array(A, dtype=float)))) % 5
        assert mat_det(F5, A) == expect


def test_mat_inv_and_pow():
    rng = random.Random(303)
    for _ in range(30):
        d = rng.choice((2, 3, 4))
        A = rand_invertible(rng, F5, d)
        assert mat_mul(F5, A, mat_inv(F5, A)) == mat_eye(F5, d)
        assert mat_pow(F5, mat_inv(F5, A), 2) == mat_inv(F5, mat_mul(F5, A, A))
        assert mat_pow(F5, A, 0) == mat_eye(F5, d)
    with pytest.raises(ValueError):
        mat_pow(F5, mat_eye(F5, 2), -1)
    with pytest.raises(ValueError):
        mat_inv(F5, ((1, 2), (2, 4)))
    assert mat_det(F5, ((1, 2), (2, 4))) == 0


def test_rref_and_null_space():
    rng = random.Random(304)
    for _ in range(40):
        d = rng.choice((3, 4, 5))
        A = rand_mat(rng, F5, d)
        rref, pivots = mat_rref(F5, A)
        assert mat_rref(F5, rref)[0] == rref  # idempotent
        # one kernel vector per free column, read off the reduced rows
        for fc in (c for c in range(d) if c not in pivots):
            v = [0] * d
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = F5.neg(rref[r][fc])
            assert mat_mul(F5, A, tuple((x,) for x in v)) == ((0,),) * d


def test_column_space_invariant_under_right_multiplication():
    rng = random.Random(305)
    for _ in range(30):
        A = rand_mat(rng, F5, 4)
        B = rand_invertible(rng, F5, 4)
        assert column_space_rref(F5, A) == column_space_rref(F5, mat_mul(F5, A, B))


def test_projmat_scalar_invariance_and_packing():
    rng = random.Random(306)
    for _ in range(30):
        A = rand_invertible(rng, F5, 3)
        for c in range(1, 5):
            assert ProjMat(F5, A) == ProjMat(F5, mat_scale(F5, A, c))
        m = ProjMat(F5, A)
        ms = MatSpace(F5, 3)
        assert ms.astuples(ms.unpack(np.array([m.packed()])))[0] == m.rows
    with pytest.raises(ValueError):
        ProjMat(F5, ((1, 2), (2, 4)))


def test_projmat_group_ops():
    rng = random.Random(307)
    for _ in range(20):
        A = rand_invertible(rng, F5, 3)
        B = rand_invertible(rng, F5, 3)
        AB = ProjMat(F5, mat_mul(F5, A, B))
        # the class of a product depends only on the classes of its factors
        assert AB == ProjMat(F5, mat_mul(F5, ProjMat(F5, A).rows, ProjMat(F5, B).rows))
        assert canon_rows(F5, mat_mul(F5, AB.rows, mat_inv(F5, AB.rows))) == mat_eye(F5, 3)
        assert ProjMat(F5, A) ** 3 == ProjMat(F5, mat_mul(F5, mat_mul(F5, A, A), A))


def test_matspace_prime_field_matches_tuples():
    rng = random.Random(308)
    ms = MatSpace(F5, 3)
    mats_a = [rand_mat(rng, F5, 3) for _ in range(40)]
    mats_b = [rand_mat(rng, F5, 3) for _ in range(40)]
    A, B = ms.asbatch(mats_a), ms.asbatch(mats_b)
    C = ms.mul(A, B)
    for i in range(40):
        assert ms.astuples(C[i : i + 1])[0] == mat_mul(F5, mats_a[i], mats_b[i])


def test_matspace_table_field_matches_tuples():
    rng = random.Random(309)
    ms = MatSpace(F4, 2)
    mats_a = [rand_mat(rng, F4, 2) for _ in range(30)]
    mats_b = [rand_mat(rng, F4, 2) for _ in range(30)]
    C = ms.mul(ms.asbatch(mats_a), ms.asbatch(mats_b))
    for i in range(30):
        assert ms.astuples(C[i : i + 1])[0] == mat_mul(F4, mats_a[i], mats_b[i])


def test_matspace_canon_matches_scalar_canon():
    rng = random.Random(310)
    for F, d in ((F5, 3), (F4, 2)):
        ms = MatSpace(F, d)
        mats = [rand_invertible(rng, F, d) for _ in range(25)]
        C = ms.canon(ms.asbatch(mats))
        inv = ms.inverse(ms.asbatch(mats))
        for i, m in enumerate(mats):
            assert ms.astuples(C[i : i + 1])[0] == canon_rows(F, m)
            assert ms.astuples(inv[i : i + 1])[0] == canon_rows(F, mat_inv(F, m))


def test_matspace_pack_roundtrip_and_bigint_agreement():
    rng = random.Random(311)
    ms = MatSpace(F5, 3)
    mats = [rand_mat(rng, F5, 3) for _ in range(25)]
    batch = ms.asbatch(mats)
    keys = ms.pack(batch)
    back = ms.unpack(keys)
    assert np.array_equal(back, batch)
    for i, m in enumerate(mats):
        assert int(keys[i]) == ms.packed_of(m)
        if mat_det(F5, m) != 0:
            assert ms.packed_of(canon_rows(F5, m)) == ProjMat(F5, m).packed()


def test_matspace_byte_keys_when_int64_overflows():
    F3 = get_field(3)
    ms = MatSpace(F3, 7)  # 3^49 does not fit in int64
    assert not ms.packable
    rng = random.Random(312)
    mats = [rand_mat(rng, F3, 7) for _ in range(10)]
    batch = ms.asbatch(mats + mats)
    keys = ms.pack(batch)
    assert len(np.unique(keys)) == len({m for m in mats})
    assert np.array_equal(ms.unpack(keys), batch)


def _repeat_tile_products(ms, A, O):
    """Reference for right_products: every pair by repeat/tile, then the
    batched mul and canon."""
    r = O.shape[0]
    return ms.canon(ms.mul(np.repeat(A, r, axis=0), np.tile(O, (A.shape[0], 1, 1))))


@pytest.mark.parametrize(
    "F, d, gemm",
    [
        (F5, 3, True),
        # 3 * 2356^2 < 2^24: float32 GEMM with products far above 255
        (get_field(2357), 3, True),
        # above the GEMM bound: exact int64 matmul
        (get_field(4099), 3, False),
        (F4, 3, False),
        (get_field(3, 2), 2, False),
    ],
)
def test_right_products_match_repeat_tile(F, d, gemm):
    rng = random.Random(313 + F.q)
    ms = MatSpace(F, d)
    assert ms._gemm_ok == gemm
    A = ms.asbatch([rand_invertible(rng, F, d) for _ in range(37)])
    O = ms.asbatch([rand_invertible(rng, F, d) for _ in range(11)])
    want = _repeat_tile_products(ms, A, O)
    # small blocks cross block boundaries inside one call
    for rows in (1 << 18, 40, 1):
        got = ms.right_products(A, O, rows_per_block=rows)
        assert got.dtype == ms.dtype
        assert np.array_equal(got, want)
    for i, j in ((0, 0), (36, 10), (17, 4)):
        expect = canon_rows(F, mat_mul(F, ms.astuples(A[i : i + 1])[0],
                                       ms.astuples(O[j : j + 1])[0]))
        assert ms.astuples(got[i * 11 + j : i * 11 + j + 1])[0] == expect


def test_right_products_exact_at_gemm_bound():
    # every entry of the integer product is 3 * 2356^2 = 16652208, just
    # under 2^24, and reduces to 3 mod 2357; canonically all ones
    F = get_field(2357)
    ms = MatSpace(F, 3)
    assert ms._gemm_ok
    full = np.full((2, 3, 3), 2356, dtype=ms.dtype)
    got = ms.right_products(full, full)
    assert np.array_equal(got, np.ones((4, 3, 3), dtype=ms.dtype))


def _key_products_case(F, d, seed, m=50, r=9):
    rng = random.Random(seed)
    ms = MatSpace(F, d)
    O = ms.canon(ms.asbatch([rand_invertible(rng, F, d) for _ in range(r)]))
    A = ms.asbatch([rand_invertible(rng, F, d) for _ in range(m)])
    return ms, O, ms.pack(A)


@pytest.mark.parametrize(
    "F, d",
    [(F5, 3), (get_field(3), 5), (F4, 2), (F4, 4), (get_field(3, 2), 2)],
)
def test_key_products_match_right_products(F, d):
    ms, O, keys = _key_products_case(F, d, 401 + F.q * d)
    want = ms.pack(ms.right_products(ms.unpack(keys), O))
    products = ms.key_products(O)
    assert np.array_equal(products(keys), want)
    # blocks of any size, the empty one included
    for lo, hi in ((0, 0), (0, 1), (17, 50)):
        assert np.array_equal(products(keys[lo:hi]), want[lo * 9 : hi * 9])


def test_key_products_fallback_paths(monkeypatch):
    # tables above the bound: the right_products path, same keys
    ms, O, keys = _key_products_case(get_field(3), 5, 402)
    want = ms.key_products(O)(keys)
    monkeypatch.setattr(projmat, "_ROW_TABLE_MAX", 0)
    assert np.array_equal(ms.key_products(O)(keys), want)
    # 3^49 does not fit int64: byte keys, against products of the tuples
    ms, O, keys = _key_products_case(get_field(3), 7, 403, m=6, r=3)
    assert not ms.packable
    got = ms.unpack(ms.key_products(O)(keys))
    A, Ot = ms.astuples(ms.unpack(keys)), ms.astuples(O)
    want = [canon_rows(ms.F, mat_mul(ms.F, a, o)) for a in A for o in Ot]
    assert ms.astuples(got) == want


@pytest.mark.parametrize("table_max", [1 << 22, 0])
def test_key_products_rejects_zero_first_row(monkeypatch, table_max):
    monkeypatch.setattr(projmat, "_ROW_TABLE_MAX", table_max)
    for F, d in ((F5, 3), (F4, 2)):
        ms, O, keys = _key_products_case(F, d, 404)
        A = ms.unpack(keys)
        A[7, 0, :] = 0  # singular, first row zero
        with pytest.raises(ValueError, match="zero first row"):
            ms.key_products(O)(ms.pack(A))

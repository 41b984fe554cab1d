"""Tests for the batched matrix kernel against a minimal exact tuple
oracle kept here."""

import random

import numpy as np
import pytest

from cayplex import projmat
from cayplex.ffield import get_field
from cayplex.projmat import MatSpace

F5 = get_field(5)
F4 = get_field(2, 2)


# ---------------------------------------------------------------------------
# Oracle: matrices as row tuples of codes, one entry at a time
# ---------------------------------------------------------------------------


def mat_eye(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_mul(F, A, B):
    out = []
    for row in A:
        orow = []
        for col in zip(*B):
            acc = 0
            for a, b in zip(row, col):
                acc = F.add(acc, F.mul(a, b))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_rref(F, A, cols=None):
    """(reduced rows, pivot columns), pivots sought in the first ``cols``
    columns; zero rows are kept at the bottom."""
    rows = [list(r) for r in A]
    cols = len(rows[0]) if cols is None else cols
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        il = F.inv(rows[r][c])
        rows[r] = [F.mul(x, il) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(map(tuple, rows)), tuple(pivots)


def mat_det(F, A):
    """Determinant by cofactor expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    out = 0
    for j, a in enumerate(A[0]):
        minor = tuple(row[:j] + row[j + 1 :] for row in A[1:])
        term = F.mul(a, mat_det(F, minor))
        out = F.add(out, term) if j % 2 == 0 else F.sub(out, term)
    return out


def mat_inv(F, A):
    d = len(A)
    rows, pivots = mat_rref(F, [tuple(r) + e for r, e in zip(A, mat_eye(d))], d)
    if len(pivots) != d:
        raise ValueError("matrix is singular")
    return tuple(row[d:] for row in rows)


def mat_pow(F, A, e):
    out = mat_eye(len(A))
    for _ in range(e):
        out = mat_mul(F, out, A)
    return out


def canon_rows(F, A):
    """Scale so the first nonzero entry in row-major order equals 1."""
    lead = next(x for row in A for x in row if x)
    il = F.inv(lead)
    return tuple(tuple(F.mul(x, il) for x in row) for row in A)


def packed_of(q, rows):
    """Big-int packed value of one matrix given as rows of codes: the
    reference for ``MatSpace.pack`` (radix q, row-major, entry (0,0)
    the lowest digit)."""
    out = 0
    for row in reversed(rows):
        for x in reversed(row):
            out = out * q + int(x)
    return out


def tuples(batch):
    return [tuple(map(tuple, m)) for m in batch.tolist()]


def rand_mat(rng, F, d, cols=None):
    return tuple(tuple(rng.randrange(F.q) for _ in range(cols or d)) for _ in range(d))


def rand_invertible(rng, F, d):
    while True:
        A = rand_mat(rng, F, d)
        if mat_det(F, A) != 0:
            return A


def rand_rank(rng, F, d, rank):
    """A d x d matrix of rank at most ``rank``: a product through F^rank."""
    return mat_mul(F, rand_mat(rng, F, d, rank), rand_mat(rng, F, rank, d))


# ---------------------------------------------------------------------------
# The oracle itself
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Gauss-Jordan, inverses and powers
# ---------------------------------------------------------------------------


def test_mat_inv_and_pow():
    rng = random.Random(303)
    for d in (2, 3, 4):
        ms = MatSpace(F5, d)
        mats = [rand_invertible(rng, F5, d) for _ in range(10)]
        A = ms.asbatch(mats)
        assert tuples(ms.inverse(A)) == [canon_rows(F5, mat_inv(F5, m)) for m in mats]
        assert np.array_equal(ms.canon(ms.mul(A, ms.inverse(A))), ms.identity_batch(10))
        for e in (0, 1, 2, 5):
            assert tuples(ms.power(A, e)) == [mat_pow(F5, m, e) for m in mats]
    with pytest.raises(ValueError):
        ms.power(A, -1)
    with pytest.raises(ValueError, match="matrix 1 of the batch is singular"):
        MatSpace(F5, 2).inverse(np.array([[[1, 0], [0, 1]], [[1, 2], [2, 4]]], dtype=np.uint8))


def test_rref_and_null_space():
    rng = random.Random(304)
    for d in (3, 4, 5):
        ms = MatSpace(F5, d)
        mats = [rand_mat(rng, F5, d) for _ in range(8)]
        mats += [rand_rank(rng, F5, d, r) for r in range(1, d)]
        R, rank = ms.rref(ms.asbatch(mats))
        again, _ = ms.rref(R)
        assert np.array_equal(again, R)  # idempotent
        for A, rows, rk in zip(mats, tuples(R), rank.tolist()):
            want, pivots = mat_rref(F5, A)
            assert rows == want and rk == len(pivots)
            # one kernel vector per free column, read off the reduced rows
            for fc in (c for c in range(d) if c not in pivots):
                v = [0] * d
                v[fc] = 1
                for r, pc in enumerate(pivots):
                    v[pc] = F5.neg(rows[r][fc])
                assert mat_mul(F5, A, tuple((x,) for x in v)) == ((0,),) * d


@pytest.mark.parametrize("F", [F5, get_field(7), F4, get_field(3, 2)])
def test_matspace_rref_inverse_power_match_oracle(F):
    rng = random.Random(320 + F.q)
    d = 3
    ms = MatSpace(F, d)
    square = [rand_mat(rng, F, d) for _ in range(12)]
    square += [rand_rank(rng, F, d, r) for r in (1, 2)] + [((0,) * d,) * d]
    R, rank = ms.rref(ms.asbatch(square))
    want = [mat_rref(F, A) for A in square]
    assert tuples(R) == [rows for rows, _ in want]
    assert rank.tolist() == [len(piv) for _, piv in want]
    assert ms.singular(ms.asbatch(square)).tolist() == [mat_det(F, A) == 0 for A in square]
    # d x 2d inputs, with pivots sought everywhere and in the left half
    wide = [rand_mat(rng, F, d, 2 * d) for _ in range(12)]
    wide.append(tuple(row + (0,) * d for row in rand_rank(rng, F, d, 1)))
    for cols in (None, d):
        R, rank = ms.rref(ms.asbatch(wide), cols)
        want = [mat_rref(F, A, cols) for A in wide]
        assert tuples(R) == [rows for rows, _ in want]
        assert rank.tolist() == [len(piv) for _, piv in want]
    inv = [A for A in square if mat_det(F, A)]
    A = ms.asbatch(inv)
    assert tuples(ms.inverse(A)) == [canon_rows(F, mat_inv(F, m)) for m in inv]
    assert tuples(ms.power(A, 4)) == [mat_pow(F, m, 4) for m in inv]
    with pytest.raises(ValueError, match="singular"):
        ms.inverse(ms.asbatch(square))


def test_column_space_invariant_under_right_multiplication():
    rng = random.Random(305)
    ms = MatSpace(F5, 4)
    A = ms.asbatch([rand_rank(rng, F5, 4, rng.randrange(1, 5)) for _ in range(30)])
    B = ms.asbatch([rand_invertible(rng, F5, 4) for _ in range(30)])
    # the column space is the row space of the transpose
    left, rank = ms.rref(A.transpose(0, 2, 1))
    right, rank_ab = ms.rref(ms.mul(A, B).transpose(0, 2, 1))
    assert np.array_equal(left, right) and np.array_equal(rank, rank_ab)


# ---------------------------------------------------------------------------
# Projective classes and packing
# ---------------------------------------------------------------------------


def test_projmat_scalar_invariance_and_packing():
    rng = random.Random(306)
    ms = MatSpace(F5, 3)
    A = ms.asbatch([rand_invertible(rng, F5, 3) for _ in range(30)])
    C = ms.canon(A)
    for c in range(1, 5):
        assert np.array_equal(ms.canon(ms.mul(A, ms.identity_batch(1) * c)), C)
    assert np.array_equal(ms.unpack(ms.pack(C)), C)
    with pytest.raises(ValueError, match="no projective class"):
        ms.canon(np.zeros((1, 3, 3), dtype=ms.dtype))


def test_projmat_group_ops():
    rng = random.Random(307)
    ms = MatSpace(F5, 3)
    A = ms.asbatch([rand_invertible(rng, F5, 3) for _ in range(20)])
    B = ms.asbatch([rand_invertible(rng, F5, 3) for _ in range(20)])
    AB = ms.canon(ms.mul(A, B))
    # the class of a product depends only on the classes of its factors
    assert np.array_equal(ms.canon(ms.mul(ms.canon(A), ms.canon(B))), AB)
    assert np.array_equal(ms.canon(ms.mul(AB, ms.inverse(AB))), ms.identity_batch(20))
    assert np.array_equal(ms.canon(ms.power(A, 3)), ms.canon(ms.mul(ms.mul(A, A), A)))


def test_matspace_prime_field_matches_tuples():
    rng = random.Random(308)
    ms = MatSpace(F5, 3)
    mats_a = [rand_mat(rng, F5, 3) for _ in range(40)]
    mats_b = [rand_mat(rng, F5, 3) for _ in range(40)]
    C = ms.mul(ms.asbatch(mats_a), ms.asbatch(mats_b))
    assert tuples(C) == [mat_mul(F5, a, b) for a, b in zip(mats_a, mats_b)]


def test_matspace_table_field_matches_tuples():
    rng = random.Random(309)
    ms = MatSpace(F4, 2)
    mats_a = [rand_mat(rng, F4, 2) for _ in range(30)]
    mats_b = [rand_mat(rng, F4, 2) for _ in range(30)]
    C = ms.mul(ms.asbatch(mats_a), ms.asbatch(mats_b))
    assert tuples(C) == [mat_mul(F4, a, b) for a, b in zip(mats_a, mats_b)]


def test_matspace_canon_matches_scalar_canon():
    rng = random.Random(310)
    for F, d in ((F5, 3), (F4, 2)):
        ms = MatSpace(F, d)
        mats = [rand_invertible(rng, F, d) for _ in range(25)]
        assert tuples(ms.canon(ms.asbatch(mats))) == [canon_rows(F, m) for m in mats]


def test_matspace_pack_roundtrip_and_bigint_agreement():
    rng = random.Random(311)
    ms = MatSpace(F5, 3)
    mats = [rand_mat(rng, F5, 3) for _ in range(25)]
    batch = ms.asbatch(mats)
    keys = ms.pack(batch)
    back = ms.unpack(keys)
    assert np.array_equal(back, batch)
    for i, m in enumerate(mats):
        assert int(keys[i]) == packed_of(ms.q, m)


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


def test_inverse_index_matches_dict():
    """``inverse_index`` gives the index of each matrix's projective
    inverse, against a dict of canonical row tuples, and -1 where the
    batch lacks it: on int64 keys (F_5, d=3) and on byte keys (F_3,
    d=7)."""
    rng = random.Random(313)
    for F, d in ((F5, 3), (get_field(3), 7)):
        ms = MatSpace(F, d)
        mats = [canon_rows(F, rand_invertible(rng, F, d)) for _ in range(6)]
        mats += [canon_rows(F, mat_inv(F, m)) for m in mats[:3]]
        rng.shuffle(mats)
        index = {m: i for i, m in enumerate(mats)}
        assert len(index) == len(mats)
        want = [index.get(canon_rows(F, mat_inv(F, m)), -1) for m in mats]
        assert sorted(want).count(-1) == 3
        assert ms.inverse_index(ms.asbatch(mats)).tolist() == want


def _repeat_tile_products(ms, A, O):
    """Reference for key_products: every pair A[i] @ O[j], row-major in
    (i, j), by one broadcast mul, then canon."""
    d = ms.d
    return ms.canon(ms.mul(A[:, None], O[None]).reshape(-1, d, d))


def test_mul_exact_at_gemm_bound():
    # every entry of the integer product is 3 * 2356^2 = 16652208, just
    # under 2^24 (so float32 GEMM), and reduces to 3 mod 2357;
    # canonically all ones
    F = get_field(2357)
    ms = MatSpace(F, 3)
    assert 3 * 2356**2 < projmat._GEMM_MANTISSA
    full = np.full((2, 3, 3), 2356, dtype=ms.dtype)
    assert np.array_equal(ms.mul(full, full), np.full((2, 3, 3), 3, dtype=ms.dtype))
    got = _repeat_tile_products(ms, full, full)
    assert np.array_equal(got, np.ones((4, 3, 3), dtype=ms.dtype))


def _key_products_case(F, d, seed, m=50, r=9):
    rng = random.Random(seed)
    ms = MatSpace(F, d)
    O = ms.canon(ms.asbatch([rand_invertible(rng, F, d) for _ in range(r)]))
    A = ms.asbatch([rand_invertible(rng, F, d) for _ in range(m)])
    return ms, O, ms.pack(A)


@pytest.mark.parametrize(
    "F, d, tables",
    [
        (F5, 3, True),
        (get_field(3), 5, True),
        (F4, 2, True),
        (F4, 3, True),
        (F4, 4, True),
        (get_field(3, 2), 2, True),
        # packable keys with the tables switched off: the fallback's mul
        # over a prime field and over a table field
        (F5, 3, "off"),
        (get_field(3, 2), 2, "off"),
        # 3 * 2356^2 < 2^24: the fallback's mul is a float32 GEMM with
        # products far above 255
        (get_field(2357), 3, False),
        # above the GEMM bound: the fallback's mul is exact int64 matmul
        (get_field(4099), 3, False),
        # q * q^d = 17^4 >= 2^15: int32 row tables
        (get_field(17), 3, True),
        # q * q^d = 2^15 exactly: the first int32 width over F_32
        (get_field(2, 5), 2, True),
    ],
    ids=[
        "q5-d3",
        "q3-d5",
        "q4-d2",
        "q4-d3",
        "q4-d4",
        "q9-d2",
        "q5-d3-fallback",
        "q9-d2-fallback",
        "q2357-d3",
        "q4099-d3",
        "q17-d3-int32",
        "q32-d2-int32",
    ],
)
def test_key_products_match_mul(monkeypatch, F, d, tables):
    ms, O, keys = _key_products_case(F, d, 401 + F.q * d)
    if tables == "off":
        assert ms.row_tables(9)
        monkeypatch.setattr(projmat, "_ROW_TABLE_MAX", 0)
        tables = False
    assert ms.row_tables(9) == tables
    want = ms.pack(_repeat_tile_products(ms, ms.unpack(keys), O))
    # fallback blocks of 4 and of 1 keys cross block boundaries in a call
    for block in (projmat._PRODUCT_BLOCK, 40, 1):
        monkeypatch.setattr(projmat, "_PRODUCT_BLOCK", block)
        products = ms.key_products(O)
        got = products(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # blocks of any size, the empty one included
        for lo, hi in ((0, 0), (0, 1), (17, 50)):
            assert np.array_equal(products(keys[lo:hi]), want[lo * 9 : hi * 9])
        if ms.packable:
            ids = ms.key_products(O, ids=True)(keys)
            assert ids.dtype == np.int64
            assert np.array_equal(ids, ms.point_ids(want))
        else:
            with pytest.raises(ValueError, match="int64 packed keys"):
                ms.key_products(O, ids=True)
    A, Ot, got = tuples(ms.unpack(keys)), tuples(O), tuples(ms.unpack(got))
    for i, j in ((0, 0), (49, 8), (17, 4)):
        assert got[i * 9 + j] == canon_rows(F, mat_mul(F, A[i], Ot[j]))


def test_key_products_fallback_paths(monkeypatch):
    # tables above the bound: the blocks of mul, same keys
    ms, O, keys = _key_products_case(get_field(3), 5, 402)
    want = ms.key_products(O)(keys)
    monkeypatch.setattr(projmat, "_ROW_TABLE_MAX", 0)
    assert np.array_equal(ms.key_products(O)(keys), want)
    # 3^49 does not fit int64: byte keys, against products of the tuples
    ms, O, keys = _key_products_case(get_field(3), 7, 403, m=6, r=3)
    assert not ms.packable
    got = ms.unpack(ms.key_products(O)(keys))
    A, Ot = tuples(ms.unpack(keys)), tuples(O)
    want = [canon_rows(ms.F, mat_mul(ms.F, a, o)) for a in A for o in Ot]
    assert tuples(got) == want


def test_row_table_width_follows_the_data():
    """The row tables of key_products are int16 while every entry, below
    q * q^d, fits it, and int32 from q * q^d = 2^15 on."""
    widths = {(5, 3): np.int16, (3, 5): np.int16, (31, 2): np.int16,
              (13, 3): np.int16, (32, 2): np.int32, (17, 3): np.int32}
    for (q, d), dtype in widths.items():
        assert (q ** (d + 1) < 1 << 15) == (dtype is np.int16)
        assert projmat._row_table_dtype(q, d) is dtype


@pytest.mark.parametrize("table_max", [1 << 22, 0])
def test_key_products_rejects_zero_first_row(monkeypatch, table_max):
    """On the row tables of either width and on the fallback, for keys
    and for point ids."""
    monkeypatch.setattr(projmat, "_ROW_TABLE_MAX", table_max)
    for F, d in ((F5, 3), (F4, 2), (get_field(17), 3)):
        ms, O, keys = _key_products_case(F, d, 404)
        A = ms.unpack(keys)
        A[7, 0, :] = 0  # singular, first row zero
        for ids in (False, True):
            with pytest.raises(ValueError, match="zero first row"):
                ms.key_products(O, ids=ids)(ms.pack(A))


@pytest.mark.parametrize(
    "F, d", [(get_field(2), 3), (get_field(3), 2), (F4, 2), (get_field(3, 2), 2)],
    ids=["q2-d3", "q3-d2", "q4-d2", "q9-d2"],
)
def test_point_ids_invert_packed_keys(F, d):
    """Over all q^(d*d) matrices, the canonical ones with a nonzero first
    row (every canonical nonsingular one among them) take the point ids
    0..points * q^(d*(d-1)) - 1, each once, and ``point_keys`` gives
    their keys back."""
    ms = MatSpace(F, d)
    q = F.q
    mats = ms.unpack(np.arange(1, q ** (d * d), dtype=np.int64))
    mats = mats[(ms.canon(mats) == mats).all(axis=(1, 2)) & mats[:, 0].any(axis=1)]
    keys = ms.pack(mats)
    assert ms.points == (q**d - 1) // (q - 1)
    assert len(keys) == ms.id_count == ms.points * q ** (d * (d - 1))
    ids = ms.point_ids(keys)
    assert ids.dtype == np.int64
    assert np.array_equal(np.sort(ids), np.arange(ms.id_count))
    assert np.array_equal(ms.point_keys(ids), keys)

"""Matrices over finite fields: exact tuple arithmetic, canonical
projective forms, packed encodings, and a vectorized batch kernel.

Two layers with one convention.  The tuple layer works on immutable
row-tuples of field codes and is exact for any supported field; it backs
the cold paths (inverses, echelon forms, determinants).  ``MatSpace``
carries batches of matrices as numpy arrays of codes for the hot paths
(group multiplication, canonicalization, packed hashing); over a prime
field it multiplies through float32 GEMM when the products provably fit
in the 24-bit mantissa, falling back to exact integer matmul otherwise,
and over a non-prime field it goes through dense lookup tables.  The
closure and ball products skip matrices altogether: ``key_products``
maps packed keys to packed product keys through row tables.

Packed encoding: row-major entry codes are digits of a radix-q integer,
entry (0,0) contributing the lowest digit.  The big-int form (``ProjMat
.packed``) and the batch int64 form (``MatSpace.pack``) agree whenever
the latter is available.
"""

from __future__ import annotations

import numpy as np

from cayplex.ffield import Field

__all__ = [
    "mat_eye",
    "mat_transpose",
    "mat_add",
    "mat_scale",
    "mat_mul",
    "mat_pow",
    "mat_det",
    "mat_inv",
    "mat_rref",
    "column_space_rref",
    "canon_rows",
    "ProjMat",
    "MatSpace",
]


# ---------------------------------------------------------------------------
# Exact tuple-matrix layer (rows of field codes)
# ---------------------------------------------------------------------------


def mat_eye(F, d: int):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_transpose(A):
    return tuple(zip(*A))


def mat_add(F, A, B):
    return tuple(
        tuple(F.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_scale(F, A, c: int):
    return tuple(tuple(F.mul(a, c) for a in row) for row in A)


def mat_mul(F, A, B):
    Bt = tuple(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in Bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_pow(F, A, e: int):
    """A^e for e >= 0."""
    if e < 0:
        raise ValueError("mat_pow takes an exponent >= 0")
    out = mat_eye(F, len(A))
    while e:
        if e & 1:
            out = mat_mul(F, out, A)
        A = mat_mul(F, A, A)
        e >>= 1
    return out


def _eliminate(F, rows, width):
    """In-place forward elimination to reduced row echelon form; returns
    (pivot column list, determinant-of-left-square accumulator)."""
    nrows = len(rows)
    pivots = []
    det = 1
    r = 0
    for c in range(width):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = F.neg(det)
        lead = rows[r][c]
        det = F.mul(det, lead)
        il = F.inv(lead)
        rows[r] = [F.mul(x, il) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, det


def mat_det(F, A):
    d = len(A)
    rows = [list(r) for r in A]
    pivots, det = _eliminate(F, rows, d)
    return det if len(pivots) == d else 0


def mat_inv(F, A):
    d = len(A)
    rows = [list(r) + [1 if i == j else 0 for j in range(d)] for i, r in enumerate(A)]
    pivots, _ = _eliminate(F, rows, d)
    if len(pivots) != d:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[d:]) for row in rows)


def mat_rref(F, A):
    rows = [list(r) for r in A]
    pivots, _ = _eliminate(F, rows, len(A[0]) if A else 0)
    rows = [tuple(r) for r in rows if any(r)]
    return tuple(rows), tuple(pivots)


def column_space_rref(F, A):
    """Canonical form of the column space: RREF rows spanning it.

    Subspaces compare equal iff these tuples compare equal.
    """
    rref, _ = mat_rref(F, mat_transpose(A))
    return rref


def canon_rows(F, A):
    """Projective canonical form: scale so the first nonzero entry in
    row-major order equals 1."""
    for row in A:
        for x in row:
            if x:
                if x == 1:
                    return tuple(tuple(r) for r in A)
                return mat_scale(F, A, F.inv(x))
    raise ValueError("zero matrix has no projective class")


class ProjMat:
    """Canonical representative of a projective class of nonsingular
    matrices over F_q (scalars = F_q^x, the full center of GL_d(F_q))."""

    __slots__ = ("F", "rows")

    def __init__(self, F, rows, *, _canonical=False):
        if not _canonical:
            rows = canon_rows(F, rows)
            if mat_det(F, rows) == 0:
                raise ValueError("projective matrices must be nonsingular")
        self.F = F
        self.rows = rows

    def packed(self) -> int:
        q = self.F.q
        out = 0
        for row in reversed(self.rows):
            for x in reversed(row):
                out = out * q + x
        return out

    def __pow__(self, e: int) -> ProjMat:
        return ProjMat(self.F, mat_pow(self.F, self.rows, e))

    def __eq__(self, other):
        return (
            isinstance(other, ProjMat)
            and self.F == other.F
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.F, self.rows))

    def __repr__(self):
        return f"ProjMat({self.rows})"


# ---------------------------------------------------------------------------
# Batched kernel
# ---------------------------------------------------------------------------

_GEMM_MANTISSA = 1 << 24
# products per float32 GEMM (or table product) inside right_products
_PRODUCT_BLOCK = 1 << 18
# largest (r + d*q) * q^d table entries of the key_products row tables
_ROW_TABLE_MAX = 1 << 22


class MatSpace:
    """Vectorized operations on batches of d x d matrices over F_q.

    Batches are numpy arrays of shape (n, d, d) holding codes.  All
    operations are exact; the float32 GEMM path is used only when
    d*(q-1)^2 provably fits the mantissa.
    """

    def __init__(self, F, d: int):
        self.F = F
        self.d = d
        self.q = F.q
        # batches of codes are stored compactly; int64 only in transit
        self.dtype = np.uint8 if F.q < 256 else np.int32
        if F.f == 1:
            self._tables = None
            self._gemm_ok = d * (F.p - 1) ** 2 < _GEMM_MANTISSA
            inv = np.zeros(F.p, dtype=np.int64)
            for a in range(1, F.p):
                inv[a] = F.inv(a)
            self._inv_table = inv
        else:
            add_t, mul_t, inv_t = F.np_tables()
            self._tables = (
                add_t.astype(np.int64),
                mul_t.astype(np.int64),
            )
            self._inv_table = inv_t.astype(np.int64)
            self._gemm_ok = False
        if self.dtype == np.uint8:
            # canon scales by a q x q product table: row offsets of the
            # inverse of each possible leading entry, then one flat take
            q = self.q
            if self._tables is None:
                prod = np.arange(q)[:, None] * np.arange(q)[None, :] % q
            else:
                prod = self._tables[1]
            self._mul_u8 = prod.astype(np.uint8).ravel()
            self._scale_row = (self._inv_table * q).astype(np.uint16)
        # packed int64 keys need q^(d*d) to fit; otherwise raw-byte keys
        self.packable = self.q ** (d * d) < (1 << 63)

    # -- conversions ------------------------------------------------------

    def asbatch(self, mats) -> np.ndarray:
        """Stack an iterable of row-tuple matrices into a batch array."""
        arr = np.array(list(mats), dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        return arr

    def astuples(self, batch: np.ndarray):
        return [tuple(tuple(int(x) for x in row) for row in m) for m in batch]

    def identity_batch(self, n: int) -> np.ndarray:
        out = np.zeros((n, self.d, self.d), dtype=self.dtype)
        idx = np.arange(self.d)
        out[:, idx, idx] = 1
        return out

    # -- arithmetic ---------------------------------------------------------

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Batched matrix product (broadcasting over the batch axis)."""
        if self._tables is None:
            p = self.F.p
            if self._gemm_ok:
                C = np.matmul(A.astype(np.float32), B.astype(np.float32))
                return (C.astype(np.int64) % p).astype(self.dtype)
            C = np.matmul(A.astype(np.int64), B.astype(np.int64)) % p
            return C.astype(self.dtype)
        add_t, mul_t = self._tables

        def term(k):
            a = A[..., :, k, None].astype(np.int64)
            return mul_t[a, B[..., None, k, :].astype(np.int64)]

        out = term(0)
        for k in range(1, self.d):
            out = add_t[out, term(k)]
        return out.astype(self.dtype)

    def canon(self, A: np.ndarray) -> np.ndarray:
        """Batched projective canonicalization (first nonzero row-major
        entry scaled to 1)."""
        n = A.shape[0]
        flat = A.reshape(n, -1)
        first = np.argmax(flat != 0, axis=1)
        lead = flat[np.arange(n), first]
        if np.any(lead == 0):
            raise ValueError("zero matrix has no projective class")
        if self.dtype == np.uint8:
            # indexing (unlike take) reads the uint16 indices without an
            # intp copy of them
            idx = self._scale_row[lead][:, None] + flat
            return self._mul_u8[idx].reshape(A.shape)
        scale = self._inv_table[lead]
        if self._tables is None:
            out = (A.astype(np.int64) * scale[:, None, None]) % self.F.p
            return out.astype(self.dtype)
        _, mul_t = self._tables
        return mul_t[A.astype(np.int64), scale[:, None, None]].astype(self.dtype)

    def inverse(self, A: np.ndarray) -> np.ndarray:
        """Canonical projective inverses of a batch of nonsingular
        matrices, each by exact ``mat_inv``."""
        return self.canon(self.asbatch([mat_inv(self.F, m) for m in self.astuples(A)]))

    def right_products(self, A: np.ndarray, O: np.ndarray,
                       rows_per_block: int = _PRODUCT_BLOCK) -> np.ndarray:
        """Canonical products A[i] @ O[j] for every pair, row-major in
        (i, j): a batch of shape (m * r, d, d).

        Over a prime field within the GEMM bound each block of A is one
        float32 product (m, d*d) @ (d*d, r*d*d) against the block-diagonal
        stack of the O[j], whose rows come out already in (i, j, row, col)
        order; the residues are taken exactly in float32 and cast after
        reduction.  Other fields broadcast ``mul`` over the (i, j) grid.
        Blocks of about ``rows_per_block`` products bound the temporaries.
        """
        m, r, d = A.shape[0], O.shape[0], self.d
        out = np.empty((m * r, d, d), dtype=self.dtype)
        step = max(1, rows_per_block // max(r, 1))
        if self._gemm_ok:
            p = np.float32(self.F.p)
            # W[(a, k), (j, a, l)] = O[j, k, l]
            W = np.zeros((d, d, r, d, d), dtype=np.float32)
            Ot = O.transpose(1, 0, 2)
            for a in range(d):
                W[a, :, :, a, :] = Ot
            W = W.reshape(d * d, r * d * d)
        for i0 in range(0, m, step):
            i1 = min(m, i0 + step)
            block = A[i0:i1]
            if self._gemm_ok:
                # for integers x < 2^24 the float32 quotient x / p errs by
                # less than 1/p, so its floor is exact and so is the residue
                C = block.reshape(i1 - i0, d * d).astype(np.float32) @ W
                t = np.divide(C, p)
                np.floor(t, out=t)
                t *= -p
                t += C
                P = t.astype(self.dtype).reshape(-1, d, d)
                del C, t
            else:
                P = self.mul(block[:, None], O[None]).reshape(-1, d, d)
            out[i0 * r : i1 * r] = self.canon(P)
        return out

    def key_products(self, O: np.ndarray):
        """A function from a block of packed keys to the packed canonical
        keys of every product A[i] @ O[j], row-major in (i, j).

        Row a of a packed key k is the code (k // q^(d*a)) % q^d, and row
        a of A[i] @ O[j] is row a of A[i] times O[j].  Three tables built
        here from O turn each product into integer gathers: T[v, j], the
        code of row(v) @ O[j]; lam[c], the inverse of the lowest nonzero
        digit of code c (for row 0 of an invertible product, the first
        nonzero row-major entry) times q^d; and S[a, l*q^d + t], the code
        of l * row(t) times q^(d*a).  A product key is then
        sum_a S[a, lam[T[rc_0, j]] + T[rc_a, j]].  Unpackable keys, or
        tables above ``_ROW_TABLE_MAX`` entries, take
        pack(right_products(unpack(keys), O)) instead.  On either path a
        product whose row 0 is zero (a singular input) raises ValueError.
        """
        d, q, r = self.d, self.q, O.shape[0]
        Q = q**d
        if not self.packable or (r + d * q) * Q > _ROW_TABLE_MAX:

            def products(keys):
                P = self.right_products(self.unpack(keys), O)
                if not P[:, 0].any(axis=1).all():
                    raise ValueError("a product has a zero first row")
                return self.pack(P)

            return products
        # digits[v] is row(v); codes of 1 x d rows by their digit weights
        digits = np.empty((Q, d), dtype=self.dtype)
        rest = np.arange(Q)
        for b in range(d):
            rest, digits[:, b] = np.divmod(rest, q)
        weights = q ** np.arange(d, dtype=np.int64)
        T = np.empty((Q, r), dtype=np.intp)
        step = max(1, _PRODUCT_BLOCK // r)
        for v0 in range(0, Q, step):
            rows = self.mul(digits[v0 : v0 + step, None, None, :], O[None])
            T[v0 : v0 + step] = rows.reshape(-1, r, d) @ weights
        first = np.argmax(digits != 0, axis=1)
        lam = self._inv_table[digits[np.arange(Q), first]] * Q
        lam[0] = 0
        # l * row(t) as row(t) @ (l * I), for every scalar code l
        scalars = self.identity_batch(q) * np.arange(q, dtype=self.dtype)[:, None, None]
        scaled = self.mul(digits[None, :, None, :], scalars[:, None]) @ weights
        S = scaled.reshape(1, q * Q) * (weights[:, None] ** d)

        def products(keys):
            rest = keys
            acc = None
            for a in range(d):
                rest, code = np.divmod(rest, Q)
                idx = T[code]
                if a == 0:
                    if not idx.all():
                        raise ValueError("a product has a zero first row")
                    base = lam[idx]
                idx += base
                term = S[a].take(idx)
                if acc is None:
                    acc = term
                else:
                    acc += term
            return acc.reshape(-1)

        return products

    def pack(self, A: np.ndarray) -> np.ndarray:
        """Pack each matrix into a hashable key: int64 radix-q when it
        fits, raw bytes (void dtype) otherwise."""
        n = A.shape[0]
        flat = A.reshape(n, -1)
        if self.packable:
            # Horner from the top digit: one int64 accumulator per matrix
            acc = flat[:, -1].astype(np.int64)
            for k in range(flat.shape[1] - 2, -1, -1):
                acc *= self.q
                acc += flat[:, k]
            return acc
        elem = np.dtype(self.dtype).newbyteorder("<")
        raw = np.ascontiguousarray(flat.astype(elem))
        width = elem.itemsize * raw.shape[1]
        return raw.view(np.dtype((np.void, width))).reshape(n)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        n = keys.shape[0]
        if self.packable:
            # one digit at a time, so no (n, d*d) int64 temporary
            out = np.empty((n, self.d * self.d), dtype=self.dtype)
            rest = keys.astype(np.int64)
            for k in range(self.d * self.d):
                rest, out[:, k] = np.divmod(rest, self.q)
            return out.reshape(n, self.d, self.d)
        elem = np.dtype(self.dtype).newbyteorder("<")
        flat = np.frombuffer(keys.tobytes(), dtype=elem).reshape(n, -1)
        return flat.reshape(n, self.d, self.d).astype(self.dtype)

    def packed_of(self, mat_rows) -> int:
        """Big-int packed value of one row-tuple matrix (matches
        ProjMat.packed)."""
        out = 0
        for row in reversed(mat_rows):
            for x in reversed(row):
                out = out * self.q + x
        return out

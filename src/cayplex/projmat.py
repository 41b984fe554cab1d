"""Matrices over finite fields: one vectorized batch kernel, ``MatSpace``.

A batch is a numpy array of shape (n, d, d) holding field codes, and
every matrix operation of the package runs on whole batches: products,
projective canonical forms, packed keys, powers, and one Gauss-Jordan
reduction that gives ranks, inverses and column spaces.  Over a prime
field products go through float32 GEMM when they provably fit in the
24-bit mantissa and through exact integer matmul otherwise; over a
non-prime field every operation goes through dense lookup tables.
``key_products`` is the one function that multiplies a batch of packed
keys by a generator batch: through row tables where they fit, and
otherwise by blocks of ``unpack``, ``mul``, ``canon`` and ``pack``.

The projective canonical form scales a matrix so that its first nonzero
entry in row-major order is 1.  Packed encoding: row-major entry codes
are digits of a radix-q integer, entry (0,0) contributing the lowest
digit.  ``MatSpace.pack`` gives int64 keys when q^(d*d) fits and raw
bytes otherwise.  A point id renumbers an int64 canonical key densely:
row 0 by its rank among the points of P^(d-1)(F_q), the other rows as
they are (``point_ids``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MatSpace"]


# ---------------------------------------------------------------------------
# Batched kernel
# ---------------------------------------------------------------------------

_GEMM_MANTISSA = 1 << 24
# products per key_products call of every product stream, and per block
# of its fallback: a block's int64 temporaries stay within L2
_PRODUCT_BLOCK = 1 << 15
# largest (r + d*q) * q^d table entries of the key_products row tables
_ROW_TABLE_MAX = 1 << 22
# row products per block while key_products builds its row tables
_ROW_BLOCK = 1 << 13


class MatSpace:
    """Vectorized operations on batches of d x d matrices over F_q.

    Batches are numpy arrays of shape (n, d, d) holding codes.  All
    operations are exact; a float32 GEMM runs only when k*(p-1)^2, k the
    inner dimension of the product, provably fits the mantissa.
    """

    def __init__(self, F, d: int):
        self.F = F
        self.d = d
        self.q = F.q
        # batches of codes are stored compactly; int64 only in transit
        self.dtype = np.uint8 if F.q < 256 else np.int32
        if F.f == 1:
            self._tables = None
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
            self._neg_table = (self._tables[0] == 0).argmax(axis=1)
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
        # point ids: the rank of row 0 among the canonical rows, then the
        # radix-q^d codes of rows 1..d-1; see point_ids
        Q = self.q**d
        self.points = (Q - 1) // (self.q - 1)
        self.id_count = self.points * Q ** (d - 1)
        self._rank = None

    # -- conversions ------------------------------------------------------

    def asbatch(self, mats) -> np.ndarray:
        """Stack an iterable of row-tuple matrices into a batch array."""
        arr = np.array(list(mats), dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        return arr

    def identity_batch(self, n: int) -> np.ndarray:
        out = np.zeros((n, self.d, self.d), dtype=self.dtype)
        idx = np.arange(self.d)
        out[:, idx, idx] = 1
        return out

    # -- arithmetic ---------------------------------------------------------

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Batched matrix products A @ B, broadcasting over the leading
        axes; the shared inner dimension may be any length k.  Over a
        prime field this is one float32 GEMM when k*(p-1)^2 fits the
        mantissa, exact int64 matmul otherwise."""
        k = A.shape[-1]
        if self._tables is None:
            p = self.F.p
            if k * (p - 1) ** 2 < _GEMM_MANTISSA:
                C = np.matmul(A.astype(np.float32), B.astype(np.float32))
                return self._residues(C)
            C = np.matmul(A.astype(np.int64), B.astype(np.int64)) % p
            return C.astype(self.dtype)
        add_t, mul_t = self._tables

        def term(j):
            a = A[..., :, j, None].astype(np.int64)
            return mul_t[a, B[..., None, j, :].astype(np.int64)]

        out = term(0)
        for j in range(1, k):
            out = add_t[out, term(j)]
        return out.astype(self.dtype)

    def _residues(self, C: np.ndarray) -> np.ndarray:
        """C mod p for a float32 array of integers below 2^24, in the
        batch dtype.  The float32 quotient x / p of such an x errs by less
        than 1/p, so its floor is exact and so is the residue."""
        p = np.float32(self.F.p)
        t = np.divide(C, p)
        np.floor(t, out=t)
        t *= -p
        t += C
        return t.astype(self.dtype)

    def power(self, A: np.ndarray, e: int) -> np.ndarray:
        """A^e for every matrix of a batch, e >= 0, by square and
        multiply."""
        if e < 0:
            raise ValueError("power takes an exponent >= 0")
        out = self.identity_batch(A.shape[0])
        while e:
            if e & 1:
                out = self.mul(out, A)
            e >>= 1
            if e:
                A = self.mul(A, A)
        return out

    def _emul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Entrywise products of int64 code arrays."""
        if self._tables is None:
            return x * y % self.F.p
        return self._tables[1][x, y]

    def _esub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Entrywise differences of int64 code arrays."""
        if self._tables is None:
            return (x - y) % self.F.p
        return self._tables[0][x, self._neg_table[y]]

    def rref(self, A: np.ndarray, cols: int | None = None):
        """Reduced row echelon forms of a batch of r x c matrices, by one
        Gauss-Jordan pass over the whole batch that looks for pivots in
        the first ``cols`` columns only (all of them by default).

        Returns (R, rank): R in the batch dtype, rank[i] the number of
        pivots of matrix i.  Each column step picks, in every matrix that
        has one, the first usable row with a nonzero entry there, swaps
        it up, scales it to a leading 1 and clears the column elsewhere.
        """
        R = A.astype(np.int64)
        n, r, c = R.shape
        cols = c if cols is None else cols
        rank = np.zeros(n, dtype=np.intp)
        rows = np.arange(r)
        for col in range(cols):
            live = (R[:, :, col] != 0) & (rows >= rank[:, None])
            sel = np.flatnonzero(live.any(axis=1))
            if not sel.size:
                continue
            top, piv = rank[sel], live[sel].argmax(axis=1)
            row = R[sel, piv]
            R[sel, piv] = R[sel, top]
            row = self._emul(row, self._inv_table[row[:, col]][:, None])
            R[sel, top] = row
            f = R[sel, :, col]
            f[np.arange(sel.size), top] = 0
            R[sel] = self._esub(R[sel], self._emul(f[:, :, None], row[:, None, :]))
            rank[sel] += 1
        return R.astype(self.dtype), rank

    def singular(self, A: np.ndarray) -> np.ndarray:
        """Which matrices of a batch of d x d matrices are singular."""
        return self.rref(A)[1] < self.d

    def canon(self, A: np.ndarray) -> np.ndarray:
        """Batched projective canonicalization (first nonzero row-major
        entry scaled to 1)."""
        n = A.shape[0]
        flat = A.reshape(n, self.d * self.d)
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
        """Canonical projective inverses of a batch, read off the
        Gauss-Jordan form of [A | I].  Raises ValueError when a matrix is
        singular."""
        n, d = A.shape[0], self.d
        R, rank = self.rref(np.concatenate((A, self.identity_batch(n)), axis=2), d)
        if (rank < d).any():
            raise ValueError(f"matrix {int(np.argmax(rank < d))} of the batch is singular")
        return self.canon(R[:, :, d:])

    def inverse_index(self, A: np.ndarray) -> np.ndarray:
        """For each matrix of a batch of canonical matrices, the index in
        A of its projective inverse (the lowest index of a repeated
        matrix), -1 where A lacks it."""
        keys = self.pack(A)
        order = np.argsort(keys, kind="stable")
        srt = keys[order]
        inv = self.pack(self.inverse(A))
        pos = np.minimum(np.searchsorted(srt, inv), len(srt) - 1)
        return np.where(srt[pos] == inv, order[pos], -1)

    def key_products(self, O: np.ndarray, ids: bool = False):
        """A function from a block of packed keys to the packed canonical
        keys of every product A[i] @ O[j], row-major in (i, j), or to
        their ``point_ids`` when ``ids`` is true.

        Row a of a packed key k is the code (k // q^(d*a)) % q^d, and row
        a of A[i] @ O[j] is row a of A[i] times O[j].  Tables built here
        from O turn each product into integer gathers: T[c, j], the code
        of row(c) @ O[j]; lam[c], the inverse of the lowest nonzero digit
        of code c (for row 0 of an invertible product, the first nonzero
        row-major entry) times q^d; and S[a, l*q^d + t], the code of
        l * row(t) times q^(d*a).  Row 0 of a key fixes both the scale of
        its products and their row-0 terms, so two more (q^d, r) tables
        fold it in: B[c, j] = lam[T[c, j]], the scale offset, and R0[c, j]
        = S[0, B[c, j] + T[c, j]], the finished row-0 term.  A product key
        is then R0[c_0, j] + sum_(a>=1) S[a, B[c_0, j] + T[c_a, j]].  T, B
        and R0 hold int16 when q * q^d < 2^15 and int32 otherwise.  For
        point ids only S changes: S[0] holds the point rank of the code
        and S[a], a >= 1, the code times points * q^(d*(a-1)).
        Unpackable keys, or tables above ``_ROW_TABLE_MAX`` entries, take
        blocks of ``_block_rows(r)`` keys instead, each the ``pack`` of the
        ``canon`` of ``mul`` of its unpacked keys by every O[j], and
        convert the packed output to ids when asked.  On either path a
        product whose row 0 is zero (a singular input) raises
        ValueError.
        """
        d, q, r = self.d, self.q, O.shape[0]
        Q = q**d
        if ids and not self.packable:
            raise ValueError("point ids need int64 packed keys")
        if not self.row_tables(r):
            step = _block_rows(r)
            key_dtype = self.pack(O[:0]).dtype

            def products(keys):
                out = np.empty(len(keys) * r, dtype=key_dtype)
                for i in range(0, len(keys), step):
                    P = self.mul(self.unpack(keys[i : i + step])[:, None], O[None])
                    P = P.reshape(-1, d, d)
                    if not P[:, 0].any(axis=1).all():
                        raise ValueError("a product has a zero first row")
                    out[i * r : i * r + len(P)] = self.pack(self.canon(P))
                    del P
                return self.point_ids(out) if ids else out

            return products
        # digits[v] is row(v)
        digits = np.empty((Q, d), dtype=self.dtype)
        rest = np.arange(Q)
        for b in range(d):
            rest, digits[:, b] = np.divmod(rest, q)
        first = np.argmax(digits != 0, axis=1)
        lam = self._inv_table[digits[np.arange(Q), first]] * Q
        lam[0] = 0
        # l * row(t) as row(t) @ (l * I), for every scalar code l
        scalars = self.identity_batch(q) * np.arange(q, dtype=self.dtype)[:, None, None]
        scaled = self._row_codes(digits, scalars).T
        S = scaled.reshape(1, q * Q) * (Q ** np.arange(d, dtype=np.int64)[:, None])
        del scaled
        if ids:
            S[1:] //= Q
            S[1:] *= self.points
            S[0] = self._point_rank()[S[0]]
        small = _row_table_dtype(q, d)
        T = self._row_codes(digits, O, small)
        # codes whose product with some O[j] has a zero row 0
        zero = ~T.all(axis=1)
        # B, and R0 gathered through B + T held in B's place
        B = lam.astype(small)[T]
        B += T
        R0 = S[0].astype(small)[B]
        B -= T

        def products(keys):
            rest, code = np.divmod(keys, Q)
            if zero[code].any():
                raise ValueError("a product has a zero first row")
            acc = R0[code].astype(np.int64)
            base = B[code]
            # the narrow sums go into one intp index array, which take
            # reads directly (narrow or mixed-width operands cost numpy
            # a buffered cast, several times slower)
            idx = np.empty(base.shape, dtype=np.intp)
            for row in S[1:]:
                rest, code = np.divmod(rest, Q)
                np.add(T[code], base, out=idx)
                acc += row.take(idx)
            return acc.reshape(-1)

        return products

    def _row_codes(self, digits: np.ndarray, O: np.ndarray, dtype=np.intp) -> np.ndarray:
        """(len(digits), r) ``dtype``: the code of row(v) @ O[j], for the
        rows ``digits`` (v, d) and the r matrices O, built in blocks of
        about ``_ROW_BLOCK`` row products, each code by Horner over the d
        digits of its block."""
        d, q, r = self.d, self.q, O.shape[0]
        out = np.empty((len(digits), r), dtype=dtype)
        step = max(1, _ROW_BLOCK // r)
        for v0 in range(0, len(digits), step):
            rows = self.mul(digits[v0 : v0 + step, None, None, :], O[None])[:, :, 0]
            codes = out[v0 : v0 + step]
            codes[:] = rows[..., d - 1]
            for b in reversed(range(d - 1)):
                codes *= q
                codes += rows[..., b]
        return out

    def row_tables(self, r: int) -> bool:
        """Whether ``key_products`` of r matrices gathers from row tables
        rather than falling back to blocks of ``mul``."""
        entries = (r + self.d * self.q) * self.q**self.d
        return self.packable and entries <= _ROW_TABLE_MAX

    def pack(self, A: np.ndarray) -> np.ndarray:
        """Pack each matrix into a hashable key: int64 radix-q when it
        fits, raw bytes (void dtype) otherwise."""
        n = A.shape[0]
        flat = A.reshape(n, self.d * self.d)
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
        flat = np.frombuffer(keys.tobytes(), dtype=elem)
        return flat.reshape(n, self.d, self.d).astype(self.dtype)

    def _point_rank(self) -> np.ndarray:
        """(q^d,) int64: the rank, in code order, of each row code among
        the ``points`` codes whose lowest nonzero digit is 1 (the
        canonical rows, one per point of P^(d-1)(F_q)); -1 elsewhere."""
        if self._rank is None:
            q, Q = self.q, self.q**self.d
            point = np.zeros(Q, dtype=bool)
            for b in range(self.d):
                # codes with digits 0..b-1 zero and digit b equal to 1
                point[q**b :: q ** (b + 1)] = True
            rank = np.cumsum(point) - 1
            rank[~point] = -1
            self._rank = rank
        return self._rank

    def point_ids(self, keys: np.ndarray) -> np.ndarray:
        """int64 point ids of canonical int64 keys, in [0, ``id_count``):
        rank(row 0) + points * (key // q^d).  Row 0 of a canonical
        matrix, when nonzero, is a canonical row, so the canonical
        matrices with a nonzero row 0 (the nonsingular ones among them)
        take each id exactly once."""
        rest, code = np.divmod(keys, self.q**self.d)
        rest *= self.points
        rest += self._point_rank()[code]
        return rest

    def point_keys(self, ids: np.ndarray) -> np.ndarray:
        """int64 packed keys of point ids, the inverse of ``point_ids``."""
        rest, rank = np.divmod(ids, self.points)
        rest *= self.q**self.d
        rest += np.flatnonzero(self._point_rank() >= 0)[rank]
        return rest


def _block_rows(r: int) -> int:
    """Rows of r products each that make one block of about
    ``_PRODUCT_BLOCK`` products: the one block size of every caller that
    streams products or walks a table of r columns."""
    return max(1, _PRODUCT_BLOCK // max(r, 1))


def _row_table_dtype(q: int, d: int):
    """The dtype of the (q^d, r) row tables of ``key_products``: every
    entry of T, B and R0, and every sum B + T, is below q * q^d."""
    return np.int16 if q ** (d + 1) < 1 << 15 else np.int32


def _key_products_bytes(ms: MatSpace, r: int, block: int) -> int:
    """Upper bound on the bytes ``key_products`` of r matrices holds
    beside its output, for calls of ``block`` products.  On its
    row-table path, its tables (T, B and R0, Q per generator each, of
    ``_row_table_dtype``; int64 S, d per scalar; int64 lam) and, while S
    is built, the (Q, q) codes it is read from and their transposed
    copy, the uint8 rows and a few Q-long index arrays and masks (under
    32 bytes per row code), with the temporaries of one
    ``_ROW_BLOCK`` block of row products: at most three int64 entries
    per coordinate on the table kernel (24 * d bytes) plus 16.  On its
    fallback, per product of one block the temporaries of ``mul``,
    ``canon`` and ``pack`` (at most three int64 entries, 24 * d * d
    bytes, plus 16), and per generator and unpacked key the copies
    ``mul`` makes (under 20 * d * d bytes)."""
    d, q = ms.d, ms.q
    if ms.row_tables(r):
        Q = q**d
        rows = max(r, q, _ROW_BLOCK)
        tables = 3 * np.dtype(_row_table_dtype(q, d)).itemsize * Q * r
        return tables + 8 * Q * (d * q + 2 * q) + (d + 32) * Q + (24 * d + 16) * rows
    n = min(block, _block_rows(r) * max(r, 1))
    return (24 * d * d + 16) * n + 20 * d * d * (r + -(-n // max(r, 1)))

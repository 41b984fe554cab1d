"""Orbits of conjugation by theta, the regular representation of u, and
by a power of the Frobenius matrix Phi on projective matrices: a normal
form that names each orbit by one integer.

Every generator system of the package is a union of conjugates of one
element by the powers of theta, so conjugation by theta permutes it, its
inverses and each of its colour classes; conjugation by Phi permutes
the systems the package builds too.  Word counts are then constant on
the orbits of the group these conjugations generate, and a product ball
can be carried as weights on orbits (``spectra._ball_levels``).  Where
no normal form applies, ``orbits_for`` names each key by itself, the
orbits of the trivial group.  Group-dp runs on the same namings: its
quotient of a closure has one row per orbit (``spectra._quotient``).

The normal form reads a matrix X, in the column convention of
``regular_rep``, as the F_q-linear map T of E = F_(q^d) whose column b
is T(tau^b), and writes T(z) = sum_j a_j z^(q^j).  The map X -> a is
F_q-linear in the rows of X, and it is read straight from packed keys:
a key is d row codes c_a (key = sum_a c_a * Q^a, Q = q^d), and one
table per row gives, for each row code, that row's part of every a_j as
the d*f F_p-digits of an E code (q = p^f) spaced in radix
B = d(p - 1) + 1.  The d parts then add as plain integers with no
carry, each digit sum s_k staying below B, and the E code of a_j is
sum_k (s_k mod p) * p^k, additive over groups of digits: the digits are
split into groups with B^h <= 2^16, each held in its own uint16 column
of the row tables and reduced by one table.  The (d*d, d*d) matrix of
X -> a, the inverse of a -> X, only builds these tables and checks them
at build time; a -> X itself turns an id back into a key.

Conjugation by theta scales a_j by u^(1 - q^j), and a scalar of F_q^x
scales every a_j alike; in discrete logs of E (N = q^d - 1) both act as
translations by the subgroup Gamma of (Z/N)^d generated by
log(u) * (1 - q^j)_j and n * (1, ..., 1), n = N / (q - 1).  The
theta-id of a matrix is the least log vector of its theta-orbit in
lexicographic order, found on the support pattern J of a (zero entries
stay zero) in one table gather per coordinate, and packed as
sum_j (e_j + 1 or 0) * (N + 1)^j.  A theta-orbit holds
|Gamma restricted to J| / (q - 1) projective classes.

Conjugation by the Frobenius matrix Phi (z -> z^q) sends a_j to a_j^q:
it scales the logs by q mod N, leaves the support alone and normalizes
theta (Phi theta Phi^-1 = theta^q), so it permutes theta-orbits.  The
normal form names orbits of <theta, Phi^k>, k the least divisor of d
for which conjugation by Phi^k permutes the generator system too
(k = d: theta alone).  Such an orbit is the union of the theta-orbits
of the d/k images Phi^(ik) X Phi^(-ik); its id is the least theta-id of
the images, each image's logs scaled from the previous normal form (q
scales Gamma onto itself) and run through the same translation
tables, with a running minimum.  Its size is the theta-orbit size
times the number of distinct theta-orbits among the images, counted
per id, so an element that a power of Phi fixes has the smaller orbit
it really has.
"""

from __future__ import annotations

import numpy as np

from .cayley import _distinct
from .ffield import frobenius_matrix, regular_rep

__all__ = ["ThetaOrbits", "TrivialOrbits", "orbits_for"]


def orbits_for(params, ms, mats):
    """``ThetaOrbits.for_system`` of the canonical batch ``mats``, or the
    trivial naming where that returns None."""
    found = ThetaOrbits.for_system(params, ms, mats)
    return TrivialOrbits(ms) if found is None else found


class TrivialOrbits:
    """Each packed key of ``ms`` names itself, an orbit of size 1."""

    nbytes = 0
    # ``sizes`` returns 8 bytes per id; ``ids`` and ``keys`` return their
    # input
    bytes_per_key = 8
    bytes_per_rep = 0

    def __init__(self, ms):
        self.dtype = ms.pack(ms.identity_batch(1)).dtype
        # int64 keys are below q^(d*d); raw-byte keys have no bound
        self.id_bound = ms.q ** (ms.d * ms.d) if ms.packable else None

    def ids(self, keys: np.ndarray) -> np.ndarray:
        return keys

    def keys(self, ids: np.ndarray) -> np.ndarray:
        return ids

    def sizes(self, ids: np.ndarray) -> np.ndarray:
        return np.ones(len(ids), dtype=np.int64)


class ThetaOrbits:
    """The normal form of <theta, Phi^k>-orbits over one ``MatSpace``,
    k a divisor of d (k = d: theta alone); build it with
    ``for_system``."""

    dtype = np.dtype(np.int64)

    def __init__(self, params, ms, k: int):
        E, q, d = params.E, params.q, params.d
        self.ms = ms
        self.d = d
        self.k = k
        N = E.order - 1
        self._N = N
        # every orbit id is below (N + 1)^d
        self.id_bound = (N + 1) ** d
        self._images = d // k
        # one Frobenius step of the images scales logs by q^k mod N
        self._scale = np.uint32(pow(q, k, N))
        # zero coefficients read log 0, which no translation or scaling
        # moves, so they add nothing to a packed id
        self._log = E.np_explog()[1].astype(np.uint32)
        self._log[0] = 0
        # E code of a coefficient from its digit of a packed id
        self._exp = np.append(0, E.np_explog()[0][:N])
        self._theta = _with_inverse(ms, regular_rep(E, params.u))
        self._phi = _with_inverse(ms, frobenius_matrix(E, k))
        # a -> X: coordinate r of column b is coordinate r of
        # tau^c * (tau^b)^(q^j) for a_j = tau^c
        tau = [E.pow_(E.tau_code, b) for b in range(d)]
        fwd = np.empty((d, d, d, d), dtype=ms.dtype)
        for j in range(d):
            for c in range(d):
                for b in range(d):
                    fwd[j, c, :, b] = E.decode(E.mul(tau[c], E.frob(tau[b], j)))
        self._fwd = fwd.reshape(d * d, d * d)
        eye = np.eye(d * d, dtype=ms.dtype)
        R, rank = ms.rref(np.concatenate((self._fwd, eye), axis=1)[None], d * d)
        assert rank[0] == d * d, "the linearized coefficients are a basis"
        self._coeffs = R[0, :, d * d :]
        self._Q = q**d
        self._key_tables(q, d)
        self._tables(params.u, q, d, N)

    @classmethod
    def for_system(cls, params, ms, mats):
        """The normal form when conjugation by theta permutes the
        canonical batch ``mats`` as a multiset and every orbit id fits in
        an int64 ((N + 1)^d = q^(d*d) < 2^63, and E keeps exp/log
        tables); otherwise None.  Its k is the least divisor of d for
        which conjugation by Phi^k permutes ``mats`` too.  The ids and
        sizes of the distinct matrices of ``mats`` are checked against
        the orbits of the two permutations."""
        if not ms.packable:
            return None
        try:
            params.E.np_explog()
        except ValueError:
            return None
        E, d = params.E, params.d

        def permutes(rows):
            images = _conjugated(ms, _with_inverse(ms, rows), mats)
            return np.array_equal(np.sort(ms.pack(mats)), np.sort(ms.pack(images)))

        if not permutes(regular_rep(E, params.u)):
            return None
        k = next(k for k in range(1, d + 1) if d % k == 0 and (
            k == d or permutes(frobenius_matrix(E, k))))
        orbits = cls(params, ms, k)
        keys = ms.pack(mats)
        orbits._check_key_tables(keys)
        orbits._check_cycles(_distinct(keys))
        return orbits

    @property
    def nbytes(self) -> int:
        """Bytes held by the normal form's tables."""
        tables = (self._log, self._exp, self._fwd, self._coeffs, self._rows,
                  *self._reduce, self._pos, self._base, self._shift, self._size,
                  self._offset)
        return sum(a.nbytes for a in tables)

    @property
    def bytes_per_key(self) -> int:
        """Upper bound on the bytes ``ids`` or ``sizes`` holds per key or
        id beside its input, G being the number of digit groups:
        4Gd + 24 while ``_codes`` adds the row parts (its reduction
        holds less); 14d + 8 at the log gather (codes, pattern, the
        gather's intp index copy and the uint32 logs); and, per image,
        the logs, pattern and running least id (4d + 16 in ``ids``;
        ``sizes`` holds a base id and a uint8 length instead, 4d + 17)
        plus what ``_theta_ids`` adds: its 8-byte cell offsets and
        either the largest translation step temporaries, max(20, 4d),
        or the packed id, 8 bytes, or ``_frobenius``'s 4d.  78 bytes at
        (3,5), where the log gather sets the bound."""
        d, G = self.d, len(self._reduce)
        return max(4 * G * d + 24, 14 * d + 8, 4 * d + 25 + max(20, 4 * d))

    @property
    def bytes_per_rep(self) -> int:
        """Upper bound on the bytes ``keys`` holds per id beside its
        input: the (d, d) coordinates, and what ``MatSpace.mul`` holds
        for one row of d*d entries, at most three int64 copies, which
        also bounds the id digits, ``canon`` and ``pack``: 25d^2 + 32."""
        return 25 * self.d**2 + 32

    def _key_tables(self, q, d):
        """``_rows[a]``, (Q, G*d) uint16: column g*d + j holds digit group
        g of row a's part of a_j for each row code, the F_p-digits of the
        group in radix B = d(p - 1) + 1; ``_reduce[g][s]``, the part of
        an E code that the digit sums s of group g stand for,
        sum_k (s_k mod p) * p^k over the digit positions k of the group.
        Groups hold h digits, the most with B^h <= 2^16, so every group
        sum of d parts fits a uint16 and indexes its reduction table."""
        F = self.ms.F
        p, f, Q = F.p, F.f, self._Q
        B = d * (p - 1) + 1
        h = 1
        while B ** (h + 1) <= 1 << 16:
            h += 1
        entries = np.empty((Q, d), dtype=self.ms.dtype)
        rest = np.arange(Q)
        for b in range(d):
            rest, entries[:, b] = np.divmod(rest, q)
        # part[a, v, j, r]: coordinate r of row a's part of a_j when row a
        # has code v; digit r*f + k of an E code is digit k of coordinate r
        part = self.ms.mul(entries[None], self._coeffs.reshape(d, d, d * d))
        digits = part.reshape(d, Q, d, d, 1) // p ** np.arange(f) % p
        digits = digits.reshape(d, Q, d, d * f)
        starts = range(0, d * f, h)
        rows = np.empty((d, Q, len(starts), d), dtype=np.uint16)
        self._reduce = []
        for g, k0 in enumerate(starts):
            width = min(h, d * f - k0)
            rows[:, :, g] = digits[..., k0 : k0 + width] @ B ** np.arange(width)
            sums = np.arange(B**width)
            code = np.zeros(B**width, dtype=np.int64)
            for k in range(k0, k0 + width):
                sums, s_k = np.divmod(sums, B)
                code += s_k % p * p**k
            self._reduce.append(code.astype(np.uint16))
        self._rows = rows.reshape(d, Q, len(starts) * d)

    def _tables(self, u, q, d, N):
        """Per support pattern p (bit j set when a_j != 0) and step s:
        ``_pos[s, p]``, the s-th coordinate j_s of the pattern, and
        ``_shift[_base[s, p] + x]``, a translation of Gamma that fixes
        j_0..j_(s-1) and takes the value x at j_s to the least value
        reachable there.  Steps past the last one with a nonzero
        translation for some pattern are dropped: at (3,5) two of the
        five remain.  ``_size[p]`` is the theta-orbit size of every
        matrix with pattern p, and ``_offset[p]`` the sum of (N + 1)^j
        over its coordinates j."""
        n = N // (q - 1)
        step = (int(self._log[u]) * (1 - q ** np.arange(d))) % N
        k = np.arange(n)[:, None, None]
        m = np.arange(q - 1)[None, :, None]
        gamma = ((k * step + m * n) % N).reshape(-1, d)
        P = 1 << d
        pos = np.zeros((d, P), dtype=np.intp)
        shift = np.zeros((d, P, N, d), dtype=np.uint16)
        self._size = np.zeros(P, dtype=np.int64)
        values = np.arange(N)
        for p in range(1, P):
            J = [j for j in range(d) if p >> j & 1]
            # the distinct rows of gamma on J, through their radix-N codes
            rest = _distinct(gamma[:, J] @ N ** np.arange(len(J)))
            H = np.empty((len(rest), len(J)), dtype=np.int64)
            for s in range(len(J)):
                rest, H[:, s] = np.divmod(rest, N)
            self._size[p], rest = divmod(len(H), q - 1)
            assert not rest, "scalars act freely on a nonzero pattern"
            for s, j in enumerate(J):
                pos[s, p] = j
                col = H[:, s]
                # the values at j_s form the subgroup g * Z/N
                g = int(np.gcd.reduce(np.append(col, N)))
                row = np.full(N, -1, dtype=np.intp)
                row[col] = np.arange(len(H))
                pick = row[(values % g - values) % N]
                assert (pick >= 0).all()
                shift[s, p][:, J] = H[pick]
                H = H[col == 0]
        # the +1 of every support digit of a packed id, per pattern
        self._offset = np.zeros(P, dtype=np.int64)
        for j in range(d):
            self._offset[(np.arange(P) >> j & 1).astype(bool)] += (N + 1) ** j
        steps = 1 + np.flatnonzero(shift.reshape(d, -1).any(axis=1)).max(initial=-1)
        self._pos = pos[:steps]
        self._base = np.arange(steps * P).reshape(steps, P) * N
        self._shift = shift[:steps].reshape(steps * P * N, d)

    def _codes(self, keys: np.ndarray) -> np.ndarray:
        """(n, d) uint16: the E code of a_j for each packed key."""
        d, Q = self.d, self._Q
        n = len(keys)
        rest = keys
        code = np.empty(n, dtype=np.int64)
        sums = None
        for a in range(d):
            if a < d - 1:
                # rest - (rest // Q) * Q: numpy divides by a scalar with
                # a multiply and a shift, but takes remainders one
                # hardware division at a time
                high = rest // Q
                np.multiply(high, Q, out=code)
                np.subtract(rest, code, out=code)
                rest = high
            else:
                code = rest
            part = self._rows[a].take(code, axis=0)
            if sums is None:
                sums = part
            else:
                sums += part
        del rest, code
        # every digit sum stays below its group's table length, so "clip"
        # never moves an index; it only spares the bounds check
        codes = np.zeros((n, d), dtype=np.uint16)
        for g, table in enumerate(self._reduce):
            for j in range(d):
                codes[:, j] += table.take(sums[:, g * d + j], mode="clip")
        return codes

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """The orbit id of each packed key of a nonzero matrix: the least
        theta-id of its Frobenius images."""
        d = self.d
        codes = self._codes(keys)
        pattern = np.zeros(len(keys), dtype=np.intp)
        for j in range(d):
            pattern += (codes[:, j] != 0).astype(np.intp) << j
        e = self._log.take(codes)
        del codes
        best = self._theta_ids(e, pattern)
        for _ in range(1, self._images):
            self._frobenius(e)
            np.minimum(best, self._theta_ids(e, pattern), out=best)
        best += self._offset.take(pattern)
        return best

    def sizes(self, ids: np.ndarray) -> np.ndarray:
        """The orbit sizes of orbit ids: the theta-orbit size of their
        support times the number of distinct theta-orbits among their
        Frobenius images.  Phi^k permutes those theta-orbits cyclically,
        so that number is the least i >= 1 at which image i is back in
        the theta-orbit of image 0, or d/k when none is."""
        d, N = self.d, self._N
        n = len(ids)
        e = np.empty((n, d), dtype=np.uint32)
        pattern = np.zeros(n, dtype=np.intp)
        rest = ids
        for j in range(d):
            rest, digit = np.divmod(rest, N + 1)
            pattern += (digit != 0).astype(np.intp) << j
            e[:, j] = np.maximum(digit, 1) - 1
        del rest, digit
        base = self._theta_ids(e, pattern)
        length = np.full(n, self._images, dtype=np.uint8)
        for i in range(1, self._images):
            self._frobenius(e)
            length[(self._theta_ids(e, pattern) == base) & (length == self._images)] = i
        return self._size.take(pattern) * length

    def keys(self, ids: np.ndarray) -> np.ndarray:
        """A packed key of each orbit id, the inverse of ``ids``: the
        coefficients a_j whose logs the id packs, mapped to the matrix of
        sum_j a_j z^(q^j) by the matrix of a -> X, and canonicalized."""
        ms, d, q = self.ms, self.d, self.ms.q
        n = len(ids)
        # coords[:, j, c]: coordinate c of a_j, an E code in radix q
        coords = np.empty((n, d, d), dtype=ms.dtype)
        rest = ids
        for j in range(d):
            rest, digit = np.divmod(rest, self._N + 1)
            code = self._exp.take(digit)
            for c in range(d):
                code, coords[:, j, c] = np.divmod(code, q)
        del rest, digit, code
        X = ms.mul(coords.reshape(n, d * d), self._fwd)
        del coords
        return ms.pack(ms.canon(X.reshape(n, d, d)))

    def _theta_ids(self, e: np.ndarray, pattern: np.ndarray) -> np.ndarray:
        """Bring the logs ``e`` (n, d) uint32, zero coefficients holding
        0, to their least theta-equivalent in place, and return them
        packed as sum_j e_j * (N + 1)^j in int64: the theta-id less
        ``_offset`` of the pattern."""
        d, N = self.d, self._N
        flat = e.reshape(-1)
        cells = np.arange(0, len(e) * d, d)
        for s in range(len(self._pos)):
            at = self._pos[s].take(pattern)
            at += cells
            at = flat.take(at).astype(np.intp)
            at += self._base[s].take(pattern)
            e += self._shift.take(at, axis=0)
            del at
            # e < 2N now; where e < N, e - N wraps around above e
            np.minimum(e, e - np.uint32(N), out=e)
        del cells
        packed = e[:, d - 1].astype(np.int64)
        for j in reversed(range(d - 1)):
            packed *= N + 1
            packed += e[:, j]
        return packed

    def _frobenius(self, e: np.ndarray) -> None:
        """Scale the logs ``e`` by q^k mod N in place: the logs of the
        next Frobenius image.  e < N < 2^16, so e * q^k fits a uint32."""
        N = np.uint32(self._N)
        e *= self._scale
        high = e // N
        high *= N
        e -= high

    def _check_key_tables(self, keys: np.ndarray) -> None:
        """Raise AssertionError unless ``_codes`` of ``keys`` and of every
        key with a single nonzero row equal the codes of the (d*d, d*d)
        product over the unpacked matrices.  The single-row keys read
        every entry of every row table."""
        ms, d, Q = self.ms, self.d, self._Q
        single = np.arange(Q)[None, :] * Q ** np.arange(d, dtype=np.int64)[:, None]
        keys = np.concatenate((keys, single.reshape(-1)))
        coeffs = ms.mul(ms.unpack(keys).reshape(len(keys), d * d), self._coeffs)
        codes = coeffs.reshape(-1, d, d) @ ms.q ** np.arange(d)
        if not np.array_equal(self._codes(keys), codes):
            raise AssertionError("the row tables disagree with the coefficient product")

    def _check_cycles(self, keys: np.ndarray) -> None:
        """Raise AssertionError unless two of the sorted distinct keys
        ``keys``, a set that conjugation by theta and by Phi^k permutes,
        share an id exactly when those permutations connect them, each
        id's size is the size of its connected set, and ``keys`` of each
        id has that id."""
        ms = self.ms
        mats = ms.unpack(keys)
        images = [np.searchsorted(keys, ms.pack(_conjugated(ms, g, mats)))
                  for g in (self._theta, self._phi)]
        orbit = np.full(len(keys), -1)
        for start in range(len(keys)):
            if orbit[start] >= 0:
                continue
            orbit[start] = start
            todo = [start]
            while todo:
                x = todo.pop()
                for image in images:
                    if orbit[image[x]] < 0:
                        orbit[image[x]] = start
                        todo.append(image[x])
        ids = self.ids(keys)
        pairs = len(set(zip(ids.tolist(), orbit.tolist())))
        if not pairs == len(set(ids.tolist())) == len(set(orbit.tolist())):
            raise AssertionError("orbit ids disagree with the generator orbits")
        if not np.array_equal(self.sizes(ids), np.bincount(orbit)[orbit]):
            raise AssertionError("orbit sizes disagree with the generator orbits")
        if not np.array_equal(self.ids(self.keys(ids)), ids):
            raise AssertionError("orbit keys disagree with their ids")


def _with_inverse(ms, rows):
    """(g, g^-1) as (1, d, d) batches of ``ms`` for one matrix given by
    rows."""
    g = ms.asbatch(rows)
    return g, ms.inverse(g)


def _conjugated(ms, g, mats: np.ndarray) -> np.ndarray:
    """canon(g X g^-1) for a canonical batch, ``g`` = (g, g^-1)."""
    return ms.canon(ms.mul(ms.mul(g[0], mats), g[1]))

"""Orbits of conjugation by theta, the regular representation of u, on
projective matrices: a normal form that names each orbit by one integer.

Every generator system of the package is a union of conjugates of one
element by the powers of theta, so conjugation by theta permutes it, its
inverses and each of its colour classes.  Word counts are then constant
on theta-orbits, and a product ball can be carried as weights on orbits
(``spectra._orbit_levels``).

The normal form reads a matrix X, in the column convention of
``regular_rep``, as the F_q-linear map T of E = F_(q^d) whose column b
is T(tau^b), and writes T(z) = sum_j a_j z^(q^j).  The map X -> a is one
F_q-linear map, the inverse of a -> X, applied as a (d*d, d*d) matrix
product.  Conjugation by theta scales a_j by u^(1 - q^j), and a scalar
of F_q^x scales every a_j alike; in discrete logs of E (N = q^d - 1)
both act as translations by the subgroup Gamma of (Z/N)^d generated by
log(u) * (1 - q^j)_j and n * (1, ..., 1), n = N / (q - 1).  The orbit id
is the least log vector of the orbit in lexicographic order, found on
the support pattern J of a (zero entries stay zero) in one table gather
per coordinate, and packed as sum_j (e_j + 1 or 0) * (N + 1)^j.  An
orbit holds |Gamma restricted to J| / (q - 1) projective classes.
"""

from __future__ import annotations

import numpy as np

from .cayley import _distinct
from .ffield import regular_rep

__all__ = ["ThetaOrbits"]


class ThetaOrbits:
    """The theta-orbit normal form over one ``MatSpace``; build it with
    ``for_system``."""

    def __init__(self, params, ms):
        E, q, d = params.E, params.q, params.d
        self.ms = ms
        self.d = d
        N = E.order - 1
        self._N = N
        self._log = E.np_explog()[1].astype(np.uint32)
        theta = ms.asbatch(regular_rep(E, params.u))
        self._theta = (theta, ms.inverse(theta))
        # a -> X: coordinate r of column b is coordinate r of
        # tau^c * (tau^b)^(q^j) for a_j = tau^c
        tau = [E.pow_(E.tau_code, b) for b in range(d)]
        fwd = np.empty((d, d, d, d), dtype=ms.dtype)
        for j in range(d):
            for c in range(d):
                for b in range(d):
                    fwd[j, c, :, b] = E.decode(E.mul(tau[c], E.frob(tau[b], j)))
        fwd = fwd.reshape(d * d, d * d)
        eye = np.eye(d * d, dtype=ms.dtype)
        R, rank = ms.rref(np.concatenate((fwd, eye), axis=1)[None], d * d)
        assert rank[0] == d * d, "the linearized coefficients are a basis"
        self._coeffs = R[0, :, d * d :]
        self._digits = q ** np.arange(d, dtype=np.int64)
        self._radix = (N + 1) ** np.arange(d, dtype=np.int64)
        self._bits = 1 << np.arange(d)
        self._tables(params.u, q, d, N)

    @classmethod
    def for_system(cls, params, ms, mats):
        """The normal form when conjugation by theta permutes the
        canonical batch ``mats`` as a multiset and every orbit id fits in
        an int64 ((N + 1)^d = q^(d*d) < 2^63, and E keeps exp/log
        tables); otherwise None.  The ids of the distinct matrices of
        ``mats`` are checked against the cycles of that permutation."""
        if not ms.packable:
            return None
        try:
            params.E.np_explog()
        except ValueError:
            return None
        orbits = cls(params, ms)
        keys = ms.pack(mats)
        if not np.array_equal(np.sort(keys), np.sort(ms.pack(orbits.conjugate(mats)))):
            return None
        orbits._check_cycles(_distinct(keys))
        return orbits

    @property
    def nbytes(self) -> int:
        """Bytes held by the normal form's tables."""
        tables = (self._log, self._coeffs, self._pos, self._shift, self._size)
        return sum(a.nbytes for a in tables)

    def conjugate(self, mats: np.ndarray) -> np.ndarray:
        """canon(theta X theta^-1) for a canonical batch."""
        ms = self.ms
        theta, theta_inv = self._theta
        return ms.canon(ms.mul(ms.mul(theta, mats), theta_inv))

    def _tables(self, u, q, d, N):
        """Per support pattern p (bit j set when a_j != 0) and step s:
        ``_pos[p, s]``, the s-th coordinate j_s of the pattern, and
        ``_shift[(p * d + s) * N + x]``, a translation of Gamma that fixes
        j_0..j_(s-1) and takes the value x at j_s to the least value
        reachable there.  ``_size[p]`` is the orbit size of every matrix
        with pattern p."""
        n = N // (q - 1)
        step = (int(self._log[u]) * (1 - q ** np.arange(d))) % N
        k = np.arange(n)[:, None, None]
        m = np.arange(q - 1)[None, :, None]
        gamma = ((k * step + m * n) % N).reshape(-1, d)
        P = 1 << d
        self._pos = np.zeros((P, d), dtype=np.intp)
        shift = np.zeros((P, d, N, d), dtype=np.uint16)
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
                self._pos[p, s] = j
                col = H[:, s]
                # the values at j_s form the subgroup g * Z/N
                g = int(np.gcd.reduce(np.append(col, N)))
                row = np.full(N, -1, dtype=np.intp)
                row[col] = np.arange(len(H))
                pick = row[(values % g - values) % N]
                assert (pick >= 0).all()
                shift[p, s][:, J] = H[pick]
                H = H[col == 0]
        self._shift = shift.reshape(P * d * N, d)

    def ids(self, keys: np.ndarray):
        """(ids, sizes): the orbit id and orbit size of each packed key of
        a nonzero matrix."""
        ms, d, N = self.ms, self.d, self._N
        n = len(keys)
        coeffs = ms.mul(ms.unpack(keys).reshape(n, d * d), self._coeffs)
        codes = coeffs.reshape(n, d, d) @ self._digits
        support = codes != 0
        pattern = support @ self._bits
        e = self._log[codes]
        e *= support
        flat = e.reshape(-1)
        cells = np.arange(0, n * d, d)
        base = pattern * (d * N)
        for s in range(d):
            at = base + s * N
            at += flat[cells + self._pos[pattern, s]]
            e += self._shift.take(at, axis=0)
            # e < 2N now; where e < N, e - N wraps around above e
            np.minimum(e, e - np.uint32(N), out=e)
        ids = (e.astype(np.int64) + 1) * support @ self._radix
        return ids, self._size[pattern]

    def sizes(self, ids: np.ndarray) -> np.ndarray:
        """The orbit sizes of orbit ids, read from their support."""
        pattern = np.zeros(len(ids), dtype=np.intp)
        rest = ids
        for j in range(self.d):
            rest, digit = np.divmod(rest, self._N + 1)
            pattern += (digit != 0) << j
        return self._size[pattern]

    def _check_cycles(self, keys: np.ndarray) -> None:
        """Raise AssertionError unless two distinct keys share an id
        exactly when conjugation by theta cycles one to the other, and
        each id's size is the length of its cycle."""
        ms = self.ms
        image = np.searchsorted(keys, ms.pack(self.conjugate(ms.unpack(keys))))
        cycle = np.full(len(keys), -1)
        length = np.zeros(len(keys), dtype=np.int64)
        for start in range(len(keys)):
            if cycle[start] >= 0:
                continue
            members = [start]
            while image[members[-1]] != start:
                members.append(image[members[-1]])
            cycle[members] = start
            length[members] = len(members)
        ids, sizes = self.ids(keys)
        pairs = len(set(zip(ids.tolist(), cycle.tolist())))
        if not pairs == len(set(ids.tolist())) == len(set(cycle.tolist())):
            raise AssertionError("theta-orbit ids disagree with the generator cycles")
        if not np.array_equal(sizes, length):
            raise AssertionError("theta-orbit sizes disagree with the generator cycles")

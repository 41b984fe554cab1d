"""Exact arithmetic for finite fields and their extensions.

Two layers are provided.  ``Field`` is F_q = F_p[x]/(m(x)) for a prime p
and a monic irreducible m of degree f; f = 1 gives the prime field, where
the modulus is x and elements are plain residues under direct modular
arithmetic.  ``ExtField`` is a degree-d extension F_{q^d} = F_q[t]/(m(t))
on top of a ``Field``.

Every field other than a prime field is a quotient ring F[x]/(m) over a
coefficient field F (the prime field under a ``Field``, the base under an
``ExtField``), and both classes run one implementation of it, ``_Quotient``:
code packing, lookup tables made by one builder, scalar ops, polynomial
products and Frobenius.  Up to ``_EXPLOG_MAX`` elements, multiplication,
inversion, powers and Frobenius are exp/log lookups, and up to
``_ADDTAB_MAX`` so are addition and negation; larger fields work on
coefficient digits and reduce ``ratfunc.Poly`` products modulo m.
``Poly`` is the only polynomial arithmetic here: the irreducibility test
and the default moduli use it as well.

Elements are carried as integer *codes*: the coefficient vector
(c_0, ..., c_{k-1}) in the power basis packs into sum_i code(c_i) * B^i,
where B is the order of the coefficient ring and c_0 is the constant
term.  Codes 0 and 1 are the additive and multiplicative identities, and
in an extension the codes below q are exactly the base-field elements.
Codes are the only element values: there is no wrapper type, and every
operation is a method of the field taking and returning codes.

The two matrices made here (``frobenius_matrix``, ``regular_rep``) are
single d x d matrices, given as tuples of rows over base-field codes that
``projmat.MatSpace.asbatch`` stacks into batches; all matrix arithmetic
runs in that one batch kernel.  They act on coordinate columns: column j
holds the coordinates of the image of the j-th power-basis vector.
"""

from __future__ import annotations

import functools

import numpy as np

from cayplex.ratfunc import Poly

__all__ = [
    "Field",
    "ExtField",
    "gaussian_binomial",
    "default_extension_modulus",
    "frobenius_matrix",
    "regular_rep",
    "mult_generator",
    "get_field",
    "get_ext_field",
]

# Orders up to which a quotient ring keeps dense exp/log (multiplication)
# and addition lookup tables.  Beyond these, arithmetic works on digits
# and reduces Poly products, which is slow but exact.
_EXPLOG_MAX = 1 << 16
_ADDTAB_MAX = 2500
# Orders up to which ``np_tables`` builds dense numpy (add, mul, inv) tables.
NP_TABLES_MAX = 4096


def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, by 2 and the odd numbers up to the
    square root of what is left."""
    out: dict[int, int] = {}
    k = 2
    while k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1 if k == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _pirreducible(F, modulus) -> bool:
    """Rabin test: a monic m of degree n >= 1 is irreducible over the field
    F of order Q iff x^(Q^n) = x mod m and gcd(x^(Q^(n/r)) - x, m) = 1 for
    every prime divisor r of n."""
    m = Poly(F, modulus)
    n = m.degree
    if n < 1:
        return False
    x = Poly.t(F)

    def x_pow(e):
        r, b = Poly.one(F), x % m
        while e:
            if e & 1:
                r = r * b % m
            b = b * b % m
            e >>= 1
        return r

    Q = F.order
    if x_pow(Q**n) != x:
        return False
    return all((x_pow(Q ** (n // r)) - x).gcd(m).degree == 0 for r in _factorize(n))


def _scan_irreducible(F, deg):
    """First monic irreducible of the given degree over F, scanning the
    lower coefficient vectors as ascending base-|F| integers."""
    B = F.order
    for m in range(B**deg):
        digits = []
        for _ in range(deg):
            m, r = divmod(m, B)
            digits.append(r)
        cand = tuple(digits) + (1,)
        if _pirreducible(F, cand):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------
# Field layers
# ---------------------------------------------------------------------------


class _Quotient:
    """Code arithmetic in F[x]/(m) for a coefficient field F and a monic
    irreducible m of degree k, shared by non-prime ``Field`` and ``ExtField``.

    Codes pack the k coefficient digits in base |F|, constant digit first.
    The public scalar ops are table lookups; ``_init_quotient`` binds the
    digit and ``Poly`` versions per instance when the order is too large
    for a table, so a hot loop calls the op it needs with no dispatch.
    A prime field overrides the scalar ops and the code packing, and
    shares only ``convolve``.
    """

    def _init_quotient(self, coef, modulus):
        if not _pirreducible(coef, modulus):
            raise ValueError(f"modulus is reducible over {coef!r}")
        self._coef = coef
        self._k = len(modulus) - 1
        self._mpoly = Poly(coef, modulus)
        self.modulus = modulus
        self.order = coef.order**self._k
        self._addtab = self._np_tables = self._np_explog = None
        self._frob: dict[int, list[int]] = {}
        if self.order <= _EXPLOG_MAX:
            self._build_tables()
        else:
            self.mul, self.inv = self._untabled_mul, self._untabled_inv
            self.pow_, self.frob = self._untabled_pow, self._untabled_frob
        if self._addtab is None:
            self.add, self.sub = self._untabled_add, self._untabled_sub
            self.neg = self._untabled_neg

    def _build_tables(self):
        """exp/log tables over a generator of the unit group and, up to
        ``_ADDTAB_MAX`` elements, addition and negation tables.  They are
        Python lists: one scalar lookup in a list is several times faster
        than indexing a numpy array element by element."""
        N = self.order
        n = N - 1
        primes = list(_factorize(n))
        g = next(
            c for c in range(2, N) if all(self._untabled_pow(c, n // r) != 1 for r in primes)
        )
        chain = [1] * n
        for i in range(1, n):
            chain[i] = self._untabled_mul(chain[i - 1], g)
        assert self._untabled_mul(chain[-1], g) == 1, "unit group order mismatch"
        log = [0] * N
        for i, c in enumerate(chain):
            log[c] = i
        # log[0] lies past every sum of two logs and exp is zero from there
        # on, so a product with zero needs no test
        log[0] = 2 * n - 1
        self._exp = chain + chain[:-1] + [0] * (2 * n)
        self._log = log
        self._n = n
        if N <= _ADDTAB_MAX:
            # entries refer to one int object per code, so a table entry
            # costs one pointer
            codes = np.arange(N).astype(object)
            add, neg = [], []
            for blk in self._add_blocks():
                add += codes[blk].tolist()
                neg += (blk == 0).argmax(axis=1).tolist()
            self._addtab, self._negtab = add, neg

    def _add_blocks(self):
        """The addition table (codes below 2^16) in uint16 row blocks of
        about 2^14 entries, from uint8 digit arrays under coefficient-field
        addition, so the build holds little besides the table it makes."""
        F, B, N = self._coef, self._coef.order, self.order
        pows = B ** np.arange(self._k, dtype=np.uint16)
        digits = (np.arange(N)[:, None] // pows % B).astype(np.uint8)
        cadd = np.array([[F.add(x, y) for y in range(B)] for x in range(B)], dtype=np.uint8)
        step = max(1, (1 << 14) // N)
        for lo in range(0, N, step):
            rows = digits[lo : lo + step, None, :]
            blk = np.zeros((len(rows), N), dtype=np.uint16)
            for j in range(self._k):
                blk += cadd[rows[:, :, j], digits[None, :, j]] * pows[j]
            yield blk

    # -- code arithmetic: table lookups ---------------------------------------

    def add(self, a, b):
        return self._addtab[a][b]

    def sub(self, a, b):
        return self._addtab[a][self._negtab[b]]

    def neg(self, a):
        return self._negtab[a]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._n - self._log[a]]

    def pow_(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if e == 0 else 0
        return self._exp[self._log[a] * e % self._n]

    def frob(self, a, i):
        """a^(|F|^i), the i-th power of the Frobenius over the coefficient
        field F."""
        i %= self._k
        tab = self._frob.get(i)
        if tab is None:
            e, n, exp, log = self._coef.order**i, self._n, self._exp, self._log
            tab = self._frob[i] = [0] + [exp[log[a] * e % n] for a in range(1, self.order)]
        return tab[a]

    # -- code arithmetic without tables ---------------------------------------

    def _untabled_add(self, a, b):
        add = self._coef.add
        return self.encode([add(x, y) for x, y in zip(self.decode(a), self.decode(b))])

    def _untabled_sub(self, a, b):
        return self._untabled_add(a, self._untabled_neg(b))

    def _untabled_neg(self, a):
        neg = self._coef.neg
        return self.encode([neg(x) for x in self.decode(a)])

    def _untabled_mul(self, a, b):
        F = self._coef
        prod = Poly(F, self.decode(a)) * Poly(F, self.decode(b))
        return self.encode((prod % self._mpoly).coeffs)

    def _untabled_inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._untabled_pow(a, self.order - 2)

    def _untabled_pow(self, a, e):
        if e < 0:
            a, e = self._untabled_inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._untabled_mul(r, a)
            a = self._untabled_mul(a, a)
            e >>= 1
        return r

    def _untabled_frob(self, a, i):
        return self._untabled_pow(a, self._coef.order ** (i % self._k))

    # -- polynomials and codes ------------------------------------------------

    def convolve(self, a, b) -> list[int]:
        """Coefficient codes of the product of two polynomials given as
        code sequences (constant term first, both nonempty)."""
        out = [0] * (len(a) + len(b) - 1)
        if self._addtab is not None:
            add, exp, log = self._addtab, self._exp, self._log
            for i, x in enumerate(a):
                if x:
                    lx = log[x]
                    for j, y in enumerate(b):
                        if y:
                            out[i + j] = add[out[i + j]][exp[lx + log[y]]]
            return out
        if self._coef is None:
            # a prime field: accumulate integer products, reduce once
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            p = self.p
            return [c % p for c in out]
        add, mul = self.add, self.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = add(out[i + j], mul(x, y))
        return out

    def decode(self, code) -> tuple[int, ...]:
        B = self._coef.order
        out = []
        for _ in range(self._k):
            code, r = divmod(code, B)
            out.append(r)
        return tuple(out)

    def encode(self, digits) -> int:
        B = self._coef.order
        code = 0
        for c in reversed(tuple(digits)):
            code = code * B + c
        return code

    def np_tables(self):
        """(add, mul, inv) lookup tables as numpy arrays, for vectorized
        matrix kernels over a non-prime base field."""
        if self._coef is None:
            raise ValueError("prime fields use direct modular arithmetic")
        if self.order > NP_TABLES_MAX:
            raise ValueError("base field too large for dense tables")
        if self._np_tables is None:
            exp, log = np.array(self._exp), np.array(self._log)
            add = np.concatenate(list(self._add_blocks()))
            mul = exp[log[:, None] + log[None, :]]
            inv = np.concatenate(([0], exp[self._n - log[1:]]))
            self._np_tables = tuple(t.astype(np.int16) for t in (add, mul, inv))
        return self._np_tables

    def np_explog(self):
        """(exp, log) lookup tables as int32 numpy arrays, with
        exp[log[a] + log[b]] = a * b for every pair of codes, zero
        included (see ``_build_tables``)."""
        if self._coef is None:
            raise ValueError("prime fields use direct modular arithmetic")
        if self.order > _EXPLOG_MAX:
            raise ValueError(
                f"F_{self.order} has more than {_EXPLOG_MAX} elements and "
                "keeps no exp/log tables"
            )
        if self._np_explog is None:
            self._np_explog = (
                np.array(self._exp, dtype=np.int32),
                np.array(self._log, dtype=np.int32),
            )
        return self._np_explog


class Field(_Quotient):
    """Finite field F_q with q = p^f, as F_p[x]/(m(x)).

    Elements are integer codes 0..q-1; see the module docstring for the
    packing.  Instances are immutable and hashable; arithmetic methods
    work on codes.
    ``Field(p)`` is a prime field with direct modular arithmetic.
    """

    def __new__(cls, p: int, f: int = 1, modulus=None):
        return super().__new__(_PrimeField if f == 1 else cls)

    def __init__(self, p: int, f: int = 1, modulus=None):
        if _factorize(p) != {p: 1}:
            raise ValueError(f"characteristic {p} is not prime")
        if f < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.f = f
        if f == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise ValueError("prime field modulus must be x")
            self.modulus = (0, 1)
            self.order = p
            self._coef = self._addtab = None
        else:
            prime = get_field(p)
            if modulus is None:
                modulus = _scan_irreducible(prime, f)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != f + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree f")
            self._init_quotient(prime, modulus)
        self.q = self.order

    def descriptor(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} f={self.f} mod={mod}"

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, Field)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((Field, self.p, self.f, self.modulus))

    def __repr__(self):
        return f"F_{self.q}"


class _PrimeField(Field):
    """F_p: codes are residues under direct modular arithmetic."""

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a, e):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        return pow(a, e, self.p)


class ExtField(_Quotient):
    """Degree-d extension F_{q^d} = F_q[t]/(m(t)) over a ``Field``.

    Elements are integer codes 0..q^d-1 packing coordinate vectors in the
    power basis {1, t, ..., t^(d-1)}; codes below q are the base-field
    elements.  Small extensions keep exp/log and addition lookup tables,
    so multiplication, inversion, negation and Frobenius are O(1) lookups.
    """

    def __init__(self, base: Field, d: int, modulus=None):
        if d < 2:
            raise ValueError("extension degree must be >= 2")
        self.base = base
        self.d = d
        self.p = base.p
        self.q = base.q
        if modulus is None:
            modulus = default_extension_modulus(base, d)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if not all(0 <= c < base.q for c in modulus):
            raise ValueError("modulus coefficients must be base-field codes")
        self._init_quotient(base, modulus)
        # the code of t, the power-basis generator
        self.tau_code = base.q

    def in_base(self, code) -> bool:
        return code < self.q

    def norm(self, code) -> int:
        """Norm down to the base field: a^(1 + q + ... + q^(d-1))."""
        n = (self.order - 1) // (self.q - 1)
        out = self.pow_(code, n)
        assert self.in_base(out) or code == 0
        return out

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, ExtField)
            and (self.base, self.d, self.modulus) == (other.base, other.d, other.modulus)
        )

    def __hash__(self):
        return hash((ExtField, self.base, self.d, self.modulus))

    def __repr__(self):
        return f"F_{self.order}/F_{self.q}"


# ---------------------------------------------------------------------------
# Derived constructions
# ---------------------------------------------------------------------------


def gaussian_binomial(d: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of a d-dimensional space over a
    field with q elements, as an exact integer."""
    if not 0 <= i <= d:
        raise ValueError("subspace dimension out of range")
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    num = 1
    den = 1
    for j in range(i):
        num *= q ** (d - j) - 1
        den *= q ** (j + 1) - 1
    assert num % den == 0
    return num // den


def default_extension_modulus(base: Field, d: int) -> tuple[int, ...]:
    """Deterministic extension modulus.  The (q, d) = (3, 5) tower is
    pinned to t^5 - t - 1 so that the worked construction over F_243 is
    reproduced bit for bit; every other case scans monic polynomials in
    ascending code order and takes the first irreducible one."""
    if base.q == 3 and d == 5:
        return (2, 2, 0, 0, 0, 1)
    return _scan_irreducible(base, d)


def frobenius_matrix(E: ExtField, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of x -> x^(q^i) on E over its base field.

    Acts on coordinate columns: column j is the coordinate vector of
    tau^j raised to the q^i-th power.
    """
    if i < 0:
        raise ValueError("Frobenius power must be >= 0")
    d = E.d
    cols = []
    t = 1
    for _ in range(d):
        cols.append(E.decode(E.frob(t, i)))
        t = E.mul(t, E.tau_code)
    return tuple(tuple(cols[j][r] for j in range(d)) for r in range(d))


def regular_rep(E: ExtField, a: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by the element with code a on E over its
    base field (column j = coordinates of a * tau^j)."""
    a = int(a)
    if not 0 <= a < E.order:
        raise ValueError(f"code {a} out of range for order {E.order}")
    d = E.d
    cols = []
    t = 1
    for _ in range(d):
        cols.append(E.decode(E.mul(a, t)))
        t = E.mul(t, E.tau_code)
    return tuple(tuple(cols[j][r] for j in range(d)) for r in range(d))


def mult_generator(E: ExtField) -> int:
    """Code of the smallest element (in code order) whose class generates
    the cyclic quotient E^x / base^x, of order n = (q^d - 1)/(q - 1)."""
    n = (E.order - 1) // (E.q - 1)
    primes = list(_factorize(n))
    for code in range(2, E.order):
        if E.in_base(code):
            continue
        if all(not E.in_base(E.pow_(code, n // r)) for r in primes):
            # the n-th power is the norm, so it always lands in the base
            assert E.in_base(E.pow_(code, n))
            return code
    raise RuntimeError("no generator found")  # pragma: no cover


def get_field(p: int, f: int = 1, modulus=None) -> Field:
    return _cached_field(p, f, None if modulus is None else tuple(modulus))


def get_ext_field(p: int, f: int, d: int, modulus=None) -> ExtField:
    return _cached_ext_field(p, f, d, None if modulus is None else tuple(modulus))


# The public getters pass every argument positionally, so a call with and
# one without an explicit ``modulus=None`` share one cache entry.
@functools.lru_cache(maxsize=None)
def _cached_field(p, f, modulus):
    return Field(p, f, modulus)


@functools.lru_cache(maxsize=None)
def _cached_ext_field(p, f, d, modulus):
    return ExtField(get_field(p, f), d, modulus)

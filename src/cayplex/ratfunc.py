"""Dense univariate polynomials over a finite field, with exact local
valuations.

Coefficients are carried as field codes (see ``ffield``); the coefficient
field may be a ``Field`` or an ``ExtField``, anything exposing code
arithmetic.  This module imports nothing from ``ffield``, which builds
its irreducibility test and untabled field products on ``Poly``.
``Poly`` is trimmed and immutable, with the constant term first.  It is
the only polynomial type: the cyclic algebra's coordinates are ``Poly``
numerators over a central t^i (1+t)^j denominator, and reduced norms are
split as rest * t^a * (1+t)^b with ``t_valuation`` and
``root_multiplicity``, so no rational-function field is needed.

The degree of the zero polynomial is -inf and its valuations are +inf,
using float infinities as sentinels next to exact integers everywhere
else.
"""

from __future__ import annotations

__all__ = ["INF", "NEG_INF", "Poly"]

INF = float("inf")
NEG_INF = float("-inf")


class Poly:
    """Polynomial over a finite field, coefficients as codes, constant
    term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, field, cs: list) -> Poly:
        """From a list of Python int codes, trimmed in place; the internal
        constructor for arithmetic results, skipping the int() pass."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(cs)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field) -> Poly:
        return cls(field, (1,))

    @classmethod
    def t(cls, field) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field, code: int) -> Poly:
        return cls(field, (code,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("polynomial over a different field")
            return other
        if isinstance(other, int):
            return Poly(self.field, (other % self.field.p,))
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = F.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly._of(F, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return Poly._of(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        return Poly._of(F, F.convolve(a, b))

    __rmul__ = __mul__

    def scale(self, code: int) -> Poly:
        """Multiply by a field element given as a code."""
        F = self.field
        if code == 0:
            return Poly(F, ())
        return Poly._of(F, [F.mul(c, code) for c in self.coeffs])

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        quo = [0] * max(0, len(rem) - db)
        ilc = F.inv(other.lead)
        while len(rem) - 1 >= db:
            c = F.mul(rem[-1], ilc)
            k = len(rem) - 1 - db
            if c:
                quo[k] = c
                for i, y in enumerate(other.coeffs):
                    rem[k + i] = F.sub(rem[k + i], F.mul(c, y))
            rem.pop()
        return Poly(F, quo), Poly(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> Poly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        if self.lead == 1:
            return self
        return self.scale(self.field.inv(self.lead))

    def gcd(self, other) -> Poly:
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    # -- valuations ---------------------------------------------------------

    def t_valuation(self):
        """Order of vanishing at t = 0 (+inf for the zero polynomial)."""
        if not self.coeffs:
            return INF
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k

    def root_multiplicity(self, c: int):
        """Order of vanishing at t = c (+inf for the zero polynomial)."""
        if not self.coeffs:
            return INF
        if c == 0:
            return self.t_valuation()
        F = self.field
        cur = list(self.coeffs)
        mult = 0
        while True:
            # synthetic division by (t - c)
            out = [0] * (len(cur) - 1)
            acc = 0
            for i in range(len(cur) - 1, 0, -1):
                acc = F.add(F.mul(acc, c), cur[i])
                out[i - 1] = acc
            rem = F.add(F.mul(acc, c), cur[0])
            if rem != 0:
                return mult
            mult += 1
            cur = out
            if not cur:
                return mult

    def deflate(self, c: int, k: int) -> Poly:
        """Exact division by (t - c)^k."""
        F = self.field
        lin = Poly(F, (F.neg(c), 1))
        out = self
        for _ in range(k):
            out = out.exact_div(lin)
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(f"[{c}]")
            else:
                head = "" if c == 1 else f"[{c}]*"
                terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return " + ".join(terms)

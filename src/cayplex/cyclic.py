"""Exact arithmetic in the cyclic algebra D = (E(t)/F(t), sigma, 1+t).

E = F_{q^d} is a degree-d extension of F = F_q with Galois group
generated by the Frobenius; sigma = Frobenius^s for some s coprime to d.
D has basis z^0..z^{d-1} over E(t) with the twisted relations

    z * a = sigma(a) * z   (a in E(t), sigma fixing t),
    z^d   = 1 + t.

Every element the package handles (z, omega(u) = u (1 - z^{-1}) u^{-1},
and products and inverses of these) has coordinates whose denominators
are central monomials t^i (1+t)^j, so ``CycElem`` stores exactly that:
one exponent pair (i, j) and d polynomial numerators over E,

    a = (P_0 + P_1 z + ... + P_{d-1} z^{d-1}) / (t^i (1+t)^j).

Products multiply the numerators with the twisted rule and add the
exponent pairs; no polynomial gcd is ever taken.  Products of whole
words over the base system omega(u^j) (the product system's candidate
check and its witness lifts) do not run here but in
``genforge.word_kernel``, as numpy gathers on arrays of E codes;
``CycElem`` products are its test oracle.  Equality and hashing
use the normal form with the common powers of t and (1+t) stripped.

The faithful d x d representation over E[t] is read with the basis
{1, z, ..., z^{d-1}} as a right vector space and matrices acting on
coordinate columns: a field coefficient c goes to
diag(c, sigma^{-1}(c), ..., sigma^{-(d-1)}(c)) and z to the
companion-style matrix with subdiagonal ones and 1+t in the top right
corner.  (The inverse twists on the diagonal are forced by the relation
z*c = sigma(c)*z; the test suite checks both generator images.)  The
reduced norm is the determinant of the numerator's matrix, found by
fraction-free (Bareiss) elimination, over the d-th power of the
denominator.  Reduced norms have one exact normal form, the triple
(rest, a, b) with Nrd = rest * t^a * (1+t)^b and rest prime to t(1+t);
for every element the package builds, rest is a constant.
``reduced_norm`` reads the triple off the determinant, and no
polynomial gcd is taken.

No general inverse is needed: since z^{-d} = 1/(1+t) is central,
(1 - z^{-1})^{-1} is a finite geometric series, and

    omega(u)^{-1} = ((1+t) + sum_{k=1}^{d-1} u sigma^k(u^{-1}) z^k) / t,

which ``CycAlg.omega_inv`` builds directly and checks by one product.

The specialization map sends t to gamma = Norm(1+alpha) - 1, a field
coefficient c to the regular representation of c(gamma) over F_q, and z
to Z = regular_rep(1+alpha) * frobenius_matrix(E, s); it is a ring
homomorphism into d x d matrices over F_q.  ``gamma_from_alpha`` keeps
gamma outside {0, -1}, so no denominator vanishes there.
``CycAlg.specialize`` takes a list of elements and returns one (B, d, d)
``MatSpace`` batch.  It evaluates every coordinate at gamma, then applies
one F_q-linear map, from the base-field digits of the d values to
matrices, whose rows regular_rep(tau^e) * Z^k are built once per alpha.
"""

from __future__ import annotations

import math

import numpy as np

from cayplex.ffield import ExtField, frobenius_matrix, regular_rep
from cayplex.projmat import MatSpace
from cayplex.ratfunc import Poly

__all__ = ["CycAlg", "CycElem", "gamma_from_alpha"]


def gamma_from_alpha(E: ExtField, alpha: int) -> int:
    """gamma = Norm(1+alpha) - 1 as a base-field code.

    For alpha in the base field this is (1+alpha)^d - 1.  Raises when
    alpha or gamma lands in {0, -1}, where the specialization ideal
    degenerates.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    one_plus = E.add(1, alpha)
    if one_plus == 0:
        raise ValueError("alpha = -1 is not allowed")
    gamma = E.base.sub(E.norm(one_plus), 1)
    if gamma == 0 or E.base.add(gamma, 1) == 0:
        raise ValueError(f"gamma = {gamma} degenerate for alpha = {alpha}")
    return gamma


class CycAlg:
    """The cyclic algebra over E(t) with twist sigma = Frobenius^s."""

    def __init__(self, E: ExtField, s: int = 1):
        s %= E.d
        if math.gcd(s, E.d) != 1:
            raise ValueError(f"s = {s} must be coprime to d = {E.d}")
        self.E = E
        self.d = E.d
        self.s = s
        self.one_plus_t = Poly(E, (1, 1))
        self._zero = Poly.zero(E)
        self._one = Poly.one(E)
        self._image_maps: dict[int, np.ndarray] = {}
        self._gammas: dict[int, int] = {}
        self._space = None

    # -- the twist --------------------------------------------------------

    def sigma(self, code: int, k: int = 1) -> int:
        return self.E.frob(code, (self.s * k) % self.d)

    def sigma_poly(self, p: Poly, k: int = 1) -> Poly:
        if (self.s * k) % self.d == 0 or not p.coeffs:
            return p
        return Poly._of(self.E, self._sigma_codes(p.coeffs, k))

    def _sigma_codes(self, codes, k: int) -> list[int]:
        i = (self.s * k) % self.d
        if i == 0:
            return list(codes)
        frob = self.E.frob
        return [frob(c, i) for c in codes]

    # -- element constructors ----------------------------------------------

    def elem(self, coords, den=(0, 0)) -> CycElem:
        """sum_k coords[k] z^k / (t^den[0] (1+t)^den[1]), coords Polys."""
        coords = tuple(coords)
        if len(coords) != self.d:
            raise ValueError(f"need exactly {self.d} coefficients")
        return CycElem(self, den, coords)

    def _basis(self, k: int, p: Poly, den=(0, 0)) -> CycElem:
        coords = [self._zero] * self.d
        coords[k] = p
        return CycElem(self, den, coords)

    def zero(self) -> CycElem:
        return self._basis(0, self._zero)

    def one(self) -> CycElem:
        return self._basis(0, self._one)

    def one_minus_z_inv(self) -> CycElem:
        return self.omega(1)

    def unit_ratio(self, u: int) -> int:
        """c_u = u / sigma^{-1}(u), the coefficient in omega(u)."""
        if u == 0:
            raise ValueError("u must be a unit")
        return self.E.mul(u, self.E.inv(self.sigma(u, -1)))

    def omega(self, u: int) -> CycElem:
        """u (1 - z^{-1}) u^{-1} = ((1+t) - c_u z^{d-1}) / (1+t)."""
        coords = [self._zero] * self.d
        coords[0] = self.one_plus_t
        coords[self.d - 1] = Poly.const(self.E, self.E.neg(self.unit_ratio(u)))
        return CycElem(self, (0, 1), coords)

    def omega_inv(self, u: int) -> CycElem:
        """omega(u)^{-1} = ((1+t) + sum_{k=1}^{d-1} u sigma^k(u^{-1}) z^k) / t,
        from (1 - z^{-1})(1 + z^{-1} + ... + z^{-(d-1)}) = t/(1+t)
        conjugated by u."""
        E = self.E
        u_inv = E.inv(u)
        coords = [self.one_plus_t] + [
            Poly.const(E, E.mul(u, self.sigma(u_inv, k))) for k in range(1, self.d)
        ]
        out = CycElem(self, (1, 0), coords)
        assert self.omega(u) * out == self.one(), "omega inverse verification failed"
        return out

    # -- specialization -----------------------------------------------------

    def space(self) -> MatSpace:
        """The batch kernel of d x d matrices over the base field."""
        if self._space is None:
            self._space = MatSpace(self.E.base, self.d)
        return self._space

    def _image_map(self, c: int) -> np.ndarray:
        """The (d*d, d*d) matrix whose row k*d + e is the flattened
        regular_rep(tau^e) * Z^k for Z = regular_rep(c) *
        frobenius_matrix(E, s), cached per code c.  With c = 1 + alpha, Z^k
        is the image of z^k under specialization; with c = 1, Z is the
        twist's Frobenius matrix."""
        M = self._image_maps.get(c)
        if M is None:
            E, d, ms = self.E, self.d, self.space()
            Z = ms.mul(ms.asbatch(regular_rep(E, c)),
                       ms.asbatch(frobenius_matrix(E, self.s)))
            pows = [ms.identity_batch(1)]
            for _ in range(d - 1):
                pows.append(ms.mul(pows[-1], Z))
            basis = ms.asbatch(regular_rep(E, E.pow_(E.tau_code, e)) for e in range(d))
            M = ms.mul(basis[None], np.concatenate(pows)[:, None])
            M = self._image_maps[c] = M.reshape(d * d, d * d)
        return M

    def image(self, digits: np.ndarray, c: int) -> np.ndarray:
        """sum_k regular_rep(v_k) * Z^k (Z as in ``_image_map``) for a
        batch of coordinate vectors (v_0, ..., v_{d-1}) over E, given by
        their base-field digits: a (B, d, d) array whose entry [b, k, e]
        is the tau^e digit of v_k.  The map is F_q-linear, so this is one
        product with the cached (d*d, d*d) matrix; returns (B, d, d)."""
        B, d = digits.shape[0], self.d
        flat = digits.reshape(B, 1, d * d)
        return self.space().mul(flat, self._image_map(c)).reshape(B, d, d)

    def specialize(self, lifts, alpha: int) -> np.ndarray:
        """Evaluate a list of elements at t = gamma and represent them over
        F_q (see module doc): a (B, d, d) batch of base-field codes.

        Each coordinate P_k / (t^i (1+t)^j) is evaluated at gamma as the
        F_q-combination sum_m w_m P_k[m] of its coefficients, with weights
        w_m = gamma^m / (gamma^i (1+gamma)^j) per denominator; on base-field
        digits that is one batched product.  ``image`` then maps the
        values to matrices.
        """
        E, F, d, q = self.E, self.E.base, self.d, self.E.q
        gamma = self._gammas.get(alpha)
        if gamma is None:
            gamma = self._gammas[alpha] = gamma_from_alpha(E, alpha)
        B = len(lifts)
        L = max([1] + [len(P.coeffs) for a in lifts for P in a.coords])
        powers = [F.pow_(gamma, m) for m in range(L)]
        weights = {}
        codes, w = [], []
        for a in lifts:
            codes.extend(list(P.coeffs) + [0] * (L - len(P.coeffs)) for P in a.coords)
            row = weights.get(a.den)
            if row is None:
                i, j = a.den
                # nonzero since gamma is not 0 or -1
                scale = F.inv(F.mul(F.pow_(gamma, i), F.pow_(F.add(gamma, 1), j)))
                row = weights[a.den] = [F.mul(x, scale) for x in powers]
            w.append(row)
        codes = np.array(codes, dtype=np.int64).reshape(B, d, L)
        # digits[b, k, e, m]: the tau^e digit of the t^m coefficient of P_k
        digits = codes[:, :, None, :] // q ** np.arange(d)[:, None] % q
        ms = self.space()
        vals = ms.mul(digits.reshape(B, d * d, L), np.array(w).reshape(B, L, 1))
        return self.image(vals.reshape(B, d, d), E.add(1, alpha))

    def __eq__(self, other):
        return (
            isinstance(other, CycAlg) and self.E == other.E and self.s == other.s
        )

    def __hash__(self):
        return hash((CycAlg, self.E, self.s))

    def __repr__(self):
        return f"CycAlg(E=F_{self.E.order}, s={self.s})"


def _fraction_free(rows) -> Poly:
    """The determinant of a square matrix over E[t], by Bareiss
    elimination.

    Every intermediate entry is a minor of the input, so each division
    by the previous pivot is exact; pivots of least degree keep those
    divisions cheap.
    """
    n = len(rows)
    E = rows[0][0].field
    M = [list(r) for r in rows]
    prev = None  # the previous pivot; None stands for the constant 1
    sign = 1
    for k in range(n):
        live = [r for r in range(k, n) if M[r][k].coeffs]
        if not live:
            return Poly.zero(E)
        piv = min(live, key=lambda r: len(M[r][k].coeffs))
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pk, pivot_row = M[k][k], M[k]
        for r in range(k + 1, n):
            row = M[r]
            nf = -row[k]
            for c in range(k + 1, n):
                x = pk * row[c] + nf * pivot_row[c] if nf.coeffs else pk * row[c]
                if prev is None:
                    row[c] = x
                elif len(prev.coeffs) == 1:
                    row[c] = x.scale(E.inv(prev.coeffs[0]))
                else:
                    row[c] = x.exact_div(prev)
        prev = pk
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


class CycElem:
    """Element sum_k P_k z^k / (t^i (1+t)^j) of a cyclic algebra, with
    P_k in E[t] (``coords``) and ``den`` = (i, j)."""

    __slots__ = ("alg", "den", "coords")

    def __init__(self, alg: CycAlg, den, coords):
        self.alg = alg
        self.den = tuple(den)
        self.coords = tuple(coords)

    def _check(self, other) -> CycElem:
        if not isinstance(other, CycElem) or other.alg != self.alg:
            raise ValueError("operand is not an element of this algebra")
        return other

    def __mul__(self, other):
        other = self._check(other)
        alg = self.alg
        E, d = alg.E, alg.d
        add = E.add
        # numerator coefficient codes of each z^k, accumulated in place
        out = [[] for _ in range(d)]
        for i, a in enumerate(self.coords):
            if not a.coeffs:
                continue
            for j, b in enumerate(other.coords):
                if not b.coeffs:
                    continue
                term = E.convolve(a.coeffs, alg._sigma_codes(b.coeffs, i))
                if i + j >= d:  # z^d = 1 + t
                    term = [add(x, y) for x, y in zip(term + [0], [0] + term)]
                acc = out[(i + j) % d]
                if len(acc) < len(term):
                    acc.extend([0] * (len(term) - len(acc)))
                for m, c in enumerate(term):
                    if c:
                        acc[m] = add(acc[m], c)
        den = (self.den[0] + other.den[0], self.den[1] + other.den[1])
        return CycElem(alg, den, [Poly._of(E, cs) for cs in out])

    def _normal(self) -> CycElem:
        """The same element with the common t and (1+t) factors of the
        numerators and the denominator cancelled."""
        nonzero = [p for p in self.coords if p.coeffs]
        if not nonzero:
            return CycElem(self.alg, (0, 0), self.coords)
        i, j = self.den
        coords = self.coords
        vt = min([i] + [p.t_valuation() for p in nonzero])
        if vt:
            coords = tuple(Poly(p.field, p.coeffs[vt:]) for p in coords)
        if j:
            neg_one = self.alg.E.neg(1)
            vs = min([j] + [p.root_multiplicity(neg_one) for p in coords if p.coeffs])
            if vs:
                coords = tuple(p.deflate(neg_one, vs) if p.coeffs else p
                               for p in coords)
                j -= vs
        return CycElem(self.alg, (i - vt, j), coords)

    # -- representation -----------------------------------------------------

    def matrix_rep(self):
        """d x d row tuples of Polys: the representation of the numerator
        sum_k P_k z^k (the element's own matrix is this over its
        central denominator)."""
        alg, d = self.alg, self.alg.d
        rows = []
        for k in range(d):
            row = []
            for j in range(d):
                entry = alg.sigma_poly(self.coords[(k - j) % d], -k)
                if k < j and entry.coeffs:
                    entry = entry * alg.one_plus_t
                row.append(entry)
            rows.append(tuple(row))
        return tuple(rows)

    def reduced_norm(self) -> tuple[Poly, int, int]:
        """Nrd = rest * t^a * (1+t)^b as (rest, a, b): ``rest`` is a
        polynomial over F_q prime to t(1+t), and a, b are integers.  The
        determinant of the representation, descended to F_q[t], split,
        and divided by the d-th power of the denominator.  Raises
        ValueError on a zero norm."""
        E, d = self.alg.E, self.alg.d
        det = _fraction_free(self.matrix_rep())
        if det.is_zero():
            raise ValueError("zero reduced norm")
        if not all(E.in_base(c) for c in det.coeffs):
            raise AssertionError(
                "reduced norm failed to descend to the center — arithmetic bug"
            )
        neg_one = E.neg(1)
        a = det.t_valuation()
        rest = Poly(E, det.coeffs[a:])
        b = rest.root_multiplicity(neg_one)
        rest = rest.deflate(neg_one, b)
        i, j = self.den
        return Poly(E.base, rest.coeffs), a - d * i, b - d * j

    def is_central_scalar(self) -> bool:
        """True when the element lies in F_q(t)^x * 1."""
        head = self.coords[0]
        return (
            bool(head.coeffs)
            and not any(p.coeffs for p in self.coords[1:])
            and all(self.alg.E.in_base(c) for c in head.coeffs)
        )

    def __eq__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        if self.alg != other.alg:
            return False
        a, b = self._normal(), other._normal()
        return a.den == b.den and a.coords == b.coords

    def __hash__(self):
        a = self._normal()
        return hash((self.alg, a.den, a.coords))

    def __repr__(self):
        terms = [f"({p!r})z^{k}" for k, p in enumerate(self.coords) if p.coeffs]
        num = " + ".join(terms) if terms else "0"
        return f"[{num}] / t^{self.den[0]}(1+t)^{self.den[1]}"

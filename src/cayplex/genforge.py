"""Generator systems for finite projective linear groups.

Three nested systems of elements of PGL_d(F_q) are built from the cyclic
division algebra of :mod:`cayplex.cyclic`:

* the base system (kind ``omega``): the n = (q^d-1)/(q-1) conjugates
  u^j (1 - z^{-1}) u^{-j} of 1 - z^{-1}, specialized to finite matrices;
* its inverse closure (kind ``omegabar``), expected size 2n;
* the product system (kind ``omegahat``): all proper prefixes of
  length-d words over the base system whose product is a central scalar,
  one element per projective class, carrying a color in 1..d-1 and a
  shortest witnessing word.  Its color classes are counted by Gaussian
  binomials and its elements correspond to the proper nonzero subspaces
  of F_q^d via :func:`attach_subspace`.

Every finite matrix carries an exact global lift in the algebra, and the
structural claims (cardinalities, colors, inverse closure, class sizes)
are asserted at build time rather than trusted.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .cyclic import CycAlg, CycElem, gamma_from_alpha
from .ffield import (
    NP_TABLES_MAX,
    gaussian_binomial,
    get_ext_field,
    get_field,
    mult_generator,
    regular_rep,
)
from .projmat import (
    _PRODUCT_BLOCK,
    MatSpace,
    ProjMat,
    canon_rows,
    column_space_rref,
    mat_add,
    mat_eye,
    mat_inv,
    mat_mul,
)
from .ratfunc import Poly
from .util import atomic_write_text, ordered_chunked_map, read_checked_text

KIND_OMEGA = "omega"
KIND_OMEGABAR = "omegabar"
KIND_OMEGAHAT = "omegahat"

_DEFAULT_MEM_BUDGET = 4 << 30  # bytes
_MEM_BUDGET_ENV = "CAYPLEX_MEM_BUDGET"


class MemoryBudgetError(MemoryError):
    """Raised when a build would exceed the configured memory budget."""


def default_mem_budget() -> int:
    """Memory budget in bytes (env override via CAYPLEX_MEM_BUDGET)."""
    raw = os.environ.get(_MEM_BUDGET_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{_MEM_BUDGET_ENV} must be an integer byte count, got {raw!r}"
            ) from exc
    return _DEFAULT_MEM_BUDGET


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    m = q
    for p in range(2, q + 1):
        if m % p == 0:
            f = 0
            while m % p == 0:
                m //= p
                f += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, f
    raise ValueError(f"q = {q} is not a prime power")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class GenParams:
    """Parameters of a generator system over F_q with extension degree d.

    Attributes:
        base: the field F_q.
        E: the degree-d extension of ``base``.
        q, d, s: field size, degree, and twist exponent (gcd(s, d) = 1).
        alpha: base-field code with alpha and gamma = N(1+alpha) - 1 both
            outside {0, -1}.
        gamma: derived specialization point (base-field code).
        u: code of a fixed generator of E^x / F_q^x (smallest, so the
            choice is deterministic).
        n: (q^d - 1)/(q - 1), the size of the base system.
        warnings: non-fatal parameter advisories (odd/co-primality of q
            and d; the q > 4d^2 + 1 heuristic bound).
    """

    __slots__ = ("base", "E", "q", "d", "s", "alpha", "gamma", "u", "n",
                 "warnings", "_alg")

    def __init__(self, base, E, s: int, alpha: int, warnings):
        self.base = base
        self.E = E
        self.q = base.q
        self.d = E.d
        self.s = s
        self.alpha = alpha
        self.gamma = gamma_from_alpha(E, alpha)
        self.u = mult_generator(E).code
        self.n = (base.q**E.d - 1) // (base.q - 1)
        self.warnings = tuple(warnings)
        self._alg = None

    def alg(self) -> CycAlg:
        if self._alg is None:
            self._alg = CycAlg(self.E, self.s)
        return self._alg

    def __eq__(self, other):
        return (
            isinstance(other, GenParams)
            and self.E == other.E
            and self.s == other.s
            and self.alpha == other.alpha
        )

    def __hash__(self):
        return hash((self.E, self.s, self.alpha))

    def __repr__(self):
        return (
            f"GenParams(q={self.q}, d={self.d}, s={self.s}, "
            f"alpha={self.alpha}, gamma={self.gamma}, n={self.n})"
        )


def default_alpha(E) -> int:
    """Default specialization parameter: -2 when admissible, else the
    smallest admissible base-field code."""
    base = E.base
    cand = base.neg(2)
    try:
        gamma_from_alpha(E, cand)
        return cand
    except ValueError:
        pass
    for code in range(1, base.order):
        try:
            gamma_from_alpha(E, code)
            return code
        except ValueError:
            continue
    raise ValueError(
        f"no admissible alpha exists over {base.descriptor()} (q too small)"
    )


def make_params(
    q: int,
    d: int,
    s: int = 1,
    alpha: int | None = None,
    modulus=None,
    base_modulus=None,
) -> GenParams:
    """Validate and assemble generator-system parameters.

    Raises ValueError for q = 2 (the residue field is too small for any
    admissible alpha), non-prime-power q, or gcd(s, d) != 1.  Parameter
    combinations that merely fall outside the comfortable regime (q, d
    not both odd and co-prime; q <= 4d^2 + 1) produce entries in
    ``params.warnings`` instead of errors.
    """
    p, f = _prime_power(q)
    if q == 2:
        raise ValueError(
            "q = 2 is unsupported: no alpha with alpha, gamma outside {0, -1}"
        )
    if d < 2:
        raise ValueError("d must be at least 2")
    s %= d
    if math.gcd(s, d) != 1:
        raise ValueError(f"s = {s} must be invertible modulo d = {d}")
    base = get_field(p, f, tuple(base_modulus) if base_modulus else None)
    E = get_ext_field(p, f, d, tuple(modulus) if modulus else None)
    warnings = []
    if not (q % 2 == 1 and d % 2 == 1 and math.gcd(q, d) == 1):
        warnings.append(
            f"q = {q} and d = {d} are not both odd and co-prime; "
            "constructed sets are verified explicitly rather than assumed"
        )
    if q <= 4 * d * d + 1:
        warnings.append(
            f"q = {q} <= 4d^2 + 1 = {4 * d * d + 1}; the size heuristic "
            "does not apply, duplicate checks are enforced at build time"
        )
    if alpha is None:
        alpha = default_alpha(E)
    elif not 0 <= alpha < q:
        raise ValueError(f"alpha = {alpha} is not a code of F_{q} (0 <= alpha < {q})")
    return GenParams(base, E, s, alpha, warnings)


# ---------------------------------------------------------------------------
# Generators and generator sets
# ---------------------------------------------------------------------------


class Generator:
    """One generator: finite projective matrix plus exact global lift.

    ``j`` is the conjugation exponent into the base system (-1 for
    product-system elements, whose provenance is the witnessing word).
    ``color`` is the valuation of the reduced norm of the lift at t = 0,
    taken mod d.  ``inv`` is the index of the inverse partner within the
    owning set (-1 when the set is not inverse-closed).  ``word`` is the
    shortest witnessing word (indices into the base system), present only
    for product-system elements.
    """

    __slots__ = ("finite", "lift", "j", "color", "inv", "word")

    def __init__(self, finite: ProjMat, lift: CycElem, j: int, color: int,
                 inv: int = -1, word=None):
        self.finite = finite
        self.lift = lift
        self.j = j
        self.color = color
        self.inv = inv
        self.word = tuple(word) if word is not None else None

    def __repr__(self):
        return (
            f"Generator(j={self.j}, color={self.color}, inv={self.inv}"
            + (f", word={self.word}" if self.word is not None else "")
            + ")"
        )


class GenSet:
    """An ordered generator system with serialization support.

    ``meta`` carries build diagnostics (coincidence pairs for the
    inverse closure; candidate/collision counts for the product system);
    it is informational and not serialized.
    """

    def __init__(self, params: GenParams, kind: str, gens, meta=None):
        if kind not in (KIND_OMEGA, KIND_OMEGABAR, KIND_OMEGAHAT):
            raise ValueError(f"unknown generator-set kind {kind!r}")
        self.params = params
        self.kind = kind
        self.gens = list(gens)
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        return self.gens[i]

    def finite_rows(self):
        """Row-tuple matrices of all generators, in set order."""
        return [g.finite.rows for g in self.gens]

    def is_symmetric(self) -> bool:
        return self.kind in (KIND_OMEGABAR, KIND_OMEGAHAT)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        p = self.params
        head = [
            f"version=1 kind={self.kind} q={p.q} d={p.d} s={p.s}",
            f"alpha={p.alpha}",
        ]
        if p.base.f > 1:
            bmod = ",".join(str(c) for c in p.base.modulus)
            head.append(f"p={p.base.p} f={p.base.f} bmod={bmod}")
        head.append("mod=" + ",".join(str(c) for c in p.E.modulus))
        lines = [" ".join(head)]
        f = p.base.f
        for i, g in enumerate(self.gens):
            flat = []
            for row in g.finite.rows:
                for code in row:
                    coeffs = p.base.decode(code) if f > 1 else (code,)
                    flat.extend(str(c) for c in coeffs)
            line = (
                f"idx={i} j={g.j} color={g.color} inv={g.inv} "
                f"mat={','.join(flat)}"
            )
            if g.word is not None:
                line += " word=" + ",".join(str(w) for w in g.word)
            lines.append(line)
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "GenSet":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty generator-set file")
        head = _parse_kv(lines[0])
        if head.get("version") != "1":
            raise ValueError(f"unsupported version {head.get('version')!r}")
        kind = _token(head, "kind", "header")
        q, d, s = (int(_token(head, k, "header")) for k in ("q", "d", "s"))
        alpha = int(_token(head, "alpha", "header"))
        modulus = tuple(int(c) for c in _token(head, "mod", "header").split(","))
        base_modulus = None
        if "bmod" in head:
            base_modulus = tuple(int(c) for c in head["bmod"].split(","))
        params = make_params(
            q, d, s=s, alpha=alpha, modulus=modulus, base_modulus=base_modulus
        )
        alg = params.alg()
        base, f = params.base, params.base.f
        gens = []
        for i, ln in enumerate(lines[1:]):
            kv = _parse_kv(ln)
            where = f"generator line {i + 2}"
            if int(_token(kv, "idx", where)) != i:
                raise ValueError(f"generator indices out of order at line {i + 2}")
            j, color, inv = (int(_token(kv, k, where)) for k in ("j", "color", "inv"))
            raw = [int(x) for x in _token(kv, "mat", where).split(",")]
            if len(raw) != d * d * f:
                raise ValueError(f"matrix entry count mismatch at idx={i}")
            if not all(0 <= x < base.p for x in raw):
                raise ValueError(
                    f"matrix digit out of range 0..{base.p - 1} at idx={i}"
                )
            codes = (
                raw
                if f == 1
                else [base.encode(tuple(raw[k : k + f])) for k in range(0, len(raw), f)]
            )
            rows = tuple(tuple(codes[r * d : (r + 1) * d]) for r in range(d))
            word = None
            if "word" in kv:
                word = tuple(int(w) for w in kv["word"].split(","))
            gens.append((rows, j, color, inv, word))
        return cls._rebuild(params, kind, gens, alg)

    @classmethod
    def load(cls, path: str) -> "GenSet":
        return cls.from_text(read_checked_text(path))

    @classmethod
    def _rebuild(cls, params, kind, raw_gens, alg) -> "GenSet":
        """Reconstruct global lifts from (j, word) data and verify each
        against its stored finite matrix.

        Stored colors are checked without a reduced norm: Nrd(omega(u^j))
        = t/(1+t) has valuation 1 at t = 0 and the norm is
        multiplicative, so the color is 1 on the base system, d-1 on its
        inverses and the word length on the product system.
        """
        E, F, n, d = params.E, params.base, params.n, params.d
        if kind == KIND_OMEGAHAT:
            words = [g[4] for g in raw_gens]
            if None in words:
                raise ValueError(
                    f"product-system entry idx={words.index(None)} lacks word="
                )
            word_lifts = _word_lifts(params, words)
        out = []
        for i, (rows, j, color, inv, word) in enumerate(raw_gens):
            if kind == KIND_OMEGAHAT:
                want = len(word)
            else:
                want = d - 1 if kind == KIND_OMEGABAR and i >= n else 1
            if color != want:
                raise ValueError(
                    f"color {color} at idx={i} disagrees with the norm "
                    f"valuation {want}"
                )
            pm = ProjMat(F, rows)
            if pm.rows != rows:
                raise ValueError(f"matrix at idx={i} is not in canonical form")
            if kind == KIND_OMEGAHAT:
                lift = word_lifts[i]
            else:
                if not (0 <= j < n):
                    raise ValueError(f"conjugation index {j} out of range at idx={i}")
                lift = alg.omega(E.pow_(params.u, j))
                if kind == KIND_OMEGABAR and i >= n:
                    lift = lift.inverse()
            spec = canon_rows(F, alg.specialize(lift, params.alpha))
            if spec != rows:
                raise ValueError(
                    f"lift verification failed at idx={i}: stored matrix does "
                    "not match the specialized lift"
                )
            out.append(Generator(pm, lift, j, color, inv, word))
        gs = cls(params, kind, out)
        _check_inverse_partners(gs)
        return gs


def _parse_kv(line: str) -> dict:
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"malformed token {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _token(kv: dict, key: str, where: str) -> str:
    """``kv[key]``, or a ValueError naming the missing token."""
    if key not in kv:
        raise ValueError(f"{where} lacks the required {key}= token")
    return kv[key]


def _word_lifts(params: GenParams, words, kernel=None) -> list[CycElem]:
    """Exact lifts of words over the base system: the product of the
    lifts of their letters, with numerators from ``word_kernel`` (one
    call per word length) over the denominator (1+t)^length."""
    alg, E, n = params.alg(), params.E, params.n
    by_length = {}
    for i, word in enumerate(words):
        if not word:
            raise ValueError("empty witnessing word")
        if not all(0 <= j < n for j in word):
            raise ValueError(f"word letter out of range 0..{n - 1} in {word}")
        by_length.setdefault(len(word), []).append(i)
    kernel = kernel or word_kernel(params)
    lifts = [None] * len(words)
    for length, idx in by_length.items():
        num = kernel(np.array([words[i] for i in idx]))
        for i, coords in zip(idx, num.tolist()):
            lifts[i] = alg.elem([Poly(E, c) for c in coords], (0, length))
    return lifts


def _check_inverse_partners(gs: GenSet) -> None:
    """Each generator's partner must be its projective inverse (checked
    as one batched product: A B is scalar exactly when B is A^-1 up to
    a scalar), partnered back, with complementary color."""
    if not gs.is_symmetric():
        return
    gens, d = gs.gens, gs.params.d
    for i, g in enumerate(gens):
        if not (0 <= g.inv < len(gens)):
            raise ValueError(f"generator {i} has no inverse partner")
    ms = MatSpace(gs.params.base, d)
    A = ms.asbatch(gs.finite_rows())
    prod = ms.canon(ms.mul(A, A[[g.inv for g in gens]]))
    wrong = (prod != ms.identity_batch(1)).any(axis=(1, 2))
    for i, g in enumerate(gens):
        k = g.inv
        if wrong[i]:
            raise ValueError(f"inverse partner of generator {i} is wrong")
        if gens[k].inv != i:
            raise ValueError(f"inverse pairing is not symmetric at {i}")
        if (g.color + gens[k].color) % d != 0:
            raise ValueError(f"inverse colors of generator {i} do not complement")


# ---------------------------------------------------------------------------
# Colors, norms
# ---------------------------------------------------------------------------


def _norm_valuation(lift: CycElem) -> int:
    v = lift.reduced_norm().valuation_at(0)
    if not isinstance(v, int):
        raise ValueError("lift has zero reduced norm")
    return v


# ---------------------------------------------------------------------------
# Base system
# ---------------------------------------------------------------------------


def build_omega(params: GenParams) -> GenSet:
    """The base system: conjugates of 1 - z^{-1} by powers of u.

    Element j has global lift u^j (1 - z^{-1}) u^{-j} and finite matrix
    theta^j b theta^{-j}, where theta is the regular representation of u
    and b the specialization of 1 - z^{-1}.  The two constructions are
    cross-checked per element; the n finite matrices must be pairwise
    projectively distinct (a collision means the finite quotient is too
    small to hold the system, and is a hard error).
    """
    alg = params.alg()
    E, F, d, n = params.E, params.base, params.d, params.n
    theta = regular_rep(E, params.u)
    theta_inv = mat_inv(F, theta)
    b = alg.specialize(alg.one_minus_z_inv(), params.alpha)
    cur = mat_eye(F, d)
    cur_inv = cur
    u_pow = 1
    gens = []
    seen = {}
    for j in range(n):
        lift = alg.omega(u_pow)
        rows = mat_mul(F, mat_mul(F, cur, b), cur_inv)
        pm = ProjMat(F, rows)
        spec = canon_rows(F, alg.specialize(lift, params.alpha))
        if spec != pm.rows:
            raise AssertionError(
                f"conjugate {j}: specialized lift disagrees with the "
                "conjugated finite matrix"
            )
        color = _norm_valuation(lift) % d
        if color != 1:
            raise AssertionError(f"conjugate {j} has color {color}, expected 1")
        key = pm.packed()
        if key in seen:
            raise ValueError(
                f"duplicate finite matrices at j={seen[key]} and j={j}: "
                "the finite quotient is too small for this parameter set"
            )
        seen[key] = j
        gens.append(Generator(pm, lift, j, color))
        cur = mat_mul(F, cur, theta)
        cur_inv = mat_mul(F, theta_inv, cur_inv)
        u_pow = E.mul(u_pow, params.u)
    return GenSet(params, KIND_OMEGA, gens)


def symmetrize(base_set: GenSet) -> GenSet:
    """Inverse closure of the base system.

    Returns the union of the input and its element-wise projective
    inverses, deduplicated, with inverse-partner indices filled in.  The
    expected size is 2n; coincidences (an inverse already present) are
    collected in ``meta['coincidences']`` as (source index, existing
    index) pairs and reported rather than treated as errors.
    """
    if base_set.kind not in (KIND_OMEGA, KIND_OMEGABAR):
        raise ValueError("symmetrize expects the base system or its closure")
    params = base_set.params
    F, d = params.base, params.d
    alg = params.alg()
    gens = []
    index_of = {}
    for g in base_set.gens:
        ng = Generator(g.finite, g.lift, g.j, g.color, -1, g.word)
        index_of[g.finite.packed()] = len(gens)
        gens.append(ng)
    coincidences = []
    for i in range(len(gens)):
        g = gens[i]
        inv_pm = g.finite.inverse()
        key = inv_pm.packed()
        if key in index_of:
            coincidences.append((i, index_of[key]))
            continue
        inv_lift = g.lift.inverse()
        spec = canon_rows(F, alg.specialize(inv_lift, params.alpha))
        if spec != inv_pm.rows:
            raise AssertionError(
                f"inverse of generator {i}: specialized lift disagrees with "
                "the inverted finite matrix"
            )
        color = _norm_valuation(inv_lift) % d
        if color != (d - g.color) % d:
            raise AssertionError(
                f"inverse of generator {i} has color {color}, expected {d - g.color}"
            )
        index_of[key] = len(gens)
        gens.append(Generator(inv_pm, inv_lift, g.j, color, -1, None))
    for i, g in enumerate(gens):
        g.inv = index_of[g.finite.inverse().packed()]
    out = GenSet(
        params,
        KIND_OMEGABAR,
        gens,
        meta={"coincidences": coincidences},
    )
    _check_inverse_partners(out)
    return out


# ---------------------------------------------------------------------------
# Product system (meet in the middle)
# ---------------------------------------------------------------------------


def _letters(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k base-n digits of each key, most significant first: the
    letters of the words that the keys number, as a (len(keys), k) array."""
    out = np.empty((len(keys), k), dtype=np.intp)
    rest = np.asarray(keys, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        rest, out[:, i] = np.divmod(rest, n)
    return out


def _array_ops(E):
    """(add, mul) on int arrays of E codes, as numpy gathers on tables E
    owns: its dense add and mul tables up to ``NP_TABLES_MAX`` elements,
    its exp/log tables and digit-wise addition mod p beyond.  Raises
    ValueError for a field that keeps no exp/log tables."""
    N = E.order
    if N <= NP_TABLES_MAX:
        add_t, mul_t, _ = (t.ravel() for t in E.np_tables())

        def gather(table):
            return lambda x, y: table.take(x.astype(np.intp) * N + y)

        return gather(add_t), gather(mul_t)
    try:
        exp, log = E.np_explog()
    except ValueError as exc:
        raise ValueError(f"the exact word verifier cannot run here: {exc}") from None
    # a code packs d * f digits base p, and addition is digit-wise mod p
    p = E.p
    weights = [p**i for i in range(E.d * E.base.f)]

    def add(x, y):
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int32)
        for w in weights:
            out += (x // w + y // w) % p * w
        return out

    def mul(x, y):
        return exp.take(log.take(x) + log.take(y))

    return add, mul


def word_kernel(params: GenParams):
    """The exact product numerators of words over the base system.

    Letter j of a word stands for the base element omega(u^j) =
    ((1+t) - c_j z^(d-1)) / (1+t), so a word of length L has product
    N / (1+t)^L with numerator N = sum_k P_k z^k, each P_k in E[t] of
    degree at most L.  Returns ``numerators(words)``: for an int array of
    words of shape (B, L), L >= 1, an int array of shape (B, d, L+1)
    whose entry [b, k, m] is the code of the t^m coefficient of P_k for
    word b, the same numerator that ``CycElem`` products of the letters'
    lifts carry.

    The numerator starts at (1+t) z^0 - c_j z^(d-1) for the first letter.
    Each later letter j right-multiplies it by (1+t) - c_j z^(d-1):
    P_k z^k times that is (1+t) P_k z^k, plus -sigma^k(c_j) (1+t) P_k
    z^(k-1) for k >= 1 (z^d = 1+t), plus -c_j P_0 z^(d-1) for k = 0.
    Field arithmetic is ``_array_ops`` gathers; ValueError for a field
    it cannot tabulate.
    """
    E, d, n = params.E, params.d, params.n
    alg = params.alg()
    add, mul = _array_ops(E)
    # twist[j, k] = -sigma^(k+1)(c_j) multiplies P_(k+1 mod d) into
    # coordinate k (sigma^d is the identity)
    twist = np.empty((n, d), dtype=np.int32)
    u = 1
    for j in range(n):
        c = alg.unit_ratio(u)
        twist[j] = [E.neg(alg.sigma(c, k + 1)) for k in range(d)]
        u = E.mul(u, params.u)

    def numerators(words):
        words = np.asarray(words)
        B, L = words.shape
        out = np.zeros((B, d, L + 1), dtype=np.int32)
        out[:, 0, :2] = 1
        out[:, d - 1, 0] = twist[words[:, 0], d - 1]
        for i in range(1, L):
            P = out[:, :, : i + 1]  # degree at most i
            R = mul(np.roll(P, -1, axis=1), twist[words[:, i], :, None])
            # X = P + R except on coordinate d-1, which takes R after (1+t)
            X = np.concatenate((add(P[:, :-1], R[:, :-1]), P[:, -1:]), axis=1)
            out[:, :, i + 1] = X[:, :, i]
            out[:, :, 1 : i + 1] = add(X[:, :, 1:], X[:, :, :-1])
            out[:, :, 0] = X[:, :, 0]
            out[:, -1, : i + 1] = add(out[:, -1, : i + 1], R[:, -1])
        return out

    return numerators


def central_numerators(num: np.ndarray, q: int) -> np.ndarray:
    """Which numerators (an array of ``word_kernel``) are central scalars:
    coordinates 1..d-1 zero, coordinate 0 nonzero with every code below q
    (``CycElem.is_central_scalar`` on the same numerator)."""
    head = num[:, 0]
    return (
        ~num[:, 1:].any(axis=(1, 2))
        & head.any(axis=1)
        & (head < q).all(axis=1)
    )


# candidate words per call of the exact verifier
_VERIFY_BLOCK = 1 << 14


def hat_class_sizes(d: int, q: int) -> list[int]:
    """Expected color-class sizes of the product system: the Gaussian
    binomial coefficients for colors 1..d-1."""
    return [gaussian_binomial(d, l, q) for l in range(1, d)]


def _flag_count(d: int, q: int) -> int:
    """Complete flags of F_q^d: the number of identity words of length d
    when the finite quotient adds no collisions."""
    return math.prod((q**k - 1) // (q - 1) for k in range(1, d + 1))


def _hat_memory_estimate(params: GenParams, words: int, threads: int = 1) -> int:
    """Upper estimate of the bytes ``build_omega_hat`` holds at once, for
    ``words`` candidate words.

    The prefix levels (n + ... + n^a matrices) and the verifier's field
    tables (``np_tables`` with its int64 build temporaries, under 22
    bytes per pair of codes, or ``np_explog``) stay to the end.  On top
    of them comes the largest of the stages' own arrays:

    * one ``right_products`` block: float32 GEMM or int64 table terms,
      canon and output, under 28 bytes per entry;
    * the prefix keys: a canonical copy with its uint16 scale index and
      nonzero mask, and the int64 keys;
    * the suffix side: prefix keys and both join bounds, the suffix
      products, their reordered and canonical copies, keys, argsort and
      sorted keys;
    * the join: prefix keys, bounds and run bookkeeping, and per word W,
      V and three int64 temporaries;
    * the verifier: W, V, two flag arrays and the filtered W and V per
      word, and per thread one ``_VERIFY_BLOCK`` of (d, d+1) numerators
      with the kernel's letters, int64 gather indices and int16 terms,
      under 40 bytes per entry;
    * the collection: W, V, int64 indices, keys and sort arrays per word,
      the gathered, running and canonical matrices, and the temporaries
      of one ``MatSpace.mul`` over all words (30 bytes per entry).
    """
    n, d, q = params.n, params.d, params.q
    a = (d + 1) // 2
    b = d - a
    N = q**d
    tables = 22 * N * N if N <= NP_TABLES_MAX else 20 * N
    m, sq = d * d * (1 if q < 256 else 4), d * d  # MatSpace entries
    P, S = n**a, n**b
    canon = m + 3 * sq
    stages = (
        min(P, max(n, _PRODUCT_BLOCK)) * sq * 28,
        P * (canon + 8),
        24 * P + sum(n**k for k in range(1, b + 1)) * m + S * (m + canon + 24),
        56 * P + 16 * S + 40 * words,
        34 * words + threads * min(words, _VERIFY_BLOCK) * d * (d + 1) * 40,
        words * (72 + 2 * m + canon + 30 * sq),
    )
    return tables + sum(n**k for k in range(1, a + 1)) * m + max(stages)


def _check_hat_budget(params, words, threads, budget) -> None:
    est = _hat_memory_estimate(params, words, threads)
    if est > budget:
        raise MemoryBudgetError(
            f"meet-in-the-middle needs ~{est} bytes (budget {budget}); "
            "raise the budget or use smaller parameters"
        )


def _candidate_pairs(order, lo, hi):
    """The candidate words (W[i], V[i]) of the join: each prefix w with
    every suffix order[lo[w]:hi[w]] of its run of equal keys, sorted by
    (w, v).  ``order`` is a stable argsort, so each run lists its
    suffixes in ascending v already."""
    runs = hi - lo
    W = np.repeat(np.arange(len(runs)), runs)
    shift = np.repeat(lo - (np.cumsum(runs) - runs), runs)
    return W, order[np.arange(len(W)) + shift]


def build_omega_hat(
    base_set: GenSet,
    memory_budget: int | None = None,
    threads: int = 1,
) -> GenSet:
    """The product system, by meet-in-the-middle over the finite quotient.

    Steps: (i) enumerate all length-a prefix products (a = ceil(d/2)) and
    all length-(d-a) suffix products in the finite quotient, joining
    prefix keys against inverted-suffix keys on canonical projective
    equality to produce candidate length-d identity words; (ii) verify
    every candidate globally — the exact product of the lifts must be a
    central scalar of the algebra — through ``word_kernel``, in blocks of
    ``_VERIFY_BLOCK`` words on up to ``threads`` threads, discarding and
    counting failures; (iii) collect all proper prefixes (lengths 1..d-1)
    of verified words, deduplicated projectively, each with color =
    prefix length and the lexicographically least witnessing word.

    Color-class sizes must equal the Gaussian binomials (fatal mismatch
    otherwise).  ``meta`` records candidate, verified-word, and rejected
    collision counts.  Results are deterministic for any thread count.
    """
    if base_set.kind != KIND_OMEGA:
        raise ValueError("the product system is built from the base system")
    params = base_set.params
    F, d, n, q = params.base, params.d, params.n, params.q
    budget = default_mem_budget() if memory_budget is None else memory_budget
    a = (d + 1) // 2
    b = d - a
    # the flag count stands in for the candidates until the join counts them
    _check_hat_budget(params, _flag_count(d, q), threads, budget)
    kernel = word_kernel(params)
    ms = MatSpace(F, d)
    O = ms.asbatch(base_set.finite_rows())

    levels = [O]
    for _ in range(a - 1):
        levels.append(ms.right_products(levels[-1], O))
    pre_keys = ms.pack(ms.canon(levels[-1]))

    # The suffix with letters (j_1, ..., j_b) has inverse O_{j_b}^-1 ...
    # O_{j_1}^-1: the products of the inverted generators with the letter
    # axes reversed.
    O_inv = ms.inverse(O)
    inv_suffix = O_inv
    for _ in range(b - 1):
        inv_suffix = ms.right_products(inv_suffix, O_inv)
    inv_suffix = inv_suffix.reshape((n,) * b + (d, d))
    inv_suffix = inv_suffix.transpose(tuple(range(b - 1, -1, -1)) + (b, b + 1))
    suf_keys = ms.pack(ms.canon(inv_suffix.reshape(-1, d, d)))

    order = np.argsort(suf_keys, kind="stable")
    sorted_suf = suf_keys[order]
    lo = np.searchsorted(sorted_suf, pre_keys, side="left")
    hi = np.searchsorted(sorted_suf, pre_keys, side="right")
    del sorted_suf, pre_keys, suf_keys
    count = int((hi - lo).sum())
    if count == 0:
        raise ValueError("no identity words found; parameters are inconsistent")
    _check_hat_budget(params, count, threads, budget)
    W, V = _candidate_pairs(order, lo, hi)
    count = len(W)
    del order, lo, hi

    def letters(sel):
        """The letters of the candidate words selected from W and V."""
        return np.concatenate((_letters(W[sel], n, a), _letters(V[sel], n, b)), axis=1)

    def verify(blocks):
        return [central_numerators(kernel(letters(slice(i, j))), q) for i, j in blocks]

    blocks = [(i, min(i + _VERIFY_BLOCK, count))
              for i in range(0, count, _VERIFY_BLOCK)]
    ok = np.concatenate(ordered_chunked_map(verify, blocks, threads=threads, chunk=1))
    W, V = W[ok], V[ok]
    collisions = count - len(W)
    if not len(W):
        raise ValueError("no identity words found; parameters are inconsistent")

    elems = {}
    running = None
    for level in range(1, d):
        if level <= a:
            ids = W // (n ** (a - level))
            canon_arr = ms.canon(levels[level - 1][ids])
        else:
            if running is None:
                running = levels[-1][W]
            digit = (V // (n ** (b - (level - a)))) % n
            running = ms.mul(running, O[digit])
            canon_arr = ms.canon(running)
        keys = ms.pack(canon_arr)
        uniq, first = np.unique(keys, return_index=True)
        expect = gaussian_binomial(d, level, q)
        if len(uniq) != expect:
            raise ValueError(
                f"color-{level} class has {len(uniq)} elements, expected "
                f"{expect}: the product system is inconsistent"
            )
        words = letters(first)[:, :level].tolist()
        for key, word, rows in zip(uniq.tolist(), words, canon_arr[first].tolist()):
            if key in elems:
                raise ValueError(
                    "one projective matrix appears in two color classes"
                )
            elems[key] = (level, tuple(word), tuple(map(tuple, rows)))

    identity_rows = mat_eye(F, d)
    found = sorted(elems.values(), key=lambda e: (e[0], e[1]))
    lifts = _word_lifts(params, [word for _, word, _ in found], kernel)
    alg = params.alg()
    gens = []
    for (level, word, rows), lift in zip(found, lifts):
        if rows == identity_rows:
            raise ValueError("the identity appeared as a product-system element")
        pm = ProjMat(F, rows)
        spec = canon_rows(F, alg.specialize(lift, params.alpha))
        if spec != pm.rows:
            raise AssertionError(
                f"witness {word}: specialized lift disagrees with the "
                "meet-in-the-middle matrix"
            )
        color = _norm_valuation(lift) % d
        if color != level:
            raise AssertionError(
                f"witness {word}: norm valuation color {color} != prefix "
                f"length {level}"
            )
        gens.append(Generator(pm, lift, -1, level, -1, word))

    A = ms.asbatch([g.finite.rows for g in gens])
    index_of = {key: i for i, key in enumerate(ms.pack(A).tolist())}
    for g, key in zip(gens, ms.pack(ms.inverse(A)).tolist()):
        if key not in index_of:
            raise ValueError("product system is not inverse-closed")
        g.inv = index_of[key]
    out = GenSet(
        params,
        KIND_OMEGAHAT,
        gens,
        meta={
            "candidates": count,
            "identity_words": len(W),
            "collisions": collisions,
        },
    )
    _check_inverse_partners(out)
    return out


# ---------------------------------------------------------------------------
# Subspace attachment
# ---------------------------------------------------------------------------


def attach_subspace(g: Generator):
    """The subspace of F_q^d attached to a generator.

    The lift is normalized by a power of t so that every coordinate is
    integral at t = 0 with one of them a unit; the matrix of the
    normalized lift in the local splitting at t = 0 is then reduced
    coefficient-wise at t = 0 and column-reduced over F_q.  The result is
    the reduced-echelon basis (rows) of the image subspace; its dimension
    is d - color(g).
    """
    lift = g.lift
    alg = lift.alg
    E, F, d = alg.E, alg.E.base, alg.d
    vals = [p.t_valuation() for p in lift.coords if not p.is_zero()]
    if not vals:
        raise ValueError("zero lift has no attached subspace")
    # coordinate k is P_k / (t^i (1+t)^j): its t = 0 valuation is
    # v(P_k) - i, and after scaling by t^(i - m) its value at t = 0 is the
    # t^m coefficient of P_k, since (1+t)^j is 1 there
    m = min(vals)
    vmin = m - lift.den[0]
    det_val = _norm_valuation(lift) - d * vmin
    if not 1 <= det_val <= d - 1:
        raise ValueError(
            f"normalized determinant valuation {det_val} outside 1..{d - 1}: "
            "the element is not a neighbor of the standard lattice"
        )
    if det_val % d != g.color:
        raise AssertionError(
            f"determinant valuation {det_val} disagrees with color {g.color}"
        )
    acc = None
    for P, phi_pow in zip(lift.coords, alg.z_powers(1)):
        code = P.coeff(m)
        if code:
            term = mat_mul(F, regular_rep(E, code), phi_pow)
            acc = term if acc is None else mat_add(F, acc, term)
    if acc is None:
        raise ValueError("lift reduces to zero at t = 0 after normalization")
    basis = column_space_rref(F, acc)
    if len(basis) != d - det_val:
        raise AssertionError(
            f"attached subspace has dimension {len(basis)}, expected "
            f"{d - det_val}"
        )
    return basis


# ---------------------------------------------------------------------------
# Group order and index
# ---------------------------------------------------------------------------


def expected_index(params: GenParams) -> int:
    """Multiplicative order of gamma/(1+gamma) in F_q^x / (F_q^x)^d: the
    index of PSL_d(F_q) in the group generated by the systems."""
    F = params.base
    one_plus = F.add(params.gamma, 1)
    x = F.mul(params.gamma, F.inv(one_plus))
    g = math.gcd(params.d, F.q - 1)
    e = (F.q - 1) // g
    cur = F.pow_(x, e)
    k = 1
    step = cur
    while cur != 1:
        cur = F.mul(cur, step)
        k += 1
    return k


def group_order_pgl(d: int, q: int) -> int:
    """|PGL_d(F_q)| from the classical product formula."""
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order // (q - 1)


def group_order_psl(d: int, q: int) -> int:
    """|PSL_d(F_q)| = |PGL_d(F_q)| / gcd(d, q-1)."""
    return group_order_pgl(d, q) // math.gcd(d, q - 1)


def predicted_group_order(params: GenParams) -> int:
    """Order of the group generated by the systems: |PSL_d(F_q)| times
    the index of PSL in it."""
    return group_order_psl(params.d, params.q) * expected_index(params)


# ---------------------------------------------------------------------------
# q-power family
# ---------------------------------------------------------------------------


def family_order_m(q: int, d: int) -> int:
    """Order of q in (Z/dZ)^x / {+-1}: the number of distinct systems in
    the q-power family."""
    if math.gcd(q, d) != 1:
        raise ValueError(f"q = {q} and d = {d} must be co-prime")
    if d <= 2:
        return 1
    k = 1
    cur = q % d
    while cur != 1 and cur != d - 1:
        cur = (cur * q) % d
        k += 1
    return k


def family(params: GenParams, base: GenSet) -> list[GenSet]:
    """The q-power family of a symmetric generator system.

    Returns m = family_order_m(q, d) independently built sets, set i
    carrying twist exponent s*q^i mod d.  The power identity is verified
    element-wise on the base system (conjugate j of the twist-s system,
    raised to the q^i-th power, must equal conjugate j of the
    independently built twist-s*q^i system); a mismatch is fatal.  For
    inverse closures this pins down the whole set: it equals the input
    with every matrix raised to the power q^i.

    For product systems the power map is additionally compared per color
    class against the rebuilt system, with the outcome recorded in
    ``meta['power_bijection']`` of each returned set.  Element-wise
    powering reproduces the color-1 and color-(d-1) classes exactly but
    (empirically, e.g. for q=3, d=5) sends the middle color classes to
    elements outside the rebuilt system, so the rebuilt product system
    is returned rather than the powered image.
    """
    if base.kind not in (KIND_OMEGABAR, KIND_OMEGAHAT):
        raise ValueError("the family is built from a symmetric system")
    if base.params != params:
        raise ValueError("params does not match the base set")
    m = family_order_m(params.q, params.d)
    sets = [base]
    for i in range(1, m):
        qe = params.q**i
        s_i = (params.s * qe) % params.d
        params_i = make_params(
            params.q,
            params.d,
            s=s_i,
            alpha=params.alpha,
            modulus=params.E.modulus,
            base_modulus=params.base.modulus if params.base.f > 1 else None,
        )
        omega_i = build_omega(params_i)
        for j in range(params.n):
            powered = base.gens[j].finite ** qe
            if powered != omega_i.gens[j].finite:
                raise ValueError(
                    f"family mismatch at conjugate {j}: the q^{i}-power of "
                    f"the twist-{params.s} element differs from the "
                    f"independently built twist-{s_i} element"
                )
        if base.kind == KIND_OMEGABAR:
            indep = symmetrize(omega_i)
            for k, g in enumerate(base.gens):
                powered = g.finite ** qe
                if powered != indep.gens[k].finite:
                    raise ValueError(
                        f"family mismatch at element {k} of the inverse closure"
                    )
        else:
            indep = build_omega_hat(omega_i)
            indep.meta["power_bijection"] = _power_bijection_report(
                base, indep, qe
            )
        sets.append(indep)
    return sets


def _power_bijection_report(base: GenSet, indep: GenSet, qe: int) -> dict:
    """Check whether element-wise q^i-powering maps the base product
    system onto the independently built one, per color class."""
    target = {}
    for g in indep.gens:
        target.setdefault(g.color, set()).add(g.finite.packed())
    report = {}
    for color in sorted(target):
        powered = {
            (g.finite**qe).packed() for g in base.gens if g.color == color
        }
        report[color] = {
            "matched": len(powered & target[color]),
            "expected": len(target[color]),
            "surjective": powered == target[color],
        }
    return report

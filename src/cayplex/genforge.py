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
are asserted at build time rather than trusted.  Every system, built or
loaded, is made and checked by one constructor, ``GenSet._rebuild``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .cyclic import CycAlg, CycElem, gamma_from_alpha
from .ffield import (
    NP_TABLES_MAX,
    _factorize,
    gaussian_binomial,
    get_ext_field,
    get_field,
    mult_generator,
    regular_rep,
)
from .projmat import MatSpace, _block_rows, _key_products_bytes
from .ratfunc import Poly
from .util import (
    Tokens,
    atomic_write_text,
    check_canonical,
    ordered_map,
    read_checked_text,
)

KIND_OMEGA = "omega"
KIND_OMEGABAR = "omegabar"
KIND_OMEGAHAT = "omegahat"

# bytes a build may hold when the caller passes no budget (the CLI default)
MEM_BUDGET = 4 << 30


class MemoryBudgetError(MemoryError):
    """Raised when a build would exceed the configured memory budget."""


def _prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f for a prime p, or ValueError.  A q of 2^32 or
    more is refused before trial division, which would take up to
    sqrt(q) steps: the binary graph header stores q in 32 bits."""
    factors = _factorize(q) if q < 1 << 32 else {}
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    [(p, f)] = factors.items()
    return p, f


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
    """

    __slots__ = ("base", "E", "q", "d", "s", "alpha", "gamma", "u", "n",
                 "_alg")

    def __init__(self, base, E, s: int, alpha: int):
        self.base = base
        self.E = E
        self.q = base.q
        self.d = E.d
        self.s = s
        self.alpha = alpha
        self.gamma = gamma_from_alpha(E, alpha)
        self.u = mult_generator(E)
        self.n = (base.q**E.d - 1) // (base.q - 1)
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
    admissible alpha), non-prime-power q, or gcd(s, d) != 1.
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
    if alpha is None:
        alpha = default_alpha(E)
    elif not 0 <= alpha < q:
        raise ValueError(f"alpha = {alpha} is not a code of F_{q} (0 <= alpha < {q})")
    return GenParams(base, E, s, alpha)


# ---------------------------------------------------------------------------
# Generators and generator sets
# ---------------------------------------------------------------------------


class Generator:
    """One generator: exact global lift plus bookkeeping; its finite
    projective matrix is row i of the owning set's ``mats``.

    ``j`` is the conjugation exponent into the base system (-1 for
    product-system elements, whose provenance is the witnessing word).
    ``color`` is the valuation of the reduced norm of the lift at t = 0,
    taken mod d.  ``inv`` is the index of the inverse partner within the
    owning set (-1 when the set is not inverse-closed).  ``word`` is the
    shortest witnessing word (indices into the base system), present only
    for product-system elements.
    """

    __slots__ = ("lift", "j", "color", "inv", "word")

    def __init__(self, lift: CycElem, j: int, color: int, inv: int = -1, word=None):
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

    ``mats`` is the (n, d, d) ``MatSpace`` batch of the generators'
    canonical projective matrices, in set order.  ``meta`` carries build
    diagnostics (coincidence pairs for the inverse closure;
    candidate/collision counts for the product system); it is
    informational and not serialized.
    """

    def __init__(self, params: GenParams, kind: str, gens, mats, meta=None):
        if kind not in (KIND_OMEGA, KIND_OMEGABAR, KIND_OMEGAHAT):
            raise ValueError(f"unknown generator-set kind {kind!r}")
        self.params = params
        self.kind = kind
        self.gens = list(gens)
        self.mats = mats
        self.meta = dict(meta or {})
        self._digest = None  # sha256 of the file ``load`` read

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        return self.gens[i]

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
        F = p.base
        digits = self.mats[..., None] // F.p ** np.arange(F.f) % F.p
        digits = digits.reshape(len(self), -1).tolist()
        for i, (g, mat) in enumerate(zip(self.gens, digits)):
            line = (
                f"idx={i} j={g.j} color={g.color} inv={g.inv} "
                f"mat={','.join(map(str, mat))}"
            )
            if g.word is not None:
                line += " word=" + ",".join(str(w) for w in g.word)
            lines.append(line)
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    def content_hash(self) -> str:
        """The sha256 hex digest of the system's file: of the bytes
        ``load`` read, or else of ``to_text()``."""
        return self._digest or hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "GenSet":
        """The system of a file ``to_text`` writes; any other text raises
        ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty generator-set file")
        head = Tokens(lines[0])
        params = make_params(
            int(head["q"]), int(head["d"]), s=int(head["s"]),
            alpha=int(head["alpha"]), modulus=_ints(head["mod"]),
            base_modulus=_ints(head["bmod"]) if "bmod" in head else None,
        )
        F, d = params.base, params.d
        rows, digits = [], []
        for i, ln in enumerate(lines[1:]):
            kv = Tokens(ln)
            word = _ints(kv["word"]) if "word" in kv else None
            rows.append((int(kv["j"]), int(kv["color"]), int(kv["inv"]), word))
            digits.append(_ints(kv["mat"]))
            if len(digits[i]) != d * d * F.f:
                raise ValueError(f"matrix entry count mismatch at idx={i}")
            if not 0 <= min(digits[i]) <= max(digits[i]) < F.p:
                raise ValueError(f"matrix digit out of range 0..{F.p - 1} at idx={i}")
        digits = np.array(digits, dtype=np.int64).reshape(len(rows), d, d, F.f)
        mats = (digits @ F.p ** np.arange(F.f)).astype(MatSpace(F, d).dtype)
        gs = cls._rebuild(params, head["kind"], rows, mats)
        check_canonical(lines, gs.to_text().splitlines(), "generator-set file")
        return gs

    @classmethod
    def load(cls, path: str) -> "GenSet":
        text, digest = read_checked_text(path)
        gs = cls.from_text(text)
        gs._digest = digest
        return gs

    @classmethod
    def _rebuild(cls, params, kind, raw_gens, mats, meta=None, kernel=None) -> "GenSet":
        """The one constructor of every system, built or loaded: each
        row (j, color, inv, word) gets a global lift, checked against its
        finite matrix.

        The base system is complete and in order: an ``omega`` system has
        exactly n entries, and entry i < n of an ``omega`` or ``omegabar``
        system has j = i, with lift omega(u^i).  Entries from n on are
        inverses, lifted by the closed form ``omega_inv(u^j)``; the
        partner check ties each to the generator it inverts.  A
        product-system entry has j = -1 and is lifted from its word by
        ``kernel``; no other entry has a word, and an ``omega`` entry has
        inv = -1.  Colors must follow the valuation rule of ``_color``.
        Each matrix must be nonzero, nonsingular, canonical and equal to
        its specialized lift.  The error names the first failing entry.
        """
        E, F, n, d = params.E, params.base, params.n, params.d
        alg = params.alg()
        if kind == KIND_OMEGA and len(raw_gens) != n:
            raise ValueError(
                f"base system has {len(raw_gens)} entries, expected n = {n}"
            )
        if kind == KIND_OMEGAHAT:
            words = [g[3] for g in raw_gens]
            if None in words:
                raise ValueError(
                    f"product-system entry idx={words.index(None)} lacks word="
                )
            word_lifts = _word_lifts(params, words, kernel)
        errors = [None] * len(raw_gens)  # the first failure of each entry
        out = []
        for i, (j, color, inv, word) in enumerate(raw_gens):
            lift = None
            if kind == KIND_OMEGAHAT and j != -1:
                errors[i] = f"product-system entry idx={i} has j={j}, expected j=-1"
            elif kind == KIND_OMEGAHAT:
                lift = word_lifts[i]
            elif word is not None:
                errors[i] = f"{kind} entry idx={i} has word=, a product-system field"
            elif kind == KIND_OMEGA and inv != -1:
                errors[i] = f"base entry idx={i} has inv={inv}, expected inv=-1"
            elif not 0 <= j < n:
                errors[i] = f"conjugation index {j} out of range at idx={i}"
            elif i < n and j != i:
                errors[i] = f"base entry idx={i} has j={j}, expected j={i}"
            else:
                u_j = E.pow_(params.u, j)
                lift = alg.omega_inv(u_j) if i >= n else alg.omega(u_j)
            if lift is not None and color != _color(lift, d):
                errors[i] = (
                    f"color {color} at idx={i} disagrees with the norm "
                    f"valuation {_color(lift, d)}"
                )
                lift = None
            out.append(Generator(lift, j, color, inv, word))
        ms = MatSpace(F, d)
        zero = ~mats.reshape(len(out), -1).any(axis=1)
        singular = ms.singular(mats)
        canon = mats.copy()
        canon[~zero] = ms.canon(mats[~zero])
        lifted = [i for i, g in enumerate(out) if g.lift is not None]
        spec = mats.copy()
        if lifted:
            spec[lifted] = ms.canon(alg.specialize([out[i].lift for i in lifted],
                                                   params.alpha))
        checks = (
            (zero, "matrix at idx={} is zero and has no projective class"),
            (singular, "matrix at idx={} is singular"),
            ((canon != mats).any(axis=(1, 2)), "matrix at idx={} is not in canonical form"),
            ((spec != mats).any(axis=(1, 2)), "lift verification failed at idx={}: "
             "stored matrix does not match the specialized lift"),
        )
        for bad, message in checks:
            for i in np.flatnonzero(bad).tolist():
                if errors[i] is None:
                    errors[i] = message.format(i)
        for error in errors:
            if error is not None:
                raise ValueError(error)
        gs = cls(params, kind, out, mats, meta)
        _check_inverse_partners(gs)
        return gs


def _ints(field: str) -> tuple[int, ...]:
    return tuple(map(int, field.split(",")))


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
    A = gs.mats
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
# Colors
# ---------------------------------------------------------------------------


def _color(lift: CycElem, d: int) -> int:
    """The valuation at t = 0 of the reduced norm of a lift, mod d.

    Every lift built here is a product of omega(u)^(+-1) with its
    denominator left as built: omega(u) has denominator 1+t and norm
    t/(1+t), and omega(u)^-1 = (...)/t has norm (1+t)/t.  Norms are
    multiplicative, so the valuation is den[1] - den[0]; the tests check
    this against ``reduced_norm`` on every system they build.
    """
    return (lift.den[1] - lift.den[0]) % d


# ---------------------------------------------------------------------------
# Base system
# ---------------------------------------------------------------------------


def _system_memory_estimate(d: int, count: int) -> int:
    """Upper estimate of the bytes a build of ``count`` generators of
    dimension d holds at once: per generator its exact lift and
    bookkeeping (500-750 bytes measured up to d = 9) and one batched
    Gauss-Jordan reduction of a d x 2d matrix (``MatSpace.inverse``),
    whose int64 rows and temporaries take at most six int64 copies,
    96 d^2 bytes; plus 1 MiB of fixed costs (the first allocator arenas
    and lazily built tables)."""
    return count * (1024 + 96 * d * d) + (1 << 20)


def _check_system_budget(d: int, count: int, budget) -> None:
    """Refuse, before anything proportional to it is allocated, a build
    of ``count`` generators whose estimate exceeds the budget
    (``MEM_BUDGET`` when None)."""
    budget = MEM_BUDGET if budget is None else budget
    est = _system_memory_estimate(d, count)
    if est > budget:
        raise MemoryBudgetError(
            f"a system of {count} generators needs ~{est} bytes (budget "
            f"{budget}); use smaller parameters"
        )


def build_omega(params: GenParams, memory_budget: int | None = None) -> GenSet:
    """The base system: conjugates of 1 - z^{-1} by powers of u.

    Element j has finite matrix theta^j b theta^{-j}, where theta is the
    regular representation of u and b the specialization of 1 - z^{-1};
    ``GenSet._rebuild`` checks it against its lift u^j (1 - z^{-1}) u^{-j}.
    The n finite matrices must be pairwise projectively distinct (a
    collision means the finite quotient is too small to hold the system,
    and is a hard error).  A system past the memory budget is refused
    (``MemoryBudgetError``) before its n matrices are formed.
    """
    _check_system_budget(params.d, params.n, memory_budget)
    alg = params.alg()
    E, F, d, n = params.E, params.base, params.d, params.n
    ms = MatSpace(F, d)
    b = alg.specialize([alg.one_minus_z_inv()], params.alpha)
    # theta^0, ..., theta^(n-1) by doubling
    theta = ms.asbatch(regular_rep(E, params.u))
    pows = ms.identity_batch(1)
    while len(pows) < n:
        pows = np.concatenate((pows, ms.mul(pows, theta)))
        theta = ms.mul(theta, theta)
    pows = pows[:n]
    mats = ms.canon(ms.mul(ms.mul(pows, b), ms.inverse(pows)))
    seen = {}
    for j, key in enumerate(ms.pack(mats).tolist()):
        if key in seen:
            raise ValueError(
                f"duplicate finite matrices at j={seen[key]} and j={j}: "
                "the finite quotient is too small for this parameter set"
            )
        seen[key] = j
    return GenSet._rebuild(params, KIND_OMEGA, [(j, 1, -1, None) for j in range(n)], mats)


def symmetrize(base_set: GenSet, memory_budget: int | None = None) -> GenSet:
    """Inverse closure of the base system.

    Returns the union of the input and its element-wise projective
    inverses, deduplicated, with inverse-partner indices filled in and
    checked, with every lift, by ``GenSet._rebuild``.  The expected size
    is 2n; coincidences (an inverse already present) are collected in
    ``meta['coincidences']`` as (source index, existing index) pairs and
    reported rather than treated as errors.  The budget check counts the
    system held and the up to 2n generators built from it.
    """
    if base_set.kind not in (KIND_OMEGA, KIND_OMEGABAR):
        raise ValueError("symmetrize expects the base system or its closure")
    params = base_set.params
    _check_system_budget(params.d, len(base_set) + 2 * params.n, memory_budget)
    d = params.d
    # one batched inversion finds the partners present; the inverses
    # missing are appended, each the partner of the generator it inverts
    ms = MatSpace(params.base, d)
    partner = ms.inverse_index(base_set.mats).tolist()
    coincidences = [(i, k) for i, k in enumerate(partner) if k >= 0]
    added = [i for i, k in enumerate(partner) if k < 0]  # inverses appended
    for slot, i in enumerate(added):
        partner[i] = len(partner) + slot
    rows = [(g.j, g.color, k, None) for g, k in zip(base_set, partner)]
    rows += [(base_set[i].j, (d - base_set[i].color) % d, i, None) for i in added]
    mats = np.concatenate((base_set.mats, ms.inverse(base_set.mats[added])))
    return GenSet._rebuild(params, KIND_OMEGABAR, rows, mats,
                           meta={"coincidences": coincidences})


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
    ``words`` candidate words, with keys of v bytes.

    The prefix key levels (n + ... + n^a keys), the inverted-suffix key
    levels below b (n + ... + n^(b-1) keys) and the verifier's field
    tables (``np_tables`` with its int64 build temporaries, under 22
    bytes per pair of codes, or ``np_explog``) stay to the end.  On top
    of them comes the largest of the stages' own arrays:

    * the key levels: the ``key_products`` tables of one generator
      batch (the generators', then the inverted ones') and the
      temporaries of one block of ``_block_rows(n)`` keys' products
      (``_key_products_bytes``), with each block product's key and its
      int64 row gathers (32 + v bytes); on the suffix side also the
      suffix key level b, its reordered copy, its stable argsort and
      sorted keys, and both join bounds;
    * the join: both bounds and run bookkeeping, and per word W, V and
      three int64 temporaries;
    * the verifier: W, V, two flag arrays and the filtered W and V per
      word, and per thread one ``_VERIFY_BLOCK`` of (d, d+1) numerators
      with the kernel's letters, int64 gather indices and int16 terms,
      under 40 bytes per entry;
    * the collection: per word W, V, the flags, the key of each of its
      d-1 prefixes, read from a key level through an int64 index, and
      the sort arrays of one level's ``np.unique``.
    """
    n, d, q = params.n, params.d, params.q
    a = (d + 1) // 2
    b = d - a
    N = q**d
    tables = 22 * N * N if N <= NP_TABLES_MAX else 20 * N
    ms = MatSpace(params.base, d)
    v = ms.pack(ms.identity_batch(1)).itemsize
    P, S = n**a, n**b
    block = min(P, _block_rows(n) * n)
    key_levels = _key_products_bytes(ms, n, block) + block * (32 + v)
    stages = (
        key_levels + S * (3 * v + 16) + 16 * P,
        48 * P + 16 * S + 40 * words,
        34 * words + threads * min(words, _VERIFY_BLOCK) * d * (d + 1) * 40,
        words * (v * d + 33),
    )
    levels = sum(n**k for k in range(1, a + 1)) + sum(n**k for k in range(1, b))
    return tables + levels * v + max(stages)


def _check_hat_budget(params, words, threads, budget) -> None:
    est = _hat_memory_estimate(params, words, threads)
    if est > budget:
        raise MemoryBudgetError(
            f"meet-in-the-middle needs ~{est} bytes (budget {budget}); "
            "raise the budget or use smaller parameters"
        )


def _key_levels(ms: MatSpace, O: np.ndarray, length: int) -> list:
    """The packed keys of the products of 1..length letters of O, each
    level row-major in its letters, from one ``key_products`` of O
    called on blocks of ``_block_rows(n)`` keys."""
    n = len(O)
    products = ms.key_products(O)
    step = _block_rows(n)
    levels = [ms.pack(O)]
    for _ in range(length - 1):
        prev = levels[-1]
        out = np.empty(len(prev) * n, dtype=prev.dtype)
        for i in range(0, len(prev), step):
            out[i * n : (i + step) * n] = products(prev[i : i + step])
        levels.append(out)
    return levels


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

    Steps: (i) enumerate the packed keys of all length-a prefix products
    (a = ceil(d/2)) and all inverted suffix products of lengths 1..d-a in
    the finite quotient (``_key_levels``), joining prefix keys against
    inverted-suffix keys on canonical projective equality to produce
    candidate length-d identity words; (ii) verify every candidate
    globally — the exact product of the lifts must be a central scalar
    of the algebra — through ``word_kernel``, in blocks of
    ``_VERIFY_BLOCK`` words on up to ``threads`` threads, discarding and
    counting failures; (iii) collect all proper prefixes (lengths 1..d-1)
    of verified words, deduplicated projectively, each with color =
    prefix length and the lexicographically least witnessing word, for
    ``GenSet._rebuild`` to lift from the word and check.  The keys of
    prefixes up to length a are read from the prefix levels.  A longer
    prefix of an identity word is projectively the inverse of the rest
    of the word, so its key is read from the inverted-suffix level of
    that length; no matrix is multiplied past the key levels.

    Color-class sizes must equal the Gaussian binomials (fatal mismatch
    otherwise).  ``meta`` records candidate, verified-word, and rejected
    collision counts.  Results are deterministic for any thread count.
    """
    if base_set.kind != KIND_OMEGA:
        raise ValueError("the product system is built from the base system")
    params = base_set.params
    F, d, n, q = params.base, params.d, params.n, params.q
    budget = MEM_BUDGET if memory_budget is None else memory_budget
    a = (d + 1) // 2
    b = d - a
    # the flag count stands in for the candidates until the join counts them
    _check_hat_budget(params, _flag_count(d, q), threads, budget)
    kernel = word_kernel(params)
    ms = MatSpace(F, d)
    O = base_set.mats

    levels = _key_levels(ms, O, a)
    # The suffix with letters (j_1, ..., j_L) has inverse O_{j_L}^-1 ...
    # O_{j_1}^-1: the products of the inverted generators with the letter
    # axes reversed.
    suffixes = _key_levels(ms, ms.inverse(O), b)
    for L in range(1, b + 1):
        suffixes[L - 1] = suffixes[L - 1].reshape((n,) * L).T.ravel()
    suf_keys = suffixes.pop()

    order = np.argsort(suf_keys, kind="stable")
    sorted_suf = suf_keys[order]
    lo = np.searchsorted(sorted_suf, levels[-1], side="left")
    hi = np.searchsorted(sorted_suf, levels[-1], side="right")
    del sorted_suf, suf_keys
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

    def verify(i):
        return central_numerators(kernel(letters(slice(i, i + _VERIFY_BLOCK))), q)

    ok = np.concatenate(ordered_map(verify, range(0, count, _VERIFY_BLOCK), threads))
    W, V = W[ok], V[ok]
    collisions = count - len(W)
    if not len(W):
        raise ValueError("no identity words found; parameters are inconsistent")

    # the key of every verified word's prefix of each length 1..d-1: up to
    # a read from the prefix levels; past a, the prefix of length d - L is
    # projectively the inverse of the word's last L letters, a suffix key
    level_keys = [levels[level - 1][W // n ** (a - level)] for level in range(1, a + 1)]
    level_keys += [suffixes[L - 1][V % n**L] for L in range(b - 1, 0, -1)]
    del suffixes
    # each class in (level, word) order, every element with its least word
    mats, words, colors = [], [], []
    for level in range(1, d):
        uniq, first = np.unique(level_keys[level - 1], return_index=True)
        level_keys[level - 1] = None
        expect = gaussian_binomial(d, level, q)
        if len(uniq) != expect:
            raise ValueError(
                f"color-{level} class has {len(uniq)} elements, expected "
                f"{expect}: the product system is inconsistent"
            )
        prefixes = letters(first)[:, :level]
        order = np.lexsort(prefixes.T[::-1])
        mats.append(ms.unpack(uniq[order]))
        words += map(tuple, prefixes[order].tolist())
        colors += [level] * len(uniq)
    mats = np.concatenate(mats)
    keys = np.sort(ms.pack(mats))
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("one projective matrix appears in two color classes")
    if (mats == ms.identity_batch(1)).all(axis=(1, 2)).any():
        raise ValueError("the identity appeared as a product-system element")

    partners = ms.inverse_index(mats)
    if (partners < 0).any():
        raise ValueError("product system is not inverse-closed")
    rows = [(-1, c, k, w) for c, k, w in zip(colors, partners.tolist(), words)]
    meta = {"candidates": count, "identity_words": len(W), "collisions": collisions}
    return GenSet._rebuild(params, KIND_OMEGAHAT, rows, mats, meta, kernel)


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
    E, d = alg.E, alg.d
    vals = [p.t_valuation() for p in lift.coords if not p.is_zero()]
    if not vals:
        raise ValueError("zero lift has no attached subspace")
    # coordinate k is P_k / (t^i (1+t)^j): its t = 0 valuation is
    # v(P_k) - i, and after scaling by t^(i - m) its value at t = 0 is the
    # t^m coefficient of P_k, since (1+t)^j is 1 there
    m = min(vals)
    vmin = m - lift.den[0]
    # the norm of the lift has valuation den[1] - den[0] (see ``_color``)
    det_val = lift.den[1] - lift.den[0] - d * vmin
    if not 1 <= det_val <= d - 1:
        raise ValueError(
            f"normalized determinant valuation {det_val} outside 1..{d - 1}: "
            "the element is not a neighbor of the standard lattice"
        )
    if det_val % d != g.color:
        raise AssertionError(
            f"determinant valuation {det_val} disagrees with color {g.color}"
        )
    codes = np.array([P.coeff(m) for P in lift.coords])
    acc = alg.image((codes[:, None] // E.q ** np.arange(d) % E.q)[None], 1)
    if not acc.any():
        raise ValueError("lift reduces to zero at t = 0 after normalization")
    basis, rank = alg.space().rref(acc.transpose(0, 2, 1))
    if rank[0] != d - det_val:
        raise AssertionError(
            f"attached subspace has dimension {rank[0]}, expected "
            f"{d - det_val}"
        )
    return tuple(map(tuple, basis[0, : rank[0]].tolist()))


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
    """The q-power family of an inverse closure.

    Returns m = family_order_m(q, d) independently built inverse
    closures, set i carrying twist exponent s*q^i mod d.  Each must
    equal the base with every matrix raised to the power q^i, element by
    element: conjugate j of the twist-s system (and its inverse) to the
    q^i-th power is conjugate j of the twist-s*q^i system (and its
    inverse); a mismatch is fatal.
    """
    if base.kind != KIND_OMEGABAR:
        raise ValueError("the family is built from an inverse closure")
    if base.params != params:
        raise ValueError("params does not match the base set")
    m = family_order_m(params.q, params.d)
    ms = MatSpace(params.base, params.d)
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
        indep = symmetrize(build_omega(params_i))
        powered = ms.canon(ms.power(base.mats, qe))
        bad = np.flatnonzero((powered != indep.mats).any(axis=(1, 2)))
        if bad.size:
            raise ValueError(
                f"family mismatch at element {bad[0]}: the q^{i}-power of the "
                f"twist-{params.s} element differs from the independently built "
                f"twist-{s_i} element"
            )
        sets.append(indep)
    return sets

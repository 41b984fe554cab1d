"""Spectral fingerprints of generator systems and their Cayley graphs:
exact closed-walk moment sequences (computable even when the graph is
far too large to store), dense verified spectra for small graphs, an
automorphism certificate that maps one generator set onto another, and
comparison verdicts."""

from __future__ import annotations

import os
import threading
import numpy as np

from .cayley import (
    CayleyGraph,
    GraphHead,
    VertexLimitError,
    _search,
    _vertex_table_size,
    closure_from_matrices,
)
from .genforge import MEM_BUDGET, GenSet, MemoryBudgetError, group_order_psl
from .orbits import orbits_for, theta_permutation
from .projmat import MatSpace, _block_rows, _key_products_bytes
from .util import (
    Tokens,
    atomic_write_text,
    check_canonical,
    ordered_map,
    read_checked_text,
)

_COUNTER_LIMIT = 1 << 62
# defaults shared by the library and the command line
DENSE_CAP = 5000
MOMENT_STRATEGY = "ball-mitm"
_GROUP_CAP = 10_000_000
# ids per ``_search`` of a lookup
_LOOKUP_CHUNK = 1 << 16
# top-level buckets are runs of the 2^_ID_BITS id ranges that the top
# bits of an orbit id name; at most _TOP_PASSES of them
_ID_BITS = 16
_TOP_PASSES = 16


# ---------------------------------------------------------------------------
# Moment sequences
# ---------------------------------------------------------------------------


class MomentSeq:
    """Exact identity-word counts N_0..N_K of a generator multiset.

    N_k is the number of length-k words over the (possibly
    color-restricted) generators whose product is the identity of the
    finite group; by vertex-transitivity tr(A^k) = |G| * N_k, so two
    equal sequences for groups of equal order give equal adjacency
    power sums up to K.
    """

    __slots__ = ("values", "genset_hash", "colors")

    def __init__(self, values, genset_hash: str, colors=None):
        self.values = tuple(int(v) for v in values)
        if not self.values or self.values[0] != 1:
            raise ValueError("a moment sequence starts with N_0 = 1")
        if any(v < 0 for v in self.values):
            raise ValueError("moment counts are nonnegative")
        self.genset_hash = genset_hash
        self.colors = tuple(sorted(int(c) for c in colors)) if colors else None

    @property
    def K(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __eq__(self, other):
        if isinstance(other, MomentSeq):
            return self.values == other.values
        return NotImplemented

    def __repr__(self):
        return f"MomentSeq(K={self.K}, values={list(self.values)})"

    def to_text(self) -> str:
        ctxt = "all" if self.colors is None else ",".join(map(str, self.colors))
        lines = [f"version=1 genset={self.genset_hash} colors={ctxt} K={self.K}"]
        for k, v in enumerate(self.values):
            lines.append(f"{k} {v}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "MomentSeq":
        """The sequence of a file ``to_text`` writes; any other text
        raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty moment file")
        head = Tokens(lines[0])
        colors = None if head["colors"] == "all" else head["colors"].split(",")
        values = [ln.partition(" ")[2] for ln in lines[1:]]
        seq = cls(values, head["genset"], colors)
        check_canonical(lines, seq.to_text().splitlines(), "moment file")
        return seq

    @classmethod
    def load(cls, path: str) -> "MomentSeq":
        return cls.from_text(read_checked_text(path)[0])


def _selected(gens: GenSet, colors):
    """Indices of the generators carrying one of the wanted colors."""
    if colors is None:
        return list(range(len(gens)))
    wanted = {int(c) for c in colors}
    sel = [i for i, g in enumerate(gens) if g.color in wanted]
    if not sel:
        raise ValueError(f"no generator carries a color in {sorted(wanted)}")
    return sel


def _graph_for(
    gens: GenSet, graph: CayleyGraph | None, sel, memory_budget: int | None
) -> CayleyGraph:
    """The closure graph of ``gens``, building it when not supplied and
    verifying a supplied one really was built from this system.

    A closure built here holds at most the vertex rows that the memory
    budget allows at ``_group_dp_row_bytes`` each, beside the closure's
    direct vertex table.  The systems generate a group containing
    PSL_d(F_q), so a budget short of that many rows is refused before
    the closure starts, and one that the closure outgrows is refused
    when it does."""
    if graph is None:
        params = gens.params
        budget = MEM_BUDGET if memory_budget is None else int(memory_budget)
        table = 4 * _vertex_table_size(MatSpace(params.base, params.d))
        rows = max(budget - table, 0) // _group_dp_row_bytes(len(gens), len(sel))
        refusal = MemoryBudgetError(
            f"group-dp closure needs more than the {rows} vertex rows that "
            f"budget {budget} holds; pass a built graph or raise the budget"
        )
        if rows < group_order_psl(params.d, params.q):
            raise refusal
        try:
            return closure_from_matrices(
                params.base,
                params.d,
                gens.mats,
                colors=[g.color for g in gens],
                max_vertices=min(_GROUP_CAP, rows),
            )
        except VertexLimitError:
            if rows >= _GROUP_CAP:
                raise
            raise refusal from None
    check_graph_of(gens, graph)
    return graph


def check_graph_of(gens: GenSet, graph: CayleyGraph) -> None:
    """Raise ValueError unless ``graph`` was built from ``gens``: as many
    generators, the identity's neighbours the generators' keys in order,
    and each generator's edges carrying its colour."""
    ms = graph.space()
    if graph.r != len(gens) or not np.array_equal(graph.gen_keys, ms.pack(gens.mats)):
        raise ValueError("graph was not built from this generator system")
    if graph.gen_colors != tuple(g.color for g in gens):
        raise ValueError("graph edge colours disagree with the generator system")


def _group_dp_row_bytes(r: int, s: int) -> int:
    """Upper estimate of the bytes group-dp holds per vertex of a closure
    it builds over r generators, s of them selected: the int32 neighbor
    row; the int64 key in the vertex index, its merge copy and the final
    key array; and the larger of what the two labellings of
    ``_moments_group_dp`` hold.  The identity labelling holds the int64
    vectors f and h and one pass's output, the uint32 copy a pass
    gathers from, and the int32 inverse permutations of the selected
    columns of a system that is not inverse-closed: 28 + 4s.  The orbit
    labelling first holds the int32 map, the orbit minima and two
    doubling buffers (16); then the int32 orbit index of each vertex
    and, per orbit, the int64 representative and size and the int32
    rows of both steps (20 + 8s); and in the passes the sizes, the rows
    and the vectors of the identity labelling over orbits (36 + 8s).
    There are at most as many orbits as vertices."""
    return 4 * r + 40 + 36 + 8 * s


def _reverse_columns(nbr: np.ndarray, cols) -> np.ndarray:
    """Inverse permutations of the chosen neighbor-table columns:
    rev[v, i] is the unique vertex whose cols[i]-step lands on v."""
    n = nbr.shape[0]
    rev = np.empty((n, len(cols)), dtype=nbr.dtype)
    ar = np.arange(n, dtype=nbr.dtype)
    for out_i, i in enumerate(cols):
        rev[nbr[:, i], out_i] = ar
    return rev


def walk_moments(
    gens: GenSet,
    K: int,
    strategy: str = MOMENT_STRATEGY,
    colors=None,
    graph: CayleyGraph | None = None,
    threads: int = 1,
    memory_budget: int | None = None,
) -> MomentSeq:
    """Exact moment sequence N_0..N_K of a generator system.

    ``group-dp`` propagates the word-count distribution along the
    neighbor table, pass t over the radius-t ball only, a prefix of the
    breadth-first vertex numbering; the group must be enumerable (at
    most ~10^7 elements, and a closure built here within the memory
    budget; pass ``graph`` to reuse a built closure).  Its passes run
    over one row per orbit of conjugation by theta, read off the table
    and checked on the row of every orbit's least vertex (a mismatch
    raises AssertionError), when the system is inverse-closed, theta
    permutes the selection and the numbering is breadth-first; over the
    table itself otherwise.
    ``ball-mitm`` joins product balls: N_k = sum_g c_a(g) * c_b(g^-1)
    with a = ceil(k/2); it never materializes the group and refuses a
    ``graph``.  Each ball level is a list of orbits with their word
    counts: orbits of theta and a power of the Frobenius matrix (see
    ``ThetaOrbits``) when conjugation by theta permutes the selected
    generators, single elements otherwise.  Levels below ceil(K/2) are
    held, and the top level is streamed from the products of the level
    below it.  All counters are 64-bit integers, and every sum is
    checked against an exact word-count bound before it is formed; both
    strategies produce identical values wherever both are feasible.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    sel = _selected(gens, colors)
    if strategy == "group-dp":
        if _overflows(len(sel), K):
            raise ValueError(
                f"K={K} overflows 64-bit word counters for {len(sel)} "
                "generators under group-dp"
            )
        values = _moments_group_dp(gens, K, sel, graph, threads, memory_budget)
    elif strategy == "ball-mitm":
        if graph is not None:
            raise ValueError("a graph is read only by group-dp, not by ball-mitm")
        if _overflows(len(sel), (K + 1) // 2):
            raise ValueError(
                f"K={K} overflows 64-bit ball counters for {len(sel)} "
                "generators under ball-mitm"
            )
        values = _moments_ball_mitm(gens, K, sel, threads, memory_budget)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return MomentSeq(values, gens.content_hash(), colors)


def _overflows(r: int, e: int) -> bool:
    """Whether r^max(e, 1) words reach the counter limit, decided without
    forming the power for a huge e: r >= 2 reaches it at e = 62."""
    e = max(e, 1)
    return r > 1 and (e >= 62 or r**e >= _COUNTER_LIMIT)


def _moments_group_dp(gens, K, sel, graph, threads, memory_budget):
    """N_k = sum_x f_a(x) h_b(x) with a = ceil(k/2), b = k - a, where
    f_t(x) counts the length-t words with product x and h_t(x) those
    with product x^-1.  Since x g_i is vertex nbr[x, i], h_{t+1}(x) =
    sum_i h_t(nbr[x, i]) and f_{t+1}(x) = sum_i f_t(x g_i^-1), read from
    column inv(i) of an inverse-closed system's table and from the
    inverse permutation of column i otherwise.  Reversing a word and
    inverting its letters is a bijection onto words over the inverse
    multiset, so f = h when the selected multiset is inverse-closed, and
    ceil(K/2) gather passes suffice.

    The passes run over one labelling of the vertices.  Where
    conjugation by theta permutes the system, it is a graph automorphism
    phi fixing vertex 0; where it permutes the selection too, every f_t
    and h_t is constant on the <phi>-orbits.  The orbit labelling
    (``_theta_orbits``) then gives each orbit O the row comp[nbr[rep,
    i]] of its least vertex rep, comp naming orbits, and N_k = sum_O
    |O| f_a(O) h_b(O).  The identity labelling, whose rows are the
    table itself, serves a system that is not inverse-closed, a
    selection that theta does not permute, and a vertex numbering that
    is not breadth-first.

    Pass t computes its vector only on rows [0, m_t): m_t = 1 +
    max(T[:m_{t-1}]) bounds the support of a vector whose predecessor
    lives on [0, m_{t-1}), where T steps forward from that support (the
    x g_i rows for f, the x g_i^-1 rows for h; the x g_i rows again when
    f = h).  The bound holds in any numbering.  In the breadth-first
    numbering of a closure it is the radius-t ball, a prefix of the
    vertices, and the orbits, numbered in the order of their least
    vertices, meet it in a prefix of the orbits."""
    G = _graph_for(gens, graph, sel, memory_budget)
    ms = G.space()
    inv = ms.inverse_index(gens.mats)
    sel = np.asarray(sel, dtype=np.intp)
    closed = bool((inv >= 0).all())
    # None when f = h; otherwise the columns of the x g_i^-1 steps
    back_cols = None if _inverses_if_open(ms, gens.mats[sel]) is None else inv[sel]
    orbits = _theta_orbits(gens, G, sel, inv) if closed else None
    if orbits is None:
        weights = None
        fwd = (G.nbr, None if len(sel) == G.r else sel)
        if back_cols is None:
            back = None
        elif closed:
            back = (G.nbr, back_cols)
        else:
            back = (_reverse_columns(G.nbr, sel), None)
    else:
        comp, reps, weights = orbits
        fwd = (_orbit_rows(G.nbr, comp, reps, sel), None)
        if back_cols is None:
            back = None
        else:
            back = (_orbit_rows(G.nbr, comp, reps, back_cols), None)
        del comp, reps, orbits
    return _walk(K, fwd, back, weights, threads)


def _walk(K, fwd, back, weights, threads):
    """N_0..N_K by the passes of ``_moments_group_dp`` over rows given as
    (table, columns), columns None for all: ``fwd`` the x g_i rows,
    ``back`` the x g_i^-1 rows or None when they are the same multiset.
    Row x counts ``weights[x]`` vertices (one each when None)."""
    n = fwd[0].shape[0]
    block = _block_rows(fwd[0].shape[1] if fwd[1] is None else len(fwd[1]))

    def step(vec, rows, bound):
        table, cols = rows
        out = np.zeros(n, dtype=np.int64)
        src = _gather_source(vec)

        def gather(i):
            j = min(i + block, bound)
            idx = table[i:j] if cols is None else table[i:j, cols]
            # take reads the int32 rows through one intp copy, where
            # indexing casts them in small buffers
            np.sum(src.take(idx), axis=1, dtype=np.int64, out=out[i:j])

        ordered_map(gather, range(0, bound, block), threads)
        return out

    h = np.zeros(n, dtype=np.int64)
    h[0] = 1
    f = h
    f_rows = _support_bound(*fwd)
    h_rows = None if back is None else _support_bound(*back)
    mf = mh = 1
    values = [1]
    for k in range(1, K + 1):
        if k % 2:
            mf = f_rows(mf)
            f = step(f, fwd if back is None else back, mf)
        elif back is None:
            h = f
        else:
            mh = h_rows(mh)
            h = step(h, fwd, mh)
        values.append(int(np.dot(f if weights is None else f * weights, h)))
    return values


def _gather_source(vec: np.ndarray) -> np.ndarray:
    """The nonnegative int64 counts ``vec`` as a uint32 copy when every
    count is below 2^32, so that a random gather reads half the bytes;
    ``vec`` itself otherwise."""
    if int(vec.max()) < 1 << 32:
        return vec.astype(np.uint32)
    return vec


def _support_bound(table: np.ndarray, cols=None):
    """The bound m -> 1 + max(table[:m, cols]) on the support of a vector
    one step past a vector supported on [0, m), for nondecreasing m
    (``cols`` None: every column).  A running max makes each row read
    once; once the bound reaches every row, no row is read again.  A
    column selection is read in row blocks, so it is never copied
    whole."""
    n = table.shape[0]
    block = _block_rows(table.shape[1])
    scanned = 0
    top = 0

    def bound(m):
        nonlocal scanned, top
        if top + 1 < n and m > scanned:
            if cols is None:
                top = max(top, int(table[scanned:m].max()))
            else:
                for i in range(scanned, m, block):
                    top = max(top, int(table[i : min(i + block, m), cols].max()))
            scanned = m
        return top + 1

    return bound


def _theta_orbits(gens, G, sel, inv):
    """The orbit labelling of ``_moments_group_dp`` on the closure ``G``
    of the inverse-closed system ``gens`` (``inv`` its inverse columns):
    (comp, reps, sizes), comp[v] the index of v's <phi>-orbit, reps the
    least vertex of each orbit in increasing order and sizes the orbit
    sizes.  None when conjugation by theta does not permute both the
    system and the selection ``sel``, or when ``_theta_map`` finds the
    vertex numbering not breadth-first.

    theta^n is a scalar for n = (q^d - 1)/(q - 1), the order of u in
    E^x / F_q^x, so every orbit size divides n and the orbit minima take
    ceil(log2 n) doubling rounds.  Before any count is formed, the map
    is checked on the row of every representative: nbr[phi(v), pi(i)]
    = phi(nbr[v, i]) for each generator i."""
    nbr = G.nbr
    pi = theta_permutation(gens.params, G.space(), gens.mats)
    if pi is None or not np.isin(pi[sel], sel).all():
        return None
    phi = _theta_map(nbr, pi[inv])
    if phi is None:
        return None
    q, d = gens.params.q, gens.params.d
    least = _orbit_minima(phi, ((q**d - 1) // (q - 1) - 1).bit_length())
    is_rep = least == np.arange(len(least), dtype=least.dtype)
    reps = np.flatnonzero(is_rep)
    block = _block_rows(G.r)
    for i in range(0, len(reps), block):
        v = reps[i : i + block]
        bad = np.flatnonzero((nbr[phi[v]][:, pi] != phi.take(nbr[v])).any(axis=0))
        if bad.size:
            raise AssertionError(
                f"conjugation by theta does not map the edges of generator {bad[0]}"
            )
    del phi
    # orbit indices in the order of their least vertices
    index = np.cumsum(is_rep, dtype=least.dtype)
    del is_rep
    index -= 1
    comp = least
    block = _block_rows(1)
    for i in range(0, len(comp), block):
        np.take(index, comp[i : i + block], out=comp[i : i + block])
    del index
    return comp, reps, np.bincount(comp, minlength=len(reps))


def _theta_map(nbr: np.ndarray, steps: np.ndarray):
    """phi(v) = theta v theta^-1 for every vertex of a closure table, or
    None when some vertex has no neighbour in an earlier level.

    The levels come from the support bound: ball t is [0, b_t) with b_0
    = 1 and b_(t+1) = 1 + max(nbr[:b_t]), and phi(0) = 0.  A vertex v
    of [b_t, b_(t+1)) with a neighbour u = nbr[v, c] below b_t is
    v = u g_c^-1, so phi(v) = nbr[phi(u), steps[c]] with steps[c] =
    pi(inv(c)).  Rows are read in blocks, for either table layout."""
    n, r = nbr.shape
    phi = np.empty(n, dtype=nbr.dtype)
    phi[0] = 0
    bound = _support_bound(nbr)
    block = _block_rows(1)
    below = np.empty((min(block, n), r), dtype=bool)
    lo = 1
    while lo < n:
        hi = bound(lo)
        if hi <= lo:
            return None
        for a in range(lo, hi, block):
            b = min(a + block, hi)
            c = np.less(nbr[a:b], lo, out=below[: b - a]).argmax(axis=1)
            u = nbr[np.arange(a, b), c]
            if (u >= lo).any():
                return None
            phi[a:b] = nbr[phi[u], steps[c]]
        lo = hi
    return phi


def _orbit_minima(phi: np.ndarray, rounds: int) -> np.ndarray:
    """The least vertex of each vertex's <phi>-orbit, by doubling: round
    k lowers least[v] to least[phi^(2^k)(v)] where that is smaller, so
    after it least[v] is at most the minimum over phi^j(v), j < 2^(k+1),
    and always a vertex of the orbit; ``rounds`` with 2^rounds at least
    the order of phi make it the orbit minimum.  least is updated in
    place, which only lowers it sooner."""
    n = len(phi)
    block = _block_rows(1)
    least = np.arange(n, dtype=phi.dtype)
    power = phi
    spare = None
    for k in range(rounds):
        for i in range(0, n, block):
            part = least[i : i + block]
            np.minimum(part, least.take(power[i : i + block]), out=part)
        if k + 1 < rounds:
            square = np.empty_like(phi) if spare is None else spare
            for i in range(0, n, block):
                np.take(power, power[i : i + block], out=square[i : i + block])
            spare = None if power is phi else power
            power = square
    return least


def _orbit_rows(nbr: np.ndarray, comp: np.ndarray, reps: np.ndarray, cols) -> np.ndarray:
    """comp[nbr[rep, cols]] for each representative: the rows of the
    orbit labelling, read in blocks of representative rows."""
    rows = np.empty((len(reps), len(cols)), dtype=comp.dtype)
    block = _block_rows(nbr.shape[1])
    for i in range(0, len(reps), block):
        np.take(comp, nbr[reps[i : i + block]][:, cols], out=rows[i : i + block])
    return rows


def _moments_ball_mitm(gens, K, sel, threads, memory_budget):
    """N_0..N_K over ball levels of orbits: N_k = sum_O W_a(O) * c'_b(O),
    a = ceil(k/2), b = k - a, W_a(O) the number of length-a words with
    product in the orbit O and c'_b(O) = W'_b(O) / |O| the number of
    length-b words over the inverse generators with any one product in O
    (W' = W for an inverse-closed multiset).  The orbits are those of
    ``orbits_for``: of theta and a power of Phi when conjugation by theta
    permutes the selected generators, so that counts are constant on
    them, and single keys otherwise.

    Levels 0..floor(K/2) of the inverse ball of an open multiset, then
    levels 0..t, t = ceil(K/2) - 1, of the ball are built
    (``_ball_levels``); they give N_k for k <= 2t.  Level t + 1 is never
    built: N_(2t+1) and, for even K, N_(2t+2) come from the products of
    level t's orbits (``_top_stream``).  The row tables of
    ``key_products`` are built once per generator batch: the ball's
    serve its levels and the top stream."""
    params = gens.params
    ms = MatSpace(params.base, params.d)
    gen_mats = gens.mats[sel]
    r = len(sel)
    inv_mats = _inverses_if_open(ms, gen_mats)
    budget = MEM_BUDGET if memory_budget is None else int(memory_budget)
    orbits = orbits_for(params, ms, gen_mats)
    values = [1]
    if K == 0:
        return values
    t = (K - 1) // 2
    held = 0
    inv_levels = None
    if inv_mats is not None:
        inv_levels = _ball_levels(ms, orbits, ms.key_products(inv_mats), r, K // 2,
                                  threads, budget)
        held = _nbytes(inv_levels)
    products = ms.key_products(gen_mats)
    levels = _ball_levels(ms, orbits, products, r, t, threads, budget, held)
    held += _nbytes(levels)
    if inv_levels is None:
        inv_levels = levels
    counts = [(ids, w // _sizes(orbits, ids)) for ids, w in inv_levels]
    held += sum(c.nbytes for _, c in counts)
    for k in range(1, 2 * t + 1):
        a = (k + 1) // 2
        _check_bound(r**a, counts[k - a][1].max(), k)
        values.append(_lookup(counts[k - a], *levels[a]))
    lookups = [(k, counts[k - t - 1]) for k in range(2 * t + 1, K + 1)
               if k - t - 1 < len(counts)]
    square = K if K == 2 * t + 2 and inv_mats is None else None
    return values + _top_stream(ms, orbits, products, r, levels, lookups, square,
                                threads, budget, held)


def _nbytes(levels) -> int:
    return sum(a.nbytes for level in levels for a in level)


def _ball_levels(ms, orbits, products, r, radius, threads, budget, held=0):
    """Orbit levels t = 0..radius of the product ball over r generators,
    whose ``key_products`` function is ``products``, a batch that the
    group of ``orbits`` permutes by conjugation: for
    each orbit O holding a product of exactly t generators, sorted by
    orbit id, the id and the weight W_t(O) = sum_(x in O) c_t(x).

    Since conjugation by the group permutes the generators, the number
    of generators s with x s in O' is the same for every x of an orbit
    O, so W_(t+1)(O') = sum_O W_t(O) * #{s : x_O s in O'}: the m * r
    products of level t (``_stream``) go into one ``_Bucket``, each
    with the weight of its source, and are grouped by id
    (``_grouped``).  Every level is checked to hold r^t words and
    weights divisible by the orbit sizes.  Before a level is built, its
    ``_orbit_memory_estimate`` for a bucket of all its products, plus
    ``held`` bytes and the levels already built, must fit the budget."""
    levels = [(orbits.ids(ms.pack(ms.identity_batch(1))), np.ones(1, dtype=np.int64))]
    lock = threading.Lock()
    for t in range(1, radius + 1):
        m = len(levels[-1][0])
        held += _nbytes(levels[-1:])
        est = _orbit_memory_estimate(ms, orbits, r, m, held, m * r, threads)
        if est > budget:
            raise MemoryBudgetError(
                f"orbit level {t} of the product ball needs ~{est} bytes "
                f"(budget {budget}); lower K or raise the budget"
            )
        bucket = _Bucket(m * r, orbits.dtype, lock)
        _stream(orbits, products, r, levels[-1], bucket.add, threads)
        ids, weights = _grouped(*bucket.items())
        del bucket
        sizes = _sizes(orbits, ids)
        if int(weights.sum()) != r**t or (weights % sizes).any():
            raise AssertionError(f"orbit level {t} disagrees with its word count")
        levels.append((ids, weights))
    return levels


def _stream(orbits, products, r, level, visit, threads):
    """Call ``visit(ids, weights)`` on the products of one key of each
    orbit of ``level`` = (ids, weights) with the r generators of
    ``products`` (``orbits.keys``, then ``products``, then
    ``orbits.ids``), each product carrying the weight of its source: in
    blocks of ``_block_rows(r)`` orbits, from up to ``threads`` threads
    at once."""
    ids, weights = level
    step = _block_rows(r)

    def run(i):
        block = orbits.ids(products(orbits.keys(ids[i : i + step])))
        visit(block, np.repeat(weights[i : i + step], r))

    ordered_map(run, range(0, len(ids), step), threads)


def _sizes(orbits, ids: np.ndarray) -> np.ndarray:
    """``orbits.sizes`` of ``ids``, in blocks of ``_block_rows(1)`` ids."""
    out = np.empty(len(ids), dtype=np.int64)
    step = _block_rows(1)
    for i in range(0, len(ids), step):
        out[i : i + step] = orbits.sizes(ids[i : i + step])
    return out


def _top_stream(ms, orbits, products, r, levels, lookups, square, threads, budget,
                held):
    """N_k for the k whose forward level is t + 1, t the last of
    ``levels``, from the products of level t with the r generators of
    ``products`` that ``_stream`` hands to a visitor per pass, each
    carrying the weight of its source; level t + 1 is never held.

    A lookup (k, (ids, c') of stored level b) gives N_k =
    sum_O W_(t+1)(O) c'_b(O) = sum over the products p of W_t(source) *
    c'_b(id(p)) (``_lookup``, which sorts each block of product ids
    before it searches the level).  ``square``, the even top k = 2t + 2
    of an inverse-closed multiset, is N_k = sum_O W_(t+1)(O)^2 / |O|, with
    W_(t+1) grouped by id (``_square_sum``) in buckets: runs of the
    2^``_ID_BITS`` id ranges that the top bits of an integer id name.  A
    bucket holds as many products as the budget leaves beside the rest of
    the stream (``_orbit_memory_estimate``).  When all of them fit, the
    pass of the lookups collects them too.  Otherwise that pass counts
    the products of each id range, and one more pass per bucket streams
    the products again and keeps those in its ranges.  A budget whose
    buckets hold fewer than 1/``_TOP_PASSES`` of the products, or, for
    raw-byte ids, which have no top bits, fewer than all of them, is
    refused before any pass.  The buckets' weights must add up to
    r^(t+1): every product counted once."""
    t = len(levels) - 1
    m = len(levels[t][0])
    words = m * r
    for k, (_, c_b) in lookups:
        _check_bound(r ** (t + 1), c_b.max(), k)
    bucket = 0
    if square is not None:
        passes = _TOP_PASSES if orbits.id_bound else 1
        fixed = _orbit_memory_estimate(ms, orbits, r, m, held, 0, threads)
        bucket = min(words, max(budget - fixed, 0) // _bucket_bytes(orbits))
        if bucket * passes < words:
            need = fixed + _bucket_bytes(orbits) * -(-words // passes)
            raise MemoryBudgetError(
                f"top orbit level {t + 1} of the product ball needs ~{need} bytes "
                f"for {passes} passes (budget {budget}); lower K or raise the budget"
            )
    est = _orbit_memory_estimate(ms, orbits, r, m, held, bucket, threads)
    if est > budget:
        raise MemoryBudgetError(
            f"top orbit level {t + 1} of the product ball needs ~{est} bytes "
            f"(budget {budget}); lower K or raise the budget"
        )
    lock = threading.Lock()
    sums = [0] * len(lookups)
    grouped = _Bucket(bucket, orbits.dtype, lock)
    # the first pass collects every product when one bucket holds them
    # all, and otherwise counts them per id range
    collect = square is not None and bucket == words
    counts = shift = None
    if square is not None and not collect:
        counts = np.zeros(1 << _ID_BITS, dtype=np.int64)
        shift = max(0, (orbits.id_bound - 1).bit_length() - _ID_BITS)

    def first(ids, w):
        found = [_lookup(stored, ids, w) for _, stored in lookups]
        if collect:
            grouped.add(ids, w)
        part = None
        if counts is not None:
            part = np.bincount(ids >> shift, minlength=len(counts))
        with lock:
            for n, value in enumerate(found):
                sums[n] += value
            if part is not None:
                counts[:] += part

    _stream(orbits, products, r, levels[t], first, threads)
    if square is None:
        return sums
    parts = []
    if collect:
        parts.append(_square_sum(orbits, *grouped.items(), r ** (t + 1), square))
    else:
        for lo, hi in _id_ranges(counts, bucket, budget):
            grouped.clear()

            def keep(ids, w, lo=lo, hi=hi):
                at = ids >> shift
                inside = (at >= lo) & (at < hi)
                grouped.add(ids[inside], w[inside])

            _stream(orbits, products, r, levels[t], keep, threads)
            parts.append(_square_sum(orbits, *grouped.items(), r ** (t + 1), square))
    if sum(weight for _, weight in parts) != r ** (t + 1):
        raise AssertionError(f"top orbit level {t + 1} disagrees with its word count")
    return sums + [sum(total for total, _ in parts)]


class _Bucket:
    """Up to ``size`` product ids of ``dtype`` with their weights, filled
    by block from any thread."""

    def __init__(self, size: int, dtype, lock):
        self.ids = np.empty(size, dtype=dtype)
        self.weights = np.empty(size, dtype=np.int64)
        self.filled = 0
        self._lock = lock

    def add(self, ids: np.ndarray, weights: np.ndarray) -> None:
        with self._lock:
            start = self.filled
            self.filled += len(ids)
        self.ids[start : start + len(ids)] = ids
        self.weights[start : start + len(ids)] = weights

    def items(self):
        return self.ids[: self.filled], self.weights[: self.filled]

    def clear(self) -> None:
        self.filled = 0


def _lookup(stored, ids: np.ndarray, w: np.ndarray) -> int:
    """sum_i w_i * c(ids_i): c the counts of ``stored`` = (sorted ids,
    counts), 0 for an id not among them, read by ``cayley._search`` in
    chunks of ``_LOOKUP_CHUNK`` ids."""
    total = 0
    for i in range(0, len(ids), _LOOKUP_CHUNK):
        c = _search(stored, ids[i : i + _LOOKUP_CHUNK], 0)
        total += int(np.dot(c, w[i : i + _LOOKUP_CHUNK]))
    return total


def _id_ranges(counts: np.ndarray, bucket: int, budget: int):
    """Runs [lo, hi) of consecutive id ranges, each holding at most
    ``bucket`` of the products that ``counts`` counts per range."""
    if counts.max() > bucket:
        raise MemoryBudgetError(
            f"one id range of the top orbit level holds {int(counts.max())} products, "
            f"more than the {bucket} a bucket holds (budget {budget}); raise the budget"
        )
    cum = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        below = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, below + bucket, side="right"))
        yield lo, hi
        lo = hi


def _square_sum(orbits, ids: np.ndarray, weights: np.ndarray, words: int, k: int):
    """(sum_O W(O)^2 / |O|, sum_O W(O)) over the orbits O of the product
    ids ``ids``, W(O) the sum of the weights of its products; each W(O)
    must be divisible by |O|, and words * max W(O) / |O| must fit the
    counters."""
    if not len(ids):
        return 0, 0
    ids, W = _grouped(ids, weights)
    sizes = _sizes(orbits, ids)
    del ids
    c = W // sizes
    np.multiply(c, sizes, out=sizes)
    if not np.array_equal(sizes, W):
        raise AssertionError("top orbit weights are not divisible by the orbit sizes")
    _check_bound(words, c.max(), k)
    return int(np.dot(W, c)), int(W.sum())


def _grouped(ids: np.ndarray, weights: np.ndarray):
    """The distinct values of ``ids``, sorted, and the sum of the
    weights of each.  The sorted weights are summed by run and dropped
    before the distinct ids are gathered, so that at most 2w + 24 bytes
    per id of w bytes are held beside the input (``_bucket_bytes``)."""
    order = np.argsort(ids)
    ids = ids[order]
    weights = weights[order]
    del order
    new = np.empty(len(ids), dtype=bool)
    new[0] = True
    new[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new)
    del new
    sums = np.add.reduceat(weights, starts)
    del weights
    return ids[starts], sums


def _bucket_bytes(orbits) -> int:
    """Bytes per product of a bucket of w-byte ids: its id and weight,
    and at most 2w + 24 more while ``_grouped`` groups them: the argsort
    order with the sorted id and weight, then the run mask and starts,
    then the sorted id, the starts, the orbit's sum and its id (one
    orbit per product at most), and after that the orbit's size and
    quotient."""
    return 3 * orbits.dtype.itemsize + 32


def _orbit_memory_estimate(ms: MatSpace, orbits, r: int, m: int, held: int,
                           bucket: int, threads: int = 1) -> int:
    """Upper bound on the bytes held while the products of m orbits over
    r generators stream (``_stream``) into a bucket of ``bucket``
    products: all m * r of them for a level that ``_ball_levels``
    builds, as many as the budget leaves for the top level of
    ``_top_stream`` (0 when it only looks them up).  Counted are the
    ``held`` bytes of the levels already built, and the following, for
    ids of w bytes and keys of v bytes: ``_bucket_bytes`` per bucket
    product, and the int64 counts of the top level's id ranges with one
    block's share of them per thread.  Per product of one block of
    ``_block_rows(r)`` sources, once per thread that ``ordered_map``
    runs, its key and the larger of the naming's temporaries
    (``bytes_per_key``) and what the stream holds after them: the id,
    the weight and a lookup's w + 24 bytes (``cayley._search``) or a
    bucket selection's 27.  Per source of such a block its key and
    ``orbits.keys``'s temporaries (``bytes_per_rep``).
    ``_key_products_bytes``, the naming's tables, and 64 KiB for small
    arrays."""
    w = orbits.dtype.itemsize
    v = ms.pack(ms.identity_batch(1)).itemsize
    sources = min(m, _block_rows(r))
    block = sources * r
    workers = max(1, min(threads, os.cpu_count() or 1))
    grouped = _bucket_bytes(orbits) * bucket + (8 << _ID_BITS) * (1 + workers)
    stream = w + 8 + max(w + 24, 27)
    per_block = (v + max(orbits.bytes_per_key, stream)) * block
    per_block += (v + orbits.bytes_per_rep) * sources
    return (
        held
        + grouped
        + per_block * workers
        + _key_products_bytes(ms, r, block)
        + orbits.nbytes
        + (1 << 16)
    )


def _check_bound(words: int, largest: int, k: int) -> None:
    """A sum of counts of ``words`` words, each weighted by at most
    ``largest``, must stay below the 64-bit counter limit."""
    bound = words * int(largest)
    if bound >= _COUNTER_LIMIT:
        raise ValueError(f"N_{k} join bound {bound} overflows 64-bit counters")


def _inverses_if_open(ms: MatSpace, mats: np.ndarray):
    """The canonical inverses of a canonical matrix batch, or None when
    the batch is closed under inversion as a multiset."""
    inv = ms.inverse(mats)
    if np.array_equal(np.sort(ms.pack(mats)), np.sort(ms.pack(inv))):
        return None
    return inv


# ---------------------------------------------------------------------------
# Dense spectra
# ---------------------------------------------------------------------------


class SpectrumReport:
    """Verified dense spectrum: eigenvalues in descending order, the
    solver tag, and the largest re-verification residual."""

    __slots__ = ("values", "method", "residual", "n", "r")

    def __init__(self, values, method: str, residual: float, n: int, r: int):
        self.values = tuple(float(v) for v in values)
        self.method = method
        self.residual = float(residual)
        self.n = int(n)
        self.r = int(r)

    def multiplicities(self, tol: float | None = None):
        """Cluster the sorted eigenvalues into (value, multiplicity)
        pairs; values within ``tol`` of the running cluster head are
        merged."""
        if tol is None:
            tol = 1e-8 * max(self.r, 1)
        out = []
        for v in self.values:
            if out and abs(v - out[-1][0]) <= tol:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return [(v, m) for v, m in out]

    def to_text(self) -> str:
        lines = [
            f"version=1 n={self.n} r={self.r} method={self.method} "
            f"residual={self.residual:.3e}"
        ]
        for v, m in self.multiplicities():
            lines.append(f"{v:.12g} {m}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    def __repr__(self):
        top = self.values[0] if self.values else None
        return f"SpectrumReport(n={self.n}, r={self.r}, lambda_max={top})"


def dense_spectrum(G: CayleyGraph, cap: int = DENSE_CAP) -> SpectrumReport:
    """Full verified spectrum of a small symmetric Cayley graph, all of
    its generators.

    The adjacency matrix is solved with the dense symmetric
    eigendecomposition and every eigenpair is re-verified: the largest
    residual ||Av - lambda*v|| must not exceed 1e-8 * r.  Directed
    graphs (of a generator set that is not inverse-closed) are
    rejected; their fingerprints are exact integer moments, never
    floating spectra.
    """
    if not G.symmetric:
        raise ValueError(
            "directed graph: compare exact walk moments instead of a "
            "floating spectrum"
        )
    if G.n > cap:
        raise ValueError(f"graph order {G.n} exceeds the dense cap {cap}")
    A = np.zeros((G.n, G.n), dtype=np.float64)
    rows = np.arange(G.n)
    for i in range(G.r):
        A[rows, G.nbr[:, i]] += 1.0
    if not np.array_equal(A, A.T):
        raise AssertionError("adjacency of a symmetric graph must be symmetric")
    evals, evecs = np.linalg.eigh(A)
    resid = np.linalg.norm(A @ evecs - evecs * evals, axis=0)
    worst = float(resid.max()) if resid.size else 0.0
    tol = 1e-8 * max(G.r, 1)
    if worst > tol:
        raise AssertionError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return SpectrumReport(evals[::-1], "dense-symmetric", worst, G.n, G.r)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


class ComparisonReport:
    """Outcome of an isospectrality/isomorphism comparison."""

    __slots__ = ("mode", "verdict", "details")

    def __init__(self, mode: str, verdict: str, details=None):
        self.mode = mode
        self.verdict = verdict
        self.details = dict(details or {})

    def to_text(self) -> str:
        lines = [f"version=1 mode={self.mode} verdict={self.verdict}"]
        for k in sorted(self.details):
            lines.append(f"{k}={self.details[k]}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    def __repr__(self):
        return f"ComparisonReport(mode={self.mode!r}, verdict={self.verdict!r})"


def compare(a, b, mode: str) -> ComparisonReport:
    """Compare two fingerprints or graphs.

    ``moments``: exact per-k equality of two MomentSeqs of equal K;
    equality is labeled partial evidence up to that K, never full
    isospectrality.  ``spectrum``: multiset equality of dense verified
    spectra within 1e-8 * r.  ``iso``: ``cayley_isomorphism`` on the
    neighbours of the identity, the generators, of two graphs (or their
    ``GraphHead``s) over the same field and dimension, with verdict
    isomorphic (and the witness) or no-automorphism-induced-isomorphism.
    Graphs of mismatched order or degree are reported trivially
    non-isospectral rather than raised.
    """
    if mode == "moments":
        if not isinstance(a, MomentSeq) or not isinstance(b, MomentSeq):
            raise ValueError("moments mode compares MomentSeq inputs")
        if a.K != b.K:
            raise ValueError("moment sequences must share the same K")
        diffs = [k for k in range(a.K + 1) if a[k] != b[k]]
        if diffs:
            return ComparisonReport(
                mode,
                "differ",
                {"first_difference": diffs[0], "differing_k": len(diffs)},
            )
        return ComparisonReport(
            mode,
            "equal",
            {"K": a.K, "evidence": f"partial-up-to-K={a.K}"},
        )
    if mode not in ("spectrum", "iso"):
        raise ValueError(f"unknown mode {mode!r}")
    kinds = (CayleyGraph, GraphHead) if mode == "iso" else CayleyGraph
    if not isinstance(a, kinds) or not isinstance(b, kinds):
        raise ValueError(f"{mode} mode compares CayleyGraph inputs")
    if a.n != b.n or a.r != b.r:
        return ComparisonReport(
            mode,
            "trivially-non-isospectral",
            {"n_a": a.n, "n_b": b.n, "r_a": a.r, "r_b": b.r},
        )
    if mode == "spectrum":
        sa = dense_spectrum(a)
        sb = dense_spectrum(b)
        tol = 1e-8 * max(a.r, b.r, 1)
        worst = max(
            (abs(x - y) for x, y in zip(sa.values, sb.values)), default=0.0
        )
        verdict = "isospectral" if worst <= tol else "not-isospectral"
        return ComparisonReport(
            mode,
            verdict,
            {"max_abs_difference": f"{worst:.3e}", "tolerance": f"{tol:.3e}"},
        )
    if a.F != b.F or a.d != b.d:
        raise ValueError("iso mode compares graphs over one field and dimension")
    ms = MatSpace(a.F, a.d)
    found = cayley_isomorphism(ms, ms.unpack(a.gen_keys), ms.unpack(b.gen_keys))
    if found is None:
        return ComparisonReport(mode, "no-automorphism-induced-isomorphism")
    X, transpose, power = found
    witness = ";".join(",".join(map(str, row)) for row in X.tolist())
    details = {"witness": witness, "transpose": int(transpose), "field_power": power}
    return ComparisonReport(mode, "isomorphic", details)


# ---------------------------------------------------------------------------
# Automorphism certificate
# ---------------------------------------------------------------------------

# most projective solutions of one conjugacy system, and about the most
# candidates tested in one block
_ISO_POINTS = 1 << 16


def cayley_isomorphism(ms: MatSpace, S1: np.ndarray, S2: np.ndarray):
    """A witness (X, transpose, field_power) that an automorphism of
    PGL_d(F_q) maps the distinct matrices S1 onto S2, or None.

    With e the entrywise Frobenius x -> x^(p^field_power), after
    transpose-inverse when ``transpose``, canon(X e(S1) X^-1) has the
    sorted keys of S2, checked by one batched product before it is
    returned.  The search covers PGammaL_d(F_q) with transpose-inverse,
    Aut(PSL_d(F_q)) for d >= 3, so None means no automorphism-induced
    isomorphism, not non-isomorphic graphs.  For g0 the first matrix of
    e(S1), each h in S2 and l != 0 make X g0 = l h X a linear system,
    all solved by one ``rref``; the nonsingular projective points of the
    nullspaces are the candidates.  Unpackable keys, and a system with
    over ``_ISO_POINTS`` projective solutions, raise ValueError.
    """
    if not ms.packable:
        raise ValueError(f"the automorphism search needs int64 keys, not {ms.q}^{ms.d**2}")
    d, q, n, r, F = ms.d, ms.q, ms.d**2, len(S1), ms.F
    target = np.sort(ms.pack(ms.canon(S2)))
    if r != len(target):
        return None
    twists = [(t, e) for t in (False, True) for e in range(F.f)]
    images = np.stack([
        ms.canon(np.array([F.pow_(x, F.p**e) for x in range(q)], dtype=ms.dtype)[E])
        for E in (S1, ms.inverse(S1).transpose(0, 2, 1)) for e in range(F.f)
    ])
    # X g0 - l h X on row-major X, for each g0, h and l in that order:
    # entry ((i, j), (a, b)) is [i = a] g0[b, j] - l h[i, a] [j = b]
    eye = np.eye(d, dtype=np.int64)
    g0 = eye[:, None, :, None] * images[:, 0].transpose(0, 2, 1)[:, None, :, None, :]
    lh = ms._emul(np.arange(1, q)[:, None, None], S2[:, None].astype(np.int64))
    M = ms._esub(g0[:, None, None], lh[None, ..., :, None, :, None] * eye[:, None, :])
    R, rank = ms.rref(M.reshape(-1, n, n))
    solvable = np.flatnonzero(rank < n)
    points = (q ** (n - rank[solvable]) - 1) // (q - 1)
    if (points > _ISO_POINTS).any():
        raise ValueError(f"a conjugacy system has {points.max()} projective "
                         f"solutions, over the bound {_ISO_POINTS}")
    block = np.cumsum(points) // _ISO_POINTS
    for b in np.unique(block):
        systems = solvable[block == b]
        X = np.concatenate([_nullspace_points(ms, R[s], rank[s]) for s in systems])
        tw = np.repeat(systems * len(twists) // len(R), points[block == b])
        keep = np.flatnonzero(~ms.singular(X))
        inv = ms.inverse(X[keep])
        for j in range(1, r):
            keys = ms.pack(ms.canon(ms.mul(ms.mul(X[keep], images[tw[keep], j]), inv)))
            hit = target[np.minimum(np.searchsorted(target, keys), r - 1)] == keys
            keep, inv = keep[hit], inv[hit]
            if not keep.size:
                break
        for i in keep:
            t, e = twists[tw[i]]
            W = ms.canon(X[i : i + 1])
            P = ms.mul(ms.mul(W, images[tw[i]]), ms.inverse(W))
            if np.array_equal(np.sort(ms.pack(ms.canon(P))), target):
                return W[0], t, e
    return None


def _nullspace_points(ms: MatSpace, R: np.ndarray, rank: int) -> np.ndarray:
    """The matrices of the projective points of the nullspace of a
    reduced row echelon form R (d^2 x d^2): a basis vector per free
    column, combined by each coefficient vector with leading entry 1."""
    n, k = R.shape[1], R.shape[1] - rank
    R = R[:rank].astype(np.int64)
    piv = np.argmax(R != 0, axis=1)
    free = np.setdiff1d(np.arange(n), piv)
    basis = np.zeros((k, n), dtype=np.int64)
    basis[np.arange(k), free] = 1
    basis[:, piv] = ms._esub(0, R[:, free].T)
    coef = np.indices((ms.q,) * k).reshape(k, -1).T
    lead = coef[np.arange(len(coef)), np.argmax(coef != 0, axis=1)]
    return ms.mul(coef[lead == 1], basis).reshape(-1, ms.d, ms.d)

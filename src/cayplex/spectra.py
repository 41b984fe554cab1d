"""Spectral fingerprints of generator systems and their Cayley graphs:
exact closed-walk moment sequences (computable even when the graph is
far too large to store), dense verified spectra for small graphs, an
exact isomorphism search, and comparison verdicts."""

from __future__ import annotations

import time

import numpy as np

from .cayley import CayleyGraph, _distinct, closure_from_matrices, colored_subgraph
from .genforge import GenSet, MemoryBudgetError, default_mem_budget
from .projmat import _PRODUCT_BLOCK, MatSpace
from .util import atomic_write_text, ordered_chunked_map, read_checked_text

_COUNTER_LIMIT = 1 << 62
_DENSE_CAP = 5000
_GROUP_CAP = 10_000_000
_BALL_BLOCK = 2048
_RUN_CHUNK = 1 << 16


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

    __slots__ = ("values", "genset_hash", "colors", "strategy")

    def __init__(self, values, genset_hash: str, colors=None, strategy=""):
        self.values = tuple(int(v) for v in values)
        if not self.values or self.values[0] != 1:
            raise ValueError("a moment sequence starts with N_0 = 1")
        if any(v < 0 for v in self.values):
            raise ValueError("moment counts are nonnegative")
        self.genset_hash = genset_hash
        self.colors = tuple(sorted(int(c) for c in colors)) if colors else None
        self.strategy = strategy

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
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty moment file")
        head = dict(tok.split("=", 1) for tok in lines[0].split())
        if head.get("version") != "1":
            raise ValueError(f"unsupported version {head.get('version')!r}")
        try:
            colors = None if head["colors"] == "all" else head["colors"].split(",")
            want = int(head["K"])
        except KeyError as exc:
            raise ValueError(f"moment header lacks field {exc}") from None
        vals = []
        for k, ln in enumerate(lines[1:]):
            idx, val = ln.split()
            if int(idx) != k:
                raise ValueError("moment indices out of order")
            vals.append(int(val))
        if len(vals) != want + 1:
            raise ValueError("moment count disagrees with header K")
        return cls(vals, head.get("genset", ""), colors)

    @classmethod
    def load(cls, path: str) -> "MomentSeq":
        return cls.from_text(read_checked_text(path))


def _selected(gens: GenSet, colors):
    """Indices of the generators carrying one of the wanted colors."""
    if colors is None:
        return list(range(len(gens)))
    wanted = {int(c) for c in colors}
    sel = [i for i, g in enumerate(gens) if g.color in wanted]
    if not sel:
        raise ValueError(f"no generator carries a color in {sorted(wanted)}")
    return sel


def _graph_for(gens: GenSet, graph: CayleyGraph | None) -> CayleyGraph:
    """The closure graph of ``gens``, building it when not supplied and
    verifying a supplied one really was built from this system."""
    if graph is None:
        params = gens.params
        return closure_from_matrices(
            params.base,
            params.d,
            gens.finite_rows(),
            colors=[g.color for g in gens],
            max_vertices=_GROUP_CAP,
        )
    ms = graph.space()
    if graph.r != len(gens):
        raise ValueError("graph was not built from this generator system")
    gen_keys = ms.pack(ms.canon(ms.asbatch(gens.finite_rows())))
    if not np.array_equal(graph.keys[graph.nbr[0]], gen_keys):
        raise ValueError("graph was not built from this generator system")
    return graph


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
    strategy: str = "ball-mitm",
    colors=None,
    graph: CayleyGraph | None = None,
    threads: int = 1,
    memory_budget: int | None = None,
) -> MomentSeq:
    """Exact moment sequence N_0..N_K of a generator system.

    ``group-dp`` propagates the word-count distribution over the whole
    group along the neighbor table; the group must be enumerable (at
    most ~10^7 elements; pass ``graph`` to reuse a built closure).
    ``ball-mitm`` builds product balls of radius ceil(K/2), each level
    the runs of its sorted word stream (distinct packed keys and their
    word counts), and joins each N_k as sum_g c_a(g) * c_b(g^-1) with
    a = ceil(k/2); it never materializes the group.  All counters are
    64-bit integers with overflow checked up front from exact word-count
    bounds; both strategies produce identical values wherever both are
    feasible.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    sel = _selected(gens, colors)
    if strategy == "group-dp":
        if len(sel) ** max(K, 1) >= _COUNTER_LIMIT:
            raise ValueError(
                f"K={K} overflows 64-bit word counters for {len(sel)} "
                "generators under group-dp"
            )
        values = _moments_group_dp(gens, K, sel, graph, threads)
    elif strategy == "ball-mitm":
        if len(sel) ** max((K + 1) // 2, 1) >= _COUNTER_LIMIT:
            raise ValueError(
                f"K={K} overflows 64-bit ball counters for {len(sel)} "
                "generators under ball-mitm"
            )
        values = _moments_ball_mitm(gens, K, sel, threads, memory_budget)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return MomentSeq(values, gens.content_hash(), colors, strategy)


def _moments_group_dp(gens, K, sel, graph, threads):
    """N_k = sum_x f_a(x) h_b(x) with a = ceil(k/2), b = k - a, where
    f_t(x) counts the length-t words with product x and h_t(x) those
    with product x^-1.  Since x g_i is vertex nbr[x, i], h_{t+1}(x) =
    sum_i h_t(nbr[x, i]) and f_{t+1}(x) = sum_i f_t(rev_i(x)) with rev_i
    the inverse permutation of column i.  Reversing a word and inverting
    its letters is a bijection onto words over the inverse multiset, so
    f = h when the selected multiset is inverse-closed, and ceil(K/2)
    gather passes suffice."""
    G = _graph_for(gens, graph)
    cols = G.nbr if len(sel) == G.r else np.ascontiguousarray(G.nbr[:, sel])
    ms = G.space()
    gen_mats = ms.canon(ms.asbatch([gens[i].finite.rows for i in sel]))
    rev = None
    if _inverses_if_open(ms, gen_mats) is not None:
        rev = _reverse_columns(G.nbr, sel)
    block = 1 << 14
    starts = range(0, G.n, block)

    def step(vec, table):
        def gather(chunk):
            return [vec[table[i : i + block]].sum(axis=1) for i in chunk]

        parts = ordered_chunked_map(gather, starts, threads=threads, chunk=8)
        return np.concatenate(parts)

    h = np.zeros(G.n, dtype=np.int64)
    h[0] = 1
    f = h
    values = [1]
    for k in range(1, K + 1):
        if k % 2:
            f = step(f, cols if rev is None else rev)
        else:
            h = f if rev is None else step(h, cols)
        values.append(int(np.dot(f, h)))
    return values


def _ball_levels(ms: MatSpace, gen_mats: np.ndarray, radius: int, threads: int):
    """Consolidated product balls: for t = 0..radius, the sorted packed
    keys of the distinct products of exactly t generators together with
    their exact word counts.

    Level t is first its word stream, all r^t word keys in one
    preallocated array: the products of level t-1's distinct keys with
    every generator, each product row repeated as often as its key
    occurs as a word.  Sorted in place, the stream's runs are the
    level: distinct keys at the run starts, counts equal to the run
    lengths.
    """
    r = gen_mats.shape[0]
    products = ms.key_products(gen_mats)
    levels = [(ms.pack(ms.identity_batch(1)), np.ones(1, dtype=np.int64))]
    for _ in range(radius):
        keys, counts = levels[-1]
        starts = np.arange(0, len(keys), _BALL_BLOCK)
        # stream offsets of the blocks: r words per word of the block
        ends = np.cumsum(np.add.reduceat(counts, starts)) * r
        stream = np.empty(int(ends[-1]), dtype=keys.dtype)

        def expand(items):
            for b in items:
                i = starts[b]
                c = counts[i : i + _BALL_BLOCK]
                rows = stream[ends[b] - r * int(c.sum()) : ends[b]].reshape(-1, r)
                block = products(keys[i : i + _BALL_BLOCK]).reshape(-1, r)
                word_of = np.repeat(np.arange(len(c)), c)
                # mode="clip" writes straight into ``rows``, unbuffered
                np.take(block, word_of, axis=0, out=rows, mode="clip")
            return []

        ordered_chunked_map(expand, range(len(starts)), threads=threads, chunk=1)
        stream.sort()
        levels.append(_runs(stream))
        del stream
    return levels


def _runs(stream: np.ndarray):
    """The distinct values of a sorted array and their run lengths.

    Two passes over chunks of ``_RUN_CHUNK`` values, counting then
    filling, so that only the two outputs are allocated at their size.
    """
    n = len(stream)
    bounds = [(i, min(i + _RUN_CHUNK, n)) for i in range(1, n, _RUN_CHUNK)]
    distinct = 1 + sum(
        int(np.count_nonzero(stream[i:j] != stream[i - 1 : j - 1]))
        for i, j in bounds
    )
    keys = np.empty(distinct, dtype=stream.dtype)
    counts = np.empty(distinct, dtype=np.int64)
    keys[0] = stream[0]
    counts[0] = 0
    k = 1
    for i, j in bounds:
        at = np.flatnonzero(stream[i:j] != stream[i - 1 : j - 1])
        at += i
        keys[k : k + len(at)] = stream[at]
        counts[k : k + len(at)] = at
        k += len(at)
    # counts holds the run starts; front to back, each becomes the gap to
    # the next start, which a chunk reads before the next one rewrites it
    for i in range(0, distinct - 1, _RUN_CHUNK):
        j = min(i + _RUN_CHUNK, distinct - 1)
        counts[i:j] = counts[i + 1 : j + 1] - counts[i:j]
    counts[-1] = n - counts[-1]
    return keys, counts


def _ball_memory_estimate(r: int, radius: int, d: int, key_bytes: int = 8) -> int:
    """Upper bound on the bytes held while the largest level of a
    product ball is built and consolidated, for keys of ``key_bytes``.

    Per word of that level its key in the stream, and at most one
    distinct key and int64 count.  Per element of earlier levels its key
    and count, plus the int64 word index that repeats product rows.  Per
    product of one frontier block the int64 key, gathered term and two
    gather indices of ``key_products`` or, on its fallback, the product
    matrix and its pack; per product of one ``right_products`` GEMM
    block its float32 product and quotient, residues, canon mask,
    indices and output: under 24 * d * d + 16 bytes.  Per value of one
    ``_runs`` chunk its mask, positions and gathered keys.
    """
    words = r**radius
    kept = sum(r**t for t in range(radius))
    block = min(_BALL_BLOCK, r ** max(radius - 1, 0)) * r
    gemm = min(block, max(r, _PRODUCT_BLOCK))
    return (
        (2 * key_bytes + 8) * words
        + (key_bytes + 16) * kept
        + (32 + d * d) * block
        + (24 * d * d + 16) * gemm
        + (key_bytes + 25) * min(_RUN_CHUNK, words)
    )


def _moments_ball_mitm(gens, K, sel, threads, memory_budget):
    params = gens.params
    ms = MatSpace(params.base, params.d)
    gen_mats = ms.canon(ms.asbatch([gens[i].finite.rows for i in sel]))
    radius = (K + 1) // 2
    budget = default_mem_budget() if memory_budget is None else int(memory_budget)
    key_bytes = ms.pack(gen_mats[:1]).dtype.itemsize
    est = _ball_memory_estimate(len(sel), radius, params.d, key_bytes)
    if est > budget:
        raise MemoryBudgetError(
            f"radius-{radius} product ball needs ~{est} bytes "
            f"(budget {budget}); lower K or raise the budget"
        )
    levels = _ball_levels(ms, gen_mats, radius, threads)
    inv_mats = _inverses_if_open(ms, gen_mats)
    if inv_mats is None:
        inv_levels = levels
    else:
        inv_levels = _ball_levels(ms, inv_mats, K // 2, threads)
    r = len(sel)
    values = [1]
    for k in range(1, K + 1):
        a = (k + 1) // 2
        b = k - a
        ka, ca = levels[a]
        kb, cb = inv_levels[b]
        bound = (r**a) * int(cb.max())
        if bound >= _COUNTER_LIMIT:
            raise ValueError(
                f"N_{k} join bound {bound} overflows 64-bit counters"
            )
        pos = np.searchsorted(ka, kb)
        pos_c = np.minimum(pos, len(ka) - 1)
        hit = ka[pos_c] == kb
        values.append(int(np.sum(ca[pos_c[hit]] * cb[hit])))
    return values


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

    def power_sum(self, k: int) -> float:
        return float(sum(v**k for v in self.values))

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

    @classmethod
    def from_text(cls, text: str) -> "SpectrumReport":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty spectrum file")
        head = dict(tok.split("=", 1) for tok in lines[0].split())
        if head.get("version") != "1":
            raise ValueError(f"unsupported version {head.get('version')!r}")
        values = []
        for ln in lines[1:]:
            v, m = ln.split()
            values.extend([float(v)] * int(m))
        try:
            return cls(
                values,
                head["method"],
                float(head["residual"]),
                int(head["n"]),
                int(head["r"]),
            )
        except KeyError as exc:
            raise ValueError(f"spectrum header lacks field {exc}") from None

    @classmethod
    def load(cls, path: str) -> "SpectrumReport":
        return cls.from_text(read_checked_text(path))

    def __repr__(self):
        top = self.values[0] if self.values else None
        return f"SpectrumReport(n={self.n}, r={self.r}, lambda_max={top})"


def dense_spectrum(
    G: CayleyGraph,
    colors=None,
    cap: int = _DENSE_CAP,
) -> SpectrumReport:
    """Full verified spectrum of a small symmetric Cayley graph.

    The adjacency matrix is solved with the dense symmetric
    eigendecomposition and every eigenpair is re-verified: the largest
    residual ||Av - lambda*v|| must not exceed 1e-8 * r.  Directed
    (color-restricted, non-inverse-closed) operators are rejected;
    their fingerprints are exact integer moments, never floating
    spectra.
    """
    if colors is not None:
        G = colored_subgraph(G, colors)
    if not G.symmetric:
        raise ValueError(
            "directed colored operator: compare exact walk moments instead "
            "of a floating spectrum"
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
# Isomorphism search
# ---------------------------------------------------------------------------


def isomorphism_search(a: CayleyGraph, b: CayleyGraph, timeout: float = 10.0):
    """Exact graph-isomorphism decision by candidate-pruned backtracking.

    Returns (verdict, mapping) where verdict is "isomorphic" (mapping is
    a re-verified vertex map a -> b), "non-isomorphic", or "timeout".
    Vertex 0 of ``a`` is anchored to vertex 0 of ``b`` without loss of
    generality: left translations act transitively on the vertices of a
    Cayley graph by graph automorphisms, so some isomorphism fixes the
    identity whenever any isomorphism exists.
    """
    if a.n != b.n or a.r != b.r:
        return "non-isomorphic", None
    deadline = time.monotonic() + timeout
    adj_a = _adjacency_sets(a, deadline)
    adj_b = _adjacency_sets(b, deadline) if adj_a is not None else None
    order = _bfs_order(a, deadline) if adj_b is not None else None
    if order is None:
        return "timeout", None
    n = a.n
    mapping = np.full(n, -1, dtype=np.int64)
    inverse = np.full(n, -1, dtype=np.int64)
    mapping[order[0]] = 0
    inverse[0] = order[0]
    if n == 1:
        return "isomorphic", (0,)
    iters = [None] * n
    iters[1] = iter(_candidates(order[1], adj_a, adj_b, mapping, n))
    pos = 1
    while pos >= 1:
        if time.monotonic() > deadline:
            return "timeout", None
        u = order[pos]
        placed = False
        for t in iters[pos]:
            if inverse[t] >= 0:
                continue
            if not _consistent(u, t, adj_a, adj_b, mapping, inverse):
                continue
            mapping[u] = t
            inverse[t] = u
            pos += 1
            placed = True
            if pos == n:
                final = tuple(int(x) for x in mapping)
                _verify_mapping(adj_a, adj_b, final)
                return "isomorphic", final
            iters[pos] = iter(_candidates(order[pos], adj_a, adj_b, mapping, n))
            break
        if not placed:
            pos -= 1
            if pos >= 1:
                t = mapping[order[pos]]
                inverse[t] = -1
                mapping[order[pos]] = -1
    return "non-isomorphic", None


def _adjacency_sets(G: CayleyGraph, deadline):
    """Per-vertex neighbor sets, built in blocks so an expired deadline
    aborts setup on large graphs (returns None) instead of stalling."""
    out = []
    for start in range(0, G.n, 4096):
        if time.monotonic() > deadline:
            return None
        out.extend(set(row) for row in G.nbr[start:start + 4096].tolist())
    return out


def _bfs_order(G: CayleyGraph, deadline):
    seen = np.zeros(G.n, dtype=bool)
    seen[0] = True
    order = [0]
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        if time.monotonic() > deadline:
            return None
        hood = G.nbr[frontier].ravel()
        fresh = _distinct(hood[~seen[hood]])
        seen[fresh] = True
        order.extend(fresh.tolist())
        frontier = fresh
    if len(order) != G.n:
        order.extend(np.flatnonzero(~seen).tolist())
    return order


def _candidates(u, adj_a, adj_b, mapping, n):
    cands = None
    for w in adj_a[u]:
        mw = mapping[w]
        if mw >= 0:
            c = adj_b[mw]
            cands = set(c) if cands is None else (cands & c)
            if not cands:
                return ()
    if cands is None:
        return range(n)
    return sorted(cands)


def _consistent(u, t, adj_a, adj_b, mapping, inverse):
    for w in adj_a[u]:
        mw = mapping[w]
        if mw >= 0 and mw not in adj_b[t]:
            return False
    for x in adj_b[t]:
        w = inverse[x]
        if w >= 0 and w not in adj_a[u]:
            return False
    return True


def _verify_mapping(adj_a, adj_b, mapping):
    for u, nb in enumerate(adj_a):
        image = {mapping[w] for w in nb}
        if image != adj_b[mapping[u]]:
            raise AssertionError("isomorphism witness failed re-verification")


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


def compare(a, b, mode: str, timeout: float = 10.0) -> ComparisonReport:
    """Compare two fingerprints or graphs.

    ``moments``: exact per-k equality of two MomentSeqs of equal K;
    equality is labeled partial evidence up to that K, never full
    isospectrality.  ``spectrum``: multiset equality of dense verified
    spectra within 1e-8 * r.  ``iso``: exact search
    with verdict isomorphic / non-isomorphic / timeout.  Graphs of
    mismatched order or degree are reported trivially non-isospectral
    rather than raised.
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
    if not isinstance(a, CayleyGraph) or not isinstance(b, CayleyGraph):
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
    verdict, witness = isomorphism_search(a, b, timeout=timeout)
    details = {}
    if witness is not None:
        details["witness_head"] = ",".join(str(x) for x in witness[:8])
    return ComparisonReport(mode, verdict, details)

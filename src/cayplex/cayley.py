"""Cayley graphs of projective matrix groups: breadth-first closure from
the identity, colored subgraph extraction, and text/binary serialization
with round-trip guarantees."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .ffield import get_field
from .genforge import KIND_OMEGABAR, KIND_OMEGAHAT, GenSet, _prime_power
from .projmat import MatSpace, ProjMat
from .util import (
    atomic_write_bytes,
    atomic_write_text,
    check_manifest,
    ordered_chunked_map,
)

_MAGIC = b"CAYG"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIIIIBB")
# largest q^(d*d) looked up through a direct int32 vertex table (64 MB)
_VERTEX_TABLE_MAX = 1 << 24
# frontier rows multiplied per product block of the closure
_CLOSURE_BLOCK = 4096


class VertexLimitError(RuntimeError):
    """The breadth-first closure exceeded the vertex gate; no partial
    graph is emitted."""


class CayleyGraph:
    """Finite vertex-transitive graph of a matrix group closure.

    Vertices are canonical projective matrices, stored as packed keys;
    vertex 0 is the identity and numbering follows breadth-first
    discovery order (generators applied in serialized order within each
    frontier, which is independent of the worker count).  ``nbr[v, i]``
    is the index of vertex v right-multiplied by generator i, so every
    vertex has exactly r out-edges; ``gen_colors[i]`` labels all edges of
    generator i.  ``symmetric`` records whether the edge relation is an
    undirected one, ``connected`` whether every vertex is reachable from
    the identity along stored edges.
    """

    __slots__ = (
        "F",
        "d",
        "n",
        "r",
        "keys",
        "nbr",
        "gen_colors",
        "symmetric",
        "connected",
        "_space",
    )

    def __init__(self, F, d, keys, nbr, gen_colors, symmetric, connected):
        self.F = F
        self.d = int(d)
        self.keys = keys
        self.nbr = nbr
        self.gen_colors = tuple(int(c) for c in gen_colors)
        self.n = int(keys.shape[0])
        self.r = int(nbr.shape[1])
        if nbr.shape != (self.n, self.r):
            raise ValueError("neighbor table shape mismatch")
        if len(self.gen_colors) != self.r:
            raise ValueError("one color per generator is required")
        self.symmetric = bool(symmetric)
        self.connected = bool(connected)
        self._space = None

    # -- vertex access ------------------------------------------------

    def space(self) -> MatSpace:
        if self._space is None:
            self._space = MatSpace(self.F, self.d)
        return self._space

    def vertex_matrix(self, v: int) -> ProjMat:
        rows = self.space().unpack(self.keys[v : v + 1])[0]
        return ProjMat(self.F, tuple(tuple(int(x) for x in row) for row in rows))

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CayleyGraph):
            return NotImplemented
        return (
            self.F == other.F
            and self.d == other.d
            and self.gen_colors == other.gen_colors
            and self.symmetric == other.symmetric
            and self.connected == other.connected
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.nbr, other.nbr)
        )

    def __hash__(self):
        return hash((self.n, self.r, self.d, self.gen_colors))

    def __repr__(self):
        return (
            f"CayleyGraph(n={self.n}, r={self.r}, d={self.d}, "
            f"q={self.F.q}, symmetric={self.symmetric}, "
            f"connected={self.connected})"
        )


# ---------------------------------------------------------------------------
# Breadth-first closure
# ---------------------------------------------------------------------------


def bfs_build(gens: GenSet, max_vertices: int, threads: int = 1) -> CayleyGraph:
    """Breadth-first closure of a symmetric generator system.

    Explores from the identity until no new vertices appear; the vertex
    count is the order of the generated group.  Raises VertexLimitError
    as soon as the discovered vertex count would exceed ``max_vertices``
    (no partial graph is ever returned).
    """
    if gens.kind not in (KIND_OMEGABAR, KIND_OMEGAHAT):
        raise ValueError("breadth-first closure expects a symmetric system")
    params = gens.params
    return closure_from_matrices(
        params.base,
        params.d,
        gens.finite_rows(),
        colors=[g.color for g in gens],
        max_vertices=max_vertices,
        threads=threads,
    )


def closure_from_matrices(
    F,
    d: int,
    mats,
    colors=None,
    max_vertices: int = 1_000_000,
    threads: int = 1,
) -> CayleyGraph:
    """Breadth-first closure of an explicit list of row-tuple matrices.

    The matrices must be nonsingular, canonical-form distinct, and none
    may be the identity (self-loops are not representable).  ``colors``
    defaults to zero labels.  Vertex numbering is by discovery order:
    frontier vertices in index order, generators in list order, which is
    deterministic for every thread count.
    """
    ms = MatSpace(F, d)
    O = ms.asbatch([ProjMat(F, m).rows for m in mats])
    r = O.shape[0]
    if colors is None:
        colors = [0] * r
    colors = [int(c) for c in colors]
    if len(colors) != r:
        raise ValueError("one color per generator is required")
    gen_keys = ms.pack(O)
    if len(np.unique(gen_keys)) != r:
        raise ValueError("generators must be projectively distinct")
    ident = ms.identity_batch(1)
    ident_key = ms.pack(ident)[0]
    if np.any(gen_keys == ident_key):
        raise ValueError("the identity cannot be a generator")

    products = ms.key_products(O)
    index = _VertexIndex(ms, ms.pack(ident))
    nbr_rows = []
    frontier = index.keys()
    # blocks of frontier rows, ``threads`` of them multiplied at a time
    group = _CLOSURE_BLOCK * max(threads, 1)

    def expand(blocks):
        return [products(block) for block in blocks]

    while frontier.shape[0]:
        level = []
        for g0 in range(0, frontier.shape[0], group):
            blocks = [
                frontier[i : i + _CLOSURE_BLOCK]
                for i in range(g0, min(g0 + group, frontier.shape[0]), _CLOSURE_BLOCK)
            ]
            for flat in ordered_chunked_map(expand, blocks, threads=threads, chunk=1):
                # blocks are numbered in stream order, so new vertices
                # still take their first appearance in the level's
                # frontier-major, generator-minor product stream: true
                # BFS discovery order, identical for any chunking
                ids = index.lookup(flat)
                fresh = np.flatnonzero(ids < 0)
                if fresh.size:
                    new_keys = index.first_seen(flat[fresh])
                    if index.n + len(new_keys) > max_vertices:
                        raise VertexLimitError(
                            f"closure exceeds max_vertices={max_vertices} "
                            f"(at least {index.n + len(new_keys)} vertices)"
                        )
                    index.add(new_keys)
                    ids[fresh] = index.lookup(flat[fresh])
                    level.append(new_keys)
                nbr_rows.append(ids.reshape(-1, r))
        frontier = np.concatenate(level) if level else frontier[:0]

    keys = index.keys()
    nbr = np.vstack(nbr_rows)
    del nbr_rows
    for i in range(0, nbr.shape[0], 1 << 16):
        srt = np.sort(nbr[i : i + (1 << 16)], axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise AssertionError("regularity violated: repeated out-neighbor")
    symmetric = _verify_symmetry(ms, nbr, O)
    return CayleyGraph(F, d, keys, nbr, colors, symmetric, True)


class _VertexIndex:
    """Vertex numbers of packed keys, grown block by block.

    When the keys are int64 and q^(d*d) is at most
    ``_VERTEX_TABLE_MAX``, an int32 array indexed by packed key holds
    each vertex number (-1 for unknown keys).  Otherwise the keys are
    kept sorted, with their numbers, in a main run and a recent run:
    ``add`` merges new keys into the recent run (one ``searchsorted``
    plus insert), and the recent run is merged into the main one once it
    is as long, so an add costs time linear in the recent run rather
    than a sort of every key.  A lookup searches both runs.
    """

    def __init__(self, ms, keys):
        self._blocks = [keys]
        self.n = len(keys)
        size = ms.q ** (ms.d * ms.d)
        if ms.packable and size <= _VERTEX_TABLE_MAX:
            self._table = np.full(size, -1, dtype=np.int32)
            self._table[keys] = np.arange(self.n, dtype=np.int32)
        else:
            self._table = None
            empty = (keys[:0], np.zeros(0, dtype=np.int32))
            self._main = _merged(empty, keys, np.arange(self.n, dtype=np.int32))
            self._recent = empty

    def lookup(self, keys) -> np.ndarray:
        """int32 vertex numbers of ``keys``, -1 where a key is unknown."""
        if self._table is not None:
            return self._table[keys]
        ids = _search(self._main, keys)
        miss = np.flatnonzero(ids < 0)
        if miss.size and len(self._recent[0]):
            ids[miss] = _search(self._recent, keys[miss])
        return ids

    def first_seen(self, keys) -> np.ndarray:
        """The distinct values of ``keys`` (all unknown) in order of
        first appearance.  Until ``add`` numbers them, their table
        entries hold positions in ``keys`` instead of -1."""
        if self._table is None:
            uniq, first = np.unique(keys, return_index=True)
            return uniq[np.argsort(first, kind="stable")]
        table = self._table
        pos = np.arange(len(keys), dtype=np.int32)
        table[keys] = len(keys)
        np.minimum.at(table, keys, pos)
        return keys[table[keys] == pos]

    def add(self, keys) -> None:
        """Number ``keys`` (all unknown, distinct) from n upwards."""
        new_ids = np.arange(self.n, self.n + len(keys), dtype=np.int32)
        self._blocks.append(keys)
        self.n += len(keys)
        if self._table is not None:
            self._table[keys] = new_ids
            return
        self._recent = _merged(self._recent, keys, new_ids)
        if len(self._recent[0]) >= len(self._main[0]):
            self._main = _merged(self._main, *self._recent)
            self._recent = (keys[:0], new_ids[:0])

    def keys(self) -> np.ndarray:
        """Every key, in vertex order."""
        return np.concatenate(self._blocks)


def _search(run, keys) -> np.ndarray:
    """Numbers of ``keys`` in a sorted (keys, numbers) run, -1 if absent."""
    srt, ids = run
    if not len(srt):
        return np.full(len(keys), -1, dtype=np.int32)
    # sorted needles walk the run in order: several times faster than
    # binary searches from random starting points
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.searchsorted(srt, keys[order])
    np.minimum(pos, len(srt) - 1, out=pos)
    return np.where(srt[pos] == keys, ids[pos], np.int32(-1))


def _merged(run, keys, ids):
    """A sorted (keys, numbers) run with distinct new ``keys`` merged in."""
    srt, old_ids = run
    order = np.argsort(keys, kind="stable")
    keys, ids = keys[order], ids[order]
    pos = np.searchsorted(srt, keys)
    return np.insert(srt, pos, keys), np.insert(old_ids, pos, ids)


def _verify_symmetry(ms, nbr, O) -> bool:
    """True iff the generator set is inverse-closed, in which case the
    pairing nbr[nbr[v, i], inv(i)] == v is checked for every vertex."""
    gen_keys = ms.pack(O)
    inv_keys = ms.pack(ms.inverse(O))
    order = np.argsort(gen_keys, kind="stable")
    pos = np.searchsorted(gen_keys[order], inv_keys)
    pos_c = np.minimum(pos, len(gen_keys) - 1)
    if not np.all(gen_keys[order][pos_c] == inv_keys):
        return False
    partner = order[pos_c]
    v = np.arange(nbr.shape[0], dtype=np.int64)
    # Columns i and j = inv(i) are maps s_i, s_j of a finite vertex set.
    # If s_j(s_i(v)) = v for every v, then s_i is injective, hence a
    # bijection, and s_j is its inverse; so s_i(s_j(v)) = v follows and
    # each pair {i, inv(i)} needs checking only once.
    for i in range(nbr.shape[1]):
        if partner[i] < i:
            continue
        if not np.array_equal(nbr[nbr[:, i], partner[i]], v):
            raise AssertionError(f"edge relation not symmetric at generator {i}")
    return True


# ---------------------------------------------------------------------------
# Colored subgraphs
# ---------------------------------------------------------------------------


def colored_subgraph(G: CayleyGraph, colors) -> CayleyGraph:
    """Restriction of the graph to edges whose color lies in ``colors``.

    Vertices are unchanged; generators (hence out-edges) are filtered.
    The symmetric flag is recomputed from the surviving generator set
    and connectivity is re-derived by traversal of the undirected view.
    """
    wanted = {int(c) for c in colors}
    if not wanted:
        raise ValueError("empty color set")
    keep = [i for i, c in enumerate(G.gen_colors) if c in wanted]
    if not keep:
        raise ValueError(f"no generator carries a color in {sorted(wanted)}")
    nbr = np.ascontiguousarray(G.nbr[:, keep])
    colors_kept = [G.gen_colors[i] for i in keep]
    ms = G.space()
    O = ms.asbatch([G.vertex_matrix(int(v)).rows for v in nbr[0]])
    symmetric = _verify_symmetry(ms, nbr, O)
    connected = _is_connected(nbr)
    return CayleyGraph(G.F, G.d, G.keys, nbr, colors_kept, symmetric, connected)


def _is_connected(nbr: np.ndarray) -> bool:
    """Reachability of every vertex from vertex 0 in the undirected view.

    Right-multiplication by a fixed generator permutes the vertices, so
    each neighbor-table column is a permutation; this is checked.  The
    inverse of a permutation of a finite set is one of its powers, so a
    reverse edge is a path of forward edges, and following forward
    edges alone reaches every vertex of the undirected component.
    """
    n = nbr.shape[0]
    hit = np.zeros(n, dtype=bool)
    for i in range(nbr.shape[1]):
        hit[:] = False
        hit[nbr[:, i]] = True
        if not hit.all():
            raise AssertionError("a generator column is not a permutation")
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    reached = 1
    while frontier.size:
        cand = nbr[frontier].ravel()
        # unvisited first, then distinct by sorting: numpy's hashed
        # np.unique is far slower on these integer arrays
        fresh = _distinct(cand[~visited[cand]])
        visited[fresh] = True
        reached += fresh.size
        frontier = fresh
    return reached == n


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _key_width(q: int, d: int) -> int:
    return ((q ** (d * d) - 1).bit_length() + 7) // 8


def _keys_to_ints(G: CayleyGraph):
    """Vertex keys as arbitrary-precision packed values (radix q,
    row-major, least-significant first), matching ProjMat.packed()."""
    ms = G.space()
    if ms.packable:
        return [int(k) for k in G.keys]
    mats = ms.unpack(G.keys)
    return [ms.packed_of(tuple(map(tuple, m))) for m in mats]


def _keys_from_ints(F, d: int, values) -> np.ndarray:
    ms = MatSpace(F, d)
    if ms.packable:
        return np.array(values, dtype=np.int64)
    q = F.q
    mats = np.zeros((len(values), d, d), dtype=ms.dtype)
    for i, val in enumerate(values):
        for k in range(d * d):
            mats[i, k // d, k % d] = val % q
            val //= q
    return ms.pack(mats)


def export_graph(G: CayleyGraph, path: str, format: str = "binary") -> None:
    """Write a graph to disk; ``format`` is ``binary`` or ``text``.

    Both encodings are bit-exact round-trips including vertex numbering.
    The binary form is little-endian fixed-width records followed by a
    64-bit checksum of the preceding byte stream.
    """
    if format == "text":
        atomic_write_text(path, graph_to_text(G))
    elif format == "binary":
        atomic_write_bytes(path, graph_to_bytes(G))
    else:
        raise ValueError(f"unknown format {format!r}")


def import_graph(path: str) -> CayleyGraph:
    """Read a graph written by export_graph, auto-detecting the format.

    A binary graph carries its own checksum; a text graph is checked
    against ``<path>.manifest`` when that file exists."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] == _MAGIC:
        return graph_from_bytes(blob)
    check_manifest(path, blob)
    return graph_from_text(blob.decode("utf-8"))


def graph_to_text(G: CayleyGraph) -> str:
    F = G.F
    head = f"version={_VERSION} n={G.n} r={G.r} q={F.q} d={G.d}"
    head += f" sym={int(G.symmetric)} conn={int(G.connected)}"
    if F.f > 1:
        head += " bmod=" + ",".join(str(c) for c in F.modulus)
    lines = [head]
    for value in _keys_to_ints(G):
        lines.append(f"v {value:x}")
    nbr = G.nbr
    for u in range(G.n):
        row = nbr[u]
        for i in range(G.r):
            lines.append(f"e {u} {row[i]} {i} {G.gen_colors[i]}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> CayleyGraph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty graph file")
    head = {}
    for tok in lines[0].split():
        k, _, val = tok.partition("=")
        head[k] = val
    if head.get("version") != str(_VERSION):
        raise ValueError(f"unsupported version {head.get('version')!r}")
    try:
        n, r, q, d = (int(head[k]) for k in ("n", "r", "q", "d"))
    except KeyError as missing:
        raise ValueError(f"graph header lacks field {missing}") from None
    p, f = _prime_power(q)
    bmod = None
    if "bmod" in head:
        bmod = tuple(int(c) for c in head["bmod"].split(","))
    F = get_field(p, f, bmod)
    values = []
    edge_at = n + 1
    for ln in lines[1:edge_at]:
        tag, _, hexval = ln.partition(" ")
        if tag != "v":
            raise ValueError("truncated vertex table")
        values.append(int(hexval, 16))
    if len(values) != n:
        raise ValueError("truncated vertex table")
    keys = _keys_from_ints(F, d, values)
    nbr = np.full((n, r), -1, dtype=np.int32)
    gen_colors = [-1] * r
    count = 0
    for ln in lines[edge_at:]:
        if not ln.strip():
            continue
        parts = ln.split()
        if parts[0] != "e" or len(parts) != 5:
            raise ValueError(f"malformed edge line {ln!r}")
        u, v, i, c = (int(x) for x in parts[1:])
        if not (0 <= u < n and 0 <= v < n and 0 <= i < r):
            raise ValueError(f"edge endpoint out of range in {ln!r}")
        if gen_colors[i] == -1:
            gen_colors[i] = c
        elif gen_colors[i] != c:
            raise ValueError(f"generator {i} carries two colors")
        nbr[u, i] = v
        count += 1
    if count != n * r or np.any(nbr < 0):
        raise ValueError("truncated edge table")
    return _validated_graph(
        F, d, keys, nbr, gen_colors, head.get("sym") == "1", head.get("conn") == "1"
    )


def graph_to_bytes(G: CayleyGraph) -> bytes:
    F = G.F
    parts = [
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            G.n,
            G.r,
            F.q,
            G.d,
            F.f,
            int(G.symmetric),
            int(G.connected),
        )
    ]
    if F.f > 1:
        parts.append(struct.pack("<H", len(F.modulus)))
        parts.append(bytes(list(F.modulus)))
    parts.append(bytes(list(G.gen_colors)))
    width = _key_width(F.q, G.d)
    if G.space().packable:
        raw = np.ascontiguousarray(G.keys.astype("<i8")).view(np.uint8)
        parts.append(raw.reshape(G.n, 8)[:, :width].tobytes())
    else:
        for value in _keys_to_ints(G):
            parts.append(value.to_bytes(width, "little"))
    parts.append(np.ascontiguousarray(G.nbr, dtype="<i4").data)
    check = hashlib.blake2b(digest_size=8)
    for part in parts:
        check.update(part)
    parts.append(check.digest())
    return b"".join(parts)


def graph_from_bytes(blob: bytes) -> CayleyGraph:
    if len(blob) < _HEADER.size + 8:
        raise ValueError("truncated graph file")
    body, digest = memoryview(blob)[:-8], blob[-8:]
    if hashlib.blake2b(body, digest_size=8).digest() != digest:
        raise ValueError("checksum mismatch: corrupted graph file")
    magic, version, n, r, q, d, f, sym, conn = _HEADER.unpack_from(body, 0)
    if magic != _MAGIC:
        raise ValueError("not a binary graph file")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    off = _HEADER.size
    bmod = None
    if f > 1:
        (mlen,) = struct.unpack_from("<H", body, off)
        off += 2
        bmod = tuple(body[off : off + mlen])
        off += mlen
    p, _ = _prime_power(q)
    F = get_field(p, f, bmod)
    gen_colors = list(body[off : off + r])
    off += r
    width = _key_width(q, d)
    expected = off + n * width + n * r * 4
    if len(body) != expected:
        raise ValueError("truncated graph file")
    if MatSpace(F, d).packable:
        raw = np.zeros((n, 8), dtype=np.uint8)
        raw[:, :width] = np.frombuffer(
            body, dtype=np.uint8, offset=off, count=n * width
        ).reshape(n, width)
        keys = raw.view("<i8").reshape(n).astype(np.int64)
    else:
        values = [
            int.from_bytes(body[off + i * width : off + (i + 1) * width], "little")
            for i in range(n)
        ]
        keys = _keys_from_ints(F, d, values)
    off += n * width
    nbr = np.frombuffer(body, dtype="<i4", offset=off, count=n * r)
    nbr = nbr.reshape(n, r).astype(np.int32)
    return _validated_graph(F, d, keys, nbr, gen_colors, bool(sym), bool(conn))


def _validated_graph(F, d, keys, nbr, gen_colors, symmetric, connected):
    n = keys.shape[0]
    if n == 0:
        raise ValueError("empty vertex table")
    if np.any(nbr < 0) or np.any(nbr >= n):
        raise ValueError("neighbor index out of range")
    ms = MatSpace(F, d)
    ident_key = ms.pack(ms.identity_batch(1))[0]
    if keys[0] != ident_key:
        raise ValueError("vertex 0 is not the identity")
    srt = np.sort(keys)
    if np.any(srt[1:] == srt[:-1]):
        raise ValueError("duplicate vertex keys")
    return CayleyGraph(F, d, keys, nbr, gen_colors, symmetric, connected)

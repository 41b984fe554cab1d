"""Cayley graphs of projective matrix groups: breadth-first closure from
the identity, and text/binary serialization of graphs with int64 keys,
with round-trip guarantees."""

from __future__ import annotations

import hashlib
import os
import struct
from itertools import chain
from typing import NamedTuple

import numpy as np

from .ffield import get_field
from .genforge import (
    KIND_OMEGABAR,
    KIND_OMEGAHAT,
    MEM_BUDGET,
    GenSet,
    MemoryBudgetError,
    _ints,
    _prime_power,
    group_order_pgl,
)
from .projmat import MatSpace, _block_rows
from .util import (
    Tokens,
    atomic_write_parts,
    check_canonical,
    check_manifest,
    ordered_imap,
)

_MAGIC = b"CAYG"
_VERSION = 1
_HEADER = struct.Struct("<4sIQIIIIBB")
# most point ids looked up through a direct int32 vertex table (64 MB)
_VERTEX_TABLE_MAX = 1 << 24
# bytes of a binary neighbor table read, hashed and range-checked at once
_READ_CHUNK = 1 << 20
# bytes held per byte of a text graph while it is parsed and checked:
# the file, its lines and tokens as Python strings, and the writer's text
# (25-26 measured on the (3,3), (7,2) and (9,2) closures)
_TEXT_PARSE_BYTES = 32
# defaults shared by the library and the command line
MAX_VERTICES = 1_000_000
GRAPH_FORMAT = "binary"


class GraphHead(NamedTuple):
    """What ``import_graph(..., head=True)`` keeps of a graph file: the
    field, dimension and order of its group and the keys and colours of
    its generators, the fields of a ``CayleyGraph`` that ``compare``
    reads in ``iso`` mode and ``spectra.check_graph_of`` reads."""

    F: object
    d: int
    n: int
    gen_keys: np.ndarray
    gen_colors: tuple

    @property
    def r(self) -> int:
        return len(self.gen_keys)


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

    @property
    def gen_keys(self) -> np.ndarray:
        """The packed keys of the identity's neighbours: the generators,
        in generator order."""
        return self.keys[self.nbr[0]]

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
        gens.mats,
        colors=[g.color for g in gens],
        max_vertices=max_vertices,
        threads=threads,
    )


def closure_from_matrices(
    F,
    d: int,
    mats,
    colors=None,
    max_vertices: int = MAX_VERTICES,
    threads: int = 1,
) -> CayleyGraph:
    """Breadth-first closure of an explicit list of matrices (a batch, or
    rows of codes).

    The matrices must be nonsingular, canonical-form distinct, and none
    may be the identity (self-loops are not representable).  ``colors``
    defaults to zero labels.  Vertex numbering is by discovery order
    (``_closure``): frontier vertices in index order, generators in list
    order, which is deterministic for every thread count.

    The neighbor table is column-major: each generator's column is one
    contiguous int32 array, which the symmetry check walks.  It is
    allocated for ``cap`` = min(``max_vertices``, |PGL_d(F_q)|) rows,
    and its pages are committed only as rows are written, so a closure
    that stops short of ``cap`` (a proper subgroup) keeps a view of the
    first rows of each column whose untouched tails commit nothing: it
    holds at most cap * r * 4 bytes.
    """
    ms = MatSpace(F, d)
    O = ms.canon(ms.asbatch(mats))
    if ms.singular(O).any():
        raise ValueError("projective matrices must be nonsingular")
    r = O.shape[0]
    if colors is None:
        colors = [0] * r
    colors = [int(c) for c in colors]
    if len(colors) != r:
        raise ValueError("one color per generator is required")
    gen_keys = ms.pack(O)
    if _has_duplicates(gen_keys):
        raise ValueError("generators must be projectively distinct")
    ident = ms.identity_batch(1)
    ident_key = ms.pack(ident)[0]
    if np.any(gen_keys == ident_key):
        raise ValueError("the identity cannot be a generator")

    index = _VertexIndex(ms, ms.pack(ident))
    # one table for every row the closure can have (it is a subgroup of
    # PGL_d(F_q)); its pages are committed only as rows are written
    cap = max(1, min(max_vertices, group_order_pgl(d, ms.q)))
    nbr = np.empty((cap, r), dtype=np.int32, order="F")
    rows = 0

    def admit(count):
        if count > max_vertices:
            raise VertexLimitError(
                f"closure exceeds max_vertices={max_vertices} (at least {count} vertices)"
            )

    products = ms.key_products(O, ids=index.by_id)
    for block in _closure(index, products, r, admit, threads):
        # regularity, while the block is in cache
        srt = np.sort(block, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise AssertionError("regularity violated: repeated out-neighbor")
        nbr[rows : rows + len(block)] = block
        rows += len(block)

    keys = index.keys()
    del index
    nbr = nbr[:rows]
    symmetric = _verify_symmetry(ms, nbr, O)
    return CayleyGraph(F, d, keys, nbr, colors, symmetric, True)


def _closure(index, products, c, admit, threads):
    """Number the breadth-first closure of the ``_VertexIndex`` ``index``
    and yield, block by block, the (rows, c) int32 numbers of the c
    products of each key: row v of their concatenation is key v's.
    ``products`` maps a block of ``_block_rows(c)`` frontier keys to
    what ``index.lookup`` reads, key-major, on up to ``threads`` threads
    that run ahead of the numbering.  New values take their order of
    first appearance in that stream, after ``admit(count)`` has taken
    the count they bring the index to, for any thread count."""
    frontier = index.keys()
    step = _block_rows(c)
    while len(frontier):
        level = []
        blocks = [frontier[i : i + step] for i in range(0, len(frontier), step)]
        for flat in ordered_imap(products, blocks, threads):
            ids = index.lookup(flat)
            fresh = np.flatnonzero(ids < 0)
            if fresh.size:
                new = index.first_seen(flat[fresh])
                admit(index.n + len(new))
                level.append(index.add(new))
                ids[fresh] = index.lookup(flat[fresh])
            yield ids.reshape(-1, c)
        frontier = np.concatenate(level) if level else frontier[:0]


def _has_duplicates(keys: np.ndarray) -> bool:
    """Whether an array of keys repeats a value, by sorting (a plain
    ``np.unique`` imports ``numpy.ma``)."""
    srt = np.sort(keys)
    return bool(np.any(srt[1:] == srt[:-1]))


class _VertexIndex:
    """Vertex numbers of canonical matrices, grown block by block.

    When ``_vertex_table_size`` is not 0, the index works on point ids
    (``MatSpace.point_ids``) and ``by_id`` is true: an int32 array
    indexed by id holds each vertex number (-1 for unknown ids), and
    only the ids ``add`` numbers are converted back to packed keys.
    Otherwise it works on packed keys, kept sorted with their numbers in
    a main run and a recent run: ``add`` merges new keys into the recent
    run (one ``searchsorted`` plus insert), and the recent run is merged
    into the main one once it is as long, so an add costs time linear in
    the recent run rather than a sort of every key.  A lookup searches
    both runs.  With ``ms`` None the values are any sortable ids, such
    as orbit ids, always in sorted runs.
    """

    def __init__(self, ms, keys):
        self._ms = ms
        self._blocks = [keys]
        self.n = len(keys)
        size = 0 if ms is None else _vertex_table_size(ms)
        self.by_id = bool(size)
        if size:
            self._table = np.full(size, -1, dtype=np.int32)
            self._table[ms.point_ids(keys)] = np.arange(self.n, dtype=np.int32)
        else:
            self._table = None
            empty = (keys[:0], np.zeros(0, dtype=np.int32))
            self._main = _merged(empty, keys, np.arange(self.n, dtype=np.int32))
            self._recent = empty

    def lookup(self, keys) -> np.ndarray:
        """int32 vertex numbers of ``keys`` (ids when ``by_id``), -1
        where a key is unknown."""
        if self._table is not None:
            # take: about twice as fast as indexing on these gathers
            return self._table.take(keys)
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

    def add(self, keys) -> np.ndarray:
        """Number ``keys`` (all unknown, distinct; ids when ``by_id``)
        from n upwards, and return their packed keys."""
        new_ids = np.arange(self.n, self.n + len(keys), dtype=np.int32)
        self.n += len(keys)
        if self._table is not None:
            self._table[keys] = new_ids
            keys = self._ms.point_keys(keys)
        else:
            self._recent = _merged(self._recent, keys, new_ids)
            if len(self._recent[0]) >= len(self._main[0]):
                self._main = _merged(self._main, *self._recent)
                self._recent = (keys[:0], new_ids[:0])
        self._blocks.append(keys)
        return keys

    def keys(self) -> np.ndarray:
        """Every key, in vertex order."""
        return np.concatenate(self._blocks)


def _vertex_table_size(ms) -> int:
    """Entries of the direct int32 vertex table a closure over ``ms``
    allocates up front, one per point id, so points * q^(d*(d-1)); 0
    when there are more than ``_VERTEX_TABLE_MAX`` ids, or no int64
    keys, and the keys are searched in sorted runs."""
    size = ms.id_count
    return size if ms.packable and size <= _VERTEX_TABLE_MAX else 0


def _search(run, keys, missing=-1) -> np.ndarray:
    """Numbers of ``keys`` in a sorted (keys, numbers) run, ``missing``
    where a key is absent."""
    srt, ids = run
    if not len(srt):
        return np.full(len(keys), missing, dtype=ids.dtype)
    # sorted needles walk the run in order: several times faster than
    # binary searches from random starting points
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.searchsorted(srt, keys[order])
    del order
    np.minimum(pos, len(srt) - 1, out=pos)
    return np.where(srt[pos] == keys, ids[pos], ids.dtype.type(missing))


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
    partner = ms.inverse_index(O)
    if (partner < 0).any():
        return False
    n, r = nbr.shape
    # Columns i and j = inv(i) are maps s_i, s_j of a finite vertex set.
    # If s_j(s_i(v)) = v for every v, then s_i is injective, hence a
    # bijection, and s_j is its inverse; so s_i(s_j(v)) = v follows and
    # each pair {i, inv(i)} needs checking only once.
    # Each pair walks its two columns in slices of ``_block_rows(1)``
    # vertices: on a column-major table both are contiguous, and the
    # gathers stay within one column.  take reads the int32 indices
    # through one intp copy, where indexing casts them in small buffers.
    step = _block_rows(1)
    span = np.arange(min(n, step), dtype=nbr.dtype)
    for i in np.flatnonzero(partner >= np.arange(r)):
        there, back = nbr[:, i], nbr[:, partner[i]]
        for v0 in range(0, n, step):
            home = back.take(there[v0 : v0 + step])
            home -= v0
            if not np.array_equal(home, span[: len(home)]):
                raise AssertionError(f"edge relation not symmetric at generator {i}")
    return True


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
    """The sorted distinct entries of an array."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts (by a
    comparison: raw-byte keys have no ``np.not_equal`` loop)."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    new[1:] = values[1:] != values[:-1]
    return np.flatnonzero(new)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _key_width(q: int, d: int) -> int:
    return ((q ** (d * d) - 1).bit_length() + 7) // 8


def _check_int64_keys(q: int, d: int) -> None:
    """Graph files hold int64 keys, so refuse a space where q^(d*d) does
    not fit them (``MatSpace.packable``).  The test of d*d first spares a
    corrupt header's d a huge power."""
    if not (d * d < 63 and q ** (d * d) < 1 << 63):
        raise ValueError(f"graph files hold int64 keys: q^(d*d) = {q}^{d * d} does not fit")


def export_graph(G: CayleyGraph, path: str, format: str = GRAPH_FORMAT) -> str:
    """Write a graph to disk; ``format`` is ``binary`` or ``text``.
    Returns the sha256 hex digest of the file, taken as it is written.

    Both encodings are bit-exact round-trips including vertex numbering.
    The binary form is little-endian fixed-width records followed by a
    64-bit checksum of the preceding byte stream.  A graph whose keys
    do not fit int64 is refused before anything is written.
    """
    _check_int64_keys(G.F.q, G.d)
    if format == "text":
        return atomic_write_parts(path, _text_parts(G))
    if format == "binary":
        return atomic_write_parts(path, _binary_parts(G))
    raise ValueError(f"unknown format {format!r}")


def import_graph(path: str, hashes: dict | None = None, head: bool = False,
                 memory_budget: int | None = None):
    """Read a graph written by export_graph, auto-detecting the format.

    A binary graph carries its own checksum; a text graph is checked
    against ``<path>.manifest`` when that file exists.  When ``hashes``
    is a dict, the sha256 hex digest of the file, taken as it is read,
    is stored in it under ``path``.  With ``head`` true the result is
    the file's ``GraphHead``: a binary file then runs every check of a
    whole load but holds one row of its neighbor table, and a text file
    is read whole.  A text file whose parse would hold more than
    ``memory_budget`` bytes (``MEM_BUDGET`` when None) is refused with
    MemoryBudgetError before it is read."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if handle.read(4) == _MAGIC:
            handle.seek(0)
            G = _read_binary(handle, size, None if hashes is None else digest, head)
        else:
            budget = MEM_BUDGET if memory_budget is None else memory_budget
            if _TEXT_PARSE_BYTES * size > budget:
                raise MemoryBudgetError(
                    f"parsing the {size}-byte text graph {path} needs "
                    f"~{_TEXT_PARSE_BYTES * size} bytes (budget {budget}); "
                    "write the graph with --format binary"
                )
            handle.seek(0)
            blob = handle.read()
            digest.update(blob)
            check_manifest(path, digest.hexdigest())
            G = graph_from_text(blob.decode("utf-8"))
            if head:
                G = GraphHead(G.F, G.d, G.n, G.gen_keys, G.gen_colors)
    if hashes is not None:
        hashes[path] = digest.hexdigest()
    return G


def _text_parts(G: CayleyGraph):
    """The text form of ``G`` as UTF-8 byte strings, one per list of
    ``_text_blocks``."""
    for lines in _text_blocks(G):
        yield ("\n".join(lines) + "\n").encode("utf-8")


def _text_blocks(G: CayleyGraph):
    """The lines of the text form of ``G``, without line ends, in
    nonempty lists of about ``_chunk_rows(1)`` lines: the header, then
    the vertex keys and the neighbor rows a block at a time, so that
    only one list of lines is held at once."""
    F = G.F
    head = f"version={_VERSION} n={G.n} r={G.r} q={F.q} d={G.d}"
    head += f" sym={int(G.symmetric)} conn={int(G.connected)}"
    if F.f > 1:
        head += " bmod=" + ",".join(str(c) for c in F.modulus)
    yield [head]
    step = _chunk_rows(1)
    for v0 in range(0, G.n, step):
        yield [f"v {value:x}" for value in G.keys[v0 : v0 + step].tolist()]
    colors = G.gen_colors
    step = _chunk_rows(G.r)
    # a graph without generators has no edge lines
    for v0 in range(0, G.n if G.r else 0, step):
        yield [
            f"e {u} {v} {i} {colors[i]}"
            for u, row in enumerate(G.nbr[v0 : v0 + step].tolist(), v0)
            for i, v in enumerate(row)
        ]


def graph_from_text(text: str) -> CayleyGraph:
    """The graph of the text that ``export_graph`` writes in ``text``
    format, checked against its vertex keys; any other text raises
    ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = Tokens(lines[0])
    n, r, q, d = (int(head[k]) for k in ("n", "r", "q", "d"))
    _check_int64_keys(q, d)
    p, f = _prime_power(q)
    F = get_field(p, f, _ints(head["bmod"]) if "bmod" in head else None)
    values = [int(ln[2:], 16) for ln in lines[1 : n + 1]]
    top = q ** (d * d)
    for value in values:
        if not 0 <= value < top:
            raise ValueError(f"vertex value {value:x} outside 0..q^(d*d)-1")
    edges = " ".join(lines[n + 1 :]).split()
    try:
        nbr = np.array(edges[2::5], dtype=np.int32).reshape(len(values), r)
    except OverflowError:
        raise ValueError("neighbor index out of range") from None
    colors = [int(c) for c in edges[4 : 5 * r : 5]]
    keys = np.array(values, dtype=np.int64)
    _check_graph(F, d, keys, r, _in_range(nbr, len(keys)))
    G = CayleyGraph(F, d, keys, nbr, colors, head["sym"] == "1", head["conn"] == "1")
    check_canonical(lines, chain.from_iterable(_text_blocks(G)), "graph file")
    _check_against_keys(G)
    return G


def _check_against_keys(G: CayleyGraph) -> None:
    """Raise ValueError unless the vertex keys are canonical, the
    generators (the neighbors of the identity) nonsingular, every edge
    v -> nbr[v, i] the product of the keys of v and generator i, and the
    stored symmetric and connected flags the ones the edges give.  Text
    graphs carry no checksum, so their load runs this; binary graphs
    keep their blake2b checksum instead."""
    ms = G.space()
    if not np.array_equal(ms.pack(ms.canon(ms.unpack(G.keys))), G.keys):
        raise ValueError("a vertex key is not a canonical projective matrix")
    O = ms.unpack(G.gen_keys)
    if ms.singular(O).any():
        raise ValueError("projective matrices must be nonsingular")
    products = ms.key_products(O)
    rows = _block_rows(G.r)
    for v0 in range(0, G.n, rows):
        block = slice(v0, v0 + rows)
        if not np.array_equal(products(G.keys[block]), G.keys[G.nbr[block]].ravel()):
            raise ValueError("an edge target is not the product of its vertex keys")
    if _verify_symmetry(ms, G.nbr, O) != G.symmetric:
        raise ValueError(f"stored sym={int(G.symmetric)} disagrees with the generators")
    if _is_connected(G.nbr) != G.connected:
        raise ValueError(f"stored conn={int(G.connected)} disagrees with the edges")


def _binary_parts(G: CayleyGraph):
    """The binary encoding as byte buffers, yielded one after another:
    the header, the keys, the neighbor table in row-major chunks of
    ``_chunk_rows(r)`` rows, and last the blake2b checksum of the
    others.  Each chunk is copied from ``G.nbr``, of either layout, into
    one reused buffer, so it is valid only until the next part is asked
    for."""
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
    # a view of the int64 keys: only their low bytes are copied
    raw = np.ascontiguousarray(G.keys, dtype="<i8").view(np.uint8)
    parts.append(raw.reshape(G.n, 8)[:, :_key_width(F.q, G.d)].tobytes())
    del raw
    check = hashlib.blake2b(digest_size=8)
    for part in parts:
        check.update(part)
        yield part
    rows = _chunk_rows(G.r)
    buf = np.empty((min(rows, G.n), G.r), dtype="<i4")
    for v0 in range(0, G.n, rows):
        part = buf[: G.n - v0]
        part[:] = G.nbr[v0 : v0 + rows]
        check.update(part.data)
        yield part.data
    yield check.digest()


def _read_binary(handle, size: int, digest=None, head: bool = False):
    """A binary graph from a file object of ``size`` bytes, read once,
    each part fed to the blake2b checksum, and to the hash object
    ``digest`` when one is given, as it is read.  The neighbor table is
    read in chunks of about ``_READ_CHUNK`` bytes, each range-checked:
    straight into its int32 array, or with ``head`` true into one chunk
    buffer, keeping row 0 for the ``GraphHead`` returned.  The parts'
    lengths follow from the header and ``size``, so nothing is allocated
    past the file, and the rest of the header is read only once the
    checksum matches."""
    check = hashlib.blake2b(digest_size=8)
    hashers = [check] if digest is None else [check, digest]

    def feed(data):
        for h in hashers:
            h.update(data)

    def take(count):
        if count > size - 8 - handle.tell():
            raise ValueError("truncated graph file")
        data = handle.read(count)
        feed(data)
        return data

    if size < _HEADER.size + 8:
        raise ValueError("truncated graph file")
    magic, version, n, r, q, d, f, sym, conn = _HEADER.unpack(take(_HEADER.size))
    if magic != _MAGIC:
        raise ValueError("not a binary graph file")
    bmod = None
    if f > 1:
        (mlen,) = struct.unpack("<H", take(2))
        bmod = tuple(take(mlen))
    gen_colors = list(take(r))
    if n == 0:
        raise ValueError("empty vertex table")
    width, extra = divmod(size - 8 - handle.tell() - n * r * 4, n)
    if width < 0 or extra:
        raise ValueError("truncated graph file")
    key_bytes = take(n * width)
    rows = _chunk_rows(r)
    nbr = np.empty((1 if head else n, r), dtype="<i4")
    chunk = np.empty((min(rows, n), r), dtype="<i4") if head else None
    in_range = True
    for v0 in range(0, n, rows):
        part = nbr[v0 : v0 + rows] if chunk is None else chunk[: n - v0]
        view = memoryview(part.reshape(-1).view(np.uint8))
        if handle.readinto(view) != len(view):
            raise ValueError("truncated graph file")
        feed(view)
        in_range = in_range and _in_range(part, n)
        if head and v0 == 0:
            nbr[:] = part[:1]
    stored = handle.read(8)
    if digest is not None:
        digest.update(stored)
    if check.digest() != stored:
        raise ValueError("checksum mismatch: corrupted graph file")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    _check_int64_keys(q, d)
    if width != _key_width(q, d):
        raise ValueError("truncated graph file")
    p, _ = _prime_power(q)
    F = get_field(p, f, bmod)
    raw = np.zeros((n, 8), dtype=np.uint8)
    raw[:, :width] = np.frombuffer(key_bytes, dtype=np.uint8).reshape(n, width)
    keys = raw.view("<i8").reshape(n).astype(np.int64, copy=False)
    _check_graph(F, d, keys, r, in_range)
    if head:
        return GraphHead(F, d, n, keys[nbr[0]], tuple(gen_colors))
    return CayleyGraph(F, d, keys, nbr, gen_colors, bool(sym), bool(conn))


def _chunk_rows(r: int) -> int:
    """Rows of r int32 neighbors in about ``_READ_CHUNK`` bytes: the
    chunk of every pass over a graph file's neighbor table."""
    return max(1, _READ_CHUNK // (4 * max(r, 1)))


def _in_range(nbr: np.ndarray, n: int) -> bool:
    """Whether every neighbor index of ``nbr`` names one of n vertices."""
    return not nbr.size or bool(nbr.min() >= 0 and nbr.max() < n)


def _check_graph(F, d, keys, r, in_range) -> None:
    """Raise ValueError unless a graph read from a file has a vertex and
    a generator, neighbor indices in range (``in_range``, checked by the
    reader), the identity at vertex 0 and distinct keys."""
    if keys.shape[0] == 0:
        raise ValueError("empty vertex table")
    if r == 0:
        raise ValueError("a graph needs at least one generator")
    if not in_range:
        raise ValueError("neighbor index out of range")
    ms = MatSpace(F, d)
    ident_key = ms.pack(ms.identity_batch(1))[0]
    if keys[0] != ident_key:
        raise ValueError("vertex 0 is not the identity")
    if _has_duplicates(keys):
        raise ValueError("duplicate vertex keys")

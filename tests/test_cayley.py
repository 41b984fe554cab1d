"""Tests for Cayley graph construction, connectivity, triangle counts
against the closed-walk moment, and serialization round trips."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from cayplex import cayley, projmat, spectra
from cayplex.cayley import (
    CayleyGraph,
    VertexLimitError,
    bfs_build,
    closure_from_matrices,
    export_graph,
    graph_from_text,
    import_graph,
)
from cayplex.ffield import ExtField, get_field, regular_rep
from cayplex.projmat import MatSpace
from cayplex.genforge import (
    build_omega,
    group_order_pgl,
    group_order_psl,
    make_params,
    predicted_group_order,
    symmetrize,
)
from cayplex.spectra import compare, walk_moments

from test_projmat import packed_of
from test_spectra import _cyclic_shift_graph


@pytest.fixture(scope="module")
def toy3():
    # nonidentity regular representations of F_4^x over F_2: a cyclic
    # group of order 3, inverse-closed since M^-1 = M^2
    F2 = get_field(2)
    E4 = ExtField(F2, 2)
    mats = [regular_rep(E4, 2), regular_rep(E4, 3)]
    return closure_from_matrices(F2, 2, mats, max_vertices=10)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def test_toy_closure(toy3):
    assert toy3.n == 3 and toy3.r == 2
    assert toy3.symmetric and toy3.connected
    # vertex 1 is the first generator, vertex 2 the second (discovery order)
    assert toy3.nbr.tolist() == [[1, 2], [2, 0], [0, 1]]


def test_toy_vertex_lookup(toy3):
    ms = toy3.space()
    mats = ms.unpack(toy3.keys)
    for v in range(toy3.n):
        assert packed_of(ms.q, mats[v].tolist()) == int(toy3.keys[v])
    assert np.array_equal(mats[0], ms.identity_batch(1)[0])
    assert np.array_equal(mats[1], ms.canon(ms.asbatch(regular_rep(ExtField(toy3.F, 2), 2)))[0])


def test_closure_rejects_identity_and_duplicates():
    F2 = get_field(2)
    E4 = ExtField(F2, 2)
    m = regular_rep(E4, 2)
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        closure_from_matrices(F2, 2, [m, ident])
    with pytest.raises(ValueError):
        closure_from_matrices(F2, 2, [m, m])


def test_vertex_limit():
    F2 = get_field(2)
    E4 = ExtField(F2, 2)
    mats = [regular_rep(E4, 2), regular_rep(E4, 3)]
    with pytest.raises(VertexLimitError):
        closure_from_matrices(F2, 2, mats, max_vertices=2)


def test_vertex_table_and_sorted_paths_agree(monkeypatch, bar42, tmp_path):
    bar33 = symmetrize(build_omega(make_params(3, 3)))
    for gens, n in ((bar42, 60), (bar33, 5616)):
        assert cayley._vertex_table_size(MatSpace(gens.params.base, gens.params.d))
        table = bfs_build(gens, max_vertices=10_000)
        with monkeypatch.context() as m:
            m.setattr(cayley, "_VERTEX_TABLE_MAX", 0)
            ordered = bfs_build(gens, max_vertices=10_000)
            with pytest.raises(VertexLimitError):
                bfs_build(gens, max_vertices=n - 1)
        assert table.n == n
        assert table == ordered
        assert _export(table, tmp_path / "a.bin") == _export(ordered, tmp_path / "b.bin")
        with pytest.raises(VertexLimitError):
            bfs_build(gens, max_vertices=n - 1)


def test_vertex_table_counts_point_ids():
    """The closure's vertex table has one entry per point id: at (5,3)
    31 * 125^2 ids where 5^9 keys took 1,953,125 entries, and (7,3),
    whose 7^9 keys are over the cap, fits with 57 * 343^2 ids.  The
    (5,3) graph built on this table is pinned byte for byte by
    ``test_binary_bytes_pinned``."""
    ms53 = MatSpace(get_field(5), 3)
    assert cayley._vertex_table_size(ms53) == 484_375 == 31 * 125**2
    ms73 = MatSpace(get_field(7), 3)
    assert 7**9 > cayley._VERTEX_TABLE_MAX
    assert cayley._vertex_table_size(ms73) == 6_705_993 == 57 * 343**2
    # past the cap, or without int64 keys, the sorted runs serve
    assert cayley._vertex_table_size(MatSpace(get_field(11), 3)) == 0
    assert cayley._vertex_table_size(MatSpace(get_field(3), 7)) == 0


def test_symmetry_check_catches_each_broken_column(monkeypatch, graph42):
    """A swap of two rows in any column breaks the pairing, in the first
    slice, across a slice border and in the last, partial slice, of the
    closure's column-major table and of a row-major copy."""
    ms = graph42.space()
    O = ms.unpack(graph42.keys[graph42.nbr[0]])
    n = graph42.n
    assert graph42.nbr.flags.f_contiguous and not graph42.nbr.flags.c_contiguous
    for block, order in ((projmat._PRODUCT_BLOCK, "F"), (16, "F"), (16, "C")):
        monkeypatch.setattr(projmat, "_PRODUCT_BLOCK", block)
        assert cayley._verify_symmetry(ms, graph42.nbr.copy(order=order), O)
        for u, v in ((3, 7), (15, 16), (n - 2, n - 1)):
            for i in range(graph42.r):
                nbr = graph42.nbr.copy(order=order)
                nbr[[u, v], i] = nbr[[v, u], i]
                assert not np.array_equal(nbr, graph42.nbr)
                with pytest.raises(AssertionError, match="not symmetric"):
                    cayley._verify_symmetry(ms, nbr, O)


def test_layouts_give_identical_outputs(monkeypatch, bar42, graph42, tmp_path):
    """The closure's column-major table and a row-major copy of it give
    the same binary and text files (bytes and sha256 digest), load back
    as the same graph, and give the same walk counts, symmetry and
    connectivity verdicts and ``compare --mode iso`` report, on whole
    graphs and on the heads of their files.  2-row chunks make export
    and import cross chunk borders."""
    assert graph42.nbr.flags.f_contiguous and not graph42.nbr.flags.c_contiguous
    G = graph42
    rows = CayleyGraph(G.F, G.d, G.keys, np.ascontiguousarray(G.nbr), G.gen_colors,
                       G.symmetric, G.connected)
    assert rows.nbr.flags.c_contiguous and rows == G
    ms = G.space()
    O = ms.unpack(G.gen_keys)
    for chunk in (cayley._READ_CHUNK, 2 * 4 * G.r):
        monkeypatch.setattr(cayley, "_READ_CHUNK", chunk)
        seen = []
        for name, H in (("cols", G), ("rows", rows)):
            out = []
            for format in ("binary", "text"):
                path = tmp_path / f"{name}.{format}"
                digest = _export(H, path, format)
                blob = path.read_bytes()
                assert digest == hashlib.sha256(blob).hexdigest()
                hashes = {}
                back = import_graph(str(path), hashes)
                assert back == G and back.nbr.flags.c_contiguous
                assert hashes[str(path)] == digest
                head = import_graph(str(path), head=True)
                out += [blob, compare(head, G, "iso").to_text()]
            out.append(spectra._walk(8, (H.nbr, None), None, None, 1))
            out.append(cayley._verify_symmetry(ms, H.nbr, O))
            out.append(cayley._is_connected(H.nbr))
            out.append(compare(H, G, "iso").to_text())
            seen.append(out)
        assert seen[0] == seen[1]


def test_proper_subgroup_closure_exports_like_row_major(tmp_path):
    """A closure that stops short of its row cap, here the cyclic group
    of order 4 that diag(1, 2, 1) generates in PGL_3(F_5), keeps the
    first rows of each column of its cap-row column-major table (the
    untouched tails commit no pages).  Its export is byte-identical to
    that of a row-major copy, and loads back equal."""
    F5 = get_field(5)
    cap = group_order_pgl(3, 5)
    mats = [((1, 0, 0), (0, 2, 0), (0, 0, 1)), ((1, 0, 0), (0, 3, 0), (0, 0, 1))]
    G = closure_from_matrices(F5, 3, mats)
    assert G.n == 4 < cap and G.symmetric and G.connected
    assert G.nbr.strides == (4, 4 * cap)
    rows = CayleyGraph(G.F, G.d, G.keys, np.ascontiguousarray(G.nbr), G.gen_colors,
                       G.symmetric, G.connected)
    for format in ("binary", "text"):
        a, b = tmp_path / f"cols.{format}", tmp_path / f"rows.{format}"
        assert _export(G, a, format) == _export(rows, b, format)
        assert a.read_bytes() == b.read_bytes()
        assert import_graph(str(a)) == G


def test_bfs_build_requires_symmetric_kind(omega53):
    with pytest.raises(ValueError):
        bfs_build(omega53, max_vertices=1000)


def test_group_order_42(graph42, p42):
    # the d=2, q=4 closure generates PSL_2(F_4) = A_5
    assert graph42.n == group_order_psl(2, 4) == 60
    assert graph42.n == predicted_group_order(p42)
    assert graph42.symmetric and graph42.connected
    assert graph42.r == 5


def test_group_order_53(graph53, p53):
    assert graph53.n == 372000 == group_order_pgl(3, 5)
    assert graph53.n == predicted_group_order(p53)
    assert graph53.r == 62
    assert graph53.symmetric and graph53.connected


def test_graph53_regular_distinct_neighbors(graph53):
    srt = np.sort(graph53.nbr, axis=1)
    assert not np.any(srt[:, 1:] == srt[:, :-1])
    assert graph53.nbr.shape == (372000, 62)


def test_hat_graph_same_group(graph53, graph53_hat):
    # the product system equals the inverse closure for d=3, so both
    # closures cover the same vertex set (numbering may differ)
    assert graph53_hat.n == graph53.n
    assert np.array_equal(np.sort(graph53.keys), np.sort(graph53_hat.keys))
    assert graph53_hat.r == 2 * (5**3 - 1) // (5 - 1) == 62


def test_thread_determinism(monkeypatch, bar53, graph53, tmp_path):
    """Vertices take breadth-first discovery order for any product block
    and thread count: the (5,3) closure with the default block and with
    blocks of 16 rows, and the 5616-vertex (3,3) closure with blocks of
    one row, each on one thread and on three."""
    bar33 = symmetrize(build_omega(make_params(3, 3)))
    graph33 = bfs_build(bar33, max_vertices=10_000)
    for gens, want, rows in ((bar53, graph53, None), (bar53, graph53, 16), (bar33, graph33, 1)):
        if rows is not None:
            monkeypatch.setattr(projmat, "_PRODUCT_BLOCK", rows * len(gens))
        for threads in (1, 3):
            got = bfs_build(gens, max_vertices=400_000, threads=threads)
            assert got == want
            assert _export(got, tmp_path / "a.bin") == _export(want, tmp_path / "b.bin")


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def _reaches_all(nbr):
    """Plain breadth-first search of the undirected view of a neighbor
    table: every stored edge, followed both ways."""
    adj = [set() for _ in range(nbr.shape[0])]
    for v, row in enumerate(nbr.tolist()):
        for w in row:
            adj[v].add(w)
            adj[w].add(v)
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for w in adj[v] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == nbr.shape[0]


def test_connectivity_of_colored_views_against_python_bfs():
    # Z_12 by shift matrices: +2 (color 1), +-3 (color 2), +1 (color 3)
    n = 12
    shift = [
        tuple(tuple(int(j == (i + k) % n) for j in range(n)) for i in range(n))
        for k in (2, 3, 9, 1)
    ]
    G = closure_from_matrices(get_field(2), n, shift, colors=[1, 2, 2, 3])
    assert G.n == n and G.connected
    ms = G.space()
    views = {
        (1,): (False, False),  # +2 alone: two cosets, directed
        (2,): (True, False),  # +-3: three cosets, undirected
        (3,): (False, True),  # +1 alone: one directed cycle
        (1, 2): (False, True),  # gcd(2, 3) = 1, still directed
    }
    for colors, (symmetric, connected) in views.items():
        keep = [i for i, c in enumerate(G.gen_colors) if c in colors]
        nbr = np.ascontiguousarray(G.nbr[:, keep])
        O = ms.unpack(G.keys[nbr[0]])
        assert cayley._verify_symmetry(ms, nbr, O) == symmetric
        assert cayley._is_connected(nbr) == connected == _reaches_all(nbr)
    # directed permutation columns on two halves, then one joining them
    rng = np.random.default_rng(405)
    halves = [np.concatenate([rng.permutation(50), 50 + rng.permutation(50)])
              for _ in range(3)]
    split = np.stack(halves, axis=1).astype(np.int32)
    joined = np.concatenate([split, rng.permutation(100)[:, None]], axis=1)
    joined = joined.astype(np.int32)
    for nbr in (split, joined):
        assert cayley._is_connected(nbr) == _reaches_all(nbr)
    assert not cayley._is_connected(split)
    split[0, 1] = split[1, 1]
    with pytest.raises(AssertionError, match="not a permutation"):
        cayley._is_connected(split)


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def n3_53(bar53):
    """N_3 of the (5,3) inverse closure: each triangle through the
    identity is two length-3 identity words, one per direction."""
    return walk_moments(bar53, 3, "group-dp")[3]


def test_cells_53_triangle_oracle(graph53, n3_53):
    # independent oracle: sum over directed edges (u,v) of the number of
    # common neighbors of u and v equals 6 x triangle count = n * N_3.
    # Neighbor rows are duplicate-free, so once the rows of u and v are
    # sorted together, equal adjacent entries are their common neighbors.
    # The sorted rows are gathered by row, so they are held row-major.
    G = graph53
    srt = np.sort(np.ascontiguousarray(G.nbr), axis=1)
    assert not np.any(srt[:, 1:] == srt[:, :-1])
    both = np.empty((G.n, 2 * G.r), dtype=srt.dtype)
    total = 0
    for g in range(G.r):
        both[:, : G.r] = srt
        both[:, G.r :] = srt[G.nbr[:, g]]
        both.sort(axis=1)
        total += int(np.count_nonzero(both[:, 1:] == both[:, :-1]))
    assert total == G.n * n3_53
    assert total // 6 == 23064000


def test_cells_transitivity_sample(graph53, n3_53):
    # triangles through a vertex are constant, N_3 / 2: check a seeded
    # sample by direct neighbor-set intersections
    G = graph53
    rng = np.random.default_rng(53)
    sample = rng.integers(0, G.n, size=40)
    for v in sample:
        nb = G.nbr[int(v)]
        nbsets = {int(x): set(G.nbr[int(x)].tolist()) for x in nb}
        tri = sum(
            1
            for i in range(len(nb))
            for j in range(i + 1, len(nb))
            if int(nb[j]) in nbsets[int(nb[i])]
        )
        assert 2 * tri == n3_53


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_text_roundtrip_small(toy3, graph42, tmp_path):
    for G in (toy3, graph42):
        text = _graph_text(G, tmp_path / "g.txt")
        assert graph_from_text(text) == G


def test_binary_roundtrip_small(toy3, graph42, tmp_path):
    for G in (toy3, graph42):
        path = tmp_path / "g.bin"
        _export(G, path)
        assert import_graph(str(path)) == G


def test_text_binary_agree(graph42, tmp_path):
    t = tmp_path / "g.txt"
    b = tmp_path / "g.bin"
    export_graph(graph42, str(t), format="text")
    export_graph(graph42, str(b), format="binary")
    assert import_graph(str(t)) == import_graph(str(b)) == graph42


def test_binary_roundtrip_big(graph53, tmp_path):
    path = tmp_path / "g.bin"
    _export(graph53, path)
    assert import_graph(str(path)) == graph53


def test_binary_bytes_pinned(graph53, graph42, tmp_path):
    # the binary encoding is a file format: these digests pin it byte
    # for byte for a prime-field and a non-prime-field graph
    assert _export(graph53, tmp_path / "53.bin") == (
        "1c41c363c9a732a334f240a5f0dbdb6fd00099546fd38c9c579ec84a39366873"
    )
    assert _export(graph42, tmp_path / "42.bin") == (
        "f0205d097c860b6adbaa062249df7645c5450cc0666c91fff2458ac954b6b9d6"
    )


def test_text_bytes_pinned(graph42, toy3, tmp_path):
    # the text encoding is a file format too, over F_4 and over F_2
    assert _export(graph42, tmp_path / "42.txt", "text") == (
        "19a8dc3ebb406fce9e3c707b469fe9fb978afb328449f865bf3c1b66f15ecf94"
    )
    assert _export(toy3, tmp_path / "toy3.txt", "text") == (
        "1cf2872892f4db8832917c5c0ba0340481ce6082987a59ba314f7c0443bd2213"
    )


def _export(G, path, format="binary"):
    """The sha256 hex digest of the file ``export_graph`` writes."""
    return export_graph(G, str(path), format=format)


def _graph_text(G, path):
    """The text form of ``G``: what ``export_graph`` writes at ``path``."""
    _export(G, path, format="text")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _import_bytes(blob, tmp_path):
    path = tmp_path / "damaged.bin"
    path.write_bytes(blob)
    return import_graph(str(path))


def test_binary_corruption_detected(graph42, tmp_path):
    _export(graph42, tmp_path / "g.bin")
    blob = bytearray((tmp_path / "g.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x40
    with pytest.raises(ValueError):
        _import_bytes(bytes(blob), tmp_path)


def test_binary_truncation_detected(graph42, tmp_path):
    _export(graph42, tmp_path / "g.bin")
    blob = (tmp_path / "g.bin").read_bytes()
    with pytest.raises(ValueError):
        _import_bytes(blob[: len(blob) - 5], tmp_path)
    with pytest.raises(ValueError):
        _import_bytes(blob[:10], tmp_path)


def test_binary_corrupt_length_field(graph42, tmp_path):
    # enlarging the vertex count flips header bytes, so the checksum
    # fails before any partial parse
    _export(graph42, tmp_path / "g.bin")
    blob = bytearray((tmp_path / "g.bin").read_bytes())
    blob[8] ^= 0xFF  # low byte of the vertex count
    with pytest.raises(ValueError):
        _import_bytes(bytes(blob), tmp_path)


def test_binary_file_rejections(monkeypatch, graph42, tmp_path):
    """import_graph reads a binary file part by part; every damaged file
    is still refused: a flipped byte, a cut, trailing bytes, and (under
    a valid checksum) an out-of-range neighbor or a repeated key.  So is
    each by a head load, which streams the neighbor table, and with
    chunks of two rows, so that row 5 is in the third chunk."""
    G = graph42
    good = tmp_path / "good.bin"
    export_graph(G, str(good))
    blob = good.read_bytes()
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x40
    damaged = {
        "checksum": bytes(flipped),
        "truncated": blob[:-5],
        "header only": blob[:10],
        "trailing": blob + b"\0" * 4,
        "trailing row": blob + bytes(G.n),
    }
    for name, data in damaged.items():
        (tmp_path / f"{name}.bin").write_bytes(data)
    nbr = G.nbr.copy()
    nbr[5, 0] = G.n
    keys = G.keys.copy()
    keys[3] = keys[2]
    invalid = (((G.keys, nbr), "out of range"), ((keys, G.nbr), "duplicate"))
    for bad, match in invalid:
        export_graph(CayleyGraph(G.F, G.d, *bad, G.gen_colors, True, True),
                     str(tmp_path / f"{match}.bin"))
    for chunk in (cayley._READ_CHUNK, 2 * 4 * G.r):
        monkeypatch.setattr(cayley, "_READ_CHUNK", chunk)
        for head in (False, True):
            for name in damaged:
                with pytest.raises(ValueError):
                    import_graph(str(tmp_path / f"{name}.bin"), head=head)
            for _, match in invalid:
                with pytest.raises(ValueError, match=match):
                    import_graph(str(tmp_path / f"{match}.bin"), head=head)
            back = import_graph(str(good), head=head)
            if head:
                assert (back.F, back.d, back.n, back.r) == (G.F, G.d, G.n, G.r)
                assert np.array_equal(back.gen_keys, G.gen_keys)
            else:
                assert back == G


def test_head_load_holds_one_row(graph53, tmp_path):
    """A head load gives the generators and the file's sha256 that a
    whole load gives, holding the keys and one chunk of the neighbor
    table (1 MB) where a whole load holds the 92 MB table."""
    path = str(tmp_path / "g.bin")
    export_graph(graph53, path)
    whole, part = {}, {}
    tracemalloc.start()
    try:
        head = import_graph(path, part, head=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(head.gen_keys, graph53.gen_keys) and head.n == graph53.n
    assert import_graph(path, whole) == graph53
    assert part == whole
    assert peak < 4 * graph53.keys.nbytes + 2 * cayley._READ_CHUNK


def test_binary_export_import_hold_the_table_once(graph53, tmp_path):
    """Export writes the neighbor table from the graph's own array and
    import reads it straight into the array it returns, so neither
    holds a second copy of it nor the whole file as one string."""
    path = str(tmp_path / "g.bin")
    slack = 8 << 20
    tracemalloc.start()
    try:
        export_graph(graph53, path)
        _, export_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        back = import_graph(path)
        _, import_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == graph53
    table = graph53.nbr.nbytes + graph53.keys.nbytes
    assert export_peak < graph53.keys.nbytes + slack
    assert import_peak - base < table + slack


def test_text_errors(toy3, tmp_path):
    text = _graph_text(toy3, tmp_path / "g.txt")
    with pytest.raises(ValueError):
        graph_from_text(text.replace("version=1", "version=7", 1))
    # drop one edge line -> truncated edge table
    lines = text.strip().splitlines()
    with pytest.raises(ValueError):
        graph_from_text("\n".join(lines[:-1]))
    # vertex 0 must be the identity
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]
    with pytest.raises(ValueError):
        graph_from_text("\n".join(swapped))


def test_text_load_checks_flags_and_keys(graph42, toy3, tmp_path):
    """A text graph is checked against its vertex keys: each stored flag
    must be the one the edges give, and each key a canonical matrix."""
    text = _graph_text(graph42, tmp_path / "g.txt")
    for old, new in (("sym=1", "sym=0"), ("conn=1", "conn=0")):
        with pytest.raises(ValueError, match=new.split("=")[0]):
            graph_from_text(text.replace(old, new, 1))
    # vertex 1 scaled by the scalar 2 of F_4: the same class, not canonical
    F, ms = graph42.F, graph42.space()
    rows = ms.unpack(graph42.keys[1:2])[0]
    scaled = packed_of(F.q, [[F.mul(2, int(x)) for x in row] for row in rows])
    lines = text.splitlines()
    lines[2] = f"v {scaled:x}"
    with pytest.raises(ValueError, match="canonical"):
        graph_from_text("\n".join(lines))
    # one generator of order 3 makes a directed cycle, and loads so
    directed = closure_from_matrices(toy3.F, 2, toy3.space().unpack(toy3.keys[1:2]))
    assert not directed.symmetric
    assert graph_from_text(_graph_text(directed, tmp_path / "d.txt")) == directed


def test_graph_without_generators_refused(tmp_path):
    """A graph with no generators is refused by both readers: its text
    form passes the canonical-line check, and the edge check would then
    divide by r = 0."""
    F = get_field(5)
    ms = MatSpace(F, 3)
    nbr = np.empty((1, 0), dtype=np.int32)
    G = CayleyGraph(F, 3, ms.pack(ms.identity_batch(1)), nbr, [], True, True)
    text = _graph_text(G, tmp_path / "g.txt")
    assert text.startswith("version=1 n=1 r=0 q=5 d=3 sym=1 conn=1\nv ")
    with pytest.raises(ValueError, match="at least one generator"):
        graph_from_text(text)
    for fmt in ("text", "binary"):
        path = str(tmp_path / f"empty.{fmt}")
        export_graph(G, path, format=fmt)
        with pytest.raises(ValueError, match="at least one generator"):
            import_graph(path)


def test_search_matches_dict():
    """``_search`` gives each key's number in a sorted run and ``missing``
    for an absent key, against a dict: on int64 keys and on the 49-byte
    keys of (3,7), for int32 vertex numbers and int64 counts, with
    absent and repeated keys among the needles and on an empty run."""
    rng = np.random.default_rng(5)
    int_keys = rng.choice(1 << 40, size=600, replace=False).astype(np.int64)
    ms = MatSpace(get_field(3), 7)
    byte_keys = ms.pack(ms.asbatch(rng.integers(0, 3, size=(600, 7, 7))))
    assert byte_keys.dtype.itemsize == 49 and len(set(byte_keys.tolist())) == 600
    for keys in (int_keys, byte_keys):
        stored, absent = keys[:400], keys[400:]
        needles = rng.permutation(np.concatenate((stored, absent, stored[:50])))
        for dtype in (np.int32, np.int64):
            numbers = rng.permutation(len(stored)).astype(dtype)
            order = np.argsort(stored)
            run = (stored[order], numbers[order])
            table = dict(zip(stored.tolist(), numbers.tolist()))
            for missing in (-1, 0, 7777):
                got = cayley._search(run, needles, missing)
                assert got.dtype == dtype
                assert got.tolist() == [table.get(key, missing) for key in needles.tolist()]
            empty = (stored[:0], numbers[:0])
            got = cayley._search(empty, needles, 3)
            assert got.dtype == dtype and got.tolist() == [3] * len(needles)
            assert cayley._search(run, needles[:0]).tolist() == []


def test_export_refuses_byte_keys(tmp_path):
    """A graph whose keys need raw bytes (F_2, d = 16: 2^256 keys) is
    refused in both formats before anything is written: no file and no
    temporary file is left."""
    G = _cyclic_shift_graph(16, [1, 15])
    assert not G.space().packable
    for fmt in ("text", "binary"):
        path = tmp_path / f"g.{fmt}"
        with pytest.raises(ValueError, match="int64 keys"):
            export_graph(G, str(path), format=fmt)
    assert os.listdir(tmp_path) == []


def _binary_file(q, d, n=1, r=1, width=10):
    """The bytes of a binary graph file with a valid checksum whose
    header names (q, d), with ``width`` zero bytes per key."""
    parts = [
        cayley._HEADER.pack(cayley._MAGIC, cayley._VERSION, n, r, q, d, 1, 1, 1),
        bytes([1] * r),
        bytes(n * width),
        bytes(4 * n * r),
    ]
    check = hashlib.blake2b(b"".join(parts), digest_size=8)
    return b"".join(parts) + check.digest()


def test_readers_refuse_byte_key_headers(graph42, tmp_path):
    """A text header and a binary header that name q=3 d=7, whose keys
    would need raw bytes, are refused before any key is read; so is a
    header whose d is large enough to make q^(d*d) a huge power."""
    text = _graph_text(graph42, tmp_path / "g.txt").splitlines()
    for q, d in ((3, 7), (3, 10**6)):
        head = text[0].replace("q=4 d=2", f"q={q} d={d}").replace(" bmod=1,1,1", "")
        with pytest.raises(ValueError, match="int64 keys"):
            graph_from_text("\n".join([head, "v zz"] + text[2:]))
        path = tmp_path / f"q{q}.graph"
        path.write_bytes(_binary_file(q, d))
        with pytest.raises(ValueError, match="int64 keys"):
            import_graph(str(path))


def test_export_unknown_format(toy3, tmp_path):
    with pytest.raises(ValueError):
        export_graph(toy3, str(tmp_path / "g.x"), format="xml")


def test_nonprime_field_roundtrip(graph42, tmp_path):
    # base field F_4 serializes its modulus in both encodings
    text = _graph_text(graph42, tmp_path / "g.txt")
    assert "bmod=" in text.splitlines()[0]
    assert graph_from_text(text) == graph42

"""Tests for Cayley graph construction, colored subgraphs, triangle
counts against the closed-walk moment, and serialization round trips."""

import hashlib

import numpy as np
import pytest

from cayplex import cayley
from cayplex.cayley import (
    VertexLimitError,
    bfs_build,
    closure_from_matrices,
    colored_subgraph,
    export_graph,
    graph_from_bytes,
    graph_from_text,
    graph_to_bytes,
    graph_to_text,
    import_graph,
)
from cayplex.ffield import ExtField, get_field, regular_rep
from cayplex.genforge import (
    build_omega,
    group_order_pgl,
    group_order_psl,
    make_params,
    predicted_group_order,
    symmetrize,
)
from cayplex.projmat import ProjMat
from cayplex.spectra import walk_moments


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
    for v in range(toy3.n):
        assert toy3.vertex_matrix(v).packed() == int(toy3.keys[v])
    assert toy3.vertex_matrix(0).is_identity()
    F2 = toy3.F
    assert toy3.vertex_matrix(1) == ProjMat(F2, regular_rep(ExtField(F2, 2), 2))


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


def test_vertex_table_and_sorted_paths_agree(monkeypatch, bar42):
    bar33 = symmetrize(build_omega(make_params(3, 3)))
    for gens, n in ((bar42, 60), (bar33, 5616)):
        q, d = gens.params.q, gens.params.d
        assert q ** (d * d) <= cayley._VERTEX_TABLE_MAX
        table = bfs_build(gens, max_vertices=10_000)
        with monkeypatch.context() as m:
            m.setattr(cayley, "_VERTEX_TABLE_MAX", 0)
            ordered = bfs_build(gens, max_vertices=10_000)
            with pytest.raises(VertexLimitError):
                bfs_build(gens, max_vertices=n - 1)
        assert table.n == n
        assert table == ordered
        assert graph_to_bytes(table) == graph_to_bytes(ordered)
        with pytest.raises(VertexLimitError):
            bfs_build(gens, max_vertices=n - 1)


def test_symmetry_check_catches_each_broken_column(graph42):
    ms = graph42.space()
    O = ms.asbatch([graph42.vertex_matrix(int(v)).rows for v in graph42.nbr[0]])
    assert cayley._verify_symmetry(ms, graph42.nbr, O)
    for i in range(graph42.r):
        nbr = graph42.nbr.copy()
        nbr[[3, 7], i] = nbr[[7, 3], i]
        with pytest.raises(AssertionError, match="not symmetric"):
            cayley._verify_symmetry(ms, nbr, O)


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


def test_thread_determinism(bar53):
    a = bfs_build(bar53, max_vertices=400_000, threads=1)
    b = bfs_build(bar53, max_vertices=400_000, threads=3)
    assert a == b
    assert graph_to_bytes(a) == graph_to_bytes(b)


# ---------------------------------------------------------------------------
# Colored subgraphs
# ---------------------------------------------------------------------------


def test_colored_subgraph_full_set(graph53):
    sub = colored_subgraph(graph53, {1, 2})
    assert sub == graph53


def test_colored_subgraph_single_color(graph53_hat):
    sub = colored_subgraph(graph53_hat, {1})
    assert sub.r == 31
    assert not sub.symmetric  # inverses of color-1 elements live in color 2
    assert sub.connected
    assert sub.n == graph53_hat.n


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
    views = {
        (1,): (False, False),  # +2 alone: two cosets, directed
        (2,): (True, False),  # +-3: three cosets, undirected
        (3,): (False, True),  # +1 alone: one directed cycle
        (1, 2): (False, True),  # gcd(2, 3) = 1, still directed
    }
    for colors, (symmetric, connected) in views.items():
        sub = colored_subgraph(G, set(colors))
        assert sub.symmetric == symmetric
        assert sub.connected == connected == _reaches_all(sub.nbr)
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


def test_colored_subgraph_errors(graph53):
    with pytest.raises(ValueError):
        colored_subgraph(graph53, set())
    with pytest.raises(ValueError):
        colored_subgraph(graph53, {9})


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def n3_53(bar53, graph53):
    """N_3 of the (5,3) inverse closure: each triangle through the
    identity is two length-3 identity words, one per direction."""
    return walk_moments(bar53, 3, "group-dp", graph=graph53)[3]


def test_cells_53_triangle_oracle(graph53, n3_53):
    # independent oracle: sum over directed edges (u,v) of the number of
    # common neighbors of u and v equals 6 x triangle count = n * N_3.
    # Neighbor rows are duplicate-free, so once the rows of u and v are
    # sorted together, equal adjacent entries are their common neighbors.
    G = graph53
    srt = np.sort(G.nbr, axis=1)
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


def test_text_roundtrip_small(toy3, graph42):
    for G in (toy3, graph42):
        text = graph_to_text(G)
        assert graph_from_text(text) == G


def test_binary_roundtrip_small(toy3, graph42):
    for G in (toy3, graph42):
        blob = graph_to_bytes(G)
        assert graph_from_bytes(blob) == G


def test_text_binary_agree(graph42, tmp_path):
    t = tmp_path / "g.txt"
    b = tmp_path / "g.bin"
    export_graph(graph42, str(t), format="text")
    export_graph(graph42, str(b), format="binary")
    assert import_graph(str(t)) == import_graph(str(b)) == graph42


def test_binary_roundtrip_big(graph53):
    blob = graph_to_bytes(graph53)
    again = graph_from_bytes(blob)
    assert again == graph53


def test_binary_bytes_pinned(graph53, graph42):
    # the binary encoding is a file format: these digests pin it byte
    # for byte for a prime-field and a non-prime-field graph
    assert hashlib.sha256(graph_to_bytes(graph53)).hexdigest() == (
        "1c41c363c9a732a334f240a5f0dbdb6fd00099546fd38c9c579ec84a39366873"
    )
    assert hashlib.sha256(graph_to_bytes(graph42)).hexdigest() == (
        "f0205d097c860b6adbaa062249df7645c5450cc0666c91fff2458ac954b6b9d6"
    )


def test_binary_corruption_detected(graph42):
    blob = bytearray(graph_to_bytes(graph42))
    blob[len(blob) // 2] ^= 0x40
    with pytest.raises(ValueError):
        graph_from_bytes(bytes(blob))


def test_binary_truncation_detected(graph42):
    blob = graph_to_bytes(graph42)
    with pytest.raises(ValueError):
        graph_from_bytes(blob[: len(blob) - 5])
    with pytest.raises(ValueError):
        graph_from_bytes(blob[:10])


def test_binary_corrupt_length_field(graph42):
    # enlarging the vertex count flips header bytes, so the checksum
    # fails before any partial parse
    blob = bytearray(graph_to_bytes(graph42))
    blob[8] ^= 0xFF  # low byte of the vertex count
    with pytest.raises(ValueError):
        graph_from_bytes(bytes(blob))


def test_text_errors(toy3):
    text = graph_to_text(toy3)
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


def test_export_unknown_format(toy3, tmp_path):
    with pytest.raises(ValueError):
        export_graph(toy3, str(tmp_path / "g.x"), format="xml")


def test_nonprime_field_roundtrip(graph42):
    # base field F_4 serializes its modulus in both encodings
    text = graph_to_text(graph42)
    assert "bmod=" in text.splitlines()[0]
    assert graph_from_text(text) == graph42

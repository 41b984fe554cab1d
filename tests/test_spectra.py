"""Tests for moment fingerprints, dense spectra, and comparisons.

Oracles: exhaustive pair/triple enumeration for small moment values,
the circulant eigenvalue formula for dense spectra, and cross-checks
between two independent moment strategies.
"""

import time
import tracemalloc

import numpy as np
import pytest

from cayplex import cayley, cli, projmat, spectra
from cayplex.cayley import CayleyGraph, closure_from_matrices
from cayplex.ffield import get_field, regular_rep
from cayplex.genforge import (
    GenSet,
    MemoryBudgetError,
    build_omega,
    family,
    make_params,
    symmetrize,
)
from cayplex.orbits import ThetaOrbits, TrivialOrbits, orbits_for, theta_permutation
from cayplex.projmat import MatSpace
from cayplex.spectra import (
    ComparisonReport,
    MomentSeq,
    _ball_levels,
    _inverses_if_open,
    _moments_ball_mitm,
    _reverse_columns,
    _selected,
    cayley_isomorphism,
    compare,
    dense_spectrum,
    walk_moments,
)

from test_projmat import _repeat_tile_products


def _relabeled(G, seed):
    """``G`` with vertices 1..n-1 renumbered by a seeded permutation; the
    identity stays vertex 0."""
    perm = np.random.default_rng(seed).permutation(G.n - 1) + 1
    perm = np.concatenate(([0], perm)).astype(G.nbr.dtype)
    keys = np.empty_like(G.keys)
    keys[perm] = G.keys
    nbr = np.empty_like(G.nbr)
    nbr[perm] = perm[G.nbr]
    return CayleyGraph(G.F, G.d, keys, nbr, G.gen_colors, G.symmetric, G.connected)


def _group_dp_runs(monkeypatch):
    """A list that records, for each group-dp run, the table its forward
    rows come from and its orbit count, None under the identity
    labelling."""
    runs = []
    walk = spectra._walk

    def recorded(K, fwd, back, weights, threads):
        runs.append((fwd[0], None if weights is None else len(weights)))
        return walk(K, fwd, back, weights, threads)

    monkeypatch.setattr(spectra, "_walk", recorded)
    return runs


def _identity_labelling(gens, K, colors, graph):
    """group-dp's values with every orbit labelling refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_theta_orbits", lambda *args: None)
        return walk_moments(gens, K, "group-dp", colors=colors, graph=graph).values


def _theta_labels(gens, G):
    """``_theta_orbits`` of the whole system ``gens`` on ``G``."""
    inv = G.space().inverse_index(gens.mats)
    return spectra._theta_orbits(gens, G, np.arange(len(gens)), inv)


def _consolidated_levels(ms, gen_mats, radius):
    """Reference ball levels: the products of each level's distinct keys
    with every generator, sorted by argsort and merged by reduceat."""
    r = gen_mats.shape[0]
    levels = [(ms.pack(ms.identity_batch(1)), np.ones(1, dtype=np.int64))]
    for _ in range(radius):
        prev_keys, prev_counts = levels[-1]
        keys = ms.pack(_repeat_tile_products(ms, ms.unpack(prev_keys), gen_mats))
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = prev_counts[order // r]
        levels.append((keys[starts], np.add.reduceat(counts, starts)))
    return levels


def _consolidated_join(ms, gen_mats, K):
    """Reference N_0..N_K: every level of the ball and of the inverse
    ball consolidated, joined on equal keys with Python integers."""
    fwd = _consolidated_levels(ms, gen_mats, (K + 1) // 2)
    inv = _consolidated_levels(ms, ms.inverse(gen_mats), K // 2)
    values = [1]
    for k in range(1, K + 1):
        a = (k + 1) // 2
        counts = dict(zip(fwd[a][0].tolist(), fwd[a][1].tolist()))
        kb, cb = inv[k - a]
        pairs = zip(kb.tolist(), cb.tolist())
        values.append(sum(counts.get(x, 0) * c for x, c in pairs))
    return values


def _path_cases(bar33=None, bar42=None, hat53=None):
    """(gens, sel, orbit) cases for both namings of ball-mitm: whole
    systems and colour 1 of hat53, which conjugation by theta permutes
    (levels of theta-orbits), and generators 0 and 1 with their
    partners, or colour 1 without its first generator, which it does
    not (levels of single keys, the trivial naming).  Each case is
    checked to take the naming it names."""
    cases = []
    for gens in filter(None, (bar33, bar42)):
        partners = sorted({0, 1, gens[0].inv, gens[1].inv})
        cases += [(gens, list(range(len(gens))), True), (gens, partners, False)]
    if hat53 is not None:
        ones = _selected(hat53, {1})
        cases += [(hat53, ones, True), (hat53, ones[1:], False)]
    for gens, sel, orbit in cases:
        ms = MatSpace(gens.params.base, gens.params.d)
        found = ThetaOrbits.for_system(gens.params, ms, gens.mats[sel])
        assert (found is not None) == orbit
    return cases


def _theta_only(monkeypatch):
    """Make ball-mitm name orbits of theta alone: ``for_system`` accepts
    what it accepted and returns the normal form with k = d."""
    found = ThetaOrbits.for_system.__func__

    def theta_only(cls, params, ms, mats):
        if found(cls, params, ms, mats) is None:
            return None
        return cls(params, ms, params.d)

    monkeypatch.setattr(ThetaOrbits, "for_system", classmethod(theta_only))


def _top_budget(gens, K, sel, parts, threads=1):
    """A budget under which ball-mitm at K fills top-level buckets of
    1/``parts`` of the top products: the top stream's estimate without a
    bucket, plus ``_bucket_bytes`` per product of such a bucket."""
    calls = []
    estimate = spectra._orbit_memory_estimate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_orbit_memory_estimate",
                      lambda *args: calls.append(args) or estimate(*args))
        _moments_ball_mitm(gens, K, sel, threads, None)
    top = next(args for args in calls if args[5] == 0)
    words = top[2] * top[3]
    return estimate(*top) + spectra._bucket_bytes(top[1]) * -(-words // parts)


def _rotation_rows(n, k):
    """The n-by-n permutation matrix of the cycle shift by k."""
    return tuple(
        tuple(1 if j == (i + k) % n else 0 for j in range(n)) for i in range(n)
    )


def _cyclic_shift_graph(n, shifts):
    """Cayley graph of the cyclic group of order n on the given shift
    amounts, realized as permutation matrices over the two-element
    field."""
    F2 = get_field(2)
    mats = [_rotation_rows(n, k) for k in shifts]
    return closure_from_matrices(F2, n, mats, max_vertices=4 * n)


def _circulant_eigenvalues(n, shifts):
    """Independent closed-form spectrum of a cyclic-shift graph."""
    j = np.arange(n)
    lam = np.zeros(n, dtype=np.float64)
    for s in shifts:
        lam += np.cos(2.0 * np.pi * j * s / n)
    return np.sort(lam)[::-1]


# ---------------------------------------------------------------------------
# MomentSeq plumbing
# ---------------------------------------------------------------------------


class TestMomentSeq:
    def test_validation(self):
        with pytest.raises(ValueError, match="starts with N_0"):
            MomentSeq([2, 0], "h")
        with pytest.raises(ValueError, match="nonnegative"):
            MomentSeq([1, -1], "h")
        seq = MomentSeq([1, 0, 4], "h", colors={2, 1})
        assert seq.K == 2
        assert seq[2] == 4
        assert seq.colors == (1, 2)

    def test_text_round_trip(self):
        seq = MomentSeq([1, 0, 5, 0, 45], "abc123", colors=[1])
        text = seq.to_text()
        assert text.splitlines()[0] == "version=1 genset=abc123 colors=1 K=4"
        back = MomentSeq.from_text(text)
        assert back == seq
        assert back.colors == (1,)
        assert back.genset_hash == "abc123"

    def test_text_round_trip_all_colors(self):
        seq = MomentSeq([1, 0, 7], "xyz")
        back = MomentSeq.from_text(seq.to_text())
        assert back == seq and back.colors is None

    def test_text_rejects_bad_version(self):
        seq = MomentSeq([1, 2], "h")
        text = seq.to_text().replace("version=1", "version=9")
        with pytest.raises(ValueError, match="version"):
            MomentSeq.from_text(text)

    def test_text_rejects_reordered_lines(self):
        lines = MomentSeq([1, 0, 5], "h").to_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(ValueError, match="line 3 reads '2 5', where the writer writes '1 5'"):
            MomentSeq.from_text("\n".join(lines))

    def test_text_rejects_truncation(self):
        lines = MomentSeq([1, 0, 5], "h").to_text().splitlines()
        with pytest.raises(ValueError, match="line 1 reads .*K=2', where the writer writes .*K=1'"):
            MomentSeq.from_text("\n".join(lines[:-1]))

    def test_file_round_trip(self, tmp_path):
        seq = MomentSeq([1, 0, 62, 372], "deadbeef")
        path = str(tmp_path / "moments.txt")
        seq.save(path)
        assert MomentSeq.load(path) == seq


# ---------------------------------------------------------------------------
# Walk moments
# ---------------------------------------------------------------------------


class TestWalkMoments:
    def test_strategies_agree_small(self, bar42, graph42):
        dp = walk_moments(bar42, 6, "group-dp", graph=graph42)
        bm = walk_moments(bar42, 6, "ball-mitm")
        assert dp.values == bm.values
        assert dp[0] == 1 and dp[1] == 0
        assert dp[2] == len(bar42)

    def test_moments_by_brute_force_words(self, bar42):
        """Oracle: enumerate all words of length <= 4 directly."""
        ms = MatSpace(bar42.params.base, bar42.params.d)
        gen = bar42.mats
        ident = ms.pack(ms.identity_batch(1))[0]
        r = gen.shape[0]
        expected = [1]
        frontier = ms.identity_batch(1)
        for _ in range(4):
            A = np.repeat(frontier, r, axis=0)
            B = np.tile(gen, (frontier.shape[0], 1, 1))
            frontier = ms.canon(ms.mul(A, B))
            expected.append(int(np.sum(ms.pack(frontier) == ident)))
        got = walk_moments(bar42, 4, "ball-mitm")
        assert list(got.values) == expected

    def test_identity_pair_count_oracle(self, bar35):
        """gh = 1 happens for exactly the inverse pairs, and no
        generator is the identity, so N_1 = 0 and N_2 = set size."""
        ms = MatSpace(bar35.params.base, bar35.params.d)
        gen = bar35.mats
        ident = ms.pack(ms.identity_batch(1))[0]
        keys = ms.pack(gen)
        assert int(np.sum(keys == ident)) == 0
        r = gen.shape[0]
        A = np.repeat(gen, r, axis=0)
        B = np.tile(gen, (r, 1, 1))
        pair_hits = int(np.sum(ms.pack(ms.canon(ms.mul(A, B))) == ident))
        assert pair_hits == len(bar35) == 242
        got = walk_moments(bar35, 2, "ball-mitm")
        assert got.values == (1, 0, 242)

    def test_gather_source_narrows_only_below_2_32(self):
        """A pass gathers from a uint32 copy of its counts while they fit;
        a count of 2^32 keeps the int64 vector itself."""
        vec = np.array([0, 5, (1 << 32) - 1], dtype=np.int64)
        narrow = spectra._gather_source(vec)
        assert narrow.dtype == np.uint32 and np.array_equal(narrow, vec)
        wide = np.array([0, 5, 1 << 32], dtype=np.int64)
        assert spectra._gather_source(wide) is wide

    def test_group_dp_matches_full_length_recurrence(
        self, bar42, graph42, hat53, graph53_hat
    ):
        """Oracle: the K-pass recurrence along reverse columns, whose
        value at the identity is N_k, against the half-length join."""
        cases = [
            (bar42, graph42, None),  # inverse-closed
            (hat53, graph53_hat, None),  # inverse-closed
            (hat53, graph53_hat, {1}),  # directed color
        ]
        for seed, (gens, G, colors) in enumerate(cases):
            rev = _reverse_columns(G.nbr, _selected(gens, colors))
            v = np.zeros(G.n, dtype=np.int64)
            v[0] = 1
            want = [1]
            for _ in range(7):
                v = v[rev].sum(axis=1)
                want.append(int(v[0]))
            # the ball bounds of the passes must not rely on the
            # breadth-first numbering
            for graph in (G, _relabeled(G, seed)):
                for threads in (1, 2):
                    for K in range(8):
                        got = walk_moments(
                            gens, K, "group-dp", colors=colors, graph=graph,
                            threads=threads,
                        )
                        assert list(got.values) == want[: K + 1]

    def test_group_dp_orbit_labelling_matches_identity(
        self, monkeypatch, tmp_path, bar42, graph42, bar53, graph53, bar53_s2,
        graph53_s2, hat53, graph53_hat,
    ):
        """Oracle: the passes over theta-orbits give the values of the
        passes over every vertex, for whole systems, an open colour class
        ({1} of hat53) and a closed one, on 1 and 2 threads, over the
        closure's column-major table, the reader's row-major one and the
        closure built when no graph is given.  The identity labelling
        passes the table itself."""
        path = str(tmp_path / "g53.graph")
        cayley.export_graph(graph53, path)
        row_major = cayley.import_graph(path)
        assert graph53.nbr.flags.f_contiguous and row_major.nbr.flags.c_contiguous
        cases = [
            (bar53, (graph53, row_major), None, 10),
            (bar53_s2, (graph53_s2,), None, 10),
            (bar42, (graph42, None), None, 8),
            (hat53, (graph53_hat,), {1}, 8),
            (hat53, (graph53_hat,), {1, 2}, 8),
        ]
        runs = _group_dp_runs(monkeypatch)
        for gens, graphs, colors, K in cases:
            want = _identity_labelling(gens, K, colors, graphs[0])
            table, orbits = runs.pop()
            assert table is graphs[0].nbr and orbits is None
            for graph in graphs:
                for threads in (1, 2):
                    got = walk_moments(
                        gens, K, "group-dp", colors=colors, graph=graph, threads=threads
                    )
                    assert got.values == want
                    rows, orbits = runs.pop()
                    assert orbits == len(rows)

    def test_theta_orbits_of_the_53_closure(self, bar53, graph53):
        """Oracle: the map read off the table is conjugation by theta on
        every vertex's matrix, and the orbits are its cycles: 31 fixed
        points (the centraliser of theta) and 11,999 orbits of ord theta
        = 31, numbered in the order of their least vertices."""
        ms = graph53.space()
        inv = ms.inverse_index(bar53.mats)
        pi = theta_permutation(bar53.params, ms, bar53.mats)
        phi = spectra._theta_map(graph53.nbr, pi[inv])
        theta = ms.asbatch(regular_rep(bar53.params.E, bar53.params.u))
        mats = ms.unpack(graph53.keys)
        conj = ms.canon(ms.mul(ms.mul(theta, mats), ms.inverse(theta)))
        assert np.array_equal(graph53.keys[phi], ms.pack(conj))
        comp, reps, sizes = _theta_labels(bar53, graph53)
        assert len(reps) == 12_030 and reps[0] == 0 and (np.diff(reps) > 0).all()
        assert np.array_equal(comp[phi], comp)
        assert np.array_equal(comp[reps], np.arange(len(reps)))
        least = np.full(len(reps), graph53.n)
        np.minimum.at(least, comp, np.arange(graph53.n))
        assert np.array_equal(least, reps)
        assert np.array_equal(np.bincount(comp), sizes)
        assert int(np.count_nonzero(phi == np.arange(graph53.n))) == 31
        assert np.array_equal(np.unique(sizes, return_counts=True), [[1, 31], [31, 11_999]])

    def test_graph_files_take_the_orbit_labelling(self, monkeypatch, tmp_path, graph53,
                                                  bar53, graph53_s2, bar53_s2, graph53_hat,
                                                  hat53):
        """Every graph that ``graph`` writes is a breadth-first closure of
        an inverse-closed system that theta permutes, so group-dp takes
        the orbit labelling on it: the ``bfs_build`` closures of the (5,3)
        systems, and the files that ``graph`` writes for the omega-bar and
        omega-hat systems at (4,2) and (3,3)."""
        cases = [(bar53, graph53), (bar53_s2, graph53_s2), (hat53, graph53_hat)]
        for q, d in ((4, 2), (3, 3)):
            for kind in ("gens", "omega-hat"):
                gens_path = str(tmp_path / f"{kind}{q}{d}.gens")
                graph_path = str(tmp_path / f"{kind}{q}{d}.graph")
                flags = ["--sym"] if kind == "gens" else []
                argv = [kind, "--q", str(q), "--d", str(d), *flags, "--out", gens_path]
                assert cli.main(argv) == 0
                assert cli.main(["graph", "--gens", gens_path, "--out", graph_path]) == 0
                cases.append((GenSet.load(gens_path), cayley.import_graph(graph_path)))
        runs = _group_dp_runs(monkeypatch)
        for gens, G in cases:
            comp, reps, sizes = _theta_labels(gens, G)
            assert sizes.sum() == G.n and len(reps) < G.n
            walk_moments(gens, 4, "group-dp", graph=G)
            assert runs.pop()[1] == len(reps)

    def test_group_dp_witness_refuses_a_broken_table(self, bar53, graph53):
        """One entry of a representative's row changed in a copy of the
        closure: the map check raises before any moment is formed."""
        _, reps, _ = _theta_labels(bar53, graph53)
        nbr = graph53.nbr.copy(order="F")
        v = int(reps[100])
        i = graph53.r - 1
        nbr[v, i] = nbr[v, 0]
        broken = CayleyGraph(graph53.F, graph53.d, graph53.keys, nbr,
                             graph53.gen_colors, graph53.symmetric, graph53.connected)
        with pytest.raises(AssertionError, match=f"edges of generator {i}"):
            walk_moments(bar53, 10, "group-dp", graph=broken)

    def test_group_dp_identity_labelling_fallbacks(self, monkeypatch, bar53, graph53):
        """A numbering that is not breadth-first and a system that is not
        inverse-closed take the identity labelling, over the table itself:
        the (5,3) values that A9 reports, and ball-mitm's values for the
        omega system at (3,3)."""
        runs = _group_dp_runs(monkeypatch)
        relabeled = _relabeled(graph53, 7)
        got = walk_moments(bar53, 10, "group-dp", graph=relabeled)
        table, orbits = runs.pop()
        assert table is relabeled.nbr and orbits is None
        assert got.values == (1, 0, 62, 372, 11346, 159960, 3641198, 74134578,
                               1961764258, 64709223672, 2867781773322)
        omega33 = build_omega(make_params(3, 3))
        got = walk_moments(omega33, 8, "group-dp")
        table, orbits = runs.pop()
        assert orbits is None and table.shape == (5616, len(omega33))
        assert got.values == walk_moments(omega33, 8, "ball-mitm").values

    def test_ball_levels_match_consolidated_reference(self, bar42, hat53):
        """Oracle: every level as the distinct products of the previous
        level's distinct keys, merged by argsort and reduceat.  Under the
        trivial naming the levels are those (keys, counts) pairs exactly;
        under the theta-orbit naming each orbit's weight is the sum of
        the counts of its keys."""
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        cases = [(bar42, None), (bar33, None), (hat53, {1})]
        for gens, colors in cases:
            ms = MatSpace(gens.params.base, gens.params.d)
            sel = _selected(gens, colors)
            gen_mats = gens.mats[sel]
            want = _consolidated_levels(ms, gen_mats, 3)
            theta = ThetaOrbits.for_system(gens.params, ms, gen_mats)
            assert theta is not None
            products = ms.key_products(gen_mats)
            r = len(gen_mats)
            for threads in (1, 2):
                got = _ball_levels(ms, TrivialOrbits(ms), products, r, 3, threads, 1 << 30)
                assert len(got) == len(want) == 4
                for (gk, gc), (wk, wc) in zip(got, want):
                    assert gk.dtype == wk.dtype and gc.dtype == np.int64
                    assert np.array_equal(gk, wk) and np.array_equal(gc, wc)
                got = _ball_levels(ms, theta, products, r, 3, threads, 1 << 30)
                assert len(got) == 4
                for (gi, gw), (wk, wc) in zip(got, want):
                    ids = theta.ids(wk)
                    order = np.argsort(ids, kind="stable")
                    distinct, starts = np.unique(ids[order], return_index=True)
                    assert np.array_equal(gi, distinct)
                    assert np.array_equal(gw, np.add.reduceat(wc[order], starts))
            # saturation: bar33 generates PGL_3(F_3) of order 5616
            if gens is bar33:
                assert len(want[3][0]) < len(gens) ** 3

    def test_ball_mitm_matches_consolidated_join(self, monkeypatch, bar42, hat53):
        """Oracle: every N_k joined over fully consolidated levels of the
        ball and of the inverse ball, against ball-mitm under both
        namings: theta-orbits where conjugation by theta permutes the
        selection, single keys where it does not.  A lookup chunk of 7
        ids makes levels and product blocks cross chunk borders."""
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        for gens, sel, _ in _path_cases(bar33, bar42, hat53):
            ms = MatSpace(gens.params.base, gens.params.d)
            gen_mats = gens.mats[sel]
            want = _consolidated_join(ms, gen_mats, 6)
            for chunk in (spectra._LOOKUP_CHUNK, 7):
                monkeypatch.setattr(spectra, "_LOOKUP_CHUNK", chunk)
                for threads in (1, 2):
                    for K in range(7):
                        got = _moments_ball_mitm(gens, K, sel, threads, None)
                        assert got == want[: K + 1]

    def test_top_level_overflow_guard(self, monkeypatch, bar42, hat53):
        """The top-level join bound is r^R times the largest count of the
        top level (inverse-closed N_2R) or the largest stored count of
        the inverse ball (open multisets), under both namings: at that limit
        the join raises, one above it the values are exact."""
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        for gens, sel, _ in _path_cases(bar33, bar42, hat53):
            ms = MatSpace(gens.params.base, gens.params.d)
            gen_mats = gens.mats[sel]
            closed = _inverses_if_open(ms, gen_mats) is None
            for K in (4,) if closed else (4, 3):
                radius = (K + 1) // 2
                top = _consolidated_levels(ms, gen_mats, radius)[radius][1]
                if closed:
                    largest = int(top.max())
                else:
                    inv = _consolidated_levels(ms, ms.inverse(gen_mats), K // 2)
                    largest = max(int(c.max()) for _, c in inv)
                limit = len(sel) ** radius * largest
                monkeypatch.setattr(spectra, "_COUNTER_LIMIT", limit)
                with pytest.raises(ValueError, match=f"N_{K} join bound .* overflows"):
                    _moments_ball_mitm(gens, K, sel, 1, None)
                monkeypatch.setattr(spectra, "_COUNTER_LIMIT", limit + 1)
                want = _consolidated_join(ms, gen_mats, K)
                assert _moments_ball_mitm(gens, K, sel, 1, None) == want

    def test_ball_memory_estimate_bounds_traced_peak(self, monkeypatch, bar53, hat53):
        """The whole ball-mitm join stays within the largest
        ``_orbit_memory_estimate`` of any level or of the top stream,
        under both namings.  The cases run odd and even tops at (5,3) and
        (3,3), the even tops of inverse-closed selections once more under
        a budget that leaves buckets of a third of the top products, so
        that they take several passes, a 60-generator selection of single
        keys whose top streams 216,000 products, and (5,3) at K=7 and 8
        on two threads."""
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        estimates = []

        def recorded(*args):
            estimates.append(orbit_estimate(*args))
            return estimates[-1]

        orbit_estimate = spectra._orbit_memory_estimate
        monkeypatch.setattr(spectra, "_orbit_memory_estimate", recorded)
        passes = []
        square_sum = spectra._square_sum
        monkeypatch.setattr(spectra, "_square_sum",
                            lambda *args: passes.append(1) or square_sum(*args))
        cases = [(case, (2, 3)) for case in _path_cases(bar33, hat53=hat53)]
        cases += [((bar53, list(range(len(bar53))), True), (3,))]
        cases += [((bar33, list(range(len(bar33))), True), (4,))]
        rest = [i for i in range(len(bar53)) if i not in (0, bar53[0].inv)]
        cases += [((bar53, rest, False), (3,))]

        def traced(gens, K, sel, budget, threads=1):
            estimates.clear()
            passes.clear()
            tracemalloc.start()
            try:
                values = _moments_ball_mitm(gens, K, sel, threads, budget)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return values, peak

        for (gens, sel, orbit), radii in cases:
            ms = MatSpace(gens.params.base, gens.params.d)
            gen_mats = gens.mats[sel]
            found = ThetaOrbits.for_system(gens.params, ms, gen_mats)
            assert (found is not None) == orbit
            closed = _inverses_if_open(ms, gen_mats) is None
            for radius in radii:
                for K in (2 * radius - 1, 2 * radius):
                    values, peak = traced(gens, K, sel, None)
                    assert peak <= max(estimates)
                    if K % 2 or not closed:
                        continue
                    assert len(passes) == 1
                    budget = _top_budget(gens, K, sel, 3)
                    again, peak = traced(gens, K, sel, budget)
                    assert again == values and len(passes) >= 3
                    assert peak <= max(estimates) <= budget
        # two threads hold two blocks at once, and the estimate counts both
        for K in (7, 8):
            _, peak = traced(bar53, K, list(range(len(bar53))), None, threads=2)
            assert peak <= max(estimates)

    def test_row_tables_built_once_per_generator_batch(self, monkeypatch, bar53):
        """ball-mitm builds the row tables of ``key_products`` once per
        generator batch, for its levels and its top stream alike: once
        for the inverse-closed bar53 at K=8, twice for the open
        selection [0, 1, 2] (the selection and its inverses)."""
        builds = []
        key_products = MatSpace.key_products
        monkeypatch.setattr(MatSpace, "key_products",
                            lambda ms, O, ids=False: builds.append(len(O))
                            or key_products(ms, O, ids))
        everything = list(range(len(bar53)))
        assert _moments_ball_mitm(bar53, 8, everything, 1, None) == [
            1, 0, 62, 372, 11346, 159960, 3641198, 74134578, 1961764258]
        assert builds == [62]
        builds.clear()
        ms = MatSpace(bar53.params.base, 3)
        assert _inverses_if_open(ms, bar53.mats[[0, 1, 2]]) is not None
        assert _moments_ball_mitm(bar53, 8, [0, 1, 2], 1, None)[0] == 1
        assert builds == [3, 3]

    def test_key_products_tables_within_bound(self, bar35):
        """At (3,5) the row tables of key_products hold about 0.5 MB, and
        building them in blocks of ``_ROW_BLOCK`` row products keeps the
        traced peak under 1 MiB (all 243 row codes at once took 3.4 MB),
        within ``_key_products_bytes``."""
        ms = MatSpace(bar35.params.base, bar35.params.d)
        assert ms.row_tables(len(bar35))
        tracemalloc.start()
        try:
            products = ms.key_products(bar35.mats)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 600_000 and peak < 1 << 20
        assert peak <= projmat._key_products_bytes(ms, len(bar35), 1)
        keys = ms.pack(bar35.mats[:3])
        want = ms.pack(_repeat_tile_products(ms, bar35.mats[:3], bar35.mats))
        assert np.array_equal(products(keys), want)

    def test_key_products_fallback_within_bound(self):
        """Past the row tables, key_products multiplies blocks of unpacked
        keys by ``mul`` and holds no more than ``_key_products_bytes``
        beside its output: for the six 64 x 64 shift matrices over F_2
        (4096-byte keys) and for the 2186 generators of (3,7) omega-bar
        (49-byte keys), on one key."""
        F2 = get_field(2)
        shifts = [_rotation_rows(64, k) for k in (1, 63, 5, 59, 11, 53)]
        bar37 = symmetrize(build_omega(make_params(3, 7)))
        cases = [(MatSpace(F2, 64), shifts), (MatSpace(bar37.params.base, 7), bar37.mats)]
        for ms, O in cases:
            O = ms.asbatch(O)
            r = len(O)
            assert not ms.row_tables(r)
            key = ms.pack(O[:1])
            tracemalloc.start()
            try:
                got = ms.key_products(O)(key)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= projmat._key_products_bytes(ms, r, r) + got.nbytes
            assert np.array_equal(got, ms.pack(_repeat_tile_products(ms, O[:1], O)))

    def test_top_level_buckets(self, monkeypatch, bar53):
        """The even top of an inverse-closed multiset gives the same N_K
        from one bucket as from several, on one thread and on two.  A
        budget whose buckets would need more than 16 passes is refused
        before the first pass."""
        sel = list(range(len(bar53)))
        want = _moments_ball_mitm(bar53, 8, sel, 1, None)
        buckets = []
        square_sum = spectra._square_sum
        monkeypatch.setattr(spectra, "_square_sum",
                            lambda *args: buckets.append(1) or square_sum(*args))
        for threads in (1, 2):
            budget = _top_budget(bar53, 8, sel, 5, threads)
            buckets.clear()
            assert _moments_ball_mitm(bar53, 8, sel, threads, budget) == want
            assert len(buckets) >= 5
        # key_products starts the levels, and then the top stream
        starts = []
        key_products = MatSpace.key_products
        monkeypatch.setattr(MatSpace, "key_products",
                            lambda ms, O: starts.append(1) or key_products(ms, O))
        monkeypatch.setattr(spectra, "_TOP_PASSES", 2)
        with pytest.raises(MemoryBudgetError, match="top orbit level 4 .* for 2 passes"):
            _moments_ball_mitm(bar53, 8, sel, 2, budget)
        assert len(starts) == 1

    def test_raw_byte_ids(self, monkeypatch):
        """At (3,7), 3^49 overflows int64, so keys and ids are 49-byte
        strings.  An open selection of three generators matches the
        consolidated join to K=6 within the estimate, which counts the
        49-byte ids.  The even top of an inverse-closed selection, whose
        byte ids have no top bits to split into buckets by, runs in one
        bucket, and a budget one byte below that is refused before any
        pass."""
        bar37 = symmetrize(build_omega(make_params(3, 7)))
        ms = MatSpace(bar37.params.base, 7)
        sel = [0, 1, 2]
        gen_mats = bar37.mats[sel]
        assert _inverses_if_open(ms, gen_mats) is not None
        orbits = orbits_for(bar37.params, ms, gen_mats)
        assert isinstance(orbits, TrivialOrbits) and orbits.dtype.itemsize == 49
        assert spectra._bucket_bytes(orbits) == 3 * 49 + 32
        estimates = []
        estimate = spectra._orbit_memory_estimate

        def recorded(*args):
            estimates.append(estimate(*args))
            return estimates[-1]

        monkeypatch.setattr(spectra, "_orbit_memory_estimate", recorded)
        want = _consolidated_join(ms, gen_mats, 6)
        for K in range(1, 7):
            estimates.clear()
            tracemalloc.start()
            try:
                got = _moments_ball_mitm(bar37, K, sel, 1, None)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want[: K + 1]
            assert peak <= max(estimates)
        closed = sorted({0, 1, bar37[0].inv, bar37[1].inv})
        want = _consolidated_join(ms, bar37.mats[closed], 4)
        budget = _top_budget(bar37, 4, closed, 1)
        assert _moments_ball_mitm(bar37, 4, closed, 1, budget) == want
        with pytest.raises(MemoryBudgetError, match="top orbit level 2 .* for 1 passes"):
            _moments_ball_mitm(bar37, 4, closed, 1, budget - 1)

    def test_frobenius_orbits_match_theta_orbits(self, monkeypatch, bar35, bar35_s2, hat44):
        """Orbits of <theta, Phi^k> give the moments that theta-orbits
        alone give, for k <= 6: at (3,5) for both twists (k = 1), and on
        selections of omega-hat(4,4) colour 2: its 17-element theta-orbit,
        which Phi fixes (k = 1), one of its 85-element theta-orbits, which
        Phi moves and Phi^2 fixes (k = 2), and the whole colour, which Phi
        permutes (k = 1)."""
        params = hat44.params
        ms = MatSpace(params.base, params.d)
        colour = _selected(hat44, {2})
        theta = ThetaOrbits(params, ms, params.d).ids(ms.pack(hat44.mats[colour]))
        orbit = {}
        for i, x in zip(colour, theta.tolist()):
            orbit.setdefault(x, []).append(i)
        small = next(o for o in orbit.values() if len(o) == 17)
        large = next(o for o in orbit.values() if len(o) == 85)
        assert sorted(map(len, orbit.values())) == [17, 85, 85, 85, 85]
        cases = [(bar35, list(range(len(bar35))), 1), (bar35_s2, list(range(len(bar35_s2))), 1),
                 (hat44, small, 1), (hat44, large, 2), (hat44, colour, 1)]
        got = []
        for gens, sel, k in cases:
            ms = MatSpace(gens.params.base, gens.params.d)
            assert ThetaOrbits.for_system(gens.params, ms, gens.mats[sel]).k == k
            got.append(_moments_ball_mitm(gens, 6, sel, 1, None))
        _theta_only(monkeypatch)
        for (gens, sel, _), values in zip(cases, got):
            ms = MatSpace(gens.params.base, gens.params.d)
            assert ThetaOrbits.for_system(gens.params, ms, gens.mats[sel]).k == gens.params.d
            assert _moments_ball_mitm(gens, 6, sel, 1, None) == values
        assert got[0] == got[1]

    def test_orbit_path_matches_group_dp_to_k10(self, bar53, graph53, hat53, graph53_hat):
        """Oracle: group-dp over the closure, against the orbit path of
        ball-mitm, for K <= 10 on the (5,3) omega-bar system and on each
        colour of the (5,3) omega-hat system."""
        cases = [(bar53, graph53, None, 10)]
        cases += [(hat53, graph53_hat, {c}, 8) for c in (1, 2)]
        for gens, G, colors, K in cases:
            sel = _selected(gens, colors)
            ms = MatSpace(gens.params.base, gens.params.d)
            assert ThetaOrbits.for_system(gens.params, ms, gens.mats[sel]) is not None
            dp = walk_moments(gens, K, "group-dp", colors=colors, graph=G)
            assert list(dp.values) == _moments_ball_mitm(gens, K, sel, 1, None)

    def test_strategy_agreement_exhaustive_d3(self, bar53, graph53):
        dp = walk_moments(bar53, 8, "group-dp", graph=graph53)
        bm = walk_moments(bar53, 8, "ball-mitm")
        assert dp.values == bm.values

    def test_small_case_twist_pair_equal_to_k10(
        self, bar53, graph53, bar53_s2, graph53_s2
    ):
        m1 = walk_moments(bar53, 10, "group-dp", graph=graph53)
        m2 = walk_moments(bar53_s2, 10, "group-dp", graph=graph53_s2)
        assert m1.values == m2.values
        assert all(m1[2 * k] > 0 for k in range(6))
        rep = compare(m1, m2, "moments")
        assert rep.verdict == "equal"
        assert rep.details["K"] == 10

    def test_big_case_twist_pair_equal_to_k4(self, bar35, bar35_s2):
        m1 = walk_moments(bar35, 4, "ball-mitm")
        m2 = walk_moments(bar35_s2, 4, "ball-mitm")
        assert m1.values == m2.values
        assert compare(m1, m2, "moments").verdict == "equal"

    def test_triangle_count_consistency(self, bar53, graph53):
        """Length-3 identity words are the two directed traversals of
        the triangles at a vertex; count those at the identity vertex
        by neighbor-set intersections."""
        m = walk_moments(bar53, 3, "group-dp", graph=graph53)
        nb = graph53.nbr[0].tolist()
        nbsets = {x: set(graph53.nbr[x].tolist()) for x in nb}
        per_vertex_triangles = sum(
            1
            for i in range(len(nb))
            for j in range(i + 1, len(nb))
            if nb[j] in nbsets[nb[i]]
        )
        assert per_vertex_triangles > 0
        assert m[3] == 2 * per_vertex_triangles

    def test_color_restriction_directed(self, hat53, graph53_hat):
        dp = walk_moments(hat53, 6, "group-dp", colors={1}, graph=graph53_hat)
        bm = walk_moments(hat53, 6, "ball-mitm", colors={1})
        assert dp.values == bm.values
        assert dp[1] == 0 and dp[2] == 0
        assert dp[3] > 0

    def test_all_colors_equals_union(self, bar53, graph53):
        full = walk_moments(bar53, 4, "group-dp", graph=graph53)
        both = walk_moments(bar53, 4, "group-dp", colors={1, 2}, graph=graph53)
        assert full.values == both.values

    def test_family_related_sets_equal_via_compare(self, p35, bar35):
        fam = family(p35, bar35)
        assert len(fam) == 2
        m0 = walk_moments(fam[0], 4, "ball-mitm")
        m1 = walk_moments(fam[1], 4, "ball-mitm")
        assert compare(m0, m1, "moments").verdict == "equal"

    def test_thread_count_does_not_change_values(self, bar42, graph42):
        one = walk_moments(bar42, 6, "group-dp", graph=graph42, threads=1)
        three = walk_moments(bar42, 6, "group-dp", graph=graph42, threads=3)
        assert one.values == three.values
        b1 = walk_moments(bar42, 6, "ball-mitm", threads=1)
        b3 = walk_moments(bar42, 6, "ball-mitm", threads=3)
        assert b1.values == b3.values

    def test_group_dp_identical_for_any_block(self, monkeypatch, bar42, graph42, bar53, graph53):
        """group-dp gathers rows in blocks of ``_block_rows(r)``: blocks of
        one row and of 16 rows give the default block's values, across
        the partial last block of every pass's support bound."""
        for gens, G, block_rows, threads in (
            (bar42, graph42, (1, 16), (1, 3)),
            (bar53, graph53, (16,), (1,)),
        ):
            want = walk_moments(gens, 6, "group-dp", graph=G).values
            for rows in block_rows:
                monkeypatch.setattr(projmat, "_PRODUCT_BLOCK", rows * len(gens))
                for t in threads:
                    assert walk_moments(gens, 6, "group-dp", graph=G, threads=t).values == want
            monkeypatch.undo()

    def test_k_edge_cases(self, bar42, graph42):
        assert walk_moments(bar42, 0, "group-dp", graph=graph42).values == (1,)
        assert walk_moments(bar42, 1, "ball-mitm").values == (1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            walk_moments(bar42, -1, "ball-mitm")

    def test_unknown_strategy_and_colors(self, bar42, graph42):
        with pytest.raises(ValueError, match="strategy"):
            walk_moments(bar42, 2, "magic")
        with pytest.raises(ValueError, match="color"):
            walk_moments(bar42, 2, "group-dp", colors={9}, graph=graph42)

    def test_counter_overflow_guards(self, bar53, graph53):
        with pytest.raises(ValueError, match="overflows"):
            walk_moments(bar53, 11, "group-dp", graph=graph53)
        with pytest.raises(ValueError, match="overflows"):
            walk_moments(bar53, 22, "ball-mitm")

    def test_huge_kmax_refused_without_forming_the_power(self, bar53, graph53):
        """At K = 10^9 the guard decides from the exponent alone, where
        62^K would take far longer than the refusal may."""
        for strategy, graph in (("group-dp", graph53), ("ball-mitm", None)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="overflows"):
                walk_moments(bar53, 10**9, strategy, graph=graph)
            assert time.perf_counter() - start < 1.0, strategy

    def test_ball_mitm_refuses_a_graph(self, bar42, graph42):
        """ball-mitm never reads a graph, so one passed to it is refused
        rather than left unchecked against the generators."""
        with pytest.raises(ValueError, match="only by group-dp"):
            walk_moments(bar42, 4, "ball-mitm", graph=graph42)

    def test_memory_budget_guard(self, bar53):
        with pytest.raises(MemoryBudgetError, match="budget"):
            walk_moments(bar53, 8, "ball-mitm", memory_budget=1000)

    def test_group_dp_closure_within_memory_budget(self, monkeypatch, bar42, graph42):
        """Without a graph, group-dp builds the closure only as far as the
        budget holds its rows: a budget short of |PSL_2(F_4)| = 60 rows
        is refused up front, one the closure outgrows when it does."""
        want = walk_moments(bar42, 6, "group-dp", graph=graph42).values
        assert walk_moments(bar42, 6, "group-dp").values == want
        table = graph42.nbr.nbytes
        with pytest.raises(MemoryBudgetError, match=f"budget {table - 1} holds"):
            walk_moments(bar42, 6, "group-dp", memory_budget=table - 1)
        fixed = 4 * cayley._vertex_table_size(graph42.space())
        row = spectra._group_dp_row_bytes(len(bar42), len(bar42))
        monkeypatch.setattr(spectra, "group_order_psl", lambda d, q: 1)
        held = walk_moments(bar42, 6, "group-dp", memory_budget=fixed + 60 * row)
        assert held.values == want
        with pytest.raises(MemoryBudgetError, match="59 vertex rows"):
            walk_moments(bar42, 6, "group-dp", memory_budget=fixed + 59 * row)

    def test_graph_from_other_system_rejected(self, bar53, graph42):
        with pytest.raises(ValueError, match="not built from"):
            walk_moments(bar53, 2, "group-dp", graph=graph42)

    def test_result_carries_provenance(self, bar42, graph42):
        m = walk_moments(bar42, 2, "group-dp", colors={1}, graph=graph42)
        assert m.genset_hash == bar42.content_hash()
        assert m.colors == (1,)


# ---------------------------------------------------------------------------
# Dense spectra
# ---------------------------------------------------------------------------


class TestDenseSpectrum:
    def test_regular_graph_identities(self, graph42):
        sp = dense_spectrum(graph42)
        assert sp.method == "dense-symmetric"
        assert len(sp.values) == graph42.n
        assert abs(sp.values[0] - graph42.r) <= 1e-8 * graph42.r
        top_value, top_mult = sp.multiplicities()[0]
        assert abs(top_value - graph42.r) <= 1e-8 * graph42.r
        assert top_mult == 1
        assert abs(sum(sp.values)) <= 1e-8 * graph42.n
        assert abs(sum(v**2 for v in sp.values) - graph42.n * graph42.r) <= 1e-6

    def test_moment_spectrum_consistency(self, bar42, graph42):
        sp = dense_spectrum(graph42)
        m = walk_moments(bar42, 6, "group-dp", graph=graph42)
        for k in range(7):
            ps = sum(v**k for v in sp.values)
            want = graph42.n * m[k]
            assert abs(ps - want) <= 1e-6 * max(1.0, abs(want))

    def test_component_count_as_top_multiplicity(self):
        """The shifts +-16 of Z_64 alone split it into 16 cycles of
        length 4: the table of their two columns, taken from the
        closure of Z_64, is a disconnected 2-regular graph."""
        G = _cyclic_shift_graph(64, [1, 63, 16, 48])
        nbr = np.ascontiguousarray(G.nbr[:, 2:])
        ms = G.space()
        assert cayley._verify_symmetry(ms, nbr, ms.unpack(G.keys[nbr[0]]))
        assert not cayley._is_connected(nbr)
        sub = CayleyGraph(G.F, G.d, G.keys, nbr, [0, 0], True, False)
        sp = dense_spectrum(sub)
        top_value, top_mult = sp.multiplicities()[0]
        assert abs(top_value - 2.0) <= 2e-8
        assert top_mult == 16

    def test_matches_closed_form_circulant_spectrum(self):
        shifts = [1, 63, 5, 59, 11, 53]
        G = _cyclic_shift_graph(64, shifts)
        assert G.n == 64 and G.r == 6
        got = np.array(dense_spectrum(G).values)
        want = _circulant_eigenvalues(64, shifts)
        assert np.max(np.abs(got - want)) <= 1e-8 * G.r

    def test_cap_enforced(self, graph42):
        with pytest.raises(ValueError, match="dense cap"):
            dense_spectrum(graph42, cap=10)

    def test_directed_operator_rejected(self):
        G = _cyclic_shift_graph(16, [1])
        assert G.n == 16 and not G.symmetric
        with pytest.raises(ValueError, match="walk moments"):
            dense_spectrum(G)

    def test_report_text(self, graph42, tmp_path):
        sp = dense_spectrum(graph42)
        text = sp.to_text()
        lines = text.splitlines()
        assert lines[0].startswith(f"version=1 n={sp.n} r={sp.r} method={sp.method} ")
        assert sum(int(ln.split()[1]) for ln in lines[1:]) == graph42.n
        path = str(tmp_path / "spectrum.txt")
        sp.save(path)
        assert open(path).read() == text


# ---------------------------------------------------------------------------
# Automorphism certificate
# ---------------------------------------------------------------------------


def _identity_neighbours(G):
    """The graph's space and its generators, the neighbours of vertex 0."""
    ms = G.space()
    return ms, ms.unpack(G.keys[G.nbr[0]])


def _assert_witness(ms, S1, S2, found):
    """canon(X e(S1) X^-1) has the keys of S2, formed here from the
    definition of the witness."""
    X, transpose, power = found
    E = ms.inverse(S1).transpose(0, 2, 1) if transpose else S1
    F = ms.F
    frob = np.array([F.pow_(x, F.p**power) for x in range(ms.q)], dtype=ms.dtype)
    P = ms.mul(ms.mul(X[None], frob[E]), ms.inverse(X[None]))
    assert np.array_equal(np.sort(ms.pack(ms.canon(P))), np.sort(ms.pack(ms.canon(S2))))


class TestWLAndIsomorphism:
    def test_self_isomorphism(self, graph42):
        ms, S = _identity_neighbours(graph42)
        found = cayley_isomorphism(ms, S, S)
        assert found is not None
        _assert_witness(ms, S, S, found)

    def test_paper_pair_has_no_automorphism(self, bar35, bar35_s2):
        """Twist 2 is neither 1 nor -1 mod 5: no automorphism of
        PSL_5(F_3) maps one generator set onto the other."""
        ms = MatSpace(bar35.params.base, 5)
        assert cayley_isomorphism(ms, bar35.mats, bar35_s2.mats) is None

    def test_opposite_twists_related_by_transpose_inverse(self, bar35):
        bar_s4 = symmetrize(build_omega(make_params(3, 5, s=4)))
        ms = MatSpace(bar35.params.base, 5)
        found = cayley_isomorphism(ms, bar35.mats, bar_s4.mats)
        assert found is not None and found[1:] == (True, 0)
        _assert_witness(ms, bar35.mats, bar_s4.mats, found)

    def test_field_automorphism(self, bar42):
        """The entrywise Frobenius image of a system over F_4 is reached
        only through the field power."""
        ms = MatSpace(bar42.params.base, 2)
        F = ms.F
        frob = np.array([F.pow_(x, 2) for x in range(4)], dtype=ms.dtype)
        S2 = ms.canon(frob[bar42.mats])
        found = cayley_isomorphism(ms, bar42.mats, S2)
        assert found is not None and found[2] == 1
        _assert_witness(ms, bar42.mats, S2, found)

    def test_refusals(self, graph42, monkeypatch):
        """Unpackable keys, graphs over another field, and a system past
        the projective-solution bound raise ValueError."""
        G = _cyclic_shift_graph(16, [1, 15])
        with pytest.raises(ValueError, match="int64 keys"):
            cayley_isomorphism(*_identity_neighbours(G), _identity_neighbours(G)[1])
        H = CayleyGraph(get_field(3), G.d, G.keys, G.nbr, G.gen_colors, True, True)
        with pytest.raises(ValueError, match="one field and dimension"):
            compare(G, H, "iso")
        monkeypatch.setattr(spectra, "_ISO_POINTS", 0)
        ms, S = _identity_neighbours(graph42)
        with pytest.raises(ValueError, match="projective solutions"):
            cayley_isomorphism(ms, S, S)


# ---------------------------------------------------------------------------
# Comparison verdicts
# ---------------------------------------------------------------------------


class TestCompare:
    def test_moments_equal_and_differ(self):
        a = MomentSeq([1, 0, 5, 0], "x")
        b = MomentSeq([1, 0, 5, 2], "y")
        assert compare(a, a, "moments").verdict == "equal"
        rep = compare(a, b, "moments")
        assert rep.verdict == "differ"
        assert rep.details["first_difference"] == 3
        with pytest.raises(ValueError, match="same K"):
            compare(a, MomentSeq([1, 0], "z"), "moments")
        with pytest.raises(ValueError, match="MomentSeq"):
            compare(a, 7, "moments")

    def test_moment_equality_labeled_partial(self):
        a = MomentSeq([1, 0, 5], "x")
        rep = compare(a, a, "moments")
        assert rep.details["evidence"] == "partial-up-to-K=2"

    def test_mismatched_orders_trivially_distinct(self, graph42):
        small = _cyclic_shift_graph(16, [1, 15])
        rep = compare(graph42, small, "iso")
        assert rep.verdict == "trivially-non-isospectral"
        assert rep.details["n_a"] == graph42.n

    def test_spectrum_verdict_from_data(self):
        """Spectra of equal-degree shift graphs are compared from the
        computed data; the closed-form circulant spectrum decides the
        expected verdict independently."""
        s1 = [1, 63, 5, 59, 11, 53]
        s2 = [1, 63, 7, 57, 13, 51]
        a = _cyclic_shift_graph(64, s1)
        b = _cyclic_shift_graph(64, s2)
        rep = compare(a, b, "spectrum")
        gap = np.max(
            np.abs(_circulant_eigenvalues(64, s1) - _circulant_eigenvalues(64, s2))
        )
        want = "isospectral" if gap <= 1e-8 * 6 else "not-isospectral"
        assert rep.verdict == want
        assert compare(a, a, "spectrum").verdict == "isospectral"

    def test_iso_mode_returns_witness_head(self, graph53, graph53_s2):
        """Twist 2 is -1 mod 3, so the (5,3) twist graphs are isomorphic
        through transpose-inverse; the report carries the witness."""
        rep = compare(graph53, graph53_s2, "iso")
        assert rep.verdict == "isomorphic"
        assert rep.details["transpose"] == 1 and rep.details["field_power"] == 0
        X = np.array([row.split(",") for row in rep.details["witness"].split(";")],
                     dtype=np.uint8)
        ms, S1 = _identity_neighbours(graph53)
        _assert_witness(ms, S1, _identity_neighbours(graph53_s2)[1], (X, True, 0))

    def test_unknown_mode_and_bad_inputs(self, graph42):
        with pytest.raises(ValueError, match="unknown mode"):
            compare(graph42, graph42, "vibes")
        with pytest.raises(ValueError, match="CayleyGraph"):
            compare(MomentSeq([1], "x"), graph42, "spectrum")

    def test_report_serialization(self, tmp_path):
        rep = ComparisonReport("moments", "equal", {"K": 6})
        text = rep.to_text()
        assert "verdict=equal" in text and "K=6" in text
        path = str(tmp_path / "cmp.txt")
        rep.save(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == text

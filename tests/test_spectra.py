"""Tests for moment fingerprints, dense spectra, and comparisons.

Oracles: exhaustive pair/triple enumeration for small moment values,
the circulant eigenvalue formula for dense spectra, and cross-checks
between two independent moment strategies.
"""

import tracemalloc

import numpy as np
import pytest

from cayplex.cayley import closure_from_matrices, colored_subgraph
from cayplex.ffield import get_field
from cayplex.genforge import (
    MemoryBudgetError,
    build_omega,
    family,
    make_params,
    symmetrize,
)
from cayplex.projmat import MatSpace
from cayplex.spectra import (
    ComparisonReport,
    MomentSeq,
    SpectrumReport,
    _ball_levels,
    _ball_memory_estimate,
    _reverse_columns,
    _selected,
    compare,
    dense_spectrum,
    isomorphism_search,
    walk_moments,
)


def _consolidated_levels(ms, gen_mats, radius):
    """Reference ball levels: the products of each level's distinct keys
    with every generator, sorted by argsort and merged by reduceat."""
    r = gen_mats.shape[0]
    levels = [(ms.pack(ms.identity_batch(1)), np.ones(1, dtype=np.int64))]
    for _ in range(radius):
        prev_keys, prev_counts = levels[-1]
        keys = ms.pack(ms.right_products(ms.unpack(prev_keys), gen_mats))
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = prev_counts[order // r]
        levels.append((keys[starts], np.add.reduceat(counts, starts)))
    return levels


def _rotation_rows(n, k):
    """The n-by-n permutation matrix of the cycle shift by k."""
    return tuple(
        tuple(1 if j == (i + k) % n else 0 for j in range(n)) for i in range(n)
    )


def _cyclic_shift_graph(n, shifts, colors=None):
    """Cayley graph of the cyclic group of order n on the given shift
    amounts, realized as permutation matrices over the two-element
    field."""
    F2 = get_field(2)
    mats = [_rotation_rows(n, k) for k in shifts]
    return closure_from_matrices(F2, n, mats, colors=colors, max_vertices=4 * n)


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
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ValueError, match="order"):
            MomentSeq.from_text("\n".join(lines))

    def test_text_rejects_truncation(self):
        lines = MomentSeq([1, 0, 5], "h").to_text().splitlines()
        with pytest.raises(ValueError, match="disagrees"):
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
        gen = ms.canon(ms.asbatch(bar42.finite_rows()))
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
        gen = ms.canon(ms.asbatch(bar35.finite_rows()))
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
        for gens, G, colors in cases:
            rev = _reverse_columns(G.nbr, _selected(gens, colors))
            v = np.zeros(G.n, dtype=np.int64)
            v[0] = 1
            want = [1]
            for _ in range(7):
                v = v[rev].sum(axis=1)
                want.append(int(v[0]))
            for K in range(8):
                got = walk_moments(gens, K, "group-dp", colors=colors, graph=G)
                assert list(got.values) == want[: K + 1]

    def test_ball_levels_match_consolidated_reference(self, bar42, hat53):
        """Oracle: every level as the distinct products of the previous
        level's distinct keys, merged by argsort and reduceat."""
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        cases = [(bar42, None), (bar33, None), (hat53, {1})]
        for gens, colors in cases:
            ms = MatSpace(gens.params.base, gens.params.d)
            sel = _selected(gens, colors)
            gen_mats = ms.canon(ms.asbatch([gens[i].finite.rows for i in sel]))
            want = _consolidated_levels(ms, gen_mats, 3)
            for threads in (1, 2):
                got = _ball_levels(ms, gen_mats, 3, threads=threads)
                assert len(got) == len(want) == 4
                for (gk, gc), (wk, wc) in zip(got, want):
                    assert gk.dtype == wk.dtype and gc.dtype == np.int64
                    assert np.array_equal(gk, wk) and np.array_equal(gc, wc)
            # saturation: bar33 generates PGL_3(F_3) of order 5616
            if gens is bar33:
                assert len(want[3][0]) < len(gens) ** 3

    def test_ball_memory_estimate_bounds_traced_peak(self, bar53):
        bar33 = symmetrize(build_omega(make_params(3, 3)))
        for gens, radii in ((bar33, (2, 3, 4)), (bar53, (3,))):
            d = gens.params.d
            ms = MatSpace(gens.params.base, d)
            gen_mats = ms.canon(ms.asbatch(gens.finite_rows()))
            for radius in radii:
                tracemalloc.start()
                try:
                    levels = _ball_levels(ms, gen_mats, radius, threads=1)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert int(levels[-1][1].sum()) == len(gens) ** radius
                assert peak <= _ball_memory_estimate(len(gens), radius, d)

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

    def test_memory_budget_guard(self, bar53):
        with pytest.raises(MemoryBudgetError, match="budget"):
            walk_moments(bar53, 8, "ball-mitm", memory_budget=1000)

    def test_graph_from_other_system_rejected(self, bar53, graph42):
        with pytest.raises(ValueError, match="not built from"):
            walk_moments(bar53, 2, "group-dp", graph=graph42)

    def test_result_carries_provenance(self, bar42, graph42):
        m = walk_moments(bar42, 2, "group-dp", colors={1}, graph=graph42)
        assert m.genset_hash == bar42.content_hash()
        assert m.colors == (1,)
        assert m.strategy == "group-dp"


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
        assert abs(sp.power_sum(1)) <= 1e-8 * graph42.n
        assert abs(sp.power_sum(2) - graph42.n * graph42.r) <= 1e-6

    def test_moment_spectrum_consistency(self, bar42, graph42):
        sp = dense_spectrum(graph42)
        m = walk_moments(bar42, 6, "group-dp", graph=graph42)
        for k in range(7):
            ps = sp.power_sum(k)
            want = graph42.n * m[k]
            assert abs(ps - want) <= 1e-6 * max(1.0, abs(want))

    def test_component_count_as_top_multiplicity(self):
        G = _cyclic_shift_graph(64, [1, 63, 16, 48], colors=[0, 0, 1, 1])
        sub = colored_subgraph(G, {1})
        assert sub.symmetric and not sub.connected
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

    def test_colored_restriction(self, graph42):
        sp = dense_spectrum(graph42, colors={1})
        assert sp.n == graph42.n

    def test_cap_enforced(self, graph42):
        with pytest.raises(ValueError, match="dense cap"):
            dense_spectrum(graph42, cap=10)

    def test_directed_operator_rejected(self, graph53_hat):
        sub = colored_subgraph(graph53_hat, {1})
        assert not sub.symmetric
        with pytest.raises(ValueError, match="walk moments"):
            dense_spectrum(sub, cap=500_000)

    def test_report_round_trip(self, graph42, tmp_path):
        sp = dense_spectrum(graph42)
        back = SpectrumReport.from_text(sp.to_text())
        assert back.n == sp.n and back.r == sp.r and back.method == sp.method
        assert len(back.values) == len(sp.values)
        assert max(
            abs(x - y) for x, y in zip(back.values, sp.values)
        ) <= 1e-6
        path = str(tmp_path / "spectrum.txt")
        sp.save(path)
        assert len(SpectrumReport.load(path).values) == graph42.n

    def test_report_rejects_bad_header(self):
        with pytest.raises(ValueError, match="version"):
            SpectrumReport.from_text("version=9 n=1 r=0\n0 1\n")
        with pytest.raises(ValueError, match="lacks field"):
            SpectrumReport.from_text("version=1 n=1 r=0\n0 1\n")


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


class TestWLAndIsomorphism:
    def test_isomorphism_found_for_multiplier_pair(self):
        """Shift sets related by multiplication by a unit give
        isomorphic graphs; the search must find and verify a witness."""
        a = _cyclic_shift_graph(16, [1, 15, 3, 13])
        b = _cyclic_shift_graph(16, [3, 13, 9, 7])
        verdict, witness = isomorphism_search(a, b, timeout=60)
        assert verdict == "isomorphic"
        assert witness is not None and witness[0] == 0
        assert sorted(witness) == list(range(16))

    def test_non_isomorphic_pair_refuted(self):
        a = _cyclic_shift_graph(16, [1, 15, 2, 14])
        b = _cyclic_shift_graph(16, [1, 15, 3, 13])
        verdict, witness = isomorphism_search(a, b, timeout=60)
        assert verdict == "non-isomorphic" and witness is None

    def test_self_isomorphism(self, graph42):
        verdict, witness = isomorphism_search(graph42, graph42, timeout=60)
        assert verdict == "isomorphic"
        assert witness[0] == 0

    def test_timeout_verdict(self):
        a = _cyclic_shift_graph(64, [1, 63, 5, 59, 11, 53])
        b = _cyclic_shift_graph(64, [1, 63, 7, 57, 13, 51])
        verdict, witness = isomorphism_search(a, b, timeout=0.0)
        assert verdict == "timeout" and witness is None


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

    def test_iso_mode_returns_witness_head(self, graph42):
        rep = compare(graph42, graph42, "iso", timeout=60)
        assert rep.verdict == "isomorphic"
        assert rep.details["witness_head"].startswith("0,")

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

"""Tests for generator systems: construction, colors, inverse closure,
the product system with its meet-in-the-middle search, subspace
attachment, group index, and the q-power family."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from cayplex import genforge
from cayplex.ffield import NP_TABLES_MAX, gaussian_binomial, get_field
from cayplex.genforge import (
    GenSet,
    Generator,
    KIND_OMEGA,
    KIND_OMEGABAR,
    KIND_OMEGAHAT,
    MemoryBudgetError,
    attach_subspace,
    build_omega,
    build_omega_hat,
    central_numerators,
    default_mem_budget,
    expected_index,
    family,
    family_order_m,
    group_order_pgl,
    group_order_psl,
    hat_class_sizes,
    make_params,
    predicted_group_order,
    symmetrize,
    word_kernel,
)
from cayplex.projmat import ProjMat, canon_rows, mat_inv, mat_mul, mat_rref

# Reference values for the q=3, d=5 construction with modulus t^5 - t - 1,
# basis {1, t, ..., t^4}, alpha = 1: the specialized images of 1 - z^{-1}
# for twist exponents s = 1 and s = 2.
B1_REF = (
    (2, 1, 2, 0, 1),
    (0, 2, 2, 1, 2),
    (0, 2, 0, 0, 1),
    (0, 2, 1, 1, 2),
    (0, 1, 2, 0, 0),
)
B2_REF = (
    (2, 1, 1, 1, 1),
    (0, 1, 2, 1, 1),
    (0, 1, 2, 2, 2),
    (0, 0, 1, 0, 0),
    (0, 1, 1, 1, 0),
)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def test_params_defaults():
    p = make_params(3, 5)
    assert (p.q, p.d, p.s) == (3, 5, 1)
    assert p.alpha == 1  # -2 mod 3
    assert p.gamma == 1
    assert p.n == 121
    assert p.u == 3  # smallest code generating E^x / F_q^x is t itself
    p53 = make_params(5, 3)
    assert p53.alpha == 3  # -2 mod 5
    assert p53.gamma == 3
    assert p53.n == 31


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(2, 5)
    with pytest.raises(ValueError):
        make_params(6, 3)
    with pytest.raises(ValueError):
        make_params(3, 1)
    with pytest.raises(ValueError):
        make_params(9, 6, s=3)  # gcd(s, d) != 1
    # s is reduced mod d
    assert make_params(5, 3, s=4).s == 1


def test_params_warnings():
    # q and d not co-prime/odd, and q below the size heuristic, both warn
    assert len(make_params(4, 2).warnings) == 2
    # (3,5) is odd co-prime but small
    w35 = make_params(3, 5).warnings
    assert len(w35) == 1 and "4d^2" in w35[0]


def test_alpha_even_characteristic():
    # char 2: -2 = 0 is inadmissible, the scan must find another alpha
    p = make_params(4, 2)
    assert p.alpha not in (0, p.base.neg(1))
    assert p.gamma not in (0, p.base.neg(1))


# ---------------------------------------------------------------------------
# Base system
# ---------------------------------------------------------------------------


def test_build_omega_printed_reference(omega35):
    F = omega35.params.base
    assert omega35[0].finite.rows == canon_rows(F, B1_REF)
    om2 = build_omega(make_params(3, 5, s=2))
    assert om2[0].finite.rows == canon_rows(F, B2_REF)


def test_build_omega_structure(omega35, omega53):
    assert len(omega35) == 121 and omega35.kind == KIND_OMEGA
    assert len(omega53) == 31
    assert [g.j for g in omega35] == list(range(121))
    assert all(g.color == 1 for g in omega35)
    keys = {g.finite.packed() for g in omega35}
    assert len(keys) == 121
    assert not any(g.finite.is_identity() for g in omega35)


def test_omega_conjugation_consistency(omega35):
    # element j is theta^j (element 0) theta^{-j} projectively
    from cayplex.ffield import regular_rep

    params = omega35.params
    F = params.base
    theta = regular_rep(params.E, params.u)
    theta_inv = mat_inv(F, theta)
    cur = omega35[0].finite.rows
    for j in range(1, 5):
        cur = mat_mul(F, theta, mat_mul(F, cur, theta_inv))
        assert omega35[j].finite == ProjMat(F, cur)


# ---------------------------------------------------------------------------
# Inverse closure
# ---------------------------------------------------------------------------


def test_symmetrize_sizes_and_partners(bar35, bar53):
    assert len(bar35) == 242 and bar35.kind == KIND_OMEGABAR
    assert bar35.meta["coincidences"] == []
    assert len(bar53) == 62
    for i, g in enumerate(bar35):
        k = g.inv
        assert bar35[k].finite == g.finite.inverse()
        assert bar35[k].inv == i
    assert all(g.color == 1 for g in bar35.gens[:121])
    assert all(g.color == 4 for g in bar35.gens[121:])


def test_symmetrize_idempotent(bar53):
    again = symmetrize(bar53)
    assert again.to_text() == bar53.to_text()


def test_symmetrize_coincidences_d2(omega42):
    # for d = 2 the square of every base element is central, so each
    # element is projectively its own inverse and the closure adds nothing
    bar = symmetrize(omega42)
    assert len(bar) == len(omega42) == 5
    assert bar.meta["coincidences"] == [(i, i) for i in range(5)]
    assert all(g.inv == i for i, g in enumerate(bar))


def test_symmetrize_rejects_product_system(hat53):
    with pytest.raises(ValueError):
        symmetrize(hat53)


# ---------------------------------------------------------------------------
# Product system
# ---------------------------------------------------------------------------


def test_omega_hat_small(hat53):
    assert hat53.kind == KIND_OMEGAHAT
    assert len(hat53) == 62
    sizes = [sum(1 for g in hat53 if g.color == c) for c in (1, 2)]
    assert sizes == hat_class_sizes(3, 5) == [31, 31]
    assert hat53.meta["collisions"] == 0
    assert hat53.meta["identity_words"] == 186


def test_omega_hat_words_brute_force(p53, omega53, hat53):
    # oracle: enumerate all 31^3 words and verify the product globally
    alg = p53.alg()
    E, n = p53.E, p53.n
    base = [alg.omega(E.pow_(p53.u, j)) for j in range(n)]
    words = 0
    prefix1 = set()
    prefix2 = set()
    F = p53.base
    for i in range(n):
        for j in range(n):
            w2 = base[i] * base[j]
            for k in range(n):
                if (w2 * base[k]).is_central_scalar():
                    words += 1
                    prefix1.add(omega53[i].finite.packed())
                    m2 = mat_mul(F, omega53[i].finite.rows, omega53[j].finite.rows)
                    prefix2.add(ProjMat(F, m2).packed())
    assert words == hat53.meta["identity_words"]
    got1 = {g.finite.packed() for g in hat53 if g.color == 1}
    got2 = {g.finite.packed() for g in hat53 if g.color == 2}
    assert prefix1 == got1
    assert prefix2 == got2


def test_omega_hat_flag_count_oracle(p53, hat53):
    # identity words correspond to maximal chains of proper subspaces;
    # count the chains V1 < V2 in F_5^3 by exhaustive containment checks
    F = p53.base
    dims = {}
    for r in (1, 2):
        dims[r] = [s for s in _all_proper_subspaces(F, 3) if len(s) == r]
    chains = 0
    for small in dims[1]:
        for big in dims[2]:
            stacked = tuple(big) + tuple(small)
            _, pivots = mat_rref(F, stacked)
            if len(pivots) == 2:
                chains += 1
    assert chains == hat53.meta["identity_words"] == 186


def test_omega_hat_equals_closure_for_d3(bar53, hat53):
    assert {g.finite.packed() for g in hat53} == {
        g.finite.packed() for g in bar53
    }


def test_omega_hat_witnesses_lex_min(p53, omega53, hat53):
    # color-1 witnesses are the conjugation indices themselves
    by_key = {g.finite.packed(): j for j, g in enumerate(omega53)}
    for g in hat53:
        if g.color == 1:
            assert g.word == (by_key[g.finite.packed()],)
    # color-2 witnesses: lexicographically least pair among all products
    F = p53.base
    best = {}
    n = p53.n
    for i in range(n):
        for j in range(n):
            rows = mat_mul(F, omega53[i].finite.rows, omega53[j].finite.rows)
            key = ProjMat(F, rows).packed()
            if key not in best:
                best[key] = (i, j)
    for g in hat53:
        if g.color == 2:
            assert g.word == best[g.finite.packed()]


def test_omega_hat_inverse_closure(hat53):
    d = hat53.params.d
    for i, g in enumerate(hat53):
        k = g.inv
        assert hat53[k].finite == g.finite.inverse()
        assert hat53[k].color == d - g.color


def test_omega_hat_thread_determinism(monkeypatch, omega53, hat53):
    # blocks of 50 words give the 186 candidates four verifier calls
    monkeypatch.setattr(genforge, "_VERIFY_BLOCK", 50)
    rebuilt = build_omega_hat(omega53, threads=3)
    assert rebuilt.to_text() == hat53.to_text()
    assert rebuilt.meta == hat53.meta


def test_omega_hat_requires_base_kind(bar53):
    with pytest.raises(ValueError):
        build_omega_hat(bar53)


def test_omega_hat_memory_budget(omega53):
    with pytest.raises(MemoryBudgetError):
        build_omega_hat(omega53, memory_budget=1000)


def test_mem_budget_env(monkeypatch):
    monkeypatch.setenv("CAYPLEX_MEM_BUDGET", "12345")
    assert default_mem_budget() == 12345
    monkeypatch.setenv("CAYPLEX_MEM_BUDGET", "junk")
    with pytest.raises(ValueError):
        default_mem_budget()
    monkeypatch.delenv("CAYPLEX_MEM_BUDGET")
    assert default_mem_budget() == 4 << 30


def test_omega_hat_rejects_injected_candidates(monkeypatch, omega53, hat53):
    # no real case has a collision, so inject random non-identity words
    # into the join and check that the verifier rejects exactly those
    params = omega53.params
    n = params.n
    rng = np.random.default_rng(11)
    extra_w = rng.integers(0, n * n, 40)
    extra_v = rng.integers(0, n, 40)
    words = np.stack((extra_w // n, extra_w % n, extra_v), axis=1)
    assert not any(_lift_product(params, w).is_central_scalar() for w in words)
    real = genforge._candidate_pairs

    def injected(order, lo, hi):
        W, V = real(order, lo, hi)
        W, V = np.concatenate((W, extra_w)), np.concatenate((V, extra_v))
        keep = np.lexsort((V, W))
        return W[keep], V[keep]

    monkeypatch.setattr(genforge, "_candidate_pairs", injected)
    hat = build_omega_hat(omega53)
    # identity_words = candidates - collisions
    assert hat.meta == {"candidates": 226, "identity_words": 186, "collisions": 40}
    assert hat.to_text() == hat53.to_text()


def test_omega_hat_memory_estimate_bounds_peak():
    params = make_params(4, 4)
    base = build_omega(params)
    tracemalloc.start()
    try:
        hat = build_omega_hat(base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    est = genforge._hat_memory_estimate(params, hat.meta["candidates"])
    assert peak <= est <= 4 * peak


def test_omega_hat_refuses_untabled_extension():
    # |E| = 257^2 > 2^16: E keeps no exp/log tables for the verifier
    with pytest.raises(ValueError, match="exact word verifier"):
        word_kernel(make_params(257, 2))


def test_omega_hat_big(hat35):
    assert len(hat35) == 2662
    sizes = [sum(1 for g in hat35 if g.color == c) for c in (1, 2, 3, 4)]
    assert sizes == hat_class_sizes(5, 3) == [121, 1210, 1210, 121]
    assert hat35.meta["collisions"] == 0
    # identity words = product of (q^k - 1)/(q - 1) for k = 1..5
    expect = 1
    for k in range(1, 6):
        expect *= (3**k - 1) // 2
    assert hat35.meta["identity_words"] == expect == 251680
    assert not any(g.finite.is_identity() for g in hat35)


def test_omega_hat_big_color1_is_omega(omega35, hat35):
    assert {g.finite.packed() for g in hat35 if g.color == 1} == {
        g.finite.packed() for g in omega35
    }


# ---------------------------------------------------------------------------
# Exact word verifier
# ---------------------------------------------------------------------------


def _lift_product(params, word):
    """Oracle: the product of the letters' CycElem lifts."""
    alg, E = params.alg(), params.E
    out = None
    for j in word:
        factor = alg.omega(E.pow_(params.u, int(j)))
        out = factor if out is None else out * factor
    return out


def _assert_kernel_matches(params, words):
    """The kernel's numerators and central flags equal the CycElem
    products coefficient by coefficient; returns the flags."""
    words = np.asarray(words)
    num = word_kernel(params)(words)
    flags = central_numerators(num, params.q)
    L = words.shape[1]
    assert num.shape == (len(words), params.d, L + 1)
    for word, coords, flag in zip(words, num.tolist(), flags):
        prod = _lift_product(params, word)
        assert prod.den == (0, L)
        for k, (p, row) in enumerate(zip(prod.coords, coords)):
            assert row == list(p.coeffs) + [0] * (L + 1 - len(p.coeffs)), (word, k)
        assert bool(flag) == prod.is_central_scalar()
    return flags


def _identity_words(hat):
    """Length-d words of the product system with a scalar finite product:
    a witness followed by its inverse partner's witness."""
    return [g.word + hat[g.inv].word for g in hat]


@pytest.mark.parametrize("fixture", ["hat53", "hat44"])
def test_word_kernel_matches_cycelem(request, fixture):
    hat = request.getfixturevalue(fixture)
    params = hat.params
    rng = np.random.default_rng(5)
    for L in range(1, params.d + 2):
        _assert_kernel_matches(params, rng.integers(0, params.n, (60, L)))
    # with no collisions in the build, every word whose finite product is
    # scalar is an identity word
    assert hat.meta["collisions"] == 0
    flags = _assert_kernel_matches(params, _identity_words(hat)[::7])
    assert flags.all()


def test_central_numerators_reads_the_scalar_test():
    # (B, d, L+1) = (5, 3, 2) numerators over F_125 / F_5
    num = np.zeros((5, 3, 2), dtype=np.int32)
    num[1, 0] = [3, 4]  # base-field head: central
    num[2, 0] = [3, 5]  # code 5 is tau, outside F_5
    num[3, 0], num[3, 2, 1] = [3, 4], 1  # a z^2 term
    num[4, 1, 0] = 2  # z only
    flags = central_numerators(num, 5)
    assert flags.tolist() == [False, True, False, False, False]


def test_omega_hat_bytes_pinned(hat44):
    # witnesses longer than the prefix half take their letters from the
    # join's (w, v) order, which must stay sorted
    assert hat44.content_hash() == (
        "bb036e843e147b492826a752000bd49632f98762f7ac8eb52584ac3ac7a83f74"
    )


def test_word_kernel_beyond_dense_tables():
    # |E| = 17^3 = 4913: exp/log products and digit-wise sums
    params = make_params(17, 3)
    assert params.E.order > NP_TABLES_MAX
    rng = np.random.default_rng(3)
    for L in (1, 2, 4):
        _assert_kernel_matches(params, rng.integers(0, params.n, (4, L)))


def test_word_kernel_single_letter(p53):
    # omega(u^j) = ((1+t) - c_j z^(d-1)) / (1+t)
    alg, E = p53.alg(), p53.E
    num = word_kernel(p53)(np.array([[0], [4]]))
    for row, j in zip(num, (0, 4)):
        c = alg.unit_ratio(E.pow_(p53.u, j))
        assert row.tolist() == [[1, 1], [0, 0], [E.neg(c), 0]]


# ---------------------------------------------------------------------------
# Colors
# ---------------------------------------------------------------------------


def test_load_color_rule_matches_norm_valuation(omega53, bar53, hat53):
    # the colors GenSet.load demands, without a reduced norm: 1 on the
    # base system, d-1 on its inverses, the word length on the product
    # system
    n, d = omega53.params.n, omega53.params.d
    rules = (
        (omega53, lambda i, g: 1),
        (bar53, lambda i, g: 1 if i < n else d - 1),
        (hat53, lambda i, g: len(g.word)),
    )
    for gs, rule in rules:
        for i, g in enumerate(gs):
            assert rule(i, g) == genforge._norm_valuation(g.lift) % d == g.color


# ---------------------------------------------------------------------------
# Subspace attachment
# ---------------------------------------------------------------------------


def _all_proper_subspaces(F, d):
    """Oracle: all proper nonzero subspaces of F_q^d as canonical
    reduced-echelon row bases, by direct enumeration of echelon forms."""
    q = F.q
    out = set()
    for r in range(1, d):
        for pivots in itertools.combinations(range(d), r):
            free = [
                (i, c)
                for i, piv in enumerate(pivots)
                for c in range(piv + 1, d)
                if c not in pivots
            ]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * d for _ in range(r)]
                for i, piv in enumerate(pivots):
                    rows[i][piv] = 1
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                out.add(tuple(tuple(row) for row in rows))
    return out


def test_subspace_oracle_counts():
    F3 = get_field(3)
    subs = _all_proper_subspaces(F3, 5)
    assert len(subs) == sum(gaussian_binomial(5, r, 3) for r in range(1, 5))


def test_attach_subspace_bijection_small(p53, hat53):
    oracle = _all_proper_subspaces(p53.base, 3)
    attached = [attach_subspace(g) for g in hat53]
    assert len(set(attached)) == len(attached) == 62
    assert set(attached) == oracle
    for g, sub in zip(hat53, attached):
        assert len(sub) == 3 - g.color


def test_attach_subspace_trace_kernel(omega35):
    # the conjugate with u^0 = 1 attaches the kernel of the trace form
    params = omega35.params
    E, F = params.E, params.base
    sub = attach_subspace(omega35[0])
    assert len(sub) == 4
    t_code = E.tau.code
    basis_traces = [E.trace(E.pow_(t_code, i)) for i in range(5)]
    for row in sub:
        total = 0
        for c, tr in zip(row, basis_traces):
            total = F.add(total, F.mul(c, tr))
        assert total == 0


def test_attach_subspace_rejects_identity(p53):
    alg = p53.alg()
    F = p53.base
    ident = ProjMat(F, tuple(tuple(int(i == j) for j in range(3)) for i in range(3)))
    g = Generator(ident, alg.one(), -1, 1)
    with pytest.raises(ValueError):
        attach_subspace(g)


# ---------------------------------------------------------------------------
# Group order and index
# ---------------------------------------------------------------------------


def test_bar_set_in_psl(bar35):
    assert expected_index(bar35.params) == 1


def test_expected_index_nontrivial():
    # q=7, d=3: gamma = 5, gamma/(1+gamma) = 2, and the cube classes of
    # F_7^x have order 3; brute-force the coset order independently
    p = make_params(7, 3)
    assert p.gamma == 5
    F = p.base
    x = F.mul(p.gamma, F.inv(F.add(p.gamma, 1)))
    cubes = {F.pow_(a, 3) for a in range(1, 7)}
    k, cur = 1, x
    while cur not in cubes:
        cur = F.mul(cur, x)
        k += 1
    assert expected_index(p) == k == 3


def test_group_orders():
    assert group_order_pgl(3, 5) == 372000
    assert group_order_psl(3, 5) == 372000
    # product formula evaluated independently: GL = prod(3^5 - 3^i)
    gl = 242 * 240 * 234 * 216 * 162
    assert group_order_psl(5, 3) == gl // 2 == 237783237120
    assert predicted_group_order(make_params(5, 3)) == 372000


# ---------------------------------------------------------------------------
# q-power family
# ---------------------------------------------------------------------------


def test_family_order_m():
    # oracle: smallest k with q^k = +-1 mod d
    def brute(q, d):
        k, cur = 1, q % d
        while cur not in (1, d - 1):
            cur = cur * q % d
            k += 1
        return k

    for q, d in [(3, 5), (3, 7), (5, 3), (2, 5), (4, 9), (7, 11)]:
        assert family_order_m(q, d) == brute(q, d)
    assert family_order_m(3, 5) == 2
    assert family_order_m(3, 7) == 3
    assert family_order_m(5, 3) == 1
    with pytest.raises(ValueError):
        family_order_m(3, 6)


def test_family_closure_sets(p35, bar35):
    sets = family(p35, bar35)
    assert len(sets) == 2
    assert [s.params.s for s in sets] == [1, 3]
    # the second member is the element-wise cube of the first
    for g, h in zip(bar35, sets[1]):
        assert g.finite**3 == h.finite
    # and coincides with the independently built twist-3 closure
    indep = symmetrize(build_omega(make_params(3, 5, s=3)))
    assert sets[1].to_text() == indep.to_text()


def test_family_twist_two_wraps_to_one(bar35, bar35_s2):
    # q = 3, s = 2: the partner twist is 2*3 mod 5 = 1, so the family of
    # the twist-2 closure contains the twist-1 closure itself
    sets = family(bar35_s2.params, bar35_s2)
    assert [s.params.s for s in sets] == [2, 1]
    assert sets[1].to_text() == bar35.to_text()


def test_family_degenerate(p53, bar53):
    sets = family(p53, bar53)
    assert len(sets) == 1 and sets[0] is bar53


def test_family_requires_symmetric(p53, omega53):
    with pytest.raises(ValueError):
        family(p53, omega53)


def test_family_product_system(p35, hat35):
    # powering reproduces the outer color classes of the rebuilt system
    # exactly; the middle classes land outside it (recorded, not hidden)
    sets = family(p35, hat35)
    assert len(sets) == 2
    assert len(sets[1]) == 2662
    report = sets[1].meta["power_bijection"]
    assert report[1]["surjective"] and report[4]["surjective"]
    assert report[2]["matched"] == 0 and report[3]["matched"] == 0
    rebuilt_keys = {g.finite.packed() for g in sets[1]}
    powered_mid = {
        (g.finite**3).packed() for g in hat35 if g.color in (2, 3)
    }
    assert not powered_mid & rebuilt_keys


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_genset_roundtrip(omega53, bar53, hat53):
    for gs in (omega53, bar53, hat53):
        text = gs.to_text()
        again = GenSet.from_text(text)
        assert again.to_text() == text
        assert again.content_hash() == gs.content_hash()
        assert again.kind == gs.kind


def test_genset_roundtrip_nonprime(omega42):
    bar = symmetrize(omega42)
    text = bar.to_text()
    again = GenSet.from_text(text)
    assert again.to_text() == text
    assert "bmod=" in text.splitlines()[0]


def test_genset_file_roundtrip(tmp_path, hat53):
    path = tmp_path / "hat.gens"
    hat53.save(str(path))
    assert GenSet.load(str(path)).to_text() == hat53.to_text()


def test_genset_rejects_tampered_matrix(omega53):
    lines = omega53.to_text().splitlines()
    # flip one matrix digit of the first generator
    head, first = lines[0], lines[1]
    key = "mat="
    pos = first.index(key) + len(key)
    digit = first[pos]
    flipped = "2" if digit != "2" else "0"
    bad = "\n".join([head, first[:pos] + flipped + first[pos + 1 :]] + lines[2:])
    with pytest.raises(ValueError):
        GenSet.from_text(bad)


def test_genset_rejects_bad_version(omega53):
    text = omega53.to_text().replace("version=1", "version=9", 1)
    with pytest.raises(ValueError):
        GenSet.from_text(text)


def test_genset_rejects_missing_word(hat53):
    lines = hat53.to_text().splitlines()
    lines[1] = lines[1].split(" word=")[0]
    with pytest.raises(ValueError):
        GenSet.from_text("\n".join(lines))


def test_genset_rejects_word_letter_out_of_range(hat53):
    n = hat53.params.n
    lines = hat53.to_text().splitlines()
    lines[1] = re.sub(r"word=\d+", f"word={n}", lines[1])
    with pytest.raises(ValueError, match="out of range"):
        GenSet.from_text("\n".join(lines))


def test_inverse_partner_check_messages(hat53):
    def tampered(i, **changes):
        gens = []
        for k, g in enumerate(hat53):
            kw = dict(inv=g.inv, color=g.color)
            if k == i:
                kw.update(changes)
            gens.append(Generator(g.finite, g.lift, g.j, kw["color"], kw["inv"], g.word))
        return GenSet(hat53.params, KIND_OMEGAHAT, gens)

    genforge._check_inverse_partners(tampered(-1))
    cases = [
        (dict(inv=len(hat53)), "generator 0 has no inverse partner"),
        (dict(inv=0), "inverse partner of generator 0 is wrong"),
        (dict(color=0), "inverse colors of generator 0 do not complement"),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            genforge._check_inverse_partners(tampered(0, **changes))


def test_genset_rejects_tampered_inverse(hat53):
    lines = hat53.to_text().splitlines()
    assert "inv=0" not in lines[1]  # generator 0 is not its own inverse
    lines[1] = re.sub(r"inv=\d+", "inv=0", lines[1], count=1)
    with pytest.raises(ValueError):
        GenSet.from_text("\n".join(lines))

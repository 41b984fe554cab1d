"""Tests for generator systems: construction, colors, inverse closure,
the product system with its meet-in-the-middle search, subspace
attachment, group index, and the q-power family."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from cayplex import genforge, projmat
from cayplex.cyclic import CycAlg
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
from cayplex.ffield import regular_rep
from cayplex.projmat import MatSpace

from test_projmat import canon_rows, mat_inv, mat_mul, tuples

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


def test_alpha_even_characteristic():
    # char 2: -2 = 0 is inadmissible, the scan must find another alpha
    p = make_params(4, 2)
    assert p.alpha not in (0, p.base.neg(1))
    assert p.gamma not in (0, p.base.neg(1))


# ---------------------------------------------------------------------------
# Base system
# ---------------------------------------------------------------------------


def space(gs):
    return MatSpace(gs.params.base, gs.params.d)


def keys_of(gs, colors=None):
    """The packed keys of a set's matrices, of the given colors only."""
    keys = space(gs).pack(gs.mats).tolist()
    return {k for g, k in zip(gs, keys) if colors is None or g.color in colors}


def test_build_omega_printed_reference(omega35):
    ms = space(omega35)
    assert np.array_equal(omega35.mats[:1], ms.canon(ms.asbatch(B1_REF)))
    om2 = build_omega(make_params(3, 5, s=2))
    assert np.array_equal(om2.mats[:1], ms.canon(ms.asbatch(B2_REF)))


def test_build_omega_structure(omega35, omega53):
    assert len(omega35) == 121 and omega35.kind == KIND_OMEGA
    assert len(omega53) == 31
    assert [g.j for g in omega35] == list(range(121))
    assert all(g.color == 1 for g in omega35)
    assert len(keys_of(omega35)) == 121
    eye = space(omega35).identity_batch(1)
    assert not (omega35.mats == eye).all(axis=(1, 2)).any()


def test_omega_conjugation_consistency(omega35):
    # element j is theta^j (element 0) theta^{-j} projectively
    params = omega35.params
    F = params.base
    theta = regular_rep(params.E, params.u)
    theta_inv = mat_inv(F, theta)
    mats = tuples(omega35.mats)
    cur = mats[0]
    for j in range(1, 5):
        cur = canon_rows(F, mat_mul(F, theta, mat_mul(F, cur, theta_inv)))
        assert cur == mats[j]


# ---------------------------------------------------------------------------
# Inverse closure
# ---------------------------------------------------------------------------


def test_symmetrize_sizes_and_partners(bar35, bar53):
    assert len(bar35) == 242 and bar35.kind == KIND_OMEGABAR
    assert bar35.meta["coincidences"] == []
    assert len(bar53) == 62
    F, mats = bar35.params.base, tuples(bar35.mats)
    for i, g in enumerate(bar35):
        assert mats[g.inv] == canon_rows(F, mat_inv(F, mats[i]))
        assert bar35[g.inv].inv == i
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


def test_system_budget_refused_before_building(monkeypatch, omega35, bar35):
    """``build_omega`` and ``symmetrize`` build under a budget equal to
    their estimate and refuse one byte less with MemoryBudgetError
    before any matrix is formed (``MatSpace`` is not reached); the
    closure counts the n generators it holds and the 2n it builds."""
    p35 = omega35.params
    est = genforge._system_memory_estimate(p35.d, p35.n)
    est_sym = genforge._system_memory_estimate(p35.d, 3 * p35.n)
    assert build_omega(p35, memory_budget=est).to_text() == omega35.to_text()
    assert symmetrize(omega35, memory_budget=est_sym).to_text() == bar35.to_text()
    # the estimate covers the matrix kernel's reduction of [A | I]
    assert est > p35.n * 6 * 8 * p35.d * 2 * p35.d
    monkeypatch.setattr(genforge, "MatSpace", None)
    with pytest.raises(MemoryBudgetError, match="121 generators"):
        build_omega(p35, memory_budget=est - 1)
    with pytest.raises(MemoryBudgetError, match="363 generators"):
        symmetrize(omega35, memory_budget=est_sym - 1)
    monkeypatch.setattr(genforge, "MEM_BUDGET", est - 1)
    with pytest.raises(MemoryBudgetError):
        build_omega(p35)


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
    key1, key2 = _prefix_keys(omega53)
    words = 0
    prefix1 = set()
    prefix2 = set()
    for i in range(n):
        for j in range(n):
            w2 = base[i] * base[j]
            for k in range(n):
                if (w2 * base[k]).is_central_scalar():
                    words += 1
                    prefix1.add(key1[i])
                    prefix2.add(key2[i][j])
    assert words == hat53.meta["identity_words"]
    assert prefix1 == keys_of(hat53, {1})
    assert prefix2 == keys_of(hat53, {2})


def _prefix_keys(omega):
    """Keys of the base elements, and of the products of every ordered
    pair of them as a nested list [i][j]."""
    ms, A = space(omega), omega.mats
    n = len(A)
    pairs = ms.canon(ms.mul(A[:, None], A[None]).reshape(n * n, *A.shape[1:]))
    flat = ms.pack(pairs).tolist()
    return ms.pack(A).tolist(), [flat[i * n : (i + 1) * n] for i in range(n)]


def test_omega_hat_flag_count_oracle(p53, hat53):
    # identity words correspond to maximal chains of proper subspaces;
    # count the chains V1 < V2 in F_5^3 by exhaustive containment checks
    F = p53.base
    dims = {}
    for r in (1, 2):
        dims[r] = [s for s in _all_proper_subspaces(F, 3) if len(s) == r]
    ms = MatSpace(F, 3)
    stacked = ms.asbatch(big + small for small in dims[1] for big in dims[2])
    chains = int((ms.rref(stacked)[1] == 2).sum())
    assert chains == hat53.meta["identity_words"] == 186


def test_omega_hat_equals_closure_for_d3(bar53, hat53):
    assert keys_of(hat53) == keys_of(bar53)


def test_omega_hat_witnesses_lex_min(p53, omega53, hat53):
    key1, key2 = _prefix_keys(omega53)
    hat_keys = space(hat53).pack(hat53.mats).tolist()
    # color-1 witnesses are the conjugation indices themselves
    by_key = {key: j for j, key in enumerate(key1)}
    for g, key in zip(hat53, hat_keys):
        if g.color == 1:
            assert g.word == (by_key[key],)
    # color-2 witnesses: lexicographically least pair among all products
    best = {}
    n = p53.n
    for i in range(n):
        for j in range(n):
            best.setdefault(key2[i][j], (i, j))
    for g, key in zip(hat53, hat_keys):
        if g.color == 2:
            assert g.word == best[key]


def test_omega_hat_inverse_closure(hat53):
    F, d, mats = hat53.params.base, hat53.params.d, tuples(hat53.mats)
    for i, g in enumerate(hat53):
        assert mats[g.inv] == canon_rows(F, mat_inv(F, mats[i]))
        assert hat53[g.inv].color == d - g.color


def test_omega_hat_thread_determinism(monkeypatch, omega53, hat53):
    # blocks of 50 give the 186 candidates four verifier calls, the collect
    # phase blocks of 5 words, and the 961 prefix keys 31 blocks
    monkeypatch.setattr(genforge, "_VERIFY_BLOCK", 50)
    monkeypatch.setattr(projmat, "_PRODUCT_BLOCK", 50)
    rebuilt = build_omega_hat(omega53, threads=3)
    assert rebuilt.to_text() == hat53.to_text()
    assert rebuilt.meta == hat53.meta


def test_omega_hat_requires_base_kind(bar53):
    with pytest.raises(ValueError):
        build_omega_hat(bar53)


def test_omega_hat_memory_budget(omega53):
    with pytest.raises(MemoryBudgetError):
        build_omega_hat(omega53, memory_budget=1000)


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
    eye = space(hat35).identity_batch(1)
    assert not (hat35.mats == eye).all(axis=(1, 2)).any()


def test_omega_hat_big_color1_is_omega(omega35, hat35):
    assert keys_of(hat35, {1}) == keys_of(omega35)


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


# the sha256 of each built system's file; for hat44, witnesses longer
# than the prefix half take their letters from the join's (w, v) order,
# which must stay sorted
BUILT_HASHES = {
    "omega35": "724b783180a16447e4aca04325a25691a2cb593c0335867d95d92cdde66dd743",
    "bar35": "5a328890703733a6315b10771d2721e53cad94f571d84dae569749333254c18a",
    "bar53": "0c89ff706fb4f84aeb9df3dfa9896578ed25b6df1e5025746f196c683b294e28",
    "hat53": "4a298501fa57268498bd9cd2363981ea10c73927688e29472b6292d5509a9d69",
    "bar42": "a01f5752a59d3d26527c0574881208eda6c674838ba5f2d2b15bdd03c7e61d87",
    "hat44": "bb036e843e147b492826a752000bd49632f98762f7ac8eb52584ac3ac7a83f74",
}


@pytest.mark.parametrize("name", sorted(BUILT_HASHES))
def test_build_bytes_pinned(request, name):
    assert request.getfixturevalue(name).content_hash() == BUILT_HASHES[name]


@pytest.mark.parametrize("builder, target", [
    ("build_omega", 7),
    ("symmetrize", 40),  # the inverse of generator 9
    ("build_omega_hat", 33),  # a color-2 element
])
def test_builds_check_lifts_in_rebuild(monkeypatch, omega53, builder, target):
    # a specialization that bends one lift's matrix into its neighbour's
    # must fail the build with the loader's error for that entry
    real = CycAlg.specialize

    def bent(self, lifts, alpha):
        out = real(self, lifts, alpha).copy()
        if len(lifts) > 1:  # not build_omega's specialization of 1 - z^{-1}
            out[target] = out[target - 1]
        return out

    monkeypatch.setattr(CycAlg, "specialize", bent)
    build = {
        "build_omega": lambda: build_omega(omega53.params),
        "symmetrize": lambda: symmetrize(omega53),
        "build_omega_hat": lambda: build_omega_hat(omega53),
    }[builder]
    with pytest.raises(ValueError, match=f"lift verification failed at idx={target}:"):
        build()


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


GENS_FIXTURES = ("omega53", "bar53", "hat53", "bar53_s2", "omega35", "bar35",
                 "hat35", "bar35_s2", "hat44", "omega42", "bar42")


def test_load_color_rule_matches_norm_valuation(request):
    # the valuation rule the builds and GenSet.load use for colors, with
    # no reduced norm: den[1] - den[0] for every lift, against the norm
    for name in GENS_FIXTURES:
        gs = request.getfixturevalue(name)
        d = gs.params.d
        for g in gs:
            valuation = g.lift.reduced_norm()[1]
            assert valuation == g.lift.den[1] - g.lift.den[0], (name, g)
            assert valuation % d == g.color, (name, g)


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
    def trace(code):
        out = 0
        for i in range(5):
            out = E.add(out, E.frob(code, i))
        assert E.in_base(out)
        return out

    t_code = E.tau_code
    basis_traces = [trace(E.pow_(t_code, i)) for i in range(5)]
    for row in sub:
        total = 0
        for c, tr in zip(row, basis_traces):
            total = F.add(total, F.mul(c, tr))
        assert total == 0


def test_attach_subspace_rejects_identity(p53):
    g = Generator(p53.alg().one(), -1, 1)
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


def test_prime_power():
    # one trial division up to the square root: 4294967291 = 2^32 - 5 is
    # prime, and the graph readers pass such header values through here
    assert genforge._prime_power(4294967291) == (4294967291, 1)
    assert genforge._prime_power(3**20) == (3, 20)
    # a q of 2^32 or more is refused before trial division: 65537^2 is a
    # prime power past the 32-bit header field, and 2^89 - 1, a prime,
    # would take some 2^43 divisions
    for q in (0, 1, 6, 2 * 4294967291, 65537**2, 2**89 - 1):
        with pytest.raises(ValueError, match="not a prime power"):
            genforge._prime_power(q)


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
    F = bar35.params.base
    cubes = [canon_rows(F, mat_mul(F, mat_mul(F, m, m), m)) for m in tuples(bar35.mats)]
    assert cubes == tuples(sets[1].mats)
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


def test_family_refuses_product_system(p35, hat35):
    with pytest.raises(ValueError, match="inverse closure"):
        family(p35, hat35)


def test_product_system_cubes_against_twist_three(hat35):
    # cubing reproduces the outer color classes of the independently
    # built twist-3 product system exactly; the middle classes land
    # outside it
    indep = build_omega_hat(build_omega(make_params(3, 5, s=3)))
    assert len(indep) == 2662
    ms = space(hat35)
    cubes = ms.pack(ms.canon(ms.power(hat35.mats, 3))).tolist()
    for color in (1, 4):
        got = {k for g, k in zip(hat35, cubes) if g.color == color}
        assert got == keys_of(indep, {color})
    mid = {k for g, k in zip(hat35, cubes) if g.color in (2, 3)}
    assert not mid & keys_of(indep)


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


def test_genset_rejects_product_entry_with_j(hat44):
    # a product-system entry is lifted from its word alone; a stored
    # conjugation index would load, and change the file on re-save
    lines = hat44.to_text().splitlines()
    assert " j=-1 " in lines[1]
    lines[1] = lines[1].replace(" j=-1 ", " j=7 ", 1)
    with pytest.raises(ValueError, match="entry idx=0 has j=7, expected j=-1"):
        GenSet.from_text("\n".join(lines))


def test_genset_rejects_fields_of_another_kind(omega53, bar53):
    # only product-system entries carry a word, and base entries no
    # partner; the writer writes either back, so each is refused by name
    cases = (
        (omega53, lambda ln: ln.replace(" inv=-1 ", " inv=5 "),
         "base entry idx=0 has inv=5, expected inv=-1"),
        (omega53, lambda ln: ln + " word=3", "omega entry idx=0 has word="),
        (bar53, lambda ln: ln + " word=3", "omegabar entry idx=0 has word="),
    )
    for gs, edit, message in cases:
        lines = gs.to_text().splitlines()
        lines[1] = edit(lines[1])
        with pytest.raises(ValueError, match=message):
            GenSet.from_text("\n".join(lines))


def test_inverse_partner_check_messages(hat53):
    def tampered(i, **changes):
        gens = []
        for k, g in enumerate(hat53):
            kw = dict(inv=g.inv, color=g.color)
            if k == i:
                kw.update(changes)
            gens.append(Generator(g.lift, g.j, kw["color"], kw["inv"], g.word))
        return GenSet(hat53.params, KIND_OMEGAHAT, gens, hat53.mats)

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

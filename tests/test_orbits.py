"""Tests for the <theta, Phi^k> orbit normal form.

Oracle: the orbit of a canonical matrix enumerated as all its conjugates
theta^t Phi^i X Phi^-i theta^-t, t < n = (q^d - 1)/(q - 1) and i a
multiple of k below d, Phi^i built by ``frobenius_matrix``, on seeded
random matrices: dense ones, ones built from sparse linearized
coefficients, whose supports give the smaller theta-orbits, and ones
whose coefficients lie in a subfield F_(q^m), m | d, which Phi^m fixes.
"""

import tracemalloc

import numpy as np
import pytest

from cayplex.ffield import frobenius_matrix, regular_rep
from cayplex.genforge import build_omega, make_params, symmetrize
from cayplex.orbits import ThetaOrbits, TrivialOrbits, orbits_for
from cayplex.projmat import MatSpace


def _from_coefficients(E, ms, a):
    """The matrix of z -> sum_j a_j z^(q^j): column b holds the
    coordinates of the image of tau^b."""
    d = E.d
    X = np.zeros((d, d), dtype=ms.dtype)
    tau_b = 1
    for b in range(d):
        image = 0
        for j, a_j in enumerate(a):
            image = E.add(image, E.mul(a_j, E.frob(tau_b, j)))
        X[:, b] = E.decode(image)
        tau_b = E.mul(tau_b, E.tau_code)
    return X


def _samples(params, ms, rng, count):
    """``count`` dense random canonical matrices, ``count`` built from
    coefficients with a random nonempty support, and ``count`` from
    coefficients in a random proper subfield F_(q^m) of E, m | d."""
    E, q, d = params.E, params.q, params.d
    dense = rng.integers(0, q, size=(count, d, d)).astype(ms.dtype)
    dense[:, 0, 0] = 1
    subfields = {m: [x for x in range(1, E.order) if E.frob(x, m) == x]
                 for m in range(1, d) if d % m == 0}
    sparse = []
    for _ in range(count):
        support = rng.random(d) < 0.5
        support[rng.integers(d)] = True
        a = [int(rng.integers(1, E.order)) if s else 0 for s in support]
        sparse.append(_from_coefficients(E, ms, a))
    for _ in range(count):
        field = subfields[int(rng.choice(list(subfields)))]
        support = rng.random(d) < 0.7
        support[rng.integers(d)] = True
        a = [int(rng.choice(field)) if s else 0 for s in support]
        sparse.append(_from_coefficients(E, ms, a))
    return ms.canon(np.concatenate((dense, np.array(sparse))))


def _conjugates(ms, rows, X):
    """canon(g X g^-1) for the matrix g given by ``rows``."""
    g = ms.asbatch(rows)
    return ms.canon(ms.mul(ms.mul(g, X), ms.inverse(g)))


def _enumerated_orbits(params, ms, orbits, X):
    """(len(X), n * d/k) packed keys: every conjugate of each matrix of
    ``X`` by theta^t Phi^i, i running over the multiples of k."""
    theta = regular_rep(params.E, params.u)
    conjugates = []
    for i in range(0, params.d, orbits.k):
        Y = _conjugates(ms, frobenius_matrix(params.E, i), X)
        for _ in range(params.n):
            conjugates.append(ms.pack(Y))
            Y = _conjugates(ms, theta, Y)
    return np.stack(conjugates, axis=1)


@pytest.mark.parametrize(
    "q,d", [(5, 3), (3, 5), (3, 3), (4, 2), (4, 4), (4, 5), (7, 3), (9, 3)]
)
def test_normal_form_against_enumerated_orbits(q, d):
    params = make_params(q, d)
    ms = MatSpace(params.base, d)
    orbits = ThetaOrbits.for_system(params, ms, symmetrize(build_omega(params)).mats)
    assert orbits is not None and orbits.k == 1
    rng = np.random.default_rng(q * 10 + d)
    X = _samples(params, ms, rng, 100)
    conjugates = _enumerated_orbits(params, ms, orbits, X)
    label = conjugates.min(axis=1)
    size = np.array([len(set(row)) for row in conjugates.tolist()])
    ids = orbits.ids(conjugates[:, 0])
    # equal ids exactly when the enumerated orbits are equal
    assert np.array_equal(ids[:, None] == ids[None, :], label[:, None] == label[None, :])
    assert np.array_equal(orbits.sizes(ids), size)
    # keys inverts ids
    assert np.array_equal(orbits.ids(orbits.keys(ids)), ids)
    # ids do not change under conjugation by any element of the group
    k = rng.integers(1, conjugates.shape[1], size=len(X))
    assert np.array_equal(orbits.ids(conjugates[np.arange(len(X)), k]), ids)
    # the samples reach orbits of more than one size, and some of them
    # are fixed by a power of Phi: their theta-orbits number fewer than d
    assert len(set(size.tolist())) > 1
    theta_size = np.array([len(set(row)) for row in conjugates[:, : params.n].tolist()])
    assert (size < theta_size * d).any()


def test_for_system_refuses_unpermuted_and_unpackable():
    """Where ``for_system`` refuses, ``orbits_for`` names each key by
    itself: int64 keys below q^(d*d) at (3,3), 49-byte keys at (3,7)."""
    params = make_params(3, 3)
    ms = MatSpace(params.base, 3)
    bar = symmetrize(build_omega(params))
    assert ThetaOrbits.for_system(params, ms, bar.mats) is not None
    assert isinstance(orbits_for(params, ms, bar.mats), ThetaOrbits)
    assert ThetaOrbits.for_system(params, ms, bar.mats[:2]) is None
    small = orbits_for(params, ms, bar.mats[:2])
    assert isinstance(small, TrivialOrbits)
    assert small.dtype == np.int64 and small.id_bound == 3**9
    # (3,7): q^(d*d) = 3^49 overflows int64 ids
    params = make_params(3, 7)
    ms = MatSpace(params.base, 7)
    assert ThetaOrbits.for_system(params, ms, ms.identity_batch(1)) is None
    trivial = orbits_for(params, ms, ms.identity_batch(1))
    assert trivial.dtype.itemsize == 49 and trivial.id_bound is None
    for naming in (small, trivial):
        keys = np.zeros(3, dtype=naming.dtype)
        assert naming.ids(keys) is keys and naming.keys(keys) is keys
        assert np.array_equal(naming.sizes(keys), np.ones(3)) and naming.nbytes == 0


def test_ids_read_keys_without_matrices(monkeypatch):
    """ids and sizes work on packed keys and ids alone: no unpack and no
    matrix product."""
    params = make_params(3, 5)
    ms = MatSpace(params.base, 5)
    bar = symmetrize(build_omega(params))
    orbits = ThetaOrbits.for_system(params, ms, bar.mats)
    keys = ms.key_products(bar.mats)(ms.pack(bar.mats[:20]))
    want = orbits.ids(keys)
    want_sizes = orbits.sizes(want)

    def refuse(*args, **kwargs):
        raise AssertionError("ids left key space")

    monkeypatch.setattr(MatSpace, "unpack", refuse)
    monkeypatch.setattr(MatSpace, "mul", refuse)
    ids = orbits.ids(keys)
    assert np.array_equal(ids, want) and np.array_equal(orbits.sizes(ids), want_sizes)


@pytest.mark.parametrize("q,d", [(3, 5), (5, 3), (4, 4), (9, 3)])
def test_ids_and_sizes_within_bytes_per_key(q, d):
    """ids and sizes hold at most ``bytes_per_key`` per key beside their
    input, and a few KiB of small arrays, on a block of product keys:
    no matrices and no stacked Frobenius images."""
    params = make_params(q, d)
    ms = MatSpace(params.base, d)
    bar = symmetrize(build_omega(params))
    orbits = ThetaOrbits.for_system(params, ms, bar.mats)
    products = ms.key_products(bar.mats)
    keys = products(products(ms.pack(bar.mats[:60])))[: 1 << 15]
    n = len(keys)
    assert n > 20_000
    for run in (orbits.ids, orbits.sizes):
        arg = keys if run == orbits.ids else orbits.ids(keys)
        tracemalloc.start()
        try:
            run(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= orbits.bytes_per_key * n + 4096


@pytest.mark.parametrize("q,d", [(3, 5), (5, 3), (4, 4), (9, 3)])
def test_keys_invert_ids_within_bytes_per_rep(q, d):
    """keys turns the ids of a block of product keys back into keys with
    those ids, holding at most ``bytes_per_rep`` per id beside its
    input, and a few KiB of small arrays."""
    params = make_params(q, d)
    ms = MatSpace(params.base, d)
    bar = symmetrize(build_omega(params))
    orbits = ThetaOrbits.for_system(params, ms, bar.mats)
    products = ms.key_products(bar.mats)
    ids = orbits.ids(products(products(ms.pack(bar.mats[:60])))[: 1 << 13])
    tracemalloc.start()
    try:
        keys = orbits.keys(ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= orbits.bytes_per_rep * len(ids) + 4096
    assert np.array_equal(orbits.ids(keys), ids)
    assert np.array_equal(keys, ms.pack(ms.canon(ms.unpack(keys))))


# every (q, d) the tests build a system for; the orbit path takes those
# with q^(d*d) < 2^63 and q^d <= 2^16
_TEST_PARAMETERS = [(4, 2), (3, 3), (5, 3), (7, 3), (9, 3), (17, 3), (3, 5), (4, 4),
                    (4, 5), (3, 7), (9, 6), (257, 2)]


def test_reduction_tables_fit_uint16():
    """Each digit group's sums index a table of at most 2^16 entries, and
    the row tables, the sum of whose d parts is such an index, hold
    nothing past it."""
    accepted = []
    for q, d in _TEST_PARAMETERS:
        params = make_params(q, d)
        ms = MatSpace(params.base, d)
        # conjugation by theta fixes the identity
        orbits = ThetaOrbits.for_system(params, ms, ms.identity_batch(1))
        if orbits is None:
            continue
        accepted.append((q, d))
        G = len(orbits._reduce)
        assert G <= 2
        for g, table in enumerate(orbits._reduce):
            assert len(table) <= 1 << 16
            parts = orbits._rows[:, :, g * d : (g + 1) * d].astype(np.int64)
            assert int(parts.max(axis=1).sum(axis=0).max()) < len(table)
    assert (3, 5) in accepted and (17, 3) in accepted and (257, 2) not in accepted


def test_key_table_witness_catches_a_wrong_entry():
    params = make_params(5, 3)
    ms = MatSpace(params.base, 3)
    bar = symmetrize(build_omega(params))
    orbits = ThetaOrbits.for_system(params, ms, bar.mats)
    orbits._rows[1, 7, 2] += 1
    with pytest.raises(AssertionError, match="row tables disagree"):
        orbits._check_key_tables(ms.pack(bar.mats))

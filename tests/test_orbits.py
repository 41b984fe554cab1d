"""Tests for the theta-orbit normal form.

Oracle: the orbit of a canonical matrix enumerated as all n of its
conjugates theta^k X theta^-k, k < n = (q^d - 1)/(q - 1), on seeded
random matrices: dense ones, and ones built from sparse linearized
coefficients, whose supports give the smaller orbits.
"""

import numpy as np
import pytest

from cayplex.genforge import build_omega, make_params, symmetrize
from cayplex.orbits import ThetaOrbits
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
    """``count`` dense random canonical matrices and ``count`` built
    from coefficients with a random nonempty support."""
    E, q, d = params.E, params.q, params.d
    dense = rng.integers(0, q, size=(count, d, d)).astype(ms.dtype)
    dense[:, 0, 0] = 1
    sparse = []
    for _ in range(count):
        support = rng.random(d) < 0.5
        support[rng.integers(d)] = True
        a = [int(rng.integers(1, E.order)) if s else 0 for s in support]
        sparse.append(_from_coefficients(E, ms, a))
    return ms.canon(np.concatenate((dense, np.array(sparse))))


@pytest.mark.parametrize(
    "q,d", [(5, 3), (3, 5), (3, 3), (4, 2), (4, 4), (4, 5), (7, 3), (9, 3)]
)
def test_normal_form_against_enumerated_orbits(q, d):
    params = make_params(q, d)
    ms = MatSpace(params.base, d)
    orbits = ThetaOrbits.for_system(params, ms, symmetrize(build_omega(params)).mats)
    assert orbits is not None
    rng = np.random.default_rng(q * 10 + d)
    X = _samples(params, ms, rng, 150)
    conjugates = [ms.pack(X)]
    for _ in range(params.n - 1):
        conjugates.append(ms.pack(orbits.conjugate(ms.unpack(conjugates[-1]))))
    conjugates = np.stack(conjugates, axis=1)
    label = conjugates.min(axis=1)
    size = np.array([len(set(row)) for row in conjugates.tolist()])
    ids, sizes = orbits.ids(conjugates[:, 0])
    # equal ids exactly when the enumerated orbits are equal
    assert np.array_equal(ids[:, None] == ids[None, :], label[:, None] == label[None, :])
    assert np.array_equal(sizes, size)
    assert np.array_equal(orbits.sizes(ids), size)
    # ids do not change under conjugation by any power of theta
    k = rng.integers(1, params.n, size=len(X))
    assert np.array_equal(orbits.ids(conjugates[np.arange(len(X)), k])[0], ids)
    # the samples reach orbits of more than one size
    assert len(set(size.tolist())) > 1


def test_for_system_refuses_unpermuted_and_unpackable():
    params = make_params(3, 3)
    ms = MatSpace(params.base, 3)
    bar = symmetrize(build_omega(params))
    assert ThetaOrbits.for_system(params, ms, bar.mats) is not None
    assert ThetaOrbits.for_system(params, ms, bar.mats[:2]) is None
    # (3,7): q^(d*d) = 3^49 overflows int64 ids
    params = make_params(3, 7)
    ms = MatSpace(params.base, 7)
    assert ThetaOrbits.for_system(params, ms, ms.identity_batch(1)) is None


def test_ids_read_keys_without_matrices(monkeypatch):
    """ids works on packed keys alone: no unpack and no matrix product."""
    params = make_params(3, 5)
    ms = MatSpace(params.base, 5)
    bar = symmetrize(build_omega(params))
    orbits = ThetaOrbits.for_system(params, ms, bar.mats)
    keys = ms.key_products(bar.mats)(ms.pack(bar.mats[:20]))
    want = orbits.ids(keys)

    def refuse(*args, **kwargs):
        raise AssertionError("ids left key space")

    monkeypatch.setattr(MatSpace, "unpack", refuse)
    monkeypatch.setattr(MatSpace, "mul", refuse)
    ids, sizes = orbits.ids(keys)
    assert np.array_equal(ids, want[0]) and np.array_equal(sizes, want[1])


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

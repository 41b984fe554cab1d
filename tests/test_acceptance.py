"""Acceptance gate: eleven end-to-end criteria, each printing one
pass/fail line with its measured runtime against the stated budget.

The report lines bypass pytest's output capture, so they appear in any
invocation; shared session fixtures contribute their recorded build
times to the criteria that consume them.
"""

import random
import time

import numpy as np

from cayplex.cayley import bfs_build, export_graph, import_graph
from cayplex.ffield import frobenius_matrix, get_ext_field, regular_rep
from cayplex.genforge import (
    attach_subspace,
    build_omega,
    expected_index,
    family_order_m,
    group_order_pgl,
    group_order_psl,
    hat_class_sizes,
    make_params,
    predicted_group_order,
)
from cayplex.projmat import MatSpace
from cayplex.ratfunc import Poly
from cayplex.spectra import dense_spectrum, walk_moments

from test_cyclic import B1_REF, B2_REF, z_elem
from test_ffield import PHI1_REF, THETA_REF
from test_genforge import _all_proper_subspaces
from test_projmat import canon_rows, mat_mul


def _report(capsys, name, ok, elapsed, budget, detail):
    """Print the criterion verdict line outside pytest capture."""
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    with capsys.disabled():
        print(
            f"{name} {status} - {detail} "
            f"({elapsed:.2f} s / budget {budget:.0f} s)"
        )


def test_a1_printed_matrix_forms(capsys):
    start = time.perf_counter()
    E = get_ext_field(3, 1, 5)
    ok_phi = frobenius_matrix(E, 1) == PHI1_REF
    ok_theta = regular_rep(E, E.tau_code) == THETA_REF
    p1 = make_params(3, 5, s=1, alpha=1)
    p2 = make_params(3, 5, s=2, alpha=1)
    om1 = build_omega(p1)
    om2 = build_omega(p2)
    ok_b1 = om1.mats[0].tolist() == list(map(list, canon_rows(p1.base, B1_REF)))
    ok_b2 = om2.mats[0].tolist() == list(map(list, canon_rows(p2.base, B2_REF)))
    elapsed = time.perf_counter() - start
    ok = ok_phi and ok_theta and ok_b1 and ok_b2
    _report(
        capsys, "A1", ok, elapsed, 1.0,
        "Frobenius, multiplication-by-t, and both twist generator "
        "matrices reproduced exactly",
    )
    assert ok_phi, "Frobenius matrix differs from the reference form"
    assert ok_theta, "multiplication matrix differs from the reference form"
    assert ok_b1 and ok_b2, "generator matrices differ from reference forms"
    assert elapsed < 1.0


def test_a2_multiplicative_orders(capsys):
    start = time.perf_counter()
    E = get_ext_field(3, 1, 5)
    t11 = E.pow_(E.tau_code, 11)
    ok_order = E.pow_(E.tau_code, 121) == 1 and t11 != 1
    ok_value = E.decode(t11) == (0, 1, 2, 1, 0)
    elapsed = time.perf_counter() - start
    _report(
        capsys, "A2", ok_order and ok_value, elapsed, 1.0,
        "t^121 = 1 and t^11 = t^3 - t^2 + t != 1 in the 243-element field",
    )
    assert ok_order
    assert ok_value
    assert elapsed < 1.0


def test_a3_generator_power_relations(capsys, omega35):
    start = time.perf_counter()

    def power_is(x, e, y):
        """The first generator of system x raised to e equals the first of
        system y, projectively."""
        ms = MatSpace(x.params.base, x.params.d)
        return np.array_equal(ms.canon(ms.power(x.mats[:1], e)), y.mats[:1])

    b = {1: omega35}
    for i in (2, 3, 4):
        b[i] = build_omega(make_params(3, 5, s=i))
    c = {i: build_omega(make_params(5, 3, s=i)) for i in (1, 2)}
    stated = power_is(b[1], 3, b[2])
    reverse = power_is(b[2], 3, b[1])
    general = all(power_is(b[i], 3, b[(3 * i) % 5]) for i in (1, 2, 3, 4)) and all(
        power_is(c[i], 5, c[(5 * i) % 3]) for i in (1, 2)
    )
    elapsed = time.perf_counter() - start
    detail = (
        "stated cube relation b1->b2 "
        + ("holds" if stated else
           "FAILS (the computed cube is the twist-3 generator)")
        + f"; reverse cube b2->b1 holds={reverse}"
        + f"; general (b^(i))^q = b^(qi mod d) holds={general}"
    )
    _report(capsys, "A3", stated and reverse and general, elapsed, 1.0,
            detail)
    assert reverse, "(b^(2))^3 must equal b^(1) (2*3 = 6 = 1 mod 5)"
    assert general, "(b^(i))^q must equal b^(qi mod d) on all small sets"
    assert elapsed < 1.0
    assert stated, (
        "the stated relation (b^(1))^3 = b^(2) does not hold: the cube of "
        "the twist-1 generator is the twist-3 generator, consistent with "
        "the general power map (3*1 = 3 mod 5, not 2); only the reverse "
        "direction (b^(2))^3 = b^(1) is true"
    )


def test_a4_cardinalities_and_colors(capsys, omega35, bar35, hat35,
                                     build_times):
    start = time.perf_counter()
    hist = {}
    for g in hat35:
        hist[g.color] = hist.get(g.color, 0) + 1
    classes = [hist[c] for c in sorted(hist)]
    sizes_ok = (len(omega35), len(bar35), len(hat35)) == (121, 242, 2662)
    classes_ok = classes == [121, 1210, 1210, 121] == hat_class_sizes(5, 3)
    meta = hat35.meta
    verified_ok = (
        meta["identity_words"] == meta["candidates"] - meta["collisions"]
        and meta["collisions"] == 0
    )
    elapsed = (time.perf_counter() - start) + build_times.get("hat35", 0.0)
    ok = sizes_ok and classes_ok and verified_ok
    _report(
        capsys, "A4", ok, elapsed, 600.0,
        f"sizes 121/242/2662, classes {classes}, all "
        f"{meta['candidates']} candidate identity words pass global "
        f"scalar verification, rejected collisions={meta['collisions']} "
        f"(memory well under the 8 GB budget)",
    )
    assert sizes_ok
    assert classes_ok
    assert verified_ok
    assert elapsed <= 600.0


def test_a5_reduced_norms_all_conjugates(capsys, p35, omega35):
    start = time.perf_counter()
    # Nrd = t/(1+t) = rest * t^a * (1+t)^b with rest 1, a 1, b -1
    target = (Poly.one(p35.E.base), 1, -1)
    bad = [j for j, g in enumerate(omega35)
           if g.lift.reduced_norm() != target]
    elapsed = time.perf_counter() - start
    _report(
        capsys, "A5", not bad, elapsed, 60.0,
        f"reduced norm equals t/(1+t) exactly for all {len(omega35)} "
        f"unit conjugates",
    )
    assert not bad, f"conjugates with wrong reduced norm: {bad[:5]}"
    assert elapsed <= 60.0


def test_a6_subspace_bijection(capsys, p35, hat35, build_times):
    start = time.perf_counter()
    attached = [attach_subspace(g) for g in hat35]
    dims_ok = all(
        len(sub) == 5 - g.color for g, sub in zip(hat35, attached)
    )
    image = set(attached)
    oracle = _all_proper_subspaces(p35.base, 5)
    elapsed = (time.perf_counter() - start) + build_times.get("hat35", 0.0)
    ok = dims_ok and len(image) == len(attached) and image == oracle
    _report(
        capsys, "A6", ok, elapsed, 600.0,
        f"attachment is injective on {len(attached)} elements and its "
        f"image equals the exhaustively enumerated {len(oracle)} proper "
        f"nonzero subspaces",
    )
    assert dims_ok
    assert len(image) == len(attached), "attachment is not injective"
    assert image == oracle, "attachment image differs from the oracle"
    assert elapsed <= 600.0


def test_a7_small_case_pipeline(capsys, p53, graph53, build_times):
    start = time.perf_counter()
    order_oracle = group_order_pgl(3, 5)
    ok_n = graph53.n == 372000 == order_oracle
    ok_pred = predicted_group_order(p53) == graph53.n
    ok_index = graph53.n == group_order_psl(3, 5) * expected_index(p53)
    ok_shape = graph53.r == 62 and graph53.connected and graph53.symmetric
    elapsed = (time.perf_counter() - start) + build_times.get("graph53", 0.0)
    ok = ok_n and ok_pred and ok_index and ok_shape
    _report(
        capsys, "A7", ok, elapsed, 300.0,
        f"closure has {graph53.n} vertices = classical order formula, "
        f"index {expected_index(p53)} over the simple quotient, "
        f"62-regular and connected (working set ~0.6 GB < 2 GB)",
    )
    assert ok_n, f"closure size {graph53.n} != formula {order_oracle}"
    assert ok_pred and ok_index
    assert ok_shape
    assert elapsed <= 300.0


def test_a8_big_case_moment_equality(capsys, bar35, bar35_s2):
    start = time.perf_counter()
    budget_bytes = 16 << 30
    m1 = walk_moments(bar35, 6, "ball-mitm", memory_budget=budget_bytes)
    m2 = walk_moments(bar35_s2, 6, "ball-mitm", memory_budget=budget_bytes)
    elapsed = time.perf_counter() - start
    ok = m1.values == m2.values
    _report(
        capsys, "A8", ok, elapsed, 7200.0,
        f"exact integer moment equality k=0..6 for the twist pair, "
        f"values {list(m1.values)} (ball memory enforced at runtime "
        f"against the 16 GB budget)",
    )
    assert m1.values == m2.values, (
        f"moment sequences differ: {m1.values} vs {m2.values}"
    )
    assert elapsed <= 7200.0


def test_a9_small_case_moment_equality(capsys, bar53, bar53_s2, graph53,
                                       graph53_s2, build_times):
    start = time.perf_counter()
    d1 = walk_moments(bar53, 10, "group-dp", graph=graph53)
    d2 = walk_moments(bar53_s2, 10, "group-dp", graph=graph53_s2)
    ok_equal = d1.values == d2.values
    b1 = walk_moments(bar53, 8, "ball-mitm")
    b2 = walk_moments(bar53_s2, 8, "ball-mitm")
    ok_agree = (d1.values[:9] == b1.values) and (d2.values[:9] == b2.values)
    elapsed = (
        (time.perf_counter() - start)
        + build_times.get("graph53", 0.0)
        + build_times.get("graph53_s2", 0.0)
    )
    ok = ok_equal and ok_agree
    _report(
        capsys, "A9", ok, elapsed, 1800.0,
        f"group-walk moments over all 372000 elements agree for the "
        f"twist pair k=0..10 and match the ball strategy for k<=8, "
        f"values {list(d1.values)}",
    )
    assert ok_equal, f"moments differ: {d1.values} vs {d2.values}"
    assert ok_agree, "strategies disagree on k<=8"
    assert elapsed <= 1800.0


def test_a10_property_bundle(capsys, bar42, graph42, tmp_path):
    start = time.perf_counter()
    rng = random.Random(20260814)
    E = get_ext_field(3, 1, 5)

    frob_ok = True
    for _ in range(120):
        x = rng.randrange(1, E.order)
        y = rng.randrange(1, E.order)
        cube = lambda c: E.pow_(c, 3)
        frob_ok = frob_ok and cube(E.mul(x, y)) == E.mul(cube(x), cube(y))
        frob_ok = frob_ok and cube(E.add(x, y)) == E.add(cube(x), cube(y))

    F = E.base
    val_ok = True
    for _ in range(100):
        num = [rng.randrange(3) for _ in range(4)]
        den = [rng.randrange(3) for _ in range(3)]
        # a = t + sum num[i] t^i and b = 1 + sum den[i] t^(i+1)
        a = Poly(F, num) + Poly.t(F)
        bpoly = Poly(F, [1] + den)
        if a.is_zero():
            continue
        prod = a * bpoly
        for code in (0, 1, 2):
            val_ok = val_ok and prod.root_multiplicity(code) == (
                a.root_multiplicity(code) + bpoly.root_multiplicity(code)
            )
        # the valuation at infinity is minus the degree
        val_ok = val_ok and prod.degree == a.degree + bpoly.degree

    rep_ok = True
    for _ in range(100):
        ca = rng.randrange(E.order)
        cb = rng.randrange(E.order)
        lhs = mat_mul(F, regular_rep(E, ca), regular_rep(E, cb))
        rep_ok = rep_ok and lhs == regular_rep(E, E.mul(ca, cb))

    p1 = make_params(3, 5, s=1, alpha=1)
    alg = p1.alg()
    ms = MatSpace(F, 5)
    pool = [z_elem(alg), alg.one_minus_z_inv(), alg.omega(p1.u), alg.one()]
    pairs = [(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
             for _ in range(40)]
    lhs = alg.specialize([x * y for x, y in pairs], 1)
    X = alg.specialize([x for x, _ in pairs], 1)
    Y = alg.specialize([y for _, y in pairs], 1)
    spec_ok = np.array_equal(lhs, ms.mul(X, Y))

    report = dense_spectrum(graph42)
    seq = walk_moments(bar42, 6, "group-dp", graph=graph42)
    mom_ok = True
    for k in range(7):
        exact = graph42.n * seq[k]
        approx = sum(v**k for v in report.values)
        scale = max(1.0, abs(exact))
        mom_ok = mom_ok and abs(approx - exact) / scale <= 1e-6

    io_ok = True
    for fmt in ("text", "binary"):
        path = str(tmp_path / f"roundtrip.{fmt}")
        export_graph(graph42, path, format=fmt)
        back = import_graph(path)
        io_ok = io_ok and back.n == graph42.n and np.array_equal(
            back.nbr, graph42.nbr
        )

    par_graph = bfs_build(bar42, max_vertices=1000, threads=2)
    par_ok = np.array_equal(par_graph.nbr, graph42.nbr)
    par_ok = par_ok and walk_moments(
        bar42, 6, "ball-mitm", threads=2
    ).values == seq.values

    elapsed = time.perf_counter() - start
    ok = all((frob_ok, val_ok, rep_ok, spec_ok, mom_ok, io_ok, par_ok))
    _report(
        capsys, "A10", ok, elapsed, 600.0,
        "seeded property bundle green: Frobenius homomorphism (120 "
        "cases), valuation product rule (100), representation "
        "homomorphism (100), specialization-multiplication "
        "commutation (40), moment/spectrum consistency within 1e-6, "
        "export/import round trips, deterministic threaded builds",
    )
    assert frob_ok and val_ok and rep_ok and spec_ok
    assert mom_ok and io_ok and par_ok
    assert elapsed <= 600.0


def test_a11_family_counts(capsys):
    start = time.perf_counter()
    got35 = family_order_m(3, 5)
    got37 = family_order_m(3, 7)

    def brute(q, d):
        orbit = {frozenset({q % d, (-q) % d})}
        cur = q % d
        while True:
            cur = (cur * q) % d
            cls = frozenset({cur, (-cur) % d})
            if cls in orbit:
                return len(orbit)
            orbit.add(cls)

    ok = got35 == brute(3, 5) == 2 and got37 == brute(3, 7) == 3
    elapsed = time.perf_counter() - start
    _report(
        capsys, "A11", ok, elapsed, 1.0,
        f"family sizes m={got35} for (3,5) and m={got37} for (3,7) match "
        f"brute-force orbit enumeration in the unit group modulo signs",
    )
    assert got35 == 2 and brute(3, 5) == 2
    assert got37 == 3 and brute(3, 7) == 3
    assert elapsed < 1.0

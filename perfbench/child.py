"""One benchmark step in its own process, optionally traced.

    python perfbench/child.py [--trace OUT.json] cli ARGS...
        run ``cayplex ARGS...`` in this process
    python perfbench/child.py [--trace OUT.json] attach GENS
        GenSet.load(GENS), then attach_subspace on every element; prints
        one JSON line that the benchmark checks
    python perfbench/child.py ffield SEED
        time ExtField.add/neg/mul and Field.mul on seeded operands;
        prints one JSON line of operations per second

``cayplex`` is imported from ``src`` through PYTHONPATH.  With
``--trace`` the public functions of projmat, cayley, spectra, genforge,
cyclic and cli are wrapped before the step runs and their spans are
written to OUT.json when it ends.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

from tracer import Tracer

TRACED_MODULES = ("projmat", "cayley", "spectra", "genforge", "cyclic", "cli")


def _ball_words(counts, args, levels):
    # words of length 1..radius counted with multiplicity, and the
    # distinct elements they consolidate to
    counts["spectra.ball_mitm.words"] += sum(int(c.sum()) for _, c in levels[1:])
    counts["spectra.ball_mitm.distinct"] += sum(len(keys) for keys, _ in levels[1:])


def _hat_meta(counts, args, hat):
    counts["genforge.hat.candidates"] += hat.meta["candidates"]
    counts["genforge.hat.identity_words"] += hat.meta["identity_words"]


def _rows(key):
    def hook(counts, args, result):
        counts[key] += result.shape[0]

    return hook


def _export_bytes(counts, args, result):
    counts["cayley.export.bytes"] += os.path.getsize(args[1])


def _closure_vertices(counts, args, graph):
    counts["cayley.closure.vertices"] += graph.n


HOOKS = {
    "projmat.MatSpace.mul": _rows("projmat.mul.rows"),
    "projmat.MatSpace.canon": _rows("projmat.canon.rows"),
    "cayley.closure_from_matrices": _closure_vertices,
    "cayley.export_graph": _export_bytes,
    "spectra.ball_levels": (_ball_words, False),
    "genforge.build_omega_hat": _hat_meta,
}


def install_tracer() -> Tracer:
    import importlib

    import cayplex.cli  # noqa: F401  (loads every traced module)

    mods = [importlib.import_module(f"cayplex.{m}") for m in TRACED_MODULES]
    spectra = sys.modules["cayplex.spectra"]
    extra = [(spectra, "_moments_group_dp"), (spectra, "_moments_ball_mitm"),
             (spectra, "_ball_levels")]
    tracer = Tracer()
    tracer.install(mods, extra=extra, hooks=HOOKS)
    return tracer


def attach(gens_path: str) -> int:
    from cayplex import genforge

    gs = genforge.GenSet.load(gens_path)
    subspaces = [genforge.attach_subspace(g) for g in gs]
    d = gs.params.d
    classes = [sum(1 for g in gs if g.color == c) for c in range(1, d)]
    print(json.dumps({
        "size": len(gs),
        "classes": classes,
        "distinct": len(set(subspaces)),
        "dims_ok": all(len(b) == d - g.color for g, b in zip(gs, subspaces)),
    }))
    return 0


def _ops_per_s(op, pairs, unary=False, reps: int = 5) -> float:
    """Median rate over ``reps`` passes of ``op`` over the operands."""
    rates = []
    xs = [a for a, _ in pairs]
    for _ in range(reps):
        t0 = time.perf_counter()
        if unary:
            for a in xs:
                op(a)
        else:
            for a, b in pairs:
                op(a, b)
        rates.append(len(pairs) / (time.perf_counter() - t0))
    return statistics.median(rates)


def ffield_bench(seed: int, n: int = 20_000) -> int:
    from cayplex.ffield import get_ext_field, get_field

    rng = random.Random(seed)
    out = {}
    fields = {"F3_5": get_ext_field(3, 1, 5), "F4_4": get_ext_field(2, 2, 4)}
    for label, E in fields.items():
        pairs = [(rng.randrange(E.order), rng.randrange(E.order)) for _ in range(n)]
        for a, b in pairs[:200]:  # field axioms on a sample
            if E.add(a, E.neg(a)) != 0 or (a and E.mul(a, E.inv(a)) != 1):
                raise AssertionError(f"{label}: field axiom fails at {a}")
            if E.mul(a, b) != E.mul(b, a) or E.add(a, b) != E.add(b, a):
                raise AssertionError(f"{label}: commutativity fails at {a}, {b}")
        out[f"ffield.ext_add.{label}.ops_per_s"] = _ops_per_s(E.add, pairs)
        out[f"ffield.ext_neg.{label}.ops_per_s"] = _ops_per_s(E.neg, pairs, unary=True)
        out[f"ffield.ext_mul.{label}.ops_per_s"] = _ops_per_s(E.mul, pairs)
    F = get_field(2, 2)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(n)]
    out["ffield.base_mul.F4.ops_per_s"] = _ops_per_s(F.mul, pairs)
    print(json.dumps(out))
    return 0


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    cmd, args = argv[0], argv[1:]
    if cmd == "ffield":
        return ffield_bench(int(args[0]))
    tracer = install_tracer() if trace_out else None
    try:
        if cmd == "cli":
            import cayplex.cli

            return cayplex.cli.main(args)
        if cmd == "attach":
            return attach(args[0])
        raise SystemExit(f"unknown step {cmd!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

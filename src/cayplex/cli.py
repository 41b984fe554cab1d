"""Command-line orchestration: build generator systems and graphs,
compute spectral fingerprints, compare them, and run the packaged
verification suites, emitting a reproducibility manifest beside every
artifact."""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from collections import defaultdict

from .cayley import VertexLimitError, bfs_build, export_graph, import_graph
from .ffield import frobenius_matrix, get_ext_field, regular_rep
from .genforge import (
    GenSet,
    MemoryBudgetError,
    attach_subspace,
    build_omega,
    build_omega_hat,
    expected_index,
    family,
    family_order_m,
    group_order_pgl,
    group_order_psl,
    hat_class_sizes,
    make_params,
    predicted_group_order,
    symmetrize,
)
from .ratfunc import RatFunc
from .spectra import (
    MomentSeq,
    compare,
    dense_spectrum,
    isomorphism_search,
    walk_moments,
)
from .util import atomic_write_text

TOOL_VERSION = "0.1.0"

# Reference values for the q=3, d=5 construction with modulus t^5 - t - 1,
# power basis {1, t, ..., t^4}, alpha = 1: the matrix of x -> x^3, the
# matrix of multiplication by t, and the twist-1 and twist-2 generators
# at their printed (non-normalized) scaling.  These constants are the
# verification contract of the paper-d5q3 suite.
_PHI1_REF = (
    (1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 1, 0, 1),
    (0, 1, 0, 0, 2),
    (0, 0, 0, 1, 1),
)
_THETA_REF = (
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
)
_B1_REF = (
    (2, 1, 2, 0, 1),
    (0, 2, 2, 1, 2),
    (0, 2, 0, 0, 1),
    (0, 2, 1, 1, 2),
    (0, 1, 2, 0, 0),
)
_B2_REF = (
    (2, 1, 1, 1, 1),
    (0, 1, 2, 1, 1),
    (0, 1, 2, 2, 2),
    (0, 0, 1, 0, 0),
    (0, 1, 1, 1, 0),
)


# ---------------------------------------------------------------------------
# Reproducibility manifests
# ---------------------------------------------------------------------------


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _peak_mem_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class RunManifest:
    """Reproducibility record written beside every produced artifact:
    tool version, full parameters, input/output hashes, wall clock and
    peak memory.  Re-running the recorded command reproduces
    byte-identical outputs."""

    __slots__ = ("command", "params", "inputs", "outputs", "wall_seconds", "seed")

    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = {k: v for k, v in params.items() if v is not None}
        self.inputs = {}
        self.outputs = {}
        self.wall_seconds = 0.0
        self.seed = None

    def add_input(self, path: str) -> None:
        self.inputs[path] = _sha256_file(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = _sha256_file(path)

    def to_text(self) -> str:
        lines = [f"version={TOOL_VERSION}", f"command={self.command}"]
        for k in sorted(self.params):
            lines.append(f"param.{k}={self.params[k]}")
        for path in sorted(self.inputs):
            lines.append(f"input.{path}={self.inputs[path]}")
        for path in sorted(self.outputs):
            lines.append(f"output.{path}={self.outputs[path]}")
        lines.append(f"wall_seconds={self.wall_seconds:.3f}")
        lines.append(f"peak_mem_bytes={_peak_mem_bytes()}")
        lines.append(f"seed={'none' if self.seed is None else self.seed}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_text())

    def record(self, start: float, out: str, inputs=()) -> None:
        """Record the wall time since ``start``, hash ``inputs`` (None
        entries skipped) and ``out``, and save the manifest as
        ``<out>.manifest``."""
        self.wall_seconds = time.perf_counter() - start
        for path in filter(None, inputs):
            self.add_input(path)
        self.add_output(out)
        self.save(out + ".manifest")


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

_CONFIG_TYPES = {
    "q": int,
    "d": int,
    "s": int,
    "alpha": int,
    "kmax": int,
    "max_vertices": int,
    "mem_budget": int,
    "threads": int,
    "cap": int,
    "timeout": float,
    "sym": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "strategy": str,
    "colors": str,
    "format": str,
    "mode": str,
    "out": str,
    "gens": str,
    "graph": str,
    "suite": str,
}


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: configuration lines are key=value"
                )
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill in options from the configuration file; explicit flags win."""
    if getattr(ns, "config", None) is None:
        return
    for key, raw in _load_config(ns.config).items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_TYPES or not hasattr(ns, dest):
            raise ValueError(f"unknown configuration key {key!r}")
        if getattr(ns, dest) is None:
            setattr(ns, dest, _CONFIG_TYPES[dest](raw))


def _parse_colors(spec):
    if spec is None:
        return None
    try:
        return {int(tok) for tok in str(spec).split(",") if tok.strip()}
    except ValueError:
        raise ValueError(f"colors must be a comma-separated int list: {spec!r}")


def _require(ns, name):
    value = getattr(ns, name)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required")
    return value


def _build_params(ns):
    q = _require(ns, "q")
    d = _require(ns, "d")
    s = ns.s if ns.s is not None else 1
    return make_params(q, d, s=s, alpha=ns.alpha)


# ---------------------------------------------------------------------------
# Artifact commands
# ---------------------------------------------------------------------------


def _cmd_gens(ns) -> int:
    out = _require(ns, "out")
    params = _build_params(ns)
    start = time.perf_counter()
    gens = build_omega(params)
    if ns.sym:
        gens = symmetrize(gens)
    gens.save(out)
    RunManifest(
        "gens",
        {"q": params.q, "d": params.d, "s": params.s, "alpha": params.alpha,
         "sym": bool(ns.sym), "out": out},
    ).record(start, out)
    hist = defaultdict(int)
    for g in gens:
        hist[g.color] += 1
    colors = ",".join(f"{c}:{hist[c]}" for c in sorted(hist))
    print(f"kind={gens.kind} size={len(gens)} colors={colors} out={out}")
    return 0


def _cmd_omega_hat(ns) -> int:
    out = _require(ns, "out")
    params = _build_params(ns)
    start = time.perf_counter()
    hat = build_omega_hat(
        build_omega(params),
        memory_budget=ns.mem_budget,
        threads=ns.threads or 1,
    )
    hat.save(out)
    RunManifest(
        "omega-hat",
        {"q": params.q, "d": params.d, "s": params.s, "alpha": params.alpha,
         "mem_budget": ns.mem_budget, "out": out},
    ).record(start, out)
    meta = hat.meta
    print(
        f"kind={hat.kind} size={len(hat)} "
        f"identity_words={meta.get('identity_words')} "
        f"collisions={meta.get('collisions')} out={out}"
    )
    return 0


def _cmd_graph(ns) -> int:
    out = _require(ns, "out")
    gens_path = _require(ns, "gens")
    fmt = ns.format if ns.format is not None else "binary"
    max_vertices = ns.max_vertices if ns.max_vertices is not None else 1_000_000
    gens = GenSet.load(gens_path)
    start = time.perf_counter()
    G = bfs_build(gens, max_vertices=max_vertices, threads=ns.threads or 1)
    export_graph(G, out, format=fmt)
    RunManifest(
        "graph",
        {"gens": gens_path, "format": fmt, "max_vertices": max_vertices,
         "out": out},
    ).record(start, out, [gens_path])
    print(
        f"n={G.n} r={G.r} symmetric={G.symmetric} connected={G.connected} "
        f"out={out}"
    )
    return 0


def _cmd_moments(ns) -> int:
    gens_path = _require(ns, "gens")
    kmax = _require(ns, "kmax")
    strategy = ns.strategy if ns.strategy is not None else "ball-mitm"
    colors = _parse_colors(ns.colors)
    gens = GenSet.load(gens_path)
    graph = import_graph(ns.graph) if ns.graph else None
    start = time.perf_counter()
    seq = walk_moments(
        gens,
        kmax,
        strategy,
        colors=colors,
        graph=graph,
        threads=ns.threads or 1,
        memory_budget=ns.mem_budget,
    )
    print(seq.to_text(), end="")
    if ns.out:
        seq.save(ns.out)
        RunManifest(
            "moments",
            {"gens": gens_path, "graph": ns.graph, "kmax": kmax,
             "strategy": strategy, "colors": ns.colors,
             "mem_budget": ns.mem_budget, "out": ns.out},
        ).record(start, ns.out, [gens_path, ns.graph])
    return 0


def _cmd_spectrum(ns) -> int:
    graph_path = _require(ns, "graph")
    colors = _parse_colors(ns.colors)
    cap = ns.cap if ns.cap is not None else 5000
    G = import_graph(graph_path)
    start = time.perf_counter()
    report = dense_spectrum(G, colors=colors, cap=cap)
    print(report.to_text(), end="")
    if ns.out:
        report.save(ns.out)
        RunManifest(
            "spectrum",
            {"graph": graph_path, "colors": ns.colors, "cap": cap,
             "out": ns.out},
        ).record(start, ns.out, [graph_path])
    return 0


def _cmd_compare(ns) -> int:
    mode = _require(ns, "mode")
    timeout = ns.timeout if ns.timeout is not None else 10.0
    if mode == "moments":
        a = MomentSeq.load(ns.a)
        b = MomentSeq.load(ns.b)
    else:
        a = import_graph(ns.a)
        b = import_graph(ns.b)
    start = time.perf_counter()
    report = compare(a, b, mode, timeout=timeout)
    print(report.to_text(), end="")
    if ns.out:
        report.save(ns.out)
        RunManifest(
            "compare",
            {"a": ns.a, "b": ns.b, "mode": mode, "timeout": timeout,
             "out": ns.out},
        ).record(start, ns.out, [ns.a, ns.b])
    return 0


def _cmd_family(ns) -> int:
    params = _build_params(ns)
    base = symmetrize(build_omega(params))
    start = time.perf_counter()
    members = family(params, base)
    lines = [
        f"version=1 q={params.q} d={params.d} s={params.s} m={len(members)}"
    ]
    s_cur = params.s
    for i, member in enumerate(members):
        lines.append(f"member={i} s={s_cur} hash={member.content_hash()}")
        s_cur = (s_cur * params.q) % params.d
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if ns.out:
        atomic_write_text(ns.out, text)
        RunManifest(
            "family",
            {"q": params.q, "d": params.d, "s": params.s, "out": ns.out},
        ).record(start, ns.out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _check(results, name, ok, detail=""):
    results.append((name, bool(ok)))
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" - {detail}"
    print(line)
    return bool(ok)


def _finish(results) -> int:
    failed = [name for name, ok in results if not ok]
    print(f"checks={len(results)} failed={len(failed)}")
    return 1 if failed else 0


def _suite_paper_d5q3(ns) -> int:
    """Exact verification of the q=3, d=5 worked construction: printed
    matrices, multiplicative orders, power relations, cardinalities,
    reduced norms, and the subspace bijection."""
    results = []
    threads = ns.threads or 1
    E = get_ext_field(3, 1, 5)
    _check(
        results,
        "frobenius-matrix-printed-form",
        frobenius_matrix(E, 1) == _PHI1_REF,
    )
    _check(
        results,
        "multiplication-matrix-printed-form",
        regular_rep(E, E.tau_code) == _THETA_REF,
    )
    t = E.tau
    _check(
        results,
        "tau-has-order-121",
        (t**121).code == 1 and (t**11).code != 1,
        "t^121 = 1, t^11 != 1",
    )
    _check(
        results,
        "tau-eleventh-power-value",
        E.decode((t**11).code) == (0, 1, 2, 1, 0),
        "t^11 = t^3 - t^2 + t",
    )
    params1 = make_params(3, 5, s=1, alpha=1)
    params2 = make_params(3, 5, s=2, alpha=1)
    alg1 = params1.alg()
    alg2 = params2.alg()
    _check(
        results,
        "twist-1-generator-printed-form",
        alg1.specialize(alg1.one_minus_z_inv(), 1) == _B1_REF,
    )
    _check(
        results,
        "twist-2-generator-printed-form",
        alg2.specialize(alg2.one_minus_z_inv(), 1) == _B2_REF,
    )
    om1 = build_omega(params1)
    om2 = build_omega(params2)
    b1, b2 = om1[0].finite, om2[0].finite
    _check(
        results,
        "twist-1-generator-cubed-equals-twist-2",
        b1**3 == b2,
        "claimed (b^(1))^3 = b^(2); the computed cube is the twist-3 "
        "generator (3*1 = 3 mod 5), so the stated relation fails",
    )
    _check(
        results,
        "twist-2-generator-cubed-equals-twist-1",
        b2**3 == b1,
        "2*3 = 6 = 1 mod 5",
    )
    power_ok = True
    for q, d, exps in ((3, 5, (1, 2, 3, 4)), (5, 3, (1, 2))):
        mats = {
            i: build_omega(make_params(q, d, s=i))[0].finite for i in exps
        }
        for i in exps:
            power_ok = power_ok and mats[i] ** q == mats[(q * i) % d]
    _check(
        results,
        "generator-power-map-q-times-twist",
        power_ok,
        "(b^(i))^q = b^(q*i mod d) over both small parameter sets",
    )
    bar1 = symmetrize(om1)
    hat1 = build_omega_hat(om1, memory_budget=ns.mem_budget, threads=threads)
    hist = defaultdict(int)
    for g in hat1:
        hist[g.color] += 1
    classes = [hist[c] for c in sorted(hist)]
    _check(
        results,
        "system-cardinalities",
        len(om1) == 121 and len(bar1) == 242 and len(hat1) == 2662,
        f"|base|={len(om1)} |inverse-closure|={len(bar1)} "
        f"|product-system|={len(hat1)}",
    )
    _check(
        results,
        "product-system-color-classes",
        classes == hat_class_sizes(5, 3),
        f"classes={classes} collisions={hat1.meta.get('collisions')} "
        f"identity_words={hat1.meta.get('identity_words')}",
    )
    tt = RatFunc.t(params1.E.base)
    target = tt / (1 + tt)
    _check(
        results,
        "reduced-norms-of-all-conjugates",
        all(g.lift.reduced_norm() == target for g in om1),
        "norm = t/(1+t) for all 121 conjugates",
    )
    color_sets = defaultdict(set)
    dims_ok = True
    for g in hat1:
        basis = attach_subspace(g)
        dims_ok = dims_ok and len(basis) == 5 - g.color
        color_sets[g.color].add(basis)
    expected = hat_class_sizes(5, 3)
    counts_ok = all(
        len(color_sets[c]) == expected[c - 1] for c in (1, 2, 3, 4)
    )
    _check(
        results,
        "subspace-attachment-bijection",
        dims_ok and counts_ok,
        "distinct echelon bases per class match the Gaussian-binomial "
        "subspace counts, so the attachment is onto all proper subspaces",
    )
    return _finish(results)


def _suite_pipeline_d3q5(ns) -> int:
    """Full small-case pipeline: closure order against the classical
    order formula, regularity, connectivity, and an isomorphism-search
    report for the twist pair (outcome reported, not presumed)."""
    results = []
    threads = ns.threads or 1
    params = make_params(5, 3, s=1)
    _check(
        results,
        "auto-selected-alpha",
        params.alpha == 3,
        "alpha = -2 in F_5",
    )
    bar = symmetrize(build_omega(params))
    G = bfs_build(bar, max_vertices=400_000, threads=threads)
    order = group_order_pgl(3, 5)
    _check(
        results,
        "closure-order-matches-formula",
        G.n == 372000 and order == 372000
        and predicted_group_order(params) == G.n,
        f"n={G.n}",
    )
    _check(
        results,
        "closure-order-matches-index",
        G.n == group_order_psl(3, 5) * expected_index(params),
        f"index={expected_index(params)}",
    )
    _check(results, "regular-degree-62", G.r == 62)
    _check(
        results,
        "connected-symmetric",
        G.connected and G.symmetric,
    )
    bar2 = symmetrize(build_omega(make_params(5, 3, s=2)))
    G2 = bfs_build(bar2, max_vertices=400_000, threads=threads)
    timeout = ns.timeout if ns.timeout is not None else 20.0
    verdict, _ = isomorphism_search(G, G2, timeout=timeout)
    print(f"REPORT twist-pair-isomorphism-search verdict={verdict}")
    return _finish(results)


def _suite_moments_d5q3(ns) -> int:
    """Exact moment equality for the big twist pair up to K = 6 by
    meet-in-the-middle ball joins (partial evidence: the full graphs,
    at ~2.4e11 vertices, are far beyond desk scale)."""
    results = []
    threads = ns.threads or 1
    m1 = walk_moments(
        symmetrize(build_omega(make_params(3, 5, s=1))),
        6,
        "ball-mitm",
        threads=threads,
        memory_budget=ns.mem_budget,
    )
    m2 = walk_moments(
        symmetrize(build_omega(make_params(3, 5, s=2))),
        6,
        "ball-mitm",
        threads=threads,
        memory_budget=ns.mem_budget,
    )
    print(f"twist-1 moments: {list(m1.values)}")
    print(f"twist-2 moments: {list(m2.values)}")
    for k in range(7):
        _check(results, f"moment-N{k}-equal", m1[k] == m2[k],
               f"{m1[k]} vs {m2[k]}")
    _check(
        results,
        "verdict-partial-evidence",
        compare(m1, m2, "moments").verdict == "equal",
        "exact integer equality up to K=6",
    )
    return _finish(results)


def _suite_families(ns) -> int:
    """Family counts by the exponent formula against an independent
    brute-force orbit enumeration in the unit group modulo signs."""
    results = []
    for q, d, want in ((3, 5, 2), (3, 7, 3)):
        got = family_order_m(q, d)
        cls = frozenset({q % d, (-q) % d})
        orbit = {cls}
        cur = q % d
        while True:
            cur = (cur * q) % d
            nxt = frozenset({cur, (-cur) % d})
            if nxt in orbit:
                break
            orbit.add(nxt)
        _check(
            results,
            f"family-count-q{q}-d{d}",
            got == want and len(orbit) == want,
            f"exponent formula {got}, orbit enumeration {len(orbit)}",
        )
    return _finish(results)


_SUITES = {
    "paper-d5q3": _suite_paper_d5q3,
    "pipeline-d3q5": _suite_pipeline_d3q5,
    "moments-d5q3": _suite_moments_d5q3,
    "families": _suite_families,
}


def _cmd_verify(ns) -> int:
    suite = _require(ns, "suite")
    if suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITES)}"
        )
    return _SUITES[suite](ns)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key=value configuration file; flags override")
    common.add_argument("--threads", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="cayplex",
        description=(
            "Generator systems for finite projective linear groups, their "
            "Cayley graphs, and exact spectral fingerprints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", parents=[common],
                       help="build a generator system")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--sym", action="store_const", const=True, default=None,
                   help="emit the inverse closure instead of the base system")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("omega-hat", parents=[common],
                       help="build the product system")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--mem-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_omega_hat)

    p = sub.add_parser("graph", parents=[common],
                       help="build the Cayley closure of a generator file")
    p.add_argument("--gens", default=None)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--format", choices=("text", "binary"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("moments", parents=[common],
                       help="exact closed-walk moment sequence")
    p.add_argument("--gens", default=None)
    p.add_argument("--graph", default=None,
                   help="reuse a built graph file (group-dp)")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--strategy", choices=("group-dp", "ball-mitm"),
                   default=None)
    p.add_argument("--colors", default=None)
    p.add_argument("--mem-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("spectrum", parents=[common],
                       help="dense verified spectrum of a small graph")
    p.add_argument("--graph", default=None)
    p.add_argument("--colors", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two fingerprint or graph files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("moments", "spectrum", "iso"),
                   default=None)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("family", parents=[common],
                       help="build and report the q-power family")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", parents=[common],
                       help="run a packaged verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), default=None)
    p.add_argument("--mem-budget", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns)
        return ns.func(ns)
    except (MemoryBudgetError, VertexLimitError, MemoryError) as exc:
        print(f"resource abort: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

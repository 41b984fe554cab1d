"""Command-line orchestration: build generator systems and graphs,
compute spectral fingerprints, compare them, and run the packaged
verification suites, emitting a reproducibility manifest beside every
artifact.

The parser is the one definition of every option: its type, its
``choices`` and its default, the library default it stands for.  A
``--config`` file is read through the same parser, and a manifest
records the parsed options as ``param.key=value`` lines, so without
their prefix they are a config file that reruns the command
(positionals aside)."""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from collections import defaultdict

import numpy as np

from .cayley import (
    GRAPH_FORMAT,
    MAX_VERTICES,
    VertexLimitError,
    _check_int64_keys,
    bfs_build,
    export_graph,
    import_graph,
)
from .ffield import frobenius_matrix, get_ext_field, regular_rep
from .genforge import (
    GenSet,
    MEM_BUDGET,
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
from .projmat import MatSpace
from .ratfunc import Poly
from .spectra import (
    DENSE_CAP,
    MOMENT_STRATEGY,
    MomentSeq,
    cayley_isomorphism,
    check_graph_of,
    compare,
    dense_spectrum,
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
    tool version, the parsed options (defaults included, options left
    unset omitted), input/output hashes, wall clock and peak memory.
    Re-running the recorded command reproduces byte-identical outputs."""

    __slots__ = ("command", "params", "inputs", "outputs", "wall_seconds", "seed")

    def __init__(self, ns: argparse.Namespace):
        self.command = ns.command
        self.params = {
            k: v for k, v in vars(ns).items()
            if v is not None and k not in ("func", "command", "config")
        }
        self.inputs = {}
        self.outputs = {}
        self.wall_seconds = 0.0
        self.seed = None

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

    def record(self, start: float, out: str, inputs=(), hashes=None) -> None:
        """Record the wall time since ``start`` and the sha256 of
        ``inputs`` (None entries skipped) and ``out``, and save the
        manifest as ``<out>.manifest``.  ``hashes`` maps paths to digests
        already taken as their bytes were read or written; any other path
        is hashed from disk."""
        self.wall_seconds = time.perf_counter() - start
        hashes = hashes or {}

        def sha256(path):
            return hashes.get(path) or _sha256_file(path)

        for path in filter(None, inputs):
            self.inputs[path] = sha256(path)
        self.outputs[out] = sha256(out)
        self.save(out + ".manifest")


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _flag(value: str) -> bool:
    word = value.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean (1/true/yes/on or 0/false/no/off)")


def _config_args(path: str, parser: argparse.ArgumentParser) -> list:
    """The ``key=value`` lines of a configuration file as options of
    ``parser``: ``--key=value``, or for a boolean flag the flag or
    nothing, so each value is checked as the flag would be."""
    actions = {
        action.dest: action for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    args = []
    seen = set()
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
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key in seen:
                raise ValueError(f"{path}:{lineno}: configuration key {key!r} given twice")
            seen.add(key)
            if key not in actions:
                raise ValueError(f"unknown configuration key {key!r}")
            flag = actions[key].option_strings[0]
            if actions[key].nargs != 0:
                args.append(f"{flag}={value}")
            elif _flag(value):
                args.append(flag)
    return args


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
    return make_params(_require(ns, "q"), _require(ns, "d"), s=ns.s, alpha=ns.alpha)


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
    RunManifest(ns).record(start, out)
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
        build_omega(params, memory_budget=ns.mem_budget),
        memory_budget=ns.mem_budget,
        threads=ns.threads,
    )
    hat.save(out)
    RunManifest(ns).record(start, out)
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
    if ns.max_vertices < 1:
        raise ValueError(f"--max-vertices must be at least 1, got {ns.max_vertices}")
    gens = GenSet.load(gens_path)
    # the file could not hold the keys: refuse before the closure runs
    _check_int64_keys(gens.params.q, gens.params.d)
    start = time.perf_counter()
    G = bfs_build(gens, max_vertices=ns.max_vertices, threads=ns.threads)
    digest = export_graph(G, out, format=ns.format)
    RunManifest(ns).record(
        start, out, [gens_path], {out: digest, gens_path: gens.content_hash()}
    )
    print(
        f"n={G.n} r={G.r} symmetric={G.symmetric} connected={G.connected} "
        f"out={out}"
    )
    return 0


def _cmd_moments(ns) -> int:
    gens_path = _require(ns, "gens")
    kmax = _require(ns, "kmax")
    colors = _parse_colors(ns.colors)
    if ns.graph and ns.strategy == "ball-mitm":
        raise ValueError("a graph is read only by group-dp, not by ball-mitm")
    gens = GenSet.load(gens_path)
    hashes = {gens_path: gens.content_hash()}
    if ns.graph:
        # the file is checked against the generators; the moments never
        # read it, so its head is all that is kept
        head = import_graph(ns.graph, hashes, head=True, memory_budget=ns.mem_budget)
        check_graph_of(gens, head)
    start = time.perf_counter()
    seq = walk_moments(
        gens,
        kmax,
        ns.strategy,
        colors=colors,
        threads=ns.threads,
        memory_budget=ns.mem_budget,
    )
    print(seq.to_text(), end="")
    if ns.out:
        seq.save(ns.out)
        RunManifest(ns).record(start, ns.out, [gens_path, ns.graph], hashes)
    return 0


def _cmd_spectrum(ns) -> int:
    graph_path = _require(ns, "graph")
    hashes = {}
    G = import_graph(graph_path, hashes)
    start = time.perf_counter()
    report = dense_spectrum(G, cap=ns.cap)
    print(report.to_text(), end="")
    if ns.out:
        report.save(ns.out)
        RunManifest(ns).record(start, ns.out, [graph_path], hashes)
    return 0


def _cmd_compare(ns) -> int:
    mode = _require(ns, "mode")
    hashes = {}
    if mode == "moments":
        a = MomentSeq.load(ns.a)
        b = MomentSeq.load(ns.b)
    else:
        # the certificate reads only the generators of a graph
        a = import_graph(ns.a, hashes, head=mode == "iso")
        b = import_graph(ns.b, hashes, head=mode == "iso")
    start = time.perf_counter()
    report = compare(a, b, mode)
    print(report.to_text(), end="")
    if ns.out:
        report.save(ns.out)
        RunManifest(ns).record(start, ns.out, [ns.a, ns.b], hashes)
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
        RunManifest(ns).record(start, ns.out)
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
    t11 = E.pow_(E.tau_code, 11)
    _check(
        results,
        "tau-has-order-121",
        E.pow_(E.tau_code, 121) == 1 and t11 != 1,
        "t^121 = 1, t^11 != 1",
    )
    _check(
        results,
        "tau-eleventh-power-value",
        E.decode(t11) == (0, 1, 2, 1, 0),
        "t^11 = t^3 - t^2 + t",
    )
    params1 = make_params(3, 5, s=1, alpha=1)
    params2 = make_params(3, 5, s=2, alpha=1)
    alg1 = params1.alg()
    alg2 = params2.alg()
    _check(
        results,
        "twist-1-generator-printed-form",
        np.array_equal(alg1.specialize([alg1.one_minus_z_inv()], 1)[0], _B1_REF),
    )
    _check(
        results,
        "twist-2-generator-printed-form",
        np.array_equal(alg2.specialize([alg2.one_minus_z_inv()], 1)[0], _B2_REF),
    )
    om1 = build_omega(params1)
    om2 = build_omega(params2)
    ms = MatSpace(params1.base, 5)

    def cube_is(b, c):
        return np.array_equal(ms.canon(ms.power(b, 3)), c)

    b1, b2 = om1.mats[:1], om2.mats[:1]
    _check(
        results,
        "twist-1-generator-cubed-equals-twist-2",
        cube_is(b1, b2),
        "claimed (b^(1))^3 = b^(2); the computed cube is the twist-3 "
        "generator (3*1 = 3 mod 5), so the stated relation fails",
    )
    _check(
        results,
        "twist-2-generator-cubed-equals-twist-1",
        cube_is(b2, b1),
        "2*3 = 6 = 1 mod 5",
    )
    power_ok = True
    for q, d, exps in ((3, 5, (1, 2, 3, 4)), (5, 3, (1, 2))):
        b = {i: build_omega(make_params(q, d, s=i)) for i in exps}
        ms_qd = MatSpace(b[1].params.base, d)
        for i in exps:
            power = ms_qd.canon(ms_qd.power(b[i].mats[:1], q))
            power_ok = power_ok and np.array_equal(power, b[(q * i) % d].mats[:1])
    _check(
        results,
        "generator-power-map-q-times-twist",
        power_ok,
        "(b^(i))^q = b^(q*i mod d) over both small parameter sets",
    )
    bar1 = symmetrize(om1)
    hat1 = build_omega_hat(om1, memory_budget=ns.mem_budget, threads=ns.threads)
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
    # Nrd = t/(1+t): rest 1, t-exponent 1, (1+t)-exponent -1
    target = (Poly.one(params1.E.base), 1, -1)
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
    order formula, regularity, connectivity, and the automorphism
    certificate that the twist pair is isomorphic (2 = -1 mod 3)."""
    results = []
    params = make_params(5, 3, s=1)
    _check(
        results,
        "auto-selected-alpha",
        params.alpha == 3,
        "alpha = -2 in F_5",
    )
    bar = symmetrize(build_omega(params))
    G = bfs_build(bar, max_vertices=400_000, threads=ns.threads)
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
    found = cayley_isomorphism(G.space(), bar.mats, bar2.mats)
    _check(results, "twist-pair-isomorphic-by-transpose-inverse",
           found is not None and found[1], "X (S1)^-T X^-1 = S2")
    return _finish(results)


def _suite_moments_d5q3(ns) -> int:
    """Exact moment equality for the big twist pair up to K = 6 by
    meet-in-the-middle ball joins (partial evidence: the full graphs,
    at ~2.4e11 vertices, are far beyond desk scale), and the
    certificate that no automorphism maps one generator set onto the
    other."""
    results = []
    bar1, bar2 = (symmetrize(build_omega(make_params(3, 5, s=s))) for s in (1, 2))
    m1, m2 = (walk_moments(bar, 6, "ball-mitm", threads=ns.threads,
                           memory_budget=ns.mem_budget) for bar in (bar1, bar2))
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
    found = cayley_isomorphism(MatSpace(bar1.params.base, 5), bar1.mats, bar2.mats)
    _check(results, "twist-pair-no-automorphism-induced-isomorphism",
           found is None, "2 is neither 1 nor -1 mod 5")
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
    return _SUITES[_require(ns, "suite")](ns)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser():
    """The top-level parser and its subcommand parsers by name.  Each
    option's default is the library default it stands for; an option
    left at None has none (a required one, or one only passed on)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key=value configuration file; flags override")
    common.add_argument("--threads", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="cayplex",
        description=(
            "Generator systems for finite projective linear groups, their "
            "Cayley graphs, and exact spectral fingerprints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def system_options(p):
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--alpha", type=int, default=None)

    p = sub.add_parser("gens", parents=[common],
                       help="build a generator system")
    system_options(p)
    p.add_argument("--sym", action="store_const", const=True, default=None,
                   help="emit the inverse closure instead of the base system")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("omega-hat", parents=[common],
                       help="build the product system")
    system_options(p)
    p.add_argument("--mem-budget", type=int, default=MEM_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_omega_hat)

    p = sub.add_parser("graph", parents=[common],
                       help="build the Cayley closure of a generator file")
    p.add_argument("--gens", default=None)
    p.add_argument("--max-vertices", type=int, default=MAX_VERTICES)
    p.add_argument("--format", choices=("text", "binary"), default=GRAPH_FORMAT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("moments", parents=[common],
                       help="exact closed-walk moment sequence")
    p.add_argument("--gens", default=None)
    p.add_argument("--graph", default=None,
                   help="a graph file of --gens, checked against it (group-dp); "
                        "the moments never read it")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--strategy", choices=("group-dp", "ball-mitm"),
                   default=MOMENT_STRATEGY)
    p.add_argument("--colors", default=None)
    p.add_argument("--mem-budget", type=int, default=MEM_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("spectrum", parents=[common],
                       help="dense verified spectrum of a small graph")
    p.add_argument("--graph", default=None)
    p.add_argument("--cap", type=int, default=DENSE_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two fingerprint or graph files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("moments", "spectrum", "iso"),
                   default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("family", parents=[common],
                       help="build and report the q-power family")
    system_options(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", parents=[common],
                       help="run a packaged verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), default=None)
    p.add_argument("--mem-budget", type=int, default=MEM_BUDGET)
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            # config lines go before the flags, so the flags win
            config = _config_args(ns.config, commands[ns.command])
            ns = parser.parse_args([ns.command, *config, *argv[1:]])
        if ns.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {ns.threads}")
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

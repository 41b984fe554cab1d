"""Benchmark of the cayplex command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``cayplex`` is imported from
``src``, byte-compiled into ``.bench_build``.  Every step is a cold
process with ``--threads 1`` and one BLAS/OpenMP thread, started one at
a time by this script.  The seed picks the admissible twist(s);
the expected outputs do not depend on it.

Workloads (chosen so that each stresses different layers):

* ``closure-d3q5``: ``gens`` q=5 d=3, ``graph`` (372000 vertices),
  ``moments --strategy group-dp --kmax 10 --graph``.
* ``moments-d5q3``: ``gens`` q=3 d=5 for two twists, ``moments
  --strategy ball-mitm --kmax 6`` on each, ``compare --mode moments``.
* ``omegahat-d4q4``: ``omega-hat`` q=4 d=4, then ``GenSet.load`` and
  ``attach_subspace`` on all 527 elements through the public API.

Every output is checked exactly, and the gens, graph and moments files
must hash the same in every run of one checkout (digests are kept in
``.bench_build/perfbench``).  A failed check counts as a failed step and
makes the exit status 1.

``--trace 0`` repeats the pipeline while ``--seconds`` allows (at least
once) and reports end-to-end metrics as medians over the repetitions:

* ``wall_s``: the sum of the step times;
* ``setup_s``: the median of cold ``import cayplex.cli`` processes,
  spread over the pass;
* ``peak_rss_mb``: the largest peak resident set of any step.

The time of each stage (``gens_s``, ``graph_s``, ``moments_s`` with
``compare``, ``omega_hat_s``, ``attach_s``), the failed fraction of
steps, the machine, the thread settings and the line count of
``src/cayplex`` are printed above the result.  ``--trace 1`` runs the
pipeline untraced and then traced (see ``child.py``), runs the
``ffield`` microbench, and reports per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from tracer import span_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(WORK, "digests.json")

DEADLINE_S = 170.0  # the whole run, so that it ends within 180 s
SETUP_WARMUPS = 2
SETUP_PROBES = 12  # per pass, spread over its steps
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CLOSURE_MOMENTS = [1, 0, 62, 372, 11346, 159960, 3641198, 74134578,
                   1961764258, 64709223672, 2867781773322]
BALL_MOMENTS = [1, 0, 242, 0, 174966, 503360, 209380820]

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One process of a pipeline and the exact check of its output."""

    stage: str  # gens, graph, moments, omega_hat or attach
    label: str
    args: list  # cayplex CLI arguments, or the attach step's gens file
    check: object  # (stdout) -> error message or None
    outputs: dict = field(default_factory=dict)  # digest key -> file
    api: bool = False  # the attach step, run through child.py


def _expect_line(want):
    def check(out):
        return None if want in out else f"expected {want!r}, got {out.strip()[:200]!r}"

    return check


def _expect_moments(want, path):
    def check(out):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text != out:
            return "printed moments differ from the moments file"
        values = [int(line.split()[1]) for line in text.splitlines()[1:]]
        return None if values == want else f"moments {values} != {want}"

    return check


def _expect_attach(out):
    got = json.loads(out.strip().splitlines()[-1])
    want = {"size": 527, "classes": [85, 357, 85], "distinct": 527, "dims_ok": True}
    return None if got == want else f"attach report {got} != {want}"


def closure_d3q5(tmp, twists):
    (s,) = twists
    gens, graph, moments = (os.path.join(tmp, f) for f in ("c.gens", "c.graph", "c.moments"))
    return [
        Step("gens", f"gens q=5 d=3 s={s}",
             ["gens", "--q", "5", "--d", "3", "--s", str(s), "--sym", "--out", gens],
             _expect_line("kind=omegabar size=62 "), {f"gens.s{s}": gens}),
        Step("graph", "graph",
             ["graph", "--gens", gens, "--max-vertices", "400000", "--out", graph],
             _expect_line("n=372000 r=62 symmetric=True connected=True "),
             {f"graph.s{s}": graph}),
        Step("moments", "moments group-dp K=10",
             ["moments", "--gens", gens, "--graph", graph, "--strategy", "group-dp",
              "--kmax", "10", "--out", moments],
             _expect_moments(CLOSURE_MOMENTS, moments), {f"moments.s{s}": moments}),
    ]


def moments_d5q3(tmp, twists):
    steps, files = [], []
    for s in twists:
        gens, moments = os.path.join(tmp, f"m{s}.gens"), os.path.join(tmp, f"m{s}.moments")
        files.append(moments)
        steps.append(Step(
            "gens", f"gens q=3 d=5 s={s}",
            ["gens", "--q", "3", "--d", "5", "--s", str(s), "--sym", "--out", gens],
            _expect_line("kind=omegabar size=242 "), {f"gens.s{s}": gens}))
    for s in twists:
        gens, moments = os.path.join(tmp, f"m{s}.gens"), os.path.join(tmp, f"m{s}.moments")
        steps.append(Step(
            "moments", f"moments ball-mitm K=6 s={s}",
            ["moments", "--gens", gens, "--strategy", "ball-mitm", "--kmax", "6",
             "--out", moments],
            _expect_moments(BALL_MOMENTS, moments), {f"moments.s{s}": moments}))
    steps.append(Step("moments", "compare", ["compare", *files, "--mode", "moments"],
                      _expect_line("verdict=equal")))
    return steps


def omegahat_d4q4(tmp, twists):
    (s,) = twists
    gens = os.path.join(tmp, "h.gens")
    return [
        Step("omega_hat", f"omega-hat q=4 d=4 s={s}",
             ["omega-hat", "--q", "4", "--d", "4", "--s", str(s), "--out", gens],
             _expect_line("size=527 identity_words=8925 collisions=0 "),
             {f"gens.s{s}": gens}),
        Step("attach", "load + attach_subspace", [gens], _expect_attach, api=True),
    ]


@dataclass
class Workload:
    steps: object  # (tmp dir, twists) -> list of Step
    twists: object  # (random.Random) -> tuple of twists


# why each workload was chosen is recorded beside its name in BENCHMARK.json
WORKLOADS = {
    "closure-d3q5": Workload(closure_d3q5, lambda rng: (rng.choice((1, 2)),)),
    "moments-d5q3": Workload(moments_d5q3, lambda rng: tuple(rng.sample((1, 2, 3, 4), 2))),
    "omegahat-d4q4": Workload(omegahat_d4q4, lambda rng: (rng.choice((1, 3)),)),
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    rc: int
    out: str
    err: str
    wall: float
    rss_mb: float


class Runner:
    """Starts one child process at a time, never past the run deadline."""

    def __init__(self, tmp, deadline):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("CAYPLEX_MEM_BUDGET", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
        for var in THREAD_ENV:
            self.env[var] = "1"

    def run(self, argv) -> Proc:
        left = self.deadline - time.monotonic()
        if left <= 0:
            return Proc(-1, "", "run deadline passed before the step started", 0.0, 0.0)
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            errs = handle.read()
        return Proc(proc.returncode, text, errs, wall, usage.ru_maxrss / 1024.0)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class PassResult:
    walls: dict  # step label -> wall seconds
    stages: dict  # stage -> seconds
    rss_mb: float
    attempted: int
    failed: int
    errors: list
    traces: dict  # step label -> (trace dict, step wall)

    @property
    def wall(self):
        return sum(self.walls.values())


def run_pass(runner, workload, twists, digests, trace=False, probes=None) -> PassResult:
    """Run the pipeline once in a fresh directory and check every step.

    With ``probes`` (a list), cold-start probes are spread over the pass,
    a share before each step, and their times appended to it.
    """
    tmp = tempfile.mkdtemp(prefix="pass-", dir=runner.tmp)
    res = PassResult({}, {}, 0.0, 0, 0, [], {})
    steps = workload.steps(tmp, twists)
    try:
        for step in steps:
            if probes is not None:
                probes += probe_setup(runner, -(-SETUP_PROBES // len(steps)))
            trace_path = os.path.join(tmp, "trace.json")
            prefix = [os.path.join(HERE, "child.py")]
            if trace:
                prefix += ["--trace", trace_path]
            if step.api:
                argv = prefix + ["attach", *step.args]
            elif trace:
                argv = prefix + ["cli", *step.args, "--threads", "1"]
            else:
                argv = ["-m", "cayplex.cli", *step.args, "--threads", "1"]
            proc = runner.run(argv)
            res.attempted += 1
            res.walls[step.label] = proc.wall
            res.stages[step.stage] = res.stages.get(step.stage, 0.0) + proc.wall
            res.rss_mb = max(res.rss_mb, proc.rss_mb)
            error = check_step(step, proc, digests)
            if trace and error is None:
                with open(trace_path, encoding="utf-8") as handle:
                    res.traces[step.label] = (json.load(handle), proc.wall)
            if error is not None:
                res.failed += 1
                res.errors.append(f"{step.label}: {error}")
                break  # later steps need this one's output
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return res


def check_step(step, proc, digests):
    """The error of one finished step, or None when its output is right."""
    if proc.rc != 0:
        return f"exit status {proc.rc}: {proc.err.strip()[-300:]}"
    try:
        error = step.check(proc.out)
        for key, path in step.outputs.items():
            digest = sha256(path)
            if digests.setdefault(key, digest) != digest:
                error = error or f"{key} differs from an earlier run's output"
    except (ValueError, IndexError, OSError) as exc:  # missing or unreadable output
        error = f"cannot check the output: {exc!r}"
    return error


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------------


def _busy(*names):
    return lambda agg: sum(agg["busy"].get(n, 0.0) for n in names)


def _self(name):
    return lambda agg: agg["self"].get(name, 0.0)


def _calls(name):
    return lambda agg: agg["calls"].get(name, 0)


def _count(key):
    return lambda agg: agg["counts"].get(key, 0)


def _ratio(num, den):
    return lambda agg: num(agg) / den(agg) if den(agg) else 0.0


MANIFEST_SPANS = ("cli.RunManifest.add_input", "cli.RunManifest.add_output",
                  "cli.RunManifest.save")
FFIELD_METRICS = tuple(
    f"ffield.{op}.{f}.ops_per_s"
    for f in ("F3_5", "F4_4") for op in ("ext_add", "ext_neg", "ext_mul")
) + ("ffield.base_mul.F4.ops_per_s",)

LAYER_METRICS = (
    ("projmat.mul.s", "s", _busy("projmat.MatSpace.mul")),
    ("projmat.mul.rows", "count", _count("projmat.mul.rows")),
    ("projmat.canon.s", "s", _busy("projmat.MatSpace.canon")),
    ("projmat.canon.rows", "count", _count("projmat.canon.rows")),
    ("projmat.pack.s", "s", _busy("projmat.MatSpace.pack")),
    ("projmat.unpack.s", "s", _busy("projmat.MatSpace.unpack")),
    ("projmat.mat_inv.s", "s", _busy("projmat.mat_inv")),
    ("projmat.mat_inv.calls", "count", _calls("projmat.mat_inv")),
    ("cayley.closure.s", "s", _busy("cayley.closure_from_matrices")),
    ("cayley.closure.self_s", "s", _self("cayley.closure_from_matrices")),
    ("cayley.closure.vertices_per_s", "1/s",
     _ratio(_count("cayley.closure.vertices"), _busy("cayley.closure_from_matrices"))),
    ("cayley.export.s", "s", _busy("cayley.export_graph")),
    ("cayley.export.bytes", "bytes", _count("cayley.export.bytes")),
    ("cayley.import.s", "s", _busy("cayley.import_graph")),
    ("spectra.group_dp.s", "s", _busy("spectra.moments_group_dp")),
    ("spectra.ball_mitm.s", "s", _busy("spectra.moments_ball_mitm")),
    ("spectra.ball_mitm.self_s", "s", _self("spectra.moments_ball_mitm")),
    ("spectra.ball_mitm.words", "count", _count("spectra.ball_mitm.words")),
    ("spectra.ball_mitm.distinct", "count", _count("spectra.ball_mitm.distinct")),
    ("spectra.ball_mitm.words_per_s", "1/s",
     _ratio(_count("spectra.ball_mitm.words"), _busy("spectra.moments_ball_mitm"))),
    ("genforge.build_omega.s", "s", _busy("genforge.build_omega")),
    ("genforge.symmetrize.s", "s", _busy("genforge.symmetrize")),
    ("genforge.load.s", "s", _busy("genforge.GenSet.load")),
    ("genforge.build_omega_hat.s", "s", _busy("genforge.build_omega_hat")),
    ("genforge.build_omega_hat.self_s", "s", _self("genforge.build_omega_hat")),
    ("genforge.hat.candidates", "count", _count("genforge.hat.candidates")),
    ("genforge.hat.identity_words", "count", _count("genforge.hat.identity_words")),
    ("genforge.hat.useful_ratio", "ratio",
     _ratio(_count("genforge.hat.identity_words"), _count("genforge.hat.candidates"))),
    ("genforge.hat.words_verified_per_s", "1/s",
     _ratio(_count("genforge.hat.candidates"), _busy("genforge.build_omega_hat"))),
    ("genforge.attach_subspace.s", "s", _busy("genforge.attach_subspace")),
    ("genforge.attach_subspace.calls", "count", _calls("genforge.attach_subspace")),
    ("cyclic.pc_mul_omega.s", "s", _busy("cyclic.pc_mul_omega")),
    ("cyclic.pc_mul_omega.calls", "count", _calls("cyclic.pc_mul_omega")),
    ("cyclic.reduced_norm.s", "s", _busy("cyclic.CycElem.reduced_norm")),
    ("cyclic.reduced_norm.calls", "count", _calls("cyclic.CycElem.reduced_norm")),
    ("cyclic.inverse.s", "s", _busy("cyclic.CycElem.inverse")),
    ("cyclic.specialize.s", "s", _busy("cyclic.CycAlg.specialize")),
    ("cli.manifest.s", "s", _busy(*MANIFEST_SPANS)),
)


def layer_metrics(traces):
    """Sum span statistics and counters over the traced steps, and check
    that no span name is busy for longer than the step it ran in."""
    agg = {"busy": {}, "self": {}, "calls": {}, "counts": {}}
    errors = []
    for label, (trace, wall) in traces.items():
        for name, st in span_stats(trace).items():
            if st["busy"] > wall:
                errors.append(f"{label}: {name} busy {st['busy']:.3f} s > step {wall:.3f} s")
            for key in ("busy", "self", "calls"):
                agg[key][name] = agg[key].get(name, 0) + st[key]
        for key, value in trace["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    metrics = {name: {"value": fn(agg), "unit": unit} for name, unit, fn in LAYER_METRICS}
    spans = sum(len(trace["name"]) for trace, _ in traces.values())
    return metrics, spans, errors


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


def machine_info(numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def src_loc():
    pkg = os.path.join(SRC, "cayplex")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def save_digests(digests):
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def warm_up(runner):
    """Byte-compile the package and check that it comes from ``src``."""
    probe = ("import cayplex.cli, numpy; "
             "print(numpy.__version__); print(cayplex.cli.__file__)")
    numpy_version = None
    for _ in range(SETUP_WARMUPS):
        proc = runner.run(["-c", probe])
        if proc.rc != 0:
            raise RuntimeError(f"cayplex does not import: {proc.err.strip()[-300:]}")
        numpy_version, where = proc.out.split()[:2]
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise RuntimeError(f"cayplex imported from {where}, not from {SRC}")
    return numpy_version


def probe_setup(runner, count):
    """Times of ``count`` cold processes that only import cayplex.cli."""
    walls = []
    for _ in range(count):
        proc = runner.run(["-c", "import cayplex.cli"])
        if proc.rc != 0:
            raise RuntimeError(f"setup probe failed: {proc.err.strip()[-300:]}")
        walls.append(proc.wall)
    return walls


def report_pass(res):
    for label, wall in res.walls.items():
        print(f"  step {label}: {wall:.4f} s")
    for err in res.errors:
        print(f"  FAILED {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    # a terminated run still stops the step it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "cayplex", "cli.py")):
        print(f"error: no cayplex sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[ns.workload]
    twists = workload.twists(random.Random(ns.seed))
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    all_digests = load_digests()
    digests = all_digests.setdefault(ns.workload, {})
    try:
        runner = Runner(tmp, deadline)
        numpy_version = warm_up(runner)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
        print(f"workload {ns.workload} seed={ns.seed} twists={list(twists)} "
              f"trace={ns.trace}: {why[ns.workload]}")
        print("machine " + json.dumps(machine_info(numpy_version)))
        print("threads --threads 1 " + " ".join(f"{v}=1" for v in THREAD_ENV))
        print(f"src_loc {src_loc()}")
        if ns.trace:
            passes = [run_pass(runner, workload, twists, digests)]
            if not passes[0].errors:
                passes.append(run_pass(runner, workload, twists, digests, trace=True))
        else:
            probes, passes = [], []
            t0 = time.monotonic()
            while True:
                passes.append(run_pass(runner, workload, twists, digests, probes=probes))
                spent = time.monotonic() - t0
                if passes[-1].errors or spent + passes[-1].wall > ns.seconds:
                    break
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        errors = [e for p in passes for e in p.errors]
        for i, res in enumerate(passes):
            print(f"pass {i}{' traced' if ns.trace and i else ''}: {res.wall:.4f} s, "
                  f"peak {res.rss_mb:.1f} MB, stages "
                  + ", ".join(f"{k}_s={v:.4f}" for k, v in res.stages.items()))
            report_pass(res)

        metrics = {}
        if ns.trace and not errors:
            untraced, traced = passes
            metrics, spans, trace_errors = layer_metrics(traced.traces)
            failed += bool(trace_errors)
            errors += trace_errors
            proc = runner.run([os.path.join(HERE, "child.py"), "ffield", str(ns.seed)])
            attempted += 1
            if proc.rc != 0:
                failed += 1
                errors.append(f"ffield microbench: {proc.err.strip()[-300:]}")
            else:
                rates = json.loads(proc.out.strip().splitlines()[-1])
                for name in FFIELD_METRICS:
                    metrics[name] = {"value": rates[name], "unit": "1/s"}
            metrics["trace.untraced_wall_s"] = {"value": untraced.wall, "unit": "s"}
            metrics["trace.wall_s"] = {"value": traced.wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced.wall - untraced.wall, "unit": "s"}
            metrics["trace.spans"] = {"value": spans, "unit": "count"}
        elif not errors:
            def med(fn):
                return statistics.median(fn(p) for p in passes)

            values = {
                "wall_s": med(lambda p: p.wall),
                "setup_s": statistics.median(probes),
                "peak_rss_mb": med(lambda p: p.rss_mb),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            for stage in sorted({s for p in passes for s in p.stages}):
                print(f"stage {stage}_s = {med(lambda p: p.stages[stage]):.4f} s")
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']} {m['unit']}")
        print(f"fail_frac = {failed}/{attempted} = {failed / max(attempted, 1)}")
        for err in errors:
            print(f"ERROR {err}")
        if not errors:
            save_digests(all_digests)
        result = {"correct": not errors, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        print(json.dumps(result))
        return 0 if not errors else 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the command-line interface: artifact pipelines,
manifests, configuration handling, exit codes, and the packaged
verification suites."""

import hashlib
import os
import random
import re
import shutil
import time
import tracemalloc

import numpy as np
import pytest

from cayplex import cayley, cli, genforge
from cayplex.cayley import CayleyGraph, export_graph
from cayplex.cli import _sha256_file, main
from cayplex.ffield import get_field
from cayplex.genforge import GenSet
from cayplex.projmat import MatSpace
from cayplex.spectra import MomentSeq

from test_cayley import _binary_file


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Module-shared artifact directory with a small generator file and
    its closure graph built once."""
    root = tmp_path_factory.mktemp("cli")
    gens = str(root / "bar42.gens")
    graph = str(root / "g42.graph")
    assert main(["gens", "--q", "4", "--d", "2", "--sym", "--out", gens]) == 0
    assert main(["graph", "--gens", gens, "--out", graph]) == 0
    return {"root": root, "gens": gens, "graph": graph}


class TestArtifactCommands:
    def test_gens_writes_manifest_with_output_hash(self, workdir):
        gens = workdir["gens"]
        manifest = open(gens + ".manifest").read()
        assert "command=gens" in manifest
        assert f"output.{gens}={_sha(gens)}" in manifest
        assert "param.q=4" in manifest
        assert "seed=none" in manifest

    def test_gens_reproducible_byte_identical(self, workdir, tmp_path):
        again = str(tmp_path / "again.gens")
        assert main(
            ["gens", "--q", "4", "--d", "2", "--sym", "--out", again]
        ) == 0
        assert _sha(again) == _sha(workdir["gens"])

    def test_gens_summary_line(self, capsys, tmp_path):
        out = str(tmp_path / "om.gens")
        assert main(["gens", "--q", "4", "--d", "2", "--out", out]) == 0
        line = capsys.readouterr().out
        assert "kind=omega" in line and "size=5" in line

    def test_omega_hat_command(self, capsys, tmp_path):
        out = str(tmp_path / "hat53.gens")
        rc = main(["omega-hat", "--q", "5", "--d", "3", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "size=62" in printed
        assert "collisions=" in printed
        loaded = GenSet.load(out)
        assert len(loaded) == 62
        assert os.path.exists(out + ".manifest")

    def test_graph_manifest_links_input_hash(self, workdir):
        graph = workdir["graph"]
        manifest = open(graph + ".manifest").read()
        assert f"input.{workdir['gens']}={_sha(workdir['gens'])}" in manifest
        assert f"output.{graph}={_sha(graph)}" in manifest

    def test_graph_hashes_taken_as_bytes_pass(self, workdir, tmp_path):
        """The graph step hashes its output as it writes it, and the
        moments, spectrum and compare steps hash a graph as they read it;
        every manifest hash is the file's sha256, in either format."""
        gens = workdir["gens"]
        for fmt in ("binary", "text"):
            graph = str(tmp_path / f"g42.{fmt}")
            other = str(tmp_path / f"copy.{fmt}")
            assert main(["graph", "--gens", gens, "--format", fmt, "--out", graph]) == 0
            assert main(["graph", "--gens", gens, "--format", fmt, "--out", other]) == 0
            digest = _sha256_file(graph)
            manifest = open(graph + ".manifest").read()
            assert f"output.{graph}={digest}" in manifest
            runs = {
                "moments": ["moments", "--gens", gens, "--graph", graph, "--kmax", "4",
                            "--strategy", "group-dp"],
                "spectrum": ["spectrum", "--graph", graph],
                "compare": ["compare", graph, other, "--mode", "spectrum"],
            }
            for name, argv in runs.items():
                out = str(tmp_path / f"{name}.{fmt}")
                assert main(argv + ["--out", out]) == 0
                manifest = open(out + ".manifest").read()
                assert f"input.{graph}={digest}" in manifest
                assert f"output.{out}={_sha256_file(out)}" in manifest
            assert f"input.{other}={_sha256_file(other)}" in manifest

    def test_graph_text_format(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "g42.txt")
        rc = main(
            ["graph", "--gens", workdir["gens"], "--out", out,
             "--format", "text"]
        )
        assert rc == 0
        assert "n=60" in capsys.readouterr().out
        assert open(out).read().startswith("version=")

    def test_moments_prints_and_saves(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.moments")
        rc = main(
            ["moments", "--gens", workdir["gens"], "--kmax", "6",
             "--strategy", "group-dp", "--out", out]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "K=6" in printed
        seq = MomentSeq.load(out)
        assert seq[0] == 1 and seq[2] == 5
        assert seq.genset_hash == _sha(workdir["gens"])

    def test_moments_stamps_the_gens_file_hash(self, workdir, tmp_path):
        """A gens file that is not in canonical form (here, with a
        trailing blank line) is stamped with its file hash, the same
        value the moments and graph manifests record for it."""
        gens = str(tmp_path / "edited.gens")
        with open(gens, "w") as handle:
            handle.write(open(workdir["gens"]).read() + "\n")
        digest = _sha(gens)
        assert GenSet.load(gens).content_hash() == digest
        assert GenSet.load(gens).to_text() == open(workdir["gens"]).read()
        out = str(tmp_path / "m.moments")
        assert main(["moments", "--gens", gens, "--kmax", "4",
                     "--strategy", "group-dp", "--out", out]) == 0
        assert MomentSeq.load(out).genset_hash == digest
        assert f"input.{gens}={digest}" in open(out + ".manifest").read()
        graph = str(tmp_path / "g.graph")
        assert main(["graph", "--gens", gens, "--out", graph]) == 0
        assert f"input.{gens}={digest}" in open(graph + ".manifest").read()

    def test_moments_reuses_prebuilt_graph(self, workdir, tmp_path, capsys):
        """``--graph`` is checked against ``--gens`` and changes nothing
        else: the moment file is byte-identical to the one written
        without it, and the graph of another system exits 2."""
        out1 = str(tmp_path / "a.moments")
        out2 = str(tmp_path / "b.moments")
        base = ["moments", "--gens", workdir["gens"], "--kmax", "4",
                "--strategy", "group-dp"]
        assert main(base + ["--out", out1]) == 0
        assert main(
            base + ["--graph", workdir["graph"], "--out", out2]
        ) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        other_gens = str(tmp_path / "bar33.gens")
        other = str(tmp_path / "g33.graph")
        assert main(["gens", "--q", "3", "--d", "3", "--sym", "--out", other_gens]) == 0
        assert main(["graph", "--gens", other_gens, "--out", other]) == 0
        capsys.readouterr()
        out3 = tmp_path / "c.moments"
        assert main(base + ["--graph", other, "--out", str(out3)]) == 2
        assert "not built from" in capsys.readouterr().err
        assert not out3.exists()

    def test_spectrum_command(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "s.spectrum")
        rc = main(["spectrum", "--graph", workdir["graph"], "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "method=dense-symmetric" in printed
        assert printed.splitlines()[1].startswith("5 ")
        assert os.path.exists(out + ".manifest")

    def test_compare_file_against_itself_is_equal(self, workdir, tmp_path,
                                                  capsys):
        out = str(tmp_path / "m.moments")
        assert main(
            ["moments", "--gens", workdir["gens"], "--kmax", "6",
             "--strategy", "group-dp", "--out", out]
        ) == 0
        capsys.readouterr()
        assert main(["compare", out, out, "--mode", "moments"]) == 0
        assert "verdict=equal" in capsys.readouterr().out

    def test_compare_graphs_spectrum_mode(self, workdir, capsys):
        rc = main(
            ["compare", workdir["graph"], workdir["graph"],
             "--mode", "spectrum"]
        )
        assert rc == 0
        assert "verdict=isospectral" in capsys.readouterr().out

    def test_compare_iso_mode_self(self, workdir, capsys):
        rc = main(
            ["compare", workdir["graph"], workdir["graph"], "--mode", "iso"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict=isomorphic" in out

    def test_family_command_reports_single_class(self, capsys, tmp_path):
        out = str(tmp_path / "fam.txt")
        rc = main(["family", "--q", "5", "--d", "3", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "m=1" in printed
        assert "member=0 s=1 hash=" in printed
        assert open(out).read() in printed + ""


class TestConfigAndErrors:
    def test_config_file_supplies_options(self, tmp_path, workdir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=4\nd=2\n# comment line\nsym=true\n")
        out = str(tmp_path / "cfg.gens")
        rc = main(["gens", "--config", str(cfg), "--out", out])
        assert rc == 0
        assert _sha(out) == _sha(workdir["gens"])

    def test_flags_override_config(self, tmp_path, workdir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=4\n")
        out = str(tmp_path / "m.moments")
        rc = main(
            ["moments", "--gens", workdir["gens"], "--config", str(cfg),
             "--kmax", "6", "--strategy", "group-dp", "--out", out]
        )
        assert rc == 0
        assert MomentSeq.load(out).values[6] > 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("vibes=9\n")
        rc = main(["gens", "--config", str(cfg), "--out",
                   str(tmp_path / "x.gens")])
        assert rc == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("q=3\nd=3\nq=5\n")
        out = tmp_path / "x.gens"
        rc = main(["gens", "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "configuration key 'q' given twice" in capsys.readouterr().err

    def test_config_booleans(self, tmp_path, capsys):
        cfg = tmp_path / "sym.cfg"
        out = tmp_path / "x.gens"
        for value, kind in (("on", "omegabar"), ("TRUE", "omegabar"),
                            ("off", "omega"), ("0", "omega")):
            cfg.write_text(f"q=4\nd=2\nsym={value}\n")
            assert main(["gens", "--config", str(cfg), "--out", str(out)]) == 0
            assert GenSet.load(str(out)).kind == kind, value
        out.unlink()
        for value in ("banana", "2", ""):
            cfg.write_text(f"q=4\nd=2\nsym={value}\n")
            rc = main(["gens", "--config", str(cfg), "--out", str(out)])
            assert rc == 2 and not out.exists(), value
            assert f"{value!r} is not a boolean" in capsys.readouterr().err

    def test_invalid_parameters_exit_2_and_no_partial_output(self, tmp_path,
                                                             capsys):
        out = str(tmp_path / "bad.gens")
        rc = main(["gens", "--q", "6", "--d", "2", "--out", out])
        assert rc == 2
        assert not os.path.exists(out)
        capsys.readouterr()

    def test_missing_required_option_exit_2(self, capsys):
        rc = main(["gens", "--q", "4", "--d", "2"])
        assert rc == 2
        assert "--out is required" in capsys.readouterr().err

    def test_memory_budget_abort_exit_2_no_partial_output(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "hat.gens")
        rc = main(
            ["omega-hat", "--q", "3", "--d", "5", "--mem-budget", "1000",
             "--out", out]
        )
        assert rc == 2
        assert "resource abort" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_moments_k9_k10_refuse_budget_before_allocating(self, tmp_path, capsys):
        """moments at K=9 and K=10 on (3,5) refuse a budget they cannot
        keep (exit 2) before they allocate what it cannot hold: a tiny
        one at orbit level 1, and at K=10 one that holds orbit levels
        0..4 but not the buckets of the top level 5 in 16 passes, before
        any pass over its 197M products; the traced peak of that run
        stays below the budget and below what the refusal says is
        needed."""
        gens = str(tmp_path / "bar35.gens")
        assert main(["gens", "--q", "3", "--d", "5", "--sym", "--out", gens]) == 0
        cases = [("9", 1000, "orbit level 1 "), ("10", 1000, "orbit level 1 "),
                 ("10", 400 << 20, "top orbit level 5 ")]
        for kmax, budget, where in cases:
            out = tmp_path / f"k{kmax}.moments"
            tracemalloc.start()
            try:
                rc = main(["moments", "--gens", gens, "--kmax", kmax,
                           "--mem-budget", str(budget), "--out", str(out)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert rc == 2 and not out.exists()
            assert where in err and f"(budget {budget})" in err
            if budget > 1000:
                need = int(re.search(r"needs ~(\d+) bytes", err).group(1))
                assert peak < budget < need

    def test_vertex_limit_abort_exit_2(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "tiny.graph")
        rc = main(
            ["graph", "--gens", workdir["gens"], "--max-vertices", "10",
             "--out", out]
        )
        assert rc == 2
        assert not os.path.exists(out)
        capsys.readouterr()

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "vibes"])
        assert info.value.code == 2
        capsys.readouterr()


def _parsed(monkeypatch, argv):
    """The namespace ``main`` hands to the command for ``argv``, with
    every command replaced by one that only keeps it."""
    seen = []
    build = cli._build_parser

    def keeping():
        parser, commands = build()
        for p in commands.values():
            p.set_defaults(func=lambda ns: seen.append(ns) or 0)
        return parser, commands

    monkeypatch.setattr(cli, "_build_parser", keeping)
    assert main(argv) == 0
    options = vars(seen[0])
    return {k: v for k, v in options.items() if k not in ("func", "config")}


_SAMPLES = {int: ("7", "8"), float: ("2.5", "3.5"), None: ("x.txt", "y.txt")}


class TestParserDefinesOptions:
    def test_config_line_equals_flag_and_flag_wins(self, monkeypatch, tmp_path):
        """For every optional key of every subcommand, read from its
        parser, a config line gives the namespace the flag gives, and a
        flag given beside the line overrides it."""
        _, commands = cli._build_parser()
        cfg = tmp_path / "one.cfg"
        checked = 0
        for name, parser in commands.items():
            base = [name] + (["a", "b"] if name == "compare" else [])
            for action in parser._actions:
                key = action.dest
                if not action.option_strings or key in ("help", "config"):
                    continue
                flag = action.option_strings[0]
                if action.nargs == 0:
                    cfg.write_text(f"{key}=on\n")
                    want = _parsed(monkeypatch, base + [flag])
                    assert _parsed(monkeypatch, base + ["--config", str(cfg)]) == want
                    cfg.write_text(f"{key}=off\n")
                    got = _parsed(monkeypatch, base + ["--config", str(cfg), flag])
                    assert got == want, (name, key)
                    continue
                values = action.choices or _SAMPLES[action.type]
                first = next(v for v in values if v != action.default)
                second = next(v for v in values if v != first)
                cfg.write_text(f"{key}={first}\n")
                want = _parsed(monkeypatch, base + [f"{flag}={first}"])
                assert want[key] != action.default, (name, key)
                got = _parsed(monkeypatch, base + ["--config", str(cfg)])
                assert got == want, (name, key)
                want = _parsed(monkeypatch, base + [flag, second])
                got = _parsed(monkeypatch, base + ["--config", str(cfg), flag, second])
                assert got == want, (name, key)
                checked += 1
        assert checked > 30

    def test_config_values_checked_before_any_work(self, bar53, workdir, tmp_path,
                                                   capsys):
        """A config value that the flag's type or choices refuse exits 2
        as the flag does, before any file is read or built."""
        gens = str(tmp_path / "bar53.gens")
        bar53.save(gens)
        out = tmp_path / "out"
        cases = (
            ("format=xml", ["graph", "--gens", gens], "invalid choice: 'xml'"),
            ("mode=bogus", ["compare", workdir["graph"], workdir["graph"]],
             "invalid choice: 'bogus'"),
            ("q=abc", ["gens", "--d", "3"], "invalid int value: 'abc'"),
        )
        for line, argv, needle in cases:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            start = time.perf_counter()
            with pytest.raises(SystemExit) as info:
                main(argv + ["--config", str(cfg), "--out", str(out)])
            assert time.perf_counter() - start < 1.0, line
            assert info.value.code == 2 and not out.exists(), line
            assert needle in capsys.readouterr().err, line

    def test_family_manifest_records_given_alpha(self, tmp_path):
        """The alpha changes the members, so a given one is a param line;
        a default one is not, and the threads always are."""
        lines = {}
        for alpha in (None, "1"):
            out = str(tmp_path / f"fam-{alpha}.txt")
            argv = ["family", "--q", "5", "--d", "3", "--out", out]
            assert main(argv + (["--alpha", alpha] if alpha else [])) == 0
            manifest = open(out + ".manifest").read().splitlines()
            lines[alpha] = [ln for ln in manifest if ln.startswith("param.")]
            assert "param.threads=1" in lines[alpha]
        assert open(tmp_path / "fam-1.txt").read() != open(tmp_path / "fam-None.txt").read()
        assert "param.alpha=1" in lines["1"]
        assert not any(ln.startswith("param.alpha=") for ln in lines[None])
        # without their prefix, the param lines are a config that reruns it
        out = str(tmp_path / "fam-1.txt")
        first = open(out).read()
        os.remove(out)
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("".join(ln[len("param."):] + "\n" for ln in lines["1"]))
        assert main(["family", "--config", str(cfg)]) == 0
        assert open(out).read() == first
        manifest = open(out + ".manifest").read().splitlines()
        assert [ln for ln in manifest if ln.startswith("param.")] == lines["1"]

    def test_budget_recorded_when_not_given(self, workdir, tmp_path):
        runs = (
            ["omega-hat", "--q", "4", "--d", "2"],
            ["moments", "--gens", workdir["gens"], "--kmax", "2"],
        )
        for argv in runs:
            out = str(tmp_path / f"{argv[0]}.out")
            assert main(argv + ["--out", out]) == 0
            manifest = open(out + ".manifest").read().splitlines()
            assert f"param.mem_budget={4 << 30}" in manifest, argv[0]


class TestVerifySuites:
    def test_families_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "families"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS family-count-q3-d5" in out
        assert "PASS family-count-q3-d7" in out
        assert "failed=0" in out

    def test_pipeline_suite_certifies_twist_pair(self, capsys):
        """One closure, and the certificate in place of a search: twist 2
        is -1 mod 3, so transpose-inverse relates the (5,3) pair."""
        rc = main(["verify", "--suite", "pipeline-d3q5"])
        out = capsys.readouterr().out
        assert rc == 0 and "checks=6 failed=0" in out
        assert "PASS twist-pair-isomorphic-by-transpose-inverse" in out

    def test_moments_suite_refutes_automorphism(self, capsys):
        rc = main(["verify", "--suite", "moments-d5q3"])
        out = capsys.readouterr().out
        assert rc == 0 and "checks=9 failed=0" in out
        assert "PASS twist-pair-no-automorphism-induced-isomorphism" in out

    def test_paper_suite_reports_single_honest_failure(self, capsys):
        rc = main(["verify", "--suite", "paper-d5q3"])
        out = capsys.readouterr().out
        assert rc == 1
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        fails = [l for l in lines if l.startswith("FAIL")]
        assert len(fails) == 1
        assert "twist-1-generator-cubed-equals-twist-2" in fails[0]
        for name in (
            "frobenius-matrix-printed-form",
            "multiplication-matrix-printed-form",
            "tau-has-order-121",
            "twist-1-generator-printed-form",
            "twist-2-generator-cubed-equals-twist-1",
            "generator-power-map-q-times-twist",
            "system-cardinalities",
            "product-system-color-classes",
            "reduced-norms-of-all-conjugates",
            "subspace-attachment-bijection",
        ):
            assert any(
                l.startswith("PASS") and name in l for l in lines
            ), name


_HEADER_TOKENS = ("kind", "q", "d", "s", "alpha", "mod")
_LINE_TOKENS = ("idx", "j", "color", "inv", "mat")


def _drop_token(line, key):
    return " ".join(t for t in line.split() if not t.startswith(key + "="))


def _run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    import subprocess
    import sys

    import cayplex

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cayplex.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "cayplex.cli", *args],
        capture_output=True, text=True, env=env,
    )


def _assert_usage_error(proc, needle, case):
    """Exit 2 with one ``error:`` line containing ``needle``, no traceback."""
    assert proc.returncode == 2, (case, proc.stderr)
    assert "Traceback" not in proc.stderr, (case, proc.stderr)
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and needle in errors[0], (case, proc.stderr)


def test_missing_gens_token_exit_2_without_traceback(workdir, tmp_path):
    """Every required token of a generator file, when missing, is a usage
    error (exit 2, one error line), never an uncaught exception."""
    lines = open(workdir["gens"]).read().splitlines()
    cases = [(0, k) for k in _HEADER_TOKENS] + [(1, k) for k in _LINE_TOKENS]
    for row, key in cases:
        bad = list(lines)
        bad[row] = _drop_token(bad[row], key)
        path = tmp_path / f"no-{key}.gens"
        path.write_text("\n".join(bad) + "\n")
        proc = _run_cli("graph", "--gens", str(path), "--out", str(tmp_path / "x.graph"))
        _assert_usage_error(proc, f"{key}=", key)


def test_gens_digit_out_of_range_exit_2_without_traceback(workdir, tmp_path):
    """A matrix digit outside 0..p-1 in a file over F_4 is a usage error
    naming the generator, not a crash or a silently different code."""
    lines = open(workdir["gens"]).read().splitlines()
    assert "bmod=" in lines[0]
    for pair in ("3,1", "2,0"):
        bad = list(lines)
        head, _, mat = bad[2].partition("mat=")
        bad[2] = head + "mat=" + pair + mat[3:]
        path = tmp_path / "digit.gens"
        path.write_text("\n".join(bad) + "\n")
        proc = _run_cli("graph", "--gens", str(path), "--out", str(tmp_path / "x.graph"))
        _assert_usage_error(proc, "digit out of range 0..1 at idx=1", pair)


def test_alpha_out_of_range_exit_2_without_traceback(tmp_path):
    """alpha must be a code of F_q: 0 <= alpha < q."""
    for alpha in ("300", "-1", "7"):
        proc = _run_cli("gens", "--q", "3", "--d", "5", "--alpha", alpha,
                        "--out", str(tmp_path / "a.gens"))
        _assert_usage_error(proc, f"alpha = {alpha} ", alpha)
        assert not (tmp_path / "a.gens").exists()


def _swap_partner_colors(text):
    """Generator 0 and its inverse partner with their stored colors
    swapped: the colors still complement each other."""
    lines = text.splitlines()
    kv = dict(tok.split("=", 1) for tok in lines[1].split())
    k = int(kv["inv"]) + 1
    c0 = kv["color"]
    ck = dict(tok.split("=", 1) for tok in lines[k].split())["color"]
    lines[1] = lines[1].replace(f" color={c0} ", f" color={ck} ")
    lines[k] = lines[k].replace(f" color={ck} ", f" color={c0} ")
    return "\n".join(lines) + "\n"


def test_swapped_partner_colors_exit_2_without_traceback(bar53, hat53, tmp_path):
    """The load demands each stored color (1, d-1 on inverses, the word
    length on the product system), so a swapped pair is a usage error
    rather than a wrong color-restricted moment."""
    for gs in (bar53, hat53):
        path = tmp_path / f"{gs.kind}-swapped.gens"
        path.write_text(_swap_partner_colors(gs.to_text()))
        proc = _run_cli("moments", "--gens", str(path), "--colors", "1",
                        "--kmax", "4", "--strategy", "ball-mitm")
        _assert_usage_error(proc, "color 2 at idx=0", gs.kind)


def test_truncated_base_system_exit_2_without_traceback(omega53, tmp_path):
    """A base-system file must hold all n conjugates: without its last
    line the moments would be those of a smaller, wrong system."""
    path = tmp_path / "short.gens"
    path.write_text("\n".join(omega53.to_text().splitlines()[:-1]) + "\n")
    proc = _run_cli("moments", "--gens", str(path), "--kmax", "4",
                    "--strategy", "ball-mitm")
    _assert_usage_error(proc, "base system has 30 entries, expected n = 31",
                        "truncated")


def test_repeated_base_conjugate_exit_2_without_traceback(omega53, tmp_path):
    """Entry i of a base system is the conjugate j = i: a copy of entry 0
    standing in for entry 1 is rejected, not counted twice."""
    lines = omega53.to_text().splitlines()
    lines[2] = lines[1].replace("idx=0 ", "idx=1 ")
    path = tmp_path / "repeated.gens"
    path.write_text("\n".join(lines) + "\n")
    proc = _run_cli("moments", "--gens", str(path), "--kmax", "4",
                    "--strategy", "ball-mitm")
    _assert_usage_error(proc, "base entry idx=1 has j=0, expected j=1", "repeated")


def test_zero_and_singular_matrix_exit_2_without_traceback(omega53, tmp_path):
    """A gens file without a manifest whose entry idx=2 holds the zero
    matrix, or a canonical but singular one, is rejected at load with the
    entry named."""
    lines = omega53.to_text().splitlines()
    cases = (
        ("zero", "0,0,0,0,0,0,0,0,0", "matrix at idx=2 is zero"),
        # first nonzero entry 1, second row twice the first
        ("singular", "1,2,0,2,4,0,0,0,1", "matrix at idx=2 is singular"),
    )
    for case, mat, needle in cases:
        bad = list(lines)
        bad[3] = bad[3].split("mat=")[0] + "mat=" + mat
        path = tmp_path / f"{case}.gens"
        path.write_text("\n".join(bad) + "\n")
        proc = _run_cli("moments", "--gens", str(path), "--kmax", "4",
                        "--strategy", "ball-mitm")
        _assert_usage_error(proc, needle, case)


def test_threads_below_one_exit_2(tmp_path):
    for threads in ("-3", "0"):
        proc = _run_cli("gens", "--q", "4", "--d", "2", "--threads", threads,
                        "--out", str(tmp_path / "t.gens"))
        _assert_usage_error(proc, f"--threads must be at least 1, got {threads}",
                            threads)
        assert not (tmp_path / "t.gens").exists()


def test_max_vertices_below_one_exit_2(workdir, tmp_path):
    for cap in ("0", "-5"):
        out = tmp_path / "g.bin"
        proc = _run_cli("graph", "--gens", workdir["gens"], "--max-vertices", cap,
                        "--out", str(out))
        _assert_usage_error(proc, f"--max-vertices must be at least 1, got {cap}", cap)
        assert not out.exists()


def test_corrupted_text_artifacts_exit_2_without_traceback(workdir, tmp_path):
    """A text artifact truncated inside its last value, or with one byte
    flipped, no longer matches the output hash of its manifest, so the
    load rejects it instead of reading the damage as data."""
    rng = random.Random(806)
    moments = str(tmp_path / "m.moments")
    graph = str(tmp_path / "g.txt")
    assert main(["moments", "--gens", workdir["gens"], "--kmax", "6",
                 "--strategy", "group-dp", "--out", moments]) == 0
    assert main(["graph", "--gens", workdir["gens"], "--format", "text",
                 "--out", graph]) == 0
    cases = (
        ("moments", moments, lambda path: ("compare", path, moments, "--mode", "moments")),
        ("gens", workdir["gens"], lambda path: ("moments", "--gens", path, "--kmax", "2")),
        ("graph", graph, lambda path: ("spectrum", "--graph", path)),
    )
    for fmt, src, argv in cases:
        data = open(src, "rb").read()
        last = data.rstrip(b"\n")
        cut = rng.randrange(last.rfind(b" ") + 1, len(last))
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1
        for name, blob in (("truncated", data[:cut]), ("flipped", bytes(flipped))):
            path = str(tmp_path / f"{name}.{fmt}")
            with open(path, "wb") as handle:
                handle.write(blob)
            shutil.copy(src + ".manifest", path + ".manifest")
            _assert_usage_error(_run_cli(*argv(path)), "manifest", (fmt, name))


@pytest.fixture(scope="module")
def text_graph(workdir):
    """The lines of the (4,2) closure in text form."""
    path = str(workdir["root"] / "g42.txt")
    assert main(["graph", "--gens", workdir["gens"], "--format", "text",
                 "--out", path]) == 0
    return open(path).read().splitlines()


def _retargeted_edge(lines, seed):
    """One seeded edge line ``e u v i c`` with v moved to another vertex."""
    rng = random.Random(seed)
    n = int(dict(tok.split("=") for tok in lines[0].split())["n"])
    bad = list(lines)
    k = rng.randrange(n + 1, len(lines))
    tag, u, v, i, c = bad[k].split()
    w = (int(v) + rng.randrange(1, n)) % n
    bad[k] = f"{tag} {u} {w} {i} {c}"
    return bad


def test_text_graph_wrong_edge_moments_exit_2(workdir, text_graph, tmp_path):
    """With no manifest beside it, an edge target edited in a text graph
    is found by recomputing the edges from the vertex keys, rather than
    read as data into wrong group-dp moments."""
    path = tmp_path / "edge.txt"
    path.write_text("\n".join(_retargeted_edge(text_graph, 907)) + "\n")
    proc = _run_cli("moments", "--gens", workdir["gens"], "--graph", str(path),
                    "--kmax", "6", "--strategy", "group-dp")
    _assert_usage_error(proc, "edge target", "moments")


def test_graph_without_generators_exit_2(tmp_path):
    """A graph of the identity alone with r = 0, text or binary, is a
    usage error for ``spectrum`` and ``compare --mode iso``, not a
    traceback from the edge check."""
    F = get_field(5)
    ms = MatSpace(F, 3)
    nbr = np.empty((1, 0), dtype=np.int32)
    G = CayleyGraph(F, 3, ms.pack(ms.identity_batch(1)), nbr, [], True, True)
    for fmt in ("text", "binary"):
        path = str(tmp_path / f"empty.{fmt}")
        export_graph(G, path, format=fmt)
        for args in (("spectrum", "--graph", path), ("compare", path, path, "--mode", "iso")):
            _assert_usage_error(_run_cli(*args), "at least one generator", (fmt, args[0]))


def test_text_graph_past_memory_budget_exit_2(monkeypatch, capsys, workdir, text_graph):
    """A text graph whose parse would pass the memory budget is refused
    before it is read, with exit 2 and a pointer to the binary format:
    under ``moments --mem-budget``, and with the default budget patched
    down for ``spectrum`` and ``compare``.  At the estimate it loads."""
    path = str(workdir["root"] / "g42.txt")
    budget = cayley._TEXT_PARSE_BYTES * os.path.getsize(path) - 1

    def unread(text):
        raise AssertionError("the text graph was parsed")

    with monkeypatch.context() as m:
        m.setattr(cayley, "graph_from_text", unread)
        m.setattr(cayley, "MEM_BUDGET", budget)
        for args in (
            ("moments", "--gens", workdir["gens"], "--graph", path, "--kmax", "2",
             "--strategy", "group-dp", "--mem-budget", str(budget)),
            ("spectrum", "--graph", path),
            ("compare", path, path, "--mode", "iso"),
        ):
            assert main(list(args)) == 2, args
            err = capsys.readouterr().err
            assert "resource abort" in err and "--format binary" in err, args
    monkeypatch.setattr(cayley, "MEM_BUDGET", budget + 1)
    assert main(["spectrum", "--graph", path]) == 0


def test_text_graph_wrong_edge_spectrum_exit_2(text_graph, tmp_path):
    """The same edited graph is a usage error for the dense spectrum, not
    an assertion failure on its asymmetric adjacency."""
    path = tmp_path / "edge.txt"
    path.write_text("\n".join(_retargeted_edge(text_graph, 907)) + "\n")
    proc = _run_cli("spectrum", "--graph", str(path))
    _assert_usage_error(proc, "edge target", "spectrum")


def test_spectrum_colors_checked_against_gens(workdir, text_graph, tmp_path):
    """Edge colours are read from the graph file but follow from the
    generator system, so a graph whose generator 0 was recoloured from 1
    to 2 on all its edge lines (a canonical file that loads) is refused
    by group-dp rather than read with the wrong colour classes."""
    recoloured = []
    for line in text_graph:
        tag, *rest = line.split()
        if tag == "e" and rest[2] == "0":
            assert rest[3] == "1"
            line = " ".join([tag, *rest[:3], "2"])
        recoloured.append(line)
    assert recoloured != text_graph
    path = tmp_path / "recoloured.txt"
    path.write_text("\n".join(recoloured) + "\n")
    proc = _run_cli("moments", "--gens", workdir["gens"], "--graph", str(path),
                    "--kmax", "4", "--strategy", "group-dp")
    _assert_usage_error(proc, "colours disagree", "moments")


def test_spectrum_takes_the_whole_graph(workdir, tmp_path):
    """``spectrum`` has no colour restriction: ``--colors`` and ``--gens``
    are unrecognized flags and unknown config keys (exit 2), and the
    graph alone gives the spectrum of all its generators."""
    for flag, value in (("--colors", "1"), ("--gens", workdir["gens"])):
        proc = _run_cli("spectrum", "--graph", workdir["graph"], flag, value)
        assert proc.returncode == 2, (flag, proc.stderr)
        assert "unrecognized arguments" in proc.stderr, (flag, proc.stderr)
        cfg = tmp_path / f"{flag[2:]}.cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        proc = _run_cli("spectrum", "--graph", workdir["graph"], "--config", str(cfg))
        _assert_usage_error(proc, "unknown configuration key", flag)
    proc = _run_cli("spectrum", "--graph", workdir["graph"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("version=1 n=60 r=5 ")


def test_spectrum_byte_key_graph_headers_exit_2(text_graph, tmp_path):
    """A text header and a binary header that name q=3 d=7, whose keys
    do not fit int64, are usage errors for ``spectrum``."""
    head = text_graph[0].replace("q=4 d=2", "q=3 d=7").replace(" bmod=1,1,1", "")
    text = tmp_path / "g37.txt"
    text.write_text("\n".join([head] + text_graph[1:]) + "\n")
    binary = tmp_path / "g37.graph"
    binary.write_bytes(_binary_file(3, 7))
    for path in (text, binary):
        _assert_usage_error(_run_cli("spectrum", "--graph", str(path)), "int64 keys", path)


def test_graph_of_byte_key_system_exit_2(monkeypatch, capsys, tmp_path):
    """``graph`` on the (3,7) omega-bar system, whose keys do not fit
    int64, is a usage error naming them before any closure runs, and it
    writes neither a graph nor a manifest."""
    gens = str(tmp_path / "bar37.gens")
    assert main(["gens", "--q", "3", "--d", "7", "--sym", "--out", gens]) == 0

    def never(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(cli, "bfs_build", never)
    out = tmp_path / "g37.graph"
    capsys.readouterr()
    assert main(["graph", "--gens", gens, "--out", str(out)]) == 2
    assert "int64 keys" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bar37.gens", "bar37.gens.manifest"]


def test_base_system_past_budget_exit_2(monkeypatch, capsys, tmp_path):
    """A base system whose estimate is past the budget is a resource
    abort (exit 2) before it is built, and nothing is written: (3,5)
    under a budget patched below its estimate, and (3,13), n = 797,161,
    under the default.  The (3,13) child runs under a 1 GiB
    address-space limit, so a build that is not refused fails there
    instead of exhausting the machine's memory."""
    import resource
    import subprocess
    import sys

    out = tmp_path / "x.gens"
    monkeypatch.setattr(genforge, "MEM_BUDGET", 1 << 20)
    assert main(["gens", "--q", "3", "--d", "5", "--out", str(out)]) == 2
    assert "resource abort: a system of 121 generators" in capsys.readouterr().err
    assert not out.exists()

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cayplex.cli", "gens", "--q", "3", "--d", "13",
         "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "resource abort: a system of 797161 generators" in proc.stderr
    assert not out.exists()


def test_text_graph_vertex_value_out_of_range_exit_2(text_graph, tmp_path):
    """A vertex value past q^(d*d) - 1 is rejected before it is packed
    into an int64 key."""
    bad = list(text_graph)
    bad[2] = "v " + "f" * 20
    path = tmp_path / "vertex.txt"
    path.write_text("\n".join(bad) + "\n")
    proc = _run_cli("spectrum", "--graph", str(path))
    _assert_usage_error(proc, "outside 0..q^(d*d)-1", "vertex")


def test_non_canonical_files_exit_2_without_traceback(workdir, text_graph, tmp_path):
    """Each reader accepts exactly what its writer writes: a gens header
    with a token the writer never writes, a moment header with a second
    K=, and a text graph with two edge lines swapped are usage errors
    that name the first line that differs."""
    moments = str(tmp_path / "m.moments")
    assert main(["moments", "--gens", workdir["gens"], "--kmax", "4",
                 "--strategy", "group-dp", "--out", moments]) == 0
    gens = open(workdir["gens"]).read().splitlines()
    gens[0] += " foo=1"
    seq = open(moments).read().splitlines()
    seq[0] += " K=9"
    graph = list(text_graph)
    graph[-1], graph[-2] = graph[-2], graph[-1]
    cases = (
        ("gens", gens, lambda path: ("moments", "--gens", path, "--kmax", "2")),
        ("moments", seq, lambda path: ("compare", path, moments, "--mode", "moments")),
        ("graph", graph, lambda path: ("spectrum", "--graph", path)),
    )
    for fmt, lines, argv in cases:
        path = str(tmp_path / f"bad.{fmt}")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        _assert_usage_error(_run_cli(*argv(path)), "where the writer writes", fmt)


def test_huge_kmax_exit_2(workdir, tmp_path):
    """Both strategies refuse K = 10^9 at once, from the exponent alone."""
    for strategy in ("group-dp", "ball-mitm"):
        out = tmp_path / "m.moments"
        proc = _run_cli("moments", "--gens", workdir["gens"], "--kmax", str(10**9),
                        "--strategy", strategy, "--out", str(out))
        _assert_usage_error(proc, "overflows", strategy)
        assert not out.exists()


def test_ball_mitm_with_graph_exit_2(workdir, tmp_path):
    """A graph is checked against the generators only by group-dp, so
    ball-mitm refuses one instead of listing it as an unchecked input,
    before the graph is read: a path that does not exist gets the same
    refusal."""
    out = tmp_path / "m.moments"
    for graph in (workdir["graph"], str(tmp_path / "missing.graph")):
        proc = _run_cli("moments", "--gens", workdir["gens"], "--graph", graph,
                        "--kmax", "4", "--strategy", "ball-mitm", "--out", str(out))
        _assert_usage_error(proc, "only by group-dp", graph)
        assert proc.stdout == ""
        assert not out.exists() and not os.path.exists(str(out) + ".manifest")


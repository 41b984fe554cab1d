"""End-to-end tests of the command-line interface: artifact pipelines,
manifests, configuration handling, exit codes, and the packaged
verification suites."""

import hashlib
import os
import random
import shutil

import pytest

from cayplex.cli import main
from cayplex.genforge import GenSet
from cayplex.spectra import MomentSeq, SpectrumReport


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

    def test_moments_reuses_prebuilt_graph(self, workdir, tmp_path):
        out1 = str(tmp_path / "a.moments")
        out2 = str(tmp_path / "b.moments")
        base = ["moments", "--gens", workdir["gens"], "--kmax", "4",
                "--strategy", "group-dp"]
        assert main(base + ["--out", out1]) == 0
        assert main(
            base + ["--graph", workdir["graph"], "--out", out2]
        ) == 0
        assert open(out1).read() == open(out2).read()

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
            ["compare", workdir["graph"], workdir["graph"], "--mode", "iso",
             "--timeout", "30"]
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


class TestVerifySuites:
    def test_families_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "families"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS family-count-q3-d5" in out
        assert "PASS family-count-q3-d7" in out
        assert "failed=0" in out

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


def test_corrupted_text_artifacts_exit_2_without_traceback(workdir, tmp_path):
    """A text artifact truncated inside its last value, or with one byte
    flipped, no longer matches the output hash of its manifest, so the
    load rejects it instead of reading the damage as data."""
    rng = random.Random(806)
    moments = str(tmp_path / "m.moments")
    spectrum = str(tmp_path / "s.spectrum")
    graph = str(tmp_path / "g.txt")
    assert main(["moments", "--gens", workdir["gens"], "--kmax", "6",
                 "--strategy", "group-dp", "--out", moments]) == 0
    assert main(["spectrum", "--graph", workdir["graph"], "--out", spectrum]) == 0
    assert main(["graph", "--gens", workdir["gens"], "--format", "text",
                 "--out", graph]) == 0
    cases = (
        ("moments", moments, lambda path: ("compare", path, moments, "--mode", "moments")),
        ("gens", workdir["gens"], lambda path: ("moments", "--gens", path, "--kmax", "2")),
        ("graph", graph, lambda path: ("spectrum", "--graph", path)),
        ("spectrum", spectrum, None),
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
            if argv is None:
                # no command reads a spectrum file back
                with pytest.raises(ValueError, match="manifest"):
                    SpectrumReport.load(path)
            else:
                _assert_usage_error(_run_cli(*argv(path)), "manifest", (fmt, name))
    assert SpectrumReport.load(spectrum).n == 60

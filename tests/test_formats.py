"""Seeded token-mutation sweeps over the text formats.  Each format is
defined by its writer: a reader accepts exactly the text the writer
writes for what it read (blank lines aside) and raises ValueError on
anything else."""

import random

import pytest

from cayplex.cayley import graph_from_text
from cayplex.genforge import GenSet, build_omega, make_params, symmetrize
from cayplex.spectra import MomentSeq, walk_moments

from test_cayley import _graph_text


def _mutants(text, count, seed):
    """``count`` distinct seeded one-step edits of ``text``: delete,
    duplicate, swap or append a space-separated token, swap two lines,
    bump a digit, or insert ``0``, ``+`` or ``-`` before a digit."""
    rng = random.Random(seed)
    lines = text.splitlines()
    out = set()
    while len(out) < count:
        k = rng.randrange(len(lines))
        edited = list(lines)
        toks = lines[k].split(" ")
        t, u = rng.randrange(len(toks)), rng.randrange(len(toks))
        op = rng.randrange(7)
        if op == 0:
            del toks[t]
        elif op == 1:
            toks.insert(t, toks[t])
        elif op == 2:
            toks[t], toks[u] = toks[u], toks[t]
        elif op == 3:
            toks.append(rng.choice(rng.choice(lines).split(" ")))
        if op < 4:
            edited[k] = " ".join(toks)
        elif op == 4:
            m = rng.randrange(len(lines))
            edited[k], edited[m] = edited[m], edited[k]
        else:
            line = lines[k]
            at = rng.choice([i for i, ch in enumerate(line) if ch.isdigit()])
            new = str((int(line[at]) + 1) % 10) if op == 5 else rng.choice("0+-") + line[at]
            edited[k] = line[:at] + new + line[at + 1 :]
        mutant = "\n".join(edited) + "\n"
        if mutant != text:
            out.add(mutant)
    return sorted(out)


def _refused_or_canonical(text, read, write, count):
    """Each mutant of ``text`` raises ValueError, or loads as exactly
    the text its writer writes for what was read."""
    loaded = 0
    for mutant in _mutants(text, count, seed=count):
        try:
            back = read(mutant)
        except ValueError:
            continue
        assert write(back) == mutant
        loaded += 1
    assert loaded < count


@pytest.fixture(scope="module")
def omega33():
    return build_omega(make_params(3, 3))


@pytest.fixture(scope="module")
def bar33(omega33):
    return symmetrize(omega33)


@pytest.mark.parametrize(
    "name, count",
    [("omega42", 150), ("bar42", 150), ("omega33", 150), ("bar33", 150), ("hat44", 50)],
)
def test_gens_mutants_refused(request, name, count):
    """A one-step edit of a generator file never loads: every value in
    the file is checked against the lifts, and every byte against the
    writer's line."""
    gs = request.getfixturevalue(name)
    for mutant in _mutants(gs.to_text(), count, seed=name):
        with pytest.raises(ValueError):
            GenSet.from_text(mutant)


def test_moment_mutants_refused_or_canonical(bar42):
    """A moment value edited into another valid count still loads (the
    manifest is what catches it), but only as the text the writer
    writes for it; any other edit raises ValueError, and so does a
    genset= field that is not 64 lowercase hex digits, in a file the
    writer would write for it."""
    seq = walk_moments(bar42, 8, "group-dp")
    _refused_or_canonical(seq.to_text(), MomentSeq.from_text, MomentSeq.to_text, 200)
    genset = seq.genset_hash
    for bad in ("xyz", genset[:-1], genset + "0", genset.upper(), "g" + genset[1:]):
        with pytest.raises(ValueError, match="genset"):
            MomentSeq.from_text(seq.to_text().replace(genset, bad))


def test_graph_mutants_refused_or_canonical(graph42, tmp_path):
    def write(G):
        return _graph_text(G, tmp_path / "g.txt")

    _refused_or_canonical(write(graph42), graph_from_text, write, 150)

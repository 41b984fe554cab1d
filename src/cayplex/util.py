"""Small shared utilities: a deterministic parallel map, atomic file
writes, manifest-checked reads, and the check that a text file is
exactly what its writer writes.

Parallel work is split by the caller into fixed items (blocks of
products, rows or candidate words) whose results are returned in item
order, so outputs are byte-identical for any worker count (including the
serial path).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from itertools import zip_longest


def ordered_map(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]``, in the order of ``items``: the list of
    ``ordered_imap``."""
    return list(ordered_imap(fn, items, threads))


def ordered_imap(fn, items, threads: int = 1):
    """``fn(x)`` for each of ``items``, yielded lazily in item order.

    With ``threads <= 1`` the work runs serially, as it is consumed;
    otherwise the items are dispatched to one pool of at most
    ``os.cpu_count()`` threads, which runs at most one item per worker
    ahead of the consumer, so the results held at once stay bounded and
    still come back in item order: the output is independent of the
    worker count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # imported here: the serial path is the common one, and the pool
    # module costs a few milliseconds at startup
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    workers = min(threads, os.cpu_count() or 1)
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for x in items:
                pending.append(pool.submit(fn, x))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # a consumer that stops early leaves no queued work behind
            for future in pending:
                future.cancel()


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp file + rename); return
    the sha256 hex digest of the bytes written."""
    return atomic_write_parts(path, [text.encode("utf-8")])


def atomic_write_parts(path: str, parts) -> str:
    """Write the byte buffers ``parts``, one after another, to ``path``
    atomically (temp file + rename), so that they are never joined in
    memory; return the sha256 hex digest of the bytes written, taken as
    they are written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                digest.update(part)
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest.hexdigest()


def read_checked_text(path: str) -> tuple[str, str]:
    """The UTF-8 text of ``path`` and the sha256 hex digest of its
    bytes, checked by :func:`check_manifest`."""
    with open(path, "rb") as handle:
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    check_manifest(path, digest)
    return data.decode("utf-8"), digest


def check_manifest(path: str, digest: str) -> None:
    """When ``<path>.manifest`` exists, require ``digest``, the sha256
    hex digest of the contents of ``path``, to be one of the manifest's
    ``output.`` hashes; otherwise raise ValueError."""
    try:
        with open(path + ".manifest", "r", encoding="utf-8") as handle:
            manifest = handle.read()
    except FileNotFoundError:
        return
    outputs = {
        line.rpartition("=")[2]
        for line in manifest.splitlines()
        if line.startswith("output.")
    }
    if digest not in outputs:
        raise ValueError(
            f"{path} does not match the output hash in {path}.manifest"
        )


class Tokens(dict):
    """The ``key=value`` tokens of one line of a text file; a key the
    line lacks raises ValueError naming it."""

    def __init__(self, line: str):
        super().__init__(tok.partition("=")[::2] for tok in line.split())
        self.line = line

    def __missing__(self, key):
        raise ValueError(f"no {key}= token in {self.line!r}")


def check_canonical(lines, written, what: str) -> None:
    """Raise ValueError unless ``lines``, the non-blank lines of a
    ``what`` file, are ``written``, an iterable of the lines its writer
    writes for what was read from them, consumed as it is compared.
    Each text format is defined by its writer alone, so a reader accepts
    exactly what the writer writes and names the first line that
    differs."""
    for k, (read, wrote) in enumerate(zip_longest(lines, written, fillvalue="")):
        if read != wrote:
            raise ValueError(
                f"{what} non-blank line {k + 1} reads {read!r}, where the "
                f"writer writes {wrote!r}"
            )

"""Small shared utilities: deterministic chunked parallel mapping,
atomic file writes, and manifest-checked reads.

Parallel verification work is split into fixed chunks whose results are
reassembled in submission order, so outputs are byte-identical for any
worker count (including the serial path).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor


def ordered_chunked_map(fn, items, *, threads: int = 1, chunk: int = 1024):
    """Apply ``fn`` to fixed-size chunks of ``items`` and concatenate the
    per-chunk result lists in chunk order.

    ``fn`` receives a list slice and must return a list.  With
    ``threads <= 1`` the work runs serially; otherwise chunks are
    dispatched to a pool of at most ``os.cpu_count()`` threads but
    results are still merged in order, so the output is independent of
    the worker count.
    """
    items = list(items)
    if not items:
        return []
    chunks = [items[i : i + chunk] for i in range(0, len(items), chunk)]
    if threads <= 1 or len(chunks) == 1:
        out = []
        for c in chunks:
            out.extend(fn(c))
        return out
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        results = list(pool.map(fn, chunks))
    out = []
    for r in results:
        out.extend(r)
    return out


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename)."""
    _atomic_write(path, data)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checked_text(path: str) -> str:
    """The UTF-8 text of ``path``, checked by :func:`check_manifest`."""
    with open(path, "rb") as handle:
        data = handle.read()
    check_manifest(path, data)
    return data.decode("utf-8")


def check_manifest(path: str, data: bytes) -> None:
    """When ``<path>.manifest`` exists, require the sha256 of ``data``,
    the contents of ``path``, to be one of the manifest's ``output.``
    hashes; otherwise raise ValueError."""
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
    if hashlib.sha256(data).hexdigest() not in outputs:
        raise ValueError(
            f"{path} does not match the output hash in {path}.manifest"
        )

"""Atomic, durable file primitives shared by the durability layer.

POSIX gives exactly one crash-safe publication primitive: write the
new content to a *temporary file in the same directory*, ``fsync`` it,
then ``os.replace`` it over the destination and ``fsync`` the
directory so the rename itself is durable.  A reader (or a recovery
pass after a crash at any instant) sees either the old complete file
or the new complete file — never a truncated hybrid.

Everything in the repo that publishes a file another process may read
— checkpoints, experiment JSON/CSV artifacts — goes through
:func:`atomic_write_bytes` / :func:`atomic_write_text`; the DUR001
static-analysis rule enforces this for ``repro.service`` and
``repro.experiments``.

The optional *fault* hook is the :class:`~repro.durability.faults.CrashInjector`
seam: it is invoked at each crash-relevant boundary (after the temp
write, after the temp fsync, after the replace) so tests can prove the
destination is intact no matter where the sequence dies.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Callable


def fsync_dir(path: Path) -> None:
    """Flush directory metadata (a rename/unlink) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path,
    data: bytes,
    durable: bool = True,
    fault: Callable[[str], None] | None = None,
) -> Path:
    """Atomically publish *data* at *path*; returns the path.

    The write is all-or-nothing: an interruption at any point leaves
    either the previous content of *path* or nothing new — never a
    truncated file.  With ``durable=True`` (the default) the content
    and the rename are both ``fsync``ed before returning.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fault is not None:
                fault("atomic.write")
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        if fault is not None:
            fault("atomic.sync")
        os.replace(tmp, path)
        if fault is not None:
            fault("atomic.replace")
        if durable:
            fsync_dir(path.parent)
    except BaseException:
        # Leave no temp debris behind a failed publication; the
        # destination still holds its previous content.
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return path


def atomic_write_text(
    path: str | Path,
    text: str,
    durable: bool = True,
) -> Path:
    """Atomically publish *text*, UTF-8 encoded, at *path*; returns the
    path."""
    return atomic_write_bytes(path, text.encode("utf-8"), durable=durable)

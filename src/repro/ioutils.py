"""Crash-safe filesystem primitives shared across the package.

A process can be SIGKILLed between any two syscalls, so every file this
package wants to survive a crash is written with the classic
write-to-temp / fsync / :func:`os.replace` dance: readers either see the
complete old content or the complete new content, never a torn mix.
The model registry, the telemetry ``metrics.json`` snapshot and the
result store manifests all write through these helpers.
"""

from __future__ import annotations

import os
import tempfile


def fsync_directory(path: str | os.PathLike) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best effort: some platforms/filesystems refuse to open directories
    (or to fsync them); durability of the rename is then up to the OS.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike, data: bytes, fsync: bool = True
) -> None:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + replace).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem atomic rename.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(directory)


def atomic_write_text(
    path: str | os.PathLike, text: str, fsync: bool = True
) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)

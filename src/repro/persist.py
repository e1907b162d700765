"""Crash-safe writes for the persisted caches.

The feature ``.npz``, the token and fitted-model pickles, and the
``ExperimentWorld`` pickle are all read back by later runs, and their
loaders treat an unreadable file as a cold cache.  Writing them in place
would let a crash mid-write replace a good file with a truncated one;
:func:`atomic_write` writes a temporary file beside the target and renames
it over the target, so readers see the old file or the new one, never a
torn one.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["atomic_write"]


def atomic_write(path: Path, dump: Callable[[BinaryIO], None]) -> Path:
    """Write *path* through ``dump(fh)`` atomically; returns *path*.

    The temporary file lives in the target's directory (``os.replace`` is
    atomic only within one file system) and is removed if *dump* raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("wb") as fh:
            dump(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path

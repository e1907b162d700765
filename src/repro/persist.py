"""Crash-safe, producer-keyed files for the two persisted caches.

Two caches outlive a process: the ``ExperimentWorld`` pickle
(``--world-cache``) and the fitted-model pickle (``--model-cache``).  Both
load and save through :func:`load_cache`/:func:`save_cache`, which keep an
envelope ``{format, producer, payload}`` in one file: the header
``{"format": ..., "producer": ...}`` is pickled first and the payload right
after it, so a loader checks the header without unpickling the payload.

* ``format`` names the kind of cache, so a model file passed as a world
  cache is not mistaken for one.
* ``producer`` is :func:`source_digest`, a sha256 over every ``.py`` file of
  this package.  Any change to the code that built a payload makes the file
  stale, so no hand-bumped revision number has to track the pickled layout
  or the generators behind it.

A missing file is a cold load.  An unreadable or truncated file is a cold
load counted in ``cache.corrupt``; a readable file with another format or
producer is a cold load counted in ``cache.stale``.  Saves go through
:func:`atomic_write`: a temporary file beside the target is renamed over
it, so readers see the old file or the new one, never a torn one.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import uuid
from pathlib import Path
from typing import Any, BinaryIO, Callable

from .obs import ObsRegistry

__all__ = ["atomic_write", "load_cache", "package_digest", "save_cache", "source_digest"]

_PACKAGE = Path(__file__).resolve().parent


def package_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every ``.py`` file under *root*."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@functools.cache
def source_digest() -> str:
    """The producer digest of this package's code, computed once per process."""
    return package_digest(_PACKAGE)


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


def save_cache(path: Path, fmt: str, payload: Any) -> Path:
    """Write *payload* to *path* under a ``{format: fmt, producer}`` header."""
    header = {"format": fmt, "producer": source_digest()}

    def dump(fh: BinaryIO) -> None:
        pickle.dump(header, fh)
        pickle.dump(payload, fh)

    return atomic_write(path, dump)


def load_cache(path: Path, fmt: str, obs: ObsRegistry | None = None) -> Any | None:
    """The payload :func:`save_cache` wrote to *path* with this code, else ``None``.

    ``None`` is a cold load: the file is missing, unreadable (counted in
    ``cache.corrupt`` on *obs*), or written under another format or by
    other code (counted in ``cache.stale``).
    """
    if not path.exists():
        return None
    try:
        with path.open("rb") as fh:
            header = pickle.load(fh)
            if (
                isinstance(header, dict)
                and header.get("format") == fmt
                and header.get("producer") == source_digest()
            ):
                return pickle.load(fh)
    except Exception:
        if obs is not None:
            obs.add("cache.corrupt")
        return None
    if obs is not None:
        obs.add("cache.stale")
    return None

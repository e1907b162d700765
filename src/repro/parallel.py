"""One process-pool primitive for the embarrassingly parallel stages.

World construction (one shard per repository), feature extraction and
tokenization over many commits, model and tree fits, linting, and the
autofix loop are all independent per item.  :func:`map_chunks` runs such
work either in-process or through a ``concurrent.futures`` process pool
(the work is pure Python, so threads would serialize on the GIL) and owns
everything the two paths must agree on:

* **Path choice** — the pool runs only when ``workers > 1`` and there are
  at least ``min_items`` items (default ``2 * workers``: below about two
  chunks per worker the pool costs more than it saves).
* **Chunking** — the items are split by index into ``min(len(items),
  4 * workers)`` contiguous chunks: enough that stragglers rebalance, big
  enough to amortize IPC.  Concatenating the chunk results in chunk order
  gives exactly the serial result order.
* **State** — *state* reaches each worker once, through the pool
  initializer, not once per chunk.
* **Observability merge protocol** — each worker chunk records into a fresh
  local :class:`~repro.obs.ObsRegistry` whose snapshot rides back with the
  chunk result; the parent merges the snapshots in chunk order after the
  pool finishes, so the merged counters, timer call counts, and histogram
  lengths equal a serial run's.  The pool attempt is timed under
  ``<name>_parallel``.
* **Fallback policy** — only pool-infrastructure failures fall back to the
  serial path, each adding 1 to the ``pool_fallback.<name>`` counter: the
  pool cannot start (``OSError``, ``NotImplementedError``), a worker dies
  (``BrokenProcessPool``), or a chunk or its result cannot be pickled.  An
  exception raised by *fn* itself is tagged inside the worker and re-raised
  in the caller with its original type (its ``__cause__`` carries the
  worker traceback); it is never retried.

``fn(state, chunk, obs)`` is the single implementation of a site's
per-item work.  The serial path calls it once, in-process, on all items
with the caller's registry; the pool path calls it per chunk in workers.

Workers come from the platform's default start method (``fork`` on Linux),
so they inherit the parent's imported modules instead of re-importing them.
"""

from __future__ import annotations

import concurrent.futures
import pickle
from typing import Any, Callable

from .obs import ObsRegistry, ObsSnapshot

__all__ = ["ChunkResults", "map_chunks"]

#: ``fn(state, chunk, obs) -> list`` with one result per chunk item.
ChunkFn = Callable[[Any, list, ObsRegistry], list]

#: Pool failures that fall back to serial, unless raised by *fn* itself.
#: ``BrokenExecutor`` is the base of ``BrokenProcessPool``; naming the base
#: keeps ``concurrent.futures.process`` (and multiprocessing) unimported
#: until a pool is first built.  Pickling failures surface as
#: ``PicklingError``, ``TypeError`` or ``AttributeError`` depending on the
#: object and the Python version.
_INFRA_ERRORS = (
    OSError,
    NotImplementedError,
    concurrent.futures.BrokenExecutor,
    pickle.PicklingError,
    TypeError,
    AttributeError,
)

#: Attribute set on an exception raised by *fn* inside a worker.
_RAISED_BY_FN = "_repro_raised_by_fn"

# (fn, state) of the pool this worker process serves; set by _init_worker.
_WORKER: tuple[ChunkFn, Any] | None = None


class ChunkResults(list):
    """The per-item results of :func:`map_chunks`, in item order.

    Attributes:
        parallel: True when a process pool produced the results (callers
            that count work per path, like ``fits_parallel``, read it).
    """

    def __init__(self, results: list, parallel: bool) -> None:
        super().__init__(results)
        self.parallel = parallel


def _init_worker(fn: ChunkFn, state: Any) -> None:
    global _WORKER
    _WORKER = (fn, state)


def _run_chunk(chunk: list) -> tuple[list, ObsSnapshot]:
    """Run *fn* over one chunk in a worker, into a local registry."""
    assert _WORKER is not None
    fn, state = _WORKER
    local = ObsRegistry()
    try:
        results = fn(state, chunk, local)
    except Exception as exc:
        # Survives the trip back: exceptions pickle their ``__dict__``.
        setattr(exc, _RAISED_BY_FN, True)
        raise
    return results, local.snapshot()


def _split(items: list, n_chunks: int) -> list[list]:
    """*items* as *n_chunks* contiguous slices whose sizes differ by <= 1."""
    size, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (i < extra)
        chunks.append(items[start:end])
        start = end
    return chunks


def map_chunks(
    fn: ChunkFn,
    items: list,
    *,
    workers: int | None,
    obs: ObsRegistry,
    name: str,
    state: Any = None,
    min_items: int | None = None,
) -> ChunkResults:
    """``fn(state, items, obs)``, fanned out over a process pool when it pays.

    Args:
        fn: module-level ``fn(state, chunk, obs) -> list`` returning one
            result per chunk item; must record observations into *obs*.
        items: the work items (a list; chunks are slices of it).
        workers: pool size; ``None`` or ``<= 1`` runs serially.
        obs: the caller's registry.  The serial path records into it
            directly; pool chunks are merged into it in chunk order.
        name: labels the ``<name>_parallel`` timer and the
            ``pool_fallback.<name>`` counter.
        state: read-only context passed to every *fn* call; sent to each
            worker once.
        min_items: fewest items worth a pool (default ``2 * workers``).

    Returns:
        The concatenated per-item results, identical on either path.

    Raises:
        Exception: whatever *fn* raised, with its original type, whether it
            ran in-process or in a worker.
    """
    if workers is not None and workers > 1:
        threshold = min_items if min_items is not None else 2 * workers
        if len(items) >= threshold:
            with obs.timer(f"{name}_parallel"):
                parts = _map_pool(fn, items, workers, obs, state)
            if parts is not None:
                return ChunkResults([r for part in parts for r in part], parallel=True)
            obs.add(f"pool_fallback.{name}")
    return ChunkResults(fn(state, items, obs), parallel=False)


def _map_pool(
    fn: ChunkFn, items: list, workers: int, obs: ObsRegistry, state: Any
) -> list[list] | None:
    """Per-chunk results from a pool, or None on an infrastructure failure."""
    chunks = _split(items, min(len(items), 4 * workers))
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(fn, state)
        ) as pool:
            outputs = list(pool.map(_run_chunk, chunks))
    except _INFRA_ERRORS as exc:
        if getattr(exc, _RAISED_BY_FN, False):
            raise
        # Nothing merged yet, so the serial path starts from a clean slate.
        return None
    for _, snapshot in outputs:
        obs.merge(snapshot)
    return [results for results, _ in outputs]

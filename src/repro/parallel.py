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
* **State** — *state* reaches the workers by ``fork`` only, never by
  pickle: a module global points at it while a pool forks its workers
  (all of them fork inside the pool's first ``submit``), and each worker
  keeps the copy it inherited.  Only ``fn`` (by reference) and the chunk
  are pickled per chunk.  Workers therefore see *state* as it was when
  their pool forked; it must not change, as far as *fn* reads it, while
  the pool lives.
* **Lifetime** — at most one pool stays live per process, owned by the
  state its workers inherited.  It serves every later call with the same
  worker count whose *state* is ``None`` or that very object; any other
  call shuts it down first.  A state that can be weakly referenced then
  forks a fresh live pool.  The parent holds that state only weakly, and
  shuts its pool down when the state is collected, so the workers exit
  (and run their exit hooks) as soon as the caller drops it.  Any other
  call (``state=None`` with no live pool, or a state that cannot be weakly
  referenced: lint's and autofix's tuples and lists) gets a one-shot pool,
  shut down before the call returns.  So a site with per-call data and no
  state of its own (``fit_many``, the forest's trees) passes that data in
  its items with ``state=None``, and runs on whatever live pool serves its
  worker count.  A forked child never uses its parent's pool.  Because the
  live pool is process-wide, call :func:`map_chunks` from one thread only:
  a process that runs server threads (``repro.serve``) never pools.
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

Workers come from the ``fork`` start method, asked for explicitly (Python
3.14 makes ``forkserver`` Linux's default, under which a fork-inherited
state would be missing), so they also inherit the parent's imported
modules instead of re-importing them.  Where ``fork`` is unavailable the
pool cannot start, and the call falls back to serial, counted.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pickle
import weakref
from typing import Any, Callable, NamedTuple

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

# In the parent: the state of the pool whose workers may fork right now.
# Set only around a pool's submissions, so the parent never pins a state.
_FORKING: Any = None

# In a worker: the state its pool forked with (copied by _adopt_state, so a
# nested map_chunks in the worker cannot change it).
_WORKER_STATE: Any = None


class _Pool(NamedTuple):
    """The live pool: its executor, its size, the pid that forked it and a
    weak reference to the state its workers inherited."""

    executor: concurrent.futures.ProcessPoolExecutor
    workers: int
    pid: int
    state: weakref.ref


_LIVE: _Pool | None = None


class ChunkResults(list):
    """The per-item results of :func:`map_chunks`, in item order.

    Attributes:
        parallel: True when a process pool produced the results (callers
            that count work per path, like ``fits_parallel``, read it).
    """

    def __init__(self, results: list, parallel: bool) -> None:
        super().__init__(results)
        self.parallel = parallel


def _adopt_state() -> None:
    global _WORKER_STATE
    _WORKER_STATE = _FORKING


def _run_chunk(fn: ChunkFn, stateful: bool, chunk: list) -> tuple[list, ObsSnapshot]:
    """Run *fn* over one chunk in a worker, into a local registry."""
    local = ObsRegistry()
    try:
        results = fn(_WORKER_STATE if stateful else None, chunk, local)
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
        state: read-only context passed to every *fn* call; workers inherit
            it by fork, and the live pool is reused while calls pass the
            same object (see the module docstring).
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
        outputs = _run_pool(fn, chunks, workers, state)
    except _INFRA_ERRORS as exc:
        if getattr(exc, _RAISED_BY_FN, False):
            raise
        # A pool that failed once is not trusted again.  Nothing merged
        # yet, so the serial path starts from a clean slate.
        _retire()
        return None
    for _, snapshot in outputs:
        obs.merge(snapshot)
    return [results for results, _ in outputs]


def _run_pool(fn: ChunkFn, chunks: list[list], workers: int, state: Any) -> list:
    """``_run_chunk`` over *chunks* on the live pool that serves *state*,
    or on a one-shot pool."""
    global _FORKING
    live = _live_pool(workers, state)
    executor = live.executor if live is not None else _new_executor(workers)
    try:
        _FORKING = live.state() if live is not None else state
        try:
            pending = executor.map(
                _run_chunk, itertools.repeat(fn), itertools.repeat(state is not None), chunks
            )
        finally:
            _FORKING = None
        return list(pending)
    finally:
        if live is None:
            executor.shutdown()


def _live_pool(workers: int, state: Any) -> _Pool | None:
    """The live pool serving (*workers*, *state*), retiring the current
    one if it cannot; None when the call needs a one-shot pool."""
    global _LIVE
    live = _LIVE
    if (
        live is not None
        and live.pid == os.getpid()
        and live.workers == workers
        and (state is None or live.state() is state)
    ):
        return live
    _retire()
    if state is None:
        return None
    try:
        ref = weakref.ref(state)
    except TypeError:
        return None
    _LIVE = _Pool(_new_executor(workers), workers, os.getpid(), ref)
    weakref.finalize(state, _retire, _LIVE)
    return _LIVE


def _new_executor(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError as exc:  # no fork on this platform
        raise NotImplementedError("process pools need the fork start method") from exc
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_adopt_state
    )


def _retire(pool: _Pool | None = None) -> None:
    """Shut *pool* (default: the live one) down and join its workers,
    unless another process forked it."""
    global _LIVE
    pool = pool if pool is not None else _LIVE
    if pool is None or pool.pid != os.getpid():
        return
    if pool is _LIVE:
        _LIVE = None
    pool.executor.shutdown()


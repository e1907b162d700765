"""Tests for :func:`repro.parallel.map_chunks`.

Pins the two paths' parity, the fallback contract (an exception raised by
``fn`` in a worker propagates; only pool-infrastructure failures fall back,
each counted), the live pool's lifetime (reused per state, shut down with
it), and that no other module builds its own process pool.
"""

from __future__ import annotations

import ast
import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import pytest

import repro
from repro.obs import ObsRegistry
from repro.parallel import map_chunks


def _square(offset, chunk, obs):
    out = []
    for x in chunk:
        with obs.timer("square"):
            out.append(x * x + offset)
        obs.add("squared")
    return out


def _call(state, chunk, obs):
    return [f() for f in chunk]


def _raises_in_child(state, chunk, obs):
    parent, exc_type = state
    if os.getpid() != parent:
        raise exc_type("bug in a worker")
    return list(chunk)


def _exits_in_child(parent, chunk, obs):
    if os.getpid() != parent:
        os._exit(1)
    return list(chunk)


class _State:
    """A state that can be weakly referenced; ``parent`` is the pid of the
    process that made it."""

    def __init__(self) -> None:
        self.parent = os.getpid()


def _pid(state, chunk, obs):
    return [os.getpid() for _ in chunk]


def _state_parent(state, chunk, obs):
    return [state.parent for _ in chunk]


def _state_exits_in_child(state, chunk, obs):
    return _exits_in_child(state.parent, chunk, obs)


def _pool_pids(state) -> set[int]:
    """The pids that ran a pooled call with *state*."""
    result = map_chunks(_pid, list(range(8)), workers=2, obs=ObsRegistry(), name="toy", state=state)
    assert result.parallel
    return set(result)


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestPaths:
    def test_serial_and_pool_agree(self):
        items = list(range(20))
        serial_obs, pool_obs = ObsRegistry(), ObsRegistry()
        serial = map_chunks(_square, items, workers=None, obs=serial_obs, name="toy", state=3)
        pooled = map_chunks(_square, items, workers=2, obs=pool_obs, name="toy", state=3)
        assert serial == pooled == [x * x + 3 for x in items]
        assert not serial.parallel and pooled.parallel
        assert pool_obs.counters == serial_obs.counters == {"squared": 20}
        assert pool_obs.calls("square") == serial_obs.calls("square") == 20
        assert len(pool_obs.histograms["square"]) == 20
        assert pool_obs.calls("toy_parallel") == 1
        assert serial_obs.calls("toy_parallel") == 0

    def test_min_items_threshold(self):
        obs = ObsRegistry()
        assert not map_chunks(_square, [1, 2, 3], workers=2, obs=obs, name="toy", state=0).parallel
        assert map_chunks(
            _square, [1, 2], workers=2, obs=obs, name="toy", state=0, min_items=2
        ).parallel
        assert not map_chunks(_square, list(range(9)), workers=1, obs=obs, name="toy", state=0).parallel


class TestFallbackContract:
    @pytest.mark.parametrize("exc_type", [ValueError, OSError, TypeError])
    def test_worker_exception_propagates(self, exc_type):
        # OSError and TypeError are also pool-infrastructure types; raised
        # by fn they must still propagate rather than fall back.
        obs = ObsRegistry()
        with pytest.raises(exc_type, match="bug in a worker"):
            map_chunks(
                _raises_in_child,
                list(range(8)),
                workers=2,
                obs=obs,
                name="toy",
                state=(os.getpid(), exc_type),
            )
        assert obs.count("pool_fallback.toy") == 0

    def test_unpicklable_chunk_falls_back(self):
        items = [functools.partial(int, i) for i in range(7)] + [lambda: 7]
        obs = ObsRegistry()
        result = map_chunks(_call, items, workers=2, obs=obs, name="toy")
        assert result == list(range(8))
        assert not result.parallel
        assert obs.count("pool_fallback.toy") == 1

    def test_dead_worker_falls_back(self):
        obs = ObsRegistry()
        result = map_chunks(
            _exits_in_child, list(range(8)), workers=2, obs=obs, name="toy", state=os.getpid()
        )
        assert result == list(range(8))
        assert not result.parallel
        assert obs.count("pool_fallback.toy") == 1


class TestLivePool:
    def test_same_state_reuses_the_workers(self):
        state = _State()
        first = _pool_pids(state)
        workers = _children()
        second = _pool_pids(state)
        assert _children() == workers
        assert first | second <= workers

    def test_new_state_gets_new_workers(self):
        state = _State()
        first = _pool_pids(state)
        replacement = _State()
        second = _pool_pids(replacement)
        assert first.isdisjoint(second)
        assert all(_gone(pid) for pid in first)

    def test_stateless_call_reuses_the_live_pool(self):
        state = _State()
        _pool_pids(state)
        workers = _children()
        assert _pool_pids(None) <= workers
        assert _children() == workers
        # The stateful pool still serves its state afterwards.
        assert _pool_pids(state) <= workers

    def test_workers_exit_when_the_state_is_dropped(self):
        state = _State()
        pids = _pool_pids(state)
        ref = weakref.ref(state)
        del state
        assert ref() is None
        assert all(_gone(pid) for pid in pids)

    def test_pool_is_replaced_after_a_dead_worker(self):
        state = _State()
        obs = ObsRegistry()
        result = map_chunks(
            _state_exits_in_child, list(range(8)), workers=2, obs=obs, name="toy", state=state
        )
        assert not result.parallel and obs.count("pool_fallback.toy") == 1
        result = map_chunks(_state_parent, list(range(8)), workers=2, obs=obs, name="toy", state=state)
        assert result.parallel and result == [os.getpid()] * 8
        assert obs.count("pool_fallback.toy") == 1

    def test_forked_child_forks_its_own_pool(self):
        state = _State()
        parent_pids = _pool_pids(state)
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            status = 1
            try:
                own = _State()
                inherited = _pool_pids(state)
                status = 0 if inherited.isdisjoint(parent_pids) and _pool_pids(own) else 1
                del own  # shuts down the child's pool before it exits
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(child, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.05)
        if not done[0]:  # still running: it hangs on a pool it must not use
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("the forked child did not finish within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert _pool_pids(state) <= parent_pids

    @pytest.mark.parametrize("state", ["None", "_State()"])
    def test_process_exit_is_clean(self, state):
        script = textwrap.dedent(
            f"""
            import os
            from repro.obs import ObsRegistry
            from repro.parallel import map_chunks

            def pid(state, chunk, obs):
                return [os.getpid() for _ in chunk]

            class _State:
                pass

            STATE = {state}
            result = map_chunks(pid, list(range(8)), workers=2, obs=ObsRegistry(), name="toy",
                                state=STATE)
            assert result.parallel
            print(*sorted(set(result)))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0 and done.stderr == ""
        pids = [int(pid) for pid in done.stdout.split()]
        assert pids and all(_gone(pid) for pid in pids)


def test_only_parallel_builds_a_process_pool():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "parallel.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "ProcessPoolExecutor":
                offenders.append(str(path.relative_to(root)))
    assert offenders == []


def test_serve_never_pools():
    """A pool forked from a process that runs server threads could inherit
    a lock some thread held; ``repro.serve`` stays serial."""
    root = Path(repro.__file__).parent / "serve"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.asname or node.name
            if name == "map_chunks":
                offenders.append(str(path.relative_to(root)))
    assert offenders == []

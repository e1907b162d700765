"""Tests for :func:`repro.parallel.map_chunks`.

Pins the two paths' parity, the fallback contract (an exception raised by
``fn`` in a worker propagates; only pool-infrastructure failures fall back,
each counted), and that no other module builds its own process pool.
"""

from __future__ import annotations

import ast
import functools
import os
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

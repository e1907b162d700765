"""Every function the traced benchmark wraps still exists.

With ``--trace 1``, ``bench/run.py`` wraps each name in
``bench/layers.py``'s ``TARGETS`` plus two ``ClassifyBatcher`` methods, and
fails at start-up on a name that has gone.  Resolving them here, without
installing any wrapper, makes such a deletion fail the test suite too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _targets() -> tuple[tuple[str, str, str], ...]:
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attr",
    [(module_name, attr) for _, module_name, attr in _targets()],
    ids=lambda value: value,
)
def test_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("attr", ["submit", "_process"])
def test_traced_batcher_method_resolves(attr):
    from repro.serve.service import ClassifyBatcher

    assert callable(getattr(ClassifyBatcher, attr))

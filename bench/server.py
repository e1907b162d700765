"""Launch ``repro serve`` on the benchmark's SMALL release (a warm restart).

Usage: ``python bench/server.py DATASET_DIR [--trace FILE]``

A thin launcher around ``repro.cli.main(["serve", ...])``: SMALL scale,
two workers, a free port, and the world pickle, PatchDB release and fitted
model that ``DATASET_DIR`` holds, which is how a deployed service restarts.
The first launch against a directory without ``model.pkl`` fits the model
and saves it.  ``repro serve`` prints ``serving PatchDB on http://HOST:PORT``
on stderr when it accepts requests, and stops on SIGINT.

With ``--trace`` the layer wrappers are installed before the service is
built, and the spans are written to ``FILE`` after it stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dataset", type=Path)
    parser.add_argument("--trace", type=Path, default=None, help="write layer spans here")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main

    log = None
    if args.trace:
        import layers
        from repro.obs import current_trace

        def request_id() -> str | None:
            trace = current_trace()
            return trace.trace_id if trace is not None else None

        log = layers.SpanLog(args.trace.parent / "workers", request_id=request_id)
        layers.install(log)
    code = repro_main(
        [
            "serve",
            "--scale", "small",
            "--workers", "2",
            "--port", "0",
            "--world-cache", str(args.dataset),
            "--patchdb", str(args.dataset / "patchdb.jsonl"),
            "--model-cache", str(args.dataset / "model.pkl"),
        ]
    )
    if log is not None:
        args.trace.write_text(json.dumps(log.collect()))
    return code


if __name__ == "__main__":
    sys.exit(main())

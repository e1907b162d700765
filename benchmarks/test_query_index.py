"""Posting-list query planner vs the full-scan path on the serve hot shape.

Every ``/v1/patches`` request costs one match count plus one page.  The
scan path walks all N records through ``PatchQuery.matches`` for the count
and again (up to the limit) for the page; the indexed path intersects
per-field posting lists and slices.  This bench builds the SMALL-world
PatchDB, issues a selective-filter mix — a ``repo`` slug query, a ``sha``
point lookup, and a ``pattern_type`` filter — both ways, and asserts:

* bit-identical results (elements and order) between scan and index, and
* >= 10x more requests/s from the index on every selective query.
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.analysis.experiments import build_patchdb
from repro.core import PatchDB, PatchQuery

MIN_SPEEDUP = 10.0
SCAN_ITERS = 30
INDEX_ITERS = 3000


def _scan_request(records: list, query: PatchQuery) -> tuple[int, list]:
    """One request served the pre-index way: count scan + page scan."""
    total = sum(1 for r in records if query.matches(r))
    return total, list(query.apply(records))


def _indexed_request(db: PatchDB, query: PatchQuery) -> tuple[int, list]:
    """One request served through the posting-list planner."""
    return db.count(query), db.records(query)


def _time(fn, iters: int) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def test_index_10x_faster_than_scan_on_selective_filters(benchmark, bench_world):
    ew = bench_world
    db = build_patchdb(ew)
    records = list(db)

    # Selective targets drawn from the dataset itself.
    probe = records[len(records) // 2]
    sec = next(r for r in records if r.is_security and r.pattern_type is not None)
    queries = {
        "repo": PatchQuery(repo=probe.patch.repo, limit=20),
        "sha": PatchQuery(sha=records[-1].patch.sha),
        "pattern_type": PatchQuery(is_security=True, pattern_type=sec.pattern_type, limit=20),
    }

    rows = []
    lines = [f"scale: {ew.scale.name} ({len(records)} records)", ""]
    lines.append(f"{'query':<14s} {'scan req/s':>12s} {'index req/s':>12s} {'speedup':>9s}")
    for name, query in queries.items():
        scan_total, scan_page = _scan_request(records, query)
        idx_total, idx_page = _indexed_request(db, query)
        # The index must be a pure optimization: same count, same records,
        # same order.
        assert idx_total == scan_total
        assert idx_page == scan_page
        assert scan_total > 0, f"{name} query matched nothing; bad probe"

        scan_s = _time(lambda q=query: _scan_request(records, q), SCAN_ITERS)
        index_s = _time(lambda q=query: _indexed_request(db, q), INDEX_ITERS)
        speedup = scan_s / index_s
        rows.append(
            {
                "query": name,
                "params": query.to_dict(),
                "matching": scan_total,
                "scan_req_per_s": round(1.0 / scan_s, 1),
                "index_req_per_s": round(1.0 / index_s, 1),
                "speedup": round(speedup, 1),
            }
        )
        lines.append(
            f"{name:<14s} {1.0 / scan_s:>12.1f} {1.0 / index_s:>12.1f} {speedup:>8.1f}x"
        )

    print_table("Posting-list planner vs full scan (count + page per request)", "\n".join(lines))

    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['query']} query only {row['speedup']}x faster through the index "
            f"({row['scan_req_per_s']} vs {row['index_req_per_s']} req/s)"
        )

    # Steady-state indexed request for the benchmark table.
    query = queries["repo"]
    benchmark.pedantic(
        lambda: _indexed_request(db, query),
        rounds=5,
        iterations=200,
        warmup_rounds=1,
    )

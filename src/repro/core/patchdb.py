"""The PatchDB dataset container and its JSONL persistence.

Holds the three components the paper releases — NVD-based, wild-based, and
synthetic — for both security and non-security patches, with per-record
provenance.  Records serialize to JSON lines with the patch embedded as
``git format-patch`` text, so a saved PatchDB is both machine-readable and
human-diffable, like the real release.

Query routing: every :meth:`PatchDB.records`/:meth:`PatchDB.count` call
goes through the :class:`~repro.core.index.PatchIndex` kept incrementally
up to date by :meth:`add`/:meth:`extend` — a predicate query costs
O(smallest posting list), a pure-pagination query is a direct list slice,
and both return exactly what a full scan through
:meth:`PatchQuery.apply <repro.core.query.PatchQuery.apply>` would (same
records, same order; property-tested).  Queries the index cannot plan
fall back to the scan path.  Records are append-only through
:meth:`add`/:meth:`extend`; mutating ``_records`` directly would desync
the index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ReproError
from ..obs import ObsRegistry
from ..patch.gitformat import parse_patch, render_mbox_patch
from ..patch.model import Patch
from .index import PatchIndex, RecordRenderCache
from .query import PatchQuery

__all__ = ["PatchRecord", "PatchDB", "PatchQuery", "SOURCES"]

#: Valid provenance tags.
SOURCES = ("nvd", "wild", "synthetic")


@dataclass(frozen=True, slots=True)
class PatchRecord:
    """One PatchDB entry.

    Attributes:
        patch: the patch itself.
        source: provenance — ``"nvd"``, ``"wild"``, or ``"synthetic"``.
        is_security: the (verified) label.
        pattern_type: Table V type when known.
        cve_id: associated CVE for NVD-based records.
    """

    patch: Patch
    source: str
    is_security: bool
    pattern_type: int | None = None
    cve_id: str | None = None

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ReproError(f"unknown source {self.source!r}")

    def to_json(self, patch_text: str | None = None) -> str:
        """Serialize to one JSON line.

        Args:
            patch_text: the record's already-rendered mbox text, when the
                caller has it (the render cache passes its memo here so a
                cached line is byte-identical to an uncached one).
        """
        if patch_text is None:
            patch_text = render_mbox_patch(self.patch)
        return json.dumps(
            {
                "sha": self.patch.sha,
                "repo": self.patch.repo,
                "source": self.source,
                "is_security": self.is_security,
                "pattern_type": self.pattern_type,
                "cve_id": self.cve_id,
                "patch_text": patch_text,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "PatchRecord":
        """Parse one JSON line back into a record."""
        data = json.loads(line)
        patch = parse_patch(data["patch_text"], repo=data.get("repo", ""))
        return cls(
            patch=patch,
            source=data["source"],
            is_security=data["is_security"],
            pattern_type=data.get("pattern_type"),
            cve_id=data.get("cve_id"),
        )


class PatchDB:
    """The dataset: an ordered collection of :class:`PatchRecord`.

    Args:
        records: initial records.
        obs: observability registry for the ``index.hit`` /
            ``index.fallback`` / ``render_cache.hit|miss`` counters;
            ``None`` skips counting (the serve layer rebinds its own via
            :meth:`rebind_obs`).
    """

    def __init__(
        self, records: Iterable[PatchRecord] = (), obs: ObsRegistry | None = None
    ) -> None:
        self._records: list[PatchRecord] = list(records)
        self.obs = obs
        self._index = PatchIndex(self._records)
        self._renders = RecordRenderCache(obs=obs)

    # ---- observability -----------------------------------------------------

    def rebind_obs(self, obs: ObsRegistry | None) -> None:
        """Point index/render-cache counters at *obs* (the serve layer's)."""
        self.obs = obs
        self._renders.obs = obs

    def _obs_add(self, name: str) -> None:
        if self.obs is not None:
            self.obs.add(name)

    # ---- mutation -----------------------------------------------------

    def add(self, record: PatchRecord) -> None:
        """Append one record (the index updates incrementally)."""
        self._records.append(record)
        self._index.add(record)

    def extend(self, records: Iterable[PatchRecord]) -> None:
        """Append many records."""
        for record in records:
            self.add(record)

    # ---- views --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PatchRecord]:
        return iter(self._records)

    def _page(self, query: PatchQuery) -> list[PatchRecord]:
        """The records *query* selects, served from the cheapest path.

        Pure-pagination queries slice ``_records`` directly (O(page));
        predicate queries go through the posting-list planner (O(smallest
        posting list)); unplannable queries scan.  All three produce the
        same records in the same order.
        """
        end = None if query.limit is None else query.offset + query.limit
        if query.is_unfiltered:
            self._obs_add("index.hit")
            return self._records[query.offset : end]
        ids = self._index.lookup(query)
        if ids is None:
            self._obs_add("index.fallback")
            return list(query.apply(self._records))
        self._obs_add("index.hit")
        return [self._records[int(i)] for i in ids[query.offset : end]]

    def records(self, query: PatchQuery | None = None) -> list[PatchRecord]:
        """Records matching *query* (filter + pagination), in insertion order.

        ``None`` selects every record.
        """
        return self._page(query if query is not None else PatchQuery())

    def count(self, query: PatchQuery) -> int:
        """How many records match *query*'s predicates (pagination ignored).

        O(smallest posting list) on indexable queries — the planner's
        intersection is counted, never materialized into records.
        """
        if query.is_unfiltered:
            return len(self._records)
        ids = self._index.lookup(query)
        if ids is None:
            self._obs_add("index.fallback")
            return sum(1 for r in self._records if query.matches(r))
        self._obs_add("index.hit")
        return len(ids)

    def patches(self, query: PatchQuery | None = None) -> list[Patch]:
        """Patches of the records matching *query* (``None``: every record)."""
        return [r.patch for r in self.records(query)]

    def summary(self) -> dict[str, int]:
        """Headline counts matching the paper's abstract numbers.

        Computed in a single pass over the records rather than one
        filtered scan per key.
        """
        counts = {
            "total": len(self),
            "security": 0,
            "non_security": 0,
            "nvd_security": 0,
            "wild_security": 0,
            "synthetic_security": 0,
            "synthetic_non_security": 0,
        }
        for r in self._records:
            if r.is_security:
                counts["security"] += 1
                if r.source in ("nvd", "wild", "synthetic"):
                    counts[f"{r.source}_security"] += 1
            else:
                counts["non_security"] += 1
                if r.source == "synthetic":
                    counts["synthetic_non_security"] += 1
        return counts

    # ---- serialization ----------------------------------------------------

    def record_json(self, record: PatchRecord) -> str:
        """*record* as a JSONL line, memoized in the render cache."""
        return self._renders.json_line(record)

    def record_mbox(self, record: PatchRecord) -> str:
        """*record*'s ``git format-patch`` text, memoized in the render cache."""
        return self._renders.mbox(record)

    # ---- persistence -----------------------------------------------------

    @staticmethod
    def write_jsonl(
        records: Iterable[PatchRecord],
        path: str | Path,
        renders: RecordRenderCache | None = None,
    ) -> int:
        """Stream any iterable of records to a JSONL file.

        Records are written one at a time, so a generator producing patches
        on the fly (e.g. the synthesizer) never materializes the whole
        dataset in memory.  Passing a :class:`RecordRenderCache` serves
        (and fills) per-record memoized lines — byte-identical to the
        uncached path.  Returns the number of records written.
        """
        path = Path(path)
        n = 0
        with path.open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(renders.json_line(record) if renders is not None else record.to_json())
                fh.write("\n")
                n += 1
        return n

    def save_jsonl(self, path: str | Path) -> None:
        """Write all records to a JSONL file (through the render cache, so
        a re-export of an already-served dataset renders nothing twice)."""
        self.write_jsonl(self._records, path, renders=self._renders)

    @classmethod
    def iter_jsonl(cls, path: str | Path) -> Iterator[PatchRecord]:
        """Lazily yield records from a JSONL file, one line at a time.

        The streaming counterpart of :meth:`load_jsonl`: the file is read
        incrementally, so arbitrarily large datasets can be filtered or
        linted in constant memory.  Blank lines are skipped.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield PatchRecord.from_json(line)

    @classmethod
    def query_jsonl(cls, path: str | Path, query: PatchQuery) -> Iterator[PatchRecord]:
        """Stream the records of a JSONL file matching *query*.

        Combines :meth:`iter_jsonl` with :meth:`PatchQuery.apply`: constant
        memory, and the file read stops as soon as the query's ``limit`` is
        satisfied.
        """
        return query.apply(cls.iter_jsonl(path))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "PatchDB":
        """Read a PatchDB back from JSONL (materialized)."""
        return cls(cls.iter_jsonl(path))

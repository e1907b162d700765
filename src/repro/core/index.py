"""Posting-list index and render cache behind the PatchDB query hot path.

Every ``/v1/patches`` request used to walk all N records through
:meth:`PatchQuery.matches <repro.core.query.PatchQuery.matches>` — twice,
once for the match count and once for the page — and then re-render each
hit's ``git format-patch`` text from scratch.  This module replaces both
O(N) costs with O(result) ones:

* :class:`PatchIndex` keeps one **posting list** per ``(field, value)``
  pair — a sorted ``numpy`` ``int32`` array of row ids — for every
  indexable :class:`~repro.core.query.PatchQuery` field (``source``,
  ``is_security``, ``pattern_type``, ``repo``, plus the ``sha``/``cve_id``
  point-lookup hash maps).  A small conjunction planner starts from the
  smallest list of a query and filters it by sorted-membership
  (``searchsorted``) against the rest, so a selective filter costs
  O(smallest posting list), not O(N); plans are memoized per frozen
  query value until the next write.  Row ids
  are appended in insertion order and intersection keeps them sorted, so
  the planned result is **bit-identical in content and order** to the scan
  path — the index is a pure optimization, property-tested as such.
* :class:`RecordRenderCache` memoizes each record's rendered mbox text and
  JSONL line the first time it is serialized, so repeated streaming of the
  same records (``/v1/patches.jsonl``, ``save_jsonl``, ``include_patch``
  queries) costs bytes-out only.

Both structures are maintained incrementally — :meth:`PatchIndex.add`
appends row ids without rebuilding, and the per-key ``numpy`` arrays are
re-materialized lazily only for keys that grew — and both pickle cleanly
(the derived array cache and the identity-keyed render entries are dropped
on ``__getstate__``; they rebuild on demand).

Every ``PatchQuery`` predicate field has a posting list (a test fails
when one is added without an extractor), so every query is planned; a
pickled index from other code never loads, because the persisted caches
that hold one are keyed by the source digest (:mod:`repro.persist`).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..obs import ObsRegistry, trace_span
from ..patch.gitformat import render_mbox_patch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .patchdb import PatchRecord
    from .query import PatchQuery

__all__ = ["PatchIndex", "RecordRenderCache"]

#: How each indexable query field reads its key off a record.  ``None``
#: keys (unset ``pattern_type``/``cve_id``) are not posted — a query can
#: only filter on concrete values, so rows without one can never match.
_EXTRACTORS: dict[str, Callable[["PatchRecord"], object]] = {
    "source": lambda r: r.source,
    "is_security": lambda r: r.is_security,
    "pattern_type": lambda r: r.pattern_type,
    "repo": lambda r: r.patch.repo,
    "sha": lambda r: r.patch.sha,
    "cve_id": lambda r: r.cve_id,
}

#: Query fields that paginate rather than filter.
_PAGINATION_FIELDS = frozenset({"limit", "offset"})

_EMPTY = np.empty(0, dtype=np.int32)

#: Memoized predicate-field names per query class (``dataclasses.fields``
#: re-walks the class every call; the serve hot path calls lookup per
#: request, so pay that walk once per class instead).
_PREDICATE_FIELDS: dict[type, tuple[str, ...]] = {}

#: Planned-query memo cap; cleared wholesale when full (the working set of
#: distinct queries behind real traffic is far smaller).
_MEMO_CAP = 512


def _predicate_fields(query_cls: type) -> tuple[str, ...]:
    names = _PREDICATE_FIELDS.get(query_cls)
    if names is None:
        names = tuple(
            f.name for f in dataclass_fields(query_cls) if f.name not in _PAGINATION_FIELDS
        )
        _PREDICATE_FIELDS[query_cls] = names
    return names


class PatchIndex:
    """Per-field posting lists + conjunction planner over one record list.

    The index mirrors an insertion-ordered sequence of records: row id
    ``i`` is the ``i``-th record ever added.  It never stores the records
    themselves, so the owning :class:`~repro.core.patchdb.PatchDB` remains
    the single source of truth and the index stays cheap to pickle.

    Args:
        records: initial records to index (row ids 0..n-1).
    """

    def __init__(self, records: Iterable["PatchRecord"] = ()) -> None:
        self._n = 0
        #: field -> value -> growing list of row ids (insertion order).
        self._postings: dict[str, dict[object, list[int]]] = {
            name: {} for name in _EXTRACTORS
        }
        #: (field, value) -> materialized int32 array; rebuilt lazily when
        #: the backing list grew, dropped from pickles.
        self._arrays: dict[tuple[str, object], np.ndarray] = {}
        #: query -> planned row ids; queries are frozen/hashable, so
        #: repeated requests — including the count+page pair of every
        #: serve query — plan once.  Cleared on add.
        self._memo: dict[object, np.ndarray] = {}
        self.extend(records)

    # ---- incremental maintenance ------------------------------------------

    def __len__(self) -> int:
        return self._n

    def add(self, record: "PatchRecord") -> None:
        """Index one appended record (append row ids; no rebuild)."""
        row = self._n
        self._n += 1
        if self._memo:
            self._memo.clear()  # planned results reflect the old row count
        for field, extract in _EXTRACTORS.items():
            key = extract(record)
            if key is None:
                continue
            self._postings[field].setdefault(key, []).append(row)

    def extend(self, records: Iterable["PatchRecord"]) -> None:
        """Index many appended records."""
        for record in records:
            self.add(record)

    # ---- planning ----------------------------------------------------------

    def _posting(self, field: str, key: object) -> np.ndarray:
        """The sorted int32 row array for one ``(field, value)`` pair."""
        rows = self._postings[field].get(key)
        if rows is None:
            return _EMPTY
        cached = self._arrays.get((field, key))
        if cached is not None and len(cached) == len(rows):
            return cached
        arr = np.asarray(rows, dtype=np.int32)
        self._arrays[(field, key)] = arr
        return arr

    def lookup(self, query: "PatchQuery") -> np.ndarray:
        """Row ids matching *query*'s predicates, in insertion order.

        Pagination fields are ignored (the caller slices).  With no
        predicates at all, every row matches.

        The conjunction plan starts from the smallest posting list and
        filters it by sorted-membership (``np.searchsorted``) against each
        larger one — O(m log n) in the smallest list m, never sorting the
        larger lists' concatenation the way ``np.intersect1d`` would.  Each
        list holds unique ascending row ids and filtering preserves the
        survivors' order, so the result stays sorted — i.e. in insertion
        order, exactly the sequence :meth:`PatchQuery.apply` selects.

        Plans are memoized per query object value (queries are frozen and
        hashable) until the next :meth:`add`, so the count+page pair every
        serve request issues — and repeated traffic on the same filters —
        plans once.
        """
        cached = self._memo.get(query)
        if cached is not None:
            return cached
        with trace_span("index.lookup") as sp:
            out = self._plan(query)
            if sp is not None:
                sp.attributes["rows"] = int(len(out))
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[query] = out
        return out

    def _plan(self, query: "PatchQuery") -> np.ndarray:
        """The uncached conjunction plan behind :meth:`lookup`."""
        arrays: list[np.ndarray] = []
        for name in _predicate_fields(type(query)):
            value = getattr(query, name)
            if value is not None:
                arrays.append(self._posting(name, value))
        if not arrays:
            return np.arange(self._n, dtype=np.int32)
        arrays.sort(key=len)
        out = arrays[0]
        for arr in arrays[1:]:
            if len(out) == 0:
                break
            pos = arr.searchsorted(out)
            pos[pos == len(arr)] = 0  # out-of-range probes can never match
            out = out[arr[pos] == out]
        return out

    # ---- persistence -------------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_arrays"] = {}  # derived; rebuilt lazily after load
        state["_memo"] = {}
        return state


class RecordRenderCache:
    """Render-once memo of each record's mbox text and JSONL line.

    Entries are keyed by record identity (a strong reference is held, so
    ids stay valid); the cache grows to at most one entry per distinct
    record object served, i.e. it is bounded by the dataset itself.
    Rendering is lazy — a record costs one
    :func:`~repro.patch.gitformat.render_mbox_patch` the first time any
    serialization needs it, and pointer reads after that.

    Args:
        obs: registry for the ``render_cache.hit`` / ``render_cache.miss``
            counters (one per :meth:`mbox`/:meth:`json_line` call); leave
            ``None`` to skip counting.
    """

    def __init__(self, obs: ObsRegistry | None = None) -> None:
        self.obs = obs
        #: id(record) -> [record, mbox text | None, json line | None].
        self._entries: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.add(name)

    def _entry(self, record: "PatchRecord") -> list:
        entry = self._entries.get(id(record))
        if entry is None or entry[0] is not record:
            entry = [record, None, None]
            self._entries[id(record)] = entry
        return entry

    def mbox(self, record: "PatchRecord") -> str:
        """The record's ``git format-patch`` text, rendered at most once."""
        entry = self._entry(record)
        if entry[1] is None:
            self._count("render_cache.miss")
            with trace_span("render.record", kind="mbox"):
                entry[1] = render_mbox_patch(record.patch)
        else:
            self._count("render_cache.hit")
        return entry[1]

    def json_line(self, record: "PatchRecord") -> str:
        """The record's JSONL line (no trailing newline), rendered at most
        once and byte-identical to :meth:`PatchRecord.to_json`."""
        entry = self._entry(record)
        if entry[2] is None:
            self._count("render_cache.miss")
            with trace_span("render.record", kind="jsonl"):
                if entry[1] is None:
                    entry[1] = render_mbox_patch(record.patch)
                entry[2] = record.to_json(patch_text=entry[1])
        else:
            self._count("render_cache.hit")
        return entry[2]

    def __getstate__(self) -> dict:
        # Identity keys do not survive a process boundary; reload cold.
        return {"obs": self.obs, "_entries": {}}

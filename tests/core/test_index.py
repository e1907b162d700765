"""Property tests: the posting-list index is a pure optimization.

The contract of :class:`repro.core.index.PatchIndex` is that every query it
plans returns **exactly** the records the scan path
(:meth:`PatchQuery.apply <repro.core.query.PatchQuery.apply>`) would —
same elements, same order — and that :class:`RecordRenderCache` lines are
byte-identical to uncached serialization.  Hypothesis drives both over
random datasets and random queries, including empty results, offsets past
the end, and post-``extend`` mutations.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PatchDB, PatchIndex, PatchQuery, PatchRecord
from repro.obs import ObsRegistry
from repro.patch import parse_patch
from tests.conftest import LISTING_1, LISTING_2

_BASE_PATCHES = (parse_patch(LISTING_1), parse_patch(LISTING_2))

# Small pools so random datasets collide on every field (posting lists with
# more than one row, queries that hit and queries that miss).
_SHAS = [f"{i:040x}" for i in range(6)]
_REPOS = ["libredwg/libredwg", "systemd/systemd", "torvalds/linux", "curl/curl"]
_CVES = ["CVE-2019-20912", "CVE-2015-0001", "CVE-2021-33560"]


@st.composite
def record_lists(draw, min_size=0, max_size=24):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    records = []
    for _ in range(n):
        patch = replace(
            _BASE_PATCHES[draw(st.integers(0, 1))],
            sha=draw(st.sampled_from(_SHAS)),
            repo=draw(st.sampled_from(_REPOS)),
        )
        records.append(
            PatchRecord(
                patch,
                source=draw(st.sampled_from(["nvd", "wild", "synthetic"])),
                is_security=draw(st.booleans()),
                pattern_type=draw(st.one_of(st.none(), st.integers(0, 3))),
                cve_id=draw(st.one_of(st.none(), st.sampled_from(_CVES))),
            )
        )
    return records


#: Queries spanning every indexable field, values both present and absent
#: in the datasets above, and pagination reaching past the end.
queries = st.builds(
    PatchQuery,
    source=st.sampled_from([None, "nvd", "wild", "synthetic"]),
    is_security=st.sampled_from([None, True, False]),
    pattern_type=st.one_of(st.none(), st.integers(0, 5)),
    repo=st.one_of(st.none(), st.sampled_from(_REPOS + ["no/such-repo"])),
    sha=st.one_of(st.none(), st.sampled_from(_SHAS + ["f" * 40])),
    cve_id=st.one_of(st.none(), st.sampled_from(_CVES + ["CVE-0000-0000"])),
    limit=st.one_of(st.none(), st.integers(0, 30)),
    offset=st.integers(0, 30),
)


def _scan(records, query):
    return list(query.apply(records))


class TestIndexEquivalence:
    @given(records=record_lists(), query=queries)
    @settings(max_examples=150, deadline=None)
    def test_records_match_scan_elementwise_and_in_order(self, records, query):
        db = PatchDB(records)
        assert db.records(query) == _scan(records, query)

    @given(records=record_lists(), query=queries)
    @settings(max_examples=150, deadline=None)
    def test_count_matches_scan(self, records, query):
        db = PatchDB(records)
        assert db.count(query) == sum(1 for r in records if query.matches(r))

    @given(records=record_lists(min_size=2), query=queries)
    @settings(max_examples=100, deadline=None)
    def test_extend_keeps_index_in_sync(self, records, query):
        cut = len(records) // 2
        db = PatchDB(records[:cut])
        db.extend(records[cut:])
        assert db.records(query) == _scan(records, query)
        assert db.count(query) == sum(1 for r in records if query.matches(r))

    @given(records=record_lists(), query=queries)
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip_preserves_query_results(self, records, query):
        db = pickle.loads(pickle.dumps(PatchDB(records)))
        assert db.records(query) == _scan(records, query)

    def test_offset_past_end_is_empty(self):
        records = _fixed_records()
        db = PatchDB(records)
        query = PatchQuery(source="nvd", offset=1000)
        assert db.records(query) == []
        assert db.count(query) == sum(1 for r in records if r.source == "nvd")

    def test_no_match_is_empty(self):
        db = PatchDB(_fixed_records())
        assert db.records(PatchQuery(sha="f" * 40)) == []
        assert db.count(PatchQuery(sha="f" * 40)) == 0


def _fixed_records():
    sec = parse_patch(LISTING_1, repo="libredwg/libredwg")
    non = parse_patch(LISTING_2, repo="systemd/systemd")
    return [
        PatchRecord(sec, "nvd", True, pattern_type=1, cve_id="CVE-2019-20912"),
        PatchRecord(non, "wild", False),
        PatchRecord(sec, "wild", True, pattern_type=3),
        PatchRecord(sec, "synthetic", True, pattern_type=1),
        PatchRecord(non, "synthetic", False),
    ]


class TestPlanner:
    def test_point_lookups_served_by_index(self):
        records = _fixed_records()
        index = PatchIndex(records)
        ids = index.lookup(PatchQuery(sha=records[0].patch.sha, source="nvd"))
        assert ids is not None
        assert [int(i) for i in ids] == [0]

    def test_no_predicates_returns_all_rows(self):
        index = PatchIndex(_fixed_records())
        ids = index.lookup(PatchQuery(limit=2, offset=1))
        assert [int(i) for i in ids] == [0, 1, 2, 3, 4]  # caller slices

    def test_every_predicate_field_has_an_extractor(self):
        # The planner has no scan path: a PatchQuery filter added without
        # a posting list would raise on the first query that sets it.
        from dataclasses import fields

        from repro.core.index import _EXTRACTORS

        predicates = {f.name for f in fields(PatchQuery)} - {"limit", "offset"}
        assert predicates == set(_EXTRACTORS)

    def test_hits_counted(self):
        obs = ObsRegistry()
        db = PatchDB(_fixed_records(), obs=obs)
        db.records(PatchQuery(source="wild"))  # planned
        db.records(PatchQuery(limit=2))  # pure pagination
        db.count(PatchQuery(source="wild"))
        assert obs.count("index.hit") == 3


class TestRenderCache:
    def test_cached_jsonl_is_byte_identical_to_uncached(self, tmp_path):
        records = _fixed_records()
        db = PatchDB(records)
        cold = tmp_path / "cold.jsonl"
        PatchDB.write_jsonl(records, cold)  # no cache: PatchRecord.to_json
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        db.save_jsonl(first)  # fills the render cache
        db.save_jsonl(second)  # served entirely from it
        assert first.read_bytes() == cold.read_bytes()
        assert second.read_bytes() == cold.read_bytes()

    def test_hit_miss_counters(self, tmp_path):
        obs = ObsRegistry()
        db = PatchDB(_fixed_records(), obs=obs)
        db.save_jsonl(tmp_path / "a.jsonl")
        assert obs.count("render_cache.miss") == 5
        assert obs.count("render_cache.hit") == 0
        db.save_jsonl(tmp_path / "b.jsonl")
        assert obs.count("render_cache.miss") == 5
        assert obs.count("render_cache.hit") == 5

    def test_mbox_memoized_and_shared_with_json_line(self):
        obs = ObsRegistry()
        db = PatchDB(_fixed_records(), obs=obs)
        record = db.records(PatchQuery(limit=1))[0]
        text = db.record_mbox(record)  # miss: renders
        line = db.record_json(record)  # miss for the line, reuses the mbox
        assert json.loads(line)["patch_text"] == text
        assert db.record_mbox(record) is text  # hit: pointer read
        assert obs.count("render_cache.miss") == 2

    def test_pickle_drops_entries_but_stays_correct(self, tmp_path):
        db = PatchDB(_fixed_records())
        db.save_jsonl(tmp_path / "warm.jsonl")
        clone = pickle.loads(pickle.dumps(db))
        clone.save_jsonl(tmp_path / "cold.jsonl")
        assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()

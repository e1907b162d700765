"""Tests for the PatchDB container and persistence."""

import pytest

from repro.core import PatchDB, PatchQuery, PatchRecord
from repro.errors import ReproError
from repro.patch import parse_patch


@pytest.fixture()
def records(listing_1, listing_2):
    sec = parse_patch(listing_1, repo="libredwg/libredwg")
    non = parse_patch(listing_2, repo="systemd/systemd")
    return [
        PatchRecord(sec, "nvd", True, pattern_type=1, cve_id="CVE-2019-20912"),
        PatchRecord(non, "wild", False),
        PatchRecord(sec, "wild", True, pattern_type=3),
        PatchRecord(sec, "synthetic", True, pattern_type=1),
        PatchRecord(non, "synthetic", False),
    ]


class TestRecord:
    def test_bad_source_rejected(self, listing_1):
        with pytest.raises(ReproError):
            PatchRecord(parse_patch(listing_1), "github", True)

    def test_json_round_trip(self, records):
        for rec in records:
            back = PatchRecord.from_json(rec.to_json())
            assert back.patch.sha == rec.patch.sha
            assert back.patch.files == rec.patch.files
            assert back.source == rec.source
            assert back.is_security == rec.is_security
            assert back.pattern_type == rec.pattern_type
            assert back.cve_id == rec.cve_id


class TestContainer:
    def test_len_and_iter(self, records):
        db = PatchDB(records)
        assert len(db) == 5
        assert len(list(db)) == 5

    def test_add_and_extend(self, records):
        db = PatchDB()
        db.add(records[0])
        db.extend(records[1:])
        assert len(db) == 5

    def test_filter_by_source(self, records):
        db = PatchDB(records)
        assert len(db.records(PatchQuery(source="nvd"))) == 1
        assert len(db.records(PatchQuery(source="wild"))) == 2
        assert len(db.records(PatchQuery(source="synthetic"))) == 2

    def test_filter_by_label(self, records):
        db = PatchDB(records)
        assert len(db.records(PatchQuery(is_security=True))) == 3
        assert len(db.records(PatchQuery(source="wild", is_security=False))) == 1

    def test_patches_view(self, records):
        db = PatchDB(records)
        assert all(hasattr(p, "sha") for p in db.patches())

    def test_summary(self, records):
        summary = PatchDB(records).summary()
        assert summary["total"] == 5
        assert summary["security"] == 3
        assert summary["nvd_security"] == 1
        assert summary["wild_security"] == 1
        assert summary["synthetic_security"] == 1
        assert summary["synthetic_non_security"] == 1


class TestPersistence:
    def test_jsonl_round_trip(self, records, tmp_path):
        db = PatchDB(records)
        path = tmp_path / "patchdb.jsonl"
        db.save_jsonl(path)
        loaded = PatchDB.load_jsonl(path)
        assert len(loaded) == len(db)
        assert loaded.summary() == db.summary()
        for a, b in zip(db, loaded):
            assert a.patch.sha == b.patch.sha
            assert a.patch.files == b.patch.files

    def test_jsonl_is_line_oriented(self, records, tmp_path):
        path = tmp_path / "patchdb.jsonl"
        PatchDB(records).save_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5

    def test_empty_db_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        PatchDB().save_jsonl(path)
        assert len(PatchDB.load_jsonl(path)) == 0


class TestStreaming:
    def test_iter_jsonl_is_lazy(self, records, tmp_path):
        path = tmp_path / "patchdb.jsonl"
        PatchDB(records).save_jsonl(path)
        it = PatchDB.iter_jsonl(path)
        first = next(it)
        assert first.patch.sha == records[0].patch.sha
        assert len(list(it)) == len(records) - 1

    def test_write_jsonl_accepts_a_generator(self, records, tmp_path):
        path = tmp_path / "gen.jsonl"
        n = PatchDB.write_jsonl((r for r in records), path)
        assert n == len(records)
        back = PatchDB.load_jsonl(path)
        assert len(back) == len(records)
        assert [r.patch.sha for r in back] == [r.patch.sha for r in records]

    def test_streaming_round_trip_preserves_fields(self, records, tmp_path):
        path = tmp_path / "rt.jsonl"
        PatchDB.write_jsonl(iter(records), path)
        for orig, back in zip(records, PatchDB.iter_jsonl(path)):
            assert back.source == orig.source
            assert back.is_security == orig.is_security
            assert back.pattern_type == orig.pattern_type

    def test_iter_jsonl_skips_blank_lines(self, records, tmp_path):
        path = tmp_path / "blank.jsonl"
        PatchDB(records).save_jsonl(path)
        path.write_text(path.read_text().replace("\n", "\n\n", 2))
        assert len(list(PatchDB.iter_jsonl(path))) == len(records)

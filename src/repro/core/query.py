"""The unified query surface over PatchDB records.

:class:`PatchQuery` is the one filter object shared by every consumer of
the dataset — :meth:`repro.core.patchdb.PatchDB.records`, the CLI
(``stats``, ``serve``), and the HTTP query-string parser
of :mod:`repro.serve` — replacing the scattered positional
``(source, is_security)`` keyword pairs that used to be re-implemented at
each call site.  A query is a plain frozen dataclass, so it pickles, hashes
into cache keys, and round-trips through URL query strings losslessly.

Filter semantics: every non-``None`` field must match (conjunction);
``offset``/``limit`` paginate the *filtered* stream, applied after the
predicates, so ``PatchQuery(source="wild", offset=100, limit=50)`` is
"rows 100-149 of the wild records".  :meth:`PatchQuery.apply` is a
generator over any record iterable, so arbitrarily large JSONL streams can
be filtered in constant memory (the serve layer streams
:meth:`~repro.core.patchdb.PatchDB.iter_jsonl`-style chunks through it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .patchdb import PatchRecord

__all__ = ["PatchQuery", "QueryError", "parse_bool"]

#: Query-string spellings accepted for boolean fields.
_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


class QueryError(ReproError):
    """A PatchQuery was constructed or parsed with invalid values."""


def parse_bool(name: str, raw: str) -> bool:
    """One boolean query-string value (``1/0/true/false/yes/no/on/off``,
    case-insensitive); anything else raises :class:`QueryError`."""
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise QueryError(f"{name} must be a boolean, got {raw!r}")


@dataclass(frozen=True, slots=True)
class PatchQuery:
    """One filtered, paginated view over patch records.

    Attributes:
        source: provenance filter (``"nvd"``/``"wild"``/``"synthetic"``).
        is_security: label filter.
        pattern_type: Table V pattern-type filter (security patches).
        repo: ``owner/repo`` slug filter.
        sha: exact commit-id filter (a point lookup, served by the
            index's hash map — ``/v1/patches?sha=...`` never scans).
        cve_id: exact CVE filter (NVD-based records carry one).
        limit: maximum records returned (``None`` = unbounded).
        offset: filtered records skipped before the first returned one.
    """

    source: str | None = None
    is_security: bool | None = None
    pattern_type: int | None = None
    repo: str | None = None
    sha: str | None = None
    cve_id: str | None = None
    limit: int | None = None
    offset: int = 0

    def __post_init__(self) -> None:
        from .patchdb import SOURCES

        if self.source is not None and self.source not in SOURCES:
            raise QueryError(
                f"unknown source {self.source!r} (choose from {', '.join(SOURCES)})"
            )
        for name in ("sha", "cve_id"):
            value = getattr(self, name)
            if value is not None and (not value or value != value.strip()):
                raise QueryError(f"{name} must be a non-blank string, got {value!r}")
        if self.limit is not None and self.limit < 0:
            raise QueryError(f"limit must be >= 0, got {self.limit}")
        if self.offset < 0:
            raise QueryError(f"offset must be >= 0, got {self.offset}")

    # ---- predicates -------------------------------------------------------

    def matches(self, record: "PatchRecord") -> bool:
        """Whether *record* passes every non-``None`` filter field."""
        if self.source is not None and record.source != self.source:
            return False
        if self.is_security is not None and record.is_security != self.is_security:
            return False
        if self.pattern_type is not None and record.pattern_type != self.pattern_type:
            return False
        if self.repo is not None and record.patch.repo != self.repo:
            return False
        if self.sha is not None and record.patch.sha != self.sha:
            return False
        if self.cve_id is not None and record.cve_id != self.cve_id:
            return False
        return True

    def apply(self, records: Iterable["PatchRecord"]) -> Iterator["PatchRecord"]:
        """Filter + paginate *records* lazily, in input order.

        Stops consuming the input as soon as ``limit`` records have been
        yielded, so applying a small-limit query to a streaming JSONL
        reader touches only the prefix it needs.
        """
        remaining = self.limit
        skip = self.offset
        for record in records:
            if not self.matches(record):
                continue
            if skip:
                skip -= 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield record
            if remaining == 0:
                return

    # ---- derivation -------------------------------------------------------

    @property
    def is_unfiltered(self) -> bool:
        """True when no predicate field is set (pagination may still be)."""
        return (
            self.source is None
            and self.is_security is None
            and self.pattern_type is None
            and self.repo is None
            and self.sha is None
            and self.cve_id is None
        )

    def page(self, limit: int | None, offset: int = 0) -> "PatchQuery":
        """The same filters with different pagination."""
        return replace(self, limit=limit, offset=offset)

    # ---- wire formats -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form; ``None`` fields (and zero offset) are omitted."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or (f.name == "offset" and value == 0):
                continue
            out[f.name] = value
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "PatchQuery":
        """Parse an HTTP query-string mapping into a query.

        Accepts the flat ``field=value`` encoding produced by
        :meth:`to_dict` (booleans as ``1/0/true/false/yes/no/on/off``,
        case-insensitive).  Unknown keys and malformed values raise
        :class:`QueryError` with a message suitable for a 400 response.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise QueryError(
                f"unknown query parameter(s): {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(known))})"
            )
        kwargs: dict[str, object] = {}
        for name, raw in params.items():
            raw = raw.strip()
            if raw == "":
                continue
            if name in ("source", "repo", "sha", "cve_id"):
                kwargs[name] = raw
            elif name == "is_security":
                kwargs[name] = parse_bool(name, raw)
            else:  # pattern_type, limit, offset
                try:
                    kwargs[name] = int(raw)
                except ValueError:
                    raise QueryError(f"{name} must be an integer, got {raw!r}") from None
        return cls(**kwargs)

"""The synthetic world: repositories, commit histories, and ground truth.

This module replaces GitHub + the human-labeled reality behind it.  It
builds a configurable number of repositories, then drives their histories
forward with a mixture of security patches (drawn from the Table V pattern
taxonomy) and non-security changes, recording a ground-truth label for every
commit.  Key dials mirror the paper's measured world:

* ``security_fraction`` — P(commit is a security patch); the paper observes
  6-10% in the wild (§III-A).
* ``nvd_report_fraction`` — P(a security patch is reported to a CVE and
  hence visible to the NVD); the remainder are *silent* security patches.
* Per-source pattern-type distributions — the NVD skews long-tail with
  redesign/sanity-check heads while the wild is function-call-heavy
  (Fig. 6); the defaults encode those shapes.

**Sharded construction.**  The paper crawls 313 independent repositories;
histories never interact, so :func:`build_world` is organized around
per-repository shards.  A parent ``np.random.SeedSequence(config.seed)``
pre-draws the global step→repo schedule and each step's security/non-security
decision, then spawns one child seed per repository; each shard builds its
repository's full history (seed files, commits, labels) from its own child
stream, so shards are mutually independent and can run in a process pool
(``build_world(config, workers=N)``, through
:func:`repro.parallel.map_chunks`).  Shard results merge in repo-index
order with per-shard label-count parity checks, and the serial path replays
the identical sharded scheme — ``workers=1`` and ``workers=N`` produce
bit-identical worlds (same :meth:`World.digest`, same label order) and
bit-identical obs counter reports (see DESIGN.md, "Sharded world build").
Only pool-infrastructure failures fall back to the serial build (counted
in ``pool_fallback.world_build``); an error inside a shard propagates.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CorpusError
from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import Patch
from ..vcs.repository import Repository
from .codegen import CodeGenerator
from .mutate import OutlineIndex, outline_index
from .nonsec import NONSEC_GENERATORS, NONSEC_KIND_WEIGHTS, apply_nonsec_pattern
from .vulnpatterns import PATTERN_NAMES, apply_security_pattern

__all__ = [
    "WorldConfig",
    "CommitLabel",
    "World",
    "build_world",
    "NVD_TYPE_DISTRIBUTION",
    "WILD_TYPE_DISTRIBUTION",
]

#: Pattern-type distribution of NVD-reported security patches (Fig. 6 left):
#: long tail with Type 11 (redesign) as the head class.
NVD_TYPE_DISTRIBUTION: dict[int, float] = {
    11: 0.30,
    3: 0.17,
    1: 0.13,
    8: 0.10,
    2: 0.08,
    5: 0.07,
    4: 0.05,
    10: 0.04,
    7: 0.025,
    6: 0.017,
    9: 0.012,
    12: 0.006,
}

#: Pattern-type distribution of wild (silent) security patches (Fig. 6
#: right): Type 8 (function calls) becomes the head class.
WILD_TYPE_DISTRIBUTION: dict[int, float] = {
    8: 0.28,
    3: 0.18,
    1: 0.10,
    2: 0.10,
    5: 0.09,
    10: 0.06,
    4: 0.05,
    11: 0.05,
    7: 0.035,
    6: 0.025,
    9: 0.02,
    12: 0.01,
}

_EXPLICIT_MESSAGES = (
    "Fix buffer overflow in {anchor}",
    "CVE-{year}-{num}: prevent out-of-bounds access in {anchor}",
    "fix use-after-free in {anchor}",
    "avoid integer overflow when parsing {anchor}",
    "prevent NULL pointer dereference in {anchor}",
    "security: validate {anchor} before use",
)

_SILENT_MESSAGES = (
    "fix crash in {anchor}",
    "handle edge case in {anchor}",
    "fix potential issue with {anchor}",
    "robustness fix for {anchor}",
    "don't trust input length in {anchor}",
    "correct {anchor} handling",
)

_NONSEC_MESSAGES: dict[str, tuple[str, ...]] = {
    "feature": ("add support for {anchor}", "implement {anchor} handling", "new {anchor} API"),
    "refactor": ("refactor {anchor}", "rename fields in {anchor}", "simplify {anchor}"),
    "perf": ("speed up {anchor} path", "optimize {anchor} loop", "reduce copies in {anchor}"),
    "bugfix": ("fix wrong result in {anchor}", "fix off-by-one in {anchor} output", "fix {anchor} corner case"),
    "cleanup": ("remove dead code in {anchor}", "cleanup {anchor}", "drop unused statement in {anchor}"),
    "logging": ("add debug logging to {anchor}", "improve diagnostics in {anchor}", "trace {anchor} values"),
    "defensive": ("validate {anchor} argument", "harden {anchor} against bad input", "add missing parameter check in {anchor}"),
}


@dataclass(frozen=True, slots=True)
class CommitLabel:
    """Ground truth for one commit in the world.

    Attributes:
        sha: commit id.
        repo_slug: owning repository.
        is_security: whether the change fixes a vulnerability.
        pattern_type: Table V type (1-12) for security patches, else None.
        nonsec_kind: non-security category, else None.
        cve_id: assigned CVE (NVD-visible security patches only).
        silent: security patch with no CVE and a non-security-sounding message.
    """

    sha: str
    repo_slug: str
    is_security: bool
    pattern_type: int | None = None
    nonsec_kind: str | None = None
    cve_id: str | None = None
    silent: bool = False


@dataclass(slots=True)
class WorldConfig:
    """Knobs for :func:`build_world`.

    Attributes mirror the paper's measured quantities; see module docstring.
    """

    n_repos: int = 8
    files_per_repo: int = 4
    functions_per_file: int = 4
    n_commits: int = 400
    security_fraction: float = 0.08
    nvd_report_fraction: float = 0.35
    explicit_message_fraction: float = 0.45
    seed: int = 2021
    nvd_type_distribution: dict[int, float] = field(
        default_factory=lambda: dict(NVD_TYPE_DISTRIBUTION)
    )
    wild_type_distribution: dict[int, float] = field(
        default_factory=lambda: dict(WILD_TYPE_DISTRIBUTION)
    )

    def validate(self) -> None:
        """Sanity-check the configuration.

        Raises:
            CorpusError: on out-of-range values.
        """
        if self.n_repos < 1 or self.n_commits < 0:
            raise CorpusError("n_repos >= 1 and n_commits >= 0 required")
        if not 0.0 <= self.security_fraction <= 1.0:
            raise CorpusError("security_fraction must be in [0, 1]")
        if not 0.0 <= self.nvd_report_fraction <= 1.0:
            raise CorpusError("nvd_report_fraction must be in [0, 1]")
        for dist in (self.nvd_type_distribution, self.wild_type_distribution):
            if abs(sum(dist.values()) - 1.0) > 1e-6:
                raise CorpusError("type distribution must sum to 1")
            if set(dist) - set(PATTERN_NAMES):
                raise CorpusError("type distribution has unknown pattern ids")


class World:
    """The built world: repositories plus ground truth.

    Args:
        repos: slug → repository, in repo-index order.
        labels: sha → ground truth, in merge (repo-index, history) order.
        build_stats: attempted/produced/skip accounting from the build
            (totals plus a per-shard breakdown); ``None`` for hand-built
            worlds.
    """

    def __init__(
        self,
        repos: dict[str, Repository],
        labels: dict[str, CommitLabel],
        build_stats: dict | None = None,
    ) -> None:
        self.repos = repos
        self.labels = labels
        self.build_stats = build_stats
        self._patch_cache: dict[str, Patch] = {}

    def __getstate__(self) -> dict:
        # The patch cache is a pure memo over repo contents; pickling it
        # would bloat `ExperimentWorld.cached` artifacts.  Drop it and
        # re-warm lazily on use.  (Pool workers inherit the world by fork,
        # memo included, so nothing here is pickled for them.)
        state = self.__dict__.copy()
        state["_patch_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Old pickles predate build_stats; keep attribute access total.
        self.__dict__.setdefault("build_stats", None)
        self.__dict__.setdefault("_patch_cache", {})

    # ---- views --------------------------------------------------------

    def all_shas(self) -> list[str]:
        """Every labeled commit sha (i.e. every non-initial commit)."""
        return list(self.labels)

    def security_shas(self) -> list[str]:
        """Shas of all security patches (NVD-reported and silent)."""
        return [sha for sha, lab in self.labels.items() if lab.is_security]

    def nvd_shas(self) -> list[str]:
        """Shas of security patches visible to the NVD (have a CVE)."""
        return [sha for sha, lab in self.labels.items() if lab.cve_id is not None]

    def wild_shas(self) -> list[str]:
        """Shas of all commits *not* indexed by the NVD (the wild pool)."""
        return [sha for sha, lab in self.labels.items() if lab.cve_id is None]

    def label(self, sha: str) -> CommitLabel:
        """Ground truth for one sha."""
        return self.labels[sha]

    def repo_of(self, sha: str) -> Repository:
        """The repository containing *sha*."""
        return self.repos[self.labels[sha].repo_slug]

    def patch_for(self, sha: str) -> Patch:
        """The commit exported as a Patch (C/C++-filtered), cached."""
        cached = self._patch_cache.get(sha)
        if cached is None:
            cached = self.repo_of(sha).patch_for(sha).only_c_cpp()
            self._patch_cache[sha] = cached
        return cached

    def patches_for(self, shas: list[str]) -> list[Patch]:
        """Bulk :meth:`patch_for`."""
        return [self.patch_for(sha) for sha in shas]

    def digest(self) -> str:
        """Git-style content digest of the world: sha1 over its commit ids.

        Commit shas already commit to repo slug, path contents, and history
        position, so hashing the sorted sha set (with a per-sha security
        bit) identifies the world's ground truth without walking any trees.
        Two worlds with equal digests are interchangeable for every
        experiment; run manifests record this so a trace can be matched to
        the exact corpus that produced it.
        """
        h = hashlib.sha1()
        for sha in sorted(self.labels):
            h.update(sha.encode("ascii"))
            h.update(b"1" if self.labels[sha].is_security else b"0")
        return h.hexdigest()


def _draw_type(rng: np.random.Generator, dist: dict[int, float]) -> int:
    types = sorted(dist)
    probs = np.array([dist[t] for t in types])
    probs = probs / probs.sum()
    return int(types[int(rng.choice(len(types), p=probs))])


def _message_anchor(rng: np.random.Generator, path: str, gen: CodeGenerator) -> str:
    base = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return base if rng.random() < 0.5 else gen.noun()


_OWNERS = ("sunlab", "coreutils", "netstack", "imglib", "parsekit", "embedos", "dbkit", "mediax")


@dataclass(frozen=True, slots=True)
class _ShardTask:
    """Everything one repository shard needs to build itself.

    Self-contained and small (no world payload), so pool dispatch is cheap.

    Attributes:
        index: repo index (merge order and slug suffix).
        owner: slug owner segment.
        config: the world configuration.
        seed: this repo's spawned child seed (independent of every sibling).
        steps: ``(global step, is_security)`` pairs assigned to this repo by
            the pre-drawn schedule, in global step order.
    """

    index: int
    owner: str
    config: WorldConfig
    seed: np.random.SeedSequence
    steps: tuple[tuple[int, bool], ...]


@dataclass(slots=True)
class _ShardResult:
    """One shard's built repository, labels, and accounting."""

    index: int
    slug: str
    repo: Repository
    labels: list[CommitLabel]
    stats: dict[str, int]


def _shard_tasks(config: WorldConfig) -> list[_ShardTask]:
    """Derive the deterministic shard plan for *config*.

    The parent stream (seeded by ``SeedSequence(config.seed)``) pre-draws
    the whole step→repo schedule and each step's security decision; the
    spawned children seed the per-repo streams.  Every build mode (serial,
    any worker count) starts from this identical plan.
    """
    parent = np.random.SeedSequence(config.seed)
    schedule_rng = np.random.default_rng(parent)
    repo_for_step = schedule_rng.integers(0, config.n_repos, size=config.n_commits)
    security_for_step = schedule_rng.random(config.n_commits) < config.security_fraction
    steps: list[list[tuple[int, bool]]] = [[] for _ in range(config.n_repos)]
    for step in range(config.n_commits):
        steps[int(repo_for_step[step])].append((step, bool(security_for_step[step])))
    return [
        _ShardTask(
            index=r,
            owner=_OWNERS[r % len(_OWNERS)],
            config=config,
            seed=child,
            steps=tuple(steps[r]),
        )
        for r, child in enumerate(parent.spawn(config.n_repos))
    ]


def _build_shard(task: _ShardTask, obs: ObsRegistry | None = None) -> _ShardResult:
    """Build one repository's full history from its child seed.

    Runs identically in-process and in a pool worker.  *obs* receives the
    ``world.shard`` span; the shard's commit accounting rides back in
    :attr:`_ShardResult.stats` and becomes counters when the merge has
    checked it.
    """
    config = task.config
    rng = np.random.default_rng(task.seed)
    gen = CodeGenerator(rng)
    obs = obs if obs is not None else ObsRegistry()
    stats = {
        "attempted": len(task.steps),
        "produced": 0,
        "skipped_no_c_paths": 0,
        "skipped_exhausted": 0,
        "security": 0,
        "nonsec": 0,
    }
    with (
        obs.span("world.shard", repo_index=task.index, steps=len(task.steps)) as sp,
        outline_index() as outlines,
    ):
        slug = f"{task.owner}/{gen.module_name()}-{task.index}"
        repo = Repository(slug)
        files: dict[str, str] = {
            "README.md": f"# {slug}\n\nSynthetic project {task.index}.\n",
            "ChangeLog": "initial release\n",
            "Makefile": "all:\n\tcc -o app src/*.c\n",
        }
        for _ in range(config.files_per_repo):
            gfile = gen.gen_file(n_functions=config.functions_per_file)
            files[gfile.path] = gfile.render()
        repo.commit(files, "initial import", date=_date(rng, 0))

        labels: list[CommitLabel] = []
        for step, is_security in task.steps:
            tree = repo.checkout(repo.head)
            c_paths = [p for p in tree if p.endswith((".c", ".h"))]
            if not c_paths:
                stats["skipped_no_c_paths"] += 1
                continue
            if is_security:
                label = _apply_security(config, rng, gen, repo, tree, c_paths, step, outlines)
            else:
                label = _apply_nonsec(config, rng, gen, repo, tree, c_paths, step, outlines)
            if label is None:
                stats["skipped_exhausted"] += 1
                continue
            labels.append(label)
            stats["produced"] += 1
            stats["security" if is_security else "nonsec"] += 1
        if sp is not None:
            sp.attributes["slug"] = slug
            sp.attributes["produced"] = stats["produced"]
    for way, count in outlines.counts.items():
        obs.add(f"world_outline_{way}", count)
    return _ShardResult(
        index=task.index,
        slug=slug,
        repo=repo,
        labels=labels,
        stats=stats,
    )


def _merge_shards(
    tasks: list[_ShardTask], results: list[_ShardResult], obs: ObsRegistry
) -> World:
    """Fold shard results into one World, in repo-index order.

    Verifies per-shard label-count parity (attempted = produced + skips,
    one label per produced commit, every label owned by its shard's repo)
    so a lost or duplicated shard payload fails loudly instead of silently
    shrinking the corpus, then records the checked accounting in the
    ``world_commits_*`` counters of *obs*.

    Raises:
        CorpusError: on any parity violation.
    """
    repos: dict[str, Repository] = {}
    labels: dict[str, CommitLabel] = {}
    totals = {
        "attempted": 0,
        "produced": 0,
        "skipped_no_c_paths": 0,
        "skipped_exhausted": 0,
        "security": 0,
        "nonsec": 0,
    }
    shards: dict[str, dict[str, int]] = {}
    for task, res in zip(tasks, results):
        stats = res.stats
        skips = stats["skipped_no_c_paths"] + stats["skipped_exhausted"]
        if (
            stats["attempted"] != len(task.steps)
            or stats["produced"] + skips != stats["attempted"]
            or len(res.labels) != stats["produced"]
        ):
            raise CorpusError(
                f"shard {res.index} ({res.slug}) label-count parity violated: "
                f"{len(task.steps)} scheduled, {stats['attempted']} attempted, "
                f"{stats['produced']} produced + {skips} skipped, "
                f"{len(res.labels)} labels"
            )
        if any(lab.repo_slug != res.slug for lab in res.labels):
            raise CorpusError(f"shard {res.index} returned labels for a foreign repo")
        if res.slug in repos:
            raise CorpusError(f"duplicate repo slug {res.slug!r} across shards")
        repos[res.slug] = res.repo
        for lab in res.labels:
            labels[lab.sha] = lab
        shards[res.slug] = dict(stats)
        for key in totals:
            totals[key] += stats[key]
    obs.add("world_commits_attempted", totals["attempted"])
    obs.add("world_commits_produced", totals["produced"])
    for skip in ("skipped_no_c_paths", "skipped_exhausted"):
        if totals[skip]:
            obs.add(f"world_commits_{skip}", totals[skip])
    return World(repos, labels, build_stats={**totals, "shards": shards})


def _build_shards(state: None, tasks: list[_ShardTask], obs: ObsRegistry) -> list[_ShardResult]:
    return [_build_shard(task, obs) for task in tasks]


def build_world(
    config: WorldConfig | None = None,
    workers: int | None = None,
    obs: ObsRegistry | None = None,
) -> World:
    """Build a world per *config* (defaults to :class:`WorldConfig`()).

    Args:
        config: world knobs; see :class:`WorldConfig`.
        workers: >1 builds repository shards in a process pool of this
            size.  The result — label order, :meth:`World.digest`, and
            merged obs counters — is bit-identical to the serial build.
        obs: observability registry receiving per-shard spans and the
            ``world_commits_*`` counters; a private one is used if omitted.
    """
    config = config or WorldConfig()
    config.validate()
    obs = obs if obs is not None else ObsRegistry()
    tasks = _shard_tasks(config)
    # Shards are few and each is a whole repository history, so two are
    # enough to use a pool.
    results = map_chunks(
        _build_shards, tasks, workers=workers, obs=obs, name="world_build", min_items=2
    )
    return _merge_shards(tasks, results, obs)


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def _date(rng: np.random.Generator, step: int) -> str:
    year = 2015 + (step // 400) % 5
    month = int(rng.integers(1, 13))
    day = int(rng.integers(1, 29))
    weekday = _WEEKDAYS[datetime.date(year, month, day).weekday()]
    return f"{weekday} {month:02d}/{day:02d} 12:00:00 {year} +0000"


def _apply_security(
    config: WorldConfig,
    rng: np.random.Generator,
    gen: CodeGenerator,
    repo: Repository,
    tree: dict[str, str],
    c_paths: list[str],
    step: int,
    outlines: OutlineIndex,
) -> CommitLabel | None:
    reported = rng.random() < config.nvd_report_fraction
    dist = config.nvd_type_distribution if reported else config.wild_type_distribution
    # Retry across types/files until a generator applies.
    for _ in range(8):
        ptype = _draw_type(rng, dist)
        path = c_paths[int(rng.integers(0, len(c_paths)))]
        new_text = apply_security_pattern(tree[path], ptype, rng)
        if new_text is not None and new_text != tree[path]:
            break
    else:
        return None
    outlines.note_edit(tree[path], new_text)
    files = dict(tree)
    files[path] = new_text
    # CVE-worthy fixes tend to be more substantial commits: NVD-reported
    # patches apply the pattern at 1-3 sites (sometimes across two files),
    # while silent wild fixes stay small.  This reproduces the NVD-vs-wild
    # distribution discrepancy the paper measures (RQ2: models trained on
    # the NVD "would not be able to well profile patches in the wild").
    if reported:
        for _ in range(int(rng.integers(1, 3))):
            extra_path = c_paths[int(rng.integers(0, len(c_paths)))]
            extra = apply_security_pattern(files[extra_path], ptype, rng)
            if extra is not None and extra != files[extra_path]:
                outlines.note_edit(files[extra_path], extra)
                files[extra_path] = extra

    explicit = rng.random() < config.explicit_message_fraction
    pool = _EXPLICIT_MESSAGES if explicit else _SILENT_MESSAGES
    anchor = _message_anchor(rng, path, gen)
    year = 2015 + (step // 400) % 5
    message = pool[int(rng.integers(0, len(pool)))].format(
        anchor=anchor, year=year, num=int(rng.integers(1000, 99999))
    )
    cve_id = f"CVE-{year}-{int(rng.integers(1000, 99999))}" if reported else None
    # NVD-visible patches occasionally also touch the changelog — the
    # crawler must strip these non-C/C++ parts (§III-A).
    if reported and rng.random() < 0.3 and "ChangeLog" in files:
        files["ChangeLog"] = files["ChangeLog"] + f"* {message}\n"
    sha = repo.commit(files, message, date=_date(rng, step))
    return CommitLabel(
        sha=sha,
        repo_slug=repo.slug,
        is_security=True,
        pattern_type=ptype,
        cve_id=cve_id,
        silent=not reported and not explicit,
    )


def _apply_nonsec(
    config: WorldConfig,
    rng: np.random.Generator,
    gen: CodeGenerator,
    repo: Repository,
    tree: dict[str, str],
    c_paths: list[str],
    step: int,
    outlines: OutlineIndex,
) -> CommitLabel | None:
    kinds = list(NONSEC_GENERATORS)
    weights = np.array([NONSEC_KIND_WEIGHTS[k] for k in kinds])
    weights = weights / weights.sum()
    for _ in range(8):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        path = c_paths[int(rng.integers(0, len(c_paths)))]
        new_text = apply_nonsec_pattern(tree[path], kind, rng)
        if new_text is not None and new_text != tree[path]:
            break
    else:
        return None
    outlines.note_edit(tree[path], new_text)
    files = dict(tree)
    files[path] = new_text
    anchor = _message_anchor(rng, path, gen)
    pool = _NONSEC_MESSAGES[kind]
    message = pool[int(rng.integers(0, len(pool)))].format(anchor=anchor)
    if rng.random() < 0.1 and "README.md" in files:
        files["README.md"] = files["README.md"] + f"\n- {message}\n"
    sha = repo.commit(files, message, date=_date(rng, step))
    return CommitLabel(sha=sha, repo_slug=repo.slug, is_security=False, nonsec_kind=kind)

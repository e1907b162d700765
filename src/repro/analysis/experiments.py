"""Experiment harnesses: one runner per paper table/figure.

Each ``run_*`` function reproduces the protocol of one evaluation artifact
(Table II-VI, Fig. 6) against a freshly built or cached experiment world,
and returns a structured result whose ``table()`` renders the same rows the
paper reports.  Benchmarks and examples call these runners; nothing here
touches ground truth except through the :class:`VerificationOracle`, exactly
as the paper's pipeline only touches reality through its human experts.

Scale: the paper's corpus (6M wild commits, 100-200K search sets) is scaled
down so each experiment runs on a laptop; see DESIGN.md and the per-scale
presets below.  Ratios and orderings, not absolute counts, are the
reproduction target (EXPERIMENTS.md records both).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.augmentation import AugmentationOutcome, DatasetAugmentation, SearchSet
from ..core.baselines import (
    BaselineResult,
    brute_force_candidates,
    evaluate_candidates,
    nearest_link_candidates,
    pseudo_label_candidates,
    uncertainty_candidates,
)
from ..core.cache import PatchFeatureCache, TokenSequenceCache
from ..core.categorize import categorize_patch
from ..core.oracle import VerificationOracle
from ..core.patchdb import PatchDB, PatchRecord
from ..corpus.world import World, WorldConfig, build_world
from ..errors import ReproError
from ..ml import (
    RandomForestClassifier,
    RNNClassifier,
    classification_report,
    fit_many,
    patch_token_sequence,
    train_test_split,
)
from ..ml.model_cache import FittedModelCache, training_key
from ..nvd.crawler import CrawlResult, NvdCrawler
from ..nvd.database import NvdConfig, NvdDatabase, build_nvd
from ..obs import ObsRegistry
from ..persist import atomic_write
from ..synthesis.engine import PatchSynthesizer
from .distribution import (
    distribution_table,
    gini_coefficient,
    head_share,
    total_variation_distance,
    type_distribution,
)

__all__ = [
    "ExperimentScale",
    "TINY",
    "SMALL",
    "MEDIUM",
    "ExperimentWorld",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_fig6",
    "run_table6",
    "run_checkdelta_ablation",
    "CheckDeltaResult",
    "build_patchdb",
    "Table4Result",
    "Table5Result",
    "Fig6Result",
    "Table6Result",
]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Scaled-down analogue of the paper's corpus sizes.

    Attributes:
        name: preset label.
        n_commits: commits generated in the world (paper: 6M wild).
        n_repos: repositories (paper: 313).
        set1_size: Set I search range (paper: 100K).
        set23_size: Sets II/III search ranges (paper: 200K each).
        verify_sample: per-method verification sample for Table III
            (paper: 1K).
        rnn_epochs: RNN training epochs for Tables IV/VI.
    """

    name: str
    n_commits: int
    n_repos: int
    set1_size: int
    set23_size: int
    verify_sample: int
    rnn_epochs: int = 6

    def world_config(self, seed: int = 2021) -> WorldConfig:
        """The world-building configuration every consumer of this scale
        uses (experiments, the CLI ``lint`` gate, CI)."""
        return WorldConfig(
            n_commits=self.n_commits,
            n_repos=self.n_repos,
            files_per_repo=5,
            security_fraction=0.09,
            nvd_report_fraction=0.33,
            seed=seed,
        )


TINY = ExperimentScale("tiny", n_commits=450, n_repos=6, set1_size=110, set23_size=140, verify_sample=140, rnn_epochs=3)
SMALL = ExperimentScale("small", n_commits=4500, n_repos=16, set1_size=1000, set23_size=1500, verify_sample=600, rnn_epochs=5)
MEDIUM = ExperimentScale("medium", n_commits=9000, n_repos=24, set1_size=2000, set23_size=3000, verify_sample=1000, rnn_epochs=6)


class ExperimentWorld:
    """A built world plus the shared per-experiment infrastructure.

    Args:
        scale: corpus-size preset.
        seed: world RNG seed.
        feature_cache: optional ``.npz`` path; vectors persist across
            processes (see :class:`PatchFeatureCache`).
        token_cache: optional pickle path; RNN token sequences persist
            across processes (see :class:`TokenSequenceCache`).
        workers: process count for the sharded world build and the default
            for parallel feature extraction and token-cache warm-up; the
            built world is bit-identical at every worker count.
        ml_workers: default for the ``ml_workers`` argument of
            :func:`run_table3`/:func:`run_table4`/:func:`run_table6` —
            enables the cached, parallel evaluation engine.
        obs: observability registry shared by the world build, both caches,
            and every runner; a private one is created if omitted.  World
            construction, NVD synthesis, and the crawl are recorded as
            spans (``world.build``, ``nvd.build``, ``nvd.crawl``).
    """

    #: Bumped when the pickled layout changes; stale disk caches rebuild.
    #: Rev 5: sharded per-repo world RNG scheme + real commit weekdays
    #: (world bytes and digests changed once), build_stats on World, and
    #: patch caches dropped from pickles.
    #: Rev 6: dataflow-mode checkers change lint deltas cached on worlds.
    _CACHE_REV = 7

    def __init__(
        self,
        scale: ExperimentScale,
        seed: int = 2021,
        feature_cache: str | Path | None = None,
        token_cache: str | Path | None = None,
        workers: int | None = None,
        ml_workers: int | None = None,
        obs: ObsRegistry | None = None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.obs = obs if obs is not None else ObsRegistry()
        self.ml_workers = ml_workers
        self._cache_rev = self._CACHE_REV
        with self.obs.span(
            "world.build", scale=scale.name, seed=seed, commits=scale.n_commits, workers=workers
        ):
            self.world: World = build_world(scale.world_config(seed), workers=workers, obs=self.obs)
        with self.obs.span("nvd.build", seed=seed + 1):
            self.nvd: NvdDatabase = build_nvd(self.world, NvdConfig(seed=seed + 1))
        with self.obs.span("nvd.crawl"):
            self.crawl: CrawlResult = NvdCrawler(self.world).crawl(self.nvd)
        self.cache = PatchFeatureCache(
            self.world,
            persist_path=feature_cache,
            obs=self.obs,
            default_workers=workers,
        )
        self.tokens = TokenSequenceCache(
            self.world,
            persist_path=token_cache,
            obs=self.obs,
            default_workers=workers,
        )
        self._rng = np.random.default_rng(seed + 2)
        self._deltas = None

    @property
    def deltas(self):
        """The lazily-built checker-delta feature cache (16-dim extension).

        Built on first use so experiments that never touch the ablation pay
        nothing; survives pickling along with its blob-count memo.
        """
        if getattr(self, "_deltas", None) is None:
            from ..staticcheck.delta import CheckerDeltaCache

            self._deltas = CheckerDeltaCache(self.world, obs=self.obs)
        return self._deltas

    # ---- shared dataset views --------------------------------------------

    @property
    def nvd_seed_shas(self) -> list[str]:
        """The crawled NVD-based security dataset (includes NVD link noise)."""
        return sorted(p.sha for p in self.crawl.security_patches)

    def wild_pool(self, size: int, exclude: set[str] | None = None, seed: int = 0) -> list[str]:
        """A random unlabeled pool drawn from the wild (non-NVD commits)."""
        exclude = exclude or set()
        exclude = exclude | set(self.nvd_seed_shas)
        pool = [s for s in self.world.wild_shas() if s not in exclude]
        rng = np.random.default_rng(self.seed + 100 + seed)
        idx = rng.permutation(len(pool))[: min(size, len(pool))]
        return [pool[int(i)] for i in idx]

    def ground_truth_nonsec(self, size: int, seed: int = 0) -> list[str]:
        """A clean non-security sample (stands in for the verified 23K set)."""
        pool = [s for s in self.world.all_shas() if not self.world.label(s).is_security]
        rng = np.random.default_rng(self.seed + 200 + seed)
        idx = rng.permutation(len(pool))[: min(size, len(pool))]
        return [pool[int(i)] for i in idx]

    def oracle(self, seed: int = 0) -> VerificationOracle:
        """A fresh expert panel (stats start at zero)."""
        return VerificationOracle(self.world, seed=self.seed + 300 + seed)

    # ---- run manifests and traces -----------------------------------------

    def manifest(self, **extra: object) -> dict:
        """The run manifest: everything needed to identify or replay a run.

        Records the scale preset (name and the counts it implies), the world
        seed and git-style world digest, the build's attempted-vs-produced
        commit accounting (so shard-merge parity is exactly checkable from
        the manifest alone), and the library's cache revision; *extra* keys
        (command name, wall clock, output paths …) are merged in by callers
        like the CLI.  This is the first record of every exported trace file.
        """
        stats = self.world.build_stats or {}
        base = {
            "format": "repro-run-manifest-v1",
            "scale": self.scale.name,
            "n_commits": self.scale.n_commits,
            "n_repos": self.scale.n_repos,
            "seed": self.seed,
            "world_digest": self.world.digest(),
            "commits_attempted": stats.get("attempted"),
            "commits_produced": stats.get("produced"),
            "commits_skipped": (
                stats.get("skipped_no_c_paths", 0) + stats.get("skipped_exhausted", 0)
                if stats
                else None
            ),
            "cache_rev": self._CACHE_REV,
            "created_unix": time.time(),
        }
        base.update(extra)
        return base

    def write_trace(self, path: str | Path, **extra: object) -> Path:
        """Export this world's obs registry as a JSONL trace file.

        The manifest record carries the world identity plus *extra*;
        ``python -m repro trace <path>`` renders the result.
        """
        return self.obs.export_trace(path, manifest=self.manifest(**extra))

    # ---- disk caching -----------------------------------------------------

    def rebind_obs(self, obs: ObsRegistry) -> None:
        """Point this world's instrumentation at *obs*.

        A cache-loaded world carries the registry of the run that built it;
        a new run (e.g. a CLI invocation with its own ``--trace``) rebinds
        so its spans and counters accumulate in one place.
        """
        self.obs = obs
        self.cache.obs = obs
        self.tokens.obs = obs
        if getattr(self, "_deltas", None) is not None:
            self._deltas.obs = obs

    @classmethod
    def cached(
        cls,
        scale: ExperimentScale,
        seed: int = 2021,
        cache_dir: str | Path = ".cache",
        workers: int | None = None,
        obs: ObsRegistry | None = None,
    ) -> "ExperimentWorld":
        """Build or load a pickled experiment world.

        World construction is the expensive part of every benchmark; caching
        it on disk makes reruns start in seconds (CI builds the SMALL
        artifact once and shares it across jobs).  *workers* parallelizes a
        cold build; *obs* becomes the returned world's registry in both the
        build and load paths.  The pickle is written atomically; an
        unreadable one is rebuilt and, with *obs*, counts ``cache.corrupt``.
        """
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"expworld_{scale.name}_{scale.n_commits}_{seed}.pkl"
        if path.exists():
            try:
                with path.open("rb") as fh:
                    loaded = pickle.load(fh)
                if isinstance(loaded, cls) and getattr(loaded, "_cache_rev", 0) == cls._CACHE_REV:
                    if obs is not None:
                        loaded.rebind_obs(obs)
                    return loaded
            except Exception:
                if obs is not None:
                    obs.add("cache.corrupt")
                path.unlink(missing_ok=True)
        built = cls(scale, seed, workers=workers, obs=obs)
        atomic_write(path, lambda fh: pickle.dump(built, fh))
        return built


# ---------------------------------------------------------------------------
# Table II — wild-based dataset construction via five augmentation rounds.
# ---------------------------------------------------------------------------


def run_table2(ew: ExperimentWorld, seed: int = 0) -> AugmentationOutcome:
    """Five rounds of augmentation across Sets I/II/III (Table II)."""
    with ew.obs.span("experiment.table2", seed=seed):
        set1 = ew.wild_pool(ew.scale.set1_size, seed=seed)
        used = set(set1)
        set2 = ew.wild_pool(ew.scale.set23_size, exclude=used, seed=seed + 1)
        used |= set(set2)
        set3 = ew.wild_pool(ew.scale.set23_size, exclude=used, seed=seed + 2)
        augmentation = DatasetAugmentation(ew.cache, ew.oracle(seed))
        return augmentation.run_schedule(
            ew.nvd_seed_shas,
            [
                SearchSet("Set I", tuple(set1), rounds=3),
                SearchSet("Set II", tuple(set2), rounds=1),
                SearchSet("Set III", tuple(set3), rounds=1),
            ],
        )


# ---------------------------------------------------------------------------
# Table III — the four augmentation methods on one pool.
# ---------------------------------------------------------------------------


def run_table3(
    ew: ExperimentWorld, seed: int = 0, ml_workers: int | None = None
) -> list[BaselineResult]:
    """Compare brute force / pseudo / uncertainty / nearest link (Table III).

    Args:
        ew: the experiment world.
        seed: protocol RNG seed.
        ml_workers: fit the baselines' classifiers in a process pool of
            this size (``None`` inherits ``ew.ml_workers``); candidate
            sets are identical either way.
    """
    ml_workers = ml_workers if ml_workers is not None else ew.ml_workers
    with ew.obs.span("experiment.table3", seed=seed, ml_workers=ml_workers):
        return _run_table3(ew, seed, ml_workers)


def _run_table3(
    ew: ExperimentWorld, seed: int, ml_workers: int | None
) -> list[BaselineResult]:
    pool = ew.wild_pool(ew.scale.set23_size, seed=seed + 10)
    seed_sec = ew.nvd_seed_shas
    seed_non = ew.ground_truth_nonsec(2 * len(seed_sec), seed=seed)
    sample = ew.scale.verify_sample
    results = []
    for method, candidates in (
        ("Brute Force Search", brute_force_candidates(pool)),
        (
            "Pseudo Labeling",
            pseudo_label_candidates(
                ew.cache, seed_sec, seed_non, pool, seed=seed, workers=ml_workers
            ),
        ),
        (
            "Uncertainty-based Labeling",
            uncertainty_candidates(
                ew.cache, seed_sec, seed_non, pool, seed=seed, workers=ml_workers
            ),
        ),
        (
            "Nearest Link Search (ours)",
            nearest_link_candidates(ew.cache, seed_sec, pool),
        ),
    ):
        results.append(
            evaluate_candidates(
                method, candidates, len(pool), ew.oracle(seed + len(results)), sample_size=sample, seed=seed
            )
        )
    return results


# ---------------------------------------------------------------------------
# Table IV — usefulness of synthetic patches.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Table4Result:
    """The four rows of Table IV."""

    rows: list[tuple[str, str, float, float]] = field(default_factory=list)

    def table(self) -> str:
        """Render the table."""
        out = [f"{'Dataset':<10s} {'Synthetic':<22s} {'Precision':>9s} {'Recall':>7s}"]
        for dataset, synth, p, r in self.rows:
            out.append(f"{dataset:<10s} {synth:<22s} {p:>9.1%} {r:>7.1%}")
        return "\n".join(out)


def _effective_epochs(base: int, n_train: int) -> int:
    """Scale epochs up on small datasets so the RNN actually converges.

    A fixed epoch count under-trains the scaled-down NVD-only splits; the
    paper trains to convergence, so we approximate that with an update
    budget of at least ~4000 sequence presentations, capped at 40 epochs.
    """
    return max(base, min(40, (4000 + n_train - 1) // max(n_train, 1)))


def _sequences(ew: ExperimentWorld, shas: list[str], engine: bool = False) -> list[list[str]]:
    if engine:
        return ew.tokens.sequences(shas)
    return [patch_token_sequence(ew.world.patch_for(s)) for s in shas]


def _fit_through_cache(
    fits: list[tuple],
    keys: list[str],
    model_cache: FittedModelCache | None,
    workers: int | None,
    obs: ObsRegistry,
) -> list:
    """:func:`fit_many` with an optional persisted fit cache in front.

    Every fit in the Table IV/VI suite is a pure function of its labeled
    training shas and estimator configuration — exactly what
    :func:`~repro.ml.model_cache.training_key` hashes — so cached entries
    are returned as-is and only the misses are fitted (serially or in the
    process pool).  Re-evaluating with an unchanged training set therefore
    performs zero training, no matter how the test set changed.
    """
    if model_cache is None:
        return fit_many(fits, workers=workers, obs=obs)
    fitted = [model_cache.get(key) for key in keys]
    misses = [i for i, model in enumerate(fitted) if model is None]
    if misses:
        fresh = fit_many([fits[i] for i in misses], workers=workers, obs=obs)
        for i, model in zip(misses, fresh):
            model_cache.put(keys[i], model)
            fitted[i] = model
    return fitted


@dataclass(slots=True)
class _Table4Fit:
    """One of Table IV's independent RNN fits, staged for :func:`fit_many`."""

    dataset: int  # index into the dataset list
    variant: str  # "nat" | "syn"
    rnn: RNNClassifier
    train_seqs: list[list[str]]
    y_train: np.ndarray
    test_seqs: list[list[str]]
    y_test: np.ndarray
    key: str = ""  # training-set sha key for the fitted-model cache


def _rnn_key(shas: list[str], labels: np.ndarray, epochs: int, seed: int) -> str:
    """Cache key of one staged RNN fit (see :func:`_fit_through_cache`)."""
    return training_key(
        shas,
        labels,
        {
            "estimator": "RNNClassifier",
            "epochs": epochs,
            "batch_size": 32,
            "seed": seed,
            "features": "token-seq",
        },
    )


def run_table4(
    ew: ExperimentWorld,
    seed: int = 0,
    max_per_patch: int = 3,
    n_seeds: int = 4,
    ml_workers: int | None = None,
    model_cache: FittedModelCache | None = None,
) -> Table4Result:
    """Security patch identification with and without synthetic data (Table IV).

    The scaled-down test splits are small, so precision/recall are averaged
    over *n_seeds* independent split+training runs (the paper's corpus is
    ~25x larger, making a single run stable there); the reported synthetic
    counts are likewise the per-seed mean.

    The ``2 datasets x n_seeds x {natural, synthetic}`` RNN fits are
    mutually independent, so with *ml_workers* set (or inherited from
    ``ew.ml_workers``) they run through :func:`repro.ml.fit_many` with
    token sequences served from ``ew.tokens`` and per-origin synthesis
    memoized — same rows as the serial path, bit for bit.

    With *model_cache* set, each fit is first looked up by its
    training-set sha key (:func:`training_key` over the labeled training
    shas + estimator config); re-running with an unchanged training set
    re-fits nothing.
    """
    ml_workers = ml_workers if ml_workers is not None else ew.ml_workers
    with ew.obs.span(
        "experiment.table4", seed=seed, n_seeds=n_seeds, ml_workers=ml_workers
    ):
        return _run_table4(ew, seed, max_per_patch, n_seeds, ml_workers, model_cache)


def _run_table4(
    ew: ExperimentWorld,
    seed: int,
    max_per_patch: int,
    n_seeds: int,
    ml_workers: int | None,
    model_cache: FittedModelCache | None = None,
) -> Table4Result:
    engine = ml_workers is not None
    epochs = ew.scale.rnn_epochs
    synth = PatchSynthesizer(ew.world, max_per_patch=max_per_patch, seed=seed, memoize=engine)
    result = Table4Result()

    nvd_sec = ew.nvd_seed_shas
    wild_sec = [s for s in ew.world.security_shas() if s not in set(nvd_sec)]
    nonsec = ew.ground_truth_nonsec(2 * (len(nvd_sec) + len(wild_sec)), seed=seed)

    def syn_sequence(patch) -> list[str]:
        if engine:
            return ew.tokens.sequence_of(patch)
        return patch_token_sequence(patch)

    # ---- stage every independent fit --------------------------------------
    datasets = [("NVD", nvd_sec), ("NVD+Wild", nvd_sec + wild_sec)]
    fits: list[_Table4Fit] = []
    synth_totals = [[0, 0] for _ in datasets]  # summed (sec, non) over seeds
    for d_idx, (dataset_name, sec_shas) in enumerate(datasets):
        non_shas = nonsec[: 2 * len(sec_shas)]
        labeled = [(s, 1) for s in sec_shas] + [(s, 0) for s in non_shas]
        y = np.array([lab for _, lab in labeled])
        for k in range(n_seeds):
            split_seed = seed + 17 * k
            train_idx, test_idx = train_test_split(
                len(labeled), 0.2, y=y, stratify=True, seed=split_seed
            )
            train_shas = [labeled[i] for i in train_idx]
            test_shas = [labeled[i] for i in test_idx]

            train_seqs = _sequences(ew, [s for s, _ in train_shas], engine)
            test_seqs = _sequences(ew, [s for s, _ in test_shas], engine)
            y_train = np.array([lab for _, lab in train_shas])
            y_test = np.array([lab for _, lab in test_shas])
            # Fix the epoch budget from the *natural* train size so the with-
            # and without-synthetic rows differ only in training data.
            eff_epochs = _effective_epochs(epochs, len(train_shas))
            fits.append(
                _Table4Fit(
                    d_idx,
                    "nat",
                    RNNClassifier(epochs=eff_epochs, batch_size=32, seed=split_seed),
                    train_seqs,
                    y_train,
                    test_seqs,
                    y_test,
                    key=_rnn_key([s for s, _ in train_shas], y_train, eff_epochs, split_seed),
                )
            )

            # Synthesize from the *training* shas only (as the paper stresses).
            syn_shas: list[str] = []
            syn_seqs: list[list[str]] = []
            syn_labels: list[int] = []
            for s, lab in train_shas:
                for sp in synth.synthesize(s):
                    syn_shas.append(sp.patch.sha)
                    syn_seqs.append(syn_sequence(sp.patch))
                    syn_labels.append(lab)
            synth_totals[d_idx][0] += sum(1 for lab in syn_labels if lab == 1)
            synth_totals[d_idx][1] += sum(1 for lab in syn_labels if lab == 0)
            y_syn = np.concatenate([y_train, np.array(syn_labels, dtype=y_train.dtype)])
            fits.append(
                _Table4Fit(
                    d_idx,
                    "syn",
                    RNNClassifier(epochs=eff_epochs, batch_size=32, seed=split_seed),
                    train_seqs + syn_seqs,
                    y_syn,
                    test_seqs,
                    y_test,
                    key=_rnn_key(
                        [s for s, _ in train_shas] + syn_shas, y_syn, eff_epochs, split_seed
                    ),
                )
            )

    # ---- fit (serially or in a process pool), then evaluate ----------------
    fitted = _fit_through_cache(
        [(f.rnn, f.train_seqs, f.y_train) for f in fits],
        [f.key for f in fits],
        model_cache,
        ml_workers,
        ew.obs,
    )
    metrics = [{"nat": np.zeros(2), "syn": np.zeros(2)} for _ in datasets]
    for f, rnn in zip(fits, fitted):
        report = classification_report(f.y_test, rnn.predict(f.test_seqs))
        metrics[f.dataset][f.variant] += (report.precision, report.recall)

    for d_idx, (dataset_name, _) in enumerate(datasets):
        nat = metrics[d_idx]["nat"] / n_seeds
        syn = metrics[d_idx]["syn"] / n_seeds
        n_sec = int(round(synth_totals[d_idx][0] / n_seeds))
        n_non = int(round(synth_totals[d_idx][1] / n_seeds))
        result.rows.append((dataset_name, "-", float(nat[0]), float(nat[1])))
        result.rows.append(
            (dataset_name, f"{n_sec} Sec + {n_non} NonSec", float(syn[0]), float(syn[1]))
        )
    return result


# ---------------------------------------------------------------------------
# Table V / Fig. 6 — dataset composition.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Table5Result:
    """The Table V distribution plus summary stats."""

    distribution: dict[int, float]
    n_patches: int

    def table(self) -> str:
        """Render the Table V analogue."""
        return distribution_table(self.distribution, f"Security patch distribution ({self.n_patches} patches)")


def run_table5(ew: ExperimentWorld, sample_size: int = 1000, seed: int = 0) -> Table5Result:
    """Categorize a security-patch sample by code change (Table V)."""
    sec = ew.world.security_shas()
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(sec))[: min(sample_size, len(sec))]
    sample = [sec[int(i)] for i in idx]
    types = [categorize_patch(ew.world.patch_for(s)) for s in sample]
    return Table5Result(distribution=type_distribution(types), n_patches=len(sample))


@dataclass(slots=True)
class Fig6Result:
    """NVD-based vs wild-based type distributions (Fig. 6)."""

    nvd_distribution: dict[int, float]
    wild_distribution: dict[int, float]

    @property
    def tv_distance(self) -> float:
        """How different the two distributions are."""
        return total_variation_distance(self.nvd_distribution, self.wild_distribution)

    @property
    def nvd_head_share(self) -> float:
        """Top-3 share of the NVD distribution (long-tail head)."""
        return head_share(self.nvd_distribution, 3)

    @property
    def gini(self) -> tuple[float, float]:
        """(NVD, wild) concentration."""
        return gini_coefficient(self.nvd_distribution), gini_coefficient(self.wild_distribution)

    def table(self) -> str:
        """Render both distributions side by side."""
        out = [f"{'ID':>3s} {'NVD-based':>10s} {'wild-based':>11s}"]
        for t in sorted(self.nvd_distribution):
            out.append(
                f"{t:>3d} {self.nvd_distribution[t]:>10.1%} {self.wild_distribution[t]:>11.1%}"
            )
        out.append(f"TV distance = {self.tv_distance:.3f}")
        return "\n".join(out)


def run_fig6(ew: ExperimentWorld, seed: int = 0) -> Fig6Result:
    """Per-source categorization histograms (Fig. 6).

    Uses the wild security patches *discovered by nearest link search* (a
    Table II run), mirroring the paper's wild-based dataset rather than the
    full ground truth.
    """
    outcome = run_table2(ew, seed=seed)
    nvd_set = set(ew.nvd_seed_shas)
    wild_found = [s for s in outcome.security_shas if s not in nvd_set]
    nvd_types = [categorize_patch(ew.world.patch_for(s)) for s in sorted(nvd_set)]
    wild_types = [categorize_patch(ew.world.patch_for(s)) for s in wild_found]
    return Fig6Result(
        nvd_distribution=type_distribution(nvd_types),
        wild_distribution=type_distribution(wild_types),
    )


# ---------------------------------------------------------------------------
# Table VI — dataset quality via cross-source generalization.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Table6Result:
    """The eight rows of Table VI."""

    rows: list[tuple[str, str, str, float, float]] = field(default_factory=list)

    def table(self) -> str:
        """Render the table."""
        out = [f"{'Train':<10s} {'Algorithm':<15s} {'Test':<6s} {'Precision':>9s} {'Recall':>7s}"]
        for train, algo, test, p, r in self.rows:
            out.append(f"{train:<10s} {algo:<15s} {test:<6s} {p:>9.1%} {r:>7.1%}")
        return "\n".join(out)


def run_table6(
    ew: ExperimentWorld,
    seed: int = 0,
    ml_workers: int | None = None,
    model_cache: FittedModelCache | None = None,
) -> Table6Result:
    """Train RF/RNN on NVD vs NVD+wild; test on NVD and wild (Table VI).

    The four fits (RF and RNN per train set) are independent; with
    *ml_workers* set (or inherited from ``ew.ml_workers``) they run
    concurrently through :func:`repro.ml.fit_many` with token sequences
    served from ``ew.tokens`` — rows are bit-identical to the serial path.
    With *model_cache* set, fits whose training-set sha key is already
    cached are served from the cache (re-evaluation with an unchanged
    training set never re-fits).
    """
    ml_workers = ml_workers if ml_workers is not None else ew.ml_workers
    with ew.obs.span("experiment.table6", seed=seed, ml_workers=ml_workers):
        return _run_table6(ew, seed, ml_workers, model_cache)


def _run_table6(
    ew: ExperimentWorld,
    seed: int,
    ml_workers: int | None,
    model_cache: FittedModelCache | None = None,
) -> Table6Result:
    engine = ml_workers is not None
    epochs = ew.scale.rnn_epochs
    nvd_sec = ew.nvd_seed_shas
    wild_sec = [s for s in ew.world.security_shas() if s not in set(nvd_sec)]
    nonsec = ew.ground_truth_nonsec(2 * (len(nvd_sec) + len(wild_sec)), seed=seed)
    non_nvd = nonsec[: 2 * len(nvd_sec)]
    non_wild = nonsec[2 * len(nvd_sec) : 2 * len(nvd_sec) + 2 * len(wild_sec)]

    def split(sec: list[str], non: list[str], split_seed: int):
        labeled = [(s, 1) for s in sec] + [(s, 0) for s in non]
        y = np.array([lab for _, lab in labeled])
        tr, te = train_test_split(len(labeled), 0.2, y=y, stratify=True, seed=split_seed)
        return [labeled[i] for i in tr], [labeled[i] for i in te]

    nvd_train, nvd_test = split(nvd_sec, non_nvd, seed)
    wild_train, wild_test = split(wild_sec, non_wild, seed + 1)

    train_sets = {"NVD": nvd_train, "NVD+Wild": nvd_train + wild_train}
    test_sets = {"NVD": nvd_test, "Wild": wild_test}

    # Stage the four independent fits: (RF, RNN) per train set.
    fits = []
    keys = []
    for train_name, train in train_sets.items():
        train_shas = [s for s, _ in train]
        X_feat = ew.cache.matrix(train_shas)
        y_train = np.array([lab for _, lab in train])
        rf = RandomForestClassifier(n_estimators=40, max_depth=14, seed=seed, obs=ew.obs)
        eff_epochs = _effective_epochs(epochs, len(train))
        rnn = RNNClassifier(epochs=eff_epochs, batch_size=32, seed=seed)
        fits.append((rf, X_feat, y_train))
        keys.append(
            training_key(
                train_shas,
                y_train,
                {
                    "estimator": "RandomForestClassifier",
                    "n_estimators": 40,
                    "max_depth": 14,
                    "seed": seed,
                    "features": "table1-60",
                },
            )
        )
        fits.append((rnn, _sequences(ew, train_shas, engine), y_train))
        keys.append(_rnn_key(train_shas, y_train, eff_epochs, seed))
    fitted = _fit_through_cache(fits, keys, model_cache, ml_workers, ew.obs)

    result = Table6Result()
    for i, train_name in enumerate(train_sets):
        rf, rnn = fitted[2 * i], fitted[2 * i + 1]
        for algo, predict in (
            ("Random Forest", lambda shas: rf.predict(ew.cache.matrix(shas))),
            ("RNN", lambda shas: rnn.predict(_sequences(ew, shas, engine))),
        ):
            for test_name, test in test_sets.items():
                shas = [s for s, _ in test]
                y_true = np.array([lab for _, lab in test])
                report = classification_report(y_true, predict(shas))
                result.rows.append((train_name, algo, test_name, report.precision, report.recall))
    return result


# ---------------------------------------------------------------------------
# Checker-delta ablation — does the static-analysis feature channel help?
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CheckDeltaResult:
    """Rows of the checker-delta ablation: (features, test set, P, R, F1)."""

    rows: list[tuple[str, str, float, float, float]] = field(default_factory=list)

    def table(self) -> str:
        """Render the ablation rows."""
        out = [f"{'Features':<16s} {'Test':<6s} {'Precision':>9s} {'Recall':>7s} {'F1':>7s}"]
        for feats, test, p, r, f1 in self.rows:
            out.append(f"{feats:<16s} {test:<6s} {p:>9.1%} {r:>7.1%} {f1:>7.1%}")
        return "\n".join(out)


def run_checkdelta_ablation(ew: ExperimentWorld, seed: int = 0) -> CheckDeltaResult:
    """Table VI-style ablation of the checker-delta feature block.

    Trains the same Random Forest on NVD+wild security patches under three
    feature sets — the 60-dim Table I vector, that vector plus the 16-dim
    checker-delta block (:mod:`repro.staticcheck.delta`), and the delta
    block alone — and tests on held-out NVD and wild sets.  The protocol
    (splits, class balance, hyperparameters) matches :func:`run_table6`, so
    the base-60 rows are directly comparable to the RF rows there.

    Deterministic: identical ``(ew, seed)`` inputs produce identical rows.
    """
    nvd_sec = ew.nvd_seed_shas
    wild_sec = [s for s in ew.world.security_shas() if s not in set(nvd_sec)]
    nonsec = ew.ground_truth_nonsec(2 * (len(nvd_sec) + len(wild_sec)), seed=seed)
    non_nvd = nonsec[: 2 * len(nvd_sec)]
    non_wild = nonsec[2 * len(nvd_sec) : 2 * len(nvd_sec) + 2 * len(wild_sec)]

    def split(sec: list[str], non: list[str], split_seed: int):
        labeled = [(s, 1) for s in sec] + [(s, 0) for s in non]
        y = np.array([lab for _, lab in labeled])
        tr, te = train_test_split(len(labeled), 0.2, y=y, stratify=True, seed=split_seed)
        return [labeled[i] for i in tr], [labeled[i] for i in te]

    nvd_train, nvd_test = split(nvd_sec, non_nvd, seed)
    wild_train, wild_test = split(wild_sec, non_wild, seed + 1)
    train = nvd_train + wild_train
    test_sets = {"NVD": nvd_test, "Wild": wild_test}

    from ..staticcheck.delta import extend_matrix

    train_shas = [s for s, _ in train]
    y_train = np.array([lab for _, lab in train])

    def matrices(shas: list[str]) -> dict[str, np.ndarray]:
        base = ew.cache.matrix(shas)
        delta = ew.deltas.matrix(shas)
        return {
            "table1-60": base,
            "table1+delta": extend_matrix(base, delta),
            "delta-16": delta,
        }

    X_train = matrices(train_shas)
    result = CheckDeltaResult()
    for feats in X_train:
        rf = RandomForestClassifier(n_estimators=40, max_depth=14, seed=seed, obs=ew.obs)
        rf.fit(X_train[feats], y_train)
        for test_name, test in test_sets.items():
            shas = [s for s, _ in test]
            y_true = np.array([lab for _, lab in test])
            report = classification_report(y_true, rf.predict(matrices(shas)[feats]))
            result.rows.append((feats, test_name, report.precision, report.recall, report.f1))
    return result


# ---------------------------------------------------------------------------
# The full pipeline: build a PatchDB release (used by examples).
# ---------------------------------------------------------------------------


def build_patchdb(ew: ExperimentWorld, seed: int = 0, synthesize: bool = True) -> PatchDB:
    """Run the whole construction methodology (Fig. 1) and return PatchDB."""
    with ew.obs.span("patchdb.build", seed=seed, synthesize=synthesize):
        db = PatchDB()
        nvd_set = set(ew.nvd_seed_shas)
        cve_by_sha = {p.sha: cve for cve, p in ew.crawl.patches.items()}
        with ew.obs.span("patchdb.nvd_seed", patches=len(nvd_set)):
            for sha in sorted(nvd_set):
                patch = ew.world.patch_for(sha)
                db.add(
                    PatchRecord(
                        patch=patch,
                        source="nvd",
                        is_security=True,
                        pattern_type=categorize_patch(patch),
                        cve_id=cve_by_sha.get(sha),
                    )
                )
        outcome = run_table2(ew, seed=seed)
        with ew.obs.span("patchdb.wild", found=len(outcome.security_shas)):
            for sha in outcome.security_shas:
                if sha in nvd_set:
                    continue
                patch = ew.world.patch_for(sha)
                db.add(
                    PatchRecord(
                        patch=patch,
                        source="wild",
                        is_security=True,
                        pattern_type=categorize_patch(patch),
                    )
                )
            for sha in outcome.non_security_shas:
                db.add(
                    PatchRecord(patch=ew.world.patch_for(sha), source="wild", is_security=False)
                )
        if synthesize:
            with ew.obs.span("patchdb.synthesize"):
                synthesizer = PatchSynthesizer(ew.world, max_per_patch=2, seed=seed)
                for record in list(db):
                    if record.source == "synthetic":
                        continue
                    for sp in synthesizer.synthesize(record.patch.sha):
                        db.add(
                            PatchRecord(
                                patch=sp.patch,
                                source="synthetic",
                                is_security=record.is_security,
                                pattern_type=record.pattern_type,
                            )
                        )
        return db

"""PatchDB core: the paper's contributed pipelines.

Nearest link search (Algorithm 1), the human-in-the-loop augmentation
scheme (Fig. 2), the Table III baselines, the verification oracle, the
Table V categorizer, the per-world commit cache, and the PatchDB dataset container.
"""

from .augmentation import AugmentationOutcome, DatasetAugmentation, RoundResult, SearchSet
from .baselines import (
    BaselineResult,
    brute_force_candidates,
    evaluate_candidates,
    nearest_link_candidates,
    pseudo_label_candidates,
    uncertainty_candidates,
)
from .cache import CommitCache
from .categorize import categorize_many, categorize_patch
from .index import PatchIndex, RecordRenderCache
from .nearest_link import NearestLinkResult, exact_assignment, link_distances, nearest_link_search
from .oracle import VerificationOracle, VerificationStats
from .patchdb import SOURCES, PatchDB, PatchRecord
from .query import PatchQuery, QueryError

__all__ = [
    "AugmentationOutcome",
    "BaselineResult",
    "CommitCache",
    "DatasetAugmentation",
    "NearestLinkResult",
    "PatchDB",
    "PatchIndex",
    "PatchQuery",
    "PatchRecord",
    "QueryError",
    "RecordRenderCache",
    "RoundResult",
    "SOURCES",
    "SearchSet",
    "VerificationOracle",
    "VerificationStats",
    "brute_force_candidates",
    "categorize_many",
    "categorize_patch",
    "evaluate_candidates",
    "exact_assignment",
    "link_distances",
    "nearest_link_candidates",
    "nearest_link_search",
    "pseudo_label_candidates",
    "uncertainty_candidates",
]

"""repro — string similarity search: sequential scan vs. prefix-tree index.

A complete, from-scratch Python reproduction of

    Hentschel, Meyer, Rommel:
    *Trying to outperform a well-known index with a sequential scan.*
    EDBT/ICDT 2013 Joint Conference.

The library answers bounded edit-distance queries (find every dataset
string within edit distance ``k`` of a query) two ways — an aggressively
optimized sequential scan and an annotated (compressed) prefix-tree
index — and ships the full experimental apparatus the paper built
around that comparison: staged optimizations, filters, parallel
execution strategies, dataset generators, and a benchmark harness that
regenerates every table and figure of the evaluation.

Quick start
-----------
>>> from repro import SearchEngine
>>> engine = SearchEngine(["Berlin", "Bern", "Ulm", "Hamburg"])
>>> [match.string for match in engine.search("Berlino", 2)]
['Berlin']

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

from repro.core.deadline import Budget, Deadline
from repro.core.engine import SearchEngine
from repro.core.explain import explain_pair
from repro.core.planner import (
    CostProfile,
    Planner,
    PlannerPolicy,
    QueryPlan,
    calibrate,
)
from repro.core.request import SearchOptions, SearchRequest
from repro.core.indexed import IndexedSearcher
from repro.core.join import (
    JoinPair,
    JoinResult,
    deduplicate,
    similarity_join,
)
from repro.core.pipeline import Approach, ApproachPipeline, StageOutcome
from repro.core.problem import SimilaritySearchProblem
from repro.core.topk import nearest, search_topk
from repro.core.result import Match, ResultSet
from repro.core.sequential import SequentialScanSearcher
from repro.core.verification import (
    verify_against_reference,
    verify_result_sets,
)
from repro.data.workload import Workload, make_workload
from repro.scan import (
    BatchScanExecutor,
    CompiledCorpus,
    CompiledScanSearcher,
)
from repro.distance.banded import edit_distance_bounded, within_distance
from repro.distance.levenshtein import edit_distance
from repro.obs import (
    MetricsRegistry,
    SearchReport,
    build_report,
    validate_report,
)
from repro.exceptions import (
    AlphabetError,
    DatasetFormatError,
    DeadlineExceeded,
    FrozenCorpusError,
    IndexConstructionError,
    InvalidThresholdError,
    ParallelismError,
    PartialResultError,
    ReproError,
    ServiceOverloaded,
    VerificationError,
    WorkloadError,
)
from repro.live import Corpus, CorpusEvent, LiveCorpus
from repro.service import Service, ServiceResult, ShardedCorpus

__version__ = "1.0.0"

__all__ = [
    "SearchEngine",
    "SequentialScanSearcher",
    "CompiledScanSearcher",
    "CompiledCorpus",
    "BatchScanExecutor",
    "IndexedSearcher",
    "SimilaritySearchProblem",
    "Match",
    "ResultSet",
    "Approach",
    "ApproachPipeline",
    "StageOutcome",
    "verify_result_sets",
    "verify_against_reference",
    "Workload",
    "make_workload",
    "JoinPair",
    "JoinResult",
    "similarity_join",
    "deduplicate",
    "search_topk",
    "nearest",
    "Corpus",
    "CorpusEvent",
    "LiveCorpus",
    "MetricsRegistry",
    "SearchReport",
    "build_report",
    "validate_report",
    "explain_pair",
    "edit_distance",
    "edit_distance_bounded",
    "within_distance",
    "SearchRequest",
    "SearchOptions",
    "Planner",
    "PlannerPolicy",
    "QueryPlan",
    "CostProfile",
    "calibrate",
    "Deadline",
    "Budget",
    "Service",
    "ServiceResult",
    "ShardedCorpus",
    "ReproError",
    "FrozenCorpusError",
    "InvalidThresholdError",
    "AlphabetError",
    "DatasetFormatError",
    "VerificationError",
    "WorkloadError",
    "IndexConstructionError",
    "ParallelismError",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "PartialResultError",
    "__version__",
]

"""The paper's contribution: staged similarity searchers and methodology.

This package ties the substrates together into the two competing
solutions the paper evaluates, plus the methodology it evaluates them
with:

* :class:`SequentialScanSearcher` — the sequential solution, with every
  optimization stage of section 3 available as a configuration knob.
* :class:`IndexedSearcher` — the index-based solution of section 4 over
  a (compressed) prefix trie or a q-gram index.
* :mod:`repro.core.stages` — the named stage ladders of Figures 3 and 5.
* :class:`ApproachPipeline` — the accept/reject loop: run an approach,
  verify its results against the reference, keep it only if it is both
  correct and faster.
* :class:`SearchEngine` — a user-facing facade that picks a sensible
  configuration from dataset shape (the paper's conclusion as a
  heuristic).
"""

from repro.core.engine import SearchEngine
from repro.core.explain import PairExplanation, explain_pair
from repro.core.indexed import IndexedSearcher
from repro.core.planner import (
    CorpusStatistics,
    CostEstimate,
    CostProfile,
    Planner,
    PlannerPolicy,
    QueryPlan,
    calibrate,
    collect_statistics,
)
from repro.core.join import (
    JoinPair,
    JoinResult,
    deduplicate,
    index_join,
    prefix_join,
    scan_join,
    similarity_join,
)
from repro.core.pipeline import Approach, ApproachPipeline, StageOutcome
from repro.core.problem import SimilaritySearchProblem
from repro.core.result import Match, ResultSet
from repro.core.searcher import Searcher
from repro.core.sequential import SequentialScanSearcher
from repro.core.topk import nearest, search_topk
from repro.core.stages import (
    index_stage_ladder,
    sequential_stage_ladder,
)
from repro.core.verification import verify_result_sets

__all__ = [
    "SimilaritySearchProblem",
    "Match",
    "ResultSet",
    "Searcher",
    "SequentialScanSearcher",
    "IndexedSearcher",
    "SearchEngine",
    "Approach",
    "ApproachPipeline",
    "StageOutcome",
    "sequential_stage_ladder",
    "index_stage_ladder",
    "verify_result_sets",
    "JoinPair",
    "JoinResult",
    "similarity_join",
    "scan_join",
    "index_join",
    "prefix_join",
    "deduplicate",
    "search_topk",
    "nearest",
    "PairExplanation",
    "explain_pair",
    "Planner",
    "PlannerPolicy",
    "QueryPlan",
    "CostEstimate",
    "CostProfile",
    "CorpusStatistics",
    "collect_statistics",
    "calibrate",
]

"""Index structures for string similarity search.

The paper's index-based solution (section 4) is a prefix tree whose
nodes carry the minimum and maximum string length reachable below them,
enabling early pruning (conditions 9/10), later compressed by merging
single-child chains (section 4.2). This package implements that index
and the related-work alternatives it is positioned against:

* :class:`PrefixTrie` — the paper's index, with optional PETER-style
  frequency-vector annotations (section 2.3 / future work section 6).
* :class:`CompressedTrie` — the radix-compressed form of section 4.2.
* :func:`trie_similarity_search` — threshold search over either trie.
* :class:`FlatTrie` / :func:`flat_similarity_search` — either trie
  shape built directly as flat CSR arrays, with a level-synchronous
  numpy descent (see :mod:`repro.index.flat`), plus
  :class:`TrieProbe` — that descent as a probe of the shared
  :class:`repro.core.batch.BatchExecutor` — and
  :class:`BatchIndexExecutor` / :class:`FlatIndexSearcher`, the core
  with that probe built in (see :mod:`repro.index.batch`).
* :class:`QGramIndex` — inverted q-gram index, the "well-known index"
  family most mature systems use.
* :class:`SuffixArray` — Navarro-style suffix-array substrate with
  pattern-partitioning approximate search (section 2.3).
"""

from repro.index.autocomplete import Completion, autocomplete
from repro.index.automaton import LevenshteinAutomaton, automaton_trie_search
from repro.index.batch import (
    BatchIndexExecutor,
    FlatIndexSearcher,
    TrieProbe,
)
from repro.index.bktree import BKTree, bktree_from
from repro.index.compressed import CompressedTrie
from repro.index.dawg import Dawg
from repro.index.flat import FlatTrie, flat_similarity_search
from repro.index.node import TrieNode
from repro.index.qgram_index import QGramIndex
from repro.index.suffix_array import SuffixArray
from repro.index.traversal import TraversalStats, trie_similarity_search
from repro.index.trie import PrefixTrie

__all__ = [
    "TrieNode",
    "PrefixTrie",
    "CompressedTrie",
    "trie_similarity_search",
    "TraversalStats",
    "FlatTrie",
    "flat_similarity_search",
    "BatchIndexExecutor",
    "FlatIndexSearcher",
    "TrieProbe",
    "LevenshteinAutomaton",
    "automaton_trie_search",
    "Completion",
    "autocomplete",
    "BKTree",
    "bktree_from",
    "Dawg",
    "QGramIndex",
    "SuffixArray",
]

"""Memory footprints (sections 2.3/4.2 context): time/space trade-offs.

The paper motivates compression and PETER's design by main-memory
pressure; this bench quantifies what each structure actually costs to
hold, on both datasets.
"""

from repro.bench.memory import (
    measure_compiled_footprints,
    measure_footprints,
    render_compiled_footprints,
)
from repro.bench.experiment import load_city_dataset, load_dna_dataset
from repro.bench.registry import run_experiment


def test_memory_footprints(benchmark, scale, emit):
    report = benchmark.pedantic(
        run_experiment, args=("memory", scale), rounds=1, iterations=1
    )
    emit("memory", report)

    # Compression's memory story (the paper's section 4.2 rationale):
    # the compressed trie must be much smaller than the plain one.
    for dataset in (list(load_city_dataset(scale.city_count)),
                    list(load_dna_dataset(scale.dna_count))):
        sizes = measure_footprints(dataset)
        assert sizes["compressed trie"] < sizes["prefix trie"] / 2
        # Annotations cost memory — the PETER trade-off.
        assert sizes["compressed trie + freq vectors"] > \
            sizes["compressed trie"]


def test_compiled_footprints(scale, emit, tmp_path):
    """The raw-speed layer's storage ladder, measured on DNA.

    The buckets' bit-packed words must compress the code storage by
    the bits-per-symbol ratio (~2.6x for 3-bit DNA, 4x for 2-bit), and an
    mmap-loaded segment must cost this process's heap almost nothing —
    its arrays are views into the page cache.
    """
    from repro.scan.corpus import CompiledCorpus

    # Floor the dataset size: below a few hundred strings, fixed
    # object headers dominate and the storage ratios are meaningless.
    dna = list(load_dna_dataset(max(scale.dna_count, 400)))
    segment = str(tmp_path / "dna-corpus.seg")
    emit("memory_compiled",
         render_compiled_footprints(dna, "DNA", segment_path=segment))

    sizes = measure_compiled_footprints(dna, segment_path=segment)
    # The mmap load keeps no bucket payloads on the heap.
    assert sizes["corpus segment (mmap heap cost)"] < \
        sizes["compiled corpus"] / 5

    # The paper's section-6 compression ratio, in bulk: byte codes vs
    # bit-packed codes inside the compiled corpus itself.
    profile = CompiledCorpus(dna).storage_profile()
    assert profile["packed_reduction"] >= 2.0

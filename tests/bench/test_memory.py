"""Unit tests for deep memory measurement."""

import sys

import pytest

from repro.bench.memory import deep_sizeof, format_bytes, \
    measure_flat_build, measure_footprints, render_footprints


class TestDeepSizeof:
    def test_atomic_values(self):
        assert deep_sizeof(42) == sys.getsizeof(42)
        assert deep_sizeof("hello") == sys.getsizeof("hello")

    def test_container_includes_contents(self):
        empty = deep_sizeof([])
        loaded = deep_sizeof(["some string", "another string"])
        assert loaded > empty

    def test_shared_objects_counted_once(self):
        shared = "x" * 1000
        once = deep_sizeof([shared])
        twice = deep_sizeof([shared, shared])
        # The second reference adds only a pointer slot, not the string.
        assert twice - once < sys.getsizeof(shared)

    def test_cycles_terminate(self):
        a: list = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects_traversed(self):
        from repro.index.node import TrieNode

        node = TrieNode("x")
        node.children["y"] = TrieNode("y")
        assert deep_sizeof(node) > deep_sizeof(TrieNode("x"))

    def test_dict_keys_and_values_counted(self):
        small = deep_sizeof({})
        big = deep_sizeof({"key" * 50: "value" * 50})
        assert big > small + 200


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2048) == "2.0 KiB"

    def test_mib(self):
        assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"

    def test_gib(self):
        assert format_bytes(5 * 1024 ** 3) == "5.0 GiB"


class TestFootprints:
    DATA = ["Hamburg", "Magdeburg", "Marburg", "Bern", "Berlin"] * 4

    def test_all_structures_measured(self):
        sizes = measure_footprints(self.DATA)
        assert set(sizes) == {
            "raw strings (list)", "prefix trie", "compressed trie",
            "compressed trie + freq vectors", "DAWG",
            "inverted q-gram index", "BK-tree",
        }
        assert all(size > 0 for size in sizes.values())

    def test_compression_shrinks_the_trie(self):
        sizes = measure_footprints(self.DATA)
        assert sizes["compressed trie"] < sizes["prefix trie"]

    def test_frequency_vectors_cost_memory(self):
        sizes = measure_footprints(self.DATA)
        assert sizes["compressed trie + freq vectors"] > \
            sizes["compressed trie"]

    def test_render_contains_ratios(self):
        report = render_footprints(self.DATA, "test")
        assert "x raw" in report
        assert "DAWG" in report

    def test_render_shows_flat_trie_construction_cost(self):
        build = measure_flat_build(self.DATA)
        assert build["build_seconds"] > 0
        assert 0 < build["build_peak_bytes"]
        assert build["size_bytes"] > 0
        report = render_footprints(self.DATA, "test")
        assert "flat trie build" in report and " s" in report

"""The old route to the flat arrays, kept as the test oracle.

Until the sorted-LCP builder landed, :class:`repro.index.flat.FlatTrie`
was built by inserting every string into an object
:class:`~repro.index.trie.PrefixTrie`, optionally radix-compressing it
into a :class:`~repro.index.compressed.CompressedTrie`, and walking the
result in preorder. That walk lives on here, unchanged in what it
computes, as the reference the array-native builder must equal field
for field (``tests/index/test_flat_build_properties.py``).
"""

from __future__ import annotations

from repro.data.alphabet import Alphabet
from repro.index.compressed import CompressedTrie
from repro.index.trie import PrefixTrie

INT64_MAX = 2**63 - 1

#: Every field a :class:`FlatTrie` holds besides its alphabet.
FIELDS = (
    "_label_offsets", "_label_codes", "_child_offsets", "_child_ids",
    "_child_first", "_sub_min", "_sub_max", "_terminal_count",
    "_terminal_sid", "_strings", "_freq_min", "_freq_max",
    "_string_count", "_max_depth", "_tracked", "_case_insensitive",
)


def object_trie(strings, *, compress=True, tracked_symbols=None,
                case_insensitive_frequencies=True):
    """The object trie the old ``FlatTrie(strings, ...)`` froze."""
    kind = CompressedTrie if compress else PrefixTrie
    return kind(strings, tracked_symbols=tracked_symbols,
                case_insensitive_frequencies=case_insensitive_frequencies)


def freeze(trie: PrefixTrie | CompressedTrie,
           alphabet: Alphabet | None = None) -> dict:
    """Freeze an object trie into the flat fields, keyed as in ``FIELDS``
    plus ``"alphabet"`` (the symbols string, or ``None``).

    Raises ``KeyError`` for a label symbol outside an explicit alphabet.
    """
    # Preorder walk with children sorted by label, so node ids are
    # DFS-contiguous and the strings table comes out lexicographic.
    order: list = []
    prefixes: list[str] = []
    stack = [(trie.root, "")]
    while stack:
        node, prefix = stack.pop()
        prefix = prefix + node.label
        order.append(node)
        prefixes.append(prefix)
        for symbol in sorted(node.children, reverse=True):
            stack.append((node.children[symbol], prefix))

    if alphabet is None:
        symbols = sorted({s for node in order for s in node.label})
        alphabet = Alphabet("inferred", "".join(symbols)) \
            if symbols else None
    codes = alphabet._codes if alphabet is not None else {}
    ids = {id(node): index for index, node in enumerate(order)}

    label_offsets = [0]
    label_codes: list[int] = []
    child_offsets = [0]
    child_ids: list[int] = []
    strings: list[str] = []
    terminal_sid: list[int] = []
    tracked = trie.tracked_symbols
    has_freq = bool(tracked) and order[0].freq_min is not None
    freq_min: list[int] = []
    freq_max: list[int] = []
    for index, node in enumerate(order):
        label_codes.extend(codes[symbol] for symbol in node.label)
        label_offsets.append(len(label_codes))
        child_ids.extend(ids[id(node.children[symbol])]
                         for symbol in sorted(node.children))
        child_offsets.append(len(child_ids))
        terminal_sid.append(len(strings) if node.terminal_count else -1)
        if node.terminal_count:
            strings.append(prefixes[index])
        if has_freq:
            freq_min.extend(node.freq_min)
            freq_max.extend(node.freq_max)
    return {
        "alphabet": alphabet.symbols if alphabet is not None else None,
        "_label_offsets": tuple(label_offsets),
        "_label_codes": tuple(label_codes),
        "_child_offsets": tuple(child_offsets),
        "_child_ids": tuple(child_ids),
        "_child_first": tuple(label_codes[label_offsets[child]]
                              for child in child_ids),
        # The empty root's 2**63 "no strings yet" bound does not fit
        # an int64 array, which stores its largest value instead.
        "_sub_min": tuple(min(n.subtree_min_length, INT64_MAX)
                          for n in order),
        "_sub_max": tuple(n.subtree_max_length for n in order),
        "_terminal_count": tuple(n.terminal_count for n in order),
        "_terminal_sid": tuple(terminal_sid),
        "_strings": tuple(strings),
        "_freq_min": tuple(freq_min) if has_freq else None,
        "_freq_max": tuple(freq_max) if has_freq else None,
        "_string_count": trie.string_count,
        "_max_depth": trie.max_depth,
        "_tracked": tracked,
        "_case_insensitive": trie.case_insensitive_frequencies,
    }


def fields_of(flat) -> dict:
    """The same mapping, read off a built :class:`FlatTrie`.

    Its int64 arrays are read out as tuples of Python ints, the
    currency of :func:`freeze`.
    """
    found = {name: getattr(flat, name) for name in FIELDS}
    for name, value in found.items():
        if hasattr(value, "tolist"):
            found[name] = tuple(value.tolist())
    found["alphabet"] = flat.alphabet.symbols \
        if flat.alphabet is not None else None
    return found

"""String↔integer interning for words and keyphrases.

The paper stores words and labels as unsigned integers "to occupy minimal
space and convert string comparisons to integer ones" (Section III-F).
A vocabulary is a plain ``dict`` from string to dense id, inserted in
id order, so ``list(vocab)`` is its strings by id and ``vocab.get`` the
O(1) lookup.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Collection, Dict, List, Sequence, Tuple

import numpy as np


def intern_strings(parts: Sequence[Collection[str]]
                   ) -> Tuple[List[str], List[np.ndarray]]:
    """Intern the strings of ``parts``, taken in order, in one pass:
    each string once in first-occurrence order, and per part the id
    (index in that list) of each of its strings — the ids one
    ``vocab.setdefault(string, len(vocab))`` per string assigns, with
    no Python call per string.  One C-level ``dict.setdefault`` map
    yields each string's first position; a scatter of those positions
    plus a cumsum densifies them."""
    first: Dict[str, int] = {}
    positions = np.fromiter(map(first.setdefault, chain.from_iterable(
        parts), count()), dtype=np.int64)
    is_first = np.zeros(len(positions), dtype=np.int64)
    is_first[positions] = 1
    ids = np.cumsum(is_first)[positions] - 1
    ends = np.cumsum([len(part) for part in parts], dtype=np.int64).tolist()
    return list(first), [ids[start:end]
                         for start, end in zip([0] + ends, ends)]


def first_occurrence(parts: Sequence[np.ndarray], size: int
                     ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """:func:`intern_strings` on integers in ``[0, size)``, by an
    O(n + size) reversed scatter (the last write, the first occurrence,
    wins): no sort, no string touched."""
    ids = parts[0] if len(parts) == 1 else np.concatenate(
        [np.empty(0, dtype=np.int64), *parts])
    first = np.full(size, -1, dtype=np.int64)
    first[ids[::-1]] = np.arange(len(ids) - 1, -1, -1, dtype=np.int64)
    is_first = np.zeros(len(ids), dtype=bool)
    is_first[first[first >= 0]] = True
    local = (np.cumsum(is_first, dtype=np.int64) - 1)[first[ids]]
    ends = np.cumsum([len(part) for part in parts], dtype=np.int64).tolist()
    return ids[is_first], [local[start:end]
                           for start, end in zip([0] + ends, ends)]

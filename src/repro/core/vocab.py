"""String↔integer interning for words and keyphrases.

The paper stores words and labels as unsigned integers "to occupy minimal
space and convert string comparisons to integer ones" (Section III-F).
:class:`Vocabulary` is that mapping: append-only, dense ids from 0.
"""

from __future__ import annotations

from itertools import chain, count
from typing import (Collection, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np


def intern_strings(parts: Sequence[Collection[str]]
                   ) -> Tuple[List[str], List[np.ndarray]]:
    """Intern the strings of ``parts``, taken in order, in one pass:
    each string once in first-occurrence order, and per part the id
    (index in that list) of each of its strings — the ids one
    :meth:`Vocabulary.add` per string assigns, with no Python call per
    string.  One C-level ``dict.setdefault`` map yields each string's
    first position; a scatter of those positions plus a cumsum
    densifies them."""
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


class Vocabulary:
    """Append-only bidirectional mapping between strings and dense ids."""

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._ids: Dict[str, int] = {}
        self._tokens: List[str] = []
        for token in tokens:
            self.add(token)

    @classmethod
    def from_interned(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Bulk constructor for an already-deduplicated token stream.

        The bulk construction engine interns with one ``np.unique`` pass
        and already knows its tokens are distinct and in id order, so
        this skips the per-token existence check of :meth:`add`.

        Raises:
            ValueError: If ``tokens`` contains duplicates.
        """
        vocab = cls.__new__(cls)
        vocab._tokens = list(tokens)
        vocab._ids = {token: i for i, token in enumerate(vocab._tokens)}
        if len(vocab._ids) != len(vocab._tokens):
            raise ValueError("from_interned requires distinct tokens")
        return vocab

    def add(self, token: str) -> int:
        """Intern a token, returning its id (existing or newly assigned)."""
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        new_id = len(self._tokens)
        self._ids[token] = new_id
        self._tokens.append(token)
        return new_id

    def get(self, token: str) -> Optional[int]:
        """Id of a token, or None if it was never interned."""
        return self._ids.get(token)

    @property
    def ids(self) -> Dict[str, int]:
        """The token → id dict itself, for C-level lookups: never write."""
        return self._ids

    def token(self, token_id: int) -> str:
        """Token string for an id.

        Raises:
            IndexError: If the id was never assigned.
        """
        return self._tokens[token_id]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    @property
    def tokens(self) -> List[str]:
        """All interned tokens in id order (a copy)."""
        return list(self._tokens)

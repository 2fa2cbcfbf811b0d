"""Compressed Sparse Row storage for bipartite graphs.

The paper stores each leaf-category bipartite graph in CSR format: edges
"are constructed as tuples, sorted and then de-duplicated based on their
IDs" (Section III-F), occupying ``|X| + |E|`` space, with O(1) access to a
word's adjacency list and O(d) traversal.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np


class CSRGraph:
    """Adjacency of a bipartite graph from left vertices to right vertices.

    Attributes:
        indptr: ``int64`` array of length ``n_left + 1``; the neighbours of
            left vertex ``u`` are ``indices[indptr[u]:indptr[u + 1]]``.
        indices: ``int32`` array of right-vertex ids, free of duplicates
            within each adjacency list; a builder's are sorted, and a
            model plane's keep that order under their new ids.

    Zero-copy friendly: ``np.asarray`` in the constructor passes an
    already-typed array through *without copying*, preserving its
    writeability flag — so a graph wrapped around read-only views of a
    memory-mapped model artifact (:mod:`repro.core.serialization`) stays
    backed by the file, and in-place writes to its arrays raise.  See
    :attr:`is_readonly`.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 n_right: int, *, validate: bool = True) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self._n_right = int(n_right)
        if validate:
            self.validate()

    @property
    def is_readonly(self) -> bool:
        """Whether the CSR arrays reject in-place writes — true for
        graphs opened zero-copy from an mmap-backed model artifact,
        false for freshly built ones."""
        return not (self.indptr.flags.writeable
                    or self.indices.flags.writeable)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], n_left: int,
                   n_right: int) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Edges are sorted and de-duplicated, exactly as the paper describes.

        Args:
            edges: Iterable of ``(left_id, right_id)`` pairs.
            n_left: Number of left vertices (words).
            n_right: Number of right vertices (keyphrases).

        Raises:
            ValueError: If an edge references a vertex out of range.
        """
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.min() < 0:
                raise ValueError("negative vertex id in edge list")
            if arr[:, 0].max() >= n_left:
                raise ValueError("left vertex id out of range")
            if arr[:, 1].max() >= n_right:
                raise ValueError("right vertex id out of range")
            # Sort by (left, right) then de-duplicate.
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            keep = np.ones(len(arr), dtype=bool)
            keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
            arr = arr[keep]
            lefts = arr[:, 0]
            indices = arr[:, 1].astype(np.int32)
        else:
            lefts = np.empty(0, dtype=np.int64)
            indices = np.empty(0, dtype=np.int32)
        return cls.from_sorted_pairs(lefts, indices, n_left, n_right)

    @classmethod
    def from_sorted_pairs(cls, lefts: np.ndarray, indices: np.ndarray,
                          n_left: int, n_right: int) -> "CSRGraph":
        """CSR from edge arrays already sorted by (left, right) and free
        of duplicates — the shared assembly tail of :meth:`from_edges`
        and the bulk construction engine.

        The caller asserts the precondition; the counts → cumsum indptr
        derivation establishes the remaining invariants, so the
        redundant ``validate()`` pass is skipped.
        """
        counts = np.bincount(lefts, minlength=n_left)
        indptr = np.zeros(n_left + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, np.asarray(indices, dtype=np.int32), n_right,
                   validate=False)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(self.indptr) == 0:
            raise ValueError("indptr must have at least one entry")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= self._n_right):
            raise ValueError("right vertex id out of range")

    @property
    def n_left(self) -> int:
        """Number of left (word) vertices."""
        return len(self.indptr) - 1

    @property
    def n_right(self) -> int:
        """Number of right (keyphrase) vertices."""
        return self._n_right

    @property
    def n_edges(self) -> int:
        """Number of stored edges."""
        return len(self.indices)

    @property
    def average_degree(self) -> float:
        """Average left-vertex degree ``d_avg = |E| / |X|`` (paper III-E1)."""
        return self.n_edges / self.n_left if self.n_left else 0.0

    def neighbors(self, left_id: int) -> np.ndarray:
        """Right-vertex neighbours of ``left_id`` (a read-only view).

        Raises:
            IndexError: If ``left_id`` is out of range.
        """
        if not 0 <= left_id < self.n_left:
            raise IndexError(f"left vertex {left_id} out of range")
        return self.indices[self.indptr[left_id]:self.indptr[left_id + 1]]

    def degree(self, left_id: int) -> int:
        """Degree of a left vertex."""
        return int(self.indptr[left_id + 1] - self.indptr[left_id])

    def memory_bytes(self) -> int:
        """Bytes occupied by the CSR arrays (for Figure 6b model sizing)."""
        return self.indptr.nbytes + self.indices.nbytes

    def __repr__(self) -> str:
        return (f"CSRGraph(n_left={self.n_left}, n_right={self.n_right}, "
                f"n_edges={self.n_edges})")

"""Model persistence, zero-copy opens, and size accounting.

A :class:`~repro.core.model.GraphExModel` serializes to a directory in
one format, the one :func:`save_model` writes: **format 3**, the
zero-copy model plane.  Every numeric array (per-leaf CSR
``indptr``/``indices``, count arrays, pool-id arrays) plus the shared
string pool (one UTF-8 blob + offset arrays; every distinct vocabulary
word or label text stored once) lands uncompressed and page-aligned in
a single ``arrays-*.bin`` payload; ``model.json`` carries only the
manifest (offset, dtype, shape per array).
``load_model(directory, mmap=True)`` then opens the model as
*read-only views over one* ``np.memmap`` — no array is copied, no
pickle runs, label strings decode lazily on first access — so opening
is O(metadata) rather than O(model), N processes on one host share a
single physical copy of the pages, and a daily hot-swap is a remap
instead of a reload.

The program reads only what it writes: a directory of any other
``format_version`` — 1 and 2, unwritten since PR 16, as much as a
future one — is refused by one named ``ValueError``, and ``model.json``
is checked as outside input before it is followed (:func:`_read_meta`).

Atomic re-save: :func:`save_model` writes the payload under a fresh
``arrays-<token>.bin`` name and atomically replaces ``model.json``
(write-to-temp + ``os.replace``), so a rebuild over the same directory
never tears the artifact for concurrent readers, and models already
mapped from the old payload keep serving (the old inode stays alive
under its mappings until they close — POSIX semantics).

Bit-identity contract: a saved model loads element-wise/string-identical
mapped and copied, and an mmap-opened model serves byte-identical
output to a copied-open one through both inference engines
(``tests/test_model_serialization.py`` pins this property-based).

``model_size_bytes`` of the serialized form backs the Figure 6b
model-size comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from collections import abc
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .alignment import get_alignment
from .csr import CSRGraph
from .model import GraphExModel, LeafGraph
from .tokenize import SpaceTokenizer
from .vocab import Vocabulary

_META_FILE = "model.json"
_POOLED_KEY = "pooled"
#: The one format :func:`save_model` writes, and so the one format read.
_FORMAT_VERSION = 3

#: The ``model.json`` keys a model must carry, with their JSON types.
_MODEL_KEYS = {"arrays_file": str, "arrays": dict, "leaves": dict,
               "alignment": str, "tokenizer": dict}

#: Every format-3 array starts on a page boundary, so each memmap view
#: is naturally aligned and the kernel can fault arrays independently.
_PAGE_SIZE = 4096

#: Manifest keys of the shared string pool inside the v3 payload.
_POOL_BLOB = "pool/blob"
_POOL_BYTE_OFFSETS = "pool/byte_offsets"
_POOL_CHAR_OFFSETS = "pool/char_offsets"

#: The sections :func:`_unpack_leaf` reads under each leaf's prefix.
_LEAF_SECTIONS = ("indptr", "indices", "label_lengths", "search_counts",
                  "recall_counts", "word_ids", "label_ids")


def _leaf_key(leaf_id: int) -> str:
    return _POOLED_KEY if leaf_id == -1 else str(leaf_id)


# ---------------------------------------------------------------------------
# The lazy string plane (format 3, mmap opens)


class _LazyStringPool:
    """The shared string pool, decoded lazily from a mapped UTF-8 blob.

    ``blob`` is a read-only ``uint8`` view over the mapped payload and
    ``byte_offsets`` the ``n + 1`` slice boundaries; a string is decoded
    on first access and kept, so an mmap open pays for exactly the
    strings it touches (eagerly: per-leaf vocabulary words, which the
    interning dict needs; lazily: label texts, which only materialised
    recommendations read).  The decoded strings live in one object
    array indexed by pool id (``None`` until read; 8 bytes per pool
    string), so a bulk read is one fancy index, and :meth:`take` and
    ``pool[i]`` hand out the same ``str``.
    """

    __slots__ = ("_blob", "_byte_offsets", "_table")

    def __init__(self, blob: np.ndarray, byte_offsets: np.ndarray) -> None:
        self._blob = blob
        self._byte_offsets = byte_offsets
        self._table = np.full(len(byte_offsets) - 1, None, dtype=object)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, pool_id: int) -> str:
        text = self._table[pool_id]
        if text is None:
            lo = self._byte_offsets[pool_id]
            hi = self._byte_offsets[pool_id + 1]
            text = self._table[pool_id] = str(
                memoryview(self._blob)[lo:hi], "utf-8")
        return text

    def take(self, pool_ids: np.ndarray) -> List[str]:
        """``[self[i] for i in pool_ids]`` as one fancy index once the
        strings are decoded (the steady state of a serving model); the
        first op on a fresh mapping decodes its misses in bulk."""
        out = self._table[pool_ids].tolist()
        if None in out:
            # First-occurrence order, not sorted: the string heap keeps
            # allocation order, and serving reads request order.
            misses = list(dict.fromkeys(
                pool_id for pool_id, text in zip(pool_ids.tolist(), out)
                if text is None))
            wanted = np.asarray(misses, dtype=np.int64)
            blob = memoryview(self._blob)
            for pool_id, lo, hi in zip(
                    misses, self._byte_offsets[wanted].tolist(),
                    self._byte_offsets[wanted + 1].tolist()):
                self._table[pool_id] = str(blob[lo:hi], "utf-8")
            out = self._table[pool_ids].tolist()
        return out


class LazyStringList(abc.Sequence):
    """A list-equivalent view of pool strings, decoded on access.

    ``label_texts`` of an mmap-opened leaf is one of these: indexing,
    iteration, ``len`` and equality behave exactly like the ``list`` the
    copied open builds, but nothing decodes until read.  Pickling (e.g.
    shipping a mapped model to inference worker processes) materialises
    a plain list — the mapped file need not exist on the other side.
    """

    __slots__ = ("_pool", "_ids")

    def __init__(self, pool: _LazyStringPool, ids: np.ndarray) -> None:
        self._pool = pool
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._pool[i] for i in self._ids[index]]
        return self._pool[self._ids[index]]

    def take(self, indices: np.ndarray) -> List[str]:
        """Bulk ``[self[i] for i in indices]``: one fancy-index into the
        id array, then the pool's decoded strings."""
        return self._pool.take(self._ids[indices])

    def __iter__(self) -> Iterator[str]:
        pool = self._pool
        return (pool[i] for i in self._ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, LazyStringList)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"LazyStringList({list(self)!r})"

    def __reduce__(self):
        return (list, (list(self),))


# ---------------------------------------------------------------------------
# Per-leaf pack/unpack


def _pack_leaf(prefix: str, leaf: LeafGraph,
               arrays: Dict[str, np.ndarray],
               pool: Vocabulary) -> Dict[str, object]:
    arrays[f"{prefix}/indptr"] = leaf.graph.indptr
    arrays[f"{prefix}/indices"] = leaf.graph.indices
    arrays[f"{prefix}/label_lengths"] = leaf.label_lengths
    arrays[f"{prefix}/search_counts"] = leaf.search_counts
    arrays[f"{prefix}/recall_counts"] = leaf.recall_counts
    # The shared pool is itself a Vocabulary: append-only string → id.
    arrays[f"{prefix}/word_ids"] = np.fromiter(
        map(pool.add, leaf.word_vocab.tokens), dtype=np.int64,
        count=len(leaf.word_vocab))
    arrays[f"{prefix}/label_ids"] = np.fromiter(
        map(pool.add, leaf.label_texts), dtype=np.int64,
        count=len(leaf.label_texts))
    return {"leaf_id": leaf.leaf_id}


def _unpack_leaf(meta: Dict[str, object], arrays: Dict[str, np.ndarray],
                 prefix: str, string_pool, mmap: bool) -> LeafGraph:
    """One leaf over what :func:`_open_payload_v3` returned for the
    same ``mmap``: a mapped leaf reads its label texts lazily and skips
    CSR validation, a copied one decodes and validates everything."""
    words = [string_pool[i] for i in arrays[f"{prefix}/word_ids"].tolist()]
    label_ids = arrays[f"{prefix}/label_ids"]
    label_texts: Sequence[str] = (
        LazyStringList(string_pool, label_ids) if mmap
        else [string_pool[i] for i in label_ids.tolist()])
    graph = CSRGraph(
        indptr=arrays[f"{prefix}/indptr"],
        indices=arrays[f"{prefix}/indices"],
        n_right=max(1, len(label_texts)),
        validate=not mmap,
    )
    return LeafGraph(
        leaf_id=int(meta["leaf_id"]),
        word_vocab=Vocabulary.from_interned(words),
        graph=graph,
        label_texts=label_texts,
        label_lengths=arrays[f"{prefix}/label_lengths"],
        search_counts=arrays[f"{prefix}/search_counts"],
        recall_counts=arrays[f"{prefix}/recall_counts"],
    )


def _pack_all(leaves: Sequence[LeafGraph]
              ) -> Tuple[Dict[str, Dict[str, object]],
                         Dict[str, np.ndarray], Vocabulary]:
    arrays: Dict[str, np.ndarray] = {}
    leaves_meta: Dict[str, Dict[str, object]] = {}
    pool = Vocabulary()
    for leaf in leaves:
        key = _leaf_key(leaf.leaf_id)
        leaves_meta[key] = _pack_leaf(key, leaf, arrays, pool)
    return leaves_meta, arrays, pool


# ---------------------------------------------------------------------------
# Format-3 payload: one uncompressed, page-aligned binary file


def _write_payload_v3(directory: Path, arrays: Dict[str, np.ndarray],
                      pool_tokens: Sequence[str]) -> Tuple[str, Dict]:
    """Write the raw binary payload; returns (filename, manifest).

    Arrays are laid out little-endian at page-aligned offsets.  The
    string pool becomes one UTF-8 blob plus byte offsets (for lazy
    per-string decodes straight off the mapping) and codepoint offsets
    (so a copied open can decode the whole blob once and slice).
    """
    encoded = [token.encode("utf-8") for token in pool_tokens]
    byte_offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64,
                          count=len(encoded)), out=byte_offsets[1:])
    char_offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pool_tokens), dtype=np.int64,
                          count=len(encoded)), out=char_offsets[1:])
    payload = dict(arrays)
    payload[_POOL_BLOB] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    payload[_POOL_BYTE_OFFSETS] = byte_offsets
    payload[_POOL_CHAR_OFFSETS] = char_offsets

    filename = f"arrays-{uuid.uuid4().hex}.bin"
    manifest: Dict[str, Dict[str, object]] = {}
    offset = 0
    tmp_path = directory / (filename + ".tmp")
    try:
        with open(tmp_path, "wb") as fh:
            for key, array in payload.items():
                array = np.ascontiguousarray(array)
                # Persist explicitly little-endian so the manifest dtype
                # is platform-independent (no copy on little-endian
                # hosts).
                dtype = array.dtype.newbyteorder("<")
                array = array.astype(dtype, copy=False)
                padding = -offset % _PAGE_SIZE
                if padding:
                    fh.write(b"\x00" * padding)
                    offset += padding
                manifest[key] = {"offset": offset, "dtype": dtype.str,
                                 "shape": list(array.shape)}
                data = array.tobytes()
                fh.write(data)
                offset += len(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, directory / filename)
    except BaseException:
        # Nothing else names the temp file: left behind, it leaks.
        tmp_path.unlink(missing_ok=True)
        raise
    return filename, manifest


def _section_end(entry: Dict) -> int:
    """Payload offset one past a manifest entry's last byte."""
    return entry["offset"] + (np.dtype(entry["dtype"]).itemsize
                              * math.prod(entry["shape"]))


def _open_payload_v3(directory: Path, meta: Dict, mmap: bool):
    """Read or map the v3 payload; returns ``(arrays, pool)``.

    ``mmap=True`` returns read-only ``np.ndarray`` views over one
    ``np.memmap`` (plain-ndarray views, so a mapped model still
    pickles — by materialising — into inference worker processes) and
    a lazy string pool; nothing but the manifest is read eagerly, and
    CSR invariant validation is skipped (it would fault in every page,
    defeating the O(metadata) open — the payload was written by
    :func:`save_model` and is covered by the cross-format suite).

    ``mmap=False`` reads the file once and copies every array out
    (writable, independent of the file) and decodes the whole pool.

    Raises:
        ValueError: The payload is shorter than its manifest says (a
            truncated copy): checked against the file's size before
            anything is viewed, since a mapped open never touches its
            last sections and would serve from a cut file.
    """
    path = directory / meta["arrays_file"]
    manifest = meta["arrays"]
    present = path.stat().st_size
    for key, entry in manifest.items():
        if _section_end(entry) > present:
            raise ValueError(
                f"truncated payload {path}: section {key!r} needs "
                f"{_section_end(entry)} bytes, the file holds {present}")
    raw = (np.memmap(path, dtype=np.uint8, mode="r") if mmap
           else np.frombuffer(path.read_bytes(), dtype=np.uint8))

    def view(key: str) -> np.ndarray:
        entry = manifest[key]
        return np.asarray(
            raw[entry["offset"]:_section_end(entry)]
            .view(np.dtype(entry["dtype"]))).reshape(entry["shape"])

    arrays = {key: view(key) if mmap else view(key).copy()
              for key in manifest if not key.startswith("pool/")}
    if mmap:
        return arrays, _LazyStringPool(view(_POOL_BLOB),
                                       view(_POOL_BYTE_OFFSETS))
    decoded = str(view(_POOL_BLOB), "utf-8")
    char_offsets = view(_POOL_CHAR_OFFSETS).tolist()
    return arrays, [decoded[lo:hi] for lo, hi in
                    zip(char_offsets, char_offsets[1:])]


def _replace_meta(directory: Path, meta: Dict) -> None:
    """Atomically (re)write ``model.json`` via write-to-temp + rename."""
    tmp_path = directory / (_META_FILE + f".tmp-{uuid.uuid4().hex}")
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, directory / _META_FILE)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def _prune_stale_payloads(directory: Path, keep: str) -> None:
    """Unlink payload files the current ``model.json`` no longer names.

    Models already mapped from a stale payload keep serving: the inode
    survives under its mappings (the rebuild-over-old-path scenario the
    serving tests pin).
    """
    for path in directory.glob("arrays-*.bin"):
        if path.name != keep:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent pruner
                pass


# ---------------------------------------------------------------------------
# Public API


def save_model(model: GraphExModel, directory: Union[str, Path]) -> Path:
    """Serialize a model to a directory (created if needed) as format 3.

    Args:
        model: The model to persist.
        directory: Destination directory; re-saving over a directory
            that already holds a model atomically replaces it: a fresh
            payload file is written and ``model.json`` swapped last, so
            concurrent readers never observe a torn artifact and
            already-mapped models keep serving the old payload.

    The header records the model's alignment name and tokenizer spec,
    which is all of either a model can hold, so every model saves.

    Returns:
        The directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    leaves = [model.leaf_graph(leaf_id) for leaf_id in model.leaf_ids]
    if model.pooled_graph is not None:
        leaves.append(model.pooled_graph)
    leaves_meta, arrays, pool = _pack_all(leaves)
    # The payload first; ``model.json``, which names it, last.
    filename, manifest = _write_payload_v3(directory, arrays, pool.tokens)
    _replace_meta(directory, {
        "format_version": _FORMAT_VERSION,
        "alignment": model.alignment_name,
        "tokenizer": {"type": "space", **model.tokenizer.spec()},
        "leaves": leaves_meta, "arrays_file": filename,
        "arrays": manifest, "pool_size": len(pool)})
    _prune_stale_payloads(directory, keep=filename)
    return directory


def _entry_problem(entry: object) -> Optional[str]:
    """What is wrong with one ``arrays`` manifest entry, or ``None``."""
    if not isinstance(entry, dict):
        return f"entry {entry!r} is not a JSON object"
    offset, dtype, shape = (entry.get("offset"), entry.get("dtype"),
                            entry.get("shape"))
    if type(offset) is not int or offset < 0:
        return f"offset {offset!r} is not a non-negative integer"
    try:
        kind = np.dtype(dtype).kind if isinstance(dtype, str) else None
    except (TypeError, ValueError, SyntaxError):
        kind = None
    if kind not in ("i", "u", "f"):
        return f"dtype {dtype!r} is not a fixed-size integer or float dtype"
    if not isinstance(shape, list) \
            or any(type(n) is not int or n < 0 for n in shape):
        return f"shape {shape!r} is not a list of non-negative integers"
    return None


def _check_manifest(path: Path, meta: Dict) -> None:
    """Refuse by name an ``arrays`` manifest the opener cannot trust:
    a section it reads is missing, an entry is not a non-negative
    integer offset, a fixed-size integer or float dtype and a shape of
    non-negative integers, or two sections overlap (taken in offset
    order) — each checked before any view is made."""
    manifest = meta["arrays"]
    for key in [f"{leaf}/{name}" for leaf in meta["leaves"]
                for name in _LEAF_SECTIONS] \
            + [_POOL_BLOB, _POOL_BYTE_OFFSETS, _POOL_CHAR_OFFSETS]:
        if key not in manifest:
            raise ValueError(f"malformed {path}: section {key!r} is "
                             f"missing")
    spans = []
    for key, entry in manifest.items():
        problem = _entry_problem(entry)
        if problem is not None:
            raise ValueError(f"malformed {path}: section {key!r}: "
                             f"{problem}")
        spans.append((entry["offset"], _section_end(entry), key))
    spans.sort()
    for (_start, end, key), (start, _end, after) in zip(spans, spans[1:]):
        if start < end:
            raise ValueError(f"malformed {path}: sections {key!r} and "
                             f"{after!r} overlap")


def _read_meta(directory: Path) -> Tuple[Dict, str]:
    """Read and check a model's ``model.json``.

    ``model.json`` is outside input: one named ``ValueError`` (the
    path, what is wrong) unless it is a JSON object of
    ``format_version`` 3 — judged first, whatever else is missing —
    holding every key the opener reads, each of its JSON type, an
    ``arrays_file`` that is a bare file name (the payload is opened
    inside the artifact directory, never wherever the manifest points),
    an ``arrays`` manifest :func:`_check_manifest` accepts, a registry
    alignment and a tokenizer spec :meth:`SpaceTokenizer.from_spec`
    accepts.

    Returns the parsed metadata and the artifact's identity: a digest
    of the very bytes parsed.  ``model.json`` names the payload file,
    which every :func:`save_model` call names afresh, so two opens agree
    on the identity exactly when they read the same save.
    """
    path = directory / _META_FILE
    raw = path.read_bytes()
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"malformed {path}: not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"malformed {path}: expected a JSON object, got "
                         f"a {type(meta).__name__}")
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format_version {version!r} in {path}; "
            f"this build reads only what it writes, format "
            f"{_FORMAT_VERSION} (formats 1 and 2 were last read, and "
            f"re-saved as 3 by load_model + save_model, at commit "
            f"f0008ce; a higher number was written by a newer build)")
    for key, kind in _MODEL_KEYS.items():
        if not isinstance(meta.get(key), kind):
            raise ValueError(
                f"malformed {path}: required key {key!r} is "
                + ("missing" if key not in meta else
                   f"{meta[key]!r}, not a JSON {kind.__name__}"))
    name = meta["arrays_file"]
    if name in ("", "..") or Path(name).name != name:
        raise ValueError(
            f"malformed {path}: arrays_file {name!r} is not a bare file "
            f"name; the payload lives inside the artifact directory")
    try:
        get_alignment(meta["alignment"])
        SpaceTokenizer.from_spec(meta["tokenizer"])
    except ValueError as exc:
        raise ValueError(f"malformed {path}: {exc}") from None
    _check_manifest(path, meta)
    return meta, hashlib.sha256(raw).hexdigest()[:16]


def load_model(directory: Union[str, Path],
               mmap: bool = False) -> GraphExModel:
    """Load a model previously written by :func:`save_model`.

    Args:
        directory: The serialized model directory.
        mmap: Open the model zero-copy — every numpy array is a
            *read-only* view over one ``np.memmap`` (in-place writes
            raise), label strings decode lazily, and N processes
            opening the same artifact share one physical copy of the
            pages.  Mapped and copied opens are bit-identical;
            ``tests/test_model_serialization.py`` pins it.

    Raises:
        FileNotFoundError: If the directory lacks the expected files.
        ValueError: On any ``format_version`` but 3 (the error names
            the version and the last commit that read 1 and 2), a
            malformed ``model.json`` (its manifest entries included) or
            a truncated payload.
    """
    directory = Path(directory)
    meta, identity = _read_meta(directory)
    arrays, string_pool = _open_payload_v3(directory, meta, mmap)
    leaf_graphs: Dict[int, LeafGraph] = {}
    pooled = None
    for key, leaf_meta in meta["leaves"].items():
        leaf = _unpack_leaf(leaf_meta, arrays, key, string_pool, mmap)
        if key == _POOLED_KEY:
            pooled = leaf
        else:
            leaf_graphs[leaf.leaf_id] = leaf
    model = GraphExModel(
        leaf_graphs, tokenizer=SpaceTokenizer.from_spec(meta["tokenizer"]),
        alignment=meta["alignment"], pooled_graph=pooled)
    model.artifact_identity = identity
    return model


def open_model(source: Union[GraphExModel, str, Path]) -> GraphExModel:
    """Polymorphic model hand-off: a model passes through, a path opens
    mapped (``load_model(path, mmap=True)``).

    The serving stack's ``refresh_model`` entry points and the cluster
    route through this, so an orchestrator hands a *directory path* to
    N serving processes instead of shipping N pickled copies, and the
    hot-swap is a remap, not a reload.
    """
    if isinstance(source, GraphExModel):
        return source
    return load_model(source, mmap=True)


def model_size_bytes(directory: Union[str, Path]) -> int:
    """Total on-disk size of a serialized model (Figure 6b)."""
    directory = Path(directory)
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())

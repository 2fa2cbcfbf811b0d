"""Model persistence, zero-copy opens, and size accounting.

A :class:`~repro.core.model.GraphExModel` serializes to a directory in
one format, the one :func:`save_model` writes: **format 6**, the
model's stacked :class:`~repro.core.model.GraphPlane` on disk, labels
in its static order (the label id is the score's tie-break).  The
payload, a single ``arrays-*.bin`` file, holds one uncompressed,
page-aligned section per array kind for all graphs at once —
``indptr``, ``indices``, ``label_lengths``, ``search_counts``,
``recall_counts``, and the pool ids of each graph's vocabulary words
(``word_ids``) and label texts (``label_ids``) — plus the shared string
pool (one UTF-8 blob + its byte offsets; every distinct word or label
text stored once).  ``model.json`` carries the manifest (offset, dtype,
shape per section) and, per graph under ``leaves``, its leaf id and its
CSR row, word, edge and label counts, which cut the sections into
graphs.

The one open, :func:`load_model`, reads ``model.json``, checks it and
maps the payload *read-only*: the plane sections and the pool are views
over that one mapping (no array copied, no pickle run), whose strings
one :class:`~repro.core.model.StringPool` decodes on first read.  N
processes on one host share one physical copy of the pages, a daily
hot-swap is a remap, and the fast engine reads a chunk of many graphs'
items with one gather per section.  Each open reads ``indptr`` and
``indices`` once, to check the whole plane's CSR, and each id and label
column once, to check its range (:func:`_check_plane`).

The program reads only what it writes: a directory of any other
``format_version`` — 1 and 2, 3 (the per-leaf layout), 4 (plus the
pool's codepoint offsets), 5 (labels in builder order), as much as a
future one — is refused by one named ``ValueError``, and
``model.json`` is checked as outside input before it is followed
(:func:`_read_meta`).

Atomic re-save: :func:`save_model` writes the payload under a fresh
``arrays-<token>.bin`` name and atomically replaces ``model.json``
(write-to-temp + ``os.replace``), so a rebuild over the same directory
never tears the artifact for concurrent readers, and models already
mapped from the old payload keep serving (the old inode stays alive
under its mappings until they close — POSIX semantics).  An opened
model is file-backed, so it survives its payload being unlinked but
not being overwritten in place, which no save does.

Bit-identity contract: a saved model opens element-wise and
string-identical to the model saved, and serves byte-identical output
to it through both inference engines
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
from itertools import count
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .alignment import get_alignment
from .model import GraphExModel, GraphPlane, StringPool
from .tokenize import SpaceTokenizer

_META_FILE = "model.json"
_POOLED_KEY = "pooled"
#: The one format :func:`save_model` writes, and so the one format read.
_FORMAT_VERSION = 6

#: The ``model.json`` keys a model must carry, with their JSON types.
_MODEL_KEYS = {"arrays_file": str, "arrays": dict, "leaves": dict,
               "alignment": str, "tokenizer": dict}

#: Every payload section starts on a page boundary, so each memmap view
#: is naturally aligned and the kernel can fault arrays independently.
_PAGE_SIZE = 4096

#: Manifest keys of the shared string pool inside the payload.
_POOL_BLOB = "pool/blob"
_POOL_BYTE_OFFSETS = "pool/byte_offsets"

#: The plane's sections, in the order :func:`save_model` writes them,
#: each with the per-graph count of ``leaves`` that sizes it (``indptr``
#: holds one row more per graph than its count).
_SECTIONS = {"indptr": "rows", "indices": "edges",
             "label_lengths": "labels", "search_counts": "labels",
             "recall_counts": "labels", "word_ids": "words",
             "label_ids": "labels"}

#: The keys of one ``leaves`` entry: its leaf id, then its counts.
_LEAF_KEYS = ("leaf_id", "rows", "words", "edges", "labels")


def _leaf_key(leaf_id: int) -> str:
    return _POOLED_KEY if leaf_id == -1 else str(leaf_id)


# ---------------------------------------------------------------------------
# The payload: one uncompressed, page-aligned binary file


def _write_payload(directory: Path, sections: Dict[str, np.ndarray],
                   pool_tokens: List[str]) -> Tuple[str, Dict]:
    """Write the raw binary payload; returns (filename, manifest).

    Each section is one 1-D array written little-endian from a
    page-aligned offset; nothing is copied on a little-endian host.  The
    string pool, in the order given, becomes one UTF-8 blob (a single
    ``"".join(...).encode()``) plus byte offsets, which each open
    decodes strings by on first read; only a non-ASCII string has more
    bytes than codepoints, so only those are encoded one by one, and
    only a joined pool that is not ASCII (one flag read) is searched
    for them.
    """
    n = len(pool_tokens)
    lengths = np.zeros(n + 1, dtype=np.int64)
    lengths[1:] = np.fromiter(map(len, pool_tokens), np.int64, count=n)
    joined = "".join(pool_tokens)
    if not joined.isascii():
        wide = np.flatnonzero(~np.fromiter(map(str.isascii, pool_tokens),
                                           dtype=bool, count=n))
        lengths[wide + 1] = [len(pool_tokens[i].encode("utf-8"))
                             for i in wide.tolist()]
    payload = dict(sections)
    payload[_POOL_BLOB] = np.frombuffer(joined.encode("utf-8"),
                                        dtype=np.uint8)
    payload[_POOL_BYTE_OFFSETS] = np.cumsum(lengths)

    filename = f"arrays-{uuid.uuid4().hex}.bin"
    manifest: Dict[str, Dict[str, object]] = {}
    offset = 0
    tmp_path = directory / (filename + ".tmp")
    try:
        with open(tmp_path, "wb") as fh:
            for key, array in payload.items():
                # Persist explicitly little-endian so the manifest dtype
                # is platform-independent (no copy on little-endian
                # hosts).
                dtype = array.dtype.newbyteorder("<")
                padding = -offset % _PAGE_SIZE
                if padding:
                    fh.write(b"\x00" * padding)
                    offset += padding
                manifest[key] = {"offset": offset, "dtype": dtype.str,
                                 "shape": [len(array)]}
                array = np.ascontiguousarray(array, dtype=dtype)
                fh.write(memoryview(array).cast("B"))
                offset += array.nbytes
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


def _open_payload(directory: Path, meta: Dict):
    """Map the payload read-only; returns ``(arrays, strings)``: the
    plane sections by name and the :class:`~repro.core.model.StringPool`
    decoding the pool on first read, plain-ndarray views over one
    mapping (so an opened model still pickles, by materialising).

    Raises:
        ValueError: The payload is shorter than its manifest says (a
            truncated copy), checked before anything is viewed: a
            mapping would serve from a cut file.
    """
    path = directory / meta["arrays_file"]
    manifest = meta["arrays"]
    present = path.stat().st_size
    for key, entry in manifest.items():
        if _section_end(entry) > present:
            raise ValueError(
                f"truncated payload {path}: section {key!r} needs "
                f"{_section_end(entry)} bytes, the file holds {present}")
    raw = np.memmap(path, dtype=np.uint8, mode="r")

    def view(key: str) -> np.ndarray:
        entry = manifest[key]
        return np.asarray(
            raw[entry["offset"]:_section_end(entry)]
            .view(np.dtype(entry["dtype"]))).reshape(entry["shape"])

    return ({key: view(key) for key in _SECTIONS},
            StringPool.over(view(_POOL_BLOB), view(_POOL_BYTE_OFFSETS)))


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
    """Serialize a model to a directory (created if needed) as format 6.

    Args:
        model: The model to persist.
        directory: Destination directory; a re-save over a model
            replaces it atomically (see "Atomic re-save" above).

    The header records the model's alignment name and tokenizer spec,
    which is all of either a model can hold, so every model saves.  The
    plane is written as it is, its pool and pool ids already in the
    artifact's order (:meth:`~repro.core.model.GraphPlane.assemble`):
    no string is hashed.

    Returns:
        The directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    plane, graphs = model.plane, model.plane_graphs
    sections = dict(zip(_SECTIONS, (
        plane.indptr, plane.indices, plane.label_lengths,
        plane.search_counts, plane.recall_counts, plane.word_ids,
        plane.text_ids)))
    leaves_meta = {_leaf_key(graph.leaf_id): dict(zip(_LEAF_KEYS, (
        graph.leaf_id, graph.graph.n_left, len(graph.word_vocab),
        graph.graph.n_edges, graph.n_labels))) for graph in graphs}
    # The payload first; ``model.json``, which names it, last.
    pool = plane.strings.take(np.arange(len(plane.strings)))
    filename, manifest = _write_payload(directory, sections, pool)
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
    for key in [*_SECTIONS, _POOL_BLOB, _POOL_BYTE_OFFSETS]:
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


def _leaf_problem(key: str, entry: object) -> Optional[str]:
    """What is wrong with one ``leaves`` entry, or ``None``."""
    if not isinstance(entry, dict):
        return f"entry {entry!r} is not a JSON object"
    unknown = sorted(set(entry) - set(_LEAF_KEYS))
    if unknown:
        return f"unknown key {unknown[0]!r}"
    for name in _LEAF_KEYS:
        if name not in entry:
            return f"{name} is missing"
    leaf_id = entry["leaf_id"]
    if type(leaf_id) is not int or _leaf_key(leaf_id) != key:
        return (f"leaf_id {leaf_id!r} is not its key's leaf id (the key "
                f"is str(leaf_id), {_POOLED_KEY!r} for -1)")
    for name in _LEAF_KEYS[1:]:
        count = entry[name]
        if type(count) is not int or count < 0:
            return f"{name} {count!r} is not a non-negative integer"
    if entry["words"] > entry["rows"]:
        return (f"words {entry['words']} exceed its {entry['rows']} CSR "
                f"rows")
    return None


def _check_leaves(path: Path, meta: Dict) -> None:
    """Refuse by name a ``leaves`` entry the opener cannot trust — not
    an object, a key other than :data:`_LEAF_KEYS` or one missing, a
    ``leaf_id`` that is not its key's (an int, ``-1`` exactly for
    ``pooled``), a count that is not a non-negative int, more words
    than CSR rows — or counts that do not sum to each plane section's
    shape (plus one ``indptr`` row per graph): a short section would
    otherwise serve the next graph's rows."""
    leaves = meta["leaves"]
    for key, entry in leaves.items():
        problem = _leaf_problem(key, entry)
        if problem is not None:
            raise ValueError(f"malformed {path}: leaf {key!r}: {problem}")
    for section, count in _SECTIONS.items():
        shape = meta["arrays"][section]["shape"]
        total = sum(entry[count] for entry in leaves.values()) \
            + (len(leaves) if section == "indptr" else 0)
        if shape != [total]:
            raise ValueError(
                f"malformed {path}: section {section!r} has shape "
                f"{shape}, its leaves' {count} make [{total}]")


def _check_plane(path: Path, plane: GraphPlane, keys: List[str]) -> None:
    """Refuse by name a graph, cut from the plane by its ``leaves``
    counts, whose CSR rows do not run from 0 to its edge count or fall,
    whose ``indices`` name a label outside its own (counts moved between
    graphs keep each section's sum right), or whose pool ids, label
    lengths or counts are out of range.  No graph loop."""
    def refuse(g, problem: str) -> ValueError:
        return ValueError(f"malformed {path}: leaf {keys[g]!r}: {problem}")

    indptr, indices, base = plane.indptr, plane.indices, plane.word_base
    edges, labels = np.diff(plane.entry_base), np.diff(plane.label_base)
    starts, ends = indptr[base[:-1]], indptr[base[1:] - 1]
    wrong = np.flatnonzero((starts != 0) | (ends != edges))
    if len(wrong):
        g = wrong[0]
        raise refuse(g, f"its CSR rows run from {starts[g]} to {ends[g]}, "
                        f"not from 0 to its {edges[g]} edges")
    # Each graph's row 0 follows the last row of the graph before it.
    falls = indptr[1:] < indptr[:-1]
    falls[base[1:-1] - 1] = False
    if falls.any():
        row = falls.argmax() + 1
        g = np.searchsorted(base, row, side="right") - 1
        raise refuse(g, f"its CSR row {row - base[g]} falls from "
                        f"{indptr[row - 1]} to {indptr[row]}")
    if indices.min(initial=0) < 0:
        entry = indices.argmin()
        g = np.searchsorted(plane.entry_base, entry, side="right") - 1
        raise refuse(g, f"its CSR names label {indices[entry]}, outside "
                        f"its {labels[g]} labels")
    filled = np.flatnonzero(edges)
    tops = np.maximum.reduceat(indices, plane.entry_base[filled])
    over = np.flatnonzero(tops >= labels[filled])
    if len(over):
        g = filled[over[0]]
        raise refuse(g, f"its CSR names label {tops[over[0]]}, outside "
                        f"its {labels[g]} labels")
    pool, vb, lb = len(plane.strings), plane.vocab_base, plane.label_base
    for what, column, cuts, low, high in (
            ("word {} names pool id", plane.word_ids, vb, 0, pool),
            ("label {} names pool id", plane.text_ids, lb, 0, pool),
            ("label {} has length", plane.label_lengths, lb, 1, None),
            ("label {} has Search Count", plane.search_counts, lb, 0, None),
            ("label {} has Recall Count", plane.recall_counts, lb, 0, None)):
        below = column.min(initial=low) < low
        if below or high is not None and column.max(initial=-1) >= high:
            at = column.argmin() if below else column.argmax()
            g = np.searchsorted(cuts, at, side="right") - 1
            raise refuse(g, f"its {what.format(at - cuts[g])} {column[at]}, "
                            + (f"below {low}" if below else
                               f"outside the pool's {high} strings"))


def _read_meta(directory: Path) -> Tuple[Dict, str]:
    """Read and check a model's ``model.json``.

    ``model.json`` is outside input: one named ``ValueError`` (the
    path, what is wrong) unless it is a JSON object of
    ``format_version`` 6 — judged first, whatever else is missing —
    holding every key the opener reads, each of its JSON type, an
    ``arrays_file`` that is a bare file name (the payload is opened
    inside the artifact directory, never wherever the manifest points),
    an ``arrays`` manifest :func:`_check_manifest` accepts, ``leaves``
    :func:`_check_leaves` accepts, a registry alignment and a tokenizer
    spec :meth:`SpaceTokenizer.from_spec` accepts.

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
            f"f0008ce; format 3, one section per leaf array, was last "
            f"read at commit a58fa6e — rebuild it with construct; "
            f"format 4, which also stored the pool's codepoint offsets, "
            f"was last read at commit c4a5b79 — rebuild it with "
            f"construct too; format 5, labels in builder order, was "
            f"last read at commit bd207cf — rebuild it with construct "
            f"too; a higher number was written by a newer build)")
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
    _check_leaves(path, meta)
    return meta, hashlib.sha256(raw).hexdigest()[:16]


def load_model(directory: Union[str, Path]) -> GraphExModel:
    """Open a model previously written by :func:`save_model`: map its
    payload (every array a *read-only* view, in-place writes raise, each
    graph's a slice of the plane's), decode label strings lazily, and
    check the plane once (:func:`_check_plane`).

    Raises:
        FileNotFoundError: If the directory lacks the expected files.
        ValueError: On any ``format_version`` but 6 (the error names
            the version and the last commit that read 1 to 5), a
            malformed ``model.json`` (its manifest and ``leaves``
            entries included), a truncated payload, a plane
            :func:`_check_plane` refuses or a graph whose words repeat
            a string (its vocabulary dict would come out short).
    """
    directory = Path(directory)
    meta, identity = _read_meta(directory)
    arrays, strings = _open_payload(directory, meta)
    # The sections hold the graphs in save_model's order, leaf ids
    # ascending and the pooled graph last, whatever order the keys of
    # ``leaves`` come in: a JSON rewriter may sort them ("10" < "2").
    leaves = sorted(meta["leaves"].items(), key=lambda item: (
        item[0] == _POOLED_KEY, item[1]["leaf_id"]))
    rows, words, edges, labels = (
        [entry[name] for _key, entry in leaves] for name in _LEAF_KEYS[1:])
    plane = GraphPlane.over(
        arrays["indptr"], arrays["indices"], arrays["label_lengths"],
        arrays["search_counts"], arrays["recall_counts"],
        arrays["label_ids"], arrays["word_ids"], strings, rows, words,
        edges, labels)
    path, keys = directory / _META_FILE, [key for key, _ in leaves]
    _check_plane(path, plane, keys)
    cuts, vocabs = plane.vocab_base.tolist(), []
    for key, lo, hi in zip(keys, cuts, cuts[1:]):
        words = strings.take(plane.word_ids[lo:hi])
        vocabs.append(dict(zip(words, count())))
        if len(vocabs[-1]) < len(words):
            raise ValueError(
                f"malformed {path}: leaf {key!r}: its {len(words)} words "
                f"hold {len(vocabs[-1])} distinct strings")
    model = GraphExModel.over_plane(
        plane, vocabs,
        [None if key == _POOLED_KEY else entry["leaf_id"]
         for key, entry in leaves],
        tokenizer=SpaceTokenizer.from_spec(meta["tokenizer"]),
        alignment=meta["alignment"])
    model.artifact_identity = identity
    model.artifact_dir = directory.resolve()
    return model


def open_model(source: Union[GraphExModel, str, Path]) -> GraphExModel:
    """Polymorphic model hand-off: a model passes through, a path is
    opened (``load_model(path)``).

    The serving stack's one swap, ``repro.serving.nrt.ModelSlot.swap``,
    and the cluster route through this, so an orchestrator hands a
    *directory path* to N serving processes instead of shipping N
    pickled copies, and the hot-swap is a remap, not a reload.
    """
    if isinstance(source, GraphExModel):
        return source
    return load_model(source)


def model_size_bytes(directory: Union[str, Path]) -> int:
    """Total on-disk size of a serialized model (Figure 6b)."""
    directory = Path(directory)
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())

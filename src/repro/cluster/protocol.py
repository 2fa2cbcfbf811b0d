"""Frames and wire codecs for the cluster runner.

Every message between coordinator and worker is one *frame*: an 8-byte
header — two big-endian ``uint32``, the length of the control object
and the length of the tail — then the control object (one UTF-8 JSON
object) and an optional raw binary *tail*.  The control object keeps
the protocol inspectable and version-tolerant; the tail carries what
JSON is bad at — numeric columns — as the bytes they already are.  In
a message dict the tail is the ``"tail"`` field (a ``bytes``);
:func:`encode_frame` lifts it out of the JSON and :func:`decode_frame`
puts it back, so a transport, and anything that wraps one, still sees
one dict per frame.

Inference results cross as columns, not rows (:func:`pack_ranked`): a
ranked row is a pure function of (stacked label id, c, score), and both
ends map the same artifact — whose plane stacks the graphs in one order
— so a worker ships, little-endian, per answered request its index in
the shard and its row count (``int32``) and per row the label's stacked
id in the model's plane and ``c`` (``int32``) and the score as the raw
``float64`` the engine computed.  That is what lets the cluster
path promise *bit-identical* outputs: the score's eight bytes are
copied, never printed and re-parsed; text, Search Count and Recall
Count are read by the coordinator from its own mapping of the artifact
(:func:`unpack_recommendations`), and the shard exchange carries the
artifact's identity so the two mappings cannot be of different saves.
Everything a peer sends is checked here, once per shard, before it
reaches the engine's one materialiser — which checks nothing.

The codecs below are the only places wire shapes are defined; both
endpoints import them, so they cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from ..core.batch import InferenceRequest
from ..core.fast_inference import RankedColumns, RowView, materialise

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.model import GraphExModel

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "FrameError",
    "encode_frame", "decode_frame", "read_frame", "write_frame",
    "pack_ranked", "unpack_ranked", "unpack_recommendations",
    "pack_requests", "unpack_requests", "pack_metrics_snapshot",
]

#: Bumped on any incompatible wire change; registration carries it and
#: the coordinator rejects mismatches up front.  2: frames gained the
#: binary tail and inference results became columns in it.  (A
#: protocol-1 peer's 4-byte header cannot even be framed: its first
#: bytes read as an absurd length and it is turned away as malformed.)
#: 3: the construction reply is the bundle path alone — it no longer
#: carries a token-cache state.  4: the ``run_shard`` request lost the
#: field that chose between the engine's two count paths (one is left),
#: and a tokenizer spec omits an empty stopword list.  5: a model reaches
#: a worker by path and nothing else — the artifact-stream frames, the
#: ``ping`` frame and the register frame's ``pid`` are gone.  6: the
#: fleet serves inference only — the construction shard (curated leaves
#: out, a bundle path back) and the ``run_shard`` frame's ``kind`` are
#: gone.  7: a result's label column holds each label's stacked id in
#: the model's plane, not its id in the owning graph.
PROTOCOL_VERSION = 7

#: Upper bound on a single frame (control object plus tail); a peer
#: announcing a bigger one is malformed or hostile and the connection
#: is dropped.  A shard's result columns are the largest honest frame.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Control-object length, tail length.
_HEADER = struct.Struct(">II")

#: The message field the binary tail rides in.
_TAIL = "tail"


class FrameError(RuntimeError):
    """A malformed frame: bad lengths, bad JSON, not an object, or a
    tail that is not what its control object declares."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its whole on-wire frame, tail included."""
    tail = b""
    if _TAIL in message:
        message = dict(message)
        tail = message.pop(_TAIL)
        if not isinstance(tail, bytes):
            raise FrameError(
                f"a frame's tail must be bytes, got "
                f"{type(tail).__name__}")
    control = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(control) + len(tail) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(control) + len(tail)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return b"".join((_HEADER.pack(len(control), len(tail)), control, tail))


def decode_frame(payload: bytes, tail_length: int = 0) -> dict:
    """Parse a frame's payload — everything after the header, the last
    ``tail_length`` bytes of it the tail — back into a message."""
    split = len(payload) - tail_length
    try:
        message = json.loads(payload[:split].decode("utf-8"))
    # ValueError: bad UTF-8 or JSON, or an int past Python's digit limit;
    # RecursionError: arrays or objects nested too deep.
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    if _TAIL in message:
        raise FrameError(
            f"the control object may not carry a {_TAIL!r} field; it "
            f"names the binary tail")
    if tail_length:
        message[_TAIL] = payload[split:]
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict:
    """Read one frame; raises ``IncompleteReadError`` on a closed peer."""
    header = await reader.readexactly(_HEADER.size)
    control_length, tail_length = _HEADER.unpack(header)
    length = control_length + tail_length
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES})")
    return decode_frame(await reader.readexactly(length), tail_length)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(encode_frame(message))
    await writer.drain()


# ---------------------------------------------------------------------------
# Payload codecs


#: Wire dtypes of the result columns: the tail of an inference result
#: is the five :class:`~repro.core.fast_inference.RankedColumns`, in
#: field order, back to back — four integer columns, then the scores.
_INT = np.dtype("<i4")
_SCORE = np.dtype("<f8")


def _int_column(values: np.ndarray, name: str) -> bytes:
    column = np.asarray(values).astype(_INT)
    if not np.array_equal(column, values):
        raise FrameError(f"result column {name!r} does not fit int32")
    return column.tobytes()


def pack_ranked(ranked: RankedColumns, n_requests: int) -> dict:
    """A shard's :class:`~repro.core.fast_inference.RankedColumns` as
    the result fields of a ``shard_result`` message: three counts in the
    control object, the five columns back to back in the tail."""
    return {
        "n_requests": n_requests,
        "n_answered": len(ranked.requests),
        "n_rows": len(ranked.labels),
        _TAIL: b"".join(
            [_int_column(column, name) for name, column
             in zip(ranked._fields, ranked[:4])]
            + [np.asarray(ranked.scores, dtype=_SCORE).tobytes()]),
    }


def _declared_count(reply: dict, field: str) -> int:
    count = reply.get(field)
    if type(count) is not int or count < 0:
        raise FrameError(
            f"result field {field!r} must be a count, got {count!r}")
    return count


def unpack_ranked(reply: dict, n_requests: int) -> RankedColumns:
    """Inverse of :func:`pack_ranked`, trusting nothing: the reply must
    echo the shard's request count, its tail must be exactly as long as
    its counts declare, every answered index must be in the shard and
    appear once, and the row counts must be non-negative and sum to the
    row columns.  (Label ids need the model's plane:
    :func:`unpack_recommendations` checks them.)  The columns are views
    over the tail — score bytes are never converted."""
    echoed = _declared_count(reply, "n_requests")
    if echoed != n_requests:
        raise FrameError(
            f"result answers a shard of {echoed} requests, "
            f"{n_requests} were sent")
    n_answered = _declared_count(reply, "n_answered")
    n_rows = _declared_count(reply, "n_rows")
    tail = reply.get(_TAIL, b"")
    n_ints = 2 * (n_answered + n_rows)
    declared = _INT.itemsize * n_ints + _SCORE.itemsize * n_rows
    if len(tail) != declared:
        raise FrameError(
            f"result tail is {len(tail)} bytes, its control object "
            f"declares {declared} ({n_answered} answered requests, "
            f"{n_rows} rows)")
    requests, sizes, labels, counts = np.split(
        np.frombuffer(tail, dtype=_INT, count=n_ints),
        np.cumsum([n_answered, n_answered, n_rows]))
    scores = np.frombuffer(tail, dtype=_SCORE, count=n_rows,
                           offset=_INT.itemsize * n_ints)
    if n_answered:
        if requests.min() < 0 or requests.max() >= n_requests:
            raise FrameError(
                f"result answers a request index outside the shard's "
                f"{n_requests}")
        if np.bincount(requests, minlength=n_requests).max() > 1:
            raise FrameError("result answers a request index twice")
        if sizes.min() < 0:
            raise FrameError("result declares a negative row count")
    total = int(sizes.sum(dtype=np.int64))
    if total != n_rows:
        raise FrameError(
            f"result row counts sum to {total}, its row columns hold "
            f"{n_rows}")
    return RankedColumns(requests, sizes, labels, counts, scores)


def unpack_recommendations(reply: dict, model: "GraphExModel",
                           requests: Sequence[InferenceRequest]
                           ) -> List[RowView]:
    """A ``shard_result`` reply → one row view per request of the shard.

    The coordinator-side inverse of the worker's ``run_ranked`` +
    :func:`pack_ranked`: the columns are validated
    (:func:`unpack_ranked`), each answered request's owning graph ``g``
    is found on ``model`` — the coordinator's own mapping of the
    artifact — every label must be one of ``g``'s stacked ids,
    ``label_base[g] <= label < label_base[g + 1]``, and the engine's
    one materialiser builds the views.  Raises :class:`FrameError` on
    any reply the engine could not have produced for these requests.
    """
    ranked = unpack_ranked(reply, len(requests))
    answered = ranked.requests.tolist()
    graph_index = model.graph_index
    owners = [graph_index(requests[index][2]) for index in answered]
    if None in owners:
        raise FrameError(
            f"result answers request {answered[owners.index(None)]} of "
            f"the shard, which no graph of the model serves")
    label_base = model.plane.label_base
    row_owners = np.repeat(np.asarray(owners, dtype=np.int64), ranked.sizes)
    if not ((label_base[row_owners] <= ranked.labels)
            & (ranked.labels < label_base[row_owners + 1])).all():
        raise FrameError(
            "result names a label id outside its owning graph's labels")
    return materialise(model.plane, ranked, len(requests))


def pack_requests(requests: Sequence[InferenceRequest]) -> List[list]:
    """``(item_id, title, leaf_id)`` triples as JSON rows."""
    return [[item_id, title, leaf_id]
            for item_id, title, leaf_id in requests]


def unpack_requests(rows: Sequence[Sequence]) -> List[InferenceRequest]:
    """Inverse of :func:`pack_requests`."""
    return [(item_id, title, leaf_id)
            for item_id, title, leaf_id in rows]


def pack_metrics_snapshot(snapshot: dict) -> dict:
    """A :meth:`repro.obs.MetricsRegistry.snapshot` for the wire.

    Snapshots are already JSON-safe (that is their contract: integer
    counters/ticks, float gauges — never pickle), so packing is just
    the schema check; an invalid registry state must fail on the
    sender, not poison the coordinator's fleet view.
    """
    from ..obs import validate_snapshot

    return dict(validate_snapshot(snapshot))

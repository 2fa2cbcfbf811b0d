"""One cluster worker "machine" of the ``cluster_scatter`` workload.

Runs the public :class:`repro.cluster.ClusterWorker` until its
coordinator shuts it down.  With ``--trace-out`` the connection is
wrapped through the worker's ``transport_wrapper`` hook so the
worker-side busy intervals (assignment received → result sent) are
held in memory and written when the worker exits; ``perf_counter`` is
the system-wide monotonic clock on Linux, so the coordinator-side
trace can line them up with its ops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from typing import List, Optional, Tuple

from repro.cluster import ClusterWorker


class BusyStamps:
    """Transport wrapper that stamps shard receipt and result dispatch."""

    def __init__(self, transport) -> None:
        self._transport = transport
        self.busy: List[Tuple[float, float]] = []
        self._began: Optional[float] = None

    async def recv(self) -> dict:
        message = await self._transport.recv()
        if message.get("type") == "run_shard":
            self._began = time.perf_counter()
        return message

    async def send(self, message: dict) -> None:
        await self._transport.send(message)
        if self._began is not None and message.get("type") in (
                "shard_result", "shard_error"):
            self.busy.append((self._began, time.perf_counter()))
            self._began = None

    def __getattr__(self, name: str):
        return getattr(self._transport, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--name", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")

    stamps: List[BusyStamps] = []

    def wrap(transport):
        stamps.append(BusyStamps(transport))
        return stamps[-1]

    worker = ClusterWorker(
        host, int(port), name=args.name, spool_dir=args.spool,
        transport_wrapper=wrap if args.trace_out else None)
    try:
        asyncio.run(worker.run())
    finally:
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump({"name": args.name,
                           "busy": [interval for stamp in stamps
                                    for interval in stamp.busy]}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Fault-tolerant multi-machine inference shard runner.

The package splits along the trust boundary:

* :mod:`~repro.cluster.protocol` — framing and wire codecs (the only
  place wire shapes are defined).
* :mod:`~repro.cluster.transport` — framed asyncio transports and the
  deterministic fault injector used by the robustness suite.
* :mod:`~repro.cluster.retry` — the shared capped-backoff-with-jitter
  policy (also used by the daily refresh orchestrator).
* :mod:`~repro.cluster.worker` — one executor host, and the launcher
  that starts hosts as subprocesses.
* :mod:`~repro.cluster.scheduler` — every decision of a job (dispatch,
  deadlines, retries, fencing, re-planning, local fallback), no I/O.
* :mod:`~repro.cluster.coordinator` — the socket shell that feeds the
  scheduler, carries out its actions and merges exactly once.

**Coordinator and workers see one filesystem.**  A model reaches a
worker as the path of its artifact directory: a job is handed that path
or a model opened from it, which ships its ``artifact_dir``; a model
built in memory is refused, never saved on the fleet's behalf.  A
worker keeps one open model, the path the last frame named, and
re-opens a path re-saved in place since it opened it.  The wire carries
requests and result columns, never an artifact.  A fleet without a
shared filesystem is not supported: the artifact stream that once
carried models to workers is gone.

The fleet serves inference only.  Models are built in the calling
process (``SerialExecutor.run_construction``), which was faster than a
fleet build at every scale measured.
"""

from .coordinator import (ClusterCoordinator, ClusterError,
                          ClusterExecutionError, ClusterRunReport)
from .protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION, FrameError,
                       decode_frame, encode_frame)
from .retry import RetriesExhausted, RetryPolicy
from .transport import (Fault, FaultSchedule, FaultyTransport, Transport,
                        TransportClosed)
from .worker import (ClusterWorker, WorkerKilled, reap_workers,
                     spawn_worker)

__all__ = [
    "ClusterCoordinator", "ClusterError", "ClusterExecutionError",
    "ClusterRunReport", "ClusterWorker", "WorkerKilled",
    "spawn_worker", "reap_workers",
    "RetryPolicy", "RetriesExhausted",
    "Transport", "TransportClosed", "Fault", "FaultSchedule",
    "FaultyTransport",
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "FrameError",
    "encode_frame", "decode_frame",
]

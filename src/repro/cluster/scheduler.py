"""Who runs what and when: a cluster job's decisions, with no I/O.

:class:`Scheduler` reads no clock and touches no socket: calls take
``now`` (any monotonic reading), events arrive as method calls, and
what to do comes back as :class:`Actions` for the socket shell
(:class:`~repro.cluster.coordinator.ClusterCoordinator`) to carry out.
So the exactly-once rule is testable in-process, with a fake clock.

===================  ==================================================
event                decision
===================  ==================================================
``start``            one unit per plan shard, sent in idle order
``join``             the worker queues at the back of the idle order; a
                     late joiner takes a unit at once
``heard``            the worker's liveness clock restarts
``reply``            **fencing**: only the live assignment, from its
                     holder, is claimed; a stale or unknown one counts
                     in ``n_late_discarded``.  The holder is idle again
``settle``/``fail``  the claimed keys merge exactly once, or the job
                     ends with the shell's error (``shard_error``, a
                     reply that does not decode)
``tick``: deadline   the assignment is fenced, its worker goes to the
                     *back* of the idle queue (the retry prefers another
                     host) and the unit waits
                     ``RetryPolicy.delay_for(attempts - 1)``; after
                     ``max_attempts`` the job fails
``tick``: silence    a host unheard for ``heartbeat_timeout`` is
                     dropped, as if it had left
``leave``            its unit is re-planned over the survivors
                     (``ShardPlan.replan``) when it has more than one
                     key and more than one host is live, else re-queued
fleet empty          pending units run locally (``local_fallback``), or
                     the job fails by name
===================  ==================================================

A job is done when no unit is pending, backing off, in flight or
running locally.  Its :class:`ClusterRunReport` and ``cluster.*``
counters are written here and nowhere else.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Deque, Dict, Hashable, List, Optional,
                    Tuple)

from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.sharding import ShardPlan
    from ..obs import MetricsRegistry

__all__ = ["Scheduler", "Actions", "ClusterError", "ClusterExecutionError",
           "ClusterRunReport"]

Keys = Tuple[Hashable, ...]


class ClusterError(RuntimeError):
    """A cluster job could not complete (fleet/timeout/merge failure)."""


class ClusterExecutionError(ClusterError):
    """A shard raised on its worker; carries the worker traceback."""

    def __init__(self, message: str,
                 worker_traceback: Optional[str] = None) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


@dataclass
class ClusterRunReport:
    """What one cluster job did — the fault-tolerance audit trail.

    Attributes:
        kind: ``"inference"``, the one job a fleet runs.
        n_units_planned: Work units in the initial plan.
        n_workers_at_start: Live hosts when the plan was cut.
        n_replans: Dead-host events that re-balanced orphaned keys.
        n_retries: Per-shard deadline expiries that re-dispatched.
        n_late_discarded: Results that arrived after their assignment
            was superseded and were discarded instead of double-merged.
        n_local_units: Units the coordinator ran itself (fleet empty).
        workers_used: Hosts that contributed at least one dispatch.
        merge_counts: Times each work-unit key was merged — the
            exactly-once invariant is ``all(v == 1)``.
        orphaned_keys: Key groups that were orphaned by a dead host and
            re-planned.
        fleet_metrics: The merged fleet metrics snapshot at job end —
            the job's registry folded with the latest heartbeat
            snapshot of every worker seen (see
            :meth:`ClusterCoordinator.fleet_snapshot`).
    """

    kind: str
    n_units_planned: int
    n_workers_at_start: int
    n_replans: int = 0
    n_retries: int = 0
    n_late_discarded: int = 0
    n_local_units: int = 0
    workers_used: List[str] = field(default_factory=list)
    merge_counts: Dict[Hashable, int] = field(default_factory=dict)
    orphaned_keys: List[List[Hashable]] = field(default_factory=list)
    fleet_metrics: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-ready summary (bench artifacts embed this)."""
        return {
            "kind": self.kind,
            "n_units_planned": self.n_units_planned,
            "n_workers_at_start": self.n_workers_at_start,
            "n_replans": self.n_replans,
            "n_retries": self.n_retries,
            "n_late_discarded": self.n_late_discarded,
            "n_local_units": self.n_local_units,
            "workers_used": list(self.workers_used),
            "exactly_once": all(count == 1
                                for count in self.merge_counts.values()),
            "fleet_metrics": self.fleet_metrics,
        }


@dataclass
class Actions:
    """What the shell must do after one event: ship each ``send``
    ``(worker, assignment, keys)``, run each ``local`` unit here and
    :meth:`~Scheduler.settle` it, hang up on each ``drop``ped (silent)
    worker; the job is ``done``, or failed with ``error``."""

    send: List[Tuple[str, int, Keys]] = field(default_factory=list)
    local: List[Keys] = field(default_factory=list)
    drop: List[str] = field(default_factory=list)
    done: bool = False
    error: Optional[BaseException] = None


@dataclass
class _Unit:
    keys: Keys
    attempts: int = 0


@dataclass
class _Flight:
    unit: _Unit
    worker: str
    started: float


@dataclass
class _Job:
    kind: str
    plan: "ShardPlan"
    metrics: "MetricsRegistry"
    pending: Deque[_Unit]
    #: (ready at, unit) for units waiting out a retry backoff.
    cooling: List[Tuple[float, _Unit]] = field(default_factory=list)
    #: Units handed to the shell to run locally, not yet settled.
    n_local: int = 0


class Scheduler:
    """One coordinator's decisions (see the module docstring); the
    arguments mean what :class:`ClusterCoordinator`'s do."""

    def __init__(self, retry: RetryPolicy, rpc_timeout: float,
                 heartbeat_timeout: Optional[float],
                 local_fallback: bool) -> None:
        self._retry = retry
        self._rpc_timeout = rpc_timeout
        self._heartbeat_timeout = heartbeat_timeout
        self._local_fallback = local_fallback
        #: Live workers → when each was last heard, in join order.
        self.workers: Dict[str, float] = {}
        self._idle: Deque[str] = deque()
        self._flights: Dict[int, _Flight] = {}
        self._ids = itertools.count()
        self._job: Optional[_Job] = None
        #: The running job's report, or the last job's.
        self.report: Optional[ClusterRunReport] = None

    # -- fleet events -------------------------------------------------------

    def join(self, name: str, now: float) -> Actions:
        self.workers[name] = now
        self._idle.append(name)
        return self._dispatch(now)

    def heard(self, name: str, now: float) -> None:
        if name in self.workers:
            self.workers[name] = now

    def leave(self, name: str, now: float) -> Actions:
        self._depart(name)
        return self._dispatch(now)

    def _depart(self, name: str) -> None:
        if self.workers.pop(name, None) is None:
            return
        if name in self._idle:
            self._idle.remove(name)
        for assignment in [assignment for assignment, flight
                           in self._flights.items() if flight.worker == name]:
            self._replan(self._flights.pop(assignment).unit)

    def _replan(self, unit: _Unit) -> None:
        job = self._job
        self.report.n_replans += 1
        self.report.orphaned_keys.append(list(unit.keys))
        job.metrics.inc("cluster.replans", kind=job.kind)
        n_live = len(self.workers)
        if len(unit.keys) > 1 and n_live > 1:
            job.pending.extend(_Unit(shard) for shard in
                               job.plan.replan(unit.keys, n_live).shards)
        else:
            job.pending.append(_Unit(unit.keys))

    # -- job events ---------------------------------------------------------

    def start(self, kind: str, plan: "ShardPlan",
              metrics: "MetricsRegistry", now: float) -> Actions:
        self.report = ClusterRunReport(kind=kind,
                                       n_units_planned=plan.n_shards,
                                       n_workers_at_start=len(self.workers))
        self._job = _Job(kind, plan, metrics,
                         deque(_Unit(shard) for shard in plan.shards))
        return self._dispatch(now)

    def reply(self, name: str,
              assignment: int) -> Optional[Tuple[Keys, float]]:
        """The fencing rule: ``(keys, dispatched at)`` of the live
        assignment, or ``None`` for a stale or unknown one — counted,
        never merged."""
        flight = self._flights.get(assignment)
        if flight is None or flight.worker != name:
            if self._job is not None:
                self.report.n_late_discarded += 1
                self._job.metrics.inc("cluster.units.late_discarded")
            return None
        del self._flights[assignment]
        self._idle.append(name)
        return flight.unit.keys, flight.started

    def settle(self, keys: Keys, n_merged: int, since: float, now: float,
               local: bool = False) -> Actions:
        """Book one merged unit, once: the shell calls it only for a
        claimed reply or a local run, so the merged counters equal the
        single-process totals.  The unit is timed whole, ``since`` its
        dispatch (a worker's single reply allows nothing finer)."""
        job = self._job
        if job is None:
            return Actions()
        for key in keys:
            self.report.merge_counts[key] = \
                self.report.merge_counts.get(key, 0) + 1
        job.metrics.inc("cluster.units.merged", kind=job.kind)
        job.metrics.inc("cluster.requests.merged", n_merged)
        job.metrics.observe("cluster.unit.seconds", now - since,
                            kind=job.kind)
        if local:
            job.n_local -= 1
            self.report.n_local_units += 1
            job.metrics.inc("cluster.units.local", kind=job.kind)
        return self._dispatch(now)

    def fail(self, error: BaseException) -> Actions:
        if self._job is None:
            return Actions()
        return self._end(Actions(error=error))

    def finish(self) -> Optional[ClusterRunReport]:
        """End the job if it still runs; its report."""
        if self._job is not None:
            self._end(Actions())
        return self.report

    def tick(self, now: float) -> Actions:
        actions = Actions()
        if self._heartbeat_timeout is not None:
            for name, seen in list(self.workers.items()):
                if now - seen >= self._heartbeat_timeout:
                    self._depart(name)
                    actions.drop.append(name)
        job = self._job
        for assignment, flight in list(self._flights.items()):
            if flight.started + self._rpc_timeout > now:
                continue
            del self._flights[assignment]
            self._idle.append(flight.worker)
            unit = flight.unit
            unit.attempts += 1
            self.report.n_retries += 1
            job.metrics.inc("cluster.retries", kind=job.kind)
            if unit.attempts >= self._retry.max_attempts:
                actions.error = ClusterError(
                    f"{job.kind} shard {list(unit.keys)!r} timed out on "
                    f"all {unit.attempts} attempts "
                    f"(rpc_timeout={self._rpc_timeout}s)")
                return self._end(actions)
            job.cooling.append(
                (now + self._retry.delay_for(unit.attempts - 1), unit))
        if job is not None:
            job.pending.extend(unit for ready, unit in job.cooling
                               if ready <= now)
            job.cooling = [(ready, unit) for ready, unit in job.cooling
                           if ready > now]
        return self._dispatch(now, actions)

    def next_wakeup(self) -> Optional[float]:
        """When :meth:`tick` next has something to decide, if ever."""
        times = [flight.started + self._rpc_timeout
                 for flight in self._flights.values()]
        if self._job is not None:
            times += [ready for ready, _unit in self._job.cooling]
        if self._heartbeat_timeout is not None:
            times += [seen + self._heartbeat_timeout
                      for seen in self.workers.values()]
        return min(times, default=None)

    # -- decisions ----------------------------------------------------------

    def _dispatch(self, now: float,
                  actions: Optional[Actions] = None) -> Actions:
        actions = actions if actions is not None else Actions()
        job = self._job
        if job is None:
            return actions
        while job.pending and self._idle:
            name, unit = self._idle.popleft(), job.pending.popleft()
            assignment = next(self._ids)
            self._flights[assignment] = _Flight(unit, name, now)
            if name not in self.report.workers_used:
                self.report.workers_used.append(name)
            actions.send.append((name, assignment, unit.keys))
        if job.pending and not self.workers and not job.cooling:
            if not self._local_fallback:
                actions.error = ClusterError(
                    f"no live workers remain for {job.kind} and local "
                    f"fallback is disabled")
                return self._end(actions)
            actions.local.extend(unit.keys for unit in job.pending)
            job.n_local += len(job.pending)
            job.pending.clear()
        if not (job.pending or job.cooling or self._flights or job.n_local):
            actions.done = True
            self._end(actions)
        return actions

    def _end(self, actions: Actions) -> Actions:
        """The job is over: its holders are idle again."""
        self._job = None
        self._idle.extend(flight.worker for flight in self._flights.values())
        self._flights.clear()
        return actions

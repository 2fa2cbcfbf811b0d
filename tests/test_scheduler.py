"""The cluster scheduler as a state machine: exactly-once without
sockets or sleeps.

Hypothesis drives :class:`~repro.cluster.scheduler.Scheduler` directly,
with a fake clock: workers join, leave and go quiet, replies arrive for
live, stale and unknown assignments, time jumps by drawn amounts, and
jobs are dispatched one after another.  The machine plays the shell: it
carries out every :class:`~repro.cluster.scheduler.Actions` the way the
coordinator does (sends are remembered, local units settle at once) and
checks the exactly-once contract after every step.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.cluster import (ClusterError, ClusterExecutionError,
                           RetryPolicy)
from repro.cluster.scheduler import Scheduler
from repro.core.sharding import ShardPlan
from repro.obs import MetricsRegistry

RPC_TIMEOUT = 1.0
#: Assignment ids the scheduler never issues in a run this short.
UNKNOWN = 10 ** 9


class SchedulerMachine(RuleBasedStateMachine):
    @initialize(fallback=st.booleans(), max_attempts=st.integers(1, 3),
                heartbeat=st.sampled_from([None, 1.5, 4.0]))
    def setup(self, fallback, max_attempts, heartbeat):
        self.fallback, self.max_attempts = fallback, max_attempts
        self.scheduler = Scheduler(
            RetryPolicy(max_attempts=max_attempts, base_delay=0.1,
                        max_delay=0.4, jitter=0.5, seed=0),
            RPC_TIMEOUT, heartbeat, fallback)
        self.now = 0.0
        self.n_joined = 0
        self.live = set()
        self.departed = set()
        #: assignment → (worker, keys, sent at), not yet claimed.
        self.sent = {}
        self.keys = None          # the running job's keys
        self.merged = Counter()
        self.late = 0
        self.outcome = None

    # -- the shell's half ---------------------------------------------------

    def apply(self, actions):
        for name in actions.drop:
            assert name in self.live
            self.live.discard(name)
            self.departed.add(name)
        for name, assignment, keys in actions.send:
            assert name in self.live and name not in self.departed
            assert assignment not in self.sent
            self.sent[assignment] = (name, keys, self.now)
        for keys in actions.local:
            self.merged.update(keys)
            self.apply(self.scheduler.settle(keys, len(keys), self.now,
                                             self.now, local=True))
        if actions.done:
            assert self.keys is not None
            assert self.merged == Counter(self.keys)
            self.end("done")
        if actions.error is not None:
            self.end(actions.error)

    def end(self, outcome):
        assert self.outcome is None
        self.outcome, self.keys = outcome, None
        if isinstance(outcome, ClusterExecutionError):
            return
        if isinstance(outcome, ClusterError):
            message = str(outcome)
            assert message == (
                "no live workers remain for inference and local "
                "fallback is disabled") or message.endswith(
                f"timed out on all {self.max_attempts} attempts "
                f"(rpc_timeout={RPC_TIMEOUT}s)"), message

    def live_sends(self):
        """Unclaimed assignments still inside their deadline, held by a
        live worker, while a job runs."""
        if self.keys is None:
            return []
        return sorted(assignment for assignment, (name, _keys, at)
                      in self.sent.items()
                      if name in self.live and at + RPC_TIMEOUT > self.now)

    def stale_sends(self):
        live = set(self.live_sends())
        return sorted(assignment for assignment, (name, _keys, _at)
                      in self.sent.items()
                      if name in self.live and assignment not in live)

    def replied(self, name, assignment):
        self.scheduler.heard(name, self.now)
        claimed = self.scheduler.reply(name, assignment)
        if claimed is None and self.keys is not None:
            self.late += 1
        return claimed

    # -- rules --------------------------------------------------------------

    @precondition(lambda self: self.keys is None)
    @rule(n_keys=st.integers(0, 6), n_shards=st.integers(1, 3))
    def dispatch_job(self, n_keys, n_shards):
        self.keys = list(range(n_keys))
        self.merged, self.late, self.outcome = Counter(), 0, None
        self.sent.clear()
        plan = ShardPlan(self.keys, n_shards)
        self.apply(self.scheduler.start(plan, MetricsRegistry(),
                                        self.now))

    @rule()
    def join(self):
        name = f"w{self.n_joined}"
        self.n_joined += 1
        self.live.add(name)
        self.apply(self.scheduler.join(name, self.now))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def leave(self, data):
        name = data.draw(st.sampled_from(sorted(self.live)))
        self.live.discard(name)
        self.departed.add(name)
        self.apply(self.scheduler.leave(name, self.now))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def heartbeat(self, data):
        self.scheduler.heard(data.draw(st.sampled_from(sorted(self.live))),
                             self.now)

    @precondition(lambda self: self.live_sends())
    @rule(data=st.data(), raised=st.booleans())
    def reply_live(self, data, raised):
        assignment = data.draw(st.sampled_from(self.live_sends()))
        name, keys, at = self.sent.pop(assignment)
        assert self.replied(name, assignment) == (keys, at)
        if raised:
            self.apply(self.scheduler.fail(ClusterExecutionError("boom")))
        else:
            self.merged.update(keys)
            self.apply(self.scheduler.settle(keys, len(keys), at, self.now))

    @precondition(lambda self: self.stale_sends())
    @rule(data=st.data())
    def reply_stale(self, data):
        assignment = data.draw(st.sampled_from(self.stale_sends()))
        name, _keys, _at = self.sent[assignment]
        assert self.replied(name, assignment) is None

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def reply_unknown(self, data):
        """An id never issued, or a live one from a worker not its holder."""
        name = data.draw(st.sampled_from(sorted(self.live)))
        others = [assignment for assignment in self.live_sends()
                  if self.sent[assignment][0] != name]
        assignment = data.draw(st.sampled_from([UNKNOWN, *others]))
        assert self.replied(name, assignment) is None

    @rule(dt=st.floats(0.0, 2.5))
    def tick(self, dt):
        self.now += dt
        self.apply(self.scheduler.tick(self.now))

    # -- invariants ---------------------------------------------------------

    @invariant()
    def merged_at_most_once(self):
        assert all(count == 1 for count in self.merged.values())

    @invariant()
    def every_key_is_pending_in_flight_or_merged(self):
        job = self.scheduler._job
        if job is None:
            return
        assert job.n_local == 0
        units = [*job.pending, *(unit for _at, unit in job.cooling),
                 *(flight.unit for flight
                   in self.scheduler._flights.values())]
        held = Counter(key for unit in units for key in unit.keys)
        assert held + self.merged == Counter(self.keys)

    @invariant()
    def late_replies_are_counted(self):
        if self.scheduler.report is not None:
            assert self.scheduler.report.n_late_discarded == self.late

    @invariant()
    def fleet_matches(self):
        assert set(self.scheduler.workers) == self.live


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=150,
                                         stateful_step_count=30,
                                         deadline=None)

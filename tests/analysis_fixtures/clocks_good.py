# Passing fixture for monotonic-clock: interval arithmetic on
# monotonic sources only.
# lint-fixture-module: repro.cluster.fixture_clocks_good
import time


def deadline_expired(started_at, timeout):
    return time.monotonic() - started_at > timeout


async def window_deadline(loop, window_seconds):
    return loop.time() + window_seconds

# lint-fixture-module: repro.obs.fixture_clocks_good
import time


def span_duration(started_at):
    return time.perf_counter() - started_at


def staleness(loaded_at):
    return time.monotonic() - loaded_at

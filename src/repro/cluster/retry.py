"""Capped exponential backoff with deterministic jitter.

One retry policy serves every layer that talks to something flaky: the
cluster coordinator's per-shard RPCs (timeouts, severed connections),
the daily refresh orchestrator's construct/load steps, and any caller
that wants the same semantics.  The policy is a frozen value object —
attempt counting lives with the caller (the cluster scheduler) or in
:meth:`call`, never in the policy — so one instance can be shared
across concurrent dispatches.

Jitter is drawn from a private ``random.Random``: seeded policies
produce the exact same delay sequence every run, which the
fault-injection tests rely on, while unseeded policies still de-
synchronize a fleet of retriers (the reason jitter exists at all).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Tuple, Type

__all__ = ["RetryPolicy", "RetriesExhausted"]


class RetriesExhausted(RuntimeError):
    """Every attempt a :class:`RetryPolicy` allows has failed.

    Chained from the last underlying failure (``raise ... from exc``),
    so the original error is the ``__cause__``; :attr:`attempts` records
    how many times the callable ran.
    """

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter.

    Attempt ``i`` (0-based) that fails and still has retries left sleeps
    ``min(max_delay, base_delay * multiplier**i)``, scaled down by up to
    ``jitter`` (a fraction in ``[0, 1)``): the jittered delay lands in
    ``[capped * (1 - jitter), capped]``, so the cap is a true upper
    bound and jitter only ever *spreads* retriers apart, never piles
    them later.

    Attributes:
        max_attempts: Total attempts, including the first (>= 1).
        base_delay: Seconds before the first retry, pre-jitter.
        max_delay: Upper bound any single delay is capped to.
        multiplier: Exponential growth factor between retries.
        jitter: Fraction of each delay randomized away (0 disables).
        seed: Seed for the jitter stream; ``None`` draws a fresh
            unpredictable stream per policy instance.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False, compare=False,
                                default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter}")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay_for(self, attempt: int) -> float:
        """Jittered sleep after failed 0-based ``attempt``.

        Consumes one draw from the policy's jitter stream; with a
        ``seed`` the sequence of calls is exactly reproducible.
        """
        capped = min(self.max_delay,
                     self.base_delay * self.multiplier ** attempt)
        if self.jitter == 0:
            return capped
        return capped * (1 - self.jitter * self._rng.random())

    def delays(self) -> Iterator[float]:
        """The ``max_attempts - 1`` jittered delays, in order."""
        for attempt in range(self.max_attempts - 1):
            yield self.delay_for(attempt)

    def call(self, fn: Callable[[], Any], *,
             retry_on: Tuple[Type[BaseException], ...] = (Exception,),
             sleep: Callable[[float], None] = time.sleep,
             on_retry: Optional[Callable[[int, BaseException, float],
                                         None]] = None) -> Any:
        """Run ``fn`` under this policy, synchronously.

        Args:
            fn: Zero-argument callable to attempt.
            retry_on: Exception types considered transient; anything
                else propagates immediately.
            sleep: Injectable sleeper (tests pass a recorder).
            on_retry: Called as ``(attempt, exc, delay)`` before each
                backoff sleep — the hook refresh reports count retries
                through.

        Raises:
            RetriesExhausted: When the last allowed attempt fails; the
                final failure is the ``__cause__``.
        """
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on as exc:
                if attempt + 1 >= self.max_attempts:
                    raise RetriesExhausted(
                        f"{fn!r} failed on all {self.max_attempts} "
                        f"attempts; last error: {exc!r}",
                        attempts=self.max_attempts) from exc
                delay = self.delay_for(attempt)
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

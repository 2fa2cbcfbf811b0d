"""NuKV-like versioned key-value store.

Production GraphEx writes batch predictions into NuKV, "a Key-Value store
accessed via eBay's inference API, subsequently serving sellers on the
platform" (Section IV-H).  This in-process stand-in keeps the same
contract: versioned bulk loads, point reads, and atomic swap of the
serving version so a batch refresh never serves a half-written table.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Generic, Iterator, List, Mapping, Optional, TypeVar

V = TypeVar("V")


class KeyValueStore(Generic[V]):
    """Versioned KV store with atomic version promotion.

    Writers fill a staging version inside :meth:`transaction` —
    ``with store.transaction() as version:`` then :meth:`bulk_load` /
    :meth:`put` / :meth:`delete` — and readers always see the promoted
    version, the old table whole or the new one whole.  It is the only
    way the serving layer writes (:class:`~repro.serving.nrt.NRTService`
    flushes, the batch pipeline's two loads).

    :attr:`lock` is the store's *transaction* lock (reentrant), the
    stand-in for a KV client's single connection; :meth:`transaction`
    holds it from stage to prune, and the async front holds it around
    each stream's service calls.  So a daily ``full_load`` in one thread
    cannot interleave with an NRT window flush on the same store in
    another: without that, two concurrent :meth:`create_version` calls
    could be handed the same id, and a flush seeded by
    :meth:`copy_from_serving` *before* a full load's promote could
    re-promote yesterday's table over it afterwards.  Point reads stay
    lock-free (:meth:`get` already tolerates racing promote+prune).
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._versions: Dict[int, Dict[int, V]] = {}
        self._serving_version: Optional[int] = None
        self._next_version = 1
        self._open_staging: set = set()

    @contextmanager
    def transaction(self) -> Iterator[int]:
        """One write, start to end: stage → fill → promote → prune
        under :attr:`lock`.

        Yields a fresh :meth:`create_version`; leaving the block
        :meth:`promote`\\ s it and :meth:`prune`\\ s.  Any exception
        before the promote took effect — from the body or from
        ``promote`` itself — :meth:`abandon`\\ s the version and
        propagates, so no failed writer leaves a prune-exempt table
        open and readers never see part of one.  A ``prune`` that fails
        after the promote leaves the new table serving and nothing open.
        """
        with self.lock:
            version = self.create_version()
            try:
                yield version
                self.promote(version)
            except BaseException:
                if self.serving_version != version:
                    self.abandon(version)
                raise
            self.prune()

    def create_version(self) -> int:
        """Open a new staging version and return its id.

        The version stays *open* — exempt from :meth:`prune` — until it
        is either :meth:`promote`\\ d or :meth:`abandon`\\ ed, so a slow
        writer can never have its staging table pruned out from under a
        later :meth:`put`.
        """
        version = self._next_version
        self._next_version += 1
        self._versions[version] = {}
        self._open_staging.add(version)
        return version

    def put(self, version: int, key: int, value: V) -> None:
        """Write one record into a staging version.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (immutable).
        """
        if version == self._serving_version:
            raise ValueError("cannot write to the serving version")
        self._versions[version][key] = value

    def bulk_load(self, version: int, records: Mapping[int, V]) -> None:
        """Write many records into a staging version."""
        if version == self._serving_version:
            raise ValueError("cannot write to the serving version")
        self._versions[version].update(records)

    def copy_from_serving(self, version: int) -> None:
        """Seed a staging version with the current serving data
        (the daily-differential merge starts from yesterday's table).

        When nothing is serving yet the seed is empty, but the target
        ``version`` is validated either way: an unknown version is a
        caller bug and raises exactly as :meth:`put` does (it used to be
        a silent no-op whenever no version was serving).

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (seeding the
                live table with itself is a write to the serving
                version).
        """
        if version == self._serving_version:
            raise ValueError("cannot write to the serving version")
        if version not in self._versions:
            raise KeyError(f"unknown version {version}")
        if self._serving_version is not None:
            self._versions[version].update(
                self._versions[self._serving_version])

    def promote(self, version: int) -> None:
        """Atomically make a staged version the serving one.

        Raises:
            KeyError: If the version does not exist.
        """
        if version not in self._versions:
            raise KeyError(f"unknown version {version}")
        self._serving_version = version
        self._open_staging.discard(version)

    def abandon(self, version: int) -> None:
        """Discard a staging version whose writer failed mid-load.

        Closes the version's prune exemption and drops its data, so a
        crashed writer (an NRT flush whose engine raised, a batch load
        that aborted) does not leak an unpromotable table forever.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (abandoning
                the live table would break every reader).
        """
        if version == self._serving_version:
            raise ValueError("cannot abandon the serving version")
        if version not in self._versions:
            raise KeyError(f"unknown version {version}")
        del self._versions[version]
        self._open_staging.discard(version)

    def get(self, key: int) -> Optional[V]:
        """Point read from the serving version (None when absent or no
        version is serving)."""
        if self._serving_version is None:
            return None
        # .get on the outer dict: a reader racing a concurrent
        # promote+prune (the async front reads while flushes write
        # through from executor threads) may observe a version id whose
        # table was just pruned; that read resolves to "absent", not a
        # crash.
        return self._versions.get(self._serving_version, {}).get(key)

    def delete(self, version: int, key: int) -> None:
        """Remove one record from a staging version.

        A no-op when the *key* is absent (deleting an already-deleted
        item is fine), but an unknown *version* is a caller bug and
        raises, exactly as :meth:`put` does.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (immutable).
        """
        if version == self._serving_version:
            raise ValueError("cannot write to the serving version")
        self._versions[version].pop(key, None)

    @property
    def serving_version(self) -> Optional[int]:
        """The promoted version id, or None before the first promotion."""
        return self._serving_version

    @property
    def versions(self) -> List[int]:
        """All retained version ids."""
        return sorted(self._versions)

    def size(self, version: Optional[int] = None) -> int:
        """Record count of a version (default: serving; 0 when none)."""
        version = self._serving_version if version is None else version
        if version is None or version not in self._versions:
            return 0
        return len(self._versions[version])

    def keys(self, version: Optional[int] = None) -> Iterator[int]:
        """Keys of a version (default: serving)."""
        version = self._serving_version if version is None else version
        if version is None or version not in self._versions:
            return iter(())
        return iter(self._versions[version])

    def prune(self, keep_latest: int = 2) -> None:
        """Drop all but the newest ``keep_latest`` versions.

        The serving version is always kept, and so is every *open*
        staging version (created but not yet promoted or abandoned):
        pruning a table a writer still holds would make its later
        :meth:`put` raise ``KeyError`` on a version id it was handed in
        good faith.  Writers that fail must :meth:`abandon` their
        version so this exemption does not leak tables forever.

        ``keep_latest=0`` keeps *only* those exemptions — "retain no
        history" (a ``[-0:]`` slice used to make it silently keep
        everything).

        Raises:
            ValueError: If ``keep_latest`` is negative.
        """
        if keep_latest < 0:
            raise ValueError(
                f"keep_latest must be >= 0, got {keep_latest}")
        keep = (set(sorted(self._versions)[-keep_latest:])
                if keep_latest else set())
        if self._serving_version is not None:
            keep.add(self._serving_version)
        keep.update(self._open_staging)
        self._versions = {v: data for v, data in self._versions.items()
                          if v in keep}

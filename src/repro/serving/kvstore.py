"""NuKV-like versioned key-value store.

Production GraphEx writes batch predictions into NuKV, "a Key-Value store
accessed via eBay's inference API, subsequently serving sellers on the
platform" (Section IV-H).  This in-process stand-in keeps the same
contract: versioned bulk loads, point reads, and atomic swap of the
serving version so a batch refresh never serves a half-written table.

A version seeded from the serving table is an *overlay*, so an NRT
window costs what it writes, not what the store holds.
:meth:`KeyValueStore.copy_from_serving` into an empty version links it
to the serving table in O(1): its writes land in its own delta, and a
delete leaves a tombstone there.  A read walks the chain of
deltas down to the first plain table.  :meth:`KeyValueStore.promote`
folds a chain deeper than :data:`_FOLD_DEPTH` links into one plain
table, so a serving read walks at most that many links.  Only the
whole-table views, :meth:`KeyValueStore.size` and
:meth:`KeyValueStore.keys`, flatten an overlay and cost O(store).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Generic, Iterator, List, Mapping, Optional, TypeVar

V = TypeVar("V")

#: Overlay links a serving read may walk; :meth:`KeyValueStore.promote`
#: folds a deeper chain into one plain table (one O(store) copy per
#: this many seeded windows).
_FOLD_DEPTH = 16

#: An overlay's record of a delete: the key is gone, whatever its
#: parents hold.
_DELETED = object()
_MISSING = object()


class _Table:
    """One version's records: its own ``delta`` over an optional
    ``parent`` table, ``depth`` links above the plain table at the
    bottom of the chain.

    A table some overlay reads through is ``shared``, and it is never
    written again: a write to its version lands in a fresh overlay on
    top (see :meth:`KeyValueStore._writable`).
    """

    __slots__ = ("delta", "parent", "depth", "shared")

    def __init__(self, delta: Optional[dict] = None,
                 parent: Optional["_Table"] = None) -> None:
        self.delta = {} if delta is None else delta
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.shared = False

    def get(self, key):
        table = self
        while table is not None:
            value = table.delta.get(key, _MISSING)
            if value is not _MISSING:
                return None if value is _DELETED else value
            table = table.parent
        return None

    def flat(self) -> dict:
        """The version's whole table as one plain dict; a plain table
        returns its own (read-only to the caller), an overlay costs
        O(store)."""
        if self.parent is None:
            return self.delta
        deltas = []
        table: Optional[_Table] = self
        while table is not None:
            deltas.append(table.delta)
            table = table.parent
        flat = dict(deltas.pop())
        for delta in reversed(deltas):
            for key, value in delta.items():
                if value is _DELETED:
                    flat.pop(key, None)
                else:
                    flat[key] = value
        return flat


class KeyValueStore(Generic[V]):
    """Versioned KV store with atomic version promotion.

    Writers fill a staging version inside :meth:`transaction` —
    ``with store.transaction() as version:`` then :meth:`bulk_load` /
    :meth:`put` / :meth:`delete` — and readers always see the promoted
    version, the old table whole or the new one whole.  It is the only
    way the serving layer writes (:class:`~repro.serving.nrt.NRTService`
    flushes, the batch pipeline's two loads).

    A version seeded by :meth:`copy_from_serving` while empty is an
    overlay of the serving table (see the module docstring): the seed
    is O(1), a write O(1), a serving :meth:`get` walks at most
    :data:`_FOLD_DEPTH` links, and :meth:`size` / :meth:`keys` of an
    overlay cost O(store).  Every version still reads as a table of
    its own: an older version keeps its contents however many later
    ones overlay it.

    :attr:`lock` is the store's *transaction* lock (reentrant), the
    stand-in for a KV client's single connection; :meth:`transaction`
    holds it from stage to prune, and nothing else does.  So a daily
    ``full_load`` in one thread cannot interleave with an NRT window
    flush on the same store in another: without that, two concurrent
    :meth:`create_version` calls could be handed the same id, and a
    flush seeded by :meth:`copy_from_serving` *before* a full load's
    promote could re-promote yesterday's table over it afterwards.  Point reads stay
    lock-free (:meth:`get` already tolerates racing promote+prune).
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._versions: Dict[int, _Table] = {}
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
        self._versions[version] = _Table()
        self._open_staging.add(version)
        return version

    def _writable(self, version: int) -> _Table:
        """The table a write to ``version`` lands in.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (immutable).
        """
        if version == self._serving_version:
            raise ValueError("cannot write to the serving version")
        table = self._versions[version]
        if table.shared:
            # A later version reads through this table: writing into it
            # would rewrite that version too, so this one moves onto an
            # overlay of its own.
            table = self._versions[version] = _Table(parent=table)
        return table

    def put(self, version: int, key: int, value: V) -> None:
        """Write one record into a staging version.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (immutable).
        """
        self._writable(version).delta[key] = value

    def bulk_load(self, version: int, records: Mapping[int, V]) -> None:
        """Write many records into a staging version."""
        self._writable(version).delta.update(records)

    def copy_from_serving(self, version: int) -> None:
        """Seed a staging version with the current serving data
        (the daily-differential merge starts from yesterday's table).

        An empty ``version`` becomes an overlay of the serving table in
        O(1).  A non-empty one takes every serving record, serving
        values winning (``dict.update``), in O(store).  When nothing is
        serving yet the seed is empty, but the target ``version`` is
        validated either way: an unknown version is a caller bug and
        raises exactly as :meth:`put` does.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (seeding the
                live table with itself is a write to the serving
                version).
        """
        table = self._writable(version)
        if self._serving_version is None:
            return
        serving = self._versions[self._serving_version]
        if table.parent is None and not table.delta:
            serving.shared = True
            self._versions[version] = _Table(parent=serving)
        else:
            table.delta.update(serving.flat())

    def promote(self, version: int) -> None:
        """Atomically make a staged version the serving one, folding an
        overlay chain deeper than :data:`_FOLD_DEPTH` into one table.

        Raises:
            KeyError: If the version does not exist.
        """
        table = self._versions.get(version)
        if table is None:
            raise KeyError(f"unknown version {version}")
        if table.depth > _FOLD_DEPTH:
            self._versions[version] = _Table(table.flat())
        self._serving_version = version
        self._open_staging.discard(version)

    def abandon(self, version: int) -> None:
        """Discard a staging version whose writer failed mid-load.

        Closes the version's prune exemption and drops its data, so a
        crashed writer (an NRT flush whose engine raised, a batch load
        that aborted) does not leak an unpromotable table forever.  An
        overlay's parent is untouched.

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
        table = self._versions.get(self._serving_version)
        return None if table is None else table.get(key)

    def delete(self, version: int, key: int) -> None:
        """Remove one record from a staging version.

        A no-op when the *key* is absent (deleting an already-deleted
        item is fine), but an unknown *version* is a caller bug and
        raises, exactly as :meth:`put` does.

        Raises:
            KeyError: If the version does not exist.
            ValueError: If the version is already serving (immutable).
        """
        table = self._writable(version)
        if table.parent is None:
            table.delta.pop(key, None)
        else:
            table.delta[key] = _DELETED

    @property
    def serving_version(self) -> Optional[int]:
        """The promoted version id, or None before the first promotion."""
        return self._serving_version

    @property
    def versions(self) -> List[int]:
        """All retained version ids."""
        return sorted(self._versions)

    def size(self, version: Optional[int] = None) -> int:
        """Record count of a version (default: serving; 0 when none);
        O(store) on an overlay."""
        version = self._serving_version if version is None else version
        if version is None or version not in self._versions:
            return 0
        return len(self._versions[version].flat())

    def keys(self, version: Optional[int] = None) -> Iterator[int]:
        """Keys of a version (default: serving); O(store) on an
        overlay."""
        version = self._serving_version if version is None else version
        if version is None or version not in self._versions:
            return iter(())
        return iter(self._versions[version].flat())

    def prune(self, keep_latest: int = 2) -> None:
        """Drop all but the newest ``keep_latest`` versions.

        The serving version is always kept, and so is every *open*
        staging version (created but not yet promoted or abandoned):
        pruning a table a writer still holds would make its later
        :meth:`put` raise ``KeyError`` on a version id it was handed in
        good faith.  Writers that fail must :meth:`abandon` their
        version so this exemption does not leak tables forever.  A
        pruned table an overlay still reads through lives on as part of
        that overlay.

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

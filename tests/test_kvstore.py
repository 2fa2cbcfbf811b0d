"""The KV store's versions as tables of their own.

A version seeded from the serving table is an overlay of it (O(1)
seed, writes in its own delta); these tests pin what that must keep of
the whole-table-copy semantics: a directed case per subtle rule, a
stateful machine against a plain-dict model that crosses the fold
depth many times, and the allocation bound an NRT window now meets.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, Optional, Set

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.serving import ItemEvent, ItemEventKind, KeyValueStore, NRTService
from repro.serving.kvstore import _FOLD_DEPTH
from tests.conftest import FIG3_LEAF_ID
from tests.test_serving import table


def served(records) -> KeyValueStore:
    """A store serving ``records`` as its one version."""
    store = KeyValueStore()
    with store.transaction() as version:
        store.bulk_load(version, records)
    return store


def seed(store) -> int:
    """A staging version seeded from the serving table."""
    version = store.create_version()
    store.copy_from_serving(version)
    return version


class TestOverlayKeepsTheCopySemantics:
    def test_a_put_before_the_seed_loses_to_the_serving_value(self):
        store = served({1: "serving", 2: "serving"})
        version = store.create_version()
        store.put(version, 1, "staged")
        store.put(version, 3, "staged")
        store.copy_from_serving(version)
        store.promote(version)
        assert table(store) == {1: "serving", 2: "serving", 3: "staged"}

    def test_a_retained_older_version_reads_whole(self):
        """Promote well past the fold depth and prune nothing: every
        older version still has exactly its own keys, and promoting one
        back serves exactly its table."""
        store = served({key: "v0" for key in range(5)})
        expected = {store.serving_version: {key: "v0" for key in range(5)}}
        for step in range(1, 2 * _FOLD_DEPTH + 3):
            version = seed(store)
            state = dict(expected[store.serving_version])
            store.put(version, 100 + step, f"v{step}")
            store.delete(version, step % 5)
            state[100 + step] = f"v{step}"
            state.pop(step % 5, None)
            store.promote(version)
            expected[version] = state
        assert store.versions == sorted(expected)
        for version, state in expected.items():
            assert store.size(version) == len(state)
            assert sorted(store.keys(version)) == sorted(state)
        for version in (min(expected), min(expected) + _FOLD_DEPTH + 1):
            store.promote(version)
            assert table(store) == expected[version]

    def test_a_delete_of_a_parent_only_key_shows_and_a_put_serves_again(
            self):
        store = served({1: "a", 2: "b"})
        version = seed(store)
        store.delete(version, 1)
        store.promote(version)
        assert table(store) == {2: "b"} and store.size() == 1
        version = seed(store)
        store.put(version, 1, "again")
        store.delete(version, 2)
        store.put(version, 2, "back")
        store.promote(version)
        assert table(store) == {1: "again", 2: "back"}

    def test_abandoning_an_overlay_leaves_its_parent_serving(self):
        store = served({1: "a", 2: "b"})
        serving = store.serving_version
        version = seed(store)
        store.put(version, 1, "staged")
        store.delete(version, 2)
        store.abandon(version)
        with pytest.raises(RuntimeError):
            with store.transaction() as version:
                store.copy_from_serving(version)
                store.delete(version, 1)
                raise RuntimeError("writer died")
        assert store.versions == [serving]
        assert (store.serving_version, table(store)) == (serving,
                                                        {1: "a", 2: "b"})

    def test_a_write_to_an_older_version_stays_out_of_later_ones(self):
        """A superseded version is still writable; a version seeded
        from it while it served must not see the write."""
        store = served({1: "a", 2: "b"})
        old = store.serving_version
        version = seed(store)
        store.put(version, 3, "c")
        store.promote(version)
        store.put(old, 1, "rewritten")
        store.delete(old, 2)
        assert table(store) == {1: "a", 2: "b", 3: "c"}
        store.promote(old)
        assert table(store) == {1: "rewritten"}

    def test_a_serving_read_walks_at_most_the_fold_depth(self):
        store = served({key: "v0" for key in range(3)})
        for step in range(3 * _FOLD_DEPTH + 1):
            with store.transaction() as version:
                store.copy_from_serving(version)
                store.put(version, step % 3, f"v{step}")
            assert store._versions[version].depth <= _FOLD_DEPTH
        assert table(store) == {(3 * _FOLD_DEPTH - key) % 3:
                                f"v{3 * _FOLD_DEPTH - key}"
                                for key in range(3)}


KEYS = st.integers(0, 11)
VALUES = st.sampled_from(["a", "b", "c", "d"])
PICKS = st.integers(0, 7)


class StoreMachine(RuleBasedStateMachine):
    """:class:`KeyValueStore` against a dict of plain dicts: every
    mutator on any retained version, and whole NRT-shaped windows
    (seed, delete, put, promote, prune) in runs long enough to cross
    the fold depth several times."""

    def __init__(self) -> None:
        super().__init__()
        self.store: KeyValueStore = KeyValueStore()
        self.model: Dict[int, Dict[int, str]] = {}
        self.serving: Optional[int] = None
        self.open: Set[int] = set()
        self.dropped: Set[int] = set()

    # -- the model's own rules ---------------------------------------------

    def _pick(self, pick: int) -> int:
        versions = sorted(self.model)
        return versions[-1 - pick % len(versions)]

    def _add(self, version: int) -> None:
        assert version not in self.model and version not in self.dropped
        self.model[version] = {}
        self.open.add(version)

    def _seed(self, version: int) -> None:
        if self.serving is not None:
            self.model[version].update(self.model[self.serving])

    def _promote(self, version: int) -> None:
        self.serving = version
        self.open.discard(version)

    def _prune(self, keep_latest: int) -> None:
        keep = set(sorted(self.model)[-keep_latest:]) if keep_latest \
            else set()
        keep |= self.open | {self.serving} - {None}
        self.dropped |= set(self.model) - keep
        self.model = {v: t for v, t in self.model.items() if v in keep}

    # -- rules ----------------------------------------------------------------

    @rule()
    def create(self) -> None:
        self._add(self.store.create_version())

    @precondition(lambda self: self.model)
    @rule(pick=PICKS, key=KEYS, value=VALUES)
    def put(self, pick, key, value) -> None:
        version = self._pick(pick)
        if version == self.serving:
            with pytest.raises(ValueError):
                self.store.put(version, key, value)
            return
        self.store.put(version, key, value)
        self.model[version][key] = value

    @precondition(lambda self: self.model)
    @rule(pick=PICKS, records=st.dictionaries(KEYS, VALUES, max_size=4))
    def bulk_load(self, pick, records) -> None:
        version = self._pick(pick)
        if version == self.serving:
            with pytest.raises(ValueError):
                self.store.bulk_load(version, records)
            return
        self.store.bulk_load(version, records)
        self.model[version].update(records)

    @precondition(lambda self: self.model)
    @rule(pick=PICKS, key=KEYS)
    def delete(self, pick, key) -> None:
        version = self._pick(pick)
        if version == self.serving:
            with pytest.raises(ValueError):
                self.store.delete(version, key)
            return
        self.store.delete(version, key)
        self.model[version].pop(key, None)

    @precondition(lambda self: self.model)
    @rule(pick=PICKS)
    def copy_from_serving(self, pick) -> None:
        version = self._pick(pick)
        if version == self.serving:
            with pytest.raises(ValueError):
                self.store.copy_from_serving(version)
            return
        self.store.copy_from_serving(version)
        self._seed(version)

    @precondition(lambda self: self.model)
    @rule(pick=PICKS)
    def promote(self, pick) -> None:
        version = self._pick(pick)
        self.store.promote(version)
        self._promote(version)

    @precondition(lambda self: self.model)
    @rule(pick=PICKS)
    def abandon(self, pick) -> None:
        version = self._pick(pick)
        if version == self.serving:
            with pytest.raises(ValueError):
                self.store.abandon(version)
            return
        self.store.abandon(version)
        del self.model[version]
        self.open.discard(version)
        self.dropped.add(version)

    @rule(keep_latest=st.integers(0, 3))
    def prune(self, keep_latest) -> None:
        self.store.prune(keep_latest)
        self._prune(keep_latest)

    @precondition(lambda self: self.dropped)
    @rule(pick=PICKS, key=KEYS)
    def write_to_a_dropped_version(self, pick, key) -> None:
        version = sorted(self.dropped)[pick % len(self.dropped)]
        for write in (lambda: self.store.put(version, key, "x"),
                      lambda: self.store.delete(version, key),
                      lambda: self.store.copy_from_serving(version)):
            with pytest.raises(KeyError):
                write()

    @rule(n=st.integers(1, 2 * _FOLD_DEPTH), deleted=KEYS, key=KEYS,
          value=VALUES)
    def windows(self, n, deleted, key, value) -> None:
        """``n`` NRT flushes: one transaction each."""
        for step in range(n):
            with self.store.transaction() as version:
                self.store.copy_from_serving(version)
                self.store.delete(version, (deleted + step) % 12)
                self.store.put(version, (key + step) % 12, value)
            self._add(version)
            self._seed(version)
            self.model[version].pop((deleted + step) % 12, None)
            self.model[version][(key + step) % 12] = value
            self._promote(version)
            self._prune(2)

    # -- after every step -----------------------------------------------------

    @invariant()
    def reads_match_the_model(self) -> None:
        store = self.store
        assert store.versions == sorted(self.model)
        assert store.serving_version == self.serving
        for version, records in self.model.items():
            assert store.size(version) == len(records)
            assert sorted(store.keys(version)) == sorted(records)
        serving = self.model.get(self.serving, {})
        assert store.size() == len(serving)
        for key in range(12):
            assert store.get(key) == serving.get(key)


StoreMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None)
TestStoreMachine = StoreMachine.TestCase


def test_a_window_flush_allocates_what_it_touches(fig3_model):
    """One 32-event NRT window on a 500k-key store allocates what the
    window writes, not a copy of the table."""
    store = served(dict.fromkeys(range(500_000), ["preloaded"]))
    service = NRTService(fig3_model, store, window_size=32,
                         window_seconds=1e9)
    titles = ["audeze maxwell gaming headphones", "gaming headphones xbox",
              "no tokens in common here"]

    def window(first: int):
        for i in range(32):
            kind = ItemEventKind.DELETED if i % 8 == 7 \
                else ItemEventKind.REVISED
            service.submit(ItemEvent(kind, first + 997 * i, titles[i % 3],
                                     FIG3_LEAF_ID, float(first + i)))

    window(0)                                  # warm imports and caches
    tracemalloc.start()
    try:
        window(1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert service.n_windows == 2 and service.pending_events == 0
    assert store.get(1 + 997 * 7) is None
    assert store.get(1) == service.serve(1) != ["preloaded"]
    assert store.get(2) == ["preloaded"]
    assert peak < 2 * 1024 * 1024

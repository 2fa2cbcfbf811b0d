# Failing fixture for store-lock-discipline: multi-step store
# mutations with no transaction in the function that makes them.
# lint-fixture-module: repro.serving.fixture_store_bad


def swap_unlocked(store, version, items):
    # Two mutating calls outside store.transaction(): a concurrent refresh
    # can interleave between them and strand the staged version.
    store.create_version(version)
    store.promote(version)


def fill_unlocked(kv, version, items):
    for item_id, phrases in items:
        kv.put(version, item_id, phrases)
    kv.prune(version)


def _fill(store, version, items):
    # Its caller enters store.transaction() before delegating here, but
    # the rule reads one function: the helper must enter it itself.
    for item_id, phrases in items:
        store.put(version, item_id, phrases)
    store.prune(version)

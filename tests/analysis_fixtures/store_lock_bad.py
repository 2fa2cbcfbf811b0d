# Failing fixture for store-lock-discipline: multi-step store
# mutations with no transaction and no waiver.
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

# Passing fixture for store-lock-discipline: the transaction pattern
# and shapes that must not count.
# lint-fixture-module: repro.serving.fixture_store_good


def swap_locked(store, items):
    with store.transaction() as version:
        store.copy_from_serving(version)
        for item_id, phrases in items:
            store.put(version, item_id, phrases)


def single_mutation(store, version):
    store.promote(version)  # one call needs no transaction


async def queue_user(queue, item):
    # dict/queue homonyms on non-store receivers must not count
    await queue.put(item)
    cache = {}
    cache.update(item=1)
    return queue

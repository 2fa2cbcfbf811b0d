# Passing fixture for the async-no-blocking rule: the sanctioned
# spellings of the same work.
# lint-fixture-module: repro.serving.fixture_async_good
import asyncio
import shutil
import tempfile
import time

from repro.core.serialization import load_model


async def handler(store, fut):
    await asyncio.sleep(0.1)               # awaited: non-blocking
    loop = asyncio.get_event_loop()
    # Blocking work dispatched off-loop — function references as
    # arguments, never inline calls.
    payload = await loop.run_in_executor(None, _read_payload)
    spool = await loop.run_in_executor(None, tempfile.mkdtemp)
    await loop.run_in_executor(None, lambda: shutil.rmtree(spool))
    model = await loop.run_in_executor(
        None, lambda: load_model("/tmp/model"))
    value = await fut                      # asyncio-native join
    return payload, value, model


def _read_payload():
    # Sync helper: blocking calls are fine here (it runs in the
    # executor), and the rule must not descend into it.
    time.sleep(0.0)
    with open("/tmp/payload") as fh:
        return fh.read()


async def outer():
    def teardown(path):
        shutil.rmtree(path)  # nested sync def: out of scope

    return teardown

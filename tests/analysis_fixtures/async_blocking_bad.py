# Failing fixture for the async-no-blocking rule: every construct a
# reviewer has actually caught on this codebase's event loops.
# lint-fixture-module: repro.serving.fixture_async_bad
import shutil
import tempfile
import time

from repro.core.serialization import load_model


async def handler(store, fut):
    time.sleep(0.1)                       # sleeps the whole loop
    payload = open("/tmp/payload").read()  # blocking file open
    with store.transaction():              # unbounded lock wait
        pass
    value = fut.result()                   # concurrent.futures join
    spool = tempfile.mkdtemp()             # filesystem metadata write
    shutil.rmtree(spool)                   # filesystem teardown
    model = load_model("/tmp/model")       # artifact open + plane check
    return payload, value, model

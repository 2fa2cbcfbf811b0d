# Failing fixture for removed-spelling: options, frame types and names
# that collapse PRs deleted, coming back one per line.
# lint-fixture-module: repro.cluster.fixture_removed_spelling_bad
async def run_inference(coordinator, path, requests, distribute="path"):
    await coordinator.deploy_artifact(path, push=True)
    return {"type": "artifact_begin", "model_artifact": str(path)}
# lint-fixture-module: repro.core.fixture_removed_spelling_bad
from concurrent.futures import ThreadPoolExecutor


def batch(model, requests, workers=2, executor="thread"):
    return model.plan.to_json()
# lint-fixture-module: repro.serving.fixture_removed_spelling_bad
def front(model, store, flush_executor=None):
    return NRTService(model, store, engine="reference")
# lint-fixture-module: repro.serving.async_front
def _locked(stream, fn):
    return fn()
# lint-fixture-module: repro.cluster.coordinator
class _Assignment:
    stale = False


async def _run_unit(policy, unit):
    return await policy.call_async(unit)
# lint-fixture-module: repro.cluster.worker
def _run_construction_shard(self, message):
    return build_shard_bundle(unpack_curated_leaves(message["leaves"]))
# lint-fixture-module: repro.core.execution
class ClusterExecutor:
    def run_construction(self, curated):
        return save_leaf_graphs(curated, "leaf-bundle")
# lint-fixture-module: repro.cli
def worker_options(parser):
    parser.add_argument("--spool")

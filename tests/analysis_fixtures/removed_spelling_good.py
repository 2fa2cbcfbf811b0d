# Passing fixture for removed-spelling: the same spellings where their
# rows still allow them, and look-alikes that are not the spelling.
# lint-fixture-module: repro.serving.fixture_removed_spelling_good
from concurrent.futures import ThreadPoolExecutor


def pool(max_workers):
    """Not under repro.core; ``thread`` the variable is not "thread"
    the executor name, and prose about distribute= is not code."""
    thread = ThreadPoolExecutor(max_workers=max_workers)
    return thread  # the old parallel= spelling, in a comment
# lint-fixture-module: repro.cli
def boot(local, args):
    return local(workers=args.workers), recommend(engine=args.engine)
# lint-fixture-module: repro.core.execution
class ClusterExecutor:
    @classmethod
    def local(cls, workers=2):
        return workers


class SerialExecutor:
    def run_construction(self, curated, tokenizer):
        return {}
# lint-fixture-module: repro.core.model
class GraphExModel:
    @classmethod
    def construct(cls, curated, executor):
        return executor.run_construction(curated)  # no "leaf-bundle"
# lint-fixture-module: repro.cluster.worker
class ClusterWorker:
    def __init__(self, spool_dir=None):
        self.flag = "--spool-dir"   # not the "--spool" spelling
# lint-fixture-module: repro.analysis.fixture_removed_spelling_good
def dump(report):
    return report.to_json()
# lint-fixture-module: repro.serving.nrt
def _locked(fn):
    return fn()
# lint-fixture-module: repro.cluster.scheduler
def reply(flights, assignment):
    """A stale _Assignment's future is gone, and so is call_async."""
    return flights.get(assignment)  # no _WorkerDied either

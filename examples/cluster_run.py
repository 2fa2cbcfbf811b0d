"""Fault-tolerant cluster run: 3 workers over localhost, one dies mid-plan.

The multi-machine story end to end: a coordinator listens on localhost
TCP, three executor workers register, and an inference batch is sharded
across them through the cluster runner.  One worker is armed with the
kill switch (``die_after_assignments=0``): the moment its first shard
arrives it drops the connection cold, exactly like a crashed host.  The
coordinator detects the death, re-cuts the orphaned shard across
the two survivors, and the merged output is still element-wise
identical to the single-process fast path — with every shard merged
exactly once.

Here the three workers are asyncio tasks sharing this process (so the
example is self-contained and instant); each speaks to the coordinator
only through its TCP connection, exactly as a real remote host would.
For worker *subprocesses* — separate "machines" with their own memory
maps — run the CLI sibling::

    repro-graphex cluster-run --model model_dir/ --workers 3 --kill-after 0

Run:  PYTHONPATH=src python examples/cluster_run.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import CurationConfig, SessionSimulator, TINY_PROFILE, curate, generate_dataset
from repro.cluster import ClusterCoordinator, ClusterWorker, RetryPolicy
from repro.core import GraphExModel, batch_recommend
from repro.core.serialization import save_model


def build_model_and_requests():
    dataset = generate_dataset(TINY_PROFILE)
    simulator = SessionSimulator(dataset.catalog, dataset.queries, seed=7)
    log = simulator.run_training_window(n_events=20_000)
    curated = curate(log.keyphrase_stats(),
                     CurationConfig(min_search_count=2, min_keyphrases=100,
                                    floor_search_count=2))
    model = GraphExModel.construct(curated)
    requests = [(item.item_id, item.title, item.leaf_id)
                for item in dataset.catalog.items[:120]]
    return model, requests


async def main() -> None:
    model, requests = build_model_and_requests()
    print(f"model: {model.n_leaves} leaves, {model.n_keyphrases} "
          f"keyphrases; batch: {len(requests)} requests")

    # The ground truth the cluster must reproduce bit-for-bit.
    expected = batch_recommend(model, requests, k=10)

    with tempfile.TemporaryDirectory(prefix="cluster-example-") as tmp:
        artifact = Path(tmp) / "model"
        save_model(model, artifact)
        print(f"persisted model artifact -> {artifact}")

        async with ClusterCoordinator(rpc_timeout=10.0,
                                      retry=RetryPolicy(seed=0),
                                      heartbeat_timeout=5.0) as coordinator:
            print(f"coordinator listening on "
                  f"{coordinator.host}:{coordinator.port}")

            workers = [
                # The doomed one: drops its connection cold the moment
                # its first shard arrives — a crashed host mid-plan.
                ClusterWorker(coordinator.host, coordinator.port,
                              name="doomed", heartbeat_interval=0.5,
                              die_after_assignments=0),
                ClusterWorker(coordinator.host, coordinator.port,
                              name="steady-1", heartbeat_interval=0.5),
                ClusterWorker(coordinator.host, coordinator.port,
                              name="steady-2", heartbeat_interval=0.5),
            ]
            tasks = [asyncio.ensure_future(worker.run())
                     for worker in workers]
            await coordinator.wait_for_workers(3, timeout=10.0)
            print(f"registered workers: {coordinator.worker_names()}")

            result = await coordinator.run_inference(
                str(artifact), requests, k=10)

            report = coordinator.last_report
            print(f"\nrun report:")
            print(f"  units planned          : {report.n_units_planned}")
            print(f"  dead-host re-plans     : {report.n_replans}")
            print(f"  orphaned requests      : "
                  f"{sum(map(len, report.orphaned_keys))}")
            print(f"  deadline retries       : {report.n_retries}")
            print(f"  late results discarded : {report.n_late_discarded}")
            print(f"  workers used           : {report.workers_used}")
            print(f"  survivors              : {coordinator.worker_names()}")
            exactly_once = all(count == 1
                               for count in report.merge_counts.values())
            print(f"  every shard merged exactly once: {exactly_once}")

            identical = result == expected
            print(f"\ncluster output identical to single-process fast "
                  f"path: {identical}")
            assert identical and exactly_once
            assert report.n_replans >= 1, "the doomed worker never died?"

            await coordinator.stop()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
    print("\nOK: one host died mid-plan; the fleet re-planned around it "
          "and the output did not change by a single element.")


if __name__ == "__main__":
    asyncio.run(main())

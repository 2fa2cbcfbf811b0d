"""The Figure 7 production loop: daily refresh + batch + NRT serving.

Walks two simulated "days" of the serving architecture:

* Day 1 — full batch inference over the catalog into the KV store, and
  an asyncio NRT front brought up over two streams.
* Day 2 — 2% query churn arrives (new keyphrases in the logs).  The
  :class:`DailyRefreshOrchestrator` runs the daily loop: the model is
  re-constructed in seconds (the daily refresh fastText cannot do), the
  batch table is fully re-loaded and atomically promoted, and the
  *running* NRT front is hot-swapped to the new model — generation 1 —
  without dropping an event, while a seller revises a listing mid-day.

Run:  python examples/daily_refresh_serving.py
"""

import asyncio
import tempfile
import time

from repro.core import GraphExModel

from repro import (
    CurationConfig,
    SessionSimulator,
    TINY_PROFILE,
    curate,
    generate_dataset,
)
from repro.serving import (
    AsyncNRTFront,
    BatchPipeline,
    DailyRefreshOrchestrator,
    ItemEvent,
    ItemEventKind,
    KeyValueStore,
)

CURATION = CurationConfig(min_search_count=4, min_keyphrases=200,
                          floor_search_count=2)


async def main_async() -> None:
    dataset = generate_dataset(TINY_PROFILE)
    simulator = SessionSimulator(dataset.catalog, dataset.queries, seed=7)
    requests = [(it.item_id, it.title, it.leaf_id)
                for it in dataset.catalog.items]
    sample = dataset.catalog.items[0]

    print("Day 1: training window + full batch load")
    day1_log = simulator.run(25_000, day_start=1, day_end=180, rounds=3)
    start = time.perf_counter()
    store = KeyValueStore()
    model = GraphExModel.construct(curate(day1_log.keyphrase_stats(),
                                          CURATION))
    print(f"   constructed {model.n_leaves} leaf graphs / "
          f"{model.n_keyphrases} labels in "
          f"{(time.perf_counter() - start) * 1e3:.0f} ms")

    pipeline = BatchPipeline(model, store=store)
    report = pipeline.full_load(requests)
    print(f"   full load: {report.n_inferred} items inferred, "
          f"{report.n_served} served from KV version {report.version}")
    print(f"   serving {sample.item_id}: "
          f"{pipeline.serve(sample.item_id)[:3]}")

    print("\nDay 1, evening: NRT front comes up over two streams")
    front = AsyncNRTFront(model, window_size=8, window_seconds=0.5,
                          wall_clock_seconds=0.2)
    front.add_stream("site-us", store=store)   # shares the batch store
    front.add_stream("site-de")
    # artifact_dir: each refresh persists a format-3 artifact and
    # deploys its *memory-mapped* open, so the pipeline and every
    # stream share one physical model copy (swap = remap, not reload).
    artifact_root = tempfile.mkdtemp(prefix="graphex-daily-")
    # Each day's model builds in this process (a fleet build measured
    # slower at every scale); every build's leaf timings land in one
    # registry (orchestrator.metrics).
    orchestrator = DailyRefreshOrchestrator(pipeline,
                                            artifact_dir=artifact_root)
    orchestrator.register(front)

    async with front:
        await front.submit("site-us", ItemEvent(
            kind=ItemEventKind.CREATED, item_id=sample.item_id,
            title=sample.title, leaf_id=sample.leaf_id, timestamp=0.0))
        await front.join()
        await front.flush_all()          # a generation-0 window served

        print("\nDay 2: query churn -> orchestrated daily refresh "
              "(front keeps serving)")
        day2_log = day1_log.merged_with(
            simulator.run(3_000, day_start=181, day_end=181, rounds=1))
        refresh = await orchestrator.refresh(
            curate(day2_log.keyphrase_stats(), CURATION), requests)
        print(f"   generation {refresh.generation}: constructed "
              f"{refresh.n_leaves} leaf graphs / {refresh.n_keyphrases} "
              f"labels in {refresh.construct_seconds * 1e3:.0f} ms, "
              f"re-loaded {refresh.n_inferred} items in "
              f"{refresh.load_seconds * 1e3:.0f} ms, hot-swapped "
              f"{refresh.n_targets} serving target(s) in "
              f"{refresh.swap_seconds * 1e3:.0f} ms")
        print(f"   deployed mapped from artifact "
              f"{refresh.artifact_path}")

        print("\nDay 2, 14:02: seller revises a listing (NRT path, "
              "new model)")
        revised_title = sample.title + " bluetooth"
        await front.submit("site-us", ItemEvent(
            kind=ItemEventKind.REVISED, item_id=sample.item_id,
            title=revised_title, leaf_id=sample.leaf_id, timestamp=1.0))
        await front.join()
        await front.flush_all()
        windows = front.processed_windows("site-us")
        print(f"   {len(windows)} windows on site-us, generations "
              f"{[w.model_generation for w in windows]}")
        print(f"   serving {sample.item_id} now: "
              f"{pipeline.serve(sample.item_id)[:3]}")


def main() -> None:
    asyncio.run(main_async())


if __name__ == "__main__":
    main()

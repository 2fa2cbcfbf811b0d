"""Quickstart: build a world, construct GraphEx, recommend keyphrases.

Runs the full pipeline end to end in under a minute:

1. Generate a synthetic e-commerce catalog and buyer query universe.
2. Simulate six months of buyer search sessions (the "search logs").
3. Curate head keyphrases from the logs (no click associations!).
4. Construct the GraphEx bipartite graphs — this is all the "training".
5. Recommend keyphrases for a few items and explain the ranking.

Run:  python examples/quickstart.py
"""

from repro import (
    CurationConfig,
    GraphExModel,
    SessionSimulator,
    TINY_PROFILE,
    curate,
    generate_dataset,
)


def main() -> None:
    print("1) Generating synthetic catalog + query universe ...")
    dataset = generate_dataset(TINY_PROFILE)
    print(f"   {len(dataset.catalog.items)} items, "
          f"{len(dataset.queries)} unique buyer queries")

    print("2) Simulating a six-month window of buyer sessions ...")
    simulator = SessionSimulator(dataset.catalog, dataset.queries, seed=7)
    log = simulator.run_training_window(n_events=30_000)
    print(f"   {log.total_searches} searches, {len(log.clicks)} clicks")

    print("3) Curating head keyphrases (Search-Count threshold) ...")
    curated = curate(log.keyphrase_stats(),
                     CurationConfig(min_search_count=4, min_keyphrases=200,
                                    floor_search_count=2))
    print(f"   kept {curated.n_keyphrases} keyphrases across "
          f"{len(curated.leaves)} leaf categories "
          f"(effective threshold {curated.effective_threshold})")

    print("4) Constructing GraphEx (training-free) ...")
    # Leaf graphs build here, on this thread — on one box the fastest
    # place.  executor=ClusterExecutor.local(N) would hand whole-leaf
    # shards to N worker processes instead; the model is bit-identical
    # either way.
    model = GraphExModel.construct(curated)
    print(f"   {model.n_leaves} leaf graphs, "
          f"{model.n_keyphrases} labels, "
          f"~{model.memory_bytes() / 1024:.0f} KiB")

    print("5) Recommending keyphrases:\n")
    for item in dataset.catalog.items[:3]:
        print(f"   TITLE: {item.title}")
        for rec in model.recommend(item.title, item.leaf_id, k=5,
                                   hard_limit=8):
            print(f"     {rec.text!r:45s} LTA={rec.score:.2f} "
                  f"searches={rec.search_count} recall={rec.recall_count}")
        print()


if __name__ == "__main__":
    main()

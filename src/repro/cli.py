"""Command-line interface for the GraphEx reproduction.

Mirrors a production workflow in six subcommands::

    repro-graphex simulate  --out logs.json [--profile tiny|default]
    repro-graphex curate    --log logs.json --out curated.json [--min-search-count N] [--engine reference|fast]
    repro-graphex construct --curated curated.json --out model_dir/ [--builder reference|fast]
    repro-graphex recommend --model model_dir/ --title "..." --leaf ID [-k N] [--engine reference|fast] [--executor serial|process|cluster [--workers N]] [--mmap]
    repro-graphex serve-nrt --model model_dir/ [--streams N] [--events N] [--refresh-after N] [--executor serial|process|cluster [--workers N]]
    repro-graphex evaluate  [--profile tiny|default] [--meta CAT_1]
    repro-graphex cluster-worker --connect HOST:PORT [--name W] [--die-after-assignments N]
    repro-graphex cluster-run --model model_dir/ [--spawn-workers N] [--kill-after K] [--metrics-out PATH]
    repro-graphex metrics SNAPSHOT.json [SNAPSHOT.json ...] [--merge-out PATH]

``simulate`` writes aggregated keyphrase stats (the only GraphEx training
input) as JSON; ``curate`` persists the curated keyphrases *and* the
curation config (so ``construct`` round-trips the exact configuration);
``construct`` builds in this process and persists the model with
:func:`repro.core.serialization.save_model` (format 3, the zero-copy
page-aligned artifact); ``recommend`` loads and serves
(``--mmap`` opens the artifact without copying); ``serve-nrt`` demos
the asyncio multi-stream NRT front (``--refresh-after`` adds a mid-run
zero-downtime model hot-swap, handed off by artifact *path* so the
model remaps instead of reloading); serving runs the fast engine only,
so it has no ``--engine`` — the scalar oracles are selected on
``curate``, ``construct`` and ``recommend``.
``evaluate`` runs the miniature Table III comparison.

Observability rides along everywhere: ``serve-nrt`` and
``cluster-run`` accept ``--metrics-out PATH`` to dump the run's
(fleet-merged, for the cluster) metrics snapshot as schema-versioned
JSON, and the ``metrics`` subcommand reads any number of such
snapshots back, merges them exactly (see :mod:`repro.obs`), and
renders the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List, Optional

from .core.alignment import ALIGNMENTS
from .core.batch import ENGINES, batch_recommend
from .core.curation import CURATION_ENGINES, CurationConfig, curate
from .core.execution import EXECUTOR_NAMES
from .core.model import BUILDERS, GraphExModel
from .core.serialization import load_model, save_model
from .data.generator import DEFAULT_PROFILE, TINY_PROFILE, generate_dataset
from .search.logs import KeyphraseStat
from .search.sessions import SessionSimulator

_PROFILES = {"tiny": TINY_PROFILE, "default": DEFAULT_PROFILE}


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = _PROFILES[args.profile]
    dataset = generate_dataset(profile)
    simulator = SessionSimulator(dataset.catalog, dataset.queries,
                                 seed=args.seed)
    log = simulator.run_training_window(n_events=args.events)
    stats = [
        {"text": s.text, "leaf_id": s.leaf_id,
         "search_count": s.search_count, "recall_count": s.recall_count}
        for s in log.keyphrase_stats()
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"profile": args.profile, "stats": stats}, fh)
    print(f"wrote {len(stats)} keyphrase stats to {args.out}")
    return 0


def _load_stats(path: str) -> List[KeyphraseStat]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [KeyphraseStat(text=s["text"], leaf_id=s["leaf_id"],
                          search_count=s["search_count"],
                          recall_count=s["recall_count"])
            for s in payload["stats"]]


def _cmd_curate(args: argparse.Namespace) -> int:
    stats = _load_stats(args.log)
    curated = curate(stats, CurationConfig(
        min_search_count=args.min_search_count,
        min_keyphrases=args.min_keyphrases,
        floor_search_count=args.floor), engine=args.engine)
    payload = {
        "effective_threshold": curated.effective_threshold,
        # Persist the curation knobs so `construct` rebuilds the exact
        # CuratedKeyphrases (a round-trip used to silently reset the
        # config to defaults).
        "config": dataclasses.asdict(curated.config),
        "leaves": {
            str(leaf_id): {
                "texts": leaf.texts,
                "search_counts": leaf.search_counts,
                "recall_counts": leaf.recall_counts,
            }
            for leaf_id, leaf in curated.leaves.items()
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"curated {curated.n_keyphrases} keyphrases "
          f"(effective threshold {curated.effective_threshold}) "
          f"-> {args.out}")
    return 0


def _load_curated(path: str):
    """Rebuild the exact ``curate --out`` CuratedKeyphrases — leaves,
    effective threshold, *and* curation config (a round-trip used to
    silently reset the config to defaults)."""
    from .core.curation import CuratedKeyphrases, CuratedLeaf

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    leaves = {}
    for leaf_id_str, data in payload["leaves"].items():
        leaf = CuratedLeaf(leaf_id=int(leaf_id_str))
        for text, search, recall in zip(
                data["texts"], data["search_counts"],
                data["recall_counts"]):
            leaf.add(text, search, recall)
        leaves[int(leaf_id_str)] = leaf
    # Older curated files predate the persisted config block; they fall
    # back to defaults, as before.
    return CuratedKeyphrases(
        leaves=leaves,
        effective_threshold=payload["effective_threshold"],
        config=CurationConfig(**payload.get("config", {})))


def _cli_executor(args: argparse.Namespace):
    """The ``--executor`` value as an executor spec.  ``process`` and
    ``cluster`` both boot a localhost fleet of ``--workers`` worker
    subprocesses (:meth:`repro.core.execution.ClusterExecutor.local`);
    the caller owns the returned instance and must ``close()`` it."""
    if args.executor in ("process", "cluster"):
        from .core.execution import ClusterExecutor

        return ClusterExecutor.local(args.workers)
    return args.executor


def _close_executor(spec) -> None:
    """Tear down an executor ``_cli_executor`` instantiated (a string
    or ``None`` spec owns nothing and is left alone)."""
    if hasattr(spec, "close"):
        spec.close()


def _cmd_construct(args: argparse.Namespace) -> int:
    curated = _load_curated(args.curated)
    start = time.perf_counter()
    model = GraphExModel.construct(curated, alignment=args.alignment,
                                   builder=args.builder)
    elapsed = time.perf_counter() - start
    save_model(model, args.out)
    rate = model.n_keyphrases / elapsed if elapsed > 0 else float("inf")
    print(f"constructed {model.n_leaves} leaf graphs / "
          f"{model.n_keyphrases} labels in {elapsed:.3f}s "
          f"({rate:,.0f} keyphrases/s, builder={args.builder}) "
          f"-> {args.out}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    model = load_model(args.model, mmap=args.mmap)
    executor = _cli_executor(args)
    try:
        results = batch_recommend(model, [(0, args.title, args.leaf)],
                                  k=args.k, engine=args.engine,
                                  executor=executor)
    finally:
        _close_executor(executor)
    recs = results[0]
    if not recs:
        print("(no recommendations)")
        return 0
    for rec in recs:
        print(f"{rec.score:8.3f}  S={rec.search_count:<8d} "
              f"R={rec.recall_count:<8d} {rec.text}")
    return 0


def _cmd_serve_nrt(args: argparse.Namespace) -> int:
    """Demo of the asyncio NRT front: synthesize per-stream event feeds
    from the model's own keyphrases and drive them concurrently."""
    import asyncio
    import random

    from .serving import AsyncNRTFront, ItemEvent, ItemEventKind

    model = load_model(args.model)
    rng = random.Random(args.seed)
    leaf_ids = model.leaf_ids
    titles = {leaf_id: model.leaf_graph(leaf_id).label_texts
              for leaf_id in leaf_ids}

    def make_events(stream_index: int) -> List[ItemEvent]:
        events = []
        for i in range(args.events):
            leaf_id = rng.choice(leaf_ids)
            pool = titles[leaf_id]
            events.append(ItemEvent(
                kind=ItemEventKind.REVISED if rng.random() < 0.3
                else ItemEventKind.CREATED,
                item_id=stream_index * args.events + i,
                title=rng.choice(pool) if pool else "",
                leaf_id=leaf_id, timestamp=float(i)))
        return events

    streams = [f"stream-{i}" for i in range(args.streams)]
    feeds = {name: make_events(index)
             for index, name in enumerate(streams)}

    split = min(args.refresh_after, args.events) \
        if args.refresh_after > 0 else 0

    async def drive() -> float:
        # Time the whole run including the shutdown drain: after the
        # gather, events may still sit in the ingestion queues, and
        # stopping the clock before stop() would overstate events/s.
        start = time.perf_counter()
        async with front:
            if split:
                # The daily-refresh demo: swap in a freshly loaded
                # model mid-run (here: the same model re-read from
                # disk, standing in for today's rebuild) while traffic
                # keeps flowing — no stream stops serving.
                await asyncio.gather(*(
                    _feed(front, name, feeds[name][:split])
                    for name in streams))
                # Hand the front the artifact *path*: refresh_model
                # maps it zero-copy (one shared physical model across
                # every stream).
                generation = await front.refresh_model(args.model)
                print(f"hot-swapped to model generation {generation} "
                      f"after {split} events/stream "
                      "(traffic kept flowing)")
                await asyncio.gather(*(
                    _feed(front, name, feeds[name][split:])
                    for name in streams))
            else:
                await asyncio.gather(*(
                    _feed(front, name, feeds[name]) for name in streams))
        return time.perf_counter() - start

    async def _feed(front, name, events):
        for event in events:
            await front.submit(name, event)

    executor = _cli_executor(args)
    try:
        front = AsyncNRTFront(
            model, window_size=args.window_size,
            window_seconds=args.window_seconds, executor=executor)
        for name in streams:
            front.add_stream(name)
        elapsed = asyncio.run(drive())
    finally:
        _close_executor(executor)
    total = args.streams * args.events
    for stats in front.all_stats():
        print(f"{stats.name}: {stats.n_submitted} events -> "
              f"{stats.n_windows} windows, {stats.n_inferred} inferred, "
              f"{stats.n_deleted} deleted, "
              f"{stats.n_flush_failures} flush failures")
        if split:
            by_generation: dict = {}
            for window in front.processed_windows(stats.name):
                by_generation[window.model_generation] = \
                    by_generation.get(window.model_generation, 0) + 1
            generations = ", ".join(
                f"gen {generation}: {count}"
                for generation, count in sorted(by_generation.items()))
            print(f"  windows by model generation: {generations}")
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(f"served {total} events across {args.streams} streams "
          f"in {elapsed:.3f}s ({rate:,.0f} events/s)")
    if args.metrics_out:
        from .obs import dump_snapshot

        dump_snapshot(front.metrics.snapshot(), args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .eval import Experiment, ExperimentConfig
    from .eval.metrics import (relative_head_ratio,
                               relative_relevant_ratio)
    from .eval.reporting import render_table

    if args.profile == "tiny":
        config = ExperimentConfig(
            profile=TINY_PROFILE, n_train_events=30_000,
            n_test_events=5_000,
            curation=CurationConfig(min_search_count=3,
                                    min_keyphrases=100,
                                    floor_search_count=2),
            test_items_per_meta={"CAT_1": 60, "CAT_2": 40, "CAT_3": 20})
    else:
        config = ExperimentConfig()
    experiment = Experiment(config).prepare()
    metas = [args.meta] if args.meta else experiment.metas
    for meta in metas:
        judged = experiment.judged(meta)
        reference = judged["GraphEx"]
        rows = [[name, j.rp, j.hp,
                 relative_relevant_ratio(j, reference),
                 relative_head_ratio(j, reference)]
                for name, j in judged.items()]
        print(render_table(["model", "RP", "HP", "RRR", "RHR"], rows,
                           title=f"\n{meta}"))
    return 0


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Run one executor host until its coordinator shuts it down."""
    import asyncio

    from .cluster import ClusterWorker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    worker = ClusterWorker(
        host, int(port), name=args.name,
        heartbeat_interval=args.heartbeat,
        die_after_assignments=args.die_after_assignments,
        # A CLI worker is a whole "machine": the kill switch must take
        # the process down, not just raise, so the bench/CI crash
        # drills exercise a real host death.
        hard_exit=True)
    asyncio.run(worker.run())
    return 0


def _synthesize_requests(model: GraphExModel, n: int,
                         seed: int) -> list:
    """Seeded inference requests drawn from the model's own labels."""
    import random

    rng = random.Random(seed)
    leaf_ids = model.leaf_ids
    titles = {leaf_id: model.leaf_graph(leaf_id).label_texts
              for leaf_id in leaf_ids}
    requests = []
    for item_id in range(n):
        leaf_id = rng.choice(leaf_ids)
        pool = titles[leaf_id]
        requests.append((item_id,
                         rng.choice(pool) if len(pool) else "",
                         leaf_id))
    return requests


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """Demo/smoke of the fault-tolerant cluster runner.

    Spawns ``--spawn-workers`` real worker *subprocesses* (each its own
    "machine"), runs a batch across them, verifies the merged output
    element-wise against the in-process fast path, and prints the run
    report.  ``--kill-after K`` arms the first worker's kill switch so
    it hard-exits mid-plan — the run must still verify, through
    dead-host re-planning.
    """
    import asyncio

    from .cluster import (ClusterCoordinator, RetryPolicy, reap_workers,
                          spawn_worker)
    from .core.fast_inference import LeafBatchRunner

    model = load_model(args.model, mmap=True)
    requests = _synthesize_requests(model, args.requests, args.seed)
    expected = LeafBatchRunner(model, k=args.k).run(requests)

    async def drive() -> int:
        procs = []
        async with ClusterCoordinator(
                rpc_timeout=args.rpc_timeout,
                retry=RetryPolicy(seed=args.seed),
                heartbeat_timeout=4.0) as coordinator:
            try:
                for index in range(args.spawn_workers):
                    flags = ["--heartbeat", "0.5"]
                    if args.kill_after is not None and index == 0:
                        flags += ["--die-after-assignments",
                                  str(args.kill_after)]
                    procs.append(spawn_worker(
                        f"{coordinator.host}:{coordinator.port}",
                        f"machine-{index}", *flags))
                await coordinator.wait_for_workers(args.spawn_workers,
                                                   timeout=30.0)
                start = time.perf_counter()
                got = await coordinator.run_inference(
                    str(args.model), requests, k=args.k)
                elapsed = time.perf_counter() - start
            finally:
                await coordinator.stop()
                reap_workers(procs)
            report = coordinator.last_report
            identical = got == expected
            rate = len(requests) / elapsed if elapsed > 0 \
                else float("inf")
            print(f"ran {len(requests)} requests across "
                  f"{args.spawn_workers} worker machines in "
                  f"{elapsed:.3f}s ({rate:,.0f} req/s)")
            for field, value in sorted(report.as_dict().items()):
                if field == "fleet_metrics":
                    continue      # full snapshot goes to --metrics-out
                print(f"  {field}: {value}")
            print(f"  verified_identical: {identical}")
            if args.metrics_out:
                from .obs import dump_snapshot, empty_snapshot

                snapshot = report.fleet_metrics \
                    if report.fleet_metrics is not None \
                    else empty_snapshot()
                dump_snapshot(snapshot, args.metrics_out)
                print(f"wrote fleet metrics snapshot to "
                      f"{args.metrics_out}")
            return 0 if identical else 1

    return asyncio.run(drive())


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run repro-lint (:mod:`repro.analysis`) — same engine and exit
    codes as ``python -m repro.analysis``."""
    from .analysis.__main__ import main as lint_main

    argv: List[str] = []
    if args.root is not None:
        argv += ["--root", args.root]
    if args.json is not None:
        argv += ["--json", args.json]
    for rule in args.rule or ():
        argv += ["--rule", rule]
    if args.list_rules:
        argv.append("--list-rules")
    if args.quiet:
        argv.append("--quiet")
    return lint_main(argv)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Read metrics snapshots, merge them exactly, render the result.

    One snapshot just renders; several merge first (merging is exact
    and associative, so any grouping of worker snapshots yields the
    same fleet view — :mod:`repro.obs` property-tests this).
    """
    from .obs import (TICKS_PER_SECOND, dump_snapshot, load_snapshot,
                      merge_snapshots)

    try:
        snapshots = [load_snapshot(path) for path in args.snapshots]
        merged = merge_snapshots(snapshots)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read/merge snapshots: {exc}", file=sys.stderr)
        return 2
    if args.merge_out:
        dump_snapshot(merged, args.merge_out)
        print(f"wrote merged snapshot of {len(snapshots)} "
              f"input(s) to {args.merge_out}")
    print(f"counters ({len(merged['counters'])}):")
    for key, value in sorted(merged["counters"].items()):
        print(f"  {key} = {value}")
    print(f"gauges ({len(merged['gauges'])}):")
    for key, (value, vmax, vmin) in sorted(merged["gauges"].items()):
        print(f"  {key} = {value:g} (min {vmin:g}, max {vmax:g})")
    print(f"histograms ({len(merged['histograms'])}):")
    for key, hist in sorted(merged["histograms"].items()):
        count = hist["count"]
        total = hist["sum_ticks"] / TICKS_PER_SECOND
        mean = total / count if count else 0.0
        print(f"  {key}: n={count} total={total:.6f}s "
              f"mean={mean * 1e3:.3f}ms")
    return 0


def _add_executor_options(parser: argparse.ArgumentParser, unit: str,
                          path: Optional[str] = None, choices=()) -> None:
    """The ``--executor`` / ``--workers`` pair shared by recommend and
    serve-nrt — and, for recommend, which has a scalar oracle to
    select, its ``--engine`` option."""
    pairing = ""
    if path is not None:
        parser.add_argument(f"--{path}", choices=choices, default="fast",
                            help=f"scalar reference {path} or the "
                                 f"vectorized fast one (identical output)")
        pairing = f"; only serial pairs with the reference {path}"
    parser.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                        help=f"where shards of {unit} run: 'serial' "
                             f"(default) is this process, the oracle and "
                             f"on one box the fastest; 'process' and "
                             f"'cluster' both boot a localhost fleet of "
                             f"--workers worker processes — identical "
                             f"output on each{pairing}")
    parser.add_argument("--workers", type=int, default=2,
                        help="size of the fleet --executor "
                             "process|cluster boots (ignored by serial)")
    # Which of the two names the oracle option goes by here, if any:
    # main() refuses its "reference" value on a fleet.
    parser.set_defaults(oracle_option=path)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-graphex",
        description="GraphEx reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="simulate buyer sessions, write stats")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--profile", choices=_PROFILES, default="tiny")
    p_sim.add_argument("--events", type=int, default=30_000)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cur = sub.add_parser("curate", help="curate head keyphrases")
    p_cur.add_argument("--log", required=True)
    p_cur.add_argument("--out", required=True)
    p_cur.add_argument("--min-search-count", type=int, default=4)
    p_cur.add_argument("--min-keyphrases", type=int, default=200)
    p_cur.add_argument("--floor", type=int, default=2)
    p_cur.add_argument("--engine", choices=CURATION_ENGINES,
                       default="fast",
                       help="curation path: scalar reference loop or the "
                            "vectorized mask passes (identical output)")
    p_cur.set_defaults(func=_cmd_curate)

    p_con = sub.add_parser("construct", help="construct the GraphEx model")
    p_con.add_argument("--curated", required=True)
    p_con.add_argument("--out", required=True)
    p_con.add_argument("--alignment", choices=tuple(ALIGNMENTS),
                       default="lta")
    p_con.add_argument("--builder", choices=BUILDERS, default="fast",
                       help="scalar reference builder or the vectorized "
                            "fast one (identical models); both build in "
                            "this process")
    p_con.set_defaults(func=_cmd_construct)

    p_rec = sub.add_parser("recommend", help="serve one title")
    p_rec.add_argument("--model", required=True)
    p_rec.add_argument("--title", required=True)
    p_rec.add_argument("--leaf", type=int, required=True)
    p_rec.add_argument("-k", type=int, default=10)
    _add_executor_options(p_rec, "leaf groups", "engine", ENGINES)
    p_rec.add_argument("--mmap", action="store_true",
                       help="open the model zero-copy over the "
                            "format-3 artifact file (read-only views, "
                            "no copy); identical output to a copied "
                            "load")
    p_rec.set_defaults(func=_cmd_recommend)

    p_srv = sub.add_parser(
        "serve-nrt",
        help="demo the asyncio NRT front on synthetic event streams")
    p_srv.add_argument("--model", required=True)
    p_srv.add_argument("--streams", type=int, default=3,
                       help="concurrent NRT streams to drive")
    p_srv.add_argument("--events", type=int, default=200,
                       help="events synthesized per stream")
    p_srv.add_argument("--window-size", type=int, default=32)
    p_srv.add_argument("--window-seconds", type=float, default=1.0)
    _add_executor_options(p_srv, "window micro-batch leaf groups")
    p_srv.add_argument("--refresh-after", type=int, default=0,
                       help="hot-swap a freshly loaded model after this "
                            "many events per stream, mid-run (0 = no "
                            "refresh demo)")
    p_srv.add_argument("--seed", type=int, default=7)
    p_srv.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="dump the front's metrics registry snapshot "
                            "(per-stream counters, window latency "
                            "histograms, staleness gauges) as JSON")
    p_srv.set_defaults(func=_cmd_serve_nrt)

    p_eval = sub.add_parser("evaluate", help="run the model bake-off")
    p_eval.add_argument("--profile", choices=_PROFILES, default="tiny")
    p_eval.add_argument("--meta", default=None)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cwk = sub.add_parser(
        "cluster-worker",
        help="run one cluster executor host (dials the coordinator)")
    p_cwk.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="the coordinator's listening address")
    p_cwk.add_argument("--name", default=None,
                       help="registration name (default: worker-<pid>)")
    p_cwk.add_argument("--heartbeat", type=float, default=1.0,
                       help="seconds between liveness heartbeats")
    p_cwk.add_argument("--die-after-assignments", type=int, default=None,
                       help="fault-injection kill switch: hard-exit the "
                            "process when a shard arrives after this "
                            "many completed assignments")
    p_cwk.set_defaults(func=_cmd_cluster_worker)

    p_crn = sub.add_parser(
        "cluster-run",
        help="demo the fault-tolerant cluster runner on subprocess "
             "worker machines, verifying bit-identical output (the "
             "same fleet 'recommend --executor cluster' boots, with "
             "a kill switch and a run report)")
    p_crn.add_argument("--model", required=True,
                       help="serialized model directory (mmap-shared "
                            "across the machines)")
    p_crn.add_argument("--spawn-workers", type=int, default=3,
                       help="worker subprocesses ('machines') to spawn")
    p_crn.add_argument("--kill-after", type=int, default=None,
                       help="arm the first worker's kill switch: it "
                            "hard-exits when a shard arrives after "
                            "this many completed assignments (0 = dies "
                            "on its first shard); the run must still "
                            "verify via dead-host re-planning")
    p_crn.add_argument("--requests", type=int, default=64,
                       help="synthetic requests drawn from the model's "
                            "own labels")
    p_crn.add_argument("-k", type=int, default=10)
    p_crn.add_argument("--rpc-timeout", type=float, default=30.0)
    p_crn.add_argument("--seed", type=int, default=7)
    p_crn.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="dump the merged fleet metrics snapshot "
                            "(coordinator + latest per-worker "
                            "registries) as JSON")
    p_crn.set_defaults(func=_cmd_cluster_run)

    p_met = sub.add_parser(
        "metrics",
        help="read metrics snapshots, merge exactly, render")
    p_met.add_argument("snapshots", nargs="+", metavar="SNAPSHOT.json",
                       help="snapshot files written by --metrics-out "
                            "(or any repro.obs dump_snapshot output)")
    p_met.add_argument("--merge-out", default=None, metavar="PATH",
                       help="also write the merged snapshot as JSON")
    p_met.set_defaults(func=_cmd_metrics)

    p_lnt = sub.add_parser(
        "lint",
        help="run repro-lint, the AST invariant checker, over the "
             "package (exit 1 on any unwaived violation)")
    p_lnt.add_argument("--root", default=None,
                       help="package directory to lint (default: the "
                            "installed repro package)")
    p_lnt.add_argument("--json", default=None, metavar="PATH",
                       help="also write the machine-readable JSON "
                            "report here (the CI artifact)")
    p_lnt.add_argument("--rule", action="append", default=None,
                       metavar="RULE-ID",
                       help="run only this rule (repeatable; see "
                            "--list-rules)")
    p_lnt.add_argument("--list-rules", action="store_true",
                       help="list registered rules and exit")
    p_lnt.add_argument("--quiet", action="store_true",
                       help="suppress the report on success")
    p_lnt.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one pairing the library refuses (resolve_executor) is known
    # from the flags alone: a usage error, raised before the command
    # loads a model or boots a fleet only to tear it down.
    path = getattr(args, "oracle_option", None)
    if path is not None and args.executor in ("process", "cluster") \
            and getattr(args, path) == "reference":
        parser.error(
            f"{args.command}: --{path} reference runs only on --executor "
            f"serial; the scalar path stays single-process as the "
            f"semantics reference")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

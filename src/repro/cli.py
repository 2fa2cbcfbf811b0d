"""Command-line interface for the GraphEx reproduction.

Mirrors a production workflow in six subcommands::

    repro-graphex simulate  --out logs.json [--profile tiny|default]
    repro-graphex curate    --log logs.json --out curated.json [--min-search-count N] [--engine reference|fast]
    repro-graphex construct --curated curated.json --out model_dir/ [--builder reference|fast]
    repro-graphex recommend --model model_dir/ --title "..." --leaf ID [-k N] [--engine reference|fast] [--workers N]
    repro-graphex serve-nrt --model model_dir/ [--streams N] [--events N] [--refresh-after N] [--workers N]
    repro-graphex evaluate  [--profile tiny|default] [--meta CAT_1]
    repro-graphex cluster-worker --connect HOST:PORT [--name W] [--die-after-assignments N]
    repro-graphex cluster-run --model model_dir/ [--workers N] [--kill-after K] [--metrics-out PATH]
    repro-graphex metrics SNAPSHOT.json [SNAPSHOT.json ...] [--merge-out PATH]

``simulate`` writes aggregated keyphrase stats (the only GraphEx training
input) as JSON; ``curate`` persists the curated keyphrases *and* the
curation config (so ``construct`` round-trips the exact configuration);
``construct`` builds in this process and persists the model with
:func:`repro.core.serialization.save_model` (the zero-copy
page-aligned artifact); ``recommend`` maps it read-only and serves;
``serve-nrt`` demos the asyncio multi-stream NRT front (``--refresh-after``
adds a mid-run zero-downtime model hot-swap, handed off by artifact
*path* so the model remaps instead of reloading); serving runs the fast
engine only, so it has no ``--engine`` — the scalar oracles are
selected on ``curate``, ``construct`` and ``recommend``.  Where inference runs is
one value, ``--workers N``: ``0`` (the default) is this process, and
``N >= 1`` a ``with`` block over ``ClusterExecutor.local(N)``, a
localhost fleet of ``N`` worker subprocesses.
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
import re
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

from .core.alignment import ALIGNMENTS
from .core.batch import ENGINES, batch_recommend
from .core.curation import CURATION_ENGINES, CurationConfig, curate
from .core.execution import ClusterExecutor
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


#: What each field of a ``simulate --out`` stats record must hold: its
#: type and, for an int, the range numpy's int64 columns hold.
_INT64, _COUNTS = range(-2**63, 2**63), range(2**63)
_STAT_FIELDS = {"text": (str, None), "leaf_id": (int, _INT64),
                "search_count": (int, _COUNTS), "recall_count": (int, _COUNTS)}
#: A ``curate --out`` leaf's columns, in ``CuratedLeaf`` order.
_COLUMNS = ("texts", "search_counts", "recall_counts")


def _require(ok: bool, kind: str, path: str, problem: str) -> None:
    """Refuse a malformed input file, by name, unless ``ok``."""
    if not ok:
        raise ValueError(f"malformed {kind} file {path}: {problem}")


def _load_stats(path: str) -> List[KeyphraseStat]:
    """The ``simulate --out`` stats.  A ``ValueError`` naming the file
    (and the record and field) refuses any other shape: an object whose
    ``stats`` is a list of objects, each with a ``str`` text, an int64
    leaf id and counts in ``[0, 2**63)`` (ints, a ``bool`` neither)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    _require(type(payload) is dict, "stats", path,
             "the top level is not an object")
    records = payload.get("stats")
    _require(type(records) is list, "stats", path, "stats is not a list")
    for index, record in enumerate(records):
        _require(type(record) is dict, "stats", path,
                 f"record {index} is not an object")
        for field, (kind, span) in _STAT_FIELDS.items():
            value = record.get(field)
            if field not in record:
                problem = f"has no {field}"
            elif type(value) is not kind:
                problem = f"has {field} {value!r}, not {kind.__name__}"
            elif span is not None and value not in span:
                problem = (f"has {field} {value!r}, outside "
                           f"[{span.start}, {span.stop})")
            else:
                continue
            raise ValueError(f"malformed stats file {path}: record "
                             f"{index} {problem}")
    return [KeyphraseStat(**{field: record[field] for field in _STAT_FIELDS})
            for record in records]


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
    silently reset the config to defaults).  A ``ValueError`` naming
    the file (and the leaf) refuses any other shape: the top level and
    ``leaves`` are objects, ``effective_threshold`` an ``int``,
    ``config`` an object of :class:`CurationConfig`'s int fields, a
    leaf key an int64 as ``str(int)`` writes it, and a leaf an object
    of three lists of one length — ``str`` texts, ``int`` counts (a
    ``bool`` neither) in ``[0, 2**63)``."""
    from .core.curation import CuratedKeyphrases, CuratedLeaf

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    _require(type(payload) is dict, "curated", path,
             "the top level is not an object")
    _require(type(payload.get("leaves")) is dict, "curated", path,
             "leaves is not an object")
    _require(type(payload.get("effective_threshold")) is int, "curated",
             path, "effective_threshold is not an int")
    # Older curated files predate the persisted config block; they fall
    # back to defaults, as before.
    config = payload.get("config", {})
    fields = {field.name for field in dataclasses.fields(CurationConfig)}
    _require(type(config) is dict and set(config) <= fields
             and all(type(value) is int for value in config.values()),
             "curated", path, "config is not an object of CurationConfig's "
             f"int fields {sorted(fields)}")
    leaves = {}
    for key, data in payload["leaves"].items():
        # As str(int) writes one, in at most 19 digits (int() stays cheap).
        _require(re.fullmatch("0|-?[1-9][0-9]{0,18}", key) is not None
                 and int(key) in _INT64, "curated", path,
                 f"leaf key {key!r} is not an int64")
        leaf_id = int(key)
        columns = [data.get(name) for name in _COLUMNS] \
            if type(data) is dict else [None]
        _require(all(type(column) is list for column in columns), "curated",
                 path, f"leaf {key} is not an object of lists {_COLUMNS}")
        texts, search, recall = columns
        problem = None
        if not len(texts) == len(search) == len(recall):
            problem = (f"has {len(texts)} texts, {len(search)} search "
                       f"counts and {len(recall)} recall counts")
        elif any(type(text) is not str for text in texts):
            problem = "has a text that is not a string"
        elif any(type(n) is not int for n in [*search, *recall]):
            problem = "has a count that is not an integer"
        elif any(n not in _COUNTS for n in [*search, *recall]):
            problem = f"has a count outside [0, {_COUNTS.stop})"
        _require(problem is None, "curated", path, f"leaf {key} {problem}")
        leaves[leaf_id] = CuratedLeaf(leaf_id, *columns)
    return CuratedKeyphrases(
        leaves=leaves, effective_threshold=payload["effective_threshold"],
        config=CurationConfig(**config))


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
    model = load_model(args.model)
    with (ClusterExecutor.local(args.workers) if args.workers
          else nullcontext()) as executor:
        recs = batch_recommend(model, [(0, args.title, args.leaf)],
                               k=args.k, engine=args.engine,
                               executor=executor)[0]
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

    with (ClusterExecutor.local(args.workers) if args.workers
          else nullcontext()) as executor:
        front = AsyncNRTFront(
            model, window_size=args.window_size,
            window_seconds=args.window_seconds, executor=executor)
        for name in streams:
            front.add_stream(name)
        elapsed = asyncio.run(drive())
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
    if not host or not port.isdigit() or not 0 < int(port) < 65536:
        print(f"--connect must be HOST:PORT with a port in 1-65535, "
              f"got {args.connect!r}", file=sys.stderr)
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

    Spawns ``--workers`` real worker *subprocesses* (each its own
    "machine"), runs a batch across them, verifies the merged output
    element-wise against the in-process fast path, and prints the run
    report.  ``--kill-after K`` arms the first worker's kill switch so
    it hard-exits mid-plan — the run must still verify, through
    dead-host re-planning.
    """
    import asyncio

    from .cluster import (ClusterCoordinator, RetryPolicy, reap_workers,
                          spawn_worker)

    model = load_model(args.model)
    requests = _synthesize_requests(model, args.requests, args.seed)
    expected = batch_recommend(model, requests, k=args.k)

    async def drive() -> int:
        procs = []
        async with ClusterCoordinator(
                rpc_timeout=args.rpc_timeout,
                retry=RetryPolicy(seed=args.seed),
                heartbeat_timeout=4.0) as coordinator:
            try:
                for index in range(args.workers):
                    flags = ["--heartbeat", "0.5"]
                    if args.kill_after is not None and index == 0:
                        flags += ["--die-after-assignments",
                                  str(args.kill_after)]
                    procs.append(spawn_worker(
                        f"{coordinator.host}:{coordinator.port}",
                        f"machine-{index}", *flags))
                await coordinator.wait_for_workers(args.workers,
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
                  f"{args.workers} worker machines in "
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


def _fleet_size(text: str) -> int:
    """A ``--workers`` value: a count of worker processes, not below 0."""
    workers = int(text)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {workers}")
    return workers


def _window_bound(text: str) -> float:
    """A ``--window-seconds`` value: the front's wall-clock bound, > 0."""
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return float(text)


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
    p_rec.add_argument("--engine", choices=ENGINES, default="fast",
                       help="scalar reference engine or the vectorized "
                            "fast one (identical output)")
    p_rec.add_argument("--workers", type=_fleet_size, default=0,
                       help="0 (default) serves in this process, the "
                            "oracle and on one box the fastest; N boots "
                            "a localhost fleet of N worker processes — "
                            "identical output; only 0 pairs with "
                            "--engine reference")
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
    p_srv.add_argument("--window-seconds", type=_window_bound, default=1.0)
    p_srv.add_argument("--workers", type=_fleet_size, default=0,
                       help="0 (default) flushes windows in this "
                            "process; N boots a localhost fleet of N "
                            "worker processes to serve them on")
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
             "same fleet 'recommend --workers N' boots, with "
             "a kill switch and a run report)")
    p_crn.add_argument("--model", required=True,
                       help="model directory, mapped by each machine")
    p_crn.add_argument("--workers", type=_fleet_size, default=3,
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

    # No options of its own: repro-lint's parser reads what follows.
    sub.add_parser(
        "lint", add_help=False,
        help="run repro-lint, the AST invariant checker, over the "
             "package (exit 1 on any violation; see "
             "'lint --help')")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        # One parser for one tool: ``python -m repro.analysis``'s own.
        from .analysis.__main__ import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    # The one pairing the library refuses (resolve_executor) is known
    # from the flags alone: a usage error, raised before the command
    # loads a model or boots a fleet only to tear it down.
    if getattr(args, "workers", 0) \
            and getattr(args, "engine", None) == "reference":
        parser.error(f"{args.command}: --engine reference runs only "
                     f"in process (--workers 0); the scalar path stays "
                     f"single-process as the semantics reference")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

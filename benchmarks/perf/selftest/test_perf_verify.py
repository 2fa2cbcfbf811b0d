"""Wrong outputs must be counted as failed ops, never timed as good."""

import dataclasses
import itertools

import pytest

import verify
import world
import workloads
from measure import Sampler


@pytest.fixture()
def batch(tmp_path):
    workload = workloads.BatchCatalog(3, world.SMOKE, tmp_path)
    workload.prepare()
    yield workload
    workload.teardown()


def _tamper(result):
    """Nudge one score of one item; everything else stays."""
    item_id = next(item for item, recs in result.items() if recs)
    recs = list(result[item_id])
    recs[0] = recs[0]._replace(score=recs[0].score + 1e-9)
    return {**result, item_id: recs}


def test_a_tampered_op_is_counted_failed_and_contributes_no_latency(batch):
    honest_op = batch.op
    batch.op = lambda phase, index: (
        _tamper(honest_op(phase, index)) if index == 2
        else honest_op(phase, index))
    log = workloads.RunLog()
    sampler = Sampler()
    workloads.cold_starts(batch, sampler, log)
    # The region's own clock ticks 0.1 s per look, so it ends by
    # sample count, not by how fast this box happens to be.
    ticks = itertools.count()
    workloads.run_phases(batch, 1.0, sampler, log, min_scale=0.2,
                         clock=lambda: 0.1 * next(ticks))
    n_ops = log.attempted - batch.setup_reps
    assert n_ops == 11           # ten good samples and the bad one
    assert log.failed == 1
    assert len(log.ops) == len(log.latencies) == n_ops - 1
    assert batch.finish() == 0


def test_reference_engine_check_catches_a_tampered_batch(batch):
    batch.reset()
    result = batch.cold_start()
    assert verify.matches_reference(batch.model, batch.chunks[0], result)
    assert not verify.matches_reference(batch.model, batch.chunks[0],
                                        _tamper(result))
    for digest in (verify.result_digest, verify.portable_digest):
        assert digest(result) == digest(dict(result))
        assert digest(result) != digest(_tamper(result))


def test_model_comparison_is_bit_exact(tmp_path):
    from repro.core.model import GraphExModel

    curated = world.serving_world(5, world.SMOKE).curated_a
    built = GraphExModel.construct(curated, build_pooled=True)
    assert verify.matches_reference_builder(curated, built)
    leaf = curated.leaves[world.FIRST_LEAF]
    leaf.search_counts[0] += 1
    assert not verify.models_identical(
        built, GraphExModel.construct(curated, build_pooled=True))


def test_nrt_final_check_catches_a_wrong_served_item(tmp_path):
    everything = dataclasses.replace(world.SMOKE, nrt_verify_items=10**6)
    workload = workloads.NrtStreams(3, everything, tmp_path)
    workload.prepare()
    log = workloads.RunLog()
    sampler = Sampler()
    try:
        workloads.cold_starts(workload, sampler, log)
        workloads.run_phases(workload, 0.3, sampler, log, min_scale=0.05)
        assert log.failed == 0 and log.latencies
        # Serve one live item something the engine never produced,
        # through the store's public staging API.
        name = workload.streams[0]
        store, journal = workload.stores[name], workload.logs[name]
        row = next(row for row, gone in zip(
            reversed(journal.universe_rows), reversed(journal.deleted))
            if not gone)
        version = store.create_version()
        store.copy_from_serving(version)
        store.put(version, workload.universes[name][row][0], ["wrong"])
        store.promote(version)
        assert workload.finish() == 1
    finally:
        workload.teardown()

"""Table III — RP / HP / RRR / RHR for all six models on all categories.

Paper (CAT 1): GraphEx RP 56.4% / HP 26.5%; every other model's RRR and
RHR < 1 (RE comes closest at RRR 0.95).  Reproduction targets the ordinal
shape; the honest divergence is that Graphite is stronger in simulation,
because simulated clicks are oracle-consistent.
"""

from __future__ import annotations

from repro.eval.metrics import relative_head_ratio, relative_relevant_ratio
from repro.eval.reporting import render_table

from _helpers import METAS, MODEL_ORDER, emit


def _compute(experiment):
    rows = []
    for meta in METAS:
        judged = experiment.judged(meta)
        reference = judged["GraphEx"]
        for name in MODEL_ORDER:
            j = judged[name]
            rows.append([
                meta, name, j.rp, j.hp,
                relative_relevant_ratio(j, reference),
                relative_head_ratio(j, reference),
            ])
    return rows


def test_table3_model_comparison(experiment, results_dir, benchmark):
    rows = benchmark.pedantic(_compute, args=(experiment,),
                              rounds=1, iterations=1)
    table = render_table(
        ["category", "model", "RP", "HP", "RRR (vs GraphEx)",
         "RHR (vs GraphEx)"],
        rows,
        title="Table III — relevance/head metrics "
              "(RRR/RHR computed w.r.t. GraphEx, as in the paper)")
    emit(results_dir, "table3_model_comparison", table)

    by_key = {(r[0], r[1]): r for r in rows}
    for meta in METAS:
        # GraphEx's self-ratios are 1 by definition.
        assert by_key[(meta, "GraphEx")][4] == 1.0
        # RE has the highest RP (few, click-true predictions) but its
        # RRR stays below 1: it cannot out-produce GraphEx in volume.
        assert by_key[(meta, "RE")][2] \
            == max(by_key[(meta, m)][2] for m in ("RE", "SL-query",
                                                  "SL-emb", "fastText"))
        assert by_key[(meta, "RE")][4] < 1.0
        # fastText has the lowest RP (tail-flooding, paper Section I-A1).
        assert by_key[(meta, "fastText")][2] \
            == min(by_key[(meta, m)][2] for m in MODEL_ORDER)
    # On the flagship large category, GraphEx out-delivers the
    # similar-listing and lookup models on head keyphrases (RHR < 1).
    for other in ("RE", "SL-query", "SL-emb", "fastText"):
        assert by_key[("CAT_1", other)][5] < 1.0

"""Figure 2 — distribution of click data: queries-per-item histogram.

Paper: ~96% of items have no clicks at all, and ~90% of clicked items are
associated with exactly one query.  The simulation reproduces the *shape*:
a heavy spike at one query per item with a fast-decaying tail, and a large
fraction of items with no clicks — the sparsity that makes click-trained
models under-recommend.
"""

from __future__ import annotations

from repro.eval.reporting import render_bar_chart, render_table
from repro.search import click_sparsity

from _helpers import emit


def _compute(experiment):
    log = experiment.train_log
    n_items = len(experiment.dataset.catalog.items)
    histogram = log.queries_per_item_histogram()
    sparsity = click_sparsity(log, n_items)
    return histogram, sparsity


def test_figure2_click_sparsity(experiment, results_dir, benchmark):
    histogram, sparsity = benchmark.pedantic(
        _compute, args=(experiment,), rounds=1, iterations=1)

    buckets = sorted(histogram)
    shown = [b for b in buckets if b <= 10]
    labels = [f"{b} queries" for b in shown] + ["> 10 queries"]
    values = [float(histogram[b]) for b in shown] + [
        float(sum(histogram[b] for b in buckets if b > 10))]
    chart = render_bar_chart(
        labels, values,
        title="Figure 2 — # items by distinct clicked queries "
              "(training window)")
    summary = render_table(
        ["statistic", "value", "paper"],
        [["frac. items without clicks",
          sparsity["frac_items_without_clicks"], "~0.96"],
         ["frac. clicked items with a single query",
          sparsity["frac_clicked_items_single_query"], "~0.90"]],
        title="Click sparsity summary")
    emit(results_dir, "figure2_click_sparsity", chart + "\n\n" + summary)

    # Shape assertions: the one-query bucket dominates and the histogram
    # decays; a meaningful share of items has no clicks at all.  The
    # simulation is denser than eBay (fewer items per search), so the
    # absolute fractions undershoot the paper's 0.96/0.90 — a known
    # divergence.
    assert histogram.get(1, 0) == max(histogram.values())
    assert sparsity["frac_items_without_clicks"] > 0.2
    assert sparsity["frac_clicked_items_single_query"] > 0.1

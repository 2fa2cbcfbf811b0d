"""Golden tests pinned to the paper's worked examples.

If any of these fail, the implementation has drifted from the published
algorithm, whatever the rest of the suite says.
"""

from __future__ import annotations

import pytest

from repro.core.alignment import jac, lta, wmr
from repro.core.inference import enumerate_candidates
from tests.conftest import FIG3_KEYPHRASES, FIG3_LEAF_ID, FIG3_TITLE


class TestFigure3Graph:
    """Construction phase on the Figure 3 illustration."""

    def test_left_vertices_are_the_unique_words(self, fig3_model):
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        expected_words = {"audeze", "maxwell", "headphones", "gaming",
                          "xbox", "wireless", "bluetooth"}
        assert set(graph.word_vocab) == expected_words

    def test_right_vertices_are_the_keyphrases(self, fig3_model):
        """Every keyphrase is a right vertex, numbered by Search Count
        (the plane's static order, so the label id breaks score ties)."""
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        assert graph.label_texts == [
            "gaming headphones xbox", "bluetooth wireless headphones",
            "wireless headphones xbox", "audeze maxwell",
            "audeze headphones"]
        assert sorted(graph.label_texts) \
            == sorted(text for text, _s, _r in FIG3_KEYPHRASES)

    def test_edges_connect_words_to_containing_keyphrases(self, fig3_model):
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        word_id = graph.word_vocab.get("headphones")
        neighbor_texts = {graph.label_texts[label]
                          for label in graph.graph.neighbors(word_id)}
        assert neighbor_texts == {
            "audeze headphones", "gaming headphones xbox",
            "wireless headphones xbox", "bluetooth wireless headphones"}

    def test_edge_count_matches_token_occurrences(self, fig3_model):
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        expected = sum(len(set(text.split()))
                       for text, _s, _r in FIG3_KEYPHRASES)
        assert graph.graph.n_edges == expected


class TestSectionIIIE1Enumeration:
    """The worked duplication-count example (counts 2,2,3,2,1)."""

    def test_duplication_counts(self, fig3_model):
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        labels, counts, _n = enumerate_candidates(
            graph, FIG3_TITLE.split())
        by_text = {graph.label_texts[l]: c
                   for l, c in zip(labels, counts)}
        assert by_text == {
            "audeze maxwell": 2,
            "audeze headphones": 2,
            "gaming headphones xbox": 3,
            "wireless headphones xbox": 2,
            "bluetooth wireless headphones": 1,
        }

    def test_for_token_is_ignored(self, fig3_model):
        """Title tokens absent from every keyphrase are ignored (III-A)."""
        graph = fig3_model.leaf_graph(FIG3_LEAF_ID)
        with_for = enumerate_candidates(graph, FIG3_TITLE.split())
        without_for = enumerate_candidates(
            graph, FIG3_TITLE.replace(" for ", " ").split())
        assert list(with_for[0]) == list(without_for[0])
        assert list(with_for[1]) == list(without_for[1])


class TestSectionIIIE2Ranking:
    """LTA values and ordering from the Ranking-step prose."""

    def test_lta_of_the_two_compared_keyphrases(self):
        # "audeze maxwell" (c=2, |l|=2) -> 2/1; "wireless headphones
        # xbox" (c=2, |l|=3) -> 2/2.
        assert lta(2, 2) == pytest.approx(2.0)
        assert lta(2, 3) == pytest.approx(1.0)

    def test_full_ranking_on_fig3(self, fig3_model):
        recs = fig3_model.recommend(FIG3_TITLE, FIG3_LEAF_ID, k=5)
        texts = [r.text for r in recs]
        # gaming headphones xbox: LTA 3.0 — top.
        assert texts[0] == "gaming headphones xbox"
        # audeze maxwell and audeze headphones tie at LTA 2.0; the tie is
        # broken by higher search count (500 > 400).
        assert texts[1] == "audeze maxwell"
        assert texts[2] == "audeze headphones"
        # wireless headphones xbox: LTA 1.0.
        assert texts[3] == "wireless headphones xbox"
        # bluetooth wireless headphones: LTA 1/3 — last.
        assert texts[4] == "bluetooth wireless headphones"

    def test_scores_match_lta_definition(self, fig3_model):
        recs = fig3_model.recommend(FIG3_TITLE, FIG3_LEAF_ID, k=5)
        by_text = {r.text: r for r in recs}
        assert by_text["gaming headphones xbox"].score == pytest.approx(3.0)
        assert by_text["audeze maxwell"].score == pytest.approx(2.0)
        assert by_text["bluetooth wireless headphones"].score \
            == pytest.approx(1.0 / 3.0)


class TestSectionIVF1AblationExample:
    """The title-with-10-tokens example comparing LTA and JAC."""

    def test_lta_prefers_the_shorter_complete_keyphrase(self):
        # Title A-J (10 tokens); "a b c" fully matched (c=3, |l|=3) vs
        # "a b c d e" partially matched (c=3, |l|=5).
        assert lta(3, 3) > lta(3, 5)
        assert lta(3, 3) == pytest.approx(3.0)
        assert lta(3, 5) == pytest.approx(1.0)

    def test_jac_prefers_the_longer_keyphrase(self):
        # JAC: 3/10 < 5/10 per the paper (c=5 when all five tokens match
        # ... the paper's example uses c=3 vs c=5 in the numerators:
        # 3/(3+10-3)=0.3 and 5/(5+10-5)=0.5).
        assert jac(3, 3, 10) < jac(5, 5, 10)

    def test_wmr_ties_complete_matches(self):
        # WMR gives 1.0 to every fully-covered keyphrase regardless of
        # length — it cannot express the risk penalty LTA encodes.
        assert wmr(3, 3) == pytest.approx(wmr(5, 5))


class TestTableIExpectations:
    """Qualitative capability checks that Table I asserts."""

    def test_graphex_label_space_is_closed(self, fig3_model):
        """100% in-vocabulary targeting: GraphEx can only emit curated
        keyphrases (unlike OOV generators)."""
        recs = fig3_model.recommend(
            "audeze maxwell gaming headphones for xbox", FIG3_LEAF_ID, k=10)
        universe = {text for text, _s, _r in FIG3_KEYPHRASES}
        assert all(r.text in universe for r in recs)

    def test_graphex_needs_no_click_associations(self, fig3_curated):
        """Construction consumes only (keyphrase, S, R) tuples — no items."""
        leaf = fig3_curated.leaves[FIG3_LEAF_ID]
        assert len(leaf.texts) == len(leaf.search_counts) \
            == len(leaf.recall_counts)

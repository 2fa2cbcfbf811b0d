"""Unit and property tests for repro.core.tokenize."""

from __future__ import annotations

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tokenize import (
    _PUNCT_EDGES,
    DEFAULT_TOKENIZER,
    STEMMING_TOKENIZER,
    SpaceTokenizer,
    light_stem,
    normalize_token,
)


def regex_only_normalize(token: str) -> str:
    """``normalize_token`` as it was before its ``isalnum`` fast path:
    the regex on every token.  The reference the fast path must equal."""
    return _PUNCT_EDGES.sub("", token.lower())


class TestNormalizeToken:
    def test_lowercases(self):
        assert normalize_token("Audeze") == "audeze"

    def test_strips_edge_punctuation(self):
        assert normalize_token("(new)") == "new"
        assert normalize_token("sale!") == "sale"
        assert normalize_token("--lot--") == "lot"

    def test_preserves_interior_punctuation(self):
        assert normalize_token("wi-fi") == "wi-fi"
        assert normalize_token("1:64") == "1:64"

    def test_preserves_alphanumerics(self):
        assert normalize_token("16GB") == "16gb"

    def test_pure_punctuation_becomes_empty(self):
        assert normalize_token("***") == ""

    @given(st.text(alphabet=string.ascii_letters + string.digits,
                   min_size=1, max_size=12))
    def test_idempotent(self, token):
        once = normalize_token(token)
        assert normalize_token(once) == once


class TestNormalizeFastPath:
    """``isalnum`` tokens skip the edge regex; the function is the same
    one, on every string."""

    def test_every_code_point_at_every_position(self):
        """Exhaustive, not sampled: each code point alone, at either
        edge of a word, inside one, and doubled (``lower()`` may map it
        to several characters, which the fast path sees lowered)."""
        shapes = ("{0}", "{0}a", "a{0}", "a{0}a", "{0}{0}")
        for block in range(0, 0x110000, 0x1000):
            chars = list(map(chr, range(block, block + 0x1000)))
            tokens = [shape.format(char) for char in chars
                      for shape in shapes]
            got = list(map(normalize_token, tokens))
            if got != list(map(regex_only_normalize, tokens)):
                pytest.fail("differs on " + ", ".join(
                    ascii(token) for token, text in zip(tokens, got)
                    if text != regex_only_normalize(token)))

    @given(st.text(max_size=12))
    def test_any_text_property(self, token):
        assert normalize_token(token) == regex_only_normalize(token)

    @pytest.mark.parametrize("token", [
        "", "_", "__a__", "a_b", "İstanbul", "ǅ", "ß", "Ⅷ", "½", "٣",
        "x²", "a\u0301", "\u0301a", "日本語", "wi-fi!", "'n'", "16GB"])
    def test_directed(self, token):
        assert normalize_token(token) == regex_only_normalize(token)


class TestLightStem:
    def test_plural_s(self):
        assert light_stem("headphones") == "headphone"

    def test_ies_to_y(self):
        assert light_stem("batteries") == "battery"

    def test_sses(self):
        assert light_stem("glasses") == "glass"

    def test_short_tokens_untouched(self):
        assert light_stem("bus") == "bus"
        assert light_stem("s") == "s"

    def test_us_is_preserved(self):
        assert light_stem("bonus") == "bonus"

    def test_ss_is_preserved(self):
        assert light_stem("wireless") == "wireless"

    def test_is_is_preserved(self):
        assert light_stem("tennis") == "tennis"

    def test_model_codes_untouched(self):
        assert light_stem("mx450") == "mx450"

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_stem_never_longer(self, token):
        assert len(light_stem(token)) <= len(token)

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_stem_idempotent_for_plain_plurals(self, token):
        # Stemming a stemmed plural-s form is stable unless the first pass
        # exposed another strippable suffix; plain -s plurals are stable.
        word = token + "es" if not token.endswith("s") else token
        once = light_stem(word)
        assert light_stem(once) in {once, light_stem(light_stem(once))}


class TestSpaceTokenizer:
    def test_basic_split(self):
        assert DEFAULT_TOKENIZER("audeze maxwell headphones") == [
            "audeze", "maxwell", "headphones"]

    def test_collapses_whitespace(self):
        assert DEFAULT_TOKENIZER("  a   b\tc ") == ["a", "b", "c"]

    def test_normalizes_case_and_punctuation(self):
        assert DEFAULT_TOKENIZER("NEW! Audeze (Maxwell)") == [
            "new", "audeze", "maxwell"]

    def test_empty_string(self):
        assert DEFAULT_TOKENIZER("") == []

    def test_whitespace_only(self):
        assert DEFAULT_TOKENIZER("   \t ") == []

    def test_stemming_variant(self):
        assert STEMMING_TOKENIZER("headphones cables") == [
            "headphone", "cable"]

    def test_stopword_dropping(self):
        tok = SpaceTokenizer(drop_stopwords=("for", "with"))
        assert tok("headphones for xbox with mic") == [
            "headphones", "xbox", "mic"]

    def test_stems_property(self):
        assert SpaceTokenizer(stem=True).stems is True
        assert SpaceTokenizer().stems is False

    def test_duplicates_preserved(self):
        """The tokenizer itself must not dedupe — set semantics belong to
        the enumeration step."""
        assert DEFAULT_TOKENIZER("open open box") == ["open", "open", "box"]

    @given(st.lists(st.text(alphabet=string.ascii_lowercase,
                            min_size=1, max_size=8), max_size=8))
    def test_roundtrip_on_clean_tokens(self, tokens):
        assert DEFAULT_TOKENIZER(" ".join(tokens)) == tokens

    @given(st.text(max_size=60))
    def test_never_emits_empty_tokens(self, text):
        assert all(DEFAULT_TOKENIZER(text))

    @given(st.text(max_size=60))
    def test_consistent_between_calls(self, text):
        assert DEFAULT_TOKENIZER(text) == DEFAULT_TOKENIZER(text)

"""Unit and property tests for repro.core.tokenize."""

from __future__ import annotations

import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tokenize import (
    DEFAULT_TOKENIZER,
    STEMMING_TOKENIZER,
    SpaceTokenizer,
    light_stem,
    normalize_token,
)


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


def is_word_char(char: str) -> bool:
    """A word character as the docs define ``\\w`` on ``str``: what
    ``str.isalnum`` accepts, and the underscore."""
    return char.isalnum() or char == "_"


def strip_by_character(token: str) -> str:
    """``normalize_token`` spelled one character at a time, with no
    regex: lower the token, then drop non-word characters from either
    edge until a word character (or nothing) is left."""
    token = token.lower()
    start, end = 0, len(token)
    while start < end and not is_word_char(token[start]):
        start += 1
    while end > start and not is_word_char(token[end - 1]):
        end -= 1
    return token[start:end]


#: Tokens and what they normalize to: underscores (word characters),
#: a capital that lowers to two code points, titlecase, sharp s,
#: numerals and superscripts (alphanumeric), combining marks at either
#: edge (stripped), CJK, and edge punctuation.
DIRECTED = [
    ("", ""), ("_", "_"), ("__a__", "__a__"), ("a_b", "a_b"),
    ("\u0130stanbul", "i\u0307stanbul"), ("\u01c5", "\u01c6"),
    ("\xdf", "\xdf"), ("\u2167", "\u2177"), ("\xbd", "\xbd"),
    ("\u0663", "\u0663"), ("x\xb2", "x\xb2"), ("a\u0301", "a"),
    ("\u0301a", "a"), ("\u65e5\u672c\u8a9e", "\u65e5\u672c\u8a9e"),
    ("wi-fi!", "wi-fi"), ("'n'", "n"), ("16GB", "16gb")]


class TestNormalizeByCharacter:
    """The edge regex strips exactly the characters a per-character
    scan with ``str`` predicates would, on every string."""

    def test_every_code_point_at_every_position(self):
        """Exhaustive, not sampled: each code point alone, at either
        edge of a word, inside one, and doubled (``lower()`` may map it
        to several characters, which the strip sees lowered)."""
        shapes = ("{0}", "{0}a", "a{0}", "a{0}a", "{0}{0}")
        for block in range(0, 0x110000, 0x1000):
            chars = list(map(chr, range(block, block + 0x1000)))
            tokens = [shape.format(char) for char in chars
                      for shape in shapes]
            got = list(map(normalize_token, tokens))
            want = list(map(strip_by_character, tokens))
            if got != want:
                pytest.fail("differs on " + ", ".join(
                    ascii(token) for token, text, ref
                    in zip(tokens, got, want) if text != ref))

    @given(st.text(max_size=12))
    def test_any_text_property(self, token):
        assert normalize_token(token) == strip_by_character(token)

    @pytest.mark.parametrize("token, normalized", DIRECTED,
                             ids=[token for token, _ in DIRECTED])
    def test_directed(self, token, normalized):
        assert normalize_token(token) == normalized
        assert strip_by_character(token) == normalized


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


#: Every code point ``str.split()`` splits on (29 of them).
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

#: Tokenizers with each optional step: stopwords that meet unstemmed
#: plurals ("cables" drops, "cable" stays) and lowered Greek / Turkish.
STOPWORDS = ("for", "cables", "\u03b1\u03c2", "i\u0307")
TOKENIZERS = {
    "plain": SpaceTokenizer(),
    "stemming": SpaceTokenizer(stem=True),
    "stopwords": SpaceTokenizer(drop_stopwords=STOPWORDS),
    "stemming_stopwords": SpaceTokenizer(stem=True,
                                         drop_stopwords=STOPWORDS),
}


def old_process(tokenizer: SpaceTokenizer, raw: str):
    """The per-raw-token pipeline ``__call__`` once mapped over
    ``text.split()``: normalize, drop empties and stopwords, stem."""
    token = normalize_token(raw)
    if not token or token in tokenizer.stopwords:
        return None
    return light_stem(token) if tokenizer.stems else token


def oracle(tokenizer: SpaceTokenizer, text: str):
    """The tokenizer as it was: one ``old_process`` per raw token."""
    return [token for token in (old_process(tokenizer, raw)
                                for raw in text.split())
            if token is not None]


#: Characters whose lowercase is special (final and medial sigma, a
#: dotted capital I that lowers to two code points, combining marks)
#: or that normalization strips, plus words the tokenizers drop.
SPECIALS = ["\u03a3", "\u03c3", "\u03c2", "\u0391", "\u0130", "\u0301",
            "\u0307", "\u0345", "A", "a", "s", "-", "!", "_", "(", "2"]
WORDS = ["for", "FOR", "Cables", "cables!", "cable", "\u0391\u03a3",
         "\u0130", "(new)", "***"]
pieces = st.one_of(st.text(max_size=6), st.sampled_from(WORDS),
                   st.text(alphabet=st.sampled_from(SPECIALS), max_size=6))
texts = st.one_of(
    st.text(),
    st.lists(st.tuples(pieces, st.sampled_from(WHITESPACE)), max_size=8)
    .map(lambda parts: "".join(piece + space for piece, space in parts)))


class TestWholeTitleTokenizer:
    """``__call__`` lowers a whole title and matches its tokens at C
    level; it must make exactly the tokens the per-raw-token pipeline
    made (the engine and the reference both call it, so only this
    oracle would see it drift)."""

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    @given(text=texts)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_token_pipeline(self, name, text):
        tokenizer = TOKENIZERS[name]
        assert tokenizer(text) == oracle(tokenizer, text)
        assert [tokenizer.process(raw) for raw in text.split()] \
            == [old_process(tokenizer, raw) for raw in text.split()]

    def test_every_code_point_lowers_as_the_split_assumes(self):
        """Exhaustive: a code point's lowercase is whitespace exactly
        where the code point is (lowering neither makes nor removes a
        split), and lowering is idempotent.  The regex's ``\\s`` is
        ``str.isspace`` and no word character is whitespace, so its
        matches are split chunks with their edges stripped."""
        space, word = re.compile(r"\s").match, re.compile(r"\w").match
        for char in map(chr, range(sys.maxunicode + 1)):
            lowered = char.lower()
            if [c.isspace() for c in lowered] \
                    != [char.isspace()] * len(lowered) \
                    or lowered.lower() != lowered:
                pytest.fail(f"{char!a} lowers to {lowered!a}")
            if bool(space(char)) != char.isspace() \
                    or (word(char) and char.isspace()):
                pytest.fail(f"{char!a}: regex and str.isspace disagree")

    @pytest.mark.parametrize("space", WHITESPACE, ids=ascii)
    def test_final_sigma_sees_no_further_than_whitespace(self, space):
        """A capital sigma lowers to final ``ς`` only at a word's end;
        whitespace must end the word on either side of it, so the
        whole title lowers as its chunks do."""
        assert len(WHITESPACE) == 29
        for text, tokens in (("\u0391\u03a3" + space + "\u0392",
                              ["\u03b1\u03c2", "\u03b2"]),
                             ("\u0391" + space + "\u03a3",
                              ["\u03b1", "\u03c3"])):
            for tokenizer in TOKENIZERS.values():
                assert tokenizer(text) == oracle(tokenizer, text)
            assert DEFAULT_TOKENIZER(text) == tokens

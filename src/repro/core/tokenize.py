"""Tokenization for titles and keyphrases.

The paper (Section III-C, footnote 3) allows any tokenization scheme as
long as string comparison is well-defined and consistent; the default is
space-delimited.  We provide that default plus normalization and an
optional light stemmer — the paper mentions a proprietary stemming
function used "to increase the reach of token matches" (Section IV-F1).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: A tokenizer maps a raw string to a list of tokens.
Tokenizer = Callable[[str], List[str]]

_PUNCT_EDGES = re.compile(r"^[^\w]+|[^\w]+$")

#: One normalized token of a lowered string: a whitespace-delimited
#: chunk from its first to its last word character.
_WORD = re.compile(r"\w(?:\S*\w)?")


def normalize_token(token: str) -> str:
    """Lowercase a token and strip punctuation from its edges.

    Interior punctuation ("16gb", "1:64", "wi-fi") is preserved, matching
    how marketplace search treats alphanumeric model codes.

    Nothing in ``src/`` calls it: :class:`SpaceTokenizer` tokenizes a
    whole title in one regex pass.  It is the per-token specification
    that pass must equal, each chunk of ``text.split()`` normalized on
    its own, as ``tests/test_tokenize.py`` pins.
    """
    return _PUNCT_EDGES.sub("", token.lower())


def light_stem(token: str) -> str:
    """Conservative suffix-stripping stemmer.

    Only plural suffixes are removed, so "headphones" and "headphone"
    compare equal while short tokens and model codes are left intact.
    """
    if len(token) <= 3:
        return token
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ss") or token.endswith("us") or token.endswith("is"):
        return token
    if token.endswith("s"):
        return token[:-1]
    return token


class SpaceTokenizer:
    """Space-delimited tokenizer with normalization and optional stemming.

    Args:
        stem: Apply :func:`light_stem` to every token.
        drop_stopwords: Tokens to drop entirely (e.g. "for", "with").

    The same tokenizer instance must be used at construction and inference
    time so that string comparisons stay consistent (paper footnote 3);
    :class:`~repro.core.model.GraphExModel` enforces this by owning its
    tokenizer.
    """

    def __init__(self, stem: bool = False,
                 drop_stopwords: Sequence[str] = ()) -> None:
        self._stem = stem
        self._stopwords = frozenset(drop_stopwords)

    @property
    def stems(self) -> bool:
        """Whether this tokenizer applies stemming."""
        return self._stem

    @property
    def stopwords(self) -> frozenset:
        """Tokens dropped entirely by this tokenizer."""
        return self._stopwords

    def spec(self) -> Dict[str, object]:
        """The whole configuration as JSON data: what a model artifact's
        header and a cluster frame carry, so whoever opens the one or
        reads the other tokenizes as the builder did (footnote 3).
        ``stopwords`` is present only when there are some, which keeps
        a stopword-less artifact's bytes what they always were."""
        spec: Dict[str, object] = {"stem": self._stem}
        if self._stopwords:
            spec["stopwords"] = sorted(self._stopwords)
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SpaceTokenizer":
        """Inverse of :meth:`spec`, accepting only what it writes: a
        header or frame is outside input, and a spec read loosely would
        tokenize otherwise without a word (``"stem": "no"`` would stem).
        ``ValueError`` unless ``stem`` is a bool, ``stopwords`` (absent:
        none) a list of str, ``type`` (the header's) absent or
        ``"space"``, and there is no other key."""
        stopwords = spec.get("stopwords", []) \
            if isinstance(spec, dict) else None
        if not (isinstance(spec, dict)
                and set(spec) <= {"type", "stem", "stopwords"}
                and spec.get("type", "space") == "space"
                and isinstance(spec.get("stem"), bool)
                and isinstance(stopwords, list)
                and all(isinstance(word, str) for word in stopwords)):
            raise ValueError(f"tokenizer {spec!r} is not a SpaceTokenizer "
                             f"spec")
        return cls(stem=spec["stem"], drop_stopwords=stopwords)

    def process(self, raw: str) -> Optional[str]:
        """The token ``__call__`` makes of one raw token (a chunk of
        ``text.split()``), or None when it is dropped (empty after
        normalization, or a stopword); :class:`TokenCache` memoizes it.
        """
        tokens = self(raw)
        return tokens[0] if tokens else None

    def __call__(self, text: str) -> List[str]:
        """Tokenize, normalize and optionally stem a whole string.

        One C-level lower and one regex pass make every title's tokens;
        stopwords and stems cost only a tokenizer that has them.  That
        is ``normalize_token``, drop, stem per chunk of ``text.split()``:
        a code point lowers to whitespace exactly when it is whitespace,
        Final_Sigma looks no further than a whitespace neighbour and the
        regex's ``\\s`` is ``str.isspace`` (``tests/test_tokenize.py``
        checks every code point), so each chunk lowers and strips as it
        would alone.
        """
        tokens = _WORD.findall(text.lower())
        if self._stopwords:
            tokens = [token for token in tokens
                      if token not in self._stopwords]
        if self._stem:
            tokens = list(map(light_stem, tokens))
        return tokens


class _RawIds(dict):
    """Raw token → pool id, or ``-1`` when the tokenizer drops it.  A
    miss runs the tokenizer on the raw token and interns what it makes
    into the pool it shares with its :class:`TokenCache`."""

    __slots__ = ("_process", "_tokens", "_token_ids")

    def __init__(self, tokenizer: SpaceTokenizer,
                 tokens: List[str]) -> None:
        super().__init__()
        self._process = tokenizer.process
        self._tokens = tokens
        self._token_ids: Dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        token = self._process(raw)
        if token is None:
            token_id = -1
        else:
            token_id = self._token_ids.get(token)
            if token_id is None:
                token_id = self._token_ids[token] = len(self._tokens)
                self._tokens.append(token)
        self[raw] = token_id
        return token_id


class TokenCache:
    """Shared token pool for one construction run, in one process.

    Model construction tokenizes every curated keyphrase of every leaf,
    and marketplace vocabulary overlaps heavily across leaves — the
    same raw tokens recur constantly.  The cache interns each distinct
    token string once into a shared append-only pool, so the leaf
    builder works on integer ids.

    :meth:`SpaceTokenizer.__call__` makes at most one token of each
    raw whitespace-separated token, whatever its neighbours, so it
    collapses into one memo lookup per raw token (``raw token → pool
    id, or dropped``, :meth:`resolve_raws`): repeated tokens skip the
    tokenizer *and* the string-keyed interning dict entirely, and the
    produced token streams are identical to calling the tokenizer
    directly.  The memo is a ``dict`` whose ``__missing__`` tokenizes
    and interns a new raw token, so pool ids are handed out in stream
    order, whatever the interpreter's string-hash order.

    Pool ids never reach a built graph, so a cache has no cross-process
    form and no consumer past the leaf builds (the pooled graph derives
    from the built graphs): each building process makes and drops its own.
    One thread at a time: every construction path builds a cache's
    leaves on the thread that made it.
    """

    def __init__(self, tokenizer: SpaceTokenizer) -> None:
        self._tokens: List[str] = []
        self._raw_ids = _RawIds(tokenizer, self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def tokens_for(self, token_ids: Sequence[int]) -> List[str]:
        """Pool strings for a sequence of ids."""
        tokens = self._tokens
        return [tokens[i] for i in token_ids]

    def resolve_raws(self, raws: Sequence[str]) -> np.ndarray:
        """Pool ids (int64) for raw whitespace-separated tokens, in order.

        Dropped tokens (empty after normalization, or stopwords) resolve
        to ``-1``.  ``text.split()`` fed through this method is exactly
        ``tokenizer(text)`` with drops marked instead of removed.  One
        C-level pass over ``raws``: a hit is a dict lookup, a miss the
        memo's ``__missing__``.
        """
        return np.fromiter(map(self._raw_ids.__getitem__, raws),
                           dtype=np.int64, count=len(raws))


#: Default tokenizer: space-delimited, normalized, no stemming.
DEFAULT_TOKENIZER = SpaceTokenizer()

#: Tokenizer with the paper's "increase the reach" stemming enabled.
STEMMING_TOKENIZER = SpaceTokenizer(stem=True)

"""Alignment functions scoring keyphrase candidates against a title.

The Ranking step (Section III-E2) orders candidates by **Label Title
Alignment**::

    LTA(T, l, c) = c / (|l| - c + 1)

where ``c = |T ∩ l|`` is the number of tokens shared between title and
label.  The Table VI ablation compares LTA with Graphite's Word Match
Ratio and the Jaccard coefficient::

    WMR = c / |l|          JAC = c / (|l| + |T| - c)

All three share a uniform vectorized signature ``(c, label_len,
title_len)`` so :class:`~repro.core.inference.GraphExInference` can swap
them freely.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int]

#: Uniform signature: (common_count, label_len, title_len) -> score.
AlignmentFunction = Callable[[ArrayLike, ArrayLike, ArrayLike], np.ndarray]


def lta(common: ArrayLike, label_len: ArrayLike,
        title_len: ArrayLike = 0) -> np.ndarray:
    """Label Title Alignment: ``c / (|l| - c + 1)``.

    Prefers labels whose tokens are mostly covered by the title, penalising
    labels with "risky" extra tokens (the paper's A-B-C-D-E example:
    LTA ranks "a b c" above "a b c d e" for a title containing a, b, c).
    ``title_len`` is accepted for signature uniformity and ignored.
    """
    c = np.asarray(common, dtype=np.float64)
    l_len = np.asarray(label_len, dtype=np.float64)
    return c / (l_len - c + 1.0)


def wmr(common: ArrayLike, label_len: ArrayLike,
        title_len: ArrayLike = 0) -> np.ndarray:
    """Word Match Ratio (Graphite's ranker): ``c / |l|``."""
    c = np.asarray(common, dtype=np.float64)
    l_len = np.asarray(label_len, dtype=np.float64)
    return c / l_len


def jac(common: ArrayLike, label_len: ArrayLike,
        title_len: ArrayLike) -> np.ndarray:
    """Jaccard coefficient: ``c / (|l| + |T| - c)``.

    For a fixed title, JAC is monotone in ``c`` regardless of ``|l|``,
    which is exactly why it ranks "a b c d e" above "a b c" in the paper's
    example while LTA does the opposite.
    """
    c = np.asarray(common, dtype=np.float64)
    l_len = np.asarray(label_len, dtype=np.float64)
    t_len = np.asarray(title_len, dtype=np.float64)
    return c / (l_len + t_len - c)


#: Registry used by GraphExModel(..., alignment="lta" | "wmr" | "jac").
ALIGNMENTS: Dict[str, AlignmentFunction] = {
    "lta": lta,
    "wmr": wmr,
    "jac": jac,
}


def get_alignment(name: str) -> AlignmentFunction:
    """Resolve an alignment by registry name — the one spelling a model
    artifact's header can carry.

    Raises:
        ValueError: On anything that is not a name in
            :data:`ALIGNMENTS`, a callable included.
    """
    if isinstance(name, str) and name in ALIGNMENTS:
        return ALIGNMENTS[name]
    raise ValueError(f"unknown alignment {name!r}; expected one of "
                     f"{sorted(ALIGNMENTS)}")

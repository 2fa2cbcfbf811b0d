"""Unit and property tests for the alignment functions (LTA/WMR/JAC)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.alignment import ALIGNMENTS, get_alignment, jac, lta, wmr

#: Valid (common, label_len, title_len) triples: 1 <= c <= min(|l|, |T|).
triples = st.tuples(
    st.integers(1, 10), st.integers(1, 10), st.integers(1, 20)
).filter(lambda t: t[0] <= t[1] and t[0] <= t[2])


class TestLTA:
    def test_definition(self):
        assert lta(2, 3) == pytest.approx(2.0 / 2.0)
        assert lta(3, 3) == pytest.approx(3.0)

    def test_full_match_equals_label_length(self):
        for n in range(1, 8):
            assert lta(n, n) == pytest.approx(float(n))

    def test_vectorized(self):
        out = lta(np.array([1, 2, 3]), np.array([3, 3, 3]))
        assert out == pytest.approx([1 / 3, 1.0, 3.0])

    def test_title_len_is_ignored(self):
        assert lta(2, 3, 5) == lta(2, 3, 500)

    @given(triples)
    def test_positive_and_bounded(self, t):
        c, l_len, _ = t
        value = float(lta(c, l_len))
        assert 0 < value <= l_len

    @given(triples)
    def test_monotone_in_common(self, t):
        c, l_len, _ = t
        assume(c < l_len)
        assert lta(c + 1, l_len) > lta(c, l_len)

    @given(triples)
    def test_antitone_in_label_length(self, t):
        c, l_len, _ = t
        assert lta(c, l_len + 1) < lta(c, l_len)


class TestWMR:
    def test_definition(self):
        assert wmr(2, 4) == pytest.approx(0.5)

    def test_full_match_is_one(self):
        for n in range(1, 8):
            assert wmr(n, n) == pytest.approx(1.0)

    @given(triples)
    def test_in_unit_interval(self, t):
        c, l_len, _ = t
        assert 0 < float(wmr(c, l_len)) <= 1.0

    @given(triples)
    def test_wmr_never_exceeds_lta(self, t):
        """LTA(c, l) >= WMR(c, l): denominators satisfy l - c + 1 <= l."""
        c, l_len, _ = t
        assert float(lta(c, l_len)) >= float(wmr(c, l_len)) - 1e-12


class TestJAC:
    def test_definition(self):
        assert jac(2, 3, 5) == pytest.approx(2.0 / 6.0)

    def test_identical_sets(self):
        assert jac(4, 4, 4) == pytest.approx(1.0)

    @given(triples)
    def test_in_unit_interval(self, t):
        c, l_len, t_len = t
        assert 0 < float(jac(c, l_len, t_len)) <= 1.0

    @given(triples)
    def test_jac_le_wmr(self, t):
        """JAC <= WMR since |l| + |T| - c >= |l| whenever c <= |T|."""
        c, l_len, t_len = t
        assert float(jac(c, l_len, t_len)) <= float(wmr(c, l_len)) + 1e-12

    @given(st.integers(1, 10), st.integers(2, 10))
    def test_monotone_in_c_for_fixed_title(self, c, t_len):
        """For a fixed title, JAC is monotone in c even across label
        lengths — the property the paper's ablation pins down."""
        assume(c < t_len)
        shorter = jac(c, c, t_len)
        longer = jac(c + 1, c + 1, t_len)
        assert float(longer) > float(shorter)


class TestRegistry:
    def test_contains_all_three(self):
        assert set(ALIGNMENTS) == {"lta", "wmr", "jac"}

    def test_get_alignment_by_name(self):
        assert get_alignment("lta") is lta
        assert get_alignment("wmr") is wmr
        assert get_alignment("jac") is jac

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match=r"unknown alignment 'cosine'; "
                                             r"expected one of \['jac'"):
            get_alignment("cosine")

    def test_uniform_signature(self):
        for fn in ALIGNMENTS.values():
            assert float(fn(1, 2, 3)) > 0

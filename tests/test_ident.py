"""Circular-order primitive: the three-argument test and rank counting."""

import itertools

import pytest
from hypothesis import given, strategies as st

from chordcheck.ident import MAX_M, RingParams, between, clockwise_distance, clockwise_rank


def walk_rank(frm, to, members, space=64):
    """Oracle: walk the circle clockwise and count members before reaching `to`."""
    count = 0
    pos = (frm + 1) % space
    while pos != to:
        if pos in members:
            count += 1
        pos = (pos + 1) % space
    return count


class TestRingParams:
    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            RingParams(m=2, r=2)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            RingParams(m=6, r=1)

    def test_space(self):
        assert RingParams(m=6, r=2).space == 64

    @pytest.mark.parametrize(
        "m, r", [(6.0, 2), ("6", 2), (True, 2), (6, 2.0), (6, True), (None, 2)]
    )
    def test_rejects_non_integers(self, m, r):
        with pytest.raises(ValueError, match="must be an integer"):
            RingParams(m=m, r=r)

    def test_bounds_m_before_building_the_space(self):
        assert RingParams(m=MAX_M, r=2).space == 2**160
        for m in (MAX_M + 1, 10**12):
            with pytest.raises(ValueError, match=f"at most {MAX_M}"):
                RingParams(m=m, r=2)


class TestBetween:
    def test_wrapping_full_arc_is_true(self):
        for x, y in itertools.permutations(range(16), 2):
            assert between(x, y, x)

    def test_degenerate_endpoints_false(self):
        for x, y in itertools.permutations(range(16), 2):
            assert not between(x, x, y)
            assert not between(y, x, x)

    def test_plain_arc(self):
        assert between(3, 20, 45)

    def test_wraparound_arc(self):
        assert between(52, 3, 45)

    def test_circular_trichotomy_exhaustive(self):
        for a, b, c in itertools.permutations(range(16), 3):
            assert between(a, b, c) != between(a, c, b)

    def test_rotation_invariance_exhaustive(self):
        space = 16
        for a, b, c in itertools.product(range(space), repeat=3):
            base = between(a, b, c)
            for k in (1, 5, 11):
                assert base == between(
                    (a + k) % space, (b + k) % space, (c + k) % space
                )


class TestClockwiseRank:
    def test_adjacent_pair(self):
        assert clockwise_rank(7, 10, {7, 10, 19}) == 0

    def test_one_member_between(self):
        members = {7, 10, 19}
        assert clockwise_rank(7, 19, members) == walk_rank(7, 19, members) == 1

    def test_full_loop_back_to_self(self):
        members = {7, 10, 19}
        assert clockwise_rank(7, 7, members) == walk_rank(7, 7, members) == 2

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            clockwise_rank(1, 10, {10, 19})
        with pytest.raises(ValueError):
            clockwise_rank(10, 1, {10, 19})

    @given(
        members=st.sets(st.integers(min_value=0, max_value=63), min_size=2, max_size=9),
        data=st.data(),
    )
    def test_matches_walk_oracle(self, members, data):
        frm = data.draw(st.sampled_from(sorted(members)))
        to = data.draw(st.sampled_from(sorted(members)))
        assert clockwise_rank(frm, to, members) == walk_rank(frm, to, members)

    @given(
        members=st.sets(st.integers(min_value=0, max_value=63), min_size=2, max_size=9),
        data=st.data(),
    )
    def test_rank_below_member_count(self, members, data):
        frm = data.draw(st.sampled_from(sorted(members)))
        to = data.draw(st.sampled_from(sorted(m for m in members if m != frm)))
        assert clockwise_rank(frm, to, members) < len(members)


def test_distance_is_modular():
    assert clockwise_distance(60, 3, 64) == 7
    assert clockwise_distance(3, 60, 64) == 57
    assert clockwise_distance(5, 5, 64) == 0

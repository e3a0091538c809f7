"""Walled index extraction, the census, and the transition classifier."""

import re
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.diagrams import InvariantViolation, SetPartitionDiagram, generator
from diagalg.halfdiag import HalfDiagram, half_diagram_count, set_partitions
from diagalg.walled import (
    TransitionCase,
    WalledHalfDiagram,
    WalledIndex,
    census,
    enumerate_walled,
    index_count_formula,
    index_of,
    tensor_generators,
    transition,
)

def _set_partitions(dots):
    """Set partitions of a list of dots, by inserting the first dot everywhere."""
    if not dots:
        yield []
        return
    first, rest = dots[0], dots[1:]
    for blocks in _set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


def _brute_census(m, n):
    """Census of every (m|n, r)-walled half-diagram, keyed by r then index.

    Builds its own set partitions and label choices and classifies each
    block directly, so it shares no code with enumerate_basis or index_of.
    """
    by_r = {r: {} for r in range(m + n + 1)}
    for blocks in _set_partitions(list(range(1, m + n + 1))):
        for r in range(len(blocks) + 1):
            for labeled in combinations(range(len(blocks)), r):
                u = t = left = right = 0
                for i, block in enumerate(blocks):
                    if min(block) <= m < max(block):
                        if i in labeled:
                            t += 1
                        else:
                            u += 1
                    elif i in labeled:
                        if max(block) <= m:
                            left += 1
                        else:
                            right += 1
                idx = WalledIndex(u, t, left, right)
                by_r[r][idx] = by_r[r].get(idx, 0) + 1
    return by_r


def _census_reference(m, n, r):
    """Census by the per-call dynamic program over (a, c, b) states.

    The left dots form a blocks; each right dot joins one of the c + b
    blocks holding a right dot, crosses into one of the a - c others or
    opens a right-only block; then the labels pick T of the c through,
    L of the a - c left-only and R of the b right-only blocks.
    """
    left = [1]  # left[a]: set partitions of the left dots into a blocks
    for _ in range(m):
        left = [a * left[a] + left[a - 1] if a else 0 for a in range(len(left))] + [left[-1]]
    states = {(a, 0, 0): count for a, count in enumerate(left) if count}
    for _ in range(n):
        step = {}
        for (a, c, b), count in states.items():
            if c + b:
                step[a, c, b] = step.get((a, c, b), 0) + count * (c + b)
            if a > c:
                step[a, c + 1, b] = step.get((a, c + 1, b), 0) + count * (a - c)
            step[a, c, b + 1] = step.get((a, c, b + 1), 0) + count
        states = step
    out = {}
    for (a, c, b), count in states.items():
        for t in range(min(c, r) + 1):
            for l in range(min(a - c, r - t) + 1):
                right = r - t - l
                if right <= b:
                    idx = WalledIndex(c - t, t, l, right)
                    out[idx] = out.get(idx, 0) + count * comb(c, t) * comb(a - c, l) * comb(b, right)
    return dict(sorted(out.items()))


# the worked (8|7, 4) example with index (2; 2, 1, 1)
WORKED = {
    "m": 8,
    "n": 7,
    "blocks": [[1, 3], [2, 4, -6], [5, -5], [6], [7, -7], [8, -4], [-3, -1], [-2]],
    "labeled": [1, 2, 3, 6],
}


class TestIndex:
    def test_worked_example(self):
        w = WalledHalfDiagram.from_json(WORKED)
        assert index_of(w) == WalledIndex(2, 2, 1, 1)
        assert index_of(w).render() == "2;2,1,1"

    def test_left_only_labels(self):
        w = WalledHalfDiagram.from_blocks(3, 2, [[1], [2], [3], [4], [5]], labeled=[0, 1])
        assert index_of(w) == WalledIndex(0, 0, 2, 0)

    def test_all_singletons_fully_labeled(self):
        for m in range(1, 4):
            for n in range(1, 4):
                blocks = [[k] for k in range(1, m + n + 1)]
                w = WalledHalfDiagram.from_blocks(m, n, blocks, labeled=range(m + n))
                assert index_of(w) == WalledIndex(0, 0, m, n)

    def test_index_parse_round_trip(self):
        idx = WalledIndex(2, 2, 1, 1)
        assert WalledIndex.parse(idx.render()) == idx

    def test_json_round_trip(self):
        w = WalledHalfDiagram.from_json(WORKED)
        assert WalledHalfDiagram.from_json(w.to_json()) == w

    @pytest.mark.parametrize("side", ["m", "n"])
    def test_bool_side_degree_rejected(self, side):
        with pytest.raises(ValueError, match="^'m' and 'n' must be non-negative integers$"):
            WalledHalfDiagram.from_json({**WORKED, side: True})

    @pytest.mark.parametrize(
        "m, n",
        [(1.0, 1), (True, 1), (1, True), ("1", 1), (-1, 3)],
        ids=["float", "bool-m", "bool-n", "str", "negative"],
    )
    def test_constructor_rejects_non_integer_side_degree(self, m, n):
        half = HalfDiagram(2, [[1, 2]])
        message = re.escape(f"side degrees must be non-negative integers, got {m!r} and {n!r}")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            WalledHalfDiagram(m, n, half)


class TestEnumerationMemory:
    def test_walled_diagrams_share_canonical_data(self):
        # Diagrams share the cached set-partition blocks and one label set per
        # block count and subset; a copy per diagram retains about 8.3 MiB here.
        cells = [(m, n, r) for m in range(1, 6) for n in range(1, 7 - m) for r in range(m + n + 1)]
        for size in range(7):
            set_partitions(size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [enumerate_walled(m, n, r) for m, n, r in cells]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, kept)) == 14_298
        assert retained < 3 * 2**20


class TestLexOrder:
    def test_first_slot_dominates(self):
        a, b = WalledIndex(1, 0, 0, 0), WalledIndex(0, 5, 5, 5)
        assert (a > b) - (a < b) == 1

    def test_equal(self):
        a, b = WalledIndex(2, 2, 1, 1), WalledIndex(2, 2, 1, 1)
        assert (a > b) - (a < b) == 0

    def test_second_slot_dominates_tail(self):
        a, b = WalledIndex(0, 1, 0, 0), WalledIndex(0, 0, 9, 9)
        assert (a > b) - (a < b) == 1


class TestCensus:
    def test_two_labels_on_one_and_one(self):
        assert census(1, 1, 2) == {WalledIndex(0, 0, 1, 1): 1}

    def test_no_labels_on_one_and_one(self):
        assert census(1, 1, 0) == {
            WalledIndex(0, 0, 0, 0): 1,
            WalledIndex(1, 0, 0, 0): 1,
        }

    def test_totals_match_basis(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for r in range(m + n + 1):
                    assert sum(census(m, n, r).values()) == half_diagram_count(m + n, r)

    def test_closed_form_factorization(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for r in range(m + n + 1):
                    tally = census(m, n, r)
                    for u in range(min(m, n) + 1):
                        for t in range(r + 1):
                            for left in range(r - t + 1):
                                right = r - t - left
                                if u + t + left > m or u + t + right > n:
                                    continue
                                idx = WalledIndex(u, t, left, right)
                                assert tally.get(idx, 0) == index_count_formula(m, n, idx)

    def test_brute_force_oracle(self):
        # every (m|n, r) with m + n <= 6, both sides allowed to be empty
        for m in range(7):
            for n in range(7 - m):
                for r, tally in _brute_census(m, n).items():
                    assert census(m, n, r) == tally, (m, n, r)
                    for idx, count in tally.items():
                        assert index_count_formula(m, n, idx) == count, (m, n, idx)

    def test_matches_enumeration_in_order(self):
        # census counts without building diagrams; enumeration is its oracle
        for m in range(8):
            for n in range(8 - m):
                for r in range(-1, m + n + 2):
                    tally = Counter(index_of(w) for w in enumerate_walled(m, n, r))
                    assert list(census(m, n, r).items()) == sorted(tally.items()), (m, n, r)

    def test_matches_per_call_reference(self):
        # item for item and in key order, both sides allowed to be empty
        for m in range(11):
            for n in range(11):
                for r in range(-1, m + n + 2):
                    assert list(census(m, n, r).items()) == list(_census_reference(m, n, r).items()), (m, n, r)

    def test_returned_tally_is_a_copy(self):
        # calls with the same (m|n) share one table; a caller's edits stay local
        tally = census(3, 4, 2)
        expected = dict(tally)
        tally[WalledIndex(0, 0, 1, 1)] += 5
        tally[WalledIndex(9, 9, 9, 9)] = 1
        del tally[WalledIndex(2, 0, 0, 2)]
        assert census(3, 4, 2) == expected
        assert list(census(3, 4, 2)) == list(expected)
        assert census(3, 4, 3) == _census_reference(3, 4, 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_closed_form_beyond_enumeration(self, data):
        size = data.draw(st.integers(0, 24))
        m = data.draw(st.integers(0, size))
        n = size - m
        r = data.draw(st.integers(0, size))
        tally = census(m, n, r)
        assert sum(tally.values()) == half_diagram_count(size, r)
        assert all(count > 0 for count in tally.values())
        for u in range(min(m, n) + 1):
            for t in range(r + 1):
                for left in range(r - t + 1):
                    idx = WalledIndex(u, t, left, r - t - left)
                    assert tally.get(idx, 0) == index_count_formula(m, n, idx), (m, n, idx)

    def test_negative_side_rejected(self):
        for m, n in ((-1, 2), (2, -1), (-1, 0)):
            with pytest.raises(InvariantViolation, match="side degrees must be non-negative"):
                census(m, n, 0)

    def test_every_admissible_index_realized(self):
        tally = census(2, 2, 1)
        assert tally[WalledIndex(1, 0, 1, 0)] > 0
        assert tally[WalledIndex(0, 1, 0, 0)] > 0


class TestTransition:
    def test_identity_unchanged(self):
        w = WalledHalfDiagram.from_json(WORKED)
        eye = SetPartitionDiagram.identity(15)
        assert transition(eye, w).case is TransitionCase.UNCHANGED

    def test_cut_sole_left_dot_of_unlabeled_through_block(self):
        # {1, 1'} unlabeled through; cutting at 1 frees the block to the right
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]])
        g = generator("P", 1, None, 4)
        assert transition(g, w).case is TransitionCase.CASE_III

    def test_cut_sole_left_dot_of_labeled_through_block(self):
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[0])
        g = generator("P", 1, None, 4)
        assert transition(g, w).case in (TransitionCase.CASE_I, TransitionCase.CASE_V)
        move = transition(g, w)
        assert move.old == WalledIndex(0, 1, 0, 0)
        assert move.new == WalledIndex(0, 0, 0, 1)

    def test_cut_labeled_left_singleton_drops_label(self):
        w = WalledHalfDiagram.from_blocks(2, 1, [[1], [2], [3]], labeled=[0])
        g = generator("P", 1, None, 3)
        assert transition(g, w).case is TransitionCase.CASE_IV

    def test_merge_two_through_labeled(self):
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2, 3]], labeled=[0, 1])
        g = generator("E", 1, 2, 4)
        assert transition(g, w).case is TransitionCase.CASE_V

    def test_merge_left_label_into_unlabeled_through(self):
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[1])
        g = generator("E", 1, 2, 4)
        assert transition(g, w).case is TransitionCase.CASE_II

    def test_swap_is_unchanged(self):
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[1])
        g = generator("S", 1, 2, 4)
        assert transition(g, w).case is TransitionCase.UNCHANGED

    def test_rejects_non_generator(self):
        w = WalledHalfDiagram.from_blocks(1, 1, [[1], [2]])
        bad = SetPartitionDiagram(2, [[1, 2, -1, -2]])  # merges across the wall
        with pytest.raises(ValueError):
            transition(bad, w)

    def test_sweep_small_and_strict_decrease(self):
        for m in range(1, 3):
            for n in range(1, 3):
                gens = tensor_generators(m, n)
                for r in range(m + n + 1):
                    for w in enumerate_walled(m, n, r):
                        for _, g in gens:
                            move = transition(g, w)  # must classify, never raise
                            if move.case is not TransitionCase.UNCHANGED:
                                assert move.new < move.old

    def test_generator_counts(self):
        # per side: n cut generators plus C(n,2) merges and C(n,2) swaps
        assert len(tensor_generators(3, 3)) == 2 * (3 + 3 + 3)
        assert len(tensor_generators(1, 1)) == 2

"""Walled index extraction, the census, and the transition classifier."""

import re
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.cli import CENSUS_MAX_DOTS
from diagalg.diagrams import InvariantViolation, SetPartitionDiagram, generator
from diagalg.halfdiag import HalfDiagram, _glue, half_diagram_count
from diagalg.walled import (
    _CASE_BY_DELTA,
    TransitionCase,
    TransitionClassificationError,
    WalledHalfDiagram,
    WalledIndex,
    _census_table,
    _index,
    _tensor_generator_set,
    census,
    enumerate_walled,
    index_count_formula,
    index_of,
    tensor_generators,
    transition,
)
from test_diagrams import mixed_diagrams, mixed_half_diagrams, oracle_act_top

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

    def test_json_round_trip(self):
        w = WalledHalfDiagram.from_json(WORKED)
        assert WalledHalfDiagram.from_json(w.to_json()) == w

    @pytest.mark.parametrize(
        "data", [[WORKED], "walled", {"m": 1, "n": 1}, {"blocks": [[1, -1]]}],
        ids=["list", "str", "no-blocks", "no-sides"],
    )
    def test_from_json_needs_an_object_with_m_n_and_blocks(self, data):
        message = "walled JSON must be an object with 'm', 'n' and 'blocks'"
        with pytest.raises(ValueError, match=f"^{message}$") as caught:
            WalledHalfDiagram.from_json(data)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize(
        "dot, message",
        [(3, "left dot 3 exceeds m=2"), (-3, "right dot 3' exceeds n=2"), (0, "dot 0 is neither a left dot 1..2 nor a right dot 1'..2'")],
        ids=["left", "right", "zero"],
    )
    def test_from_json_rejects_a_dot_beyond_its_side(self, dot, message):
        data = {"m": 2, "n": 2, "blocks": [[1, 2], [-2, -1], [dot]]}
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            WalledHalfDiagram.from_json(data)

    def test_constructor_rejects_a_degree_mismatch(self):
        with pytest.raises(InvariantViolation, match="^underlying half-diagram must have degree 2$"):
            WalledHalfDiagram(1, 1, HalfDiagram(3, [[1, 2, 3]]))

    def test_repr(self):
        w = WalledHalfDiagram.from_blocks(1, 1, [[1], [2]], labeled=[0])
        assert repr(w) == "WalledHalfDiagram(1|1, {{1}*,{1'}})"

    @pytest.mark.parametrize("side", ["m", "n"])
    def test_bool_side_degree_rejected(self, side):
        with pytest.raises(ValueError, match=f"^'{side}' must be a non-negative integer, got True$"):
            WalledHalfDiagram.from_json({**WORKED, side: True})

    @pytest.mark.parametrize(
        "m, n",
        [(1.0, 1), (True, 1), (1, True), ("1", 1), (-1, 3)],
        ids=["float", "bool-m", "bool-n", "str", "negative"],
    )
    def test_constructor_rejects_non_integer_side_degree(self, m, n):
        half = HalfDiagram(2, [[1, 2]])
        side, value = ("n", n) if type(m) is int and m >= 0 else ("m", m)
        message = re.escape(f"{side} must be a non-negative integer, got {value!r}")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            WalledHalfDiagram(m, n, half)

    @pytest.mark.parametrize(
        "half", [SetPartitionDiagram.identity(2), "ab"], ids=["full-diagram", "str"]
    )
    def test_constructor_rejects_non_half_diagram(self, half):
        message = re.escape(f"underlying half-diagram {half!r} is not a HalfDiagram")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            WalledHalfDiagram(1, 1, half)


class TestEnumerationMemory:
    def test_walled_diagrams_share_canonical_data(self):
        # The diagrams of one enumeration share its set-partition blocks and one
        # label set per block count and subset; a copy per diagram retains about
        # 8.3 MiB here.
        cells = [(m, n, r) for m in range(1, 6) for n in range(1, 7 - m) for r in range(m + n + 1)]
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

    def test_table_row_lists_exactly_the_cells_of_its_census(self):
        # census walks row r with no bound and no emptiness check: each (U, T) it lists
        # must yield an index, in ascending order, and no cell with an index may be missing
        for m in range(9):
            for n in range(9):
                rows = _census_table(m, n)
                assert len(rows) == m + n + 1
                for r, row in enumerate(rows):
                    assert [entry[:2] for entry in row] == sorted({idx[:2] for idx in census(m, n, r)}), (m, n, r)

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

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_key_order_and_type_to_the_dots_budget(self, data):
        # beyond the exhaustive m, n <= 10 grid of test_matches_per_call_reference, up to
        # what `walled census` accepts; the per-call program shares no code with the table
        size = data.draw(st.integers(0, CENSUS_MAX_DOTS))
        m = data.draw(st.integers(0, size))
        n = size - m
        r = data.draw(st.integers(0, size))
        _census_table.cache_clear()
        cold = census(m, n, r)
        assert list(cold) == sorted(cold)
        assert all(type(idx) is WalledIndex for idx in cold)
        assert list(census(m, n, r).items()) == list(cold.items())
        assert list(cold.items()) == list(_census_reference(m, n, r).items()), (m, n, r)
        assert census(m, n, -1) == {} == census(m, n, size + 1)

    def test_negative_side_rejected(self):
        for m, n, side in ((-1, 2, "m"), (2, -1, "n"), (-1, 0, "m")):
            with pytest.raises(ValueError, match=f"^{side} must be a non-negative integer, got -1$") as caught:
                census(m, n, 0)
            assert type(caught.value) is ValueError

    @pytest.mark.parametrize("slot", range(4))
    def test_formula_counts_nothing_for_a_negative_entry(self, slot):
        for value in (-1, -2):
            entries = [0, 0, 0, 0]
            entries[slot] = value
            assert index_count_formula(2, 1, WalledIndex(*entries)) == 0
            entries[(slot + 1) % 4] = 1  # a positive entry beside it must not lift the sum to a valid count
            assert index_count_formula(3, 3, WalledIndex(*entries)) == 0

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

    def test_every_admissible_delta_lowers_the_index_and_a_side_count(self):
        # verify transition-lemma relies on this, counting a classified move as a
        # lowering one, and a filtration by (kL, kR) rests on it: each delta lowers
        # (U, T, L, R) lexicographically, and lowers kL = U + T + L or
        # kR = U + T + R while raising neither
        assert len(_CASE_BY_DELTA) == 8
        assert set(_CASE_BY_DELTA.values()) == set(TransitionCase) - {TransitionCase.UNCHANGED}
        for du, dt, dl, dr in _CASE_BY_DELTA:
            assert (du, dt, dl, dr) < (0, 0, 0, 0)
            sides = (du + dt + dl, du + dt + dr)
            assert max(sides) <= 0 and min(sides) < 0

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

    def test_a_move_outside_every_case_raises(self, monkeypatch):
        # with no admissible delta left, the case III cut of the through block {1, 4} at 1 fits none
        monkeypatch.setattr("diagalg.walled._CASE_BY_DELTA", {})
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]])
        message = re.escape("index moved 1;0,0,0 -> 0;0,0,0, outside the admissible cases")
        with pytest.raises(TransitionClassificationError, match=f"^{message}$"):
            transition(generator("P", 1, None, 4), w)

    @staticmethod
    def _rebuilt_generators(m, n):
        """The (m|n) generators, each built afresh by ``generator`` at its side's offset."""
        gens = []
        for offset, size in ((0, m), (m, n)):
            gens += [generator("P", offset + i, None, m + n) for i in range(1, size + 1)]
            for i, j in combinations(range(offset + 1, offset + size + 1), 2):
                gens += [generator("E", i, j, m + n), generator("S", i, j, m + n)]
        return gens

    def test_the_generator_check_depends_on_the_split(self):
        # transition accepts a generator by its blocks: two splits of one
        # degree share the identity and each generator whose dots lie on one
        # side of both walls, and no other
        rejected = 0
        for degree in range(6):
            splits = [(m, degree - m) for m in range(degree + 1)]
            for m, n in splits:
                _tensor_generator_set.cache_clear()  # cold, as at the start of a benchmark pass
                w = WalledHalfDiagram.from_blocks(m, n, [[k] for k in range(1, degree + 1)])
                own = self._rebuilt_generators(m, n)
                assert own == [g for _, g in tensor_generators(m, n)]
                for g in own + [SetPartitionDiagram.identity(degree)]:
                    transition(g, w)
                for m2, n2 in splits:
                    for g in self._rebuilt_generators(m2, n2):
                        if g not in own:
                            with pytest.raises(ValueError, match="^diagram is not a juxtaposed one-sided generator"):
                                transition(g, w)
                            rejected += 1
        assert rejected == 224

    def test_rejects_a_degree_mismatch(self):
        w = WalledHalfDiagram.from_blocks(1, 1, [[1], [2]])
        with pytest.raises(InvariantViolation, match="^generator degree must match the walled diagram$"):
            transition(generator("P", 1, None, 3), w)

    def test_generator_counts(self):
        # per side: n cut generators plus C(n,2) merges and C(n,2) swaps
        assert len(tensor_generators(3, 3)) == 2 * (3 + 3 + 3)
        assert len(tensor_generators(1, 1)) == 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(mixed_diagrams(n), mixed_half_diagrams(n))))
    def test_kernel_index_matches_the_graph_search(self, case):
        # transition's route on any diagram, not only a generator, so that many blocks of v merge
        # and a group's top dots come out of order: the kernel's groups read by _index, at every wall
        d, v = case
        t, blocks, labeled = _glue(d, v)
        t_oracle, top = oracle_act_top(d, v)
        assert t == t_oracle
        for m in range(d.n + 1):
            assert _index(m, blocks, labeled) == index_of(WalledHalfDiagram(m, d.n - m, top))


class TestTransitionMemo:
    """``transition`` keeps the last diagram's index; every answer must match a fresh computation."""

    @staticmethod
    def _check(g, w, tops=None):
        """``transition(g, w)``, checked; ``tops`` keeps the oracle's top rows by (g, half) for reuse."""
        move = transition(g, w)
        assert move.old == index_of(w)
        tops = {} if tops is None else tops
        if (g, w.half) not in tops:
            tops[g, w.half] = oracle_act_top(g, w.half)[1]
        assert move.new == index_of(WalledHalfDiagram(w.m, w.n, tops[g, w.half]))
        return move

    def test_interleaved_diagrams(self):
        w1 = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[1])
        w2 = WalledHalfDiagram.from_blocks(2, 2, [[1, 2, 3], [4]], labeled=[0, 1])
        assert index_of(w1) != index_of(w2)
        for _, g in tensor_generators(2, 2):
            for w in (w1, w2, w1, w1, w2):
                self._check(g, w)

    def test_equal_copy_is_a_distinct_object(self):
        w = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[0])
        copy = WalledHalfDiagram(2, 2, HalfDiagram(4, [[1, 4], [2], [3]], [0]))
        assert copy == w and copy is not w
        for _, g in tensor_generators(2, 2):
            assert self._check(g, w) == self._check(g, copy)

    def test_after_a_call_that_raises(self):
        w1 = WalledHalfDiagram.from_blocks(1, 1, [[1, 2]], labeled=[0])
        w2 = WalledHalfDiagram.from_blocks(1, 1, [[1], [2]])
        g = generator("P", 1, None, 2)
        self._check(g, w1)
        with pytest.raises(InvariantViolation):
            transition(generator("P", 1, None, 3), w2)
        self._check(g, w1)
        with pytest.raises(ValueError, match="^diagram is not a juxtaposed"):
            transition(SetPartitionDiagram(2, [[1, 2, -1, -2]]), w2)
        self._check(g, w2)
        self._check(g, w1)

    def test_fresh_objects_whose_ids_may_repeat(self):
        # A memo keyed by id() would read a freed diagram's index for a new
        # object at the same address; this one holds the diagram itself.
        g = generator("P", 1, None, 2)
        shapes = [([[1, 2]], [0]), ([[1, 2]], []), ([[1], [2]], [0]), ([[1], [2]], [1])]
        for step in range(200):
            blocks, labeled = shapes[step % len(shapes)]
            self._check(g, WalledHalfDiagram.from_blocks(1, 1, blocks, labeled))

    def test_threads_share_the_memo(self):
        # The pair is read and replaced whole, so a thread that loses it to
        # another between read and use still holds a consistent pair.
        cells = [(1, 2), (2, 1), (2, 2), (1, 3)]
        work = [(w, [g for _, g in tensor_generators(m, n)]) for m, n in cells for w in enumerate_walled(m, n, 1)]
        errors = []

        def sweep(offset):
            try:
                for w, gens in work[offset:] + work[:offset]:
                    expected = index_of(w)
                    for g in gens:
                        if transition(g, w).old != expected:
                            errors.append((w, g))
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(k * 7,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_sweep_against_the_graph_search(self):
        # every (m|n) with m + n <= 5: old index, new index and case, each checked by another route.
        # The cells of one degree share their half-diagrams and many generators, so each oracle top
        # row is found once.
        moves, tops = 0, {}
        for m in range(6):
            for n in range(6 - m):
                gens = [g for _, g in tensor_generators(m, n)]
                for r in range(m + n + 1):
                    for w in enumerate_walled(m, n, r):
                        for g in gens:
                            move = self._check(g, w, tops)
                            delta = tuple(b - a for a, b in zip(move.old, move.new))
                            if move.case is TransitionCase.UNCHANGED:
                                assert delta == (0, 0, 0, 0)
                            else:
                                assert _CASE_BY_DELTA[delta] is move.case
                            moves += 1
        assert moves == 56260

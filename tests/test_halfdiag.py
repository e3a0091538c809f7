"""Half-diagram basis enumeration, the module action, and dimensions."""

import gc
import random
import re
import time
import tracemalloc

import pytest

from diagalg import halfdiag
from diagalg.diagrams import DeltaPolynomial, InvariantViolation, SetPartitionDiagram, compose
from diagalg.halfdiag import (
    HalfDiagram,
    ScaledHalfDiagram,
    act,
    act_top,
    bell,
    dim_standard,
    enumerate_basis,
    half_diagram_count,
    partitions_up_to,
    set_partitions,
    stirling2,
)
from diagalg.symfunc import syt_count
from diagalg.verify import _random_diagram as random_diagram
from diagalg.verify import _random_half_diagram as random_half_diagram

ACT_DIAGRAM = [[1, 2, -2], [3, -3], [4], [5, -4], [6, -5], [-1], [-6]]
ACT_INPUT = {"n": 6, "blocks": [[1, 3], [2], [4], [5], [6]], "labeled": [0, 3]}
ACT_RESULT = {"n": 6, "blocks": [[1, 2], [3], [4], [5], [6]], "labeled": [1, 4]}
ACT_ZERO_DIAGRAM = [[1, 2, -2], [3, 4], [5, -4], [6, -5], [-1], [-3], [-6]]


class TestHalfDiagram:
    def test_label_indices_follow_canonical_order(self):
        # labels given against the input order must survive reordering
        hd = HalfDiagram(4, [[3, 4], [1, 2]], labeled=[0])
        assert hd.blocks == ((1, 2), (3, 4))
        assert hd.labeled == frozenset({1})
        assert tuple(hd.blocks[i] for i in sorted(hd.labeled)) == ((3, 4),)

    def test_cover_and_disjoint_enforced(self):
        with pytest.raises(InvariantViolation):
            HalfDiagram(3, [[1, 2]])
        with pytest.raises(InvariantViolation):
            HalfDiagram(3, [[1, 2], [2, 3]])

    def test_bad_label_index(self):
        with pytest.raises(InvariantViolation):
            HalfDiagram(2, [[1, 2]], labeled=[1])

    @pytest.mark.parametrize("labeled", [[True], [1, True]])
    def test_bool_label_index_rejected(self, labeled):
        with pytest.raises(InvariantViolation, match="^labeled index True does not point at a block$"):
            HalfDiagram(2, [[1], [2]], labeled)

    def test_repeated_label_index_rejected(self):
        with pytest.raises(InvariantViolation, match="^labeled index 0 appears more than once$"):
            HalfDiagram(2, [[1], [2]], [0, 0])

    @staticmethod
    def _shuffled_pairs(count=4_000):
        # count two-dot blocks over shuffled dots, listed in shuffled order
        rng = random.Random(4_000)
        dots = list(range(1, 2 * count + 1))
        rng.shuffle(dots)
        return 2 * count, [dots[i : i + 2] for i in range(0, 2 * count, 2)]

    def test_labels_follow_their_dots_through_a_large_shuffle(self):
        n, blocks = self._shuffled_pairs()
        labeled = range(0, len(blocks), 2)
        hd = HalfDiagram(n, blocks, labeled)
        assert len(hd.blocks) == 4_000 and hd.r == 2_000
        assert {hd.blocks[i] for i in hd.labeled} == {tuple(sorted(blocks[i])) for i in labeled}

    def test_labeling_costs_a_small_factor_of_construction(self):
        # A linear scan per label for its canonical block made labeling
        # 2,000 of these blocks cost about 9 times the unlabeled construction
        # (about 1.1 times without it).  Best of five in this process's CPU
        # time, so other load on the host does not fail it.
        n, blocks = self._shuffled_pairs()
        labeled = list(range(0, len(blocks), 2))

        def best(labels):
            times = []
            for _ in range(5):
                start = time.process_time()
                HalfDiagram(n, blocks, labels)
                times.append(time.process_time() - start)
            return min(times)

        assert best(labeled) < 3 * best(())

    def test_json_round_trip(self):
        hd = HalfDiagram.from_json(ACT_INPUT)
        assert HalfDiagram.from_json(hd.to_json()) == hd
        assert hd.r == 2

    @pytest.mark.parametrize("data", [[ACT_INPUT], "n", {"n": 2}], ids=["list", "str", "no-blocks"])
    def test_from_json_needs_an_object_with_n_and_blocks(self, data):
        message = "half-diagram JSON must be an object with 'n' and 'blocks'"
        with pytest.raises(ValueError, match=f"^{message}$") as caught:
            HalfDiagram.from_json(data)
        assert type(caught.value) is ValueError


class TestScaledHalfDiagram:
    @pytest.mark.parametrize("coeff", [2, None, "δ"], ids=["int", "none", "str"])
    def test_rejects_non_polynomial_coefficient(self, coeff):
        message = re.escape(f"coefficient {coeff!r} is not a DeltaPolynomial")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            ScaledHalfDiagram(coeff, HalfDiagram(2, [[1], [2]], [0]))

    @pytest.mark.parametrize(
        "diagram", [SetPartitionDiagram.identity(2), "{1,2}*"], ids=["full-diagram", "str"]
    )
    def test_rejects_non_half_diagram(self, diagram):
        message = re.escape(f"scaled value {diagram!r} is not a HalfDiagram or None")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            ScaledHalfDiagram(DeltaPolynomial.one(), diagram)

    def test_repr(self):
        scaled = ScaledHalfDiagram(DeltaPolynomial.delta_power(1), HalfDiagram(2, [[1], [2]], [1]))
        assert repr(scaled) == "ScaledHalfDiagram(δ · {{1},{2}*})"
        assert repr(ScaledHalfDiagram.zero()) == "ScaledHalfDiagram(0)"

    def test_zero_coefficient_or_no_diagram_is_zero(self):
        v = HalfDiagram(2, [[1], [2]], [0])
        for value in (ScaledHalfDiagram(DeltaPolynomial.zero(), v), ScaledHalfDiagram(DeltaPolynomial.one(), None)):
            assert value == ScaledHalfDiagram.zero()
            assert value.render() == "0"


class TestAction:
    def test_worked_example(self):
        d = SetPartitionDiagram(6, ACT_DIAGRAM)
        v = HalfDiagram.from_json(ACT_INPUT)
        result = act(d, v)
        assert result == ScaledHalfDiagram(
            DeltaPolynomial.delta_power(1), HalfDiagram.from_json(ACT_RESULT)
        )

    def test_worked_vanishing_example(self):
        d = SetPartitionDiagram(6, ACT_ZERO_DIAGRAM)
        v = HalfDiagram.from_json(ACT_INPUT)
        assert act(d, v).is_zero

    def test_identity_action(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            v = random_half_diagram(rng, n)
            assert act(SetPartitionDiagram.identity(n), v) == ScaledHalfDiagram(
                DeltaPolynomial.one(), v
            )

    def test_degree_mismatch(self):
        with pytest.raises(InvariantViolation):
            act(SetPartitionDiagram.identity(3), HalfDiagram(2, [[1], [2]]))

    def test_label_monotone_sampled(self):
        rng = random.Random(29)

        for _ in range(300):
            n = rng.randint(1, 4)
            d = random_diagram(rng, n)
            v = random_half_diagram(rng, n)
            _, top = act_top(d, v)
            assert top.r <= v.r

    def test_stack_then_act_associativity(self):
        rng = random.Random(31)

        for _ in range(300):
            n = rng.randint(1, 4)
            d1, d2 = random_diagram(rng, n), random_diagram(rng, n)
            v = random_half_diagram(rng, n)
            t, d12 = compose(d1, d2)
            lhs = act(d12, v).scaled(DeltaPolynomial.delta_power(t))
            inner = act(d2, v)
            rhs = (
                ScaledHalfDiagram.zero()
                if inner.is_zero
                else act(d1, inner.diagram).scaled(inner.coeff)
            )
            assert lhs == rhs


class TestBasis:
    def test_two_dots_one_label(self):
        basis = enumerate_basis(2, 1)
        assert len(basis) == 3
        assert basis == [
            HalfDiagram(2, [[1, 2]], [0]),
            HalfDiagram(2, [[1], [2]], [0]),
            HalfDiagram(2, [[1], [2]], [1]),
        ]

    def test_two_dots_two_labels(self):
        assert enumerate_basis(2, 2) == [HalfDiagram(2, [[1], [2]], [0, 1])]

    def test_membership_of_worked_eight_dot_elements(self):
        basis = set(enumerate_basis(8, 4))
        paired = HalfDiagram(8, [[1, 3], [2, 4], [5], [6], [7], [8]], labeled=[1, 2, 4, 5])
        assert paired in basis
        all_singletons = HalfDiagram(
            8, [[1, 3], [2], [4], [5], [6], [7], [8]], labeled=[1, 2, 3, 5]
        )
        assert all_singletons in basis

    def test_label_overflow_empty(self):
        assert enumerate_basis(3, 4) == []

    def test_counts_match_formula(self):
        for n in range(7):
            for r in range(n + 2):
                assert len(enumerate_basis(n, r)) == half_diagram_count(n, r)

    def test_basis_is_canonical_to_degree_six(self):
        # enumerate_basis skips validation; the checked constructor is its oracle
        for n in range(7):
            for r in range(n + 1):
                for hd in enumerate_basis(n, r):
                    checked = HalfDiagram(n, hd.blocks, hd.labeled)
                    assert (checked, checked.blocks, checked.labeled) == (hd, hd.blocks, hd.labeled)

    def test_set_partition_counts_are_bell(self):
        for n in range(8):
            assert len(set_partitions(n)) == bell(n)

    def test_enumeration_keeps_nothing_once_dropped(self):
        # Listing 55 diagrams walks all 115,975 set partitions of 10 dots; a
        # memo of those tuples would keep about 20 MiB after the call.
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(enumerate_basis(10, 9)) == 55
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4 * 2**20

    def test_stirling_row(self):
        assert [stirling2(6, k) for k in range(7)] == [0, 1, 31, 90, 65, 15, 1]

    def test_counts_past_the_frame_limit_on_a_cold_cache(self):
        # Bell numbers from the Bell triangle: each row starts with the last
        # entry of the row before, and each entry adds its left neighbour to
        # the entry above that neighbour; row n starts with B(n).
        top = 1102
        row, bells = [1], [1]
        for _ in range(top):
            new = [row[-1]]
            for value in row:
                new.append(new[-1] + value)
            row = new
            bells.append(row[0])
        # sum_k k S(n, k) = B(n + 1) - B(n) and sum_k C(k, 2) S(n, k) =
        # (B(n + 2) - 3 B(n + 1) + B(n)) / 2, from S(n + 1, k) = k S(n, k) + S(n, k - 1)
        n = top - 2
        calls = [
            (lambda: bell(n), bells[n]),
            (lambda: half_diagram_count(n, 2), (bells[n + 2] - 3 * bells[n + 1] + bells[n]) // 2),
            (lambda: dim_standard(n, (1,)), bells[n + 1] - bells[n]),
        ]
        for call, expected in calls:
            halfdiag._stirling_row.cache_clear()
            half_diagram_count.cache_clear()
            assert call() == expected


class TestDimensions:
    def test_degree_two_single_label(self):
        assert dim_standard(2, (1,)) == 3

    def test_full_label_row(self):
        for n in range(1, 7):
            assert dim_standard(n, (n,)) == 1

    def test_oversized_index_rejected(self):
        with pytest.raises(ValueError):
            dim_standard(2, (2, 1))

    def test_negative_degree_rejected_by_name(self):
        # once worded as a size comparison against the degree
        for nu in ((), (1,)):
            with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got -1$"):
                dim_standard(-1, nu)

    def test_wedderburn_sum_degree_two(self):
        total = sum(dim_standard(2, nu) ** 2 for nu in partitions_up_to(2))
        assert total == 15 == bell(4)

    def test_wedderburn_sum_to_degree_four(self):
        for n in range(1, 5):
            total = sum(dim_standard(n, nu) ** 2 for nu in partitions_up_to(n))
            assert total == bell(2 * n)
        assert bell(8) == 4140

    @staticmethod
    def schur_weyl_total(k, N):
        """Sum of f^ν[N] · dim_standard(k, ν) over |ν| <= k with ν[N] = (N - |ν|, ν) a partition."""
        return sum(
            syt_count((N - sum(nu), *nu)) * dim_standard(k, nu)
            for nu in partitions_up_to(k)
            if N - sum(nu) >= (nu[0] if nu else 0)
        )

    def test_schur_weyl_dimension_identity(self):
        # V^{⊗k} for dim V = N splits over S_N × P_k(N) as the sum of
        # S^ν[N] ⊗ (standard module ν); it counts N^k once N >= 2k - 1.
        for k in range(11):
            for N in range(max(2 * k - 1, 1), 2 * k + 4):
                assert self.schur_weyl_total(k, N) == N**k, (k, N)

    def test_schur_weyl_identity_fails_below_the_faithfulness_bound(self):
        for k in range(2, 11):
            assert self.schur_weyl_total(k, 2 * k - 2) != (2 * k - 2) ** k, k

"""Coefficient engine checks: tableau counts, LR, characters, Kronecker."""

import re
from enum import IntEnum
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg import symfunc
from diagalg.multiplicity import _three_part_table
from diagalg.symfunc import (
    _conjugate,
    _contains,
    _partitions_inside,
    centralizer_order,
    check_partition,
    kronecker_coeff,
    lr_coeff,
    mn_character,
    partitions_of,
    syt_count,
)

from math import comb, factorial

from kronecker_oracle import character_by_beta_set, kronecker_by_fraction_sum
from lr_oracle import lr_coeff_by_recursive_fill, lr_coeff_by_symbol_addition


def partitions_brute(n):
    """Oracle: partitions of n as multisets of parts, in decreasing lexicographic order."""
    found = {
        tuple(sorted(parts, reverse=True))
        for k in range(n + 1)
        for parts in combinations_with_replacement(range(1, n + 1), k)
        if sum(parts) == n
    }
    return tuple(sorted(found, reverse=True))


def syt_count_brute(shape):
    """Oracle: count standard fillings as downward chains of shapes."""
    shape = tuple(shape)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] > (shape[i + 1] if i + 1 < len(shape) else 0):
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            total += syt_count_brute(tuple(smaller))
    return total


def check_partition_reference(parts):
    """Oracle: check_partition's validation loops, kept here as a separate copy."""
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts!r}")
    return p


class Part(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


CONTAINERS = {"tuple": tuple, "list": list, "generator": lambda items: (x for x in items)}
PART_VALUES = st.one_of(
    st.integers(-2, 6), st.booleans(), st.sampled_from(list(Part)), st.sampled_from(["1", "a", 2.0])
)
PART_LISTS = st.one_of(
    st.lists(PART_VALUES, max_size=5),
    st.lists(st.integers(1, 6), max_size=5).map(lambda xs: sorted(xs, reverse=True)),
)


def check_outcome(check, container, items):
    """A value with its element types, or an exception type and message."""
    parts = CONTAINERS[container](items)
    try:
        value = check(parts)
    except ValueError as exc:
        # a generator's repr carries its address, which differs between calls
        return ValueError, str(exc).replace(repr(parts), "<input>")
    return value, [type(x) for x in value]


# classic character tables, frozen by hand:
# S_2 classes (1,1), (2); S_3 classes (1,1,1), (2,1), (3)
S2_TABLE = {
    (2,): {(1, 1): 1, (2,): 1},
    (1, 1): {(1, 1): 1, (2,): -1},
}
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}


class TestPartitions:
    def test_validation_rejects_increasing(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))

    def test_validation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_partition((3, 0))
        with pytest.raises(ValueError):
            check_partition((3, -1))

    def test_empty_partition_is_valid(self):
        assert check_partition(()) == ()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CONTAINERS)), PART_LISTS)
    @example("tuple", [True])
    @example("generator", [2, True])
    @example("list", [Part.TWO, Part.ONE])
    @example("generator", [3, 1])
    @example("tuple", [1, 2])
    @example("tuple", [3, 0])
    def test_matches_reference(self, container, items):
        assert check_outcome(check_partition, container, items) == check_outcome(
            check_partition_reference, container, items
        )

    @pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "function, args",
        [(lr_coeff, ((1,), (1,), (2,))), (syt_count, ((2, 1),)), (kronecker_coeff, ((2, 1), (2, 1), (2, 1)))],
        ids=["lr_coeff", "syt_count", "kronecker_coeff"],
    )
    def test_warm_memo_rejects_what_a_cold_call_rejects(self, function, args, bad):
        # True and 1.0 hash like 1, so a memo read before the check would
        # answer them from the entry the int call left behind
        function(*args)
        shape = (*args[0][:-1], bad)
        message = f"partition parts must be positive integers, got {shape!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(shape, *args[1:])

    def test_partition_counts(self):
        assert [len(partitions_of(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_partitions_of_matches_brute_force(self):
        for n in range(9):
            assert partitions_of(n) == partitions_brute(n)

    def test_bounded_builder_is_filtered_partitions_of(self):
        for size in range(9):
            for outer in partitions_of(size):
                for k in range(size + 2):
                    expected = tuple(p for p in partitions_of(k) if _contains(outer, p))
                    assert _partitions_inside(k, outer) == expected

    def test_conjugate(self):
        assert _conjugate((3, 2, 1)) == (3, 2, 1)
        assert _conjugate((4, 1)) == (2, 1, 1, 1)
        assert _conjugate(()) == ()


class TestSytCount:
    def test_staircase(self):
        assert syt_count((3, 2, 1)) == 16

    def test_single_row(self):
        for n in range(1, 9):
            assert syt_count((n,)) == 1

    def test_empty(self):
        assert syt_count(()) == 1

    def test_hook_matches_enumeration_to_size_8(self):
        for size in range(9):
            for shape in partitions_of(size):
                assert syt_count(shape) == syt_count_brute(shape), shape

    def test_indivisible_hook_product_raises(self, monkeypatch):
        # a plain raise, so the check survives python -O
        monkeypatch.setattr(symfunc, "factorial", lambda n: factorial(n) + 1)
        symfunc._syt_count.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="hook product must divide n!"):
                syt_count((2, 1))
        finally:
            symfunc._syt_count.cache_clear()


class TestLRCoeff:
    def test_golden_pair(self):
        assert lr_coeff((2,), (2, 1), (3, 2)) == 1

    def test_golden_set_of_size_five(self):
        ones = {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
        for nu in partitions_of(5):
            expected = 1 if nu in ones else 0
            assert lr_coeff((2,), (2, 1), nu) == expected, nu

    def test_size_mismatch_is_zero(self):
        assert lr_coeff((2,), (2, 1), (5,)) == 0
        assert lr_coeff((2,), (2, 1), (9,)) == 0

    def test_one_row_splitting(self):
        for r in range(7):
            for k in range(r + 1):
                lam = (k,) if k else ()
                mu = (r - k,) if r - k else ()
                nu = (r,) if r else ()
                assert lr_coeff(lam, mu, nu) == 1

    def test_symmetry_in_first_two_arguments(self):
        for a_size in range(6):
            for b_size in range(a_size + 1):  # the swapped pair covers the rest
                for lam in partitions_of(a_size):
                    for mu in partitions_of(b_size):
                        for nu in partitions_of(a_size + b_size):
                            assert lr_coeff(lam, mu, nu) == lr_coeff(mu, lam, nu)

    def test_two_routes_agree_to_size_five(self):
        for a_size in range(6):
            for b_size in range(6 - a_size):
                for lam in partitions_of(a_size):
                    for mu in partitions_of(b_size):
                        for nu in partitions_of(a_size + b_size):
                            assert lr_coeff(lam, mu, nu) == lr_coeff_by_symbol_addition(
                                lam, mu, nu
                            ), (lam, mu, nu)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_two_routes_agree_to_size_eight(self, data):
        a_size = data.draw(st.integers(0, 8))
        b_size = data.draw(st.integers(0, 8 - a_size))
        lam = data.draw(st.sampled_from(partitions_of(a_size)))
        mu = data.draw(st.sampled_from(partitions_of(b_size)))
        nu = data.draw(st.sampled_from(partitions_of(a_size + b_size)))
        assert lr_coeff(lam, mu, nu) == lr_coeff_by_symbol_addition(lam, mu, nu)

    def test_explicit_stack_matches_recursive_fill(self):
        # every (lam, mu, nu) with lam inside nu and |nu| <= 9
        cases = 0
        for size in range(10):
            for nu in partitions_of(size):
                for lam_size in range(size + 1):
                    for lam in _partitions_inside(lam_size, nu):
                        for mu in partitions_of(size - lam_size):
                            assert lr_coeff(lam, mu, nu) == lr_coeff_by_recursive_fill(lam, mu, nu), (lam, mu, nu)
                            cases += 1
        assert cases == 9_381

    def test_deep_fillings_from_a_cold_cache(self):
        # thousands of cells in one skew shape; the recursive fill would
        # stop at Python's frame limit near 1,000
        symfunc._lr_coeff.cache_clear()
        try:
            assert lr_coeff((), (5000,), (5000,)) == 1
            assert lr_coeff((3000,), (3000,), (3000, 3000)) == 1
            assert lr_coeff((2999,), (3000,), (3000, 2999)) == 1
            assert lr_coeff((), (3000, 1), (3000, 1)) == 1
        finally:
            symfunc._lr_coeff.cache_clear()

    def test_branching_total(self):
        # sum over nu of c * f^nu equals C(|lam|+|mu|, |lam|) f^lam f^mu
        for a_size in range(5):
            for b_size in range(5 - a_size):
                for lam in partitions_of(a_size):
                    for mu in partitions_of(b_size):
                        total = sum(
                            lr_coeff(lam, mu, nu) * syt_count(nu)
                            for nu in partitions_of(a_size + b_size)
                        )
                        expected = comb(a_size + b_size, a_size) * syt_count(lam) * syt_count(mu)
                        assert total == expected, (lam, mu)


def three_part_coeff(lam, mu, eta, nu):
    """Three-part coefficient of ``nu`` over (lam, mu, eta), read from the engine's table."""
    table = _three_part_table(nu, sum(lam), sum(mu), sum(eta))
    return table.get(lam, {}).get(eta, {}).get(mu, 0)


class TestLR3:
    def test_one_row_triples(self):
        for r in range(7):
            for k in range(r + 1):
                for m in range(r - k + 1):
                    lam = (k,) if k else ()
                    mu = (m,) if m else ()
                    eta = (r - k - m,) if r - k - m else ()
                    assert three_part_coeff(lam, mu, eta, (r,) if r else ()) == 1

    def test_multirow_first_argument_vanishes_on_one_row(self):
        assert three_part_coeff((1, 1), (1,), (1,), (3,)) == 0

    def test_intermediate_sum(self):
        # xi = (2) and xi = (1, 1) each give 1; the table stores (alpha, beta, eta) at [alpha][eta][beta]
        assert _three_part_table((2, 1), 1, 1, 1)[(1,)][(1,)][(1,)] == 2

    def test_sizes_off_the_shape_give_an_empty_table(self):
        # the table holds no size test of its own: each Littlewood-Richardson
        # coefficient it reads is 0 when the sizes do not add up
        for size in range(5):
            for nu in partitions_of(size):
                for sizes in product(range(6), repeat=3):
                    if sum(sizes) != size:
                        assert _three_part_table(nu, *sizes) == {}, (nu, sizes)


class TestCharacters:
    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            mn_character((2, 1), (2,))

    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert mn_character((n,), rho) == 1

    def test_s2_s3_tables(self):
        for lam, row in S2_TABLE.items():
            for rho, value in row.items():
                assert mn_character(lam, rho) == value
        for lam, row in S3_TABLE.items():
            for rho, value in row.items():
                assert mn_character(lam, rho) == value

    def test_identity_value_is_dimension(self):
        for n in range(1, 5):
            for lam in partitions_of(n):
                assert mn_character(lam, (1,) * n) == syt_count(lam)

    def test_sign_of_transposition(self):
        assert mn_character((1, 1), (2,)) == -1

    def test_centralizer_and_class_size(self):
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((3,)) == 3
        for n in range(1, 7):
            assert sum(factorial(n) // centralizer_order(rho) for rho in partitions_of(n)) == factorial(n)

    def test_index_arithmetic_matches_beta_set_route(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    assert mn_character(lam, rho) == character_by_beta_set(lam, rho), (lam, rho)

    def test_column_orthogonality_small(self):
        # sum over shapes of chi(rho)^2 equals the centralizer order at rho
        for n in range(1, 7):
            for rho in partitions_of(n):
                total = sum(mn_character(lam, rho) ** 2 for lam in partitions_of(n))
                assert total == centralizer_order(rho)


class TestKronecker:
    def test_all_trivial(self):
        for n in range(1, 7):
            assert kronecker_coeff((n,), (n,), (n,)) == 1

    def test_sign_times_sign(self):
        assert kronecker_coeff((1, 1), (1, 1), (2,)) == 1

    def test_trivial_times_sign(self):
        assert kronecker_coeff((2,), (1, 1), (2,)) == 0

    def test_size_mismatch_is_zero(self):
        assert kronecker_coeff((2,), (1,), (2,)) == 0

    def test_full_symmetry_to_size_five(self):
        for n in range(1, 6):
            shapes = partitions_of(n)
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        base = kronecker_coeff(lam, mu, nu)
                        for a, b, c in permutations((lam, mu, nu)):
                            assert kronecker_coeff(a, b, c) == base

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(6, 8).flatmap(lambda n: st.tuples(*[st.sampled_from(partitions_of(n))] * 3)))
    def test_full_symmetry_at_sizes_six_to_eight(self, triple):
        values = {kronecker_coeff(a, b, c) for a, b, c in permutations(triple)}
        assert len(values) == 1

    def test_tensor_square_dimension(self):
        # sum over nu of g * f^nu equals f^lam * f^mu
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum(
                        kronecker_coeff(lam, mu, nu) * syt_count(nu)
                        for nu in partitions_of(n)
                    )
                    assert total == syt_count(lam) * syt_count(mu)

    def test_integer_sum_matches_fraction_sum_to_size_seven(self):
        cases = 0
        for n in range(8):
            shapes = partitions_of(n)
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        assert kronecker_coeff(lam, mu, nu) == kronecker_by_fraction_sum(lam, mu, nu), (lam, mu, nu)
                        cases += 1
        assert cases == sum(len(partitions_of(n)) ** 3 for n in range(8)) == 5_211

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(8, 12).flatmap(lambda n: st.tuples(*[st.sampled_from(partitions_of(n))] * 3)))
    def test_integer_sum_matches_fraction_sum_at_sizes_eight_to_twelve(self, triple):
        assert kronecker_coeff(*triple) == kronecker_by_fraction_sum(*triple)

    def test_indivisible_or_negative_class_sum_raises(self, monkeypatch):
        # The class sum of (2,1)^3 over 3! is 1/6 with chi = 1 on the
        # identity class alone, and -1 with chi = -1 on every class.  With
        # z = 7 on every class, no class size is an integer, though their
        # floors (all 0) would sum to a multiple of 3!.
        for name, stand_in in (
            ("_char_on_beta", lambda beta, rho: int(rho == (1, 1, 1))),
            ("_char_on_beta", lambda beta, rho: -1),
            ("centralizer_order", lambda rho: 7),
        ):
            monkeypatch.setattr(symfunc, name, stand_in)
            symfunc._class_sizes.cache_clear()  # the class sizes are memoized per n
            try:
                with pytest.raises(ArithmeticError, match="^character sum is not a non-negative integer$"):
                    kronecker_coeff((2, 1), (2, 1), (2, 1))
            finally:
                monkeypatch.undo()
                symfunc._class_sizes.cache_clear()

    def test_non_integral_character_sum_raises(self, monkeypatch):
        # (2,1)^3 has neither a one-row nor a one-column argument, so it
        # takes the character sum; doubled centralizers make it 1/2
        monkeypatch.setattr(symfunc, "centralizer_order", lambda rho: 2 * centralizer_order(rho))
        symfunc._class_sizes.cache_clear()  # the class sizes are memoized per n
        try:
            with pytest.raises(ArithmeticError, match="character sum is not a non-negative integer"):
                kronecker_coeff((2, 1), (2, 1), (2, 1))
        finally:
            symfunc._class_sizes.cache_clear()

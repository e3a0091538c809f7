"""Multiplicity engines: closed form, enumerations, coefficient sum, symmetry."""

from enum import IntEnum
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg import multiplicity, verify
from diagalg.halfdiag import dim_standard, half_diagram_count, partitions_up_to
from diagalg.multiplicity import (
    _e_closed,
    _join,
    _restriction_kernel,
    _splits,
    _three_part_table,
    _weighted_side,
    admissible_degree_pairs,
    bvo_multiplicity,
    e2_lattice,
    e_closed,
    e_lattice,
    lattice_line_count,
    one_part,
    restriction_dimension_total,
)
from diagalg.symfunc import kronecker_coeff, partitions_of, syt_count
from diagalg.walled import WalledIndex, census
from kronecker_oracle import kronecker_by_fraction_sum
from lr_oracle import lr_coeff_by_symbol_addition
from restriction_oracle import restriction_by_cycle_types


# Test-only reference for the coefficient sum: every partition of every
# size, the symbol-addition LR route and the Fraction class-sum Kronecker
# coefficient, so it shares no pruning and no shortcut with the engine.


@cache
def _lr_reference(lam, mu, nu):
    return lr_coeff_by_symbol_addition(lam, mu, nu)


@cache
def _three_part_reference(nu, s1, s2, s3):
    out = {}
    if s1 + s2 + s3 != sum(nu):
        return out
    for eta in partitions_of(s3):
        for xi in partitions_of(s1 + s2):
            c_outer = _lr_reference(xi, eta, nu)
            if not c_outer:
                continue
            for alpha in partitions_of(s1):
                for beta in partitions_of(s2):
                    c_inner = _lr_reference(alpha, beta, xi)
                    if c_inner:
                        key = (alpha, beta, eta)
                        out[key] = out.get(key, 0) + c_outer * c_inner
    return out


def bvo_reference(nu, lam, mu):
    budget = sum(lam) + sum(mu) - sum(nu)
    if budget < 0:
        return 0
    total = 0
    for l2 in range(budget // 2 + 1):
        l1 = budget - 2 * l2
        a_size = sum(lam) - l1 - l2
        b_size = sum(mu) - l1 - l2
        if a_size < 0 or b_size < 0:
            continue
        table_nu = _three_part_reference(nu, a_size, b_size, l1)
        table_lam = _three_part_reference(lam, a_size, l1, l2)
        table_mu = _three_part_reference(mu, l2, l1, b_size)
        by_gamma = {}
        for (gamma, sigma, beta), c in table_mu.items():
            by_gamma.setdefault(gamma, []).append((sigma, beta, c))
        for (alpha, rho, gamma), c_lam in table_lam.items():
            for sigma, beta, c_mu in by_gamma.get(gamma, ()):
                for pi in partitions_of(l1):
                    c_nu = table_nu.get((alpha, beta, pi))
                    if c_nu:
                        total += c_nu * c_lam * c_mu * kronecker_by_fraction_sum(pi, rho, sigma)
    return total


def restriction_total_reference(m, n, r):
    """Oracle: one checked bvo_multiplicity call per (lam, mu) pair."""
    nu = one_part(r)
    return sum(
        bvo_multiplicity(nu, lam, mu, m, n) * dim_standard(m, lam) * dim_standard(n, mu)
        for lam in partitions_up_to(m)
        for mu in partitions_up_to(n)
    )


def restriction_kernel_reference(nu, a, b):
    """Oracle: K(nu; a, b) = syt(nu) * sum over c of C(a, c) * C(b, c) * c! * C(c, |nu| + 2c - a - b).

    The sum counts the reassembly set of a left and b right marked blocks:
    c of each side cross the wall, their cut ends are matched in c! ways,
    and |nu| + 2c - a - b of the matched pairs carry a label.  No LR or
    Kronecker coefficient enters it.
    """
    total = 0
    for c in range(min(a, b) + 1):
        labeled = sum(nu) + 2 * c - a - b
        if 0 <= labeled <= c:
            total += reassembly_count(a, b, c, labeled)
    return syt_count(nu) * total


def reassembly_count(a, b, c, labeled):
    """C(a, c) * C(b, c) * c! * C(c, labeled): c blocks of each side cross, matched, ``labeled`` of them labeled."""
    return comb(a, c) * comb(b, c) * factorial(c) * comb(c, labeled)


def lam_table(idx, lam):
    """The lam table of the strand split ``idx`` = (U; T, L, R)."""
    return _three_part_table(lam, idx.left_labeled, idx.through_labeled, idx.through_unlabeled)


def mu_table(idx, mu):
    """The mu table of the strand split ``idx`` = (U; T, L, R)."""
    return _three_part_table(mu, idx.through_unlabeled, idx.through_labeled, idx.right_labeled)


def weighted_table(weighted_tables):
    """Sum weight * table over (three-part table, weight) pairs, entry by entry, nested as one table.

    A plain loop over flat (gamma, beta, sigma) keys, so the tests build
    their weighted mu sums without the engine's fold, ``_weighted_side``.
    """
    flat = {}
    for table, weight in weighted_tables:
        for gamma, by_beta in table.items():
            for beta, by_sigma in by_beta.items():
                for sigma, c in by_sigma.items():
                    flat[gamma, beta, sigma] = flat.get((gamma, beta, sigma), 0) + weight * c
    nested = {}
    for (gamma, beta, sigma), c in flat.items():
        if c:
            nested.setdefault(gamma, {}).setdefault(beta, {})[sigma] = c
    return nested


def e_lattice_reference(p, q, r):
    """Oracle: every (T, U) pair tried, with no forced U."""
    solutions = []
    for t in range(r + 1):
        for u in range(min(p, q) + 1):
            left = p - t - u
            right = q - t - u
            if left >= 0 and right >= 0 and t + left + right == r:
                solutions.append(WalledIndex(u, t, left, right))
    return len(solutions), solutions


@st.composite
def bvo_cases(draw, max_degree):
    m = draw(st.integers(0, max_degree))
    n = draw(st.integers(0, max_degree))
    lam = draw(st.sampled_from(list(partitions_up_to(m))))
    mu = draw(st.sampled_from(list(partitions_up_to(n))))
    # |nu| > |lam| + |mu| gives zero by the size count alone
    nu = draw(st.sampled_from(list(partitions_up_to(sum(lam) + sum(mu)))))
    return nu, lam, mu, m, n


class Count(IntEnum):
    THREE = 3
    FOUR = 4


class TestCountChecks:
    ENGINES = (e_closed, e_lattice, e2_lattice)

    def test_bad_counts_rejected_with_the_name_of_the_first(self):
        for bad in (True, False, -1, -(10**12), 1.0, 2.5):
            for engine in self.ENGINES:
                for args, name in (((bad, -1, bad), "p"), ((3, bad, -1), "q"), ((3, 4, bad), "r")):
                    with pytest.raises(ValueError) as caught:
                        engine(*args)
                    assert str(caught.value) == f"{name} must be a non-negative integer, got {bad!r}", (engine, args)

    def test_int_subclass_counts_accepted(self):
        for engine in self.ENGINES:
            assert engine(Count.THREE, Count.FOUR, 5) == engine(3, 4, 5)
            assert engine(4, 3, Count.FOUR) == engine(4, 3, 4)


class TestClosedForm:
    def test_two_two_two(self):
        assert e_closed(2, 2, 2) == 2

    def test_above_band(self):
        assert e_closed(1, 1, 3) == 0

    def test_band_boundaries_are_one(self):
        for p in range(7):
            for q in range(7):
                assert e_closed(p, q, p + q) == 1
                assert e_closed(p, q, abs(p - q)) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            e_closed(-1, 2, 2)

    def test_all_zero(self):
        assert e_closed(0, 0, 0) == 1

    def test_unchecked_kernel_matches_the_checked_route_to_forty(self):
        # geometry_summary reads its closed form from the kernel, past the checks
        for p, q, r in product(range(41), repeat=3):
            assert _e_closed(p, q, r) == e_closed(p, q, r)


class TestSystemEnumeration:
    def test_one_one_one(self):
        count, sols = e_lattice(1, 1, 1)
        assert count == 1
        assert sols == [WalledIndex(0, 1, 0, 0)]

    def test_one_one_zero(self):
        count, sols = e_lattice(1, 1, 0)
        assert count == 1
        assert sols == [WalledIndex(1, 0, 0, 0)]

    def test_zero_first_parameter(self):
        for q in range(7):
            for r in range(7):
                count, _ = e_lattice(0, q, r)
                assert count == (1 if q == r else 0)

    def test_two_two_two_solutions(self):
        count, sols = e_lattice(2, 2, 2)
        assert count == 2
        assert set(sols) == {WalledIndex(0, 2, 0, 0), WalledIndex(1, 0, 1, 1)}

    def test_matches_reference_up_to_thirty(self):
        for p in range(31):
            for q in range(31):
                for r in range(31):
                    assert e_lattice(p, q, r) == e_lattice_reference(p, q, r), (p, q, r)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 5_000), st.integers(0, 5_000), st.integers(0, 5_000))
    def test_engines_agree_on_large_triples(self, p, q, r):
        assert e_closed(p, q, r) == e_lattice(p, q, r)[0] == e2_lattice(p, q, r)

    def test_solutions_satisfy_side_sums(self):
        for p in range(6):
            for q in range(6):
                for r in range(6):
                    for s in e_lattice(p, q, r)[1]:
                        shared = s.through_labeled + s.through_unlabeled
                        assert shared + s.left_labeled == p
                        assert shared + s.right_labeled == q
                        assert s.through_labeled + s.left_labeled + s.right_labeled == r

    def test_solutions_are_the_census_indices_with_these_side_sums(self):
        # The paper's decomposition of half-diagrams: cut at the wall, an
        # (m|n, r)-walled half-diagram of index (U; T, L, R) carries
        # U + T + L marked blocks on the left and U + T + R on the right.
        cases = 0
        for p, q in product(range(8), repeat=2):
            for r in range(p + q + 2):
                found = e_lattice(p, q, r)[1]
                for m, n in ((p, q), (p + 1, q + 2)):
                    if m + n < r:
                        continue
                    layer = [
                        idx
                        for idx in census(m, n, r)
                        if idx.through_unlabeled + idx.through_labeled + idx.left_labeled == p
                        and idx.through_unlabeled + idx.through_labeled + idx.right_labeled == q
                    ]
                    assert found == sorted(layer, key=lambda idx: idx.through_labeled), (p, q, r, m, n)
                    cases += 1
        assert cases == 1088


class TestLatticeCount:
    def test_figure_values(self):
        assert lattice_line_count(6, 8) == 3
        assert lattice_line_count(6, 5) == 3

    def test_negative_height_empty(self):
        assert lattice_line_count(4, -2) == 0
        assert e2_lattice(1, 1, 5) == 0

    def test_matches_system_enumeration(self):
        for p in range(9):
            for q in range(9):
                for r in range(9):
                    assert e2_lattice(p, q, r) == e_lattice(p, q, r)[0]


class TestCoefficientSum:
    def test_one_part_examples(self):
        assert bvo_multiplicity((2,), (1,), (1,), 1, 1) == 1
        assert bvo_multiplicity((2,), (2,), (2,), 2, 2) == 2
        assert bvo_multiplicity((1, 1), (1,), (1,), 1, 1) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bvo_multiplicity((3,), (1,), (1,), 1, 1)
        with pytest.raises(ValueError):
            bvo_multiplicity((1,), (2,), (1,), 1, 1)
        with pytest.raises(ValueError):
            bvo_multiplicity((1,), (1,), (2,), 1, 1)

    def test_degrees_are_checked(self):
        # m and n were read only in the size comparisons, so 1.5 and True
        # were accepted and -1 was reported as a total degree of -1
        for bad in (1.5, True, -1):
            for m, n, name in ((bad, 0, "m"), (1, bad, "n")):
                with pytest.raises(ValueError) as caught:
                    bvo_multiplicity((1,), (1,), (), m, n)
                assert str(caught.value) == f"{name} must be a non-negative integer, got {bad!r}"

    def test_degree_free_on_samples(self):
        for p, q, r in [(1, 2, 1), (3, 2, 3), (2, 2, 0), (4, 1, 3)]:
            (m1, n1), (m2, n2) = admissible_degree_pairs(p, q, r)
            v1 = bvo_multiplicity(one_part(r), one_part(p), one_part(q), m1, n1)
            v2 = bvo_multiplicity(one_part(r), one_part(p), one_part(q), m2, n2)
            assert v1 == v2 == e_closed(p, q, r)

    def test_general_shapes_against_dimension_identity(self):
        for m in range(7):
            for n in range(7):
                for r in range(m + n + 1):
                    assert restriction_dimension_total(m, n, r) == half_diagram_count(
                        m + n, r
                    )

    def test_dimension_total_rejects_a_bad_r(self):
        # None and '' were once read as r = 0; the others failed inside
        # check_partition with "partition parts must be positive integers"
        for r in (None, "", -1, True, 1.0, "x"):
            with pytest.raises(ValueError) as caught:
                restriction_dimension_total(2, 2, r)
            assert str(caught.value) == f"r must be a non-negative integer, got {r!r}"
        with pytest.raises(ValueError, match=r"^\|nu\| = 5 exceeds total degree 4$"):
            restriction_dimension_total(2, 2, 5)

    def test_dimension_total_rejects_a_negative_degree(self):
        # both once returned 0
        with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got -3$"):
            restriction_dimension_total(2, -3, 1)
        with pytest.raises(ValueError, match=r"^m must be a non-negative integer, got -1$"):
            restriction_dimension_total(-1, 2, 0)

    def test_dimension_total_matches_per_pair_reference(self):
        cases = 0
        for m in range(6):
            for n in range(6):
                for r in range(m + n + 1):
                    expected = restriction_total_reference(m, n, r)
                    assert restriction_dimension_total(m, n, r) == expected, (m, n, r)
                    cases += 1
        assert cases == 216

    def test_two_row_restriction_value(self):
        # restriction of the two-row index (1,1) at degrees (1,1) splits into
        # exactly the label pairs (1,1): dimension bookkeeping pins it to 1
        assert dim_standard(2, (1, 1)) == 1
        assert bvo_multiplicity((1, 1), (1,), (1,), 1, 1) == 1

    def test_matches_reference_up_to_degree_four(self):
        cases = 0
        for m in range(5):
            for n in range(5):
                for nu in partitions_up_to(m + n):
                    for lam in partitions_up_to(m):
                        for mu in partitions_up_to(n):
                            expected = bvo_reference(nu, lam, mu)
                            assert bvo_multiplicity(nu, lam, mu, m, n) == expected, (nu, lam, mu, m, n)
                            cases += 1
        assert cases == 24_617

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bvo_cases(max_degree=6))
    def test_matches_reference_up_to_degree_six(self, case):
        nu, lam, mu, m, n = case
        assert bvo_multiplicity(nu, lam, mu, m, n) == bvo_reference(nu, lam, mu)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bvo_cases(max_degree=6))
    def test_swapping_the_two_sides(self, case):
        # nu's table is split (a, b, l1), lam's (a, l1, l2) and mu's
        # (l2, l1, b), so the swap exercises every table in a new role
        nu, lam, mu, m, n = case
        assert bvo_multiplicity(nu, lam, mu, m, n) == bvo_multiplicity(nu, mu, lam, n, m)

    def test_general_nu_dimension_identity(self):
        # restricting the standard module of index nu to degrees (m, n)
        # keeps its dimension, for every nu and not only one-part ones
        cases = 0
        for m in range(5):
            for n in range(5):
                for nu in partitions_up_to(m + n):
                    total = sum(
                        bvo_multiplicity(nu, lam, mu, m, n) * dim_standard(m, lam) * dim_standard(n, mu)
                        for lam in partitions_up_to(m)
                        for mu in partitions_up_to(n)
                    )
                    assert total == dim_standard(m + n, nu), (nu, m, n)
                    cases += 1
        assert cases == 428

    def test_restriction_kernel_matches_the_reassembly_count(self):
        # every nu the kernel can meet at a, b <= 5, against a count that
        # shares no coefficient code with the engine
        cases = non_zero = 0
        for a in range(6):
            for b in range(6):
                for nu in partitions_up_to(a + b):
                    expected = restriction_kernel_reference(nu, a, b)
                    assert _restriction_kernel(nu, a, b) == expected, (nu, a, b)
                    cases += 1
                    non_zero += expected != 0
        assert (cases, non_zero) == (1_083, 981)


class TestStrandSplits:
    """Each strand split of the coefficient sum is a walled index (U; T, L, R)."""

    def test_split_sums_are_the_reassembly_counts(self):
        # per split, the tableau-weighted join over lam of a and mu of b is
        # syt(nu) * C(a, c) * C(b, c) * c! * C(c, T) with c = U + T; the
        # multi-row pi cover the Kronecker branch of the join
        splits = 0
        for a in range(6):
            for b in range(6):
                for nu in partitions_up_to(a + b):
                    for idx, table_nu in _splits(nu, a, b):
                        u, t, left, right = idx
                        assert (t + left + right, u + t + left, u + t + right) == (sum(nu), a, b)
                        side_mu = weighted_table((mu_table(idx, mu), syt_count(mu)) for mu in partitions_of(b))
                        total = sum(
                            syt_count(lam) * _join(table_nu, lam_table(idx, lam), side_mu) for lam in partitions_of(a)
                        )
                        expected = syt_count(nu) * reassembly_count(a, b, u + t, t)
                        assert total == expected, (nu, a, b, idx)
                        splits += 1
        assert splits == 1_316

    def test_one_part_splits_are_the_system_solutions(self):
        # for one-part shapes the splits with a non-zero join are exactly
        # e_lattice's solutions, each worth 1
        triples = solutions = 0
        for p, q, r in product(range(16), repeat=3):
            joins = {}
            for idx, table_nu in _splits(one_part(r), p, q):
                value = _join(table_nu, lam_table(idx, one_part(p)), mu_table(idx, one_part(q)))
                if value:
                    joins[idx] = value
            assert joins == dict.fromkeys(e_lattice(p, q, r)[1], 1), (p, q, r)
            triples += 1
            solutions += len(joins)
        assert (triples, solutions) == (4_096, 5_220)

    def test_census_cells_from_the_engine(self):
        # identity 2: census(m, n, r)[idx] = hd(m, a) * hd(n, b) * (the split's
        # tableau-weighted join at nu = (r)), with a = U + T + L and b = U + T + R;
        # nothing of index_count_formula enters but hd, and the key sets agree
        cells = 0
        for m in range(1, 7):
            for n in range(1, 7):
                for r in range(m + n + 1):
                    expected = {}
                    for a in range(m + 1):
                        for b in range(n + 1):
                            hd = half_diagram_count(m, a) * half_diagram_count(n, b)
                            for idx, table_nu in _splits(one_part(r), a, b):
                                u, t, left, right = idx
                                joined = _join(table_nu, _weighted_side(left, t, u), _weighted_side(u, t, right))
                                expected[idx] = hd * joined
                    assert census(m, n, r) == expected, (m, n, r)
                    cells += len(expected)
        assert cells == 2_927

    def test_mu_side_is_the_tableau_weighted_table_sum(self):
        # the kernel's weighted side at (s1, s2, s3), read for lam and mu
        # alike, is the sum of syt(shape) times the shape's three-part table,
        # here from the LR reference tables (keyed (alpha, beta, eta), stored
        # [alpha][eta][beta]), with no zero entry and no empty group
        triples = 0
        for s1, s2, s3 in product(range(7), repeat=3):
            if s1 + s2 + s3 > 6:
                continue
            expected = {}
            for shape in partitions_of(s1 + s2 + s3):
                for (alpha, beta, eta), c in _three_part_reference(shape, s1, s2, s3).items():
                    by_beta = expected.setdefault(alpha, {}).setdefault(eta, {})
                    by_beta[beta] = by_beta.get(beta, 0) + syt_count(shape) * c
            side = _weighted_side(s1, s2, s3)
            assert side == expected, (s1, s2, s3)
            assert all(inner and all(leaf and all(leaf.values()) for leaf in inner.values()) for inner in side.values())
            triples += 1
        assert triples == 84

    def test_weighted_side_is_the_product_form(self):
        # at every key, the sum over shapes of syt(shape) * c(alpha, beta, eta)
        # is (s; s1, s2, s3)! * f(alpha) * f(beta) * f(eta), the dimension of
        # the module induced from S_s1 x S_s2 x S_s3; so the keys are dense,
        # every shape triple of the three sizes
        triples = entries = 0
        for s1, s2, s3 in product(range(11), repeat=3):
            if s1 + s2 + s3 > 10:
                continue
            scale = factorial(s1 + s2 + s3) // (factorial(s1) * factorial(s2) * factorial(s3))
            expected = {
                alpha: {
                    eta: {beta: scale * syt_count(alpha) * syt_count(beta) * syt_count(eta) for beta in partitions_of(s2)}
                    for eta in partitions_of(s3)
                }
                for alpha in partitions_of(s1)
            }
            side = _weighted_side(s1, s2, s3)
            assert side == expected, (s1, s2, s3)
            triples += 1
            entries += sum(len(by_beta) for by_eta in side.values() for by_beta in by_eta.values())
        assert (triples, entries) == (286, 5_773)

    def test_one_join_per_strand_split(self, monkeypatch):
        # the kernel joins the split's weighted lam and mu sides in one call:
        # as many calls as strand splits with a non-empty nu table; one call
        # per lam table made 4,408 and one per (lam, mu) pair 38,454
        calls = 0
        join = multiplicity._join

        def counted(*args):
            nonlocal calls
            calls += 1
            return join(*args)

        monkeypatch.setattr(multiplicity, "_join", counted)
        _restriction_kernel.cache_clear()
        for r in range(15):
            restriction_dimension_total(7, 7, r)
        splits = sum(
            len(list(_splits(one_part(r), a, b)))
            for r in range(15)
            for a in range(8)
            for b in range(max(r - a, 0), 8)
        )
        assert calls == splits == 540


class TestRestrictionCharacter:
    """bvo_multiplicity against the reassembly character by cycle types, an oracle free of LR coefficients."""

    def test_matches_the_cycle_type_character_up_to_four(self):
        # every nu with |nu| <= a + b, lam of a and mu of b, for a, b <= 4;
        # the multi-row nu reach the Kronecker branch of the join, which
        # the restriction totals (nu one-row) never do
        cases = non_zero = 0
        for a in range(5):
            for b in range(5):
                for nu in partitions_up_to(a + b):
                    for lam in partitions_of(a):
                        for mu in partitions_of(b):
                            expected = restriction_by_cycle_types(nu, lam, mu)
                            assert bvo_multiplicity(nu, lam, mu, a, b) == expected, (nu, lam, mu)
                            cases += 1
                            non_zero += expected != 0
        assert (cases, non_zero) == (4_648, 2_721)


class TestReducedKronecker:
    """bvo_multiplicity read as the reduced Kronecker coefficient g(nu, lam, mu).

    The stability route shares only kronecker_coeff with the engine, and
    kronecker_coeff has its own oracle, kronecker_by_fraction_sum.
    """

    SHAPES = tuple(partitions_up_to(4))

    @staticmethod
    def _value(nu, lam, mu):
        # the smallest admissible degrees; the value does not depend on them
        return bvo_multiplicity(nu, lam, mu, max(sum(lam), sum(nu)), sum(mu))

    def test_stable_limit_of_kronecker_coefficients(self):
        # g(nu[N], lam[N], mu[N]) with shape[N] = (N - |shape|, *shape) is
        # constant from N = 1 + |nu| + |lam| + |mu| + the largest first part on
        nonzero = 0
        for nu, lam, mu in product(self.SHAPES, repeat=3):
            big = 1 + sum(nu) + sum(lam) + sum(mu) + max((*nu, *lam, *mu), default=0)
            padded = [(big - sum(shape), *shape) for shape in (nu, lam, mu)]
            value = self._value(nu, lam, mu)
            assert value == kronecker_coeff(*padded), (nu, lam, mu)
            nonzero += value > 0
        assert len(self.SHAPES) ** 3 == 1_728
        assert nonzero == 1_065

    def test_symmetric_in_all_three_shapes(self):
        multisets = 0
        for triple in combinations_with_replacement(self.SHAPES, 3):
            values = {self._value(*order) for order in permutations(triple)}
            assert len(values) == 1, (triple, values)
            multisets += 1
        assert multisets == 364


class TestKroneckerShortcut:
    def test_trivial_and_sign_match_character_sum(self):
        # every triple up to size 7 with a one-row or one-column argument
        cases = 0
        for size in range(8):
            shapes = partitions_of(size)
            special = {s for s in shapes if len(s) <= 1 or s[0] == 1}
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        if {lam, mu, nu} & special:
                            assert kronecker_coeff(lam, mu, nu) == kronecker_by_fraction_sum(lam, mu, nu)
                            cases += 1
        assert cases == 2_132


class TestSymmetrySuite:
    # Single triples of the four identities the symmetry-lemma suite checks;
    # each engine is read directly.
    def test_boundary_case(self):
        assert e_closed(3, 2, 5) == e_lattice(3, 2, 5)[0] == 1

    def test_reflection_out_of_band(self):
        # r = 2 lies below the band [3, 5] and its mirror 6 above it
        for r in (2, 6):
            assert e_closed(4, 1, r) == e_lattice(4, 1, r)[0] == 0

    def test_reflection_in_band(self):
        assert e_closed(5, 3, 4) == e_closed(5, 3, 6) == 2
        assert e_lattice(5, 3, 4)[0] == e_lattice(5, 3, 6)[0]

    def test_grid_passes(self):
        # every triple with entries up to 6: the reflection from the lower end
        # of each pair, at the 203 triples with r < max(p, q), and beyond the
        # band at the 28 with r > 2 max(p, q); plus vanishing, boundary_one
        # and zero_parameter at the 56, 64 and 127 triples where they apply
        report = verify.run_suite("symmetry-lemma", 6)
        assert report.ok, report.failures
        assert report.cases == 203 + 28 + 56 + 64 + 127 == 478

    def test_symmetric_in_p_q(self):
        for p in range(8):
            for q in range(8):
                for r in range(8):
                    assert e_closed(p, q, r) == e_closed(q, p, r)

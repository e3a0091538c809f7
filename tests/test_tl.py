"""Planar half-diagrams, ballot counts, and the class product."""

import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from diagalg import tl, verify, walled
from diagalg.diagrams import InvariantViolation
from diagalg.halfdiag import HalfDiagram
from diagalg.multiplicity import e_lattice
from diagalg.tl import (
    GrothElement,
    groth_multiply,
    planar_row,
    tl_basis,
    tl_basis_count,
    tl_e,
)
from diagalg.walled import WalledHalfDiagram, WalledIndex, index_of
from test_multiplicity import Count


def tl_basis_reference(n, r):
    """The former recursive walk: the cap lists of tl_basis(n, r), in its order."""
    if r < 0 or r > n or (n - r) % 2:
        return []
    results, caps, stack = [], [], []
    label_count = 0

    def go(pos):
        nonlocal label_count
        if pos > n:
            if not stack and label_count == r:
                results.append(tuple(caps))
            return
        if len(stack) > n - pos + 1:
            return
        if not stack and label_count < r:
            label_count += 1
            go(pos + 1)
            label_count -= 1
        stack.append(pos)
        go(pos + 1)
        stack.pop()
        if stack:
            caps.append((stack[-1], pos))
            opened = stack.pop()
            go(pos + 1)
            stack.append(opened)
            caps.pop()

    go(1)
    return results


def tl_check_reference(n, caps):
    """The former constructor check, pair by pair: (caps, labels) or InvariantViolation."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvariantViolation("degree must be a non-negative integer")
    seen, clean = set(), []
    for cap in caps:
        pair = tuple(sorted(cap))
        if len(pair) != 2 or pair[0] == pair[1]:
            raise InvariantViolation(f"cap {cap!r} must join two distinct dots")
        for dot in pair:
            if not isinstance(dot, int) or isinstance(dot, bool) or not 1 <= dot <= n:
                raise InvariantViolation(f"dot {dot!r} out of range for degree {n}")
            if dot in seen:
                raise InvariantViolation(f"dot {dot} appears in more than one cap")
            seen.add(dot)
        clean.append(pair)
    clean.sort()
    for i in range(len(clean)):
        for j in range(i + 1, len(clean)):
            (a1, b1), (a2, b2) = clean[i], clean[j]
            if a1 < a2 < b1 < b2:
                raise InvariantViolation(f"caps {clean[i]} and {clean[j]} cross")
    labels = tuple(dot for dot in range(1, n + 1) if dot not in seen)
    for a, b in clean:
        for dot in labels:
            if a < dot < b:
                raise InvariantViolation(f"labeled dot {dot} sits inside cap ({a}, {b})")
    return tuple(clean), labels


# The wording of every constructor rejection.
CHECK_MESSAGES = re.compile(
    r"degree must be a non-negative integer, got .+|cap .+ must join two distinct dots"
    r"|dot .+ out of range for degree \d+|dot \d+ appears in more than one cap"
    r"|caps \(\d+, \d+\) and \(\d+, \d+\) cross|labeled dot \d+ sits inside cap \(\d+, \d+\)"
)


def random_caps(rng, n):
    """Caps on a random subset of dots: often crossing or over a label, sometimes malformed."""
    dots = rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2))
    caps = [[dots[i], dots[i + 1]] for i in range(0, len(dots), 2)]
    if caps and rng.random() < 0.15:
        cap = rng.choice(caps)
        cap[rng.randrange(2)] = rng.choice([0, n + 1, True, cap[0], rng.randint(1, n)])
    if rng.random() < 0.05:
        caps.append(rng.choice([[1], [1, 2, 3], []]))
    return [tuple(cap) if rng.random() < 0.5 else cap for cap in caps]


def reference_row(n, caps):
    """The row with these caps, from the pairwise check and the checking HalfDiagram constructor."""
    clean, labels = tl_check_reference(n, caps)
    blocks = [*clean, *((dot,) for dot in labels)]
    return HalfDiagram(n, blocks, range(len(clean), len(blocks)))


def caps_of(row):
    return [block for block in row.blocks if len(block) == 2]


class TestWalkMatchesReference:
    def test_same_diagrams_in_the_same_order(self):
        for n in range(15):
            for r in range(-1, n + 2):
                got = [(d.n, d.blocks, d.labeled) for d in tl_basis(n, r)]
                want = [reference_row(n, caps) for caps in tl_basis_reference(n, r)]
                assert got == [(d.n, d.blocks, d.labeled) for d in want], (n, r)

    def test_constructor_accepts_and_rejects_like_the_pairwise_check(self):
        rng = random.Random(16)
        accepted = 0
        for _ in range(20_000):
            n = rng.randint(0, 10)
            caps = random_caps(rng, n)
            try:
                want = reference_row(n, caps)
            except InvariantViolation as exc:
                with pytest.raises(InvariantViolation) as got:
                    planar_row(n, caps)
                assert CHECK_MESSAGES.fullmatch(str(got.value)), (n, caps, str(got.value))
                if not str(exc).startswith("caps "):
                    # Only a crossing, which the pairwise check looks for
                    # first, may come second in the scan or as another pair.
                    assert str(got.value) == str(exc), (n, caps)
                continue
            diagram = planar_row(n, caps)
            assert (diagram.n, diagram.blocks, diagram.labeled) == (n, want.blocks, want.labeled), (n, caps)
            accepted += 1
        assert 1_000 < accepted < 19_000

    def test_unchecked_rows_pass_the_constructor(self):
        for n in range(13):
            for r in range(n % 2, n + 1, 2):
                for row in tl_basis(n, r):
                    checked = planar_row(n, caps_of(row))
                    assert (row, row.blocks, row.labeled) == (checked, checked.blocks, checked.labeled), (n, r)
                    assert hash(row) == hash(checked)

    def test_walk_needs_no_stack_depth(self):
        start = time.perf_counter()
        assert len(tl_basis(24, 22)) == 23
        assert time.perf_counter() - start < 0.05
        (only,) = tl_basis(5000, 5000)
        assert only.blocks == tuple((dot,) for dot in range(1, 5001)) and only.labeled == frozenset(range(5000))


class TestTLHalfDiagram:
    """Planar (Temperley-Lieb) half-diagrams as ``planar_row`` checks and builds them."""

    def test_worked_membership(self):
        # caps {2,5} and {3,4} nested, labels on 1 and 6
        diagram = planar_row(6, [(2, 5), (3, 4)])
        assert diagram.labeled == {0, 3}
        assert diagram.r == 2
        assert diagram in tl_basis(6, 2)
        assert repr(diagram) == "HalfDiagram(6, {{1}*,{2,5},{3,4},{6}*})"

    def test_crossing_caps_rejected(self):
        with pytest.raises(InvariantViolation):
            planar_row(6, [(2, 4), (3, 5)])

    def test_label_inside_cap_rejected(self):
        # cap {2,6} strands over the labeled dot 5
        with pytest.raises(InvariantViolation):
            planar_row(6, [(2, 6), (3, 4)])

    def test_bool_degree_and_dots_rejected(self):
        with pytest.raises(InvariantViolation, match="^dot True out of range for degree 2$"):
            planar_row(2, [(True, 2)])
        with pytest.raises(InvariantViolation, match="^degree must be a non-negative integer, got True$"):
            planar_row(True, [])

    def test_dot_that_does_not_compare_with_an_int_rejected(self):
        with pytest.raises(InvariantViolation, match="^dot 'a' is not an integer$"):
            planar_row(3, [("a", 1)])

    def test_cap_that_is_not_a_pair_of_dots_rejected(self):
        with pytest.raises(InvariantViolation, match="^cap 5 must join two distinct dots$"):
            planar_row(3, [5])

    def test_float_dot_rejected_as_not_an_integer(self):
        with pytest.raises(InvariantViolation, match=r"^dot 1\.0 is not an integer$"):
            planar_row(3, [(1.0, 2)])

    def test_degree_four_no_labels(self):
        basis = tl_basis(4, 0)
        assert len(basis) == 2
        assert {d.blocks for d in basis} == {((1, 2), (3, 4)), ((1, 4), (2, 3))}

    def test_half_diagram_conversion_keeps_labels(self):
        diagram = planar_row(6, [(2, 5), (3, 4)])
        assert tuple(diagram.blocks[i] for i in sorted(diagram.labeled)) == ((1,), (6,))

    def test_half_diagram_conversion_matches_checked_construction(self):
        for n in range(9):
            for r in range(n + 1):
                for diagram in tl_basis(n, r):
                    caps = caps_of(diagram)
                    singles = [block for block in diagram.blocks if len(block) == 1]
                    assert len(caps) + len(singles) == len(diagram.blocks)
                    blocks = [*caps, *singles]
                    checked = HalfDiagram(n, blocks, range(len(caps), len(blocks)))
                    assert (diagram, diagram.blocks, diagram.labeled) == (checked, checked.blocks, checked.labeled)


class TestBasisCounts:
    def test_ballot_numbers_to_twelve(self):
        for n in range(13):
            for r in range(n + 1):
                assert len(tl_basis(n, r)) == tl_basis_count(n, r), (n, r)

    def test_parity_mismatch_empty(self):
        assert tl_basis(5, 2) == ()
        assert tl_basis_count(5, 2) == 0

    def test_row_sums_central_binomial(self):
        for n in range(13):
            total = sum(tl_basis_count(n, r) for r in range(n % 2, n + 1, 2))
            assert total == comb(n, n // 2)

    def test_pascal_type_recurrence(self):
        # b(n, r) = b(n-1, r-1) + b(n-1, r+1) away from the edges
        for n in range(2, 13):
            for r in range(1, n):
                if (n - r) % 2:
                    continue
                assert tl_basis_count(n, r) == tl_basis_count(n - 1, r - 1) + tl_basis_count(
                    n - 1, r + 1
                )


class TestGrothProduct:
    def test_one_times_one(self):
        v11 = GrothElement.module_class(1, 1)
        assert groth_multiply(v11, v11) == GrothElement({(2, 0): 1, (2, 2): 1})

    def test_zero_label_class_shifts_degree(self):
        for m in range(0, 5, 2):
            for n in range(5):
                for q in range(n % 2, n + 1, 2):
                    left = GrothElement.module_class(m, 0)
                    right = GrothElement.module_class(n, q)
                    assert groth_multiply(left, right) == GrothElement.module_class(m + n, q)

    def test_empty_product_renders_zero(self):
        product = groth_multiply(GrothElement(), GrothElement.module_class(1, 1))
        assert product == GrothElement()
        assert product.render() == "0"
        assert repr(GrothElement({(2, 0): 1, (2, 2): 3})) == "GrothElement([V_2(0)] + 3·[V_2(2)])"

    def test_two_times_two(self):
        v22 = GrothElement.module_class(2, 2)
        assert groth_multiply(v22, v22) == GrothElement({(4, 0): 1, (4, 2): 1, (4, 4): 1})

    def test_parity_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            GrothElement({(2, 1): 1})
        with pytest.raises(InvariantViolation):
            GrothElement({(1, 2): 1})

    @pytest.mark.parametrize("key", [(1, 3), (2, 1), (True, 1)], ids=["above-degree", "off-parity", "bool"])
    def test_module_class_rejects_its_arguments_with_a_value_error(self, key):
        # A degree and label count are arguments, not a structure: a plain
        # ValueError with the constructor's message.
        with pytest.raises(ValueError) as caught:
            GrothElement.module_class(*key)
        assert type(caught.value) is ValueError
        with pytest.raises(InvariantViolation) as built:
            GrothElement({key: 1})
        assert str(caught.value) == str(built.value)

    @pytest.mark.parametrize(
        "key",
        [(2.0, 0), (2, 0.0), (True, True), (2, False), ("2", "0")],
        ids=["float", "float-labels", "bool", "bool-labels", "str"],
    )
    def test_non_integer_class_rejected(self, key):
        message = re.escape(f"class ({key[0]!r}, {key[1]!r}) needs integer degree and labels")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            GrothElement({key: 1})

    def test_int_subclass_class_accepted(self):
        assert GrothElement({(Count.FOUR, Count.FOUR): 3}) == GrothElement({(4, 4): 3})
        assert GrothElement.module_class(Count.THREE, Count.THREE) == GrothElement.module_class(3, 3)
        assert tl_e(Count.THREE, Count.THREE, Count.FOUR, Count.THREE, Count.THREE) == tl_e(3, 3, 4, 3, 3) == 1

    @pytest.mark.parametrize(
        "coeff", [1.5, True, Fraction(1, 2), "1"], ids=["float", "bool", "fraction", "str"]
    )
    def test_non_integer_coefficient_rejected(self, coeff):
        message = re.escape(f"class coefficient {coeff!r} is not an integer")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            GrothElement({(2, 0): coeff})

    def test_sum_with_foreign_operand_is_type_error(self):
        v11 = GrothElement.module_class(1, 1)
        assert v11 + v11 == GrothElement({(1, 1): 2})
        for other in (1, 1.5, None):
            with pytest.raises(TypeError):
                v11 + other
            with pytest.raises(TypeError):
                other + v11

    def test_commutative_and_associative_sampled(self):
        rng = random.Random(41)
        classes = [(deg, lab) for deg in range(5) for lab in range(deg % 2, deg + 1, 2)]

        def sample():
            picks = rng.sample(classes, k=rng.randint(1, 3))
            return GrothElement({key: rng.randint(1, 3) for key in picks})

        for _ in range(80):
            a, b, c = sample(), sample(), sample()
            assert groth_multiply(a, b) == groth_multiply(b, a)
            assert groth_multiply(groth_multiply(a, b), c) == groth_multiply(
                a, groth_multiply(b, c)
            )

    @staticmethod
    def assert_checked(built, items):
        """``built`` holds the terms, in the order, that the validating constructor gives ``items``."""
        assert list(built.terms.items()) == list(GrothElement(items).terms.items())
        assert all(type(coeff) is int and coeff for coeff in built.terms.values())

    @staticmethod
    def expanded(a, b):
        """The items of ``a`` times ``b``, each class pair over its band, before any merging."""
        return [
            ((m + n, r), cm * cn)
            for (m, p), cm in a.terms.items()
            for (n, q), cn in b.terms.items()
            for r in range(abs(p - q), p + q + 1, 2)
        ]

    def test_product_and_sum_match_the_checked_constructor(self):
        # both wrap their terms unchecked; the constructor on the same items is the oracle
        classes = [(deg, lab) for deg in range(7) for lab in range(deg % 2, deg + 1, 2)]
        singles = [GrothElement.module_class(*key) for key in classes]
        rng = random.Random(43)

        def sample():
            picks = rng.sample(classes, k=rng.randint(1, 4))
            return GrothElement({key: rng.choice([-2, -1, 1, 2]) for key in picks})

        pairs = [(a, b) for a in singles for b in singles] + [(sample(), sample()) for _ in range(300)]
        cancelled = {"product": 0, "sum": 0}
        for a, b in pairs:
            product_items, sum_items = self.expanded(a, b), [*a.terms.items(), *b.terms.items()]
            self.assert_checked(groth_multiply(a, b), product_items)
            self.assert_checked(a + b, sum_items)
            for kind, items in (("product", product_items), ("sum", sum_items)):
                cancelled[kind] += len(GrothElement(items).terms) < len(dict(items))
        assert all(cancelled.values()), cancelled

    def test_structure_constants_associativity(self):
        # sum over r of E(p,q;r) E(r,w;t) equals sum over r of E(q,w;r) E(p,r;t)
        def e(p, q, r):
            return 1 if abs(p - q) <= r <= p + q else 0

        for p in range(5):
            for q in range(5):
                for w in range(5):
                    for t in range(p + q + w + 1):
                        lhs = sum(e(p, q, r) * e(r, w, t) for r in range(p + q + 1))
                        rhs = sum(e(q, w, r) * e(p, r, t) for r in range(q + w + 1))
                        assert lhs == rhs


class TestPinnedMultiplicity:
    def test_examples(self):
        assert tl_e(1, 1, 2, 1, 1) == 1
        assert tl_e(1, 1, 0, 1, 1) == 1
        assert tl_e(3, 1, 1, 3, 1) == 0

    def test_input_module_parity_violation_reported(self):
        with pytest.raises(ValueError):
            tl_e(2, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            tl_e(1, 2, 2, 1, 1)

    def test_absent_target_class_is_zero(self):
        assert tl_e(1, 1, 1, 1, 1) == 0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((5, 5, 10, 1, 1), "class (1, 5) needs 0 <= labels <= degree with equal parity"),
            ((1, 3, 2, 1, 1), "class (1, 3) needs 0 <= labels <= degree with equal parity"),
            ((1.0, 1, 0, 1, 1), "p must be a non-negative integer, got 1.0"),
            ((-1, 1, 0, 1, 1), "p must be a non-negative integer, got -1"),
            ((1, True, 0, 1, 1), "q must be a non-negative integer, got True"),
        ],
        ids=["p-above-m", "q-above-n", "float-p", "negative-p", "bool-q"],
    )
    def test_input_class_must_exist(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            tl_e(*args)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("r", [-1, 1.0, "0"])
    def test_bad_target_label_count_is_rejected(self, r):
        message = re.escape(f"r must be a non-negative integer, got {r!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            tl_e(1, 1, r, 1, 1)

    def test_target_above_the_degree_is_zero(self):
        for r in range(3, 7):
            assert tl_e(1, 1, r, 1, 1) == 0
        assert tl_e(2, 2, 6, 2, 2) == 0

    def test_matches_triangle_and_pinned_solutions(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for p in range(m % 2, m + 1, 2):
                    for q in range(n % 2, n + 1, 2):
                        for r in range((m + n) % 2, m + n + 1, 2):
                            value = tl_e(p, q, r, m, n)
                            assert value == (1 if abs(p - q) <= r <= p + q else 0)
                            pinned = [
                                s for s in e_lattice(p, q, r)[1] if s.through_labeled == 0
                            ]
                            assert value == min(1, len(pinned))


def planar_walled_count(m, n, idx):
    """Planar (m|n) walled half-diagrams of index ``idx``, counted one by one."""
    r = idx.through_labeled + idx.left_labeled + idx.right_labeled
    return sum(index_of(WalledHalfDiagram(m, n, row)) == idx for row in tl_basis(m + n, r))


class TestWalledFactorization:
    # The count of planar walled diagrams of index (U; 0, L, R) is the
    # product of the one-sided counts with U + L and U + R labels; the
    # tl-suite verify suite checks it for m, n <= 5.
    def test_single_crossing_cap(self):
        assert planar_walled_count(1, 1, WalledIndex(1, 0, 0, 0)) == 1 == tl_basis_count(1, 1) ** 2

    def test_all_singletons(self):
        assert planar_walled_count(2, 2, WalledIndex(0, 0, 2, 2)) == 1 == tl_basis_count(2, 2) ** 2

    def test_mixed(self):
        assert planar_walled_count(2, 2, WalledIndex(1, 0, 1, 1)) == 1 == tl_basis_count(2, 2) ** 2

    def test_crossing_label_fails_the_count_check(self, monkeypatch):
        # every row tallied under T = 1 leaves each T = 0 tally of (1|1) empty
        monkeypatch.setattr(walled, "index_of", lambda w: WalledIndex(0, 1, 0, 0))
        report = verify.run_suite("tl-suite", 1)
        assert report.cases == 303
        assert report.failures == [
            "walled planar count at (1|1, 0;0,1,1): 0 != 1",
            "walled planar count at (1|1, 1;0,0,0): 0 != 1",
        ]

    def test_equality_to_degree_five(self):
        report = verify.run_suite("tl-suite", 5)
        assert report.ok, report.failures

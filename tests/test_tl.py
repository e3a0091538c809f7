"""Planar half-diagrams, ballot counts, and the class product."""

import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from diagalg import tl
from diagalg.diagrams import InvariantViolation
from diagalg.halfdiag import HalfDiagram
from diagalg.multiplicity import e_lattice
from diagalg.tl import (
    GrothElement,
    TLHalfDiagram,
    groth_multiply,
    tl_basis,
    tl_basis_count,
    tl_e,
    tl_walled_dim_check,
)


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
    r"degree must be a non-negative integer|cap .+ must join two distinct dots"
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


class TestWalkMatchesReference:
    def test_same_diagrams_in_the_same_order(self):
        for n in range(15):
            for r in range(-1, n + 2):
                got = [(d.n, d.caps, d.labels) for d in tl_basis(n, r)]
                want = [(n, *tl_check_reference(n, caps)) for caps in tl_basis_reference(n, r)]
                assert got == want, (n, r)

    def test_constructor_accepts_and_rejects_like_the_pairwise_check(self):
        rng = random.Random(16)
        accepted = 0
        for _ in range(20_000):
            n = rng.randint(0, 10)
            caps = random_caps(rng, n)
            try:
                want = tl_check_reference(n, caps)
            except InvariantViolation as exc:
                with pytest.raises(InvariantViolation) as got:
                    TLHalfDiagram(n, caps)
                assert CHECK_MESSAGES.fullmatch(str(got.value)), (n, caps, str(got.value))
                if not str(exc).startswith("caps "):
                    # Only a crossing, which the pairwise check looks for
                    # first, may come second in the scan or as another pair.
                    assert str(got.value) == str(exc), (n, caps)
                continue
            diagram = TLHalfDiagram(n, caps)
            assert (diagram.caps, diagram.labels) == want, (n, caps)
            accepted += 1
        assert 1_000 < accepted < 19_000

    def test_unchecked_rows_pass_the_constructor(self):
        for n in range(13):
            for r in range(n % 2, n + 1, 2):
                for row in tl_basis(n, r):
                    checked = TLHalfDiagram(n, row.caps)
                    assert (row, row.caps, row.labels) == (checked, checked.caps, checked.labels), (n, r)
                    assert hash(row) == hash(checked)

    def test_walk_needs_no_stack_depth(self):
        start = time.perf_counter()
        assert len(tl_basis(24, 22)) == 23
        assert time.perf_counter() - start < 0.05
        (only,) = tl_basis(5000, 5000)
        assert only.caps == () and only.labels == tuple(range(1, 5001))


class TestTLHalfDiagram:
    def test_worked_membership(self):
        # caps {2,5} and {3,4} nested, labels on 1 and 6
        diagram = TLHalfDiagram(6, [(2, 5), (3, 4)])
        assert diagram.labels == (1, 6)
        assert diagram in tl_basis(6, 2)

    def test_crossing_caps_rejected(self):
        with pytest.raises(InvariantViolation):
            TLHalfDiagram(6, [(2, 4), (3, 5)])

    def test_label_inside_cap_rejected(self):
        # cap {2,6} strands over the labeled dot 5
        with pytest.raises(InvariantViolation):
            TLHalfDiagram(6, [(2, 6), (3, 4)])

    def test_bool_degree_and_dots_rejected(self):
        with pytest.raises(InvariantViolation, match="^dot True out of range for degree 2$"):
            TLHalfDiagram(2, [(True, 2)])
        with pytest.raises(InvariantViolation, match="^degree must be a non-negative integer$"):
            TLHalfDiagram(True, [])

    def test_dot_that_does_not_compare_with_an_int_rejected(self):
        with pytest.raises(InvariantViolation, match="^dot 'a' is not an integer$"):
            TLHalfDiagram(3, [("a", 1)])

    def test_cap_that_is_not_a_pair_of_dots_rejected(self):
        with pytest.raises(InvariantViolation, match="^cap 5 must join two distinct dots$"):
            TLHalfDiagram(3, [5])

    def test_float_dot_rejected_as_not_an_integer(self):
        with pytest.raises(InvariantViolation, match=r"^dot 1\.0 is not an integer$"):
            TLHalfDiagram(3, [(1.0, 2)])

    def test_degree_four_no_labels(self):
        basis = tl_basis(4, 0)
        assert len(basis) == 2
        assert {d.caps for d in basis} == {((1, 2), (3, 4)), ((1, 4), (2, 3))}

    def test_half_diagram_conversion_keeps_labels(self):
        diagram = TLHalfDiagram(6, [(2, 5), (3, 4)])
        hd = diagram.to_half_diagram()
        assert tuple(hd.blocks[i] for i in sorted(hd.labeled)) == ((1,), (6,))

    def test_half_diagram_conversion_matches_checked_construction(self):
        for n in range(9):
            for r in range(n + 1):
                for diagram in tl_basis(n, r):
                    blocks = [*diagram.caps, *((dot,) for dot in diagram.labels)]
                    checked = HalfDiagram(n, blocks, range(len(diagram.caps), len(blocks)))
                    hd = diagram.to_half_diagram()
                    assert (hd, hd.blocks, hd.labeled) == (checked, checked.blocks, checked.labeled)


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

    def test_two_times_two(self):
        v22 = GrothElement.module_class(2, 2)
        assert groth_multiply(v22, v22) == GrothElement({(4, 0): 1, (4, 2): 1, (4, 4): 1})

    def test_parity_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            GrothElement({(2, 1): 1})
        with pytest.raises(InvariantViolation):
            GrothElement({(1, 2): 1})

    @pytest.mark.parametrize(
        "key",
        [(2.0, 0), (2, 0.0), (True, True), (2, False), ("2", "0")],
        ids=["float", "float-labels", "bool", "bool-labels", "str"],
    )
    def test_non_integer_class_rejected(self, key):
        message = re.escape(f"class ({key[0]!r}, {key[1]!r}) needs integer degree and labels")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            GrothElement({key: 1})

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


class TestWalledFactorization:
    def test_single_crossing_cap(self):
        assert tl_walled_dim_check(1, 1, 1, 0, 0) == (1, 1)

    def test_all_singletons(self):
        assert tl_walled_dim_check(2, 2, 0, 2, 2) == (1, 1)

    def test_mixed(self):
        assert tl_walled_dim_check(2, 2, 1, 1, 1) == (1, 1)

    def test_parity_guard(self):
        with pytest.raises(ValueError):
            tl_walled_dim_check(2, 2, 1, 0, 1)

    def test_crossing_label_raises(self, monkeypatch):
        # a plain raise, so the check survives python -O
        monkeypatch.setattr(tl, "index_of", lambda walled: tl.WalledIndex(0, 1, 0, 0))
        with pytest.raises(InvariantViolation, match="a labeled single dot cannot cross the wall"):
            tl_walled_dim_check(1, 1, 1, 0, 0)

    def test_equality_to_degree_five(self):
        for m in range(1, 6):
            for n in range(1, 6):
                for u in range(min(m, n) + 1):
                    for left in range(m - u + 1):
                        if (u + left) % 2 != m % 2:
                            continue
                        for right in range(n - u + 1):
                            if (u + right) % 2 != n % 2:
                                continue
                            lhs, rhs = tl_walled_dim_check(m, n, u, left, right)
                            assert lhs == rhs, (m, n, u, left, right)

"""Planar half-diagrams, ballot counts, and the class product."""

import random
import re
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

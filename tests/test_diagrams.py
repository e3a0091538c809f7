"""Diagram composition, generators, crossings, and polynomial coefficients."""

import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.diagrams import (
    DeltaPolynomial,
    DiagramSum,
    InvariantViolation,
    SetPartitionDiagram,
    compose,
    generator,
    is_noncrossing,
    propagating_number,
)
from diagalg.halfdiag import (
    HalfDiagram,
    ScaledHalfDiagram,
    act,
    act_top,
    enumerate_basis,
    set_partitions,
)
from diagalg.tl import GrothElement, planar_row
from diagalg.walled import WalledHalfDiagram, enumerate_walled
from diagalg.verify import _random_diagram as random_diagram
from diagalg.verify import _random_half_diagram as random_half_diagram

FIG_LEFT = [[1, 2, -2], [3], [4, 6, -6], [5], [-1], [-3], [-4], [-5]]
FIG_RIGHT = [[1], [2], [3, 4, 5], [6, -4, -6], [-1, -2, -3], [-5]]
FIG_RESULT = [[1, 2], [3], [4, 6, -4, -6], [5], [-1, -2, -3], [-5]]


def graph_components(blocks_by_row):
    """Connected components of the graph that joins every pair of nodes sharing a block.

    ``blocks_by_row`` holds (row_of, blocks) pairs, where ``row_of`` names
    the node a dot of those blocks stands for.  Breadth-first search over an
    explicit adjacency list; no union-find.
    """
    adjacent = {}
    for row_of, blocks in blocks_by_row:
        for block in blocks:
            nodes = [row_of(dot) for dot in block]
            for a in nodes:
                adjacent.setdefault(a, set()).update(nodes)
    seen, components = set(), []
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        queue, component = deque([start]), []
        while queue:
            node = queue.popleft()
            component.append(node)
            for nxt in adjacent[node] - seen:
                seen.add(nxt)
                queue.append(nxt)
        components.append(component)
    return components


def oracle_stack(upper, lower):
    """Sorted (outer dots, middle dots) of each component of ``upper`` over ``lower``, by graph search."""
    components = graph_components(
        [
            (lambda k: ("top", k) if k > 0 else ("mid", -k), upper.blocks),
            (lambda k: ("mid", k) if k > 0 else ("bottom", -k), lower.blocks),
        ]
    )
    return sorted(
        (
            sorted(k if row == "top" else -k for row, k in component if row != "mid"),
            sorted(k for row, k in component if row == "mid"),
        )
        for component in components
    )


def oracle_compose(d1, d2):
    """(interior count, diagram) of ``d1`` stacked above ``d2``, by graph search."""
    components = oracle_stack(d1, d2)
    blocks = [outer for outer, _ in components if outer]
    return len(components) - len(blocks), SetPartitionDiagram(d1.n, blocks)


def oracle_act_top(d, v):
    """(trapped count, top-row half-diagram) of ``d`` stacked above ``v``, by graph search."""
    labeled_dots = {dot for i in v.labeled for dot in v.blocks[i]}
    t, blocks, labeled = 0, [], []
    for tops, mids in oracle_stack(d, v):
        if not tops:
            t += 1
            continue
        if labeled_dots.intersection(mids):
            labeled.append(len(blocks))
        blocks.append(tops)
    return t, HalfDiagram(d.n, blocks, labeled)


def compose_by_action(d1, d2):
    """(interior count, diagram) of ``compose(d1, d2)``, read off ``act_top`` on the 2n-dot reading.

    ``d1`` beside n straight strands acts on ``d2`` read as one unlabeled
    row of 2n dots: top dot k at position k, bottom dot -k at 2n + 1 - k.
    Position p > n of the top row is read back as dot p - 2n - 1.
    """
    n = d1.n
    upper = SetPartitionDiagram(2 * n, [*d1.blocks, *((k, -k) for k in range(n + 1, 2 * n + 1))])
    row = HalfDiagram(2 * n, [[k if k > 0 else 2 * n + 1 + k for k in block] for block in d2.blocks])
    t, top = act_top(upper, row)
    assert top.labeled == frozenset()
    return t, SetPartitionDiagram(n, [[p if p <= n else p - 2 * n - 1 for p in block] for block in top.blocks])


def boundary_key(n):
    """Position of a dot in the boundary order 1 < ... < n < n' < ... < 1': k maps to k - 1, k' to 2n - k."""
    return lambda dot: dot - 1 if dot > 0 else 2 * n + dot


def order_key_canonical(n, blocks):
    """The constructor's former canonical form: dots sorted by boundary order, blocks by least dot."""
    key = boundary_key(n)
    inner = [tuple(sorted(block, key=key)) for block in blocks]
    return tuple(sorted(inner, key=lambda block: key(block[0])))


def assert_canonical(d):
    """``d`` has the exact ``n`` and ``blocks`` that the validating constructor gives its blocks."""
    checked = SetPartitionDiagram(d.n, d.blocks)
    assert (checked.n, checked.blocks) == (d.n, d.blocks)


def small_blocks(rng, dots):
    """Shuffle ``dots`` and cut them into blocks of one to three dots.

    At large degree this leaves many components in a stack, some of them
    interior, where a uniform random set partition merges nearly all dots.
    """
    dots = list(dots)
    rng.shuffle(dots)
    blocks = []
    while dots:
        size = rng.randint(1, 3)
        blocks.append(dots[:size])
        dots = dots[size:]
    return blocks


def all_diagrams(n):
    """Every degree-n diagram: set partitions of 2n dots, dot n + k read as k'."""
    return [
        SetPartitionDiagram(n, [[x if x <= n else n - x for x in block] for block in blocks])
        for blocks in set_partitions(2 * n)
    ]


def blocks_by_tag(nodes, tags):
    """Group ``nodes`` into blocks by their tags, blocks in tag order."""
    return [[x for x, tag in zip(nodes, tags) if tag == b] for b in sorted(set(tags))]


@st.composite
def partition_blocks(draw, nodes, most=None):
    """Blocks of a set partition of ``nodes``: each node draws the tag of its block, one of ``most`` (default all)."""
    tags = draw(st.lists(st.integers(0, (most or len(nodes)) - 1), min_size=len(nodes), max_size=len(nodes)))
    return blocks_by_tag(nodes, tags)


@st.composite
def diagrams(draw, n, most=None):
    return SetPartitionDiagram(n, draw(partition_blocks([*range(1, n + 1), *range(-1, -n - 1, -1)], most)))


@st.composite
def half_diagrams(draw, n, most=None):
    blocks = draw(partition_blocks(list(range(1, n + 1)), most))
    return HalfDiagram(n, blocks, draw(st.sets(st.integers(0, len(blocks) - 1))))


@st.composite
def generator_words(draw, n):
    """A product of up to eight generators, so strands mostly run straight through."""
    d = SetPartitionDiagram.identity(n)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from("EPS" if n > 1 else "P"))
        i = draw(st.integers(1, n if kind == "P" else n - 1))
        d = compose(d, generator(kind, i, None if kind == "P" else draw(st.integers(i + 1, n)), n))[1]
    return d


@st.composite
def bottom_heavy_diagrams(draw, n):
    """Top dots in at most three blocks; most bottom dots in blocks that miss the top row."""
    top = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    bottom = draw(st.lists(st.integers(0, n + 2), min_size=n, max_size=n))
    return SetPartitionDiagram(n, blocks_by_tag([*range(1, n + 1), *range(-1, -n - 1, -1)], top + bottom))


def mixed_diagrams(n):
    return st.one_of(diagrams(n), diagrams(n, most=3), generator_words(n), bottom_heavy_diagrams(n))


def mixed_half_diagrams(n):
    return st.one_of(half_diagrams(n), half_diagrams(n, most=3))


def delta_polynomials():
    """±1, ±δ or a sum of two of them: few enough values that products often cancel."""
    return st.dictionaries(st.integers(0, 1), st.sampled_from([1, -1]), min_size=1).map(DeltaPolynomial)


def diagram_sums(n):
    """Sums of one to four terms over diagrams in at most two blocks, so products often share a diagram."""
    return st.dictionaries(diagrams(n, most=2), delta_polynomials(), min_size=1, max_size=4).map(
        lambda terms: DiagramSum(n, terms)
    )


def per_term_product(a, b):
    """The product built term by term through the validating constructors: the oracle for ``DiagramSum.compose``."""
    return DiagramSum(
        a.n,
        [
            (d, c1 * c2 * DeltaPolynomial.delta_power(t))
            for d1, c1 in a.terms.items()
            for d2, c2 in b.terms.items()
            for t, d in [compose(d1, d2)]
        ],
    )


class TestDeltaPolynomial:
    def test_zero_and_one(self):
        assert not DeltaPolynomial.zero()
        assert DeltaPolynomial.one().terms() == ((0, 1),)

    def test_arithmetic(self):
        d = DeltaPolynomial.delta_power(1)
        assert (d * d).terms() == ((2, 1),)
        assert (d + d).terms() == ((1, 2),)
        assert (d + (-1) * d) == DeltaPolynomial.zero()

    def test_render(self):
        assert DeltaPolynomial.zero().render() == "0"
        assert DeltaPolynomial.one().render() == "1"
        assert DeltaPolynomial.delta_power(1).render() == "δ"
        assert DeltaPolynomial.delta_power(2).render() == "δ^2"
        mixed = DeltaPolynomial(((2, 3), (0, 1)))
        assert mixed.render() == "3·δ^2 + 1"
        assert repr(mixed) == "DeltaPolynomial('3·δ^2 + 1')"

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvariantViolation):
            DeltaPolynomial(((-1, 2),))

    @pytest.mark.parametrize(
        "coeff", [1.5, 2.0, True, Fraction(1, 2)], ids=["float", "whole-float", "bool", "fraction"]
    )
    def test_non_integer_coefficient_rejected(self, coeff):
        message = re.escape(f"delta coefficient {coeff!r} is not an integer")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DeltaPolynomial({0: coeff})

    @pytest.mark.parametrize("exp", [True, False, 1.0], ids=["true", "false", "float"])
    def test_non_integer_exponent_rejected(self, exp):
        message = re.escape(f"delta exponent must be a non-negative integer, got {exp!r}")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DeltaPolynomial({exp: 2})

    @pytest.mark.parametrize(
        "other", [2.5, Fraction(1, 2), True, "δ", None], ids=["float", "fraction", "bool", "str", "none"]
    )
    def test_product_with_non_integer_is_type_error(self, other):
        one = DeltaPolynomial.one()
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one

    @pytest.mark.parametrize("other", [1, 2.5, None, "δ"], ids=["int", "float", "none", "str"])
    def test_sum_with_non_polynomial_is_type_error(self, other):
        one = DeltaPolynomial.one()
        with pytest.raises(TypeError):
            one + other
        with pytest.raises(TypeError):
            other + one

    def test_product_matches_checked_constructor(self):
        rng = random.Random(19)
        for _ in range(400):
            a, b = (
                DeltaPolynomial({e: rng.randint(-3, 3) for e in rng.sample(range(6), rng.randint(0, 4))})
                for _ in range(2)
            )
            k = rng.randint(-2, 2)
            # the validating constructor sums equal exponents and drops zeros from the raw term products
            expected = DeltaPolynomial([(e1 + e2, c1 * c2) for e1, c1 in a.terms() for e2, c2 in b.terms()])
            scaled = DeltaPolynomial([(e, c * k) for e, c in a.terms()])
            assert (a * b).terms() == expected.terms()
            assert (a * k).terms() == (k * a).terms() == scaled.terms()
            assert a * b == expected and hash(a * b) == hash(expected)
            assert a * k == scaled and hash(k * a) == hash(scaled)

    def test_product_cancellation(self):
        delta = DeltaPolynomial.delta_power(1)
        one = DeltaPolynomial.one()
        # (1 + δ)(1 - δ): the δ terms cancel
        product = (one + delta) * (one + (-1) * delta)
        assert product.terms() == ((0, 1), (2, -1))
        assert product == DeltaPolynomial({0: 1, 2: -1})
        assert (product * 0).terms() == () and not (0 * product)
        assert (DeltaPolynomial.zero() * product).terms() == ()


class TestDiagramInvariants:
    def test_canonical_form_is_input_order_independent(self):
        a = SetPartitionDiagram(4, [[1, -2, -3], [2, 3, 4], [-1], [-4]])
        b = SetPartitionDiagram(4, [[-4], [4, 3, 2], [-3, 1, -2], [-1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_canonicalization_idempotent(self):
        d = SetPartitionDiagram(3, [[3, -1], [2, -3], [1, -2]])
        again = SetPartitionDiagram(d.n, d.blocks)
        assert d == again and d.blocks == again.blocks

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(InvariantViolation):
            SetPartitionDiagram(2, [[1, 2], [2, -1, -2]])

    def test_missing_dots_rejected(self):
        with pytest.raises(InvariantViolation):
            SetPartitionDiagram(2, [[1, 2], [-1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation):
            SetPartitionDiagram(2, [[1, 2, 3], [-1, -2]])

    def test_empty_block_rejected(self):
        with pytest.raises(InvariantViolation, match="^blocks must be non-empty$"):
            SetPartitionDiagram(1, [[1, -1], []])

    def test_json_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="^diagram JSON must be an object with 'n' and 'blocks'$"):
            SetPartitionDiagram.from_json([[1, -1]])

    def test_json_round_trip(self):
        d = SetPartitionDiagram(6, FIG_LEFT)
        assert SetPartitionDiagram.from_json(d.to_json()) == d

    def test_bool_dot_and_degree_rejected(self):
        with pytest.raises(InvariantViolation, match="^dot True out of range for degree 1$"):
            SetPartitionDiagram(1, [[True, -1]])
        with pytest.raises(InvariantViolation, match="^degree must be a non-negative integer, got True$"):
            SetPartitionDiagram(True, [[1, -1]])


class TestCompose:
    def test_worked_example(self):
        t, d = compose(SetPartitionDiagram(6, FIG_LEFT), SetPartitionDiagram(6, FIG_RIGHT))
        assert t == 2
        assert d == SetPartitionDiagram(6, FIG_RESULT)

    def test_degree_mismatch(self):
        with pytest.raises(InvariantViolation):
            compose(SetPartitionDiagram.identity(2), SetPartitionDiagram.identity(3))

    def test_diagram_sum_degree_mismatch(self):
        two, three = SetPartitionDiagram.identity(2), SetPartitionDiagram.identity(3)
        one = DeltaPolynomial.one()
        with pytest.raises(InvariantViolation, match="^all diagrams in a sum must share one degree$"):
            DiagramSum(2, {two: one, three: one})
        with pytest.raises(InvariantViolation, match="^sum requires equal degrees$"):
            DiagramSum.from_diagram(two) + DiagramSum.from_diagram(three)
        with pytest.raises(InvariantViolation, match="^composition requires equal degrees$"):
            DiagramSum.from_diagram(two).compose(DiagramSum.from_diagram(three))

    @pytest.mark.parametrize(
        "coeff", [1.5, 1, True, Fraction(1, 2)], ids=["float", "int", "bool", "fraction"]
    )
    def test_diagram_sum_rejects_non_polynomial_coefficient(self, coeff):
        message = re.escape(f"sum coefficient {coeff!r} is not a DeltaPolynomial")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DiagramSum(2, {SetPartitionDiagram.identity(2): coeff})

    @pytest.mark.parametrize(
        "key",
        [HalfDiagram(2, [[1], [2]]), "ab", 2, None],
        ids=["half-diagram", "str", "int", "none"],
    )
    def test_diagram_sum_rejects_non_diagram_key(self, key):
        message = re.escape(f"sum key {key!r} is not a SetPartitionDiagram")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DiagramSum(2, {key: DeltaPolynomial.one()})

    @pytest.mark.parametrize("n", [True, 2.0, "2", -1], ids=["bool", "float", "str", "negative"])
    def test_diagram_sum_rejects_bad_degree(self, n):
        message = re.escape(f"degree must be a non-negative integer, got {n!r}")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DiagramSum(n, {})

    def test_diagram_sum_render_and_repr(self):
        assert DiagramSum(2).render() == "0"
        total = DiagramSum(2, {SetPartitionDiagram.identity(2): DeltaPolynomial.delta_power(1)})
        assert repr(total) == "DiagramSum(δ · {{1,1'},{2,2'}})"

    def test_diagram_sum_with_foreign_operand_is_type_error(self):
        total = DiagramSum.from_diagram(SetPartitionDiagram.identity(2))
        for other in (1, DeltaPolynomial.one(), SetPartitionDiagram.identity(2)):
            with pytest.raises(TypeError):
                total + other
            with pytest.raises(TypeError):
                other + total

    def test_identity_neutral(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            d = random_diagram(rng, n)
            eye = SetPartitionDiagram.identity(n)
            assert compose(eye, d) == (0, d)
            assert compose(d, eye) == (0, d)

    def test_cut_strand_squares_to_delta(self):
        for n in range(1, 6):
            for i in range(1, n + 1):
                p = generator("P", i, None, n)
                assert compose(p, p) == (1, p)

    def test_merge_idempotent_and_swap_involution(self):
        for n in range(2, 6):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    e = generator("E", i, j, n)
                    s = generator("S", i, j, n)
                    assert compose(e, e) == (0, e)
                    assert compose(s, s) == (0, SetPartitionDiagram.identity(n))

    def test_associativity_sampled(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            a, b, c = (DiagramSum.from_diagram(random_diagram(rng, n)) for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_bilinearity(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = DiagramSum.from_diagram(random_diagram(rng, n))
            b = DiagramSum.from_diagram(random_diagram(rng, n), DeltaPolynomial.delta_power(1))
            c = DiagramSum.from_diagram(random_diagram(rng, n))
            assert (a + b).compose(c) == a.compose(c) + b.compose(c)

    def test_propagating_number_monotone(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 4)
            a, b = random_diagram(rng, n), random_diagram(rng, n)
            _, d = compose(a, b)
            assert propagating_number(d) <= min(propagating_number(a), propagating_number(b))


class TestValueTypes:
    """The value types compare and hash by their declared fields, whatever route built them."""

    @staticmethod
    def assert_same_value(built, checked):
        assert built == checked and checked == built
        assert hash(built) == hash(checked)

    def test_compose_results_to_degree_three(self):
        rng = random.Random(3)
        for n in range(4):
            diagrams = all_diagrams(n)
            for d1 in diagrams:
                for d2 in diagrams:
                    _, d = compose(d1, d2)
                    blocks = [rng.sample(block, len(block)) for block in reversed(d.blocks)]
                    self.assert_same_value(d, SetPartitionDiagram(n, blocks))

    def test_enumerated_rows_to_degree_five(self):
        for n in range(6):
            for r in range(n + 1):
                rows = enumerate_basis(n, r)
                for row in rows:
                    self.assert_same_value(row, HalfDiagram(n, row.blocks, row.labeled))
                assert len(set(rows)) == len(rows)
                for w in enumerate_walled(n // 2, n - n // 2, r):
                    checked = WalledHalfDiagram.from_blocks(w.m, w.n, w.half.blocks, w.half.labeled)
                    self.assert_same_value(w, checked)

    def test_scaled_action_results(self):
        rng = random.Random(5)
        cases = [
            (d, v) for n in range(4) for d in all_diagrams(n) for r in range(n + 1) for v in enumerate_basis(n, r)
        ]
        zeros = 0
        for d, v in rng.sample(cases, 300):
            t, top = act_top(d, v)
            if top.r < v.r:
                checked, zeros = ScaledHalfDiagram.zero(), zeros + 1
            else:
                top = HalfDiagram(d.n, top.blocks, top.labeled)
                checked = ScaledHalfDiagram(DeltaPolynomial.delta_power(t), top)
            self.assert_same_value(act(d, v), checked)
        assert 0 < zeros < 300

    def test_planar_rows_compare_by_degree_and_caps(self):
        row = planar_row(4, [(2, 3)])
        # the caps fix the labels: every other dot is a labeled single block
        self.assert_same_value(row, HalfDiagram(4, [(4,), (3, 2), (1,)], [0, 2]))
        assert row != planar_row(4, [(1, 2)]) and row != planar_row(5, [(2, 3)])

    def test_distinct_values_differ(self):
        one, delta = DeltaPolynomial.one(), DeltaPolynomial.delta_power(1)
        assert one != delta and one != DeltaPolynomial.delta_power(0, 2)
        assert HalfDiagram(2, [[1], [2]], [0]) != HalfDiagram(2, [[1], [2]], [1])
        half = HalfDiagram(3, [[1], [2], [3]])
        assert WalledHalfDiagram(1, 2, half) != WalledHalfDiagram(2, 1, half)
        assert ScaledHalfDiagram(one, half) != ScaledHalfDiagram(delta, half)

    @staticmethod
    def samples():
        d, half = SetPartitionDiagram.identity(2), HalfDiagram(2, [[1, 2]], [0])
        return [
            DeltaPolynomial.one(),
            d,
            DiagramSum.from_diagram(d),
            half,
            ScaledHalfDiagram(DeltaPolynomial.one(), half),
            WalledHalfDiagram(1, 1, half),
            planar_row(2, [(1, 2)]),
            GrothElement.module_class(2, 0),
        ]

    def test_foreign_operand_is_unequal(self):
        for value in self.samples():
            assert value == value
            for other in (None, 1, "x", (), object()):
                assert value != other and other != value and not value == other, value

    def test_sums_stay_unhashable(self):
        sums = [v for v in self.samples() if isinstance(v, (DiagramSum, GrothElement))]
        assert len(sums) == 2
        for value in sums:
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    def test_values_hold_no_instance_dict(self):
        for value in self.samples():
            assert not hasattr(value, "__dict__"), value
            with pytest.raises(AttributeError):
                value.extra = 1


class TestStackingOracle:
    def test_compose_every_pair_to_degree_two(self):
        for n in range(3):
            diagrams = all_diagrams(n)
            for d1 in diagrams:
                for d2 in diagrams:
                    assert compose(d1, d2) == oracle_compose(d1, d2)

    def test_compose_sampled_degrees_three_to_six(self):
        rng = random.Random(41)
        for n in range(3, 7):
            for _ in range(150):
                d1, d2 = random_diagram(rng, n), random_diagram(rng, n)
                assert compose(d1, d2) == oracle_compose(d1, d2)

    def test_act_top_every_pair_to_degree_three(self):
        for n in range(4):
            basis = [v for r in range(n + 1) for v in enumerate_basis(n, r)]
            for d in all_diagrams(n):
                for v in basis:
                    t, top = act_top(d, v)
                    assert (t, top) == oracle_act_top(d, v)
                    # the read-out skips validation; the checked constructor is its oracle
                    checked = HalfDiagram(n, top.blocks, top.labeled)
                    assert (checked, checked.blocks, checked.labeled) == (top, top.blocks, top.labeled)
                    assert hash(checked) == hash(top)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_large_degree_pairs(self, n):
        rng = random.Random(n)
        dots = [*range(1, n + 1), *range(-n, 0)]
        interior = 0
        for _ in range(3):
            d1, d2 = (SetPartitionDiagram(n, small_blocks(rng, dots)) for _ in range(2))
            got = compose(d1, d2)
            assert got == oracle_compose(d1, d2)
            blocks = small_blocks(rng, range(1, n + 1))
            v = HalfDiagram(n, blocks, [i for i in range(len(blocks)) if rng.random() < 0.5])
            assert act_top(d1, v) == oracle_act_top(d1, v)
            interior += got[0]
        assert interior > 0

    def test_compose_is_the_action_on_the_two_row_reading(self):
        pairs = [(d1, d2) for n in range(3) for d1 in all_diagrams(n) for d2 in all_diagrams(n)]
        rng = random.Random(43)
        for n in [*range(1, 11), 50, 100]:
            for _ in range(50 if n <= 10 else 3):
                pairs.append((random_diagram(rng, n), random_diagram(rng, n)))
                pairs.append(tuple(SetPartitionDiagram(n, small_blocks(rng, signed_dots(n))) for _ in range(2)))
        interior = 0
        for d1, d2 in pairs:
            got = compose(d1, d2)
            assert compose_by_action(d1, d2) == got
            interior += got[0]
        assert interior > 0

    def test_oracle_reads_the_worked_example(self):
        got = oracle_compose(SetPartitionDiagram(6, FIG_LEFT), SetPartitionDiagram(6, FIG_RIGHT))
        assert got == (2, SetPartitionDiagram(6, FIG_RESULT))


def signed_dots(n):
    return [*range(1, n + 1), *range(-n, 0)]


class TestTrustedConstruction:
    """``compose`` builds its result with no check; the validating constructor is its oracle."""

    def test_constructor_matches_order_key_form(self):
        rng = random.Random(23)
        # every set partition of the dots up to degree three, then seeded ones with many one-sign blocks
        cases = [
            (n, [[x if x <= n else n - x for x in block] for block in blocks])
            for n in range(4)
            for blocks in set_partitions(2 * n)
        ]
        for n in (1, 2, 5, 10, 100):
            for _ in range(40):
                cases.append((n, small_blocks(rng, signed_dots(n))))
                cases.append((n, [list(block) for block in random_diagram(rng, n).blocks]))
        kinds = set()
        for n, blocks in cases:
            shuffled = [rng.sample(block, len(block)) for block in rng.sample(blocks, len(blocks))]
            assert SetPartitionDiagram(n, shuffled).blocks == order_key_canonical(n, blocks)
            kinds.update((min(block) > 0, max(block) < 0) for block in blocks)
        assert kinds == {(True, False), (False, True), (False, False)}

    def test_compose_canonical_on_seeded_pairs(self):
        rng = random.Random(29)
        bottom_only = 0
        for n in [*range(1, 9), 100, 1000]:
            for _ in range(60 if n <= 8 else 3):
                pairs = [
                    (random_diagram(rng, n), random_diagram(rng, n)),
                    tuple(SetPartitionDiagram(n, small_blocks(rng, signed_dots(n))) for _ in range(2)),
                ]
                for d1, d2 in pairs:
                    _, d = compose(d1, d2)
                    assert_canonical(d)
                    bottom_only += sum(block[0] < 0 for block in d.blocks) > 1
        # the bottom-only blocks, the ones compose sorts, often come several at a time
        assert bottom_only > 100


def stack_pairs(half):
    """Seeded (diagram, diagram) pairs, or (diagram, half-diagram) ones with ``half``, at n = 1..6 and n = 100."""
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(60):
            upper = random_diagram(rng, n)
            yield upper, random_half_diagram(rng, n) if half else random_diagram(rng, n)
    n, dots = 100, [*range(1, 101), *range(-100, 0)]
    for _ in range(3):
        upper = SetPartitionDiagram(n, small_blocks(rng, dots))
        if half:
            blocks = small_blocks(rng, range(1, n + 1))
            yield upper, HalfDiagram(n, blocks, [i for i in range(len(blocks)) if rng.random() < 0.5])
        else:
            yield upper, SetPartitionDiagram(n, small_blocks(rng, dots))


class TestStackContract:
    def test_components_and_numbering(self):
        # compose numbers and splits the stacked components itself; the graph
        # search and the 2n-dot action reading are its two oracles
        for upper, lower in stack_pairs(half=False):
            got = compose(upper, lower)
            assert got == oracle_compose(upper, lower) == compose_by_action(upper, lower)
            assert_canonical(got[1])

    def test_act_top_matches_graph_search(self):
        for d, v in stack_pairs(half=True):
            assert act_top(d, v) == oracle_act_top(d, v)


class TestAssociativityProperties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(diagrams(n), diagrams(n), diagrams(n))))
    def test_compose_associative_to_degree_twelve(self, triple):
        a, b, c = triple
        t_ab, ab = compose(a, b)
        t_ab_c, ab_c = compose(ab, c)
        t_bc, bc = compose(b, c)
        t_a_bc, a_bc = compose(a, bc)
        for d in (ab, ab_c, bc, a_bc):
            assert_canonical(d)
        assert (t_ab + t_ab_c, ab_c) == (t_bc + t_a_bc, a_bc)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(diagrams(n), diagrams(n), half_diagrams(n))))
    def test_stack_then_act_to_degree_eight(self, case):
        d1, d2, v = case
        t, d12 = compose(d1, d2)
        inner = act(d2, v)
        twice = ScaledHalfDiagram.zero() if inner.is_zero else act(d1, inner.diagram).scaled(inner.coeff)
        assert act(d12, v).scaled(DeltaPolynomial.delta_power(t)) == twice

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(mixed_diagrams(n), mixed_diagrams(n), mixed_half_diagrams(n))))
    def test_stack_then_act_mixed_shapes_to_degree_forty(self, case):
        d1, d2, v = case
        t, d12 = compose(d1, d2)
        t2, top2 = act_top(d2, v)
        assert (t2, top2) == oracle_act_top(d2, v)
        # before the zero test, stacking in one go and in turn trap the same components
        t1, top1 = act_top(d1, top2)
        t12, top12 = act_top(d12, v)
        assert (t + t12, top12) == (t1 + t2, top1)
        inner = act(d2, v)
        twice = ScaledHalfDiagram.zero() if inner.is_zero else act(d1, inner.diagram).scaled(inner.coeff)
        assert act(d12, v).scaled(DeltaPolynomial.delta_power(t)) == twice


class TestSumProducts:
    """``DiagramSum.compose`` sums integer terms per result diagram; the per-term product is its oracle."""

    def assert_product(self, a, b):
        product = a.compose(b)
        assert product == per_term_product(a, b)
        for d, c in product.terms.items():
            assert d.n == a.n
            assert c and DeltaPolynomial(c.terms()) == c
            assert all(coeff for _, coeff in c.terms())
        return product

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(diagram_sums(n), diagram_sums(n), diagram_sums(n))))
    def test_matches_per_term_product_and_associates(self, triple):
        a, b, c = triple
        ab, bc = self.assert_product(a, b), self.assert_product(b, c)
        assert self.assert_product(ab, c) == self.assert_product(a, bc)

    def test_terms_with_different_trapped_counts_cancel(self):
        # P·P = δ·P, so P·(δ·1 - P) = δ·P - δ·P: the two terms cancel across t = 0 and t = 1.
        cut, eye = generator("P", 1, None, 1), SetPartitionDiagram.identity(1)
        difference = DiagramSum(1, {eye: DeltaPolynomial.delta_power(1), cut: DeltaPolynomial.delta_power(0, -1)})
        product = self.assert_product(DiagramSum.from_diagram(cut), difference)
        assert product == DiagramSum(1)


def assert_canonical_polynomial(c):
    """``c`` has the exact terms the validating constructor gives them: sorted, merged, no zero entry."""
    assert c.terms() == DeltaPolynomial(c.terms()).terms()
    assert all(type(coeff) is int and coeff for _, coeff in c.terms())


class TestSums:
    """``+`` merges already-valid operands unchecked; the validating constructors are its oracle."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.tuples(delta_polynomials(), delta_polynomials()))
    def test_polynomial_sum_matches_checked_constructor(self, pair):
        a, b = pair
        total = a + b
        assert total == DeltaPolynomial(a.terms() + b.terms())
        assert_canonical_polynomial(total)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(diagram_sums(n), diagram_sums(n))))
    def test_diagram_sum_matches_checked_constructor(self, pair):
        a, b = pair
        total = a + b
        checked = DiagramSum(a.n, [*a.terms.items(), *b.terms.items()])
        assert total == checked and list(total.terms) == list(checked.terms)
        for d, c in total.terms.items():
            assert d.n == a.n and c
            assert_canonical_polynomial(c)


class TestCancellation:
    def test_diagram_sum_drops_cancelled_key(self):
        eye, swap = SetPartitionDiagram.identity(2), generator("S", 1, 2, 2)
        one, minus_one = DeltaPolynomial.one(), DeltaPolynomial.delta_power(0, -1)
        total = DiagramSum.from_diagram(eye) + DiagramSum(2, {eye: minus_one, swap: one})
        assert total.terms == {swap: one}
        assert DiagramSum(2, [(eye, one), (swap, one), (eye, minus_one)]).terms == {swap: one}

    def test_diagram_sum_compose_cancels(self):
        # S then E merges every strand, as E alone does, so (1 - S) E = 0.
        eye, swap, merge = SetPartitionDiagram.identity(2), generator("S", 1, 2, 2), generator("E", 1, 2, 2)
        difference = DiagramSum(2, {eye: DeltaPolynomial.one(), swap: DeltaPolynomial.delta_power(0, -1)})
        assert difference.compose(DiagramSum.from_diagram(merge)).terms == {}

    def test_groth_element_drops_cancelled_key(self):
        total = GrothElement({(2, 0): 1, (1, 1): 2}) + GrothElement({(2, 0): -1})
        assert total.terms == {(1, 1): 2}
        assert GrothElement([((2, 2), 3), ((2, 2), -3)]).terms == {}


class TestGenerators:
    def test_cut_strand_shape(self):
        assert generator("P", 2, None, 3) == SetPartitionDiagram(
            3, [[1, -1], [2], [-2], [3, -3]]
        )

    def test_swap_shape(self):
        assert generator("S", 1, 2, 2) == SetPartitionDiagram(2, [[1, -2], [2, -1]])

    def test_merge_shape(self):
        assert generator("E", 1, 2, 2) == SetPartitionDiagram(2, [[1, 2, -1, -2]])

    def test_index_checks(self):
        with pytest.raises(ValueError):
            generator("E", 2, 2, 3)
        with pytest.raises(ValueError):
            generator("P", 0, None, 3)
        with pytest.raises(ValueError):
            generator("S", 1, 4, 3)
        with pytest.raises(ValueError):
            generator("X", 1, 2, 3)
        with pytest.raises(ValueError, match="^generator P takes a single index$"):
            generator("P", 1, 2, 3)
        # generator checks its own arguments; the identity stays on the validating constructor
        with pytest.raises(ValueError, match="^i must be a non-negative integer, got True$"):
            generator("P", True, None, 3)
        with pytest.raises(ValueError, match="^i must be a non-negative integer, got 1.0$"):
            generator("E", 1.0, 2, 3)
        with pytest.raises(TypeError):
            SetPartitionDiagram.identity(2.0)


class TestPropagating:
    def test_worked_example(self):
        d = SetPartitionDiagram(4, [[1, -2, -3], [2, 3, 4], [-1], [-4]])
        assert propagating_number(d) == 1

    def test_identity(self):
        for n in range(6):
            assert propagating_number(SetPartitionDiagram.identity(n)) == n

    def test_two_horizontal_blocks(self):
        for n in range(1, 6):
            d = SetPartitionDiagram(
                n, [list(range(1, n + 1)), [-k for k in range(1, n + 1)]]
            )
            assert propagating_number(d) == 0


def pairwise_noncrossing(d):
    """The former check: sort the boundary positions of every pair of blocks and look for ABAB."""
    key = boundary_key(d.n)
    keyed = [[key(x) for x in block] for block in d.blocks]
    for a, b in combinations(keyed, 2):
        merged = sorted([(k, 0) for k in a] + [(k, 1) for k in b])
        if 1 + sum(s1 != s2 for (_, s1), (_, s2) in zip(merged, merged[1:])) >= 4:
            return False
    return True


class TestCrossing:
    def test_scan_matches_pairwise_oracle_to_degree_four(self):
        noncrossing = 0
        for n in range(5):
            for d in all_diagrams(n):
                assert is_noncrossing(d) == pairwise_noncrossing(d), d
                noncrossing += is_noncrossing(d)
        # the noncrossing partitions of 2n dots number Catalan(2n)
        assert noncrossing == 1 + 2 + 14 + 132 + 1430

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(5, 10).flatmap(diagrams))
    def test_scan_matches_pairwise_oracle_sampled(self, d):
        assert is_noncrossing(d) == pairwise_noncrossing(d)

    def test_planar_words_stay_noncrossing(self):
        # cut strands and adjacent merges are planar, and so is every product of them
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 10)
            d = SetPartitionDiagram.identity(n)
            for _ in range(rng.randint(1, 8)):
                i = rng.randint(1, n - 1)
                g = generator("E", i, i + 1, n) if rng.random() < 0.6 else generator("P", i, None, n)
                _, d = compose(d, g)
            assert is_noncrossing(d) and pairwise_noncrossing(d), d

    def test_crossing_example(self):
        d = SetPartitionDiagram(4, [[1, 2, -3], [3, 4, -1, -2], [-4]])
        assert not is_noncrossing(d)

    def test_noncrossing_example(self):
        d = SetPartitionDiagram(4, [[1, -2, -3], [2, 3, 4], [-1], [-4]])
        assert is_noncrossing(d)

    def test_identity_noncrossing(self):
        assert is_noncrossing(SetPartitionDiagram.identity(5))

    def test_swap_crosses(self):
        assert not is_noncrossing(generator("S", 1, 2, 2))

    def test_nested_caps(self):
        assert is_noncrossing(SetPartitionDiagram(2, [[1, 2], [-1, -2]]))

    def test_cut_strand_noncrossing(self):
        assert is_noncrossing(generator("P", 1, None, 2))

    def test_worked_planar_example(self):
        assert is_noncrossing(SetPartitionDiagram(4, [[2, 3], [-1, -2], [1, -3], [4, -4]]))

"""Half-diagrams: one-row set partitions carrying labeled blocks.

A half-diagram of degree n is a set partition of {1..n} with a chosen
subset of blocks marked as labeled.  The span of all half-diagrams with r
labels is a module over the degree-n diagram algebra: a diagram acts by
stacking, the surviving top row inherits a label on every block connected
to a labeled block below, and the result is zero whenever a label is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from .diagrams import (
    DeltaPolynomial,
    InvariantViolation,
    SetPartitionDiagram,
    _check_blocks,
    _json_list,
    _stack,
)
from .symfunc import Partition, check_partition, partitions_of, syt_count


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class HalfDiagram:
    """A labeled set partition of {1..n}.

    Blocks are kept sorted by least element; ``labeled`` holds the indices
    of the labeled blocks within that canonical order.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    labeled: frozenset[int]

    def __init__(self, n: int, blocks, labeled=()):
        clean = [tuple(sorted(bl)) for bl in _check_blocks(n, blocks, signed=False)]
        labeled = tuple(labeled)
        labels = set(labeled)
        for idx in labeled:
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(clean):
                raise InvariantViolation(f"labeled index {idx!r} does not point at a block")
        order = sorted(range(len(clean)), key=lambda i: clean[i][0])
        self.n, self.blocks = n, tuple(clean[i] for i in order)
        self.labeled = frozenset(order.index(i) for i in labels)

    @classmethod
    def _trusted(cls, n: int, blocks: tuple, labeled: frozenset) -> "HalfDiagram":
        """Wrap ``blocks`` and ``labeled``, already in the canonical form above, with no check or copy."""
        self = object.__new__(cls)
        self.n, self.blocks, self.labeled = n, blocks, labeled
        return self

    @property
    def r(self) -> int:
        return len(self.labeled)

    @classmethod
    def from_json(cls, data) -> "HalfDiagram":
        if not isinstance(data, dict) or "n" not in data or "blocks" not in data:
            raise ValueError("half-diagram JSON must be an object with 'n' and 'blocks'")
        blocks = _json_list(data, "blocks", of_lists=True)
        return cls(data["n"], blocks, _json_list(data, "labeled", of_lists=False))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(b) for b in self.blocks],
            "labeled": sorted(self.labeled),
        }

    def render(self) -> str:
        pieces = []
        for i, block in enumerate(self.blocks):
            text = "{" + ",".join(str(x) for x in block) + "}"
            pieces.append(text + "*" if i in self.labeled else text)
        return "{" + ",".join(pieces) + "}"

    def __repr__(self) -> str:
        return f"HalfDiagram({self.n}, {self.render()})"


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class ScaledHalfDiagram:
    """A half-diagram scaled by a delta polynomial, or the zero value."""

    coeff: DeltaPolynomial
    diagram: HalfDiagram | None

    def __init__(self, coeff: DeltaPolynomial, diagram: HalfDiagram | None):
        if not coeff or diagram is None:
            coeff, diagram = DeltaPolynomial.zero(), None
        self.coeff = coeff
        self.diagram = diagram

    @classmethod
    def zero(cls) -> "ScaledHalfDiagram":
        return cls(DeltaPolynomial.zero(), None)

    @property
    def is_zero(self) -> bool:
        return self.diagram is None

    def scaled(self, poly: DeltaPolynomial) -> "ScaledHalfDiagram":
        if self.is_zero:
            return self
        return ScaledHalfDiagram(self.coeff * poly, self.diagram)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        text = self.coeff.render()
        return self.diagram.render() if text == "1" else f"{text} · {self.diagram.render()}"

    def __repr__(self) -> str:
        return f"ScaledHalfDiagram({self.render()})"


def act_top(d: SetPartitionDiagram, v: HalfDiagram) -> tuple[int, HalfDiagram]:
    """Stack ``d`` above ``v`` and read off the top row before any zero test.

    The components of :func:`diagalg.diagrams._stack` that touch the top row
    come first, by least top dot, so their outer dots are the top-row blocks
    in canonical order.  Returns the count of the other components together
    with the top-row half-diagram, whose blocks carry a label exactly when a
    labeled block of ``v`` joins them.  Callers that need the module action
    should use :func:`act`, which applies the label-count test.
    """
    if d.n != v.n:
        raise InvariantViolation("action requires equal degrees")
    outer, middle = _stack(d, v)
    blocks = tuple(tuple(dots) for dots in outer if dots)
    # A block of v lies in one component: the one of its least dot.
    reached = {middle[v.blocks[i][0] - 1] for i in v.labeled}
    labeled = frozenset(c for c in reached if c < len(blocks))
    return len(outer) - len(blocks), HalfDiagram._trusted(d.n, blocks, labeled)


def act(d: SetPartitionDiagram, v: HalfDiagram) -> ScaledHalfDiagram:
    """Module action of a diagram on a half-diagram.

    The label count never increases under stacking; the action is zero as
    soon as it drops (a label merged with another or trapped in a
    component that misses the top row), and otherwise every trapped
    component contributes a power of delta.
    """
    t, top = act_top(d, v)
    if top.r < v.r:
        return ScaledHalfDiagram.zero()
    return ScaledHalfDiagram(DeltaPolynomial.delta_power(t), top)


@cache
def set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of {1..n} as block tuples, in restricted-growth order.

    Dot n joins each block of a partition of {1..n-1} in turn, then opens a
    block of its own, so blocks stay sorted and ordered by least element.
    """
    if n == 0:
        return ((),)
    out: list[tuple[tuple[int, ...], ...]] = []
    for blocks in set_partitions(n - 1):
        out.extend(blocks[:i] + (blocks[i] + (n,),) + blocks[i + 1:] for i in range(len(blocks)))
        out.append(blocks + ((n,),))
    return tuple(out)


def enumerate_basis(n: int, r: int) -> list[HalfDiagram]:
    """All (n, r)-half-diagrams in a reproducible order.

    Set partitions come in restricted-growth order; for each, the r-subsets
    of blocks to label come in lexicographic order.  The diagrams share the
    already canonical blocks, and one label set per block count and subset.
    """
    if r < 0 or r > n:
        return []
    label_sets = [[frozenset(labels) for labels in combinations(range(k), r)] for k in range(n + 1)]
    return [
        HalfDiagram._trusted(n, blocks, labels)
        for blocks in set_partitions(n)
        for labels in label_sets[len(blocks)]
    ]


@cache
def _stirling_row(n: int) -> tuple[int, ...]:
    """S(n, 0), ..., S(n, n), each row built from the one before, from row 0."""
    row = [1]
    for m in range(1, n + 1):
        row = [0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-set into k blocks."""
    return _stirling_row(n)[k] if 0 <= k <= n else 0


def bell(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(stirling2(n, k) for k in range(n + 1))


@cache
def half_diagram_count(n: int, r: int) -> int:
    """Number of (n, r)-half-diagrams: sum over k of S(n, k) * C(k, r)."""
    if r < 0 or r > n:
        return 0
    return sum(s * comb(k, r) for k, s in enumerate(_stirling_row(n)))


def dim_standard(n: int, nu: Partition) -> int:
    """Dimension of the degree-n standard module indexed by ``nu``.

    The free-module factorization: half-diagram count at r = |nu| times
    the standard tableau count of ``nu``.
    """
    nu = check_partition(nu)
    r = sum(nu)
    if r > n:
        raise ValueError(f"standard module needs |index| <= degree, got {r} > {n}")
    return half_diagram_count(n, r) * syt_count(nu)


def partitions_up_to(n: int):
    """All partitions of every size 0..n (the standard-module index set)."""
    for size in range(n + 1):
        yield from partitions_of(size)

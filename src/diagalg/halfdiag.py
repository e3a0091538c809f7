"""Half-diagrams: one-row set partitions carrying labeled blocks.

A half-diagram of degree n is a set partition of {1..n} with a chosen
subset of blocks marked as labeled.  The span of all half-diagrams with r
labels is a module over the degree-n diagram algebra: a diagram acts by
stacking, the surviving top row inherits a label on every block connected
to a labeled block below, and the result is zero whenever a label is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb

from .diagrams import (
    DeltaPolynomial,
    InvariantViolation,
    SetPartitionDiagram,
    _check_blocks,
    _check_count,
    _check_int,
    _json_list,
)
from .symfunc import Partition, _syt_count, check_partition, partitions_of


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
        labels: set[int] = set()
        for idx in labeled:
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(clean):
                raise InvariantViolation(f"labeled index {idx!r} does not point at a block")
            if idx in labels:
                raise InvariantViolation(f"labeled index {idx} appears more than once")
            labels.add(idx)
        order = sorted(range(len(clean)), key=lambda i: clean[i][0])
        self.n, self.blocks = n, tuple(clean[i] for i in order)
        self.labeled = frozenset(pos for pos, i in enumerate(order) if i in labels)

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
        return _render_row(self.blocks, self.labeled, str)

    def __repr__(self) -> str:
        return f"HalfDiagram({self.n}, {self.render()})"


def _render_row(blocks, labeled, dot_text) -> str:
    """A row as ``{{...},{...}*}``: each block's dots through ``dot_text``, a ``*`` after each labeled block."""
    pieces = []
    for i, block in enumerate(blocks):
        text = "{" + ",".join(map(dot_text, block)) + "}"
        pieces.append(text + "*" if i in labeled else text)
    return "{" + ",".join(pieces) + "}"


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class ScaledHalfDiagram:
    """A half-diagram scaled by a delta polynomial, or the zero value."""

    coeff: DeltaPolynomial
    diagram: HalfDiagram | None

    def __init__(self, coeff: DeltaPolynomial, diagram: HalfDiagram | None):
        if not isinstance(coeff, DeltaPolynomial):
            raise InvariantViolation(f"coefficient {coeff!r} is not a DeltaPolynomial")
        if diagram is not None and not isinstance(diagram, HalfDiagram):
            raise InvariantViolation(f"scaled value {diagram!r} is not a HalfDiagram or None")
        if not coeff or diagram is None:
            coeff, diagram = DeltaPolynomial.zero(), None
        self.coeff = coeff
        self.diagram = diagram

    @classmethod
    def _trusted(cls, coeff: DeltaPolynomial, diagram: HalfDiagram | None) -> "ScaledHalfDiagram":
        """Wrap a non-zero ``coeff`` and a ``diagram``, or the zero polynomial and None, with no check."""
        self = object.__new__(cls)
        self.coeff, self.diagram = coeff, diagram
        return self

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
    """Stack ``d`` above ``v``: the trapped count and top row from :func:`_glue`, before :func:`act`'s zero test."""
    if d.n != v.n:
        raise InvariantViolation("action requires equal degrees")
    t, merged, labeled = _glue(d, v)
    return t, HalfDiagram._trusted(d.n, tuple([tuple(dots) for dots in merged]), labeled)


def _glue(d: SetPartitionDiagram, v: HalfDiagram) -> tuple[int, list[list[int]], frozenset[int]]:
    """The trapped count, top-row dot lists and labeled top-row indices of ``d`` stacked above ``v``.

    The stacking kernel of :func:`act_top` and :func:`walled.transition`,
    which check that the degrees are equal.  Union-find runs over the blocks
    of ``v``; each block of ``d`` joins those holding its bottom dots.  The
    blocks of ``d`` that touch the top row come first, by least top dot, so
    grouping them by root keeps that order and their merged top dots are
    the top-row blocks in canonical order, each a sorted list.  A canonical
    block lists its top dots in order, so a group's dots need sorting only
    when a joined block's first top dot lies below the group's last.  ``v``
    covers every middle dot, so every component missing the top row holds a
    block of ``v``: the trapped count is the number of roots less the
    ``reached`` count of roots the top row joins.  A top-row block is labeled
    when a labeled block of ``v`` joins it.  Both maps are lists, not dicts:
    ``owner`` indexed by middle dot, ``group`` by block of ``v``.
    """
    owner = [0] * (v.n + 1)  # middle dot -> block of v; index 0 unused
    for i, block in enumerate(v.blocks):
        for k in block:
            owner[k] = i
    parent = list(range(len(v.blocks)))  # each find below is inlined, with path halving
    roots, rows = len(parent), []  # rows: (top dots, first block of v reached or -1)
    for block in d.blocks:
        tops, first = [], -1
        for k in block:
            if k > 0:
                tops.append(k)
                continue
            a = owner[-k]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if first < 0:
                first = a
            elif a != first:
                parent[a], roots = first, roots - 1
        if tops:
            rows.append((tops, first))
    group, reached, merged, unsorted = [-1] * len(parent), 0, [], False  # group: root -> its block in merged, or -1
    for tops, a in rows:
        if a >= 0:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            g = group[a]
            if g >= 0:
                dots = merged[g]
                unsorted = unsorted or dots[-1] > tops[0]
                dots += tops
                continue
            group[a], reached = len(merged), reached + 1
        merged.append(tops)
    if unsorted:
        merged = [sorted(dots) for dots in merged]
    labeled = []
    for a in v.labeled:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        if group[a] >= 0:
            labeled.append(group[a])
    return roots - reached, merged, frozenset(labeled)


def act(d: SetPartitionDiagram, v: HalfDiagram) -> ScaledHalfDiagram:
    """Module action of a diagram on a half-diagram.

    The label count never increases under stacking; the action is zero as
    soon as it drops (a label merged with another or trapped in a
    component that misses the top row), and otherwise every trapped
    component contributes a power of delta.  The trapped count is a valid
    exponent, so the result is built with no check.
    """
    t, top = act_top(d, v)
    if top.r < v.r:
        return ScaledHalfDiagram._trusted(DeltaPolynomial._trusted(()), None)
    return ScaledHalfDiagram._trusted(DeltaPolynomial._trusted(((t, 1),)), top)


def set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of {1..n} as block tuples, in restricted-growth order.

    Dot n joins each block of a partition of {1..n-1} in turn, then opens a
    block of its own, so blocks stay sorted and ordered by least element.
    """
    if _check_count(n, "n") == 0:
        return ((),)
    out: list[tuple[tuple[int, ...], ...]] = []
    for blocks in set_partitions(n - 1):
        out.extend(blocks[:i] + (blocks[i] + (n,),) + blocks[i + 1:] for i in range(len(blocks)))
        out.append(blocks + ((n,),))
    return tuple(out)


def enumerate_basis(n: int, r: int) -> list[HalfDiagram]:
    """All (n, r)-half-diagrams in a reproducible order.

    Set partitions come in restricted-growth order; for each, the r-subsets
    of blocks to label come in lexicographic order.  Only the diagrams of
    one call share their canonical blocks and label sets (one per block
    count and subset).  A label count r outside 0..n gives no diagram.
    """
    _check_count(n, "n")
    if not 0 <= _check_int(r, "r") <= n:
        return []
    label_sets = [[frozenset(labels) for labels in combinations(range(k), r)] for k in range(n + 1)]
    return [
        HalfDiagram._trusted(n, blocks, labels)
        for blocks in set_partitions(n)
        for labels in label_sets[len(blocks)]
    ]


@cache  # one key per degree n asked for, each a row of n + 1 integers
def _stirling_row(n: int) -> tuple[int, ...]:
    """S(n, 0), ..., S(n, n), each row built from the one before, from row 0."""
    row = [1]
    for m in range(1, n + 1):
        row = [0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-set into k blocks, zero for k outside 0..n."""
    _check_count(n, "n")
    return _stirling_row(n)[k] if 0 <= _check_int(k, "k") <= n else 0


def bell(n: int) -> int:
    """Number of set partitions of an n-set."""
    return sum(_stirling_row(_check_count(n, "n")))


@lru_cache(maxsize=None, typed=True)  # keys (n, r) as asked; typed: a bool or float n or r misses and meets its check
def half_diagram_count(n: int, r: int) -> int:
    """Number of (n, r)-half-diagrams: sum over k of S(n, k) * C(k, r), zero for r outside 0..n.

    Cold, the Stirling row costs time quadratic in n on growing integers:
    r = 2 returns within 1 s up to n = 1,650 on a 2-core x86 host.
    """
    _check_count(n, "n")
    if not 0 <= _check_int(r, "r") <= n:
        return 0
    return sum(s * comb(k, r) for k, s in enumerate(_stirling_row(n)))


def dim_standard(n: int, nu: Partition) -> int:
    """Dimension of the degree-n standard module indexed by ``nu``.

    The free-module factorization: half-diagram count at r = |nu| times
    the standard tableau count of ``nu``.
    """
    nu = check_partition(nu)
    if sum(nu) > _check_count(n, "n"):
        raise ValueError(f"standard module needs |index| <= degree, got {sum(nu)} > {n}")
    return half_diagram_count(n, sum(nu)) * _syt_count(nu)


def partitions_up_to(n: int):
    """All partitions of every size 0..n (the standard-module index set)."""
    # the outermost range is built here, so a bad n raises at the call
    return (nu for size in range(_check_count(n, "n") + 1) for nu in partitions_of(size))

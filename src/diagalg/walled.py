"""Walled half-diagrams and their four-part index bookkeeping.

A walled half-diagram splits m + n dots by a wall after position m; the
right-hand dots are read as n', ..., 1' so the whole row carries the order
1 < ... < m < n' < ... < 1'.  Each such diagram gets an index
(U; T, L, R): through-unlabeled and through-labeled block counts for the
blocks crossing the wall, plus left and right labeled counts for the rest.
The tensor-product generators can only move this index down in the
lexicographic order with priorities U, T, L, R, and the possible moves
fall into five cases (three preserve the total label count, two lower it).
"""

from __future__ import annotations

import enum
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from .diagrams import InvariantViolation, SetPartitionDiagram, _node_text, generator
from .halfdiag import HalfDiagram, act_top, enumerate_basis, half_diagram_count


class WalledIndex(NamedTuple):
    """Block counts of a walled half-diagram, in lexicographic priority order."""

    through_unlabeled: int
    through_labeled: int
    left_labeled: int
    right_labeled: int

    def render(self) -> str:
        u, t, l, r = self
        return f"{u};{t},{l},{r}"

    @classmethod
    def parse(cls, text: str) -> "WalledIndex":
        head, _, tail = text.partition(";")
        parts = [head] + tail.split(",")
        if len(parts) != 4:
            raise ValueError(f"index text must look like 'U;T,L,R', got {text!r}")
        return cls(*(int(x) for x in parts))


def lex_compare(a: WalledIndex, b: WalledIndex) -> int:
    """-1, 0 or 1 comparing indices by the priorities U, T, L, R."""
    return (a > b) - (a < b)


def _position(m: int, n: int, dot: int) -> int:
    """Signed dot name (+k left of the wall, -k for k') to row position."""
    if dot > 0:
        if dot > m:
            raise InvariantViolation(f"left dot {dot} exceeds m={m}")
        return dot
    k = -dot
    if not 1 <= k <= n:
        raise InvariantViolation(f"right dot {k}' exceeds n={n}")
    return m + n + 1 - k


class WalledHalfDiagram:
    """A half-diagram on m + n dots with a wall after position m.

    Positions 1..m sit left of the wall; position m + i stands for the
    primed dot (n + 1 - i)', so the rightmost position is 1'.
    """

    __slots__ = ("m", "n", "half")

    def __init__(self, m: int, n: int, half: HalfDiagram):
        if m < 0 or n < 0:
            raise InvariantViolation("side degrees must be non-negative")
        if half.n != m + n:
            raise InvariantViolation(f"underlying half-diagram must have degree {m + n}")
        self.m = m
        self.n = n
        self.half = half

    @classmethod
    def from_blocks(cls, m: int, n: int, blocks, labeled=()) -> "WalledHalfDiagram":
        return cls(m, n, HalfDiagram(m + n, blocks, labeled))

    def position_of(self, dot: int) -> int:
        """Map a signed dot name (+k left, -k for k') to its position."""
        return _position(self.m, self.n, dot)

    @classmethod
    def from_json(cls, data) -> "WalledHalfDiagram":
        if not isinstance(data, dict) or not {"m", "n", "blocks"} <= set(data):
            raise ValueError("walled JSON must be an object with 'm', 'n' and 'blocks'")
        m, n = data["m"], data["n"]
        if not isinstance(m, int) or not isinstance(n, int) or m < 0 or n < 0:
            raise ValueError("'m' and 'n' must be non-negative integers")
        blocks = [[_position(m, n, dot) for dot in block] for block in data["blocks"]]
        return cls.from_blocks(m, n, blocks, data.get("labeled", ()))

    def _dot(self, pos: int) -> int:
        """Signed dot name of a position; the inverse of :meth:`position_of`."""
        return pos if pos <= self.m else -(self.m + self.n + 1 - pos)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "blocks": [[self._dot(p) for p in block] for block in self.half.blocks],
            "labeled": sorted(self.half.labeled),
        }

    def render(self) -> str:
        pieces = []
        for i, block in enumerate(self.half.blocks):
            body = "{" + ",".join(_node_text(self._dot(p)) for p in block) + "}"
            pieces.append(body + "*" if i in self.half.labeled else body)
        return "{" + ",".join(pieces) + "}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WalledHalfDiagram)
            and (self.m, self.n) == (other.m, other.n)
            and self.half == other.half
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.half))

    def __repr__(self) -> str:
        return f"WalledHalfDiagram({self.m}|{self.n}, {self.render()})"


def index_of(w: WalledHalfDiagram) -> WalledIndex:
    """Classify every block by wall crossing and label to form the index."""
    return _index(w.m, w.half)


def _index(m: int, half: HalfDiagram) -> WalledIndex:
    """The index of ``half`` with the wall after position m."""
    u = t = l = r = 0
    for i, block in enumerate(half.blocks):
        left, right = block[0] <= m, block[-1] > m
        if i not in half.labeled:
            u += left and right
        elif left and right:
            t += 1
        elif left:
            l += 1
        else:
            r += 1
    return WalledIndex(u, t, l, r)


def enumerate_walled(m: int, n: int, r: int) -> list[WalledHalfDiagram]:
    """All (m|n, r)-walled half-diagrams, in the half-diagram basis order."""
    return [WalledHalfDiagram(m, n, hd) for hd in enumerate_basis(m + n, r)]


def census(m: int, n: int, r: int) -> dict[WalledIndex, int]:
    """Count the (m|n, r)-walled half-diagrams by index, sorted by index.

    A dynamic program that never builds a diagram: O(m^2 n^2) steps
    place the dots and O(m^2 n r^2) more choose the labels.  The left dots
    come first, with state a, the number of blocks so far.  The right dots
    follow with state (a, c, b): c of the a left blocks have been crossed
    into and b blocks are right-only.  A right dot joins one of the c + b
    blocks that already hold a right dot, crosses into one of the a - c
    others, or opens a right-only block.  Labels then pick T of the c
    through blocks, L of the a - c left-only blocks and R of the b
    right-only ones, for index (c - T; T, L, R).  Tests check it against
    :func:`enumerate_walled` with :func:`index_of`.
    """
    if m < 0 or n < 0:
        raise InvariantViolation("side degrees must be non-negative")
    left = [1]  # left[a]: set partitions of the left dots into a blocks
    for _ in range(m):
        left = [a * left[a] + left[a - 1] if a else 0 for a in range(len(left))] + [left[-1]]
    states = {(a, 0, 0): count for a, count in enumerate(left) if count}
    for _ in range(n):
        step: dict[tuple[int, int, int], int] = {}
        for (a, c, b), count in states.items():
            if c + b:
                step[a, c, b] = step.get((a, c, b), 0) + count * (c + b)
            if a > c:
                step[a, c + 1, b] = step.get((a, c + 1, b), 0) + count * (a - c)
            step[a, c, b + 1] = step.get((a, c, b + 1), 0) + count
        states = step
    out: dict[WalledIndex, int] = {}
    for (a, c, b), count in states.items():
        for t in range(min(c, r) + 1):
            for l in range(min(a - c, r - t) + 1):
                right = r - t - l
                if right <= b:
                    idx = WalledIndex(c - t, t, l, right)
                    out[idx] = out.get(idx, 0) + count * comb(c, t) * comb(a - c, l) * comb(b, right)
    return dict(sorted(out.items()))


def index_count_formula(m: int, n: int, idx: WalledIndex) -> int:
    """Closed-form count of (m|n)-walled half-diagrams with a given index.

    Cutting the through blocks at the wall leaves a half-diagram with
    U + T + L marked blocks on the left and U + T + R on the right; the
    reassembly data are which marked blocks cross the wall on each side, a
    matching between them, and which matched pairs carry a label:

        hd(m, U+T+L) * hd(n, U+T+R)
          * C(U+T+L, U+T) * C(U+T+R, U+T) * (U+T)! * C(U+T, T)

    With kL = U+T+L and kR = U+T+R this is the multinomial form

        hd(m, kL) * hd(n, kR) * kL! * kR! / (U! * T! * L! * R!)

    The product hd(m, kL) * hd(n, kR) * U! * T! is not the count: at
    (1|2, 1), index (1;0,0,1), it gives 1, but the two diagrams
    {{1,2'},{1'}*} and {{1,1'},{2'}*} have that index.

    Zero when either side cannot host its marked blocks.
    """
    u, t, l, r = idx
    k_left = u + t + l
    k_right = u + t + r
    if k_left > m or k_right > n:
        return 0
    return (
        half_diagram_count(m, k_left)
        * half_diagram_count(n, k_right)
        * comb(k_left, u + t)
        * comb(k_right, u + t)
        * factorial(u + t)
        * comb(u + t, t)
    )


@cache
def tensor_generators(m: int, n: int) -> tuple[tuple[str, SetPartitionDiagram], ...]:
    """Generators of the two-sided algebra acting on (m|n)-walled diagrams.

    Each is a one-sided generator juxtaposed with the identity on the other
    side, built directly on the m + n positions.
    """
    gens: list[tuple[str, SetPartitionDiagram]] = []
    total = m + n
    for i in range(1, m + 1):
        gens.append((f"p[{i}]#left", generator("P", i, None, total)))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            gens.append((f"e[{i},{j}]#left", generator("E", i, j, total)))
            gens.append((f"s[{i},{j}]#left", generator("S", i, j, total)))
    for i in range(1, n + 1):
        gens.append((f"p[{i}]#right", generator("P", m + i, None, total)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append((f"e[{i},{j}]#right", generator("E", m + i, m + j, total)))
            gens.append((f"s[{i},{j}]#right", generator("S", m + i, m + j, total)))
    return tuple(gens)


@cache
def _tensor_generator_set(m: int, n: int) -> frozenset[SetPartitionDiagram]:
    members = {d for _, d in tensor_generators(m, n)}
    members.add(SetPartitionDiagram.identity(m + n))
    return frozenset(members)


class TransitionCase(enum.Enum):
    """Outcome of one generator application to a walled half-diagram index."""

    UNCHANGED = "unchanged"
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"
    CASE_IV = "IV"
    CASE_V = "V"

    @property
    def keeps_label_count(self) -> bool:
        return self in (
            TransitionCase.UNCHANGED,
            TransitionCase.CASE_I,
            TransitionCase.CASE_II,
            TransitionCase.CASE_III,
        )


class TransitionClassificationError(ValueError):
    """An index delta fell outside the five admissible cases."""


class Transition(NamedTuple):
    old: WalledIndex
    new: WalledIndex
    case: TransitionCase


_CASE_BY_DELTA = {
    (0, -1, 0, 1): TransitionCase.CASE_I,
    (0, -1, 1, 0): TransitionCase.CASE_I,
    (-1, 1, -1, 0): TransitionCase.CASE_II,
    (-1, 1, 0, -1): TransitionCase.CASE_II,
    (-1, 0, 0, 0): TransitionCase.CASE_III,
    (0, 0, -1, 0): TransitionCase.CASE_IV,
    (0, 0, 0, -1): TransitionCase.CASE_IV,
    (0, -1, 0, 0): TransitionCase.CASE_V,
}


def transition(g: SetPartitionDiagram, w: WalledHalfDiagram) -> Transition:
    """Apply a tensor-algebra generator and classify the index move.

    The new index is read off the stacked diagram's top row before the
    zero test of the module action, so the label-dropping cases IV and V
    are still reported with their index delta.
    """
    if g.n != w.m + w.n:
        raise InvariantViolation("generator degree must match the walled diagram")
    if g not in _tensor_generator_set(w.m, w.n):
        raise ValueError("diagram is not a juxtaposed one-sided generator or the identity")
    old = index_of(w)
    _, top = act_top(g, w.half)
    new = _index(w.m, top)
    if new == old:
        return Transition(old, new, TransitionCase.UNCHANGED)
    delta = tuple(b - a for a, b in zip(old, new))
    case = _CASE_BY_DELTA.get(delta)
    if case is None:
        raise TransitionClassificationError(
            f"index moved {old.render()} -> {new.render()}, outside the admissible cases"
        )
    return Transition(old, new, case)


def classify_transition(g: SetPartitionDiagram, w: WalledHalfDiagram) -> TransitionCase:
    """The transition case alone; see :func:`transition` for the index pair."""
    return transition(g, w).case

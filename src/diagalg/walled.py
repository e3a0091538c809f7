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
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, factorial
from operator import add
from typing import NamedTuple

from .diagrams import InvariantViolation, SetPartitionDiagram, _json_list, _node_text, generator
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


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class WalledHalfDiagram:
    """A half-diagram on m + n dots with a wall after position m.

    Positions 1..m sit left of the wall; position m + i stands for the
    primed dot (n + 1 - i)', so the rightmost position is 1'.
    """

    m: int
    n: int
    half: HalfDiagram

    def __init__(self, m: int, n: int, half: HalfDiagram):
        if type(m) is not int or type(n) is not int or m < 0 or n < 0:  # bool included
            raise InvariantViolation(f"side degrees must be non-negative integers, got {m!r} and {n!r}")
        if not isinstance(half, HalfDiagram):
            raise InvariantViolation(f"underlying half-diagram {half!r} is not a HalfDiagram")
        if half.n != m + n:
            raise InvariantViolation(f"underlying half-diagram must have degree {m + n}")
        self.m = m
        self.n = n
        self.half = half

    @classmethod
    def from_blocks(cls, m: int, n: int, blocks, labeled=()) -> "WalledHalfDiagram":
        return cls(m, n, HalfDiagram(m + n, blocks, labeled))

    @classmethod
    def from_json(cls, data) -> "WalledHalfDiagram":
        if not isinstance(data, dict) or not {"m", "n", "blocks"} <= set(data):
            raise ValueError("walled JSON must be an object with 'm', 'n' and 'blocks'")
        m, n = data["m"], data["n"]
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in (m, n)):
            raise ValueError("'m' and 'n' must be non-negative integers")
        dots = _json_list(data, "blocks", of_lists=True)
        blocks = [[_position(m, n, dot) for dot in block] for block in dots]
        return cls.from_blocks(m, n, blocks, _json_list(data, "labeled", of_lists=False))

    def _dot(self, pos: int) -> int:
        """Signed dot name of a position; the inverse of :func:`_position`."""
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

    A read-out of :func:`_census_table`, which builds no diagram and does
    not depend on r.  With G_c[L][R] the number of diagrams with c blocks
    crossing the wall, L labeled left-only and R labeled right-only blocks,
    labeling T of the c gives index (c - T; T, L, R) the count
    C(c, T) * G_c[L][R].  The r labels leave L + R = r - T, so each (U, T)
    reads the one anti-diagonal of G_c that holds exactly its non-zero
    counts, in ascending L.  A call costs a step per (U, T) and a product
    and a dict entry per index it returns.  The table is the costly part:
    O(m^2 + m n^3) additions of small multiples for m >= n (and the mirror
    image for m < n), about 10 ms at m = n = 20.  Tests check the counts
    against :func:`enumerate_walled` with :func:`index_of` and against a
    per-call dynamic program.
    """
    if m < 0 or n < 0:
        raise InvariantViolation("side degrees must be non-negative")
    firsts, layers = _census_table(m, n)
    out: dict[WalledIndex, int] = {}
    key = tuple.__new__  # key(WalledIndex, values) skips the NamedTuple's Python-level __new__
    top = len(layers) - 1
    for u in range(top + 1):
        for t in range(min(r, top - u) + 1):
            weights, diagonals = layers[u + t]
            s = r - t
            if s < len(diagonals):
                weight = weights[t]
                for l, g in enumerate(diagonals[s], firsts[s + u + t]):
                    out[key(WalledIndex, (u, t, l, s - l))] = weight * g
    return out


@lru_cache(maxsize=32)
def _census_table(
    m: int, n: int
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]]:
    """The census of (m|n) at every r, as ``(firsts, layers)``.

    ``layers[c]`` is ``(weights, diagonals)`` for c blocks crossing the
    wall: ``weights[T]`` is C(c, T), and ``diagonals[s]`` holds G_c[L][s - L]
    for L from ``firsts[s + c]`` = max(0, s + c - n) up to min(s, m - c).
    Those are all non-zero, and every other entry is zero, since a crossing
    or labeled one-sided block needs a dot of its own side.

    Every call with the same (m|n) shares it, so it is built of tuples.
    :func:`_crossing_sums` is cheapest with the larger side placed first.
    Mirroring a diagram in the wall swaps L and R, so for m < n the sums
    of (n|m) are G_c[L][R], and for m >= n they are G_c[R][L].
    """
    layers, weights = [], ()
    for c, rows in enumerate(_crossing_sums(max(m, n), min(m, n))):
        half = (1, *map(add, weights, weights[1 : c // 2 + 1]))  # Pascal's rule up to C(c, c // 2)
        weights = half + half[: (c + 1) // 2][::-1]  # C(c, T) = C(c, c - T): one int for both
        # rows[x][y] counts x labeled one-sided blocks on the smaller side and y on
        # the larger, all non-zero: each goes on diagonal x + y.  L is x for m < n
        # and y for m >= n, so visiting x up or down puts each diagonal in ascending L.
        diagonals = [[] for _ in range(len(rows) + len(rows[0]) - 1)]
        for x in range(len(rows)) if m < n else reversed(range(len(rows))):
            for s, g in enumerate(rows[x], x):
                diagonals[s].append(g)
        layers.append((weights, tuple(map(tuple, diagonals))))
    return (0,) * n + tuple(range(m + 1)), tuple(layers)


def _crossing_sums(m: int, n: int) -> list[list[list[int]]]:
    """G_c[L][R] of the (m|n)-walled half-diagrams, as ``sums[c][R][L]``.

    A dynamic program that places the dots one at a time.  With a blocks
    holding a left dot, c of them crossed into, and b right-only blocks,
    it carries sum C(a - c, L) * C(b, R) over the placements so far, so
    no state records a or b:

    - A left dot opens a block, labeled or not, or joins one of the a
      blocks: a * C(a, L) = L * C(a, L) + (L + 1) * C(a, L + 1).
    - A right dot joins one of the c + b blocks that hold a right dot,
      where b * C(b, R) = R * C(b, R) + (R + 1) * C(b, R + 1); opens a
      right-only block, labeled or not; or crosses into one of the a - c
      left-only blocks, which moves (c, L + 1) to (c + 1, L) with weight
      L + 1, since (a - c) * C(a - c - 1, L) = (L + 1) * C(a - c, L + 1).

    After j right dots ``sums[c][R]`` is the vector over L <= m - c, for
    R <= j - c: O(n^3) vectors of length at most m + 1 in all.
    """
    left = [1]  # left[L]: the left dots placed so far, L blocks labeled
    ks = range(1, m + 2)
    for _ in range(m):
        left.append(0)
        left = [below + k * (here + above) for k, below, here, above in zip(ks, [0, *left], left, [*left[1:], 0])]
    sums = [[left]]
    for j in range(n):
        step = []
        for c in range(min(m, j + 1) + 1):
            zero = [0] * (m - c + 1)
            padded = [zero, *(sums[c] if c <= j else ()), zero, zero]
            rows = []
            for right in range(j + 2 - c):
                below, here, above = padded[right : right + 3]
                grow, join = c + right + 1, right + 1
                if c:
                    crossed = sums[c - 1][right]
                    rows.append(
                        [grow * x + join * y + z + k * w for k, x, y, z, w in zip(ks, here, above, below, crossed[1:])]
                    )
                else:
                    rows.append([join * (x + y) + z for x, y, z in zip(here, above, below)])
            step.append(rows)
        sums = step
    return sums


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

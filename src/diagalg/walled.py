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
from itertools import combinations
from math import comb, factorial
from typing import NamedTuple

from .diagrams import InvariantViolation, SetPartitionDiagram, _check_count, _check_int, _json_list, _node_text, generator
from .halfdiag import HalfDiagram, _glue, _render_row, enumerate_basis, half_diagram_count


class WalledIndex(NamedTuple):
    """Block counts of a walled half-diagram, in lexicographic priority order."""

    through_unlabeled: int
    through_labeled: int
    left_labeled: int
    right_labeled: int

    def render(self) -> str:
        u, t, l, r = self
        return f"{u};{t},{l},{r}"


def _position(m: int, n: int, dot: int) -> int:
    """Signed dot name (+k left of the wall, -k for k') to row position."""
    if dot > 0:
        if dot > m:
            raise InvariantViolation(f"left dot {dot} exceeds m={m}")
        return dot
    if dot == 0:
        raise InvariantViolation(f"dot {dot!r} is neither a left dot 1..{m} nor a right dot 1'..{n}'")
    k = -dot
    if k > n:
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
        _check_count(m, "m", InvariantViolation)
        _check_count(n, "n", InvariantViolation)
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
        m, n = _check_count(data["m"], "'m'"), _check_count(data["n"], "'n'")
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
        return _render_row(self.half.blocks, self.half.labeled, lambda p: _node_text(self._dot(p)))

    def __repr__(self) -> str:
        return f"WalledHalfDiagram({self.m}|{self.n}, {self.render()})"


def index_of(w: WalledHalfDiagram) -> WalledIndex:
    """Classify every block by wall crossing and label to form the index."""
    return _index(w.m, w.half.blocks, w.half.labeled)


def _index(m: int, blocks, labeled) -> WalledIndex:
    """The index of sorted ``blocks``, those at the ``labeled`` indices labeled, with the wall after position m."""
    u = t = l = r = 0
    for i, block in enumerate(blocks):
        left, right = block[0] <= m, block[-1] > m
        if i not in labeled:
            u += left and right
        elif left and right:
            t += 1
        elif left:
            l += 1
        else:
            r += 1
    return tuple.__new__(WalledIndex, (u, t, l, r))


def enumerate_walled(m: int, n: int, r: int) -> list[WalledHalfDiagram]:
    """All (m|n, r)-walled half-diagrams, in the half-diagram basis order."""
    m, n = _check_count(m, "m"), _check_count(n, "n")
    return [WalledHalfDiagram(m, n, hd) for hd in enumerate_basis(m + n, r)]


def census(m: int, n: int, r: int) -> dict[WalledIndex, int]:
    """Count the (m|n, r)-walled half-diagrams by index, sorted by index.

    A read-out of row r of :func:`_census_table`, which builds no diagram.
    With G_c[L][R] the number of diagrams with c blocks crossing the wall,
    L labeled left-only and R labeled right-only blocks, labeling T of the
    c gives index (c - T; T, L, R) the count C(c, T) * G_c[L][R].  The r
    labels leave L + R = r - T, so each (U, T) in the row reads the one
    anti-diagonal of G_c that holds exactly its non-zero counts, in
    ascending L.  A call costs a step per (U, T) of its row and a product
    and a dict entry per index it returns.  The table is the costly part:
    O(m n min(m, n)) products of two one-sided counts; within m + n <= 40
    the costliest is (20|20), about 1.6 ms cold on a 2-core x86 host.  Tests
    check the counts against :func:`enumerate_walled` with :func:`index_of`,
    a brute-force census and a per-call dynamic program.  A label count r
    outside 0..m + n gives an empty census.
    """
    m, n = _check_count(m, "m"), _check_count(n, "n")
    rows = _census_table(m, n)
    out: dict[WalledIndex, int] = {}
    if not 0 <= _check_int(r, "r") < len(rows):
        return out
    key = tuple.__new__  # key(WalledIndex, values) skips the NamedTuple's Python-level __new__
    for u, t, weight, l, counts in rows[r]:
        s = r - t
        for g in counts:
            out[key(WalledIndex, (u, t, l, s - l))] = weight * g
            l += 1
    return out


@lru_cache(maxsize=32)
def _census_table(m: int, n: int) -> tuple[tuple[tuple[int, int, int, int, tuple[int, ...]], ...], ...]:
    """The census of (m|n) at every r, as one row per label count r.

    Row r lists ``(U, T, C(c, T), L0, counts)`` for each (U, T) that has an
    index with r labels, in ascending (U, T), with c = U + T: ``counts``
    holds G_c[L][s - L] for s = r - T and L from L0 = max(0, s + c - n) up
    to min(s, m - c).  Those are all non-zero, and every other entry is
    zero, since a crossing or labeled one-sided block needs a dot of its
    own side.  Each anti-diagonal of G_c is one tuple, shared by the rows
    of its c + 1 values of T.

    Cutting the c crossing blocks at the wall leaves a one-sided
    half-diagram on each side, with c + L and c + R marked blocks, and a
    matching of the c cut ends.  So G_c[L][R] is the product of a left and
    a right count and c!, the sum over T of :func:`index_count_formula`:

        c! * hd(m, c + L) * C(c + L, c) * hd(n, c + R) * C(c + R, c)

    Every call with the same (m|n) shares it, so it is built of tuples.
    """
    left = [half_diagram_count(m, k) for k in range(m + 1)]
    right = [half_diagram_count(n, k) for k in range(n + 1)]
    diagonals = []  # diagonals[c][s] = (L0, G_c's anti-diagonal L + R = s from L = L0 on)
    for c in range(min(m, n) + 1):
        lefts = [left[c + l] * comb(c + l, c) for l in range(m - c + 1)]
        rights = [factorial(c) * right[c + r] * comb(c + r, c) for r in range(n - c + 1)]
        diagonals.append([])
        for s in range(m + n - 2 * c + 1):
            first = max(0, s + c - n)
            diagonals[c].append((first, tuple(lefts[l] * rights[s - l] for l in range(first, min(s, m - c) + 1))))
    rows: list[list] = [[] for _ in range(m + n + 1)]
    for u in range(len(diagonals)):
        for t in range(len(diagonals) - u):  # in ascending (U, T), so every row comes out in key order
            weight = comb(u + t, t)
            for row, (first, counts) in zip(rows[t:], diagonals[u + t]):  # anti-diagonal s goes to row s + T
                row.append((u, t, weight, first, counts))
    return tuple(map(tuple, rows))


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

    Zero when an entry is negative or either side cannot host its marked
    blocks.
    """
    m, n = _check_count(m, "m"), _check_count(n, "n")
    u, t, l, r = idx
    k_left = u + t + l
    k_right = u + t + r
    if min(u, t, l, r) < 0 or k_left > m or k_right > n:
        return 0
    return (
        half_diagram_count(m, k_left)
        * half_diagram_count(n, k_right)
        * comb(k_left, u + t)
        * comb(k_right, u + t)
        * factorial(u + t)
        * comb(u + t, t)
    )


def tensor_generators(m: int, n: int) -> tuple[tuple[str, SetPartitionDiagram], ...]:
    """Generators of the two-sided algebra acting on (m|n)-walled diagrams.

    Each is a one-sided generator juxtaposed with the identity on the other
    side, built directly on the m + n positions.
    """
    m, n = _check_count(m, "m"), _check_count(n, "n")
    gens: list[tuple[str, SetPartitionDiagram]] = []
    for side, offset, size in (("left", 0, m), ("right", m, n)):
        gens += [(f"p[{i}]#{side}", generator("P", offset + i, None, m + n)) for i in range(1, size + 1)]
        for i, j in combinations(range(1, size + 1), 2):
            gens.append((f"e[{i},{j}]#{side}", generator("E", offset + i, offset + j, m + n)))
            gens.append((f"s[{i},{j}]#{side}", generator("S", offset + i, offset + j, m + n)))
    return tuple(gens)


@cache  # one key per degree pair (m|n) that transition meets
def _tensor_generator_set(m: int, n: int) -> frozenset[tuple]:
    members = {d.blocks for _, d in tensor_generators(m, n)}
    members.add(SetPartitionDiagram.identity(m + n).blocks)
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


# The last diagram :func:`transition` read and its index, replaced as one
# pair.  A sweep applies every generator to the same diagram in a row, so
# each diagram's old index is computed once.  Matched by identity: the pair
# holds ``w`` itself, so its id cannot be reused while it is here.
_last_index: tuple = (None, None)


def transition(g: SetPartitionDiagram, w: WalledHalfDiagram) -> Transition:
    """Apply a tensor-algebra generator and classify the index move.

    The new index is read off the top-row groups of the stacking kernel
    :func:`halfdiag._glue`, before the zero test of the module action and
    with no top-row half-diagram built, so the label-dropping cases IV and
    V are still reported with their index delta.  The old index comes from a
    one-entry memo of the last diagram seen; it equals :func:`index_of`.
    """
    global _last_index
    if g.n != w.m + w.n:
        raise InvariantViolation("generator degree must match the walled diagram")
    if g.blocks not in _tensor_generator_set(w.m, w.n):  # at the degree checked above, the blocks name g
        raise ValueError("diagram is not a juxtaposed one-sided generator or the identity")
    last, old = _last_index
    if w is not last:
        old = index_of(w)
        _last_index = (w, old)
    _, blocks, labeled = _glue(g, w.half)
    new = _index(w.m, blocks, labeled)
    if new == old:
        return tuple.__new__(Transition, (old, new, TransitionCase.UNCHANGED))
    u, t, l, r = old
    u2, t2, l2, r2 = new
    case = _CASE_BY_DELTA.get((u2 - u, t2 - t, l2 - l, r2 - r))
    if case is None:
        raise TransitionClassificationError(
            f"index moved {old.render()} -> {new.render()}, outside the admissible cases"
        )
    return tuple.__new__(Transition, (old, new, case))

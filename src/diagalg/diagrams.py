"""Set-partition diagrams of degree n with exact delta-power composition.

A diagram is a set partition of the 2n boundary dots of a rectangle, with
n dots on the top edge and n on the bottom.  Composition stacks two
diagrams and removes the components trapped in the middle, each of which
contributes one power of the loop parameter delta.  Delta stays symbolic:
coefficients live in the integer polynomial ring.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass


class InvariantViolation(ValueError):
    """An input value breaks a structural invariant; the message names it."""


def _check_count(value: int, name: str, error: type[ValueError] = ValueError) -> int:
    """Return ``value`` if it is a non-negative int (not a bool), else raise ``error`` naming it.

    Value constructors pass :class:`InvariantViolation`; argument checks keep
    the default :class:`ValueError`.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise error(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _merge_terms(items) -> dict:
    """Sum the coefficients of equal keys, dropping a key as soon as its sum is zero.

    Coefficients only need ``+`` and truth testing, so ints and
    :class:`DeltaPolynomial` both work.  A key keeps its place while its sum
    stays nonzero; one that cancels and comes back is appended anew.
    """
    out: dict = {}
    for key, coeff in items:
        coeff = out[key] + coeff if key in out else coeff
        if coeff:
            out[key] = coeff
        else:
            out.pop(key, None)
    return out


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class DeltaPolynomial:
    """Integer-coefficient polynomial in the symbolic loop parameter delta.

    Immutable; stored as sorted (exponent, coefficient) pairs with no zero
    entries.  The zero polynomial has no terms.
    """

    _terms: tuple[tuple[int, int], ...]

    def __init__(self, terms=()):
        items = tuple(terms.items() if isinstance(terms, dict) else terms)
        for exp, coeff in items:
            _check_count(exp, "delta exponent", InvariantViolation)
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise InvariantViolation(f"delta coefficient {coeff!r} is not an integer")
        self._terms = tuple(sorted(_merge_terms(items).items()))

    @classmethod
    def _trusted(cls, terms: tuple) -> "DeltaPolynomial":
        """Wrap ``terms``, already sorted with int coefficients and no zeros, with no check or copy."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "DeltaPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "DeltaPolynomial":
        return cls(((0, 1),))

    @classmethod
    def delta_power(cls, exp: int, coeff: int = 1) -> "DeltaPolynomial":
        return cls(((exp, coeff),))

    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> "DeltaPolynomial":
        if not isinstance(other, DeltaPolynomial):
            return NotImplemented
        return DeltaPolynomial._trusted(tuple(sorted(_merge_terms(self._terms + other._terms).items())))

    def __mul__(self, other) -> "DeltaPolynomial":
        if isinstance(other, DeltaPolynomial):
            factor = other._terms
        elif isinstance(other, int) and not isinstance(other, bool):
            factor = ((0, other),)
        else:
            return NotImplemented
        # Sums of valid exponents and products of ints need no check.
        products = ((e1 + e2, c1 * c2) for e1, c1 in self._terms for e2, c2 in factor)
        return DeltaPolynomial._trusted(tuple(sorted(_merge_terms(products).items())))

    __rmul__ = __mul__

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in reversed(self._terms):
            if exp == 0:
                parts.append(str(coeff))
            else:
                power = "δ" if exp == 1 else f"δ^{exp}"
                parts.append(power if coeff == 1 else f"{coeff}·{power}")
        return " + ".join(parts)

    def to_json(self) -> list[dict[str, int]]:
        return [{"delta_pow": e, "coeff": c} for e, c in reversed(self._terms)]

    def __repr__(self) -> str:
        return f"DeltaPolynomial({self.render()!r})"


def _node_text(node: int) -> str:
    return str(node) if node > 0 else f"{-node}'"


def _json_list(data: dict, field: str, of_lists: bool) -> list:
    """``data[field]`` (``[]`` if absent), checked to be a list of ints, or of int lists when ``of_lists``."""
    value = data.get(field, [])
    rows = value if of_lists and isinstance(value, list) else [value]
    if not all(isinstance(row, list) and all(isinstance(x, int) for x in row) for row in rows):
        raise ValueError(f"{field!r} must be a list of {'lists of integers' if of_lists else 'integers'}")
    return value


def _check_blocks(n: int, blocks, signed: bool) -> list[tuple[int, ...]]:
    """Check that non-empty ``blocks`` hold each dot once; return them as tuples, in order.

    The dots are +-1..+-n with ``signed`` (a diagram), else 1..n (a half-diagram).
    """
    _check_count(n, "degree", InvariantViolation)
    low = -n if signed else 1
    seen: set[int] = set()
    clean: list[tuple[int, ...]] = []
    for block in blocks:
        bl = tuple(block)
        if not bl:
            raise InvariantViolation("blocks must be non-empty")
        for dot in bl:
            if not isinstance(dot, int) or isinstance(dot, bool) or dot == 0 or not low <= dot <= n:
                raise InvariantViolation(f"dot {dot!r} out of range for degree {n}")
            if dot in seen:
                raise InvariantViolation(f"dot {_node_text(dot)} appears in more than one block")
            seen.add(dot)
        clean.append(bl)
    if len(seen) != (2 * n if signed else n):
        cover = "all 2n dots" if signed else "1..n"
        raise InvariantViolation(f"blocks must cover {cover} exactly once")
    return clean


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class SetPartitionDiagram:
    """A set partition of the 2n dots on a degree-n diagram boundary.

    Dots are signed integers: +k is the k-th top dot, -k the k-th bottom
    dot.  Blocks are held in a canonical form (nodes sorted by the boundary
    order 1 < ... < n < n' < ... < 1', blocks by least node) so equality
    and hashing are structural.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, blocks):
        top, bottom = [], []
        for block in _check_blocks(n, blocks, signed=True):
            dots = sorted(block)
            if dots[-1] < 0:
                bottom.append(tuple(dots))
            else:  # numeric order is n' < ... < 1' < 1 < ... < n: rotate at the sign cut
                cut = bisect(dots, 0)
                top.append((*dots[cut:], *dots[:cut]))
        self.n, self.blocks = n, (*sorted(top), *sorted(bottom))

    @classmethod
    def _trusted(cls, n: int, blocks: tuple) -> "SetPartitionDiagram":
        """Wrap ``blocks``, already in the canonical form above, with no check or copy."""
        self = object.__new__(cls)
        self.n, self.blocks = n, blocks
        return self

    @classmethod
    def identity(cls, n: int) -> "SetPartitionDiagram":
        return cls(n, [(k, -k) for k in range(1, n + 1)])

    @classmethod
    def from_json(cls, data) -> "SetPartitionDiagram":
        if not isinstance(data, dict) or "n" not in data or "blocks" not in data:
            raise ValueError("diagram JSON must be an object with 'n' and 'blocks'")
        return cls(data["n"], _json_list(data, "blocks", of_lists=True))

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    def render(self) -> str:
        body = ",".join("{" + ",".join(_node_text(x) for x in b) + "}" for b in self.blocks)
        return "{" + body + "}"

    def __repr__(self) -> str:
        return f"SetPartitionDiagram({self.n}, {self.render()})"


class _UnionFind:
    """Disjoint sets over 0..size-1 with path compression and union by size."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def compose(d1: SetPartitionDiagram, d2: SetPartitionDiagram) -> tuple[int, SetPartitionDiagram]:
    """Stack ``d1`` above ``d2``; return (interior component count, result diagram).

    The middle row fuses ``d1``'s bottom row with ``d2``'s top row.  Each
    component with outer dots (+k on ``d1``'s top row, -k on ``d2``'s bottom
    row) is a block of the result; each one lying wholly in the middle row
    is interior and contributes one power of delta.
    """
    if d1.n != d2.n:
        raise InvariantViolation("composition requires equal degrees")
    n = d1.n
    # Node of top dot k: k - 1; of middle dot k: n + k - 1; of bottom dot -k:
    # 3n - k, so each row's nodes run in boundary order.
    uf = _UnionFind(3 * n)
    for block in d1.blocks:
        nodes = [k - 1 if k > 0 else n - k - 1 for k in block]
        for a, b in zip(nodes, nodes[1:]):
            uf.union(a, b)
    for block in d2.blocks:
        nodes = [n + k - 1 if k > 0 else 3 * n + k for k in block]
        for a, b in zip(nodes, nodes[1:]):
            uf.union(a, b)
    # Numbered by first node, components touching the top row come first, by least top dot.
    number: dict[int, int] = {}
    outer: list[list[int]] = []
    for x in range(3 * n):
        c = number.setdefault(uf.find(x), len(number))
        if c == len(outer):
            outer.append([])
        if x < n:
            outer[c].append(x + 1)
        elif x >= 2 * n:
            outer[c].append(x - 3 * n)
    # Bottom-only components start at distinct negative dots, so a tuple sort
    # puts them in boundary order; an empty list lies wholly in the middle.
    top, bottom = [], []
    for dots in outer:
        if dots:
            (top if dots[0] > 0 else bottom).append(tuple(dots))
    bottom.sort()
    return len(outer) - len(top) - len(bottom), SetPartitionDiagram._trusted(n, (*top, *bottom))


def generator(kind: str, i: int, j: int | None, n: int) -> SetPartitionDiagram:
    """Build one of the standard generator diagrams of degree ``n``.

    "E" merges the strands at i and j into a single block with a top arc
    and a bottom arc; "P" cuts the strand at i into two singletons; "S"
    crosses the strands at i and j.  "E" and "S" need 1 <= i < j <= n,
    "P" needs 1 <= i <= n and no j.
    """
    if kind not in ("E", "P", "S"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind == "P" and j is not None:
        raise ValueError("generator P takes a single index")
    n, i = _check_count(n, "n"), _check_count(i, "i")
    if j is not None:
        _check_count(j, "j")
    if kind == "P":
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range for degree {n}")
        others = [(k, -k) for k in range(1, n + 1) if k != i]
        return SetPartitionDiagram(n, others + [(i,), (-i,)])
    if j is None or not 1 <= i < j <= n:
        raise ValueError(f"generator {kind} needs 1 <= i < j <= n, got i={i}, j={j}")
    others = [(k, -k) for k in range(1, n + 1) if k not in (i, j)]
    if kind == "E":
        return SetPartitionDiagram(n, others + [(i, j, -i, -j)])
    return SetPartitionDiagram(n, others + [(i, -j), (j, -i)])


def propagating_number(d: SetPartitionDiagram) -> int:
    """Number of blocks joining the top row to the bottom row."""
    # A canonical block lists its top dots first: it joins the rows when it starts on top and ends below.
    return sum(1 for block in d.blocks if block[0] > 0 > block[-1])


def is_noncrossing(d: SetPartitionDiagram) -> bool:
    """True when no two blocks interleave under the boundary order.

    Reads the 2n dots in boundary order with a stack of the blocks begun
    and not yet finished.  Blocks A and B cross exactly when a later dot of
    A finds B, begun after A and not finished, above A on the stack.
    """
    # A canonical block lists its dots in boundary order, so its keys ascend.
    keyed = [[x - 1 if x > 0 else 2 * d.n + x for x in block] for block in d.blocks]
    owner = {k: b for b, keys in enumerate(keyed) for k in keys}
    opened: list[int] = []
    for k in range(2 * d.n):
        b = owner[k]
        if k == keyed[b][0]:
            opened.append(b)
        elif opened[-1] != b:
            return False
        if k == keyed[b][-1]:
            opened.pop()
    return True


@dataclass(init=False, repr=False, slots=True)
class DiagramSum:
    """Formal combination of equal-degree diagrams with polynomial coefficients."""

    n: int
    terms: dict

    def __init__(self, n: int, terms=()):
        _check_count(n, "degree", InvariantViolation)
        items = tuple(terms.items() if isinstance(terms, dict) else terms)
        for key, coeff in items:
            if not isinstance(key, SetPartitionDiagram):
                raise InvariantViolation(f"sum key {key!r} is not a SetPartitionDiagram")
            if key.n != n:
                raise InvariantViolation("all diagrams in a sum must share one degree")
            if not isinstance(coeff, DeltaPolynomial):
                raise InvariantViolation(f"sum coefficient {coeff!r} is not a DeltaPolynomial")
        self.n = n
        self.terms = _merge_terms(items)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "DiagramSum":
        """Wrap ``terms``, degree-``n`` diagrams to non-zero polynomials, with no check or copy."""
        self = object.__new__(cls)
        self.n, self.terms = n, terms
        return self

    @classmethod
    def from_diagram(cls, d: SetPartitionDiagram, coeff: DeltaPolynomial | None = None) -> "DiagramSum":
        return cls(d.n, {d: coeff if coeff is not None else DeltaPolynomial.one()})

    def __add__(self, other) -> "DiagramSum":
        if not isinstance(other, DiagramSum):
            return NotImplemented
        if self.n != other.n:
            raise InvariantViolation("sum requires equal degrees")
        return DiagramSum._trusted(self.n, _merge_terms([*self.terms.items(), *other.terms.items()]))

    def compose(self, other: "DiagramSum") -> "DiagramSum":
        """Bilinear extension of diagram composition.

        Each result diagram sums the integer terms of c1·c2·δ^t over the pairs
        that compose to it and builds its coefficient once, or drops it when
        the sum is zero; ``terms`` lists result diagrams in order of first appearance.
        """
        if self.n != other.n:
            raise InvariantViolation("composition requires equal degrees")
        sums: dict = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                t, d = compose(d1, d2)
                sums.setdefault(d, []).extend((e1 + e2 + t, a1 * a2) for e1, a1 in c1._terms for e2, a2 in c2._terms)
        terms = {}
        for d, items in sums.items():
            if coeff := _merge_terms(items):
                terms[d] = DeltaPolynomial._trusted(tuple(sorted(coeff.items())))
        return DiagramSum._trusted(self.n, terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for d in sorted(self.terms, key=lambda x: x.blocks):
            coeff = self.terms[d]
            text = coeff.render()
            pieces.append(d.render() if text == "1" else f"{text} · {d.render()}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"DiagramSum({self.render()})"

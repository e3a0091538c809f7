"""Planar half-diagrams and the fusion ring of their module classes.

The planar (Temperley-Lieb) half-diagram on n dots has two kinds of
blocks: labeled single dots and unlabeled non-crossing caps, with no
labeled dot strictly inside a cap: read left to right with the open caps
on a stack, a labeled dot finds no cap open and a right end closes the
innermost one.  The constructor checks a row by that reading and
``tl_basis`` walks it.  The count with r labels is the ballot
number C(n, (n-r)/2) - C(n, (n-r)/2 - 1).  Module classes [degree, labels]
generate a ring whose structure constants are 0/1 and detect exactly the
degenerate-triangle condition |p - q| <= r <= p + q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .diagrams import InvariantViolation, _merge_terms
from .halfdiag import HalfDiagram
from .walled import WalledHalfDiagram, WalledIndex, index_of


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class TLHalfDiagram:
    """A planar half-diagram: non-crossing caps plus labeled single dots."""

    n: int
    caps: tuple[tuple[int, int], ...]
    labels: tuple[int, ...] = field(compare=False)

    def __init__(self, n: int, caps):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvariantViolation("degree must be a non-negative integer")
        partner: dict[int, int] = {}
        for cap in caps:
            try:
                left, right = cap
            except (TypeError, ValueError):  # not two dots
                left = right = None
            if left == right:
                raise InvariantViolation(f"cap {cap!r} must join two distinct dots")
            for dot in (left, right):
                if not isinstance(dot, int):
                    raise InvariantViolation(f"dot {dot!r} is not an integer")
            if right < left:
                left, right = right, left
            for dot in (left, right):
                if isinstance(dot, bool) or not 1 <= dot <= n:
                    raise InvariantViolation(f"dot {dot!r} out of range for degree {n}")
                if dot in partner:
                    raise InvariantViolation(f"dot {dot} appears in more than one cap")
            partner[left], partner[right] = right, left
        clean: list[tuple[int, int]] = []  # by left end, as the scan opens them
        labels, opened = [], []
        for dot in range(1, n + 1):
            end = partner.get(dot)
            if end is None:
                if opened:
                    raise InvariantViolation(f"labeled dot {dot} sits inside cap {opened[0]}")
                labels.append(dot)
            elif end > dot:
                clean.append((dot, end))
                opened.append(clean[-1])
            else:
                inner = opened.pop()
                if inner[0] != end:
                    raise InvariantViolation(f"caps {(end, dot)} and {inner} cross")
        self.n = n
        self.caps = tuple(clean)
        self.labels = tuple(labels)

    @classmethod
    def _trusted(cls, n: int, caps: tuple, labels: tuple) -> "TLHalfDiagram":
        """Wrap a row already in canonical form (caps by left end), with no check."""
        row = object.__new__(cls)
        row.n, row.caps, row.labels = n, caps, labels
        return row

    @property
    def r(self) -> int:
        return len(self.labels)

    def to_half_diagram(self) -> HalfDiagram:
        """The same object as a labeled set partition."""
        # Caps are sorted pairs and every single dot is labeled; sorting the
        # blocks orders them by least element, as the dots are distinct.
        blocks = tuple(sorted([*self.caps, *((dot,) for dot in self.labels)]))
        labeled = frozenset(i for i, block in enumerate(blocks) if len(block) == 1)
        return HalfDiagram._trusted(self.n, blocks, labeled)

    def to_json(self) -> dict:
        return {"n": self.n, "caps": [list(c) for c in self.caps], "labels": list(self.labels)}

    def render(self) -> str:
        pieces = ["{" + f"{a},{b}" + "}" for a, b in self.caps]
        pieces += ["{" + str(dot) + "}*" for dot in self.labels]
        return "{" + ",".join(pieces) + "}"

    def __repr__(self) -> str:
        return f"TLHalfDiagram({self.n}, {self.render()})"


def tl_basis(n: int, r: int) -> tuple[TLHalfDiagram, ...]:
    """All degree-n planar half-diagrams with r labeled dots.

    Walks the dots left to right with a stack of partial rows, trying at
    each dot a label (only with no cap open), a new cap, then closing the
    innermost cap.  A step is taken only when the open caps plus the labels
    still needed fit in the dots left.  That prune is exact: every partial
    row ends in a diagram, so no work goes to branches that yield none.
    """
    if r < 0 or r > n or (n - r) % 2:
        return ()
    results: list[TLHalfDiagram] = []
    # (next dot, left ends of the open caps, closed caps, labeled dots)
    pending = [(1, (), (), ())]
    while pending:
        dot, opened, caps, labels = pending.pop()
        if dot > n:  # caps closed innermost first; sorted, they run by left end
            results.append(TLHalfDiagram._trusted(n, tuple(sorted(caps)), labels))
            continue
        # Pushed in reverse, so they come off in the order above.  Closing
        # and labeling keep the bound the partial row met; opening may not.
        if opened:
            pending.append((dot + 1, opened[:-1], (*caps, (opened[-1], dot)), labels))
        if len(opened) + 1 + r - len(labels) <= n - dot:
            pending.append((dot + 1, (*opened, dot), caps, labels))
        if not opened and len(labels) < r:
            pending.append((dot + 1, opened, caps, (*labels, dot)))
    return tuple(results)


def tl_basis_count(n: int, r: int) -> int:
    """Ballot-number count of planar half-diagrams: C(n, c) - C(n, c - 1)."""
    if r < 0 or r > n or (n - r) % 2:
        return 0
    c = (n - r) // 2
    return comb(n, c) - (comb(n, c - 1) if c >= 1 else 0)


@dataclass(init=False, repr=False, slots=True)
class GrothElement:
    """Integer combination of half-diagram module classes, graded by degree.

    Keys are (degree, labels) with matching parity; zero coefficients are
    dropped.
    """

    terms: dict

    def __init__(self, terms=()):
        items = tuple(terms.items() if isinstance(terms, dict) else terms)
        for (degree, labels), coeff in items:
            if type(degree) is not int or type(labels) is not int:  # bool included
                raise InvariantViolation(f"class ({degree!r}, {labels!r}) needs integer degree and labels")
            if not 0 <= labels <= degree or (degree - labels) % 2:
                raise InvariantViolation(
                    f"class ({degree}, {labels}) needs 0 <= labels <= degree with equal parity"
                )
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise InvariantViolation(f"class coefficient {coeff!r} is not an integer")
        self.terms = dict(sorted(_merge_terms(items).items()))

    @classmethod
    def module_class(cls, degree: int, labels: int) -> "GrothElement":
        return cls({(degree, labels): 1})

    def __add__(self, other) -> "GrothElement":
        if not isinstance(other, GrothElement):
            return NotImplemented
        return GrothElement([*self.terms.items(), *other.terms.items()])

    def to_json(self) -> dict:
        return {
            "terms": [
                {"n": degree, "r": labels, "coeff": coeff}
                for (degree, labels), coeff in self.terms.items()
            ]
        }

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (degree, labels), coeff in self.terms.items():
            body = f"[V_{degree}({labels})]"
            pieces.append(body if coeff == 1 else f"{coeff}·{body}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"GrothElement({self.render()})"


def groth_multiply(a: GrothElement, b: GrothElement) -> GrothElement:
    """Bilinear class product.

    Two classes expand over every label count of matching parity inside
    the degenerate-triangle band, each with coefficient one.
    """
    return GrothElement(
        ((m + n, r), cm * cn)
        for (m, p), cm in a.terms.items()
        for (n, q), cn in b.terms.items()
        for r in range(abs(p - q), p + q + 1, 2)
    )


def tl_e(p: int, q: int, r: int, m: int, n: int) -> int:
    """0/1 multiplicity for planar half-diagram modules.

    With no through-labeled blocks available, the solution of the count
    system is pinned: U = (p + q - r) / 2, L = p - U, R = q - U; the value
    is 1 exactly when all three are non-negative integers.  The input
    modules must exist (p, q with the parities of m, n); a target label
    count r off the parity of m + n names a class absent from degree
    m + n, so its multiplicity is 0.
    """
    if p % 2 != m % 2:
        raise ValueError(f"label count p={p} must have the parity of m = {m}")
    if q % 2 != n % 2:
        raise ValueError(f"label count q={q} must have the parity of n = {n}")
    if r % 2 != (m + n) % 2:
        return 0
    doubled_u = p + q - r
    if doubled_u < 0 or doubled_u % 2:
        return 0
    u = doubled_u // 2
    return 1 if p - u >= 0 and q - u >= 0 else 0


def tl_walled_dim_check(
    m: int, n: int, crossing_caps: int, left_labels: int, right_labels: int
) -> tuple[int, int]:
    """Walled planar census slice against its two-sided factorization.

    Left side: the number of planar walled half-diagrams on (m | n) whose
    index is (crossing_caps; 0, left_labels, right_labels).  Right side:
    the product of the one-sided basis counts at crossing_caps + side
    labels.  The through-labeled count is asserted to vanish on every
    enumerated diagram rather than assumed.
    """
    if (crossing_caps + left_labels) % 2 != m % 2 or (crossing_caps + right_labels) % 2 != n % 2:
        raise ValueError("index is not realizable: side parities do not match")
    r = left_labels + right_labels
    wanted = WalledIndex(crossing_caps, 0, left_labels, right_labels)
    lhs = 0
    for diagram in tl_basis(m + n, r):
        walled = WalledHalfDiagram(m, n, diagram.to_half_diagram())
        idx = index_of(walled)
        if idx.through_labeled:
            raise InvariantViolation("a labeled single dot cannot cross the wall")
        if idx == wanted:
            lhs += 1
    rhs = tl_basis_count(m, crossing_caps + left_labels) * tl_basis_count(n, crossing_caps + right_labels)
    return lhs, rhs

"""Planar half-diagrams and the fusion ring of their module classes.

The planar (Temperley-Lieb) half-diagram on n dots has two kinds of
blocks: labeled single dots and unlabeled non-crossing caps, with no
labeled dot strictly inside a cap: read left to right with the open caps
on a stack, a labeled dot finds no cap open and a right end closes the
innermost one.  Rows are ``HalfDiagram`` values: ``planar_row`` checks
one by that reading and ``tl_basis`` walks it.  The count with r labels
is the ballot number C(n, (n-r)/2) - C(n, (n-r)/2 - 1).  Module classes
[degree, labels] generate a ring whose structure constants are 0/1 and
detect exactly the degenerate-triangle condition |p - q| <= r <= p + q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .diagrams import InvariantViolation, _check_count, _check_int, _merge_terms
from .halfdiag import HalfDiagram


def planar_row(n: int, caps) -> HalfDiagram:
    """The planar half-diagram of degree n with these non-crossing caps and every other dot labeled."""
    _check_count(n, "degree", InvariantViolation)
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
    blocks: list[tuple[int, ...]] = []  # by least dot, as the scan opens them
    labeled, opened = [], []
    for dot in range(1, n + 1):
        end = partner.get(dot)
        if end is None:
            if opened:
                raise InvariantViolation(f"labeled dot {dot} sits inside cap {opened[0]}")
            labeled.append(len(blocks))
            blocks.append((dot,))
        elif end > dot:
            blocks.append((dot, end))
            opened.append(blocks[-1])
        else:
            inner = opened.pop()
            if inner[0] != end:
                raise InvariantViolation(f"caps {(end, dot)} and {inner} cross")
    return HalfDiagram(n, blocks, labeled)


def _planar_walk(n: int, r: int):
    """Yield the rows of :func:`tl_basis` one by one, each built with no check.

    Walks the dots left to right with a stack of partial rows, trying at
    each dot a label (only with no cap open), a new cap, then closing the
    innermost cap.  A step is taken only when the open caps plus the labels
    still needed fit in the dots left.  That prune is exact: every partial
    row ends in a diagram, so no work goes to branches that yield none.
    With no cap open, the blocks before a label are the closed caps and the
    k earlier labels, so its block index is len(caps) + k.  Labels go on a
    chain (block, index, rest), so adding one costs O(1).  The rows of one
    call share their single-dot blocks and label sets.
    """
    if not tl_basis_count(n, r):
        return
    singles = [(dot,) for dot in range(n + 1)]
    label_sets: dict[tuple[int, ...], frozenset[int]] = {}
    # (next dot, left ends of the open caps, closed caps, label count, label chain)
    pending = [(1, (), (), 0, ())]
    while pending:
        dot, opened, caps, k, labels = pending.pop()
        if dot > n:
            blocks, key = list(caps), []
            while labels:
                block, i, labels = labels
                blocks.append(block)
                key.append(i)
            # Caps close innermost first and labels come last first; the dots
            # are distinct, so sorting puts the blocks in order of least dot.
            blocks.sort()
            key = tuple(key)
            labeled = label_sets.get(key)
            if labeled is None:
                labeled = label_sets[key] = frozenset(key)
            yield HalfDiagram._trusted(n, tuple(blocks), labeled)
            continue
        # Pushed in reverse, so they come off in the order above.  Closing
        # and labeling keep the bound the partial row met; opening may not.
        if opened:
            pending.append((dot + 1, opened[:-1], (*caps, (opened[-1], dot)), k, labels))
        if len(opened) + 1 + r - k <= n - dot:
            pending.append((dot + 1, (*opened, dot), caps, k, labels))
        if not opened and k < r:
            pending.append((dot + 1, opened, caps, k + 1, (singles[dot], len(caps) + k, labels)))


def tl_basis(n: int, r: int) -> tuple[HalfDiagram, ...]:
    """All degree-n planar half-diagrams with r labeled dots, in the order of :func:`_planar_walk`.

    A label count r outside 0..n, or off the parity of n, gives no diagram.
    """
    return tuple(_planar_walk(n, r))


def tl_basis_count(n: int, r: int) -> int:
    """Ballot-number count of planar half-diagrams: C(n, c) - C(n, c - 1) with c = (n - r) / 2.

    Zero for a label count r outside 0..n or off the parity of n.
    """
    _check_count(n, "n")
    if not 0 <= _check_int(r, "r") <= n or (n - r) % 2:
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
            if (not isinstance(degree, int) or isinstance(degree, bool)
                    or not isinstance(labels, int) or isinstance(labels, bool)):
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
        try:
            return cls({(degree, labels): 1})
        except InvariantViolation as exc:  # a bad class is an argument error to tl_e and `tl groth`
            raise ValueError(str(exc)) from None

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
    """0/1 multiplicity for planar half-diagram modules: the coefficient of [m + n, r] in [m, p]·[n, q].

    With no through-labeled blocks available, the solution of the count
    system is pinned: U = (p + q - r) / 2, L = p - U, R = q - U.  It exists
    exactly on the band that :func:`groth_multiply` expands over, so the
    value is 0 or 1.  The input classes must exist; a target r that the
    product does not reach gives 0.
    """
    for value, name in ((m, "m"), (n, "n"), (p, "p"), (q, "q"), (r, "r")):
        _check_count(value, name)
    product = groth_multiply(GrothElement.module_class(m, p), GrothElement.module_class(n, q))
    return product.terms.get((m + n, r), 0)

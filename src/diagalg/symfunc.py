"""Integer-partition combinatorics for the symmetric group.

Exact counting routines used as the coefficient engine by the rest of the
package: standard Young tableau counts, Littlewood-Richardson coefficients,
irreducible character values via border-strip recursion, and Kronecker
coefficients (the trivial and sign rules, else the class-weighted
character sum).

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Functions reject ill-formed input
instead of silently sorting it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Return ``parts`` as a canonical tuple, rejecting invalid input."""
    p = tuple(parts)
    # Fast accept: exact ints (so no bool), positive, weakly decreasing.
    # Anything else falls through to the checks below, which name the fault.
    last = p[0] if p else 0
    for x in p:
        if type(x) is not int or not 1 <= x <= last:
            break
        last = x
    else:
        return p
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts!r}")
    return p


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, largest part first within each, in reverse-lex order."""
    # an n-by-n box holds every partition of n
    return partitions_inside(n, (n,) * n)


@cache
def partitions_inside(size: int, outer: Partition) -> tuple[Partition, ...]:
    """Partitions of ``size`` whose diagrams fit inside ``outer``, in :func:`partitions_of` order."""
    out: list[Partition] = []

    def build(remaining: int, largest: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == len(outer):
            return
        for part in range(min(remaining, largest, outer[len(prefix)]), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(size, size, ())
    return tuple(out)


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment, row by row."""
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def conjugate(lam: Partition) -> Partition:
    """Transpose of a Young diagram."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


@cache
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape ``lam`` (hook-length product)."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    count, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError("hook product must divide n!")
    return count


@cache
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient of ``nu`` against the pair (lam, mu).

    Counts semistandard fillings of the skew shape nu/lam with content mu
    whose reverse reading word is a lattice word.  Cells are visited in
    reverse reading order (rows top to bottom, right to left within each
    row), which lets the lattice condition be enforced one entry at a time.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(lam) + sum(mu) != sum(nu) or not contains(nu, lam):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    grid = [[0] * nu[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(nu[i] - 1, lam_pad[i] - 1, -1)]
    remaining = list(mu)
    placed = [0] * len(mu)
    total = 0

    def fill(k: int) -> None:
        nonlocal total
        if k == len(cells):
            total += 1
            return
        i, j = cells[k]
        hi = len(mu)
        if j + 1 < nu[i]:
            hi = min(hi, grid[i][j + 1])  # rows weakly increase left to right
        for v in range(1, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and placed[v - 1] >= placed[v - 2]:
                continue  # lattice word prefix condition
            if i > 0 and j >= lam_pad[i - 1] and v <= grid[i - 1][j]:
                continue  # columns strictly increase
            grid[i][j] = v
            remaining[v - 1] -= 1
            placed[v - 1] += 1
            fill(k + 1)
            grid[i][j] = 0
            remaining[v - 1] += 1
            placed[v - 1] -= 1

    fill(0)
    return total


def centralizer_order(rho: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type ``rho``."""
    rho = check_partition(rho)
    z = 1
    for part in set(rho):
        m = rho.count(part)
        z *= factorial(m) * part**m
    return z


@cache
def _char_on_beta(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    # beta is the strictly decreasing first-column hook sequence of a shape;
    # removing a border strip of length k is removing k from one entry.
    if not rho:
        return 1
    k = rho[0]
    members = frozenset(beta)
    total = 0
    for b in beta:
        if b < k or (b - k) in members:
            continue
        jumped = sum(1 for c in beta if b - k < c < b)
        new = tuple(sorted((members - {b}) | {b - k}, reverse=True))
        total += (-1) ** jumped * _char_on_beta(new, rho[1:])
    return total


def mn_character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group by border-strip recursion."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError("character evaluation requires |shape| == |cycle type|")
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    return _char_on_beta(beta, rho)


@cache
def kronecker_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient; zero when the three sizes differ, symmetric in all three.

    A one-row argument (n) is the trivial character, so g is 1 exactly when
    the other two agree; a one-column argument (1^n) is the sign
    character, so g is 1 exactly when one of the other two is the
    conjugate of the other.  Every other triple takes the exact
    class-weighted character sum.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        return 0
    for shape, a, b in ((lam, mu, nu), (mu, lam, nu), (nu, lam, mu)):
        if len(shape) <= 1:
            return int(a == b)
        if shape[0] == 1:
            return int(a == conjugate(b))
    total = Fraction(0)
    for rho in partitions_of(n):
        total += Fraction(
            mn_character(lam, rho) * mn_character(mu, rho) * mn_character(nu, rho),
            centralizer_order(rho),
        )
    if total.denominator != 1 or total < 0:
        raise ArithmeticError("character sum must be a non-negative integer")
    return int(total)

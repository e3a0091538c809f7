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

from functools import cache
from math import factorial

from .diagrams import _check_count

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Return ``parts`` as a canonical tuple, rejecting invalid input."""
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts!r}")
    return p


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, largest part first within each, in reverse-lex order."""
    # an n-by-n box holds every partition of n
    return _partitions_inside(_check_count(n, "n"), (n,) * n)


@cache  # keys (size, outer): |outer| + 1 sizes per outer shape met
def _partitions_inside(size: int, outer: Partition) -> tuple[Partition, ...]:
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


def _contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment, row by row."""
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def _conjugate(lam: Partition) -> Partition:
    """Transpose of a Young diagram."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    return tuple(cols)


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape ``lam`` (hook-length product)."""
    return _syt_count(check_partition(lam))


@cache  # one key per shape asked for
def _syt_count(lam: Partition) -> int:
    n = sum(lam)
    if n == 0:
        return 1
    conj = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    count, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError("hook product must divide n!")
    return count


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient of ``nu`` against the pair (lam, mu).

    Counts semistandard fillings of the skew shape nu/lam with content mu
    whose reverse reading word is a lattice word.  Cells are visited in
    reverse reading order (rows top to bottom, right to left within each
    row), which lets the lattice condition be enforced one entry at a time.
    """
    return _lr_coeff(check_partition(lam), check_partition(mu), check_partition(nu))


@cache  # one key per shape triple asked for
def _lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    if sum(lam) + sum(mu) != sum(nu) or not _contains(nu, lam):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    grid = [[0] * nu[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(nu[i] - 1, lam_pad[i] - 1, -1)]
    placed = [0] * len(mu)
    total, k, start = 0, 0, 1  # cells[:k] are filled; start is the least value to try at cells[k]
    while k >= 0:
        if k == len(cells):
            total += 1
        else:
            i, j = cells[k]
            hi = grid[i][j + 1] if j + 1 < nu[i] else len(mu)  # rows weakly increase left to right
            if i > 0 and j >= lam_pad[i - 1]:
                start = max(start, grid[i - 1][j] + 1)  # columns strictly increase
            v = start  # skip values past their content in mu or breaking the lattice word
            while v <= hi and (placed[v - 1] == mu[v - 1] or (v > 1 and placed[v - 1] == placed[v - 2])):
                v += 1
            if v <= hi:
                grid[i][j] = v
                placed[v - 1] += 1
                k, start = k + 1, 1
                continue
        k -= 1  # take back the last filled cell and try its next value
        if k >= 0:
            i, j = cells[k]
            v = grid[i][j]
            placed[v - 1] -= 1
            start = v + 1
    return total


def centralizer_order(rho: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type ``rho``."""
    rho = check_partition(rho)
    z = 1
    for part in set(rho):
        m = rho.count(part)
        z *= factorial(m) * part**m
    return z


@cache  # one key per degree n, each a row of its p(n) cycle types
def _class_sizes(n: int) -> tuple[tuple[tuple[Partition, int], ...], int]:
    """Each cycle type rho of n with its class size n!/z_rho, and any remainder of those divisions or-ed."""
    order, sizes, stray = factorial(n), [], 0
    for rho in partitions_of(n):
        size, rem = divmod(order, centralizer_order(rho))
        sizes.append((rho, size))
        stray |= rem
    return tuple(sizes), stray


def _beta(lam: Partition) -> tuple[int, ...]:  # the first-column hook lengths, strictly decreasing
    return tuple(part + len(lam) - 1 - i for i, part in enumerate(lam))


@cache  # keys (beta, rho): the beta-sets and cycle-type tails the recursion meets
def _char_on_beta(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    # Removing a border strip of length k is removing k from one entry b of
    # beta; the sign counts the entries it jumps, which sit just after b.
    if not rho:
        return 1
    k, rest, total = rho[0], rho[1:], 0
    for i, b in enumerate(beta):
        t = b - k
        if t < 0:
            break
        j = i + 1
        while j < len(beta) and beta[j] > t:
            j += 1
        if j < len(beta) and beta[j] == t:
            continue
        value = _char_on_beta(beta[:i] + beta[i + 1 : j] + (t,) + beta[j:], rest)
        total += value if (j - i) % 2 else -value
    return total


def mn_character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group by border-strip recursion."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError("character evaluation requires |shape| == |cycle type|")
    return _char_on_beta(_beta(lam), rho)


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
            return int(a == _conjugate(b))
    # chi_lam * chi_mu * chi_nu times the class size n!/z_rho, summed, then divided by n!
    sizes, stray = _class_sizes(n)
    b_lam, b_mu, b_nu, total = _beta(lam), _beta(mu), _beta(nu), 0
    for rho, size in sizes:
        total += _char_on_beta(b_lam, rho) * _char_on_beta(b_mu, rho) * _char_on_beta(b_nu, rho) * size
    g, rem = divmod(total, factorial(n))
    if stray or rem or g < 0:
        raise ArithmeticError("character sum is not a non-negative integer")
    return g

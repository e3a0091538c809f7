"""The restriction multiplicity of half-diagram modules, by several routes.

For one-part labels p, q, r the multiplicity counts the walled indices
(U; T, L, R) of non-negative integers that solve the linear system

    T + L + R = r,    L + T + U = p,    R + U + T = q,

and this module computes it four independent ways: a closed piecewise
formula, direct enumeration of the system, a lattice-point count on a
half-integer line, and the general standard-module coefficient sum over
Littlewood-Richardson and Kronecker coefficients.  The boundary and
reflection identities the value satisfies are checked by the
``symmetry-lemma`` suite of :mod:`diagalg.verify`.
"""

from __future__ import annotations

from functools import cache

from .diagrams import _check_count, _check_int
from .halfdiag import _dim_standard, partitions_up_to
from .symfunc import Partition, _lr_coeff, _partitions_inside, check_partition, kronecker_coeff
from .walled import WalledIndex


def e_closed(p: int, q: int, r: int) -> int:
    """Closed form of the multiplicity.

    Zero outside the (degenerate) triangle band; inside, the floor of half
    the tangent gap plus one, with the middle branch owning the boundary
    where r ties the largest of p and q.
    """
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    gap = abs(p - q)
    if p + q < r or r < gap:
        return 0
    if 2 * r <= p + q + gap:
        return (r - gap) // 2 + 1
    return (p + q - r) // 2 + 1


def e_lattice(p: int, q: int, r: int) -> tuple[int, list[WalledIndex]]:
    """Exhaustive enumeration of the system's non-negative solutions, by T.

    Each solution is a walled index (U; T, L, R), by the paper's
    decomposition of half-diagrams: cut at the wall, an (m|n, r)-walled
    half-diagram has U + T + L marked blocks on the left, U + T + R on the
    right and r = T + L + R labels.  So for m >= p and n >= q the solutions
    are the keys of ``census(m, n, r)`` with side sums p and q.

    Subtracting the first equation from the sum of the other two gives
    2U = p + q - r - T, so each T forces U and leaves at most one solution.
    U is a non-negative integer exactly when T <= p + q - r has its parity,
    and then L, R >= 0 exactly when T <= r - |p - q|, so only those T are
    visited, in increasing order.
    """
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    solutions: list[WalledIndex] = []
    for t in range((p + q - r) % 2, min(r, p + q - r, r - abs(p - q)) + 1, 2):
        u = (p + q - r - t) // 2
        solutions.append(WalledIndex(u, t, p - t - u, q - t - u))
    return len(solutions), solutions


def lattice_line_count(s: int, h: int) -> int:
    """Lattice points on x + 2y = h with x, y >= 0 and x + y <= s.

    Walked as an L-shaped traversal from (h, 0): two steps left, one step
    up, counting the points that stay inside the triangular region.
    """
    _check_count(s, "s")
    count = 0
    x, y = _check_int(h, "h"), 0
    while x >= 0:
        if x + y <= s:
            count += 1
        x -= 2
        y += 1
    return count


def e2_lattice(p: int, q: int, r: int) -> int:
    """Multiplicity as a lattice count with h = p + q - r and s = min(p, q)."""
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    return lattice_line_count(min(p, q), p + q - r)


@cache
def _three_part_table(
    nu: Partition, s1: int, s2: int, s3: int
) -> dict[Partition, dict[Partition, dict[Partition, int]]]:
    """Non-zero three-part coefficients of ``nu`` over shapes of the given sizes.

    Built by splitting twice: nu restricts over (xi, eta) pairs, then xi
    over (alpha, beta) pairs.  A Littlewood-Richardson coefficient
    vanishes unless both lower shapes fit inside the upper one, so only
    contained shapes are tried.  The coefficient of (alpha, beta, eta) is
    stored as ``table[alpha][eta][beta]``, grouped the way :func:`_join`
    reads it.
    """
    out: dict[Partition, dict[Partition, dict[Partition, int]]] = {}
    if s1 + s2 + s3 != sum(nu):
        return out
    for eta in _partitions_inside(s3, nu):
        for xi in _partitions_inside(s1 + s2, nu):
            c_outer = _lr_coeff(xi, eta, nu)
            if not c_outer:
                continue
            for alpha in _partitions_inside(s1, xi):
                for beta in _partitions_inside(s2, xi):
                    c_inner = _lr_coeff(alpha, beta, xi)
                    if c_inner:
                        by_beta = out.setdefault(alpha, {}).setdefault(eta, {})
                        by_beta[beta] = by_beta.get(beta, 0) + c_outer * c_inner
    return out


def _split_tables(nu: Partition, lam: Partition, size_mu: int):
    """Yield (l1, l2, |beta|, nu table, lam table) for each strand split that can contribute.

    The splits are those of l1 + 2*l2 = |lam| + |mu| - |nu| that leave both
    |alpha| = |lam| - l1 - l2 and |beta| = |mu| - l1 - l2 non-negative; a
    split is skipped when its nu or lam table is empty.  The mu table of a
    split is ``_three_part_table(mu, l2, l1, |beta|)``, grouped
    gamma -> beta -> sigma for :func:`_join`.
    """
    size_lam = sum(lam)
    budget = size_lam + size_mu - sum(nu)
    for l2 in range(budget // 2 + 1):
        l1 = budget - 2 * l2
        a_size = size_lam - l1 - l2
        b_size = size_mu - l1 - l2
        if a_size < 0 or b_size < 0:
            continue
        table_nu = _three_part_table(nu, a_size, b_size, l1)  # alpha -> pi -> beta
        if table_nu:
            table_lam = _three_part_table(lam, a_size, l1, l2)  # alpha -> gamma -> rho
            if table_lam:
                yield l1, l2, b_size, table_nu, table_lam


def _join(table_nu, table_lam, table_mu) -> int:
    """One strand split's coefficient sum over its nu, lam and mu tables.

    The sum runs over the non-zero entries of the nu table and looks up the
    matching lam and mu entries, so no vanishing term is formed.  A pi with
    at most one row is the trivial character, whose Kronecker coefficient
    g(pi, rho, sigma) is [rho == sigma], so those terms join the lam and mu
    entries on rho directly.
    """
    total = 0
    for alpha, nu_by_pi in table_nu.items():
        lam_by_gamma = table_lam.get(alpha)
        if not lam_by_gamma:
            continue
        for gamma, lam_by_rho in lam_by_gamma.items():
            mu_by_beta = table_mu.get(gamma)
            if not mu_by_beta:
                continue
            for pi, nu_by_beta in nu_by_pi.items():
                one_row = len(pi) <= 1
                for beta, c_nu in nu_by_beta.items():
                    mu_by_sigma = mu_by_beta.get(beta)
                    if not mu_by_sigma:
                        continue
                    if one_row:
                        for rho, c_lam in lam_by_rho.items():
                            c_mu = mu_by_sigma.get(rho)
                            if c_mu:
                                total += c_nu * c_lam * c_mu
                        continue
                    for sigma, c_mu in mu_by_sigma.items():
                        for rho, c_lam in lam_by_rho.items():
                            g = kronecker_coeff(pi, rho, sigma)
                            if g:
                                total += c_nu * c_lam * c_mu * g
    return total


def bvo_multiplicity(nu: Partition, lam: Partition, mu: Partition, m: int, n: int) -> int:
    """Standard-module restriction multiplicity for general indices.

    The double sum over strand bookkeeping (l1, l2) with
    l1 + 2*l2 = (m + n - |nu|) - (m - |lam|) - (n - |mu|), and over shape
    tuples weighted by three-part Littlewood-Richardson coefficients and a
    Kronecker coefficient: each split whose nu and lam tables are non-empty
    adds the :func:`_join` of its three tables.  Exact integers throughout.

    m and n only gate admissibility (|lam| <= m, |mu| <= n, |nu| <= m + n);
    the value depends on (nu, lam, mu) alone.  In the BVO reading it is the
    reduced Kronecker coefficient of the three shapes, the stable value of
    g(nu[N], lam[N], mu[N]) with shape[N] = (N - |shape|, *shape) for large
    N, checked by the stability test in tests/test_multiplicity.py.
    """
    nu = check_partition(nu)
    lam = check_partition(lam)
    mu = check_partition(mu)
    m, n = _check_count(m, "m"), _check_count(n, "n")
    size_nu, size_lam, size_mu = sum(nu), sum(lam), sum(mu)
    if size_nu > m + n:
        raise ValueError(f"|nu| = {size_nu} exceeds total degree {m + n}")
    if size_lam > m:
        raise ValueError(f"|lam| = {size_lam} exceeds left degree {m}")
    if size_mu > n:
        raise ValueError(f"|mu| = {size_mu} exceeds right degree {n}")
    total = 0
    for l1, l2, b_size, table_nu, table_lam in _split_tables(nu, lam, size_mu):
        total += _join(table_nu, table_lam, _three_part_table(mu, l2, l1, b_size))
    return total


def admissible_degree_pairs(p: int, q: int, r: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two degree pairs (m, n) with m >= p, n >= q and m + n >= r."""
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    m = max(p, r - q, 1)
    n = max(q, 1)
    return (m, n), (m + 1, n + 2)


def one_part(k: int) -> Partition:
    """The one-row partition of size k (empty for k = 0)."""
    return (k,) if _check_count(k, "k") else ()


def restriction_dimension_total(m: int, n: int, r: int) -> int:
    """Weighted dimension sum over all index pairs of the two factors.

    Sums multiplicity(nu=(r), lam, mu) * dim(m, lam) * dim(n, mu) over all
    partitions lam of size at most m and mu of size at most n; a correct
    coefficient engine makes this the number of (m + n, r)-half-diagrams.
    The inputs are checked once, and the dimensions of the lam and mu it
    enumerates come from the unchecked kernel.  For each lam and each size of
    mu, every strand split fetches its nu and lam tables once and joins them
    with the table of each mu of that size, as :func:`bvo_multiplicity` would.
    """
    r, m, n = (_check_count(v, name) for v, name in ((r, "r"), (m, "m"), (n, "n")))
    if r > m + n:
        raise ValueError(f"|nu| = {r} exceeds total degree {m + n}")
    nu = one_part(r)
    right: dict[int, list[tuple[Partition, int]]] = {}
    for mu in partitions_up_to(n):
        right.setdefault(sum(mu), []).append((mu, _dim_standard(n, mu)))
    total = 0
    for lam in partitions_up_to(m):
        dim_lam = _dim_standard(m, lam)
        for size_mu, mus in right.items():
            for l1, l2, b_size, table_nu, table_lam in _split_tables(nu, lam, size_mu):
                for mu, dim_mu in mus:
                    coeff = _join(table_nu, table_lam, _three_part_table(mu, l2, l1, b_size))
                    total += coeff * dim_lam * dim_mu
    return total

"""The restriction multiplicity of half-diagram modules, by several routes.

For one-part labels p, q, r the multiplicity counts the walled indices
(U; T, L, R) of non-negative integers that solve the linear system

    T + L + R = r,    L + T + U = p,    R + U + T = q,

and this module computes it by a closed piecewise formula, a lattice-point
count on a half-integer line, and the general standard-module coefficient
sum over Littlewood-Richardson and Kronecker coefficients.  One solver,
:func:`_solutions`, lists the system for :func:`e_lattice` and gives the
sum its strand splits; the closed form, the lattice count and the two
oracles in ``tests/`` (brute force, cycle types) share nothing with it.
The ``symmetry-lemma`` suite of :mod:`diagalg.verify` checks the
boundary and reflection identities.
"""

from __future__ import annotations

from functools import cache, partial

from .diagrams import _check_count, _check_int
from .halfdiag import half_diagram_count
from .symfunc import Partition, _lr_coeff, _partitions_inside, _syt_count, check_partition, kronecker_coeff, partitions_of
from .walled import WalledIndex


def e_closed(p: int, q: int, r: int) -> int:
    """Closed form of the multiplicity.

    Zero outside the (degenerate) triangle band; inside, the floor of half
    the tangent gap plus one, with the middle branch owning the boundary
    where r ties the largest of p and q.
    """
    return _e_closed(_check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r"))


def _e_closed(p: int, q: int, r: int) -> int:
    """:func:`e_closed` for checked counts p, q and r."""
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
    are the keys of ``census(m, n, r)`` with side sums p and q, and the
    strand splits of :func:`bvo_multiplicity` (see :func:`_solutions`).
    """
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    solutions = list(_solutions(p, q, r))
    return len(solutions), solutions


def _solutions(p: int, q: int, r: int):
    """Yield the walled indices (U; T, L, R) with T + L + R = r, U + T + L = p and U + T + R = q, by T.

    Subtracting the first equation from the sum of the other two gives
    2U = p + q - r - T, so each T forces U and leaves at most one solution.
    U is a non-negative integer exactly when T <= p + q - r has its parity,
    and then L, R >= 0 exactly when T <= r - |p - q|, so only those T are
    visited, in increasing order.

    With p = |lam|, q = |mu| and r = |nu| these are the strand splits of the
    Bowman-De Visscher-Orellana sum: the split (l1, l2, |alpha|, |beta|) is
    the index (U; T, L, R) = (l2; l1, |alpha|, |beta|), and its nu, lam and
    mu tables are the ``_three_part_table`` of (nu; L, R, T), (lam; L, T, U)
    and (mu; U, T, R), grouped for :func:`_join`.
    """
    for t in range((p + q - r) % 2, min(p + q - r, r - abs(p - q)) + 1, 2):
        u = (p + q - r - t) // 2
        yield WalledIndex(u, t, p - t - u, q - t - u)


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


@cache  # keys (nu, s1, s2, s3): C(|nu| + 2, 2) size triples per shape nu met
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


def _splits(nu: Partition, size_lam: int, size_mu: int):
    """Yield (index, nu table) for each :func:`_solutions` index of (|lam|, |mu|, |nu|) with a non-empty nu table."""
    for idx in _solutions(size_lam, size_mu, sum(nu)):
        table_nu = _three_part_table(nu, idx.left_labeled, idx.right_labeled, idx.through_labeled)
        if table_nu:
            yield idx, table_nu


def _join(table_nu, table_lam, table_mu) -> int:
    """One strand split's coefficient sum for one lam table and one mu table.

    ``table_mu`` is a three-part table, one shape's or the tableau-weighted
    :func:`_mu_side`.  The sum runs over the non-zero entries of the nu
    table, looks up each lam entry's gamma once and each nu entry's beta
    once under it, so no vanishing term is formed.  A pi with at most one
    row (flagged once per nu entry) is the trivial character,
    g(pi, rho, sigma) = [rho == sigma], so those terms join on rho directly.
    """
    total = 0
    for alpha, nu_by_pi in table_nu.items():
        lam_by_gamma = table_lam.get(alpha)
        if not lam_by_gamma:
            continue
        nu_rows = [(pi, len(pi) <= 1, nu_by_beta.items()) for pi, nu_by_beta in nu_by_pi.items()]
        for gamma, lam_by_rho in lam_by_gamma.items():
            mu_by_beta = table_mu.get(gamma)
            if not mu_by_beta:
                continue
            for pi, one_row, nu_by_beta in nu_rows:
                for beta, c_nu in nu_by_beta:
                    mu_by_sigma = mu_by_beta.get(beta)
                    if not mu_by_sigma:
                        continue
                    part = 0
                    if one_row:
                        for rho, c_lam in lam_by_rho.items():
                            c_mu = mu_by_sigma.get(rho)
                            if c_mu:
                                part += c_lam * c_mu
                    else:
                        for sigma, c_mu in mu_by_sigma.items():
                            for rho, c_lam in lam_by_rho.items():
                                g = kronecker_coeff(pi, rho, sigma)
                                if g:
                                    part += c_lam * c_mu * g
                    total += part * c_nu
    return total


def bvo_multiplicity(nu: Partition, lam: Partition, mu: Partition, m: int, n: int) -> int:
    """Standard-module restriction multiplicity for general indices.

    The double sum over strand bookkeeping (l1, l2) with
    l1 + 2*l2 = (m + n - |nu|) - (m - |lam|) - (n - |mu|), and over shape
    tuples weighted by three-part Littlewood-Richardson coefficients and a
    Kronecker coefficient: :func:`_strand_sum` at weight 1, whose strand
    splits solve the system (see :func:`_solutions`).  Exact integers.

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

    return _strand_sum(
        nu, size_lam, size_mu, lambda *sizes: ((_three_part_table(lam, *sizes), 1),), partial(_three_part_table, mu)
    )


@cache  # every restriction_dimension_total up to (m|n) reads at most (m + n + 1)(m + 1)(n + 1) keys
def _restriction_kernel(nu: Partition, a: int, b: int) -> int:
    """K(nu; a, b), the sum of bvo(nu, lam, mu) * syt(lam) * syt(mu) over lam of a and mu of b, on side lists."""
    return _strand_sum(nu, a, b, _side_tables, _mu_side)


@cache  # keys are size triples, C(s + 3, 3) of them up to sum s: 560 at the restriction-dimension ceiling of 13
def _side_tables(s1: int, s2: int, s3: int) -> tuple[tuple[dict, int], ...]:
    """(three-part table, syt count) for each shape of size s1 + s2 + s3 whose table of (s1, s2, s3) is non-empty."""
    tables = ((_three_part_table(shape, s1, s2, s3), _syt_count(shape)) for shape in partitions_of(s1 + s2 + s3))
    return tuple((table, weight) for table, weight in tables if table)


@cache  # keys are size triples, as _side_tables's: 560 at the restriction-dimension ceiling of 13
def _mu_side(s1: int, s2: int, s3: int) -> dict:
    """The kernel's mu side: the sum of syt(shape) * table over :func:`_side_tables`, keyed as one three-part table."""
    side: dict = {}
    for table, weight in _side_tables(s1, s2, s3):
        for gamma, by_beta in table.items():
            for beta, by_sigma in by_beta.items():
                summed = side.setdefault(gamma, {}).setdefault(beta, {})
                for sigma, coefficient in by_sigma.items():
                    summed[sigma] = summed.get(sigma, 0) + weight * coefficient
    return side


def _strand_sum(nu: Partition, size_lam: int, size_mu: int, side_lam, side_mu) -> int:
    """The sum of weight(lam) * weight(mu) * bvo(nu, lam, mu) over the lam of one size and the mu of another.

    The lam side maps three part sizes to a (table, weight) list,
    :func:`_side_tables` or one shape at weight 1; the mu side maps them to
    one table, the weighted :func:`_mu_side` or one shape's.  Each strand
    split reads its mu table at (U, T, R) and its lam list at (L, T, U),
    then joins each lam table once.
    """
    total = 0
    for idx, table_nu in _splits(nu, size_lam, size_mu):
        u, t = idx.through_unlabeled, idx.through_labeled
        table_mu = side_mu(u, t, idx.right_labeled)
        for table_lam, weight in side_lam(idx.left_labeled, t, u):
            total += _join(table_nu, table_lam, table_mu) * weight
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
    A dimension is a half-diagram count times a tableau count, so the sum
    factors by sizes as the sum over a <= m and b <= n of
    hd(m, a) * hd(n, b) * K((r); a, b), with the kernel K of
    :func:`_restriction_kernel`, which is free of m and n.  The inputs are
    checked once.
    """
    r, m, n = (_check_count(v, name) for v, name in ((r, "r"), (m, "m"), (n, "n")))
    if r > m + n:
        raise ValueError(f"|nu| = {r} exceeds total degree {m + n}")
    nu = one_part(r)
    return sum(
        half_diagram_count(m, a) * half_diagram_count(n, b) * _restriction_kernel(nu, a, b)
        for a in range(m + 1)
        for b in range(max(r - a, 0), n + 1)  # the kernel vanishes when a + b < r
    )

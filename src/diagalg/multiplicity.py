"""The restriction multiplicity of half-diagram modules, by several routes.

For one-part labels p, q, r the multiplicity counts the non-negative
integer solutions of the linear system

    T + L + R = r,    L + T + U = p,    R + U + T = q,

and this module computes it four independent ways: a closed piecewise
formula, direct enumeration of the system, a lattice-point count on a
half-integer line, and the general standard-module coefficient sum over
Littlewood-Richardson and Kronecker coefficients.  A symmetry checker
bundles the boundary and reflection identities the value satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from .halfdiag import dim_standard, partitions_up_to
from .symfunc import Partition, check_partition, kronecker_coeff, lr_coeff, partitions_inside


class E1Solution(NamedTuple):
    """One solution of the three-equation system, by block-count meaning."""

    through_labeled: int
    through_unlabeled: int
    left_labeled: int
    right_labeled: int

    def to_json(self) -> dict[str, int]:
        return self._asdict()


def _check_count(value: int, name: str) -> int:
    if type(value) is int and value >= 0:  # fast accept; bool and other subclasses take the full check
        return value
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


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


def e_lattice(p: int, q: int, r: int) -> tuple[int, list[E1Solution]]:
    """Exhaustive enumeration of the system's non-negative solutions, by T.

    Subtracting the first equation from the sum of the other two gives
    2U = p + q - r - T, so each T forces U and leaves at most one solution.
    U is a non-negative integer exactly when T <= p + q - r has its parity,
    and then L, R >= 0 exactly when T <= r - |p - q|, so only those T are
    visited, in increasing order.
    """
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    solutions: list[E1Solution] = []
    for t in range((p + q - r) % 2, min(r, p + q - r, r - abs(p - q)) + 1, 2):
        u = (p + q - r - t) // 2
        solutions.append(E1Solution(t, u, p - t - u, q - t - u))
    return len(solutions), solutions


def lattice_line_count(s: int, h: int) -> int:
    """Lattice points on x + 2y = h with x, y >= 0 and x + y <= s.

    Walked as an L-shaped traversal from (h, 0): two steps left, one step
    up, counting the points that stay inside the triangular region.
    """
    if h < 0:
        return 0
    count = 0
    x, y = h, 0
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
    for eta in partitions_inside(s3, nu):
        for xi in partitions_inside(s1 + s2, nu):
            c_outer = lr_coeff(xi, eta, nu)
            if not c_outer:
                continue
            for alpha in partitions_inside(s1, xi):
                for beta in partitions_inside(s2, xi):
                    c_inner = lr_coeff(alpha, beta, xi)
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
    """
    nu = check_partition(nu)
    lam = check_partition(lam)
    mu = check_partition(mu)
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
    m = max(p, r - q, 1)
    n = max(q, 1)
    return (m, n), (m + 1, n + 2)


@dataclass
class SymmetryReport:
    """Outcome of the five boundary and symmetry assertions for one triple."""

    p: int
    q: int
    r: int
    results: dict[str, bool] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def symmetry_suite(p: int, q: int, r: int) -> SymmetryReport:
    """Check the five standing identities of the multiplicity at one triple.

    1. vanishing above the band: value 0 whenever p + q < r;
    2. value 1 on the band boundary (p + q = r or |p - q| = r);
    3. with a zero parameter, value 1 exactly when the other two agree;
    4. independence from the algebra degrees, sampled at two admissible pairs;
    5. reflection symmetry r -> p + q + |p - q| - r.
    """
    report = SymmetryReport(p, q, r)
    closed = e_closed(p, q, r)
    count, _ = e_lattice(p, q, r)

    if p + q < r:
        report.results["vanishing"] = closed == 0 and count == 0
    else:
        report.results["vanishing"] = True
    report.details["vanishing"] = f"value {closed}"

    if p + q == r or abs(p - q) == r:
        report.results["boundary_one"] = closed == 1 and count == 1
    else:
        report.results["boundary_one"] = True
    report.details["boundary_one"] = f"value {closed}"

    if 0 in (p, q, r):
        rest = [p, q, r]
        rest.remove(0)
        expected = 1 if rest[0] == rest[1] else 0
        report.results["zero_parameter"] = closed == expected and count == expected
        report.details["zero_parameter"] = f"value {closed}, expected {expected}"
    else:
        report.results["zero_parameter"] = True
        report.details["zero_parameter"] = "no zero parameter"

    pairs = admissible_degree_pairs(p, q, r)
    values = [bvo_multiplicity(one_part(r), one_part(p), one_part(q), m, n) for m, n in pairs]
    report.results["degree_independence"] = values[0] == values[1] == count
    report.details["degree_independence"] = f"values {values} at degrees {pairs}"

    mirror = p + q + abs(p - q) - r
    if mirror < 0:
        # r lies beyond the whole band, so its mirror image does too
        report.results["reflection"] = closed == 0 and count == 0
        report.details["reflection"] = f"value {closed}, mirror position {mirror} out of range"
    else:
        mirrored_closed = e_closed(p, q, mirror)
        mirrored_count, _ = e_lattice(p, q, mirror)
        report.results["reflection"] = closed == mirrored_closed and count == mirrored_count
        report.details["reflection"] = f"value {closed} vs {mirrored_closed} at r'={mirror}"

    return report


def one_part(k: int) -> Partition:
    """The one-row partition of size k (empty for k = 0)."""
    return (k,) if k else ()


def restriction_dimension_total(m: int, n: int, r: int) -> int:
    """Weighted dimension sum over all index pairs of the two factors.

    Sums multiplicity(nu=(r), lam, mu) * dim(m, lam) * dim(n, mu) over all
    partitions lam of size at most m and mu of size at most n; a correct
    coefficient engine makes this the number of (m + n, r)-half-diagrams.
    The inputs are checked once.  For each lam and each size of mu, every
    strand split fetches its nu and lam tables once and joins them with the
    table of each mu of that size, as :func:`bvo_multiplicity` would.
    """
    r, m, n = (_check_count(v, name) for v, name in ((r, "r"), (m, "m"), (n, "n")))
    if r > m + n:
        raise ValueError(f"|nu| = {r} exceeds total degree {m + n}")
    nu = one_part(r)
    right: dict[int, list[tuple[Partition, int]]] = {}
    for mu in partitions_up_to(n):
        right.setdefault(sum(mu), []).append((mu, dim_standard(n, mu)))
    total = 0
    for lam in partitions_up_to(m):
        dim_lam = dim_standard(m, lam)
        for size_mu, mus in right.items():
            for l1, l2, b_size, table_nu, table_lam in _split_tables(nu, lam, size_mu):
                for mu, dim_mu in mus:
                    coeff = _join(table_nu, table_lam, _three_part_table(mu, l2, l1, b_size))
                    total += coeff * dim_lam * dim_mu
    return total

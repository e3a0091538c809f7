"""Kronecker coefficients by the ``Fraction`` class sum, the test oracle for ``kronecker_coeff``.

Characters come from the former border-strip recursion, which removes a
strip by rebuilding the beta-set and sorting it, so the oracle shares
only ``partitions_of`` and ``centralizer_order`` with
:mod:`diagalg.symfunc`: not the integer class sum, not the index
arithmetic on the beta-sequence, and neither shortcut.
"""

from fractions import Fraction
from functools import cache

from diagalg.symfunc import Partition, centralizer_order, partitions_of


@cache
def _char_on_beta_set(beta: tuple[int, ...], rho: Partition) -> int:
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
        total += (-1) ** jumped * _char_on_beta_set(new, rho[1:])
    return total


def character_by_beta_set(lam: Partition, rho: Partition) -> int:
    """chi^lam(rho) by the border-strip recursion on the beta-set of ``lam``."""
    ell = len(lam)
    return _char_on_beta_set(tuple(lam[i] + ell - 1 - i for i in range(ell)), rho)


@cache
def kronecker_by_fraction_sum(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Sum of chi_lam * chi_mu * chi_nu / z_rho over the classes, as a ``Fraction``."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        return 0
    total = Fraction(0)
    for rho in partitions_of(n):
        chars = character_by_beta_set(lam, rho) * character_by_beta_set(mu, rho) * character_by_beta_set(nu, rho)
        total += Fraction(chars, centralizer_order(rho))
    assert total.denominator == 1 and total >= 0, (lam, mu, nu, total)
    return int(total)

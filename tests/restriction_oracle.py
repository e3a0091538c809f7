"""Restriction multiplicities by cycle types, the test oracle free of LR coefficients.

The reassembly set X(a, b, r) holds the tuples (CL, CR, phi, S): the
crossing blocks CL of [a] and CR of [b], c of each side; a bijection
phi: CL -> CR; and the set S of labeled pairs, a subset of CL of size
T = r + 2c - a - b.  The a - c left blocks and b - c right blocks that do
not cross carry a label each, as do the T pairs of S, so a tuple holds r
labeled things.  S_a x S_b acts on X and permutes the r labeled things of
each fixed tuple; chi_X^nu(sigma, tau) sums chi_nu over the fixed tuples
at the permutation they induce.  The claim is

    mult(nu; lam, mu) = <chi_X^nu, chi_lam (x) chi_mu>.

Only a sketch of the proof is known: X is the reassembly set of the
half-diagram decomposition (cut the c blocks that cross the wall and
match their ends), so the claim reads the one-sided half-diagram counts
of the restriction off X, as the reassembly count does for dimensions.

The fixed points need no enumeration.  For sigma of cycle type rho and
tau of type pi, a fixed tuple takes for CL a union of cycles of sigma of
some type alpha, for CR a union of cycles of tau of the same type, for
phi one of z_alpha intertwiners, and for S a union of cycles of sigma on
CL, of a type beta of size T.  The labeled things then have cycle type
beta + (rho - alpha) + (pi - alpha).  With m_k the number of k-cycles:

    chi_X^nu(rho, pi) = sum over alpha in rho and pi of
        z_alpha * prod_k C(m_k(rho), m_k(alpha)) * C(m_k(pi), m_k(alpha))
        * sum over beta in alpha, |beta| = T, of
          prod_k C(m_k(alpha), m_k(beta)) * chi_nu(beta + (rho - alpha) + (pi - alpha))

and mult(nu; lam, mu) = sum over rho of a and pi of b of
chi_X^nu(rho, pi) * chi_lam(rho) * chi_mu(pi) / (z_rho * z_pi).

The oracle shares only the character recursion ``_char_on_beta`` and its
``_beta`` with :mod:`diagalg.symfunc`: no Littlewood-Richardson or
Kronecker coefficient, no three-part table, strand split or join.
"""

from collections import Counter
from functools import cache
from itertools import product
from math import comb, factorial

from diagalg.symfunc import _beta, _char_on_beta


@cache
def _partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Every partition of n with parts at most ``largest``."""
    if n == 0:
        return ((),)
    top = n if largest is None else min(n, largest)
    return tuple((part, *rest) for part in range(top, 0, -1) for rest in _partitions(n - part, part))


def _z(counts: dict[int, int]) -> int:
    """Centralizer order of a cycle type given as {cycle length: number of cycles}."""
    z = 1
    for k, m in counts.items():
        z *= k**m * factorial(m)
    return z


def _sub_types(counts: dict[int, int]):
    """Each sub-multiset of a cycle type, as {cycle length: number of cycles}."""
    lengths = sorted(counts)
    for picked in product(*(range(counts[k] + 1) for k in lengths)):
        yield dict(zip(lengths, picked))


def _cycle_type(*parts: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted((k for counts in parts for k, m in counts.items() for _ in range(m)), reverse=True))


def _chi(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    return _char_on_beta(_beta(shape), cycle_type)


@cache
def reassembly_character(nu: tuple[int, ...], rho: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """chi_X^nu at a pair of permutations of cycle types rho and pi."""
    a, b, r = sum(rho), sum(pi), sum(nu)
    m_rho, m_pi = Counter(rho), Counter(pi)
    common = {k: min(m, m_pi[k]) for k, m in m_rho.items() if m_pi[k]}
    total = 0
    for alpha in _sub_types(common):
        c = sum(k * m for k, m in alpha.items())
        labeled = r + 2 * c - a - b
        if not 0 <= labeled <= c:
            continue
        placed = _z(alpha)
        for k, m in alpha.items():
            placed *= comb(m_rho[k], m) * comb(m_pi[k], m)
        rest_rho = {k: m - alpha.get(k, 0) for k, m in m_rho.items()}
        rest_pi = {k: m - alpha.get(k, 0) for k, m in m_pi.items()}
        inner = 0
        for beta in _sub_types(alpha):
            if sum(k * m for k, m in beta.items()) == labeled:
                ways = 1
                for k, m in beta.items():
                    ways *= comb(alpha[k], m)
                inner += ways * _chi(nu, _cycle_type(beta, rest_rho, rest_pi))
        total += placed * inner
    return total


def restriction_by_cycle_types(nu: tuple[int, ...], lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """mult(nu; lam, mu) as the inner product of chi_X^nu with chi_lam (x) chi_mu."""
    a, b = sum(lam), sum(mu)
    total = 0
    for rho in _partitions(a):
        chi_lam = _chi(lam, rho)
        if not chi_lam:
            continue
        class_rho = factorial(a) // _z(Counter(rho))
        for pi in _partitions(b):
            weight = chi_lam * _chi(mu, pi) * class_rho * (factorial(b) // _z(Counter(pi)))
            if weight:
                total += reassembly_character(nu, rho, pi) * weight
    value, rem = divmod(total, factorial(a) * factorial(b))
    assert not rem and value >= 0, (nu, lam, mu, total)
    return value

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with durations.  Criterion 7 checks every walled census cell against
its proven factorization hd * hd * kL! * kR! / (U! * T! * L! * R!) and
asserts that the product hd * hd * U! * T! stated for it fails at
(1|2, 1), index (1;0,0,1), where two diagrams exist and the product gives 1.
"""

import time
from itertools import permutations
from math import factorial

from diagalg import verify
from diagalg.halfdiag import bell, half_diagram_count
from diagalg.multiplicity import e2_lattice, lattice_line_count
from diagalg.symfunc import kronecker_coeff, lr_coeff, partitions_of
from diagalg.walled import WalledIndex, census, enumerate_walled, index_of


def _report(number: int, name: str, ok: bool, seconds: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} {name}: {status} ({seconds:.2f}s){suffix}")


def _run_suite(number: int, name: str, suite: str) -> None:
    report = verify.run_suite(suite)
    _report(number, name, report.ok, report.duration, f"{report.cases} cases")
    assert report.ok, f"{suite} failures: {report.failures[:5]}"


def test_criterion_01_four_way_agreement():
    # closed form, system count, lattice count, coefficient sum; p,q,r <= 12,
    # coefficient sum evaluated at the first admissible degree pair per triple
    _run_suite(1, "four-way multiplicity agreement", "four-way-agreement")


def test_criterion_02_lattice_figure_values():
    start = time.perf_counter()
    checks = [
        lattice_line_count(6, 8) == 3,
        lattice_line_count(6, 5) == 3,
        e2_lattice(6, 6, 4) == 3,  # realizes s=6, h=8
        e2_lattice(6, 7, 8) == 3,  # realizes s=6, h=5
    ]
    _report(2, "lattice line counts at s=6, h=8 and h=5", all(checks), time.perf_counter() - start)
    assert all(checks)


def test_criterion_03_lr_golden_set():
    start = time.perf_counter()
    ones = {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    ok = True
    for nu in partitions_of(5):
        expected = 1 if nu in ones else 0
        ok = ok and lr_coeff((2,), (2, 1), nu) == expected
    for size in (3, 4, 6, 7):
        for nu in partitions_of(size):
            ok = ok and lr_coeff((2,), (2, 1), nu) == 0
    _report(3, "Littlewood-Richardson golden set", ok, time.perf_counter() - start)
    assert ok


def test_criterion_04_kronecker():
    start = time.perf_counter()
    ok = all(kronecker_coeff((n,), (n,), (n,)) == 1 for n in range(1, 7))
    for size in range(1, 6):
        shapes = partitions_of(size)
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    base = kronecker_coeff(lam, mu, nu)
                    for a, b, c in permutations((lam, mu, nu)):
                        ok = ok and kronecker_coeff(a, b, c) == base
    _report(4, "Kronecker trivial family and symmetry", ok, time.perf_counter() - start)
    assert ok


def test_criterion_05_composition():
    # worked degree-6 pair, generator relations to degree 5, 500 random triples
    _run_suite(5, "composition golden and associativity", "compose-assoc")


def test_criterion_06_action():
    # worked action pair (one scaled, one vanishing), 500 random triples
    _run_suite(6, "module action golden and associativity", "action-assoc")


def test_criterion_07_walled_census_factorization():
    """Per-index census factorization, checked cell by cell.

    Each index count factors as hd(m, kL) * hd(n, kR) times a factor of the
    index alone, with kL = U+T+L and kR = U+T+R; that factor is the
    multinomial kL! * kR! / (U! * T! * L! * R!), not U! * T!.  The expected
    values are written out here rather than taken from
    walled.index_count_formula.  The census table is built from the same
    factorization, so this pins the multinomial form but is not independent
    of the census; independence comes from enumeration and from
    _brute_census and _census_reference in tests/test_walled.py.  The
    U! * T! product is refuted at (1|2, 1), index (1;0,0,1), and that
    refutation is asserted too.
    """
    start = time.perf_counter()
    totals_ok = True
    mismatches = []
    cells = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(m + n + 1):
                tally = census(m, n, r)
                totals_ok = totals_ok and sum(tally.values()) == half_diagram_count(m + n, r)
                expected = {}
                for u in range(min(m, n) + 1):
                    for t in range(r + 1):
                        for left in range(r - t + 1):
                            right = r - t - left
                            k_left, k_right = u + t + left, u + t + right
                            if k_left > m or k_right > n:
                                continue
                            expected[WalledIndex(u, t, left, right)] = (
                                half_diagram_count(m, k_left)
                                * half_diagram_count(n, k_right)
                                * factorial(k_left)
                                * factorial(k_right)
                                // (factorial(u) * factorial(t) * factorial(left) * factorial(right))
                            )
                cells += len(expected)
                for idx in sorted(tally.keys() | expected.keys()):
                    if tally.get(idx) != expected.get(idx):
                        mismatches.append(
                            f"census({m},{n},{r})[{idx.render()}] = {tally.get(idx, 0)}, "
                            f"expected {expected.get(idx, 0)}"
                        )

    # the stated U! * T! factor gives 1 here, but there are two diagrams
    refuted = WalledIndex(1, 0, 0, 1)
    diagrams = ["{{1,1'},{2'}*}", "{{1,2'},{1'}*}"]
    found = sorted(w.render() for w in enumerate_walled(1, 2, 1) if index_of(w) == refuted)
    stated = half_diagram_count(1, 1) * half_diagram_count(2, 2) * factorial(1) * factorial(0)
    refutation_ok = found == diagrams and stated == 1

    ok = totals_ok and not mismatches and refutation_ok
    _report(
        7,
        "walled census factorization",
        ok,
        time.perf_counter() - start,
        f"{cells} index cells, totals {'ok' if totals_ok else 'BROKEN'}, "
        f"{len(mismatches)} mismatched cells; U!*T! refuted at (1|2,1)[1;0,0,1]: "
        f"{len(found)} diagrams against {stated}",
    )
    assert totals_ok, "census totals must match the half-diagram count"
    assert not mismatches, (
        f"{len(mismatches)} census cells disagree with the factorization, first: {mismatches[0]}"
    )
    assert refutation_ok, (
        f"(1|2, 1), index (1;0,0,1) must hold exactly {diagrams} against "
        f"hd(1,1)*hd(2,2)*1!*0! = 1; got {found} against {stated}"
    )


def test_criterion_08_transition_lemma_sweep():
    # every generator move on every walled half-diagram with m,n <= 3 lands in
    # the admissible case list and strictly lowers the index
    _run_suite(8, "index transition sweep", "transition-lemma")


def test_criterion_09_bell_identity():
    start = time.perf_counter()
    report = verify.run_suite("bell-identity")
    explicit = bell(4) == 15 and bell(8) == 4140
    ok = report.ok and explicit
    _report(9, "squared-dimension Bell identity", ok, time.perf_counter() - start)
    assert ok, report.failures[:5]


def test_criterion_10_restriction_dimension_identity():
    # full coefficient-sum engine exercised over general shapes, m,n <= 3
    _run_suite(10, "restriction dimension identity", "restriction-dimension")


def test_criterion_11_geometry_equivalences():
    start = time.perf_counter()
    circles = verify.run_suite("geometry-agreement")
    parity = verify.run_suite("parity")
    ok = circles.ok and parity.ok
    _report(
        11,
        "circle, conic and parity equivalences",
        ok,
        time.perf_counter() - start,
        f"{circles.cases + parity.cases} cases",
    )
    assert ok, (circles.failures[:3], parity.failures[:3])


def test_criterion_12_symmetry_lemma():
    _run_suite(12, "boundary and reflection identities", "symmetry-lemma")


def test_criterion_13_tl_suite():
    _run_suite(13, "planar basis, class product, walled factorization", "tl-suite")

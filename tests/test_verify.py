"""Pinned reports of the verify suites, and their failure messages under a broken engine."""

import pytest

from diagalg import multiplicity, tl, verify, walled
from diagalg.walled import WalledIndex


def _payload(report):
    payload = report.to_json()
    assert payload.pop("duration_seconds") >= 0
    return payload


def _pinned(name, limit):
    return _payload(verify.run_suite(name, limit))


@pytest.fixture(scope="module")
def default_reports():
    """Every suite's report at its default bound, from one ``run_all``."""
    return {report.suite: report for report in verify.run_all()}


@pytest.mark.parametrize(
    "name, limit, cases",
    [
        ("compose-assoc", None, 757),
        ("action-assoc", None, 512),
        ("census-factorization", 1, 9),
        ("census-factorization", 5, 1_520),
        ("census-factorization", None, 641),
        ("census-factorization", 12, 77_911),
        ("transition-lemma", 1, 8),
        ("transition-lemma", 2, 360),
        ("transition-lemma", None, 17_532),
        ("bell-identity", None, 32),
        ("restriction-dimension", None, 100),
        ("four-way-agreement", None, 4_394),
        ("geometry-agreement", None, 43_306),
        ("parity", None, 14_911),
        ("symmetry-lemma", 1, 16),
        ("symmetry-lemma", 5, 316),
        ("symmetry-lemma", None, 2_628),
        ("tl-suite", 1, 303),
        ("tl-suite", 5, 582),
        ("tl-suite", None, 659),
    ],
)
def test_report_is_pinned(default_reports, name, limit, cases):
    report = default_reports[name] if limit is None else verify.run_suite(name, limit)
    assert _payload(report) == {"suite": name, "cases": cases, "failures": [], "ok": True}


def test_symmetry_lemma_failure_wording(monkeypatch):
    # a closed form that reads 0 at (1, 0, 1) breaks the boundary and the
    # zero-parameter identities there; its mirror is itself, so no
    # reflection is checked there
    real = multiplicity.e_closed
    monkeypatch.setattr(multiplicity, "e_closed", lambda p, q, r: 0 if (p, q, r) == (1, 0, 1) else real(p, q, r))
    assert _pinned("symmetry-lemma", 1) == {
        "suite": "symmetry-lemma",
        "cases": 16,
        "failures": [
            "(1,0,1) item boundary_one: value 0",
            "(1,0,1) item zero_parameter: value 0, expected 1",
        ],
        "ok": False,
    }


# Each identity that holds only on part of the grid, with the triples where it applies.
PARTIAL_IDENTITIES = {
    "vanishing": lambda p, q, r: p + q < r,
    "boundary_one": lambda p, q, r: p + q == r or abs(p - q) == r,
    "zero_parameter": lambda p, q, r: 0 in (p, q, r),
}


@pytest.mark.parametrize(
    "identity, applies, does_not",
    [("vanishing", (0, 0, 1), (1, 1, 2)), ("boundary_one", (2, 1, 3), (2, 2, 1)), ("zero_parameter", (0, 2, 2), (1, 2, 2))],
    ids=list(PARTIAL_IDENTITIES),
)
def test_symmetry_lemma_counts_an_identity_only_where_it_applies(monkeypatch, identity, applies, does_not):
    recorded = []
    real = verify.VerifyReport.check

    def check(report, condition, message):
        recorded.append(message)
        real(report, condition, message)

    monkeypatch.setattr(verify.VerifyReport, "check", check)
    report = verify.run_suite("symmetry-lemma", 3)
    triples = [tuple(int(x) for x in m[1 : m.index(")")].split(",")) for m in recorded if f" item {identity}:" in m]
    grid = [(p, q, r) for p in range(4) for q in range(4) for r in range(4)]
    assert triples == [t for t in grid if PARTIAL_IDENTITIES[identity](*t)]
    assert applies in triples and does_not not in triples
    assert len(recorded) == report.cases


def test_restriction_dimension_failure_wording(monkeypatch):
    # a weighted side of (1, 0, 0) with its one entry doubled and an entry
    # of the wrong size added fails its closed form and its entry count where
    # it sits, and the totals of (1|1) that read it as a lam side
    real = multiplicity._weighted_side
    broken = {(1,): {(): {(): 2}}, (2,): {(): {(): 1}}}
    monkeypatch.setattr(multiplicity, "_weighted_side", lambda *sizes: broken if sizes == (1, 0, 0) else real(*sizes))
    multiplicity._restriction_kernel.cache_clear()
    try:
        report = _pinned("restriction-dimension", 1)
    finally:
        multiplicity._restriction_kernel.cache_clear()
    assert report == {
        "suite": "restriction-dimension",
        "cases": 11,
        "failures": [
            "restriction sum at (1, 1, r=0) is 3, expected 2",
            "restriction sum at (1, 1, r=1) is 4, expected 3",
            "restriction sum at (1, 1, r=2) is 2, expected 1",
            "weighted side (1, 0, 0) at ((1,), (), ()) is 2, expected 1",
            "weighted side (1, 0, 0) holds 2 entries, expected 1",
        ],
        "ok": False,
    }


def test_tl_suite_failure_wording(monkeypatch):
    # one wrong ballot count, at one dot with one label, reaches the basis
    # count, the degree total and both planar walled counts of (1|1)
    real = tl.tl_basis_count
    monkeypatch.setattr(tl, "tl_basis_count", lambda n, r: 2 if (n, r) == (1, 1) else real(n, r))
    assert _pinned("tl-suite", 1) == {
        "suite": "tl-suite",
        "cases": 303,
        "failures": [
            "planar basis count at (1, 1) is 1",
            "degree 1: planar total 2 != C(n, n//2)",
            "walled planar count at (1|1, 0;0,1,1): 1 != 4",
            "walled planar count at (1|1, 1;0,0,0): 1 != 4",
        ],
        "ok": False,
    }


def test_census_factorization_failure_wording(monkeypatch):
    # at (1|1): an index copied in from r = 2 at r = 0, a changed count at
    # r = 1, and r = 2's one index dropped; a wrong count fails its own check
    # and the total, and an index missing or from another r only the total
    real = walled.census

    def faulty(m, n, r):
        tally = real(m, n, r)
        if (m, n, r) == (1, 1, 0):
            tally[WalledIndex(0, 0, 1, 1)] = 1
        elif (m, n, r) == (1, 1, 1):
            tally[WalledIndex(0, 1, 0, 0)] += 1
        elif (m, n, r) == (1, 1, 2):
            del tally[WalledIndex(0, 0, 1, 1)]
        return tally

    monkeypatch.setattr(walled, "census", faulty)
    assert _pinned("census-factorization", 1) == {
        "suite": "census-factorization",
        "cases": 9,
        "failures": [
            "census total at (1|1, 0) is 3, expected 2",
            "census total at (1|1, 1) is 4, expected 3",
            "census(1,1,1)[0;1,0,0] = 2, expected 1",
            "census total at (1|1, 2) is 0, expected 1",
        ],
        "ok": False,
    }


def test_transition_lemma_reports_an_unclassified_move(monkeypatch):
    def unclassified(g, w):
        raise walled.TransitionClassificationError("index delta fits no case")

    monkeypatch.setattr(walled, "transition", unclassified)
    report = verify.run_suite("transition-lemma", 1)
    assert report.cases == 12
    assert len(report.failures) == 12
    assert report.failures[:2] == [
        "p[1]#left on {{1,1'}}: index delta fits no case",
        "p[1]#right on {{1,1'}}: index delta fits no case",
    ]

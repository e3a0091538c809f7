"""Triangle tangent lengths, circle counting, conics, and parity."""

import json
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg import geometry
from diagalg.geometry import (
    conic_eccentricity_count,
    conic_parameters,
    geometric_multiplicity,
    geometry_summary,
    parity_tangency,
    tangent_lengths,
)
from diagalg.multiplicity import e_closed
import geometry_oracle as oracle


class TestTangentLengths:
    def test_right_triangle(self):
        assert tangent_lengths(3, 4, 5) == (3, 2, 1)

    def test_equilateral(self):
        for k in range(1, 6):
            assert tangent_lengths(k, k, k) == (Fraction(k, 2),) * 3

    def test_degenerate_edge(self):
        for p in range(5):
            for q in range(5):
                assert tangent_lengths(p, q, p + q)[2] == 0

    def test_sum_is_semiperimeter(self):
        for p in range(8):
            for q in range(8):
                for r in range(8):
                    assert sum(tangent_lengths(p, q, r)) == Fraction(p + q + r, 2)


class TestCircleCount:
    def test_equilateral_two(self):
        assert geometric_multiplicity(2, 2, 2) == 2

    def test_non_triangle_zero(self):
        assert geometric_multiplicity(1, 1, 3) == 0

    def test_degenerate_one(self):
        for p in range(6):
            for q in range(6):
                assert geometric_multiplicity(p, q, p + q) == 1

    def test_matches_closed_form_to_thirty(self):
        for p in range(31):
            for q in range(31):
                for r in range(31):
                    assert geometric_multiplicity(p, q, r) == e_closed(p, q, r)


class TestConic:
    def test_long_base_ellipse(self):
        a, c, kind = conic_parameters(3, 3, 4)
        assert (a, c, kind) == (3, 2, "ellipse")
        assert conic_eccentricity_count(3, 3, 4) == 2 == e_closed(3, 3, 4)

    def test_short_base_hyperbola(self):
        a, c, kind = conic_parameters(5, 3, 4)
        assert (a, c, kind) == (1, 2, "hyperbola")
        assert conic_eccentricity_count(5, 3, 4) == 2 == e_closed(5, 3, 4)

    def test_tie_resolves_to_ellipse(self):
        a, c, kind = conic_parameters(1, 1, 1)
        assert kind == "ellipse" and a == 1 and c == Fraction(1, 2)
        assert conic_eccentricity_count(1, 1, 1) == 1 == e_closed(1, 1, 1)

    def test_regime_match_to_thirty(self):
        for p in range(1, 31):
            for q in range(1, 31):
                for r in range(31):
                    if abs(p - q) < r < p + q:
                        assert conic_eccentricity_count(p, q, r) == e_closed(p, q, r)

    def test_fallback_outside_regime(self):
        assert conic_eccentricity_count(1, 1, 3) == 0
        assert conic_eccentricity_count(0, 4, 4) == 1

    def test_reflection_invariance_inside_band(self):
        for p in range(1, 13):
            for q in range(1, 13):
                for r in range(abs(p - q) + 1, p + q):
                    mirror = p + q + abs(p - q) - r
                    if abs(p - q) < mirror < p + q:
                        assert conic_eccentricity_count(p, q, r) == conic_eccentricity_count(
                            p, q, mirror
                        )


class TestParity:
    def test_integral_cuts(self):
        assert parity_tangency(3, 4, 5) == (True, True)

    def test_half_integral_cuts(self):
        assert parity_tangency(2, 2, 3) == (False, False)

    def test_degenerate_flat(self):
        for k in range(1, 6):
            assert parity_tangency(k, k, 2 * k) == (True, True)

    def test_rejects_non_triangle(self):
        with pytest.raises(ValueError):
            parity_tangency(1, 1, 3)

    def test_equivalence_to_thirty(self):
        for p in range(31):
            for q in range(31):
                for r in range(abs(p - q), min(p + q, 30) + 1):
                    integral, even = parity_tangency(p, q, r)
                    assert integral == even


def test_summary_is_json_friendly():
    import json

    summary = geometry_summary(3, 4, 5)
    text = json.dumps(summary)
    assert "tangent_lengths" in text
    assert summary["circle_count"] == summary["closed_form"]


PUBLIC = (
    "tangent_lengths",
    "geometric_multiplicity",
    "conic_parameters",
    "conic_eccentricity_count",
    "parity_tangency",
    "geometry_summary",
)


def outcome(function, *args):
    """(value, the types of its items, its JSON text when a dict), or (exception type, message)."""
    try:
        value = function(*args)
    except Exception as exc:  # the two routes must fail alike, whatever the type
        return type(exc), str(exc)
    return value, [type(v) for v in (value if isinstance(value, tuple) else (value,))], (
        json.dumps(value) if isinstance(value, dict) else None
    )


def assert_matches_oracle(p, q, r):
    for name in PUBLIC:
        got, want = outcome(getattr(geometry, name), p, q, r), outcome(getattr(oracle, name), p, q, r)
        assert got == want, (name, p, q, r)


class TestAgainstOracle:
    def test_every_triple_to_thirty(self):
        for p in range(31):
            for q in range(31):
                for r in range(31):
                    assert_matches_oracle(p, q, r)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 10**12))
    def test_large_triples(self, p, q, r):
        assert_matches_oracle(p, q, r)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 10**12), st.integers(0, 10**12), st.integers(-3, 3))
    def test_large_triples_near_the_band_edges(self, p, q, offset):
        for r in (abs(p - q) + offset, p + q + offset, max(p, q) + offset):
            if r >= 0:
                assert_matches_oracle(p, q, r)

    def test_same_errors_for_bad_input_in_each_position(self):
        for bad in (True, False, -1, -(10**12), 1.0, Fraction(1), "3", None):
            for position in range(3):
                args = [3, 4, 5]
                args[position] = bad
                for name in PUBLIC:
                    got = outcome(getattr(geometry, name), *args)
                    assert got == outcome(getattr(oracle, name), *args), (name, args)
                    assert got[0] is ValueError, (name, args)
            for name in PUBLIC:  # p is reported first, then q
                assert outcome(getattr(geometry, name), bad, -1, bad) == outcome(getattr(oracle, name), bad, -1, bad)
                assert outcome(getattr(geometry, name), 3, bad, -1) == outcome(getattr(oracle, name), 3, bad, -1)

    def test_int_subclass_input(self):
        Side = IntEnum("Side", {"THREE": 3, "FOUR": 4, "SEVEN": 7})
        for triple in ((Side.THREE, Side.FOUR, Side.SEVEN), (Side.SEVEN, 3, 3), (0, Side.FOUR, 1)):
            assert_matches_oracle(*triple)

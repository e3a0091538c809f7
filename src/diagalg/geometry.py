"""Plane-geometry readings of the multiplicity, in doubled integers.

Treat p, q, r as the integer side lengths of a (possibly degenerate)
triangle.  The multiplicity equals the number of circles centered at the
incenter that cut all three sides into integer-length segments, which
comes down to the floor of one incircle tangent length plus one; inside
the strict-triangle regime the same number is the floor of the gap
between a conic's vertex and focus plus one.  Every length here is half
an integer, so the module works on the doubled lengths, never floats,
and builds a ``Fraction`` only where a function promises one.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import _check_count
from .multiplicity import _e_closed


def _doubled(p: int, q: int, r: int) -> tuple[tuple[int, int, int], int, int, int, str]:
    """Check p, q, r once; (tangents, a, c, gap, conic kind) with every length doubled.

    A tangent is negative exactly off the triangle, and every tangent is
    positive exactly in the strict regime p, q > 0 and |p - q| < r < p + q.
    """
    p, q, r = _check_count(p, "p"), _check_count(q, "q"), _check_count(r, "r")
    a, kind = (p + q, "ellipse") if r >= p and r >= q else (abs(p - q), "hyperbola")
    return (q + r - p, p + r - q, p + q - r), a, r, abs(a - r), kind


def _counts(tangents: tuple[int, int, int], gap: int) -> tuple[int, int]:
    """(circle count, conic count) from the doubled tangents and gap."""
    low = min(tangents)
    circles = max(0, low // 2 + 1)
    return circles, gap // 2 + 1 if low > 0 else circles


def _parity(tangents: tuple[int, int, int], side_sum: int) -> tuple[bool, bool]:
    """(every doubled tangent even, side sum even), read apart so that their agreement stays checkable."""
    ta, tb, tc = tangents
    return ta % 2 == tb % 2 == tc % 2 == 0, side_sum % 2 == 0


def _half(doubled: int) -> str:
    """``str`` of the ``Fraction`` doubled / 2."""
    return f"{doubled}/2" if doubled % 2 else str(doubled // 2)


def tangent_lengths(p: int, q: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """Incircle tangent lengths at the vertices opposite sides p, q, r.

    The classic semiperimeter differences, computed unconditionally; a
    negative value signals that the sides do not form a triangle.
    """
    ta, tb, tc = _doubled(p, q, r)[0]
    return Fraction(ta, 2), Fraction(tb, 2), Fraction(tc, 2)


def geometric_multiplicity(p: int, q: int, r: int) -> int:
    """Number of concentric circles meeting all three sides at integer cuts.

    Floor of the tangent length at the vertex opposite the largest side,
    plus one; clamped to zero when the sides fail the triangle inequality.
    """
    tangents, _, _, gap, _ = _doubled(p, q, r)
    return _counts(tangents, gap)[0]


def conic_parameters(p: int, q: int, r: int) -> tuple[Fraction, Fraction, str]:
    """Vertex and focal half-lengths (a, c) of the conic the sides determine.

    When r is (weakly) the largest side the conic is the ellipse with
    focal distance r and major axis p + q; otherwise it is the hyperbola
    with focal distance r and vertex distance |p - q|.
    """
    _, a, c, _, kind = _doubled(p, q, r)
    return Fraction(a, 2), Fraction(c, 2), kind


def conic_eccentricity_count(p: int, q: int, r: int) -> int:
    """Multiplicity as floor(|a - c|) + 1 in the strict-triangle regime.

    Requires p, q > 0 and |p - q| < r < p + q; outside that regime the
    circle count takes over.
    """
    tangents, _, _, gap, _ = _doubled(p, q, r)
    return _counts(tangents, gap)[1]


def parity_tangency(p: int, q: int, r: int) -> tuple[bool, bool]:
    """(all tangent lengths integral, side sum even) for a triangle.

    The two booleans agree on every (possibly degenerate) triangle; both
    are computed independently so that equality stays a checkable fact
    rather than a definition.
    """
    tangents = _doubled(p, q, r)[0]
    if min(tangents) < 0:
        raise ValueError(f"sides ({p}, {q}, {r}) do not form a triangle, even degenerately")
    return _parity(tangents, p + q + r)


def geometry_summary(p: int, q: int, r: int) -> dict:
    """All geometric quantities for one side triple, JSON-friendly."""
    tangents, a, c, gap, kind = _doubled(p, q, r)
    circles, conics = _counts(tangents, gap)
    summary = {
        "p": p,
        "q": q,
        "r": r,
        "tangent_lengths": [_half(t) for t in tangents],
        "circle_count": circles,
        "conic": {"kind": kind, "a": _half(a), "c": _half(c), "gap": _half(gap)},
        "conic_count": conics,
        "closed_form": _e_closed(p, q, r),
    }
    if min(tangents) >= 0:
        integral, even = _parity(tangents, p + q + r)
        summary["parity"] = {"tangents_integral": integral, "side_sum_even": even}
    return summary

"""The exact-rational geometry readings, the test oracle for ``diagalg.geometry``.

This is the ``Fraction`` form of every public function of
:mod:`diagalg.geometry`: each helper checks its own input and builds its
tangent lengths and conic half-lengths as rationals, where the package
reads them off doubled integers.  It shares only the count check and
``e_closed`` with the package, so the two agreeing on every value,
string and error is evidence for both.
"""

from __future__ import annotations

from fractions import Fraction

from diagalg.multiplicity import _check_count, e_closed


def tangent_lengths(p: int, q: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """Incircle tangent lengths at the vertices opposite sides p, q, r.

    The classic semiperimeter differences, computed unconditionally; a
    negative value signals that the sides do not form a triangle.
    """
    p, q, r = (_check_count(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    return (
        Fraction(q + r - p, 2),
        Fraction(p + r - q, 2),
        Fraction(p + q - r, 2),
    )


def geometric_multiplicity(p: int, q: int, r: int) -> int:
    """Number of concentric circles meeting all three sides at integer cuts.

    Floor of the tangent length at the vertex opposite the largest side,
    plus one; clamped to zero when the sides fail the triangle inequality.
    """
    p, q, r = (_check_count(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    doubled_tangent = p + q + r - 2 * max(p, q, r)
    return max(0, doubled_tangent // 2 + 1)


def conic_parameters(p: int, q: int, r: int) -> tuple[Fraction, Fraction, str]:
    """Vertex and focal half-lengths (a, c) of the conic the sides determine.

    When r is (weakly) the largest side the conic is the ellipse with
    focal distance r and major axis p + q; otherwise it is the hyperbola
    with focal distance r and vertex distance |p - q|.
    """
    p, q, r = (_check_count(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    if r >= p and r >= q:
        return Fraction(p + q, 2), Fraction(r, 2), "ellipse"
    return Fraction(abs(p - q), 2), Fraction(r, 2), "hyperbola"


def conic_eccentricity_count(p: int, q: int, r: int) -> int:
    """Multiplicity as floor(|a - c|) + 1 in the strict-triangle regime.

    Requires p, q > 0 and |p - q| < r < p + q; outside that regime the
    circle count takes over.
    """
    p, q, r = (_check_count(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    if p <= 0 or q <= 0 or not abs(p - q) < r < p + q:
        return geometric_multiplicity(p, q, r)
    a, c, _ = conic_parameters(p, q, r)
    gap = abs(a - c)
    return int(gap) + 1  # Fraction truncates toward zero; gap >= 0 so this is the floor


def parity_tangency(p: int, q: int, r: int) -> tuple[bool, bool]:
    """(all tangent lengths integral, side sum even) for a triangle.

    The two booleans agree on every (possibly degenerate) triangle; both
    are computed independently so that equality stays a checkable fact
    rather than a definition.
    """
    p, q, r = (_check_count(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    if not abs(p - q) <= r <= p + q:
        raise ValueError(f"sides ({p}, {q}, {r}) do not form a triangle, even degenerately")
    tangents = tangent_lengths(p, q, r)
    all_integral = all(t.denominator == 1 for t in tangents)
    sum_even = (p + q + r) % 2 == 0
    return all_integral, sum_even


def geometry_summary(p: int, q: int, r: int) -> dict:
    """All geometric quantities for one side triple, JSON-friendly."""
    ta, tb, tc = tangent_lengths(p, q, r)
    a, c, kind = conic_parameters(p, q, r)
    summary = {
        "p": p,
        "q": q,
        "r": r,
        "tangent_lengths": [str(ta), str(tb), str(tc)],
        "circle_count": geometric_multiplicity(p, q, r),
        "conic": {"kind": kind, "a": str(a), "c": str(c), "gap": str(abs(a - c))},
        "conic_count": conic_eccentricity_count(p, q, r),
        "closed_form": e_closed(p, q, r),
    }
    if abs(p - q) <= r <= p + q:
        all_integral, sum_even = parity_tangency(p, q, r)
        summary["parity"] = {"tangents_integral": all_integral, "side_sum_even": sum_even}
    return summary

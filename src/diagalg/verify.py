"""Self-contained verification suites over the whole library.

Each suite sweeps a bounded grid of inputs and records every check, with a
readable message for a failure, in the report that ``run_suite`` hands it.
The random suites draw from fixed seeds, so reports repeat byte for byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import comb, factorial, prod

from . import diagrams, geometry, halfdiag, multiplicity, tl, walled
from .diagrams import DeltaPolynomial, DiagramSum, SetPartitionDiagram, compose, generator
from .halfdiag import HalfDiagram, ScaledHalfDiagram, act, enumerate_basis
from .multiplicity import one_part
from .symfunc import partitions_of, syt_count
from .walled import TransitionCase, WalledIndex

_SEED = 20260810


@dataclass
class VerifyReport:
    """One suite's outcome: case count, failures, wall-clock duration."""

    suite: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(message)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "duration_seconds": round(self.duration, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        return f"{self.suite}: {status} [{self.cases} cases, {self.duration:.2f}s]"


def _random_blocks(rng: random.Random, dots) -> list[list[int]]:
    """Drop each dot in turn into a uniformly chosen existing block or a new one."""
    blocks: list[list[int]] = []
    for dot in dots:
        choice = rng.randint(0, len(blocks))
        if choice == len(blocks):
            blocks.append([dot])
        else:
            blocks[choice].append(dot)
    return blocks


def _random_diagram(rng: random.Random, n: int) -> SetPartitionDiagram:
    """A uniform-ish random set-partition of the 2n dots."""
    nodes = [k for k in range(1, n + 1)] + [-k for k in range(1, n + 1)]
    return SetPartitionDiagram(n, _random_blocks(rng, nodes))


def _random_half_diagram(rng: random.Random, n: int) -> HalfDiagram:
    """A random set partition of 1..n with each block labeled on a fair coin."""
    blocks = _random_blocks(rng, range(1, n + 1))
    labels = [i for i in range(len(blocks)) if rng.random() < 0.5]
    return HalfDiagram(n, blocks, labels)


# The worked composition example: two degree-6 diagrams whose product
# carries delta^2, with the merged diagram written out.
GOLDEN_COMPOSE_LEFT = {
    "n": 6,
    "blocks": [[1, 2, -2], [3], [4, 6, -6], [5], [-1], [-3], [-4], [-5]],
}
GOLDEN_COMPOSE_RIGHT = {
    "n": 6,
    "blocks": [[1], [2], [3, 4, 5], [6, -4, -6], [-1, -2, -3], [-5]],
}
GOLDEN_COMPOSE_RESULT = {
    "n": 6,
    "blocks": [[1, 2], [3], [4, 6, -4, -6], [5], [-1, -2, -3], [-5]],
}
GOLDEN_COMPOSE_T = 2

# The worked action examples: a degree-6 diagram on a 2-label half-diagram,
# once with result delta^1 times a half-diagram and once vanishing.
GOLDEN_ACT_DIAGRAM = {
    "n": 6,
    "blocks": [[1, 2, -2], [3, -3], [4], [5, -4], [6, -5], [-1], [-6]],
}
GOLDEN_ACT_INPUT = {
    "n": 6,
    "blocks": [[1, 3], [2], [4], [5], [6]],
    "labeled": [0, 3],
}
GOLDEN_ACT_RESULT = {
    "n": 6,
    "blocks": [[1, 2], [3], [4], [5], [6]],
    "labeled": [1, 4],
}
GOLDEN_ACT_T = 1
GOLDEN_ACT_ZERO_DIAGRAM = {
    "n": 6,
    "blocks": [[1, 2, -2], [3, 4], [5, -4], [6, -5], [-1], [-3], [-6]],
}


def verify_compose_assoc(report: VerifyReport, top: int) -> None:
    """Golden composition, generator relations, and associativity samples."""
    d1 = SetPartitionDiagram.from_json(GOLDEN_COMPOSE_LEFT)
    d2 = SetPartitionDiagram.from_json(GOLDEN_COMPOSE_RIGHT)
    t, d = compose(d1, d2)
    report.check(t == GOLDEN_COMPOSE_T, f"golden composition gave t={t}")
    report.check(
        d == SetPartitionDiagram.from_json(GOLDEN_COMPOSE_RESULT),
        f"golden composition gave {d.render()}",
    )

    for n in range(1, top + 1):
        identity = SetPartitionDiagram.identity(n)
        for i in range(1, n + 1):
            p = generator("P", i, None, n)
            t, result = compose(p, p)
            report.check(
                (t, result) == (1, p), f"p[{i}] squared in degree {n} gave delta^{t}"
            )
            for j in range(i + 1, n + 1):
                e = generator("E", i, j, n)
                s = generator("S", i, j, n)
                report.check(compose(e, e) == (0, e), f"e[{i},{j}] not idempotent in degree {n}")
                report.check(
                    compose(s, s) == (0, identity), f"s[{i},{j}] squared is not the identity"
                )

    rng = random.Random(_SEED)
    for _ in range(500):
        n = rng.randint(1, 4)
        a, b, c = (_random_diagram(rng, n) for _ in range(3))
        left = DiagramSum.from_diagram(a).compose(DiagramSum.from_diagram(b)).compose(
            DiagramSum.from_diagram(c)
        )
        right = DiagramSum.from_diagram(a).compose(
            DiagramSum.from_diagram(b).compose(DiagramSum.from_diagram(c))
        )
        report.check(left == right, f"associativity failed for {a.render()}, {b.render()}, {c.render()}")

    # propagating number never increases under composition
    rng = random.Random(_SEED + 1)
    for _ in range(200):
        n = rng.randint(1, 4)
        a, b = _random_diagram(rng, n), _random_diagram(rng, n)
        _, d = compose(a, b)
        bound = min(diagrams.propagating_number(a), diagrams.propagating_number(b))
        report.check(
            diagrams.propagating_number(d) <= bound,
            f"propagating number grew composing {a.render()} with {b.render()}",
        )


def verify_action_assoc(report: VerifyReport, top: int | None) -> None:
    """Golden actions and stack-then-act associativity."""
    d = SetPartitionDiagram.from_json(GOLDEN_ACT_DIAGRAM)
    v = HalfDiagram.from_json(GOLDEN_ACT_INPUT)
    result = act(d, v)
    expected = ScaledHalfDiagram(
        DeltaPolynomial.delta_power(GOLDEN_ACT_T), HalfDiagram.from_json(GOLDEN_ACT_RESULT)
    )
    report.check(result == expected, f"golden action gave {result.render()}")

    zero = act(SetPartitionDiagram.from_json(GOLDEN_ACT_ZERO_DIAGRAM), v)
    report.check(zero.is_zero, f"vanishing golden action gave {zero.render()}")

    rng = random.Random(_SEED + 2)
    for _ in range(500):
        n = rng.randint(1, 4)
        d1, d2 = _random_diagram(rng, n), _random_diagram(rng, n)
        vv = _random_half_diagram(rng, n)
        t, d12 = compose(d1, d2)
        lhs = act(d12, vv).scaled(DeltaPolynomial.delta_power(t))
        inner = act(d2, vv)
        rhs = ScaledHalfDiagram.zero() if inner.is_zero else act(d1, inner.diagram).scaled(inner.coeff)
        report.check(
            lhs == rhs,
            f"action associativity failed for {d1.render()}, {d2.render()} on {vv.render()}",
        )

    identity = SetPartitionDiagram.identity(3)
    for vv in enumerate_basis(3, 1):
        got = act(identity, vv)
        report.check(
            got == ScaledHalfDiagram(DeltaPolynomial.one(), vv),
            f"identity action moved {vv.render()}",
        )


def verify_census_factorization(report: VerifyReport, top: int) -> None:
    """Each index the walled census returns against its closed-form count, plus their total.

    Every index in range has a positive count, so an index missing, or
    copied in from another label count, shows in the total.
    """
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            for r in range(m + n + 1):
                tally = walled.census(m, n, r)
                total = sum(tally.values())
                expected = halfdiag.half_diagram_count(m + n, r)
                report.check(total == expected, f"census total at ({m}|{n}, {r}) is {total}, expected {expected}")
                for idx, got in tally.items():
                    expected = walled.index_count_formula(m, n, idx)
                    agree = got == expected
                    report.check(
                        agree,
                        "" if agree else f"census({m},{n},{r})[{idx.render()}] = {got}, expected {expected}",
                    )


def verify_transition_lemma(report: VerifyReport, top: int) -> None:
    """Every generator move that changes the index lands in one of the five cases, each of which lowers it."""
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            gens = walled.tensor_generators(m, n)
            for r in range(m + n + 1):
                for w in walled.enumerate_walled(m, n, r):
                    for name, g in gens:
                        try:
                            move = walled.transition(g, w)
                        except walled.TransitionClassificationError as exc:
                            report.check(False, f"{name} on {w.render()}: {exc}")
                            continue
                        # UNCHANGED is exactly new == old: no case.  Any other move that
                        # classified lowered the index, as every admissible delta does.
                        if move.case is not TransitionCase.UNCHANGED:
                            report.check(True, "")


def verify_bell_identity(report: VerifyReport, top: int) -> None:
    """Squared standard dimensions, read through the checking dim_standard on purpose, sum to Bell(2n)."""
    for n in range(1, top + 1):
        total = sum(
            halfdiag.dim_standard(n, nu) ** 2 for nu in halfdiag.partitions_up_to(n)
        )
        expected = halfdiag.bell(2 * n)
        report.check(total == expected, f"degree {n}: sum of squares {total} != {expected}")
    for n in range(7):
        for r in range(n + 1):
            report.check(
                len(enumerate_basis(n, r)) == halfdiag.half_diagram_count(n, r),
                f"basis count mismatch at ({n}, {r})",
            )


def verify_restriction_dimension(report: VerifyReport, top: int) -> None:
    """Weighted dimension sums match the census, and each weighted side they read its closed form, entry by entry."""
    for m, n in product(range(1, top + 1), repeat=2):
        for r in range(m + n + 1):
            total, expected = multiplicity.restriction_dimension_total(m, n, r), halfdiag.half_diagram_count(m + n, r)
            report.check(total == expected, f"restriction sum at ({m}, {n}, r={r}) is {total}, expected {expected}")
    for sizes in product(range(top + 1), repeat=3):
        if sum(sizes) > top:
            continue
        side, shapes = multiplicity._weighted_side(*sizes), [partitions_of(size) for size in sizes]
        scale, entries = factorial(sum(sizes)) // prod(map(factorial, sizes)), prod(map(len, shapes))
        for alpha, beta, eta in product(*shapes):
            got = side.get(alpha, {}).get(eta, {}).get(beta, 0)
            expected = scale * syt_count(alpha) * syt_count(beta) * syt_count(eta)
            ok = got == expected
            report.check(ok, "" if ok else f"weighted side {sizes} at {alpha, beta, eta} is {got}, expected {expected}")
        held = sum(len(by_beta) for by_eta in side.values() for by_beta in by_eta.values())
        report.check(held == entries, f"weighted side {sizes} holds {held} entries, expected {entries}")


def verify_four_way_agreement(report: VerifyReport, top: int) -> None:
    """Closed form, system count, lattice count and coefficient sum agree."""
    for p in range(top + 1):
        for q in range(top + 1):
            for r in range(top + 1):
                closed = multiplicity.e_closed(p, q, r)
                count, _ = multiplicity.e_lattice(p, q, r)
                lattice = multiplicity.e2_lattice(p, q, r)
                report.check(
                    closed == count == lattice,
                    f"({p},{q},{r}): closed {closed}, system {count}, lattice {lattice}",
                )
                # bvo_multiplicity reads m and n only for admissibility: one pair, as `mult` uses
                m, n = multiplicity.admissible_degree_pairs(p, q, r)[0]
                value = multiplicity.bvo_multiplicity(
                    one_part(r), one_part(p), one_part(q), m, n
                )
                report.check(
                    value == closed,
                    f"({p},{q},{r}) at degrees ({m},{n}): coefficient sum {value} != {closed}",
                )


def verify_geometry_agreement(report: VerifyReport, top: int) -> None:
    """Circle and conic counts reproduce the closed form on their regimes."""
    for p in range(top + 1):
        for q in range(top + 1):
            for r in range(top + 1):
                closed = multiplicity.e_closed(p, q, r)
                circles = geometry.geometric_multiplicity(p, q, r)
                report.check(
                    circles == closed, f"({p},{q},{r}): circle count {circles} != {closed}"
                )
                if p > 0 and q > 0 and abs(p - q) < r < p + q:
                    conic = geometry.conic_eccentricity_count(p, q, r)
                    report.check(
                        conic == closed, f"({p},{q},{r}): conic count {conic} != {closed}"
                    )


def verify_parity(report: VerifyReport, top: int) -> None:
    """Integral tangent cuts happen exactly at even side sums."""
    for p in range(top + 1):
        for q in range(top + 1):
            for r in range(abs(p - q), min(p + q, top) + 1):
                integral, even = geometry.parity_tangency(p, q, r)
                report.check(
                    integral == even,
                    f"({p},{q},{r}): tangents integral {integral} but side sum even {even}",
                )


def verify_tl_suite(report: VerifyReport, top: int) -> None:
    """Planar basis counts, the class product, and the walled factorization."""

    for n in range(top + 1):
        for r in range(n + 1):
            count = sum(1 for _ in tl._planar_walk(n, r))  # counted as yielded, none held
            report.check(
                count == tl.tl_basis_count(n, r),
                f"planar basis count at ({n}, {r}) is {count}",
            )
        total = sum(tl.tl_basis_count(n, r) for r in range(n % 2, n + 1, 2))
        report.check(
            total == comb(n, n // 2), f"degree {n}: planar total {total} != C(n, n//2)"
        )

    v11 = tl.GrothElement.module_class(1, 1)
    product = tl.groth_multiply(v11, v11)
    expected = tl.GrothElement({(2, 0): 1, (2, 2): 1})
    report.check(product == expected, f"[V_1(1)]^2 expanded to {product.render()}")
    v22 = tl.GrothElement.module_class(2, 2)
    report.check(
        tl.groth_multiply(v22, v22) == tl.GrothElement({(4, 0): 1, (4, 2): 1, (4, 4): 1}),
        "[V_2(2)]^2 expansion is wrong",
    )
    report.check(
        tl.groth_multiply(tl.GrothElement.module_class(2, 0), tl.GrothElement.module_class(3, 3))
        == tl.GrothElement.module_class(5, 3),
        "a zero-label class must act as a degree shift",
    )

    rng = random.Random(_SEED + 3)
    classes = [(deg, lab) for deg in range(5) for lab in range(deg % 2, deg + 1, 2)]
    for _ in range(60):
        def sample() -> tl.GrothElement:
            picks = rng.sample(classes, k=rng.randint(1, 2))
            return tl.GrothElement({key: rng.randint(1, 3) for key in picks})

        a, b, c = sample(), sample(), sample()
        left = tl.groth_multiply(tl.groth_multiply(a, b), c)
        right = tl.groth_multiply(a, tl.groth_multiply(b, c))
        report.check(left == right, f"product not associative on {a.render()}, {b.render()}, {c.render()}")

    wall_top = min(top, 5)
    for m in range(1, wall_top + 1):
        for n in range(1, wall_top + 1):
            # each planar (m|n, r) basis tallied by index once; a row with T > 0
            # would leave its T = 0 tally short, so the count check reports it
            tally: dict[WalledIndex, int] = {}
            for r in range((m + n) % 2, m + n + 1, 2):
                for row in tl.tl_basis(m + n, r):
                    idx = walled.index_of(walled.WalledHalfDiagram(m, n, row))
                    tally[idx] = tally.get(idx, 0) + 1
            for u in range(min(m, n) + 1):
                for left in range(m - u + 1):
                    if (u + left) % 2 != m % 2:
                        continue
                    for right in range(n - u + 1):
                        if (u + right) % 2 != n % 2:
                            continue
                        lhs = tally.get(WalledIndex(u, 0, left, right), 0)
                        rhs = tl.tl_basis_count(m, u + left) * tl.tl_basis_count(n, u + right)
                        report.check(
                            lhs == rhs,
                            f"walled planar count at ({m}|{n}, {u};0,{left},{right}): {lhs} != {rhs}",
                        )

    for m in range(1, 5):
        for n in range(1, 5):
            for p in range(m % 2, m + 1, 2):
                for q in range(n % 2, n + 1, 2):
                    for r in range((m + n) % 2, m + n + 1, 2):
                        value = tl.tl_e(p, q, r, m, n)
                        _, solutions = multiplicity.e_lattice(p, q, r)
                        pinned = [s for s in solutions if s.through_labeled == 0]
                        report.check(
                            value == min(1, len(pinned)),
                            f"planar multiplicity at ({p},{q},{r}) deg ({m},{n}): {value}, pinned {len(pinned)}",
                        )


def verify_symmetry_lemma(report: VerifyReport, top: int) -> None:
    """Four boundary and symmetry identities of the multiplicity.

    The closed form and the system count must both show, each identity
    counted only at the triples where it applies,
    1. vanishing above the band: value 0 whenever p + q < r;
    2. value 1 on the band boundary (p + q = r or |p - q| = r);
    3. with a zero parameter, value 1 exactly when the other two agree;
    4. reflection symmetry r -> p + q + |p - q| - r, each in-range pair
       compared once, from its lower end r < max(p, q).
    """
    for p in range(top + 1):
        for q in range(top + 1):
            for r in range(top + 1):
                closed = multiplicity.e_closed(p, q, r)
                count, _ = multiplicity.e_lattice(p, q, r)
                where = f"({p},{q},{r}) item"
                if p + q < r:
                    report.check(closed == count == 0, f"{where} vanishing: value {closed}")
                if p + q == r or abs(p - q) == r:
                    report.check(closed == count == 1, f"{where} boundary_one: value {closed}")
                low, mid, high = sorted((p, q, r))
                if low == 0:
                    expected = 1 if mid == high else 0
                    report.check(
                        closed == count == expected, f"{where} zero_parameter: value {closed}, expected {expected}"
                    )
                mirror = p + q + abs(p - q) - r
                if mirror < 0:
                    # r lies beyond the whole band, so its mirror image does too
                    report.check(
                        closed == count == 0,
                        f"{where} reflection: value {closed}, mirror position {mirror} out of range",
                    )
                elif r < mirror:
                    mirrored_closed = multiplicity.e_closed(p, q, mirror)
                    mirrored_count, _ = multiplicity.e_lattice(p, q, mirror)
                    report.check(
                        closed == mirrored_closed and count == mirrored_count,
                        f"{where} reflection: value {closed} vs {mirrored_closed} at r'={mirror}",
                    )


# Each suite by name: (function, default sweep bound, largest bound (--max)
# it accepts), with None for both bounds of a suite that ignores them.
# Each ceiling is the largest bound at which the suite finishes within about
# 300 s and about 1 GiB on a 2-core x86 host under Python 3.11.  Times past
# the largest measured bound are extrapolated from the growth below it ("est.").
SUITES = {
    "compose-assoc": (verify_compose_assoc, 5, 96),  # 30 s at 60, 114 s at 80; est. 270 s at 96
    "action-assoc": (verify_action_assoc, None, None),
    # 1.2 s at 16, 5.2 s at 22; 43 s at 32, 73 s and 57 MiB peak RSS at 36
    "census-factorization": (verify_census_factorization, 4, 36),
    "transition-lemma": (verify_transition_lemma, 3, 4),  # 0.51 s at 3, 36 s at 4
    # 56 s and 279 MiB at 48, 73 s and 550 MiB at 52, 134 s and 997 MiB at 55; 166 s and 1,073 MiB at 56
    "bell-identity": (verify_bell_identity, 4, 55),
    # 0.7 to 1.1 s at 11, 1.4 to 1.6 s at 12, 3.1 to 4.1 s and 117 MiB at 13
    "restriction-dimension": (verify_restriction_dimension, 3, 13),
    "four-way-agreement": (verify_four_way_agreement, 12, 120),  # 9 s at 64, 44 s at 96, 103 s and 261 MiB at 120
    "geometry-agreement": (verify_geometry_agreement, 30, 320),  # 10 s at 120, 34 s at 180, 183 s and 15 MiB at 320
    "parity": (verify_parity, 30, 480),  # 1.8 s at 120, 21 s at 240, 130 s and 15 MiB at 480
    "tl-suite": (verify_tl_suite, 12, 24),  # 6.6 to 7.8 s and 24 MiB at 22, 25 to 28 s and 34 MiB at 24
    "symmetry-lemma": (verify_symmetry_lemma, 12, 120),  # 2.2 s at 64, 11 s at 96, 27 s and 17 MiB at 120
}


def _check_limit(name: str, limit: int | None) -> None:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    if limit is None:
        return
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise ValueError(f"verify bound must be a positive integer, got {limit!r}")
    ceiling = SUITES[name][2]
    if ceiling is not None and limit > ceiling:
        raise ValueError(f"verify {name} is limited to --max <= {ceiling}, got {limit}")


def run_suite(name: str, limit: int | None = None) -> VerifyReport:
    """Run one suite by name into a fresh report and record its wall-clock duration.

    ``limit`` overrides the suite's default sweep bound and must be a positive
    int no larger than the suite's ceiling in ``SUITES``.  ``_check_limit`` is
    the one place the bound is checked, and this the one place it defaults.
    """
    _check_limit(name, limit)
    function, default, _ = SUITES[name]
    report = VerifyReport(name)
    start = time.perf_counter()
    function(report, default if limit is None else limit)
    report.duration = time.perf_counter() - start
    return report


def run_all(limit: int | None = None) -> list[VerifyReport]:
    """Run every suite, after checking ``limit`` against every ceiling."""
    for name in SUITES:
        _check_limit(name, limit)
    return [run_suite(name, limit) for name in SUITES]

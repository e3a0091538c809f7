"""The four benchmark workloads: inputs from a seed, one pass of operations, oracles.

A workload is the list of groups that make up one pass.  A group is a short
sequence of operations, each a call into diagalg's public functions, plus
a check of the group's outputs against an oracle.  An operation receives
the outputs of the earlier operations of its group; an operation with a
condition runs only when the condition holds on those outputs.

Every pass runs the same groups in the same order from cleared caches, so
passes do the same work and a traced pass has exact, repeatable counts.
The seed chooses the inputs and the order; it never changes how many
operations of each kind a pass holds.

Operations look diagalg functions up through their modules at call time
(``walled.transition``, not a bound name), so a tracer that replaces the
module attributes sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from diagalg import diagrams, geometry, halfdiag, multiplicity, symfunc, tl, verify, walled
from diagalg.multiplicity import one_part
from diagalg.walled import TransitionCase, WalledIndex


@dataclass
class Group:
    """Operations run in order, then ``check(outputs)``: an error message or None.

    Groups with the same ``key`` run the same calls, so their latencies
    are samples of one operation; a group without a key is its own.
    """

    ops: list
    check: Callable[[list], str | None]
    key: object = None


class Workload:
    name = ""
    # Percentile reported as op_tail_ms: one of 90, 99 and 99.9, with at
    # least ten samples beyond it in a run at this commit.  Where a higher
    # one lands on the host's latency spikes rather than on the code, the
    # lower one is used; perfbench/README.md gives the choice per workload.
    tail_percentile = 99.0
    # Whether each operation starts from a collected heap, untimed, so that
    # no operation pays for a collection of the garbage of others.
    collect_before_ops = False

    def __init__(self):
        self.groups: list[Group] = []
        self.warmup: list[Group] = []

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> list[tuple[list[int], str]]:
        """Checks over the whole pass: (indices of the groups at fault, message)."""
        return []


# ---------------------------------------------------------------------------
# transition-sweep

CASE_ORDER = tuple(case.value for case in TransitionCase)

# Case tallies of the full sweep over each (m|n) cell, in CASE_ORDER, as
# computed by the seed code.  A pass must reproduce them exactly.
GOLDEN_TRANSITION_TALLIES = {
    (1, 1): (4, 2, 0, 2, 4, 0),
    (1, 2): (68, 9, 2, 9, 22, 0),
    (1, 3): (688, 43, 24, 43, 142, 0),
    (1, 4): (6050, 221, 216, 221, 1010, 0),
    (1, 5): (51254, 1231, 1800, 1231, 7664, 0),
    (2, 1): (68, 9, 2, 9, 22, 0),
    (2, 2): (484, 56, 20, 68, 120, 4),
    (2, 3): (4108, 322, 194, 448, 788, 42),
    (2, 4): (35774, 1908, 1778, 2958, 5832, 350),
    (3, 1): (688, 43, 24, 43, 142, 0),
    (3, 2): (4108, 322, 194, 448, 788, 42),
    (3, 3): (30660, 2124, 1632, 3636, 5184, 504),
    (4, 1): (6050, 221, 216, 221, 1010, 0),
    (4, 2): (35774, 1908, 1778, 2958, 5832, 350),
    (5, 1): (51254, 1231, 1800, 1231, 7664, 0),
}


class TransitionSweep(Workload):
    """Every tensor generator on every walled half-diagram with m, n >= 1, m + n <= 6.

    One operation is all the moves of one diagram; the seed shuffles the
    14,298 diagrams so every stretch of a pass has the same cell mix.
    """

    name = "transition-sweep"
    tail_percentile = 90.0

    def __init__(self, rng: random.Random):
        super().__init__()
        items = []
        for m, n in GOLDEN_TRANSITION_TALLIES:
            gens = tuple(g for _, g in walled.tensor_generators(m, n))
            for r in range(m + n + 1):
                items.extend((m, n, w, gens) for w in walled.enumerate_walled(m, n, r))
        rng.shuffle(items)
        self.groups = [self._group(*item) for item in items]
        self._cell_groups: dict[tuple[int, int], list[int]] = {}
        for index, (m, n, _, _) in enumerate(items):
            self._cell_groups.setdefault((m, n), []).append(index)
        self.warmup = self.groups[:50]
        self._tally: dict[tuple[int, int], dict[str, int]] = {}

    def _group(self, m: int, n: int, w, gens) -> Group:
        def moves(_outputs):
            return [walled.transition(g, w) for g in gens]

        def check(outputs):
            tally = self._tally.setdefault((m, n), dict.fromkeys(CASE_ORDER, 0))
            problem = None
            for move in outputs[0]:
                tally[move.case.value] += 1
                if move.case is TransitionCase.UNCHANGED:
                    ok = move.new == move.old
                else:
                    ok = move.new < move.old
                if not ok and problem is None:
                    problem = (
                        f"({m}|{n}) {w.render()}: {move.case.value} move "
                        f"{move.old.render()} -> {move.new.render()}"
                    )
            return problem

        return Group([(f"moves ({m}|{n})", moves)], check)

    def begin_pass(self) -> None:
        self._tally = {}

    def end_pass(self):
        faults = []
        for cell, golden in GOLDEN_TRANSITION_TALLIES.items():
            got = tuple(self._tally.get(cell, {}).get(case, 0) for case in CASE_ORDER)
            if got != golden:
                faults.append((self._cell_groups[cell], f"({cell[0]}|{cell[1]}) case tallies {got} != {golden}"))
        return faults


# ---------------------------------------------------------------------------
# census


def census_by_formula(m: int, n: int, r: int) -> dict[WalledIndex, int]:
    """Non-zero closed-form counts of every index with r labels."""
    out = {}
    for u in range(min(m, n) + 1):
        for t in range(r + 1):
            for left in range(r - t + 1):
                idx = WalledIndex(u, t, left, r - t - left)
                count = walled.index_count_formula(m, n, idx)
                if count:
                    out[idx] = count
    return out


class Census(Workload):
    """``walled.census(m, n, r)`` over the m, n <= 4 grid and the (4|5) cell, at every r.

    One operation is one census call.  The six (4|5) slices with r <= 5
    take most of a pass and run once; every other call runs five times a
    pass, so its latency is the median of five samples.  The largest
    slice, at r = 2, sets the peak memory, since census builds each slice
    as a list.

    The grid is the whole input, so the seed changes nothing: the calls
    run in a fixed order, which fixes the call that pays for each cold
    ``set_partitions`` entry and where garbage collections fall.
    """

    name = "census"
    tail_percentile = 90.0
    collect_before_ops = True
    REPEATED = [(m, n, r) for m in range(1, 5) for n in range(1, 5) for r in range(m + n + 1)]
    REPEATED += [(4, 5, r) for r in range(6, 10)]
    ONCE = [(4, 5, r) for r in range(6)]

    def __init__(self, rng: random.Random):
        super().__init__()
        calls = self.REPEATED + self.ONCE + self.REPEATED * 4
        self.groups = [self._group(*call) for call in calls]
        self.warmup = [self._group(1, 1, r) for r in range(3)]

    def _group(self, m: int, n: int, r: int) -> Group:
        def run(_outputs):
            return walled.census(m, n, r)

        def check(outputs):
            tally = outputs[0]
            total = sum(tally.values())
            expected_total = halfdiag.half_diagram_count(m + n, r)
            if total != expected_total:
                return f"census({m},{n},{r}) total {total} != {expected_total}"
            expected = census_by_formula(m, n, r)
            if tally != expected:
                wrong = sorted(set(tally.items()) ^ set(expected.items()))
                return f"census({m},{n},{r}) differs from the closed form at {wrong[:3]}"
            return None

        return Group([(f"census ({m}|{n})", run)], check, key=(m, n, r))


# ---------------------------------------------------------------------------
# algebra


# The package's own random generators are private to diagalg.verify; these
# copies keep the benchmark off private names that may change.
def random_diagram(rng: random.Random, n: int) -> diagrams.SetPartitionDiagram:
    """Set partition of the 2n dots grown one dot at a time: few, large blocks."""
    blocks: list[list[int]] = []
    for node in [*range(1, n + 1), *range(-1, -n - 1, -1)]:
        choice = rng.randint(0, len(blocks))
        if choice == len(blocks):
            blocks.append([node])
        else:
            blocks[choice].append(node)
    return diagrams.SetPartitionDiagram(n, blocks)


def random_half_diagram(rng: random.Random, n: int) -> halfdiag.HalfDiagram:
    blocks: list[list[int]] = []
    for dot in range(1, n + 1):
        choice = rng.randint(0, len(blocks))
        if choice == len(blocks):
            blocks.append([dot])
        else:
            blocks[choice].append(dot)
    labels = [i for i in range(len(blocks)) if rng.random() < 0.5]
    return halfdiag.HalfDiagram(n, blocks, labels)


def random_generator_args(rng: random.Random, n: int) -> tuple[str, int, int | None, int]:
    kind = rng.choice("EPS")
    if kind == "P":
        return kind, rng.randint(1, n), None, n
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    return kind, i, j, n


WINDOW = 10


def word_diagram(rng: random.Random, n: int, words) -> diagrams.SetPartitionDiagram:
    """A product of merge, cut and swap generators: many small blocks.

    Side by side copies of degree-10 generator words (generators on
    disjoint strands commute, so this is itself a word), with both rows
    then relabeled by random permutations, which is composing with
    permutation diagrams, themselves products of swaps.
    """
    top = list(range(1, n + 1))
    bottom = list(range(1, n + 1))
    rng.shuffle(top)
    rng.shuffle(bottom)
    blocks = []
    for offset in range(0, n, WINDOW):
        for block in rng.choice(words).blocks:
            blocks.append(
                [top[offset + k - 1] if k > 0 else -bottom[offset - k - 1] for k in block]
            )
    return diagrams.SetPartitionDiagram(n, blocks)


def _assoc_check(outputs, ab, abc, bc, a_bc):
    (t1, _), (t2, left), (t3, _), (t4, right) = (outputs[i] for i in (ab, abc, bc, a_bc))
    if t1 + t2 != t3 + t4 or left != right:
        return f"(ab)c = δ^{t1 + t2}·{left.render()[:60]} but a(bc) = δ^{t3 + t4}·{right.render()[:60]}"
    return None


def _delta_exponent(scaled) -> int:
    ((exp, coeff),) = scaled.coeff.terms()
    if coeff != 1:
        raise ValueError(f"action coefficient {scaled.render()} is not a power of delta")
    return exp


class Algebra(Workload):
    """A seeded stream of compose, act and DiagramSum.compose, each group self-checking.

    Per degree n in {10, 100, 1000} and repetition: associativity on random
    set partitions, associativity with a fresh generator on generator
    words, and stack-then-act on words.  Plus associativity of small
    sums with delta-polynomial coefficients and the golden composition.
    Most operations are at n = 10, so they set op_p50_ms; n = 1000 sets
    op_tail_ms.
    """

    name = "algebra"
    tail_percentile = 99.0
    REPS = {10: 70, 100: 10, 1000: 4}
    POOL = {10: 32, 100: 16, 1000: 8}
    SUM_GROUPS = 35

    def __init__(self, rng: random.Random):
        super().__init__()
        words = []
        for _ in range(32):
            d = diagrams.SetPartitionDiagram.identity(WINDOW)
            for _ in range(12):
                _, d = diagrams.compose(d, diagrams.generator(*random_generator_args(rng, WINDOW)))
            words.append(d)
        groups = []
        for n, reps in self.REPS.items():
            randoms = [random_diagram(rng, n) for _ in range(self.POOL[n])]
            products = [word_diagram(rng, n, words) for _ in range(self.POOL[n])]
            halves = [random_half_diagram(rng, n) for _ in range(self.POOL[n])]
            for _ in range(reps):
                groups.append(self._assoc(n, *(rng.choice(randoms) for _ in range(3))))
                groups.append(
                    self._assoc_generator(n, rng.choice(products), rng.choice(products),
                                          random_generator_args(rng, n))
                )
                groups.append(
                    self._stack_then_act(n, rng.choice(products), rng.choice(products), rng.choice(halves))
                )
        for _ in range(self.SUM_GROUPS):
            n = rng.choice((3, 4))
            groups.append(self._sum_assoc(n, *(self._random_sum(rng, n) for _ in range(3))))
        groups.append(self._golden())
        rng.shuffle(groups)
        self.groups = groups
        self.warmup = groups[:20]

    @staticmethod
    def _assoc(n, a, b, c) -> Group:
        kind = f"compose n={n}"
        ops = [
            (kind, lambda o: diagrams.compose(a, b)),
            (kind, lambda o: diagrams.compose(o[0][1], c)),
            (kind, lambda o: diagrams.compose(b, c)),
            (kind, lambda o: diagrams.compose(a, o[2][1])),
        ]
        return Group(ops, lambda o: _assoc_check(o, 0, 1, 2, 3))

    @staticmethod
    def _assoc_generator(n, a, b, gen_args) -> Group:
        kind = f"compose n={n}"
        ops = [
            (f"generator n={n}", lambda o: diagrams.generator(*gen_args)),
            (kind, lambda o: diagrams.compose(a, b)),
            (kind, lambda o: diagrams.compose(o[1][1], o[0])),
            (kind, lambda o: diagrams.compose(b, o[0])),
            (kind, lambda o: diagrams.compose(a, o[3][1])),
        ]
        return Group(ops, lambda o: _assoc_check(o, 1, 2, 3, 4))

    @staticmethod
    def _stack_then_act(n, d1, d2, v) -> Group:
        kind = f"act n={n}"
        ops = [
            (f"compose n={n}", lambda o: diagrams.compose(d1, d2)),
            (kind, lambda o: halfdiag.act(o[0][1], v)),
            (kind, lambda o: halfdiag.act(d2, v)),
            (kind, lambda o: halfdiag.act(d1, o[2].diagram), lambda o: not o[2].is_zero),
        ]

        def check(o):
            (t, _), stacked, inner = o[0], o[1], o[2]
            if inner.is_zero or o[3].is_zero:
                if not stacked.is_zero:
                    return f"stacked action is {stacked.render()[:60]} but acting in turn gives 0"
                return None
            if stacked.is_zero:
                return "stacked action is 0 but acting in turn is not"
            lhs = (t + _delta_exponent(stacked), stacked.diagram)
            rhs = (_delta_exponent(inner) + _delta_exponent(o[3]), o[3].diagram)
            if lhs != rhs:
                return f"stack-then-act gives δ^{lhs[0]} but act-in-turn gives δ^{rhs[0]}"
            return None

        return Group(ops, check)

    @staticmethod
    def _random_sum(rng, n) -> diagrams.DiagramSum:
        terms = {}
        for _ in range(3):
            poly = diagrams.DeltaPolynomial({0: rng.randint(1, 3), 1: rng.randint(-2, 2), 2: rng.randint(0, 1)})
            terms[random_diagram(rng, n)] = poly
        return diagrams.DiagramSum(n, terms)

    @staticmethod
    def _sum_assoc(n, a, b, c) -> Group:
        kind = f"sum-compose n={n}"
        ops = [
            (kind, lambda o: a.compose(b)),
            (kind, lambda o: o[0].compose(c)),
            (kind, lambda o: b.compose(c)),
            (kind, lambda o: a.compose(o[2])),
        ]
        return Group(ops, lambda o: None if o[1] == o[3] else f"sum associativity fails in degree {n}")

    @staticmethod
    def _golden() -> Group:
        left = diagrams.SetPartitionDiagram.from_json(verify.GOLDEN_COMPOSE_LEFT)
        right = diagrams.SetPartitionDiagram.from_json(verify.GOLDEN_COMPOSE_RIGHT)
        expected = (verify.GOLDEN_COMPOSE_T, diagrams.SetPartitionDiagram.from_json(verify.GOLDEN_COMPOSE_RESULT))
        return Group(
            [("compose golden", lambda o: diagrams.compose(left, right))],
            lambda o: None if o[0] == expected else f"golden composition gave δ^{o[0][0]}·{o[0][1].render()}",
        )


# ---------------------------------------------------------------------------
# coefficients


class Coefficients(Workload):
    """Coefficient engines from cold caches: symfunc, multiplicity, geometry and tl.

    Restriction totals for (7|7) at every r, the four multiplicity engines
    on small triples, three engines on large triples, Kronecker
    coefficients of sizes 8-10 under argument permutation, geometry
    summaries, planar bases and class products.  (8|8) is left out: its
    2.3 s of restriction totals would make a pass three times as long, so a
    run would hold three passes where it now holds about nine.
    """

    name = "coefficients"
    tail_percentile = 99.0
    RESTRICTION_CELLS = ((7, 7),)
    SMALL_TRIPLES = 30
    LARGE_TRIPLES = 20
    KRONECKER_TRIPLES = 15
    GEOMETRY_TRIPLES = 160
    TL_DEGREES = (10, 11, 12)
    GROTH_PAIRS = 58

    def __init__(self, rng: random.Random):
        super().__init__()
        restrictions = [
            self._restriction(m, n, r) for m, n in self.RESTRICTION_CELLS for r in range(m + n + 1)
        ]
        groups = list(restrictions)
        for _ in range(self.SMALL_TRIPLES):
            groups.append(self._engines(*(rng.randint(0, 8) for _ in range(3)), with_coefficient_sum=True))
        for _ in range(self.LARGE_TRIPLES):
            p, q = rng.randint(150, 300), rng.randint(150, 300)
            groups.append(self._engines(p, q, rng.randint(abs(p - q), p + q), with_coefficient_sum=False))
        for _ in range(self.KRONECKER_TRIPLES):
            shapes = symfunc.partitions_of(rng.randint(8, 10))
            groups.append(self._kronecker(*(rng.choice(shapes) for _ in range(3))))
        for _ in range(self.GEOMETRY_TRIPLES):
            groups.append(self._geometry(*(rng.randint(0, 40) for _ in range(3))))
        for n in self.TL_DEGREES:
            for r in range(n % 2, n + 1, 2):
                groups.append(self._tl_basis(n, r))
        classes = [(deg, lab) for deg in range(7) for lab in range(deg % 2, deg + 1, 2)]
        for _ in range(self.GROTH_PAIRS):
            a, b = (
                tl.GrothElement({key: rng.randint(1, 3) for key in rng.sample(classes, rng.randint(1, 3))})
                for _ in range(2)
            )
            groups.append(self._groth(a, b))
        rng.shuffle(groups)
        # Restriction totals share cache tables, so the first of them to need
        # a table pays for it.  Keeping them in ascending order among the
        # shuffled groups makes that the same call for every seed.
        slots = [i for i, g in enumerate(groups) if g.ops[0][0].startswith("restriction")]
        for i, group in zip(slots, restrictions):
            groups[i] = group
        self.groups = groups
        self.warmup = [self._engines(2, 3, 3, with_coefficient_sum=True), self._restriction(2, 2, 2)]

    @staticmethod
    def _restriction(m, n, r) -> Group:
        def check(o):
            expected = halfdiag.half_diagram_count(m + n, r)
            return None if o[0] == expected else f"restriction total ({m}|{n}, {r}) = {o[0]} != {expected}"

        return Group(
            [(f"restriction ({m}|{n})", lambda o: multiplicity.restriction_dimension_total(m, n, r))], check
        )

    @staticmethod
    def _engines(p, q, r, with_coefficient_sum) -> Group:
        def run(_o):
            closed = multiplicity.e_closed(p, q, r)
            count, _ = multiplicity.e_lattice(p, q, r)
            values = [closed, count, multiplicity.e2_lattice(p, q, r)]
            if with_coefficient_sum:
                for m, n in multiplicity.admissible_degree_pairs(p, q, r):
                    values.append(multiplicity.bvo_multiplicity(one_part(r), one_part(p), one_part(q), m, n))
            return values

        kind = "engines small" if with_coefficient_sum else "engines large"
        return Group(
            [(kind, run)],
            lambda o: None if len(set(o[0])) == 1 else f"engines disagree at ({p},{q},{r}): {o[0]}",
        )

    @staticmethod
    def _kronecker(lam, mu, nu) -> Group:
        orders = [(lam, mu, nu), (mu, nu, lam), (nu, mu, lam)]
        ops = [("kronecker", lambda o, args=args: symfunc.kronecker_coeff(*args)) for args in orders]
        return Group(
            ops, lambda o: None if len(set(o)) == 1 else f"Kronecker not symmetric on {lam}, {mu}, {nu}: {o}"
        )

    @staticmethod
    def _geometry(p, q, r) -> Group:
        def check(o):
            s = o[0]
            expected = multiplicity.e2_lattice(p, q, r)
            if s["closed_form"] != expected or s["circle_count"] != expected:
                return f"geometry ({p},{q},{r}): {s['closed_form']}, {s['circle_count']} != lattice {expected}"
            if p > 0 and q > 0 and abs(p - q) < r < p + q and s["conic_count"] != expected:
                return f"geometry ({p},{q},{r}): conic count {s['conic_count']} != {expected}"
            parity = s.get("parity")
            if parity and parity["tangents_integral"] != parity["side_sum_even"]:
                return f"geometry ({p},{q},{r}): parity readings disagree"
            return None

        return Group([("geometry", lambda o: geometry.geometry_summary(p, q, r))], check)

    @staticmethod
    def _tl_basis(n, r) -> Group:
        def check(o):
            expected = tl.tl_basis_count(n, r)
            if len(o[0]) != expected or any(d.r != r for d in o[0]):
                return f"tl_basis({n}, {r}) has {len(o[0])} elements, expected {expected}"
            return None

        return Group([("tl_basis", lambda o: tl.tl_basis(n, r))], check)

    @staticmethod
    def _groth(a, b) -> Group:
        expected_weight = sum(
            ca * cb * (min(p, q) + 1) for (_, p), ca in a.terms.items() for (_, q), cb in b.terms.items()
        )

        def check(o):
            if o[0] != o[1]:
                return f"class product not commutative on {a.render()} and {b.render()}"
            weight = sum(o[0].terms.values())
            if weight != expected_weight:
                return f"class product {a.render()} * {b.render()} has weight {weight} != {expected_weight}"
            return None

        return Group(
            [("groth_multiply", lambda o: tl.groth_multiply(a, b)), ("groth_multiply", lambda o: tl.groth_multiply(b, a))],
            check,
        )


WORKLOADS = {cls.name: cls for cls in (TransitionSweep, Census, Algebra, Coefficients)}

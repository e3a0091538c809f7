"""Work ceilings: executed Python opcodes of small cold calls, so perf-only code is checked.

Tier-1 sees only values, so a shortcut that changes no value (``_join``'s
one-row branch, the strand-split size skip) can be removed unseen.  These
tests count the bytecodes a cold call executes, with ``sys.settrace`` and
``f_trace_opcodes``, in a fresh interpreter with a fixed hash seed, and
hold each count under a ceiling a few percent above its recorded value.

Rules for the recorded counts:
- a change that lowers a count lowers its ceiling in the same change;
- a change that raises one past its ceiling says why in CHANGES.md, as
  for a golden file;
- a count only sees Python bytecode, not time spent in C, so it never
  replaces a wall-clock metric or a benchmark bound.

Counts differ between CPython minor versions, so the tests run only on
the version they were recorded on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RECORDED_ON = (3, 11)

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != RECORDED_ON,
    reason=f"opcode counts are recorded for CPython {RECORDED_ON[0]}.{RECORDED_ON[1]}",
)

# Counts the opcodes of ``CALL`` in a fresh interpreter, after the imports
# of ``SETUP``; the earlier trace function (a coverage tracer, say) is put
# back afterwards.
COUNTER = """
import sys
{setup}

count = 0

def on_opcode(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return on_opcode

def on_call(frame, event, arg):
    frame.f_trace_opcodes = True
    return on_opcode

earlier = sys.gettrace()
sys.settrace(on_call)
try:
    {call}
finally:
    sys.settrace(earlier)
print(count)
"""


def count_opcodes(setup: str, call: str) -> int:
    """Opcodes that ``call`` executes from cold caches, in a fresh interpreter with PYTHONHASHSEED=0."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", COUNTER.format(setup=setup, call=call)],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return int(done.stdout)


def check_ceiling(count: int, recorded: int, ceiling: int) -> None:
    assert count <= ceiling, f"{count:,} opcodes, ceiling {ceiling:,} (recorded {recorded:,})"


def test_restriction_totals_up_to_four_four():
    # 122,280 with both sides folded into one weighted table each, one join
    # per strand split and no size test in _three_part_table (123,831 with
    # that test, 152,233 with only the mu side folded, 169,892 with it
    # regrouped by (gamma, beta), 190,589 before that, 222,944 before the
    # cached side lists; the same under hash seeds 0, 1 and 12345); removing
    # _join's one-row shortcut reads 172,968
    count = count_opcodes(
        "from diagalg.multiplicity import restriction_dimension_total",
        "for r in range(9): restriction_dimension_total(4, 4, r)",
    )
    check_ceiling(count, 122_280, 125_900)


def test_census_eight_eight_at_every_r():
    # 45,383, one table build and seventeen read-outs; building each key
    # through WalledIndex's Python-level __new__ reads 51,158
    count = count_opcodes("from diagalg.walled import census", "for r in range(17): census(8, 8, r)")
    check_ceiling(count, 45_383, 47_000)


def test_compose_at_ten():
    # 111,532 for twenty pairs of seeded random diagrams, built before the
    # count starts (the same under hash seeds 0, 1 and 12345); putting union
    # by size back into _UnionFind reads 126,059, and wrapping the result
    # through the checking constructor instead of SetPartitionDiagram._trusted
    # reads 131,830
    setup = """
import random
from diagalg.diagrams import compose
from diagalg.verify import _random_diagram
rng = random.Random(10)
pairs = [(_random_diagram(rng, 10), _random_diagram(rng, 10)) for _ in range(20)]
"""
    count = count_opcodes(setup, "for d1, d2 in pairs: compose(d1, d2)")
    check_ceiling(count, 111_532, 115_000)


def test_kronecker_coeff_of_size_eight():
    # 39,382 for a triple that is neither one-row nor one-column, so the
    # class-weighted character sum runs; dropping _char_on_beta's memo
    # reads 224,684
    count = count_opcodes(
        "from diagalg.symfunc import kronecker_coeff",
        "kronecker_coeff((4, 2, 2), (3, 3, 1, 1), (5, 2, 1))",
    )
    check_ceiling(count, 39_382, 40_600)


def test_lr_coeff_of_sizes_three_three_six():
    # 82,358 for every lam and mu of 3 against every nu of 6, 99 distinct
    # triples; dropping _lr_coeff's containment check, so a lam outside nu
    # runs the filling search to zero, reads 98,003
    count = count_opcodes(
        "from itertools import product\nfrom diagalg.symfunc import lr_coeff, partitions_of",
        "for lam, mu, nu in product(partitions_of(3), partitions_of(3), partitions_of(6)): lr_coeff(lam, mu, nu)",
    )
    check_ceiling(count, 82_358, 84_800)


def test_act_at_ten():
    # 21,728 for twenty pairs of a seeded random diagram and half-diagram,
    # built before the count starts; building the top row through the
    # checking HalfDiagram constructor instead of HalfDiagram._trusted reads
    # 33,626
    setup = """
import random
from diagalg.halfdiag import act
from diagalg.verify import _random_diagram, _random_half_diagram
rng = random.Random(10)
pairs = [(_random_diagram(rng, 10), _random_half_diagram(rng, 10)) for _ in range(20)]
"""
    count = count_opcodes(setup, "for d, v in pairs: act(d, v)")
    check_ceiling(count, 21_728, 22_400)


def test_transition_sweep_two_three():
    # 5,016,886 for every tensor generator on each of the 454 walled
    # half-diagrams of (2|3), enumerated before the count starts; reading
    # each old index through index_of, without transition's one-entry memo,
    # reads 5,708,854
    setup = """
from diagalg.walled import enumerate_walled, tensor_generators, transition
gens = [g for _, g in tensor_generators(2, 3)]
diagrams = [w for r in range(6) for w in enumerate_walled(2, 3, r)]
"""
    count = count_opcodes(setup, "for w in diagrams:\n        for g in gens: transition(g, w)")
    check_ceiling(count, 5_016_886, 5_170_000)

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


def test_restriction_totals_up_to_four_four():
    # 190,589 with the cached side lists and the one-row flag read once per
    # nu entry (222,944 before them, the same under hash seeds 0, 1 and
    # 12345); removing _join's one-row shortcut reads 376,958
    recorded, ceiling = 190_589, 196_000
    count = count_opcodes(
        "from diagalg.multiplicity import restriction_dimension_total",
        "for r in range(9): restriction_dimension_total(4, 4, r)",
    )
    assert count <= ceiling, f"{count:,} opcodes, ceiling {ceiling:,} (recorded {recorded:,})"

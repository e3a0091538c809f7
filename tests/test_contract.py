"""The integer argument contract, checked by walking the public surface.

The walk calls every name in ``diagalg.__all__`` and every public function
and class of every module, with arguments drawn from one table of valid
values keyed by parameter name.  Each parameter whose valid value is an
int is then given ``True``, ``2.0``, ``"2"``, ``-1`` and an ``IntEnum``
member, and the result is checked against the parameter's kind:

- a degree (every integer parameter not listed below) is refused with the
  ``diagrams._check_count`` message, as an ``InvariantViolation`` from a
  value constructor and a plain ``ValueError`` elsewhere;
- a label count is refused with the ``diagrams._check_int`` message, and
  ``-1`` counts nothing;
- the ``verify`` bound is refused with its positive-integer message.

An ``IntEnum`` member gives the same answer as the equal int.  A public
name the walk cannot call needs an entry in ``NOT_WALKED`` with the
reason, so a new export fails here until it is classified.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from contextlib import suppress
from enum import IntEnum
from functools import cache
from pathlib import Path

import pytest

import diagalg
from diagalg import verify
from diagalg.diagrams import DeltaPolynomial, InvariantViolation, SetPartitionDiagram, generator
from diagalg.halfdiag import HalfDiagram
from diagalg.tl import GrothElement
from diagalg.walled import WalledHalfDiagram, WalledIndex


def _public() -> dict:
    """Each public name: ``diagalg.__all__`` plus every module's own public functions and classes."""
    found = {name: getattr(diagalg, name) for name in diagalg.__all__}
    for info in pkgutil.iter_modules(diagalg.__path__):
        module = importlib.import_module(f"diagalg.{info.name}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(value) or inspect.isclass(value))
                and value.__module__ == module.__name__
            ):
                assert found.setdefault(name, value) is value, f"two public objects are named {name}"
    return found


PUBLIC = _public()

HALF = HalfDiagram(5, ((1, 4), (2,), (3, 5)), (1,))

# One valid value per parameter name; "function.parameter" overrides the
# plain name.  Degrees: m = 2 and n = 3, so a walled row has 5 dots.
VALID = {
    "n": 3,
    "m": 2,
    "r": 1,
    "k": 1,
    "p": 2,
    "q": 1,
    "s": 2,
    "h": 2,
    "i": 1,
    "j": 2,
    "limit": 1,
    "kind": "E",
    "name": "bell-identity",
    "blocks": ((1, -1), (2, -2), (3, -3)),
    "HalfDiagram.blocks": ((1,), (2, 3)),
    "caps": ((1, 2),),
    "d": SetPartitionDiagram.identity(3),
    "d1": SetPartitionDiagram.identity(3),
    "d2": generator("E", 1, 2, 3),
    "v": HalfDiagram(3, ((1,), (2, 3)), (0,)),
    "coeff": DeltaPolynomial.one(),
    "diagram": HalfDiagram(3, ((1,), (2, 3)), (0,)),
    "half": HALF,
    "w": WalledHalfDiagram(2, 3, HALF),
    "g": generator("P", 1, None, 5),
    "idx": WalledIndex(0, 1, 0, 0),
    "a": GrothElement.module_class(2, 0),
    "b": GrothElement.module_class(3, 1),
    "parts": (2, 1),
    "nu": (1,),
    "lam": (1,),
    "mu": (1,),
    "rho": (1,),
}

# Label counts: an int outside the valid range counts nothing.
LABEL_COUNTS = {
    "census.r",
    "enumerate_basis.r",
    "enumerate_walled.r",
    "half_diagram_count.r",
    "lattice_line_count.h",
    "stirling2.k",
    "tl_basis.r",
    "tl_basis_count.r",
}

VERIFY_BOUNDS = {"run_suite.limit", "run_all.limit"}

# Value constructors check their degrees as structural invariants, so they
# raise InvariantViolation.  Those that build one diagram call n "degree".
VALUE_CONSTRUCTORS = {"DiagramSum", "HalfDiagram", "SetPartitionDiagram", "WalledHalfDiagram", "planar_row"}
DEGREE_NAMES = {"DiagramSum.n", "HalfDiagram.n", "SetPartitionDiagram.n", "planar_row.n"}

NOT_WALKED = {
    "InvariantViolation": "exception class; takes a message",
    "TransitionClassificationError": "exception class; takes a message",
    "Partition": "type alias for tuple[int, ...]; partitions go through check_partition",
    "TransitionCase": "enumeration of the transition cases; takes no count",
    "Transition": "record that walled.transition returns from indices it computed",
    "WalledIndex": "record of four block counts; census, index_of and e_lattice build it",
    "VerifyReport": "record of one suite's outcome; run_suite fills it",
    "main": "the command line; tests/test_cli.py checks its options and exit codes",
    **{
        function.__name__: "suite body; run_suite checks its bound"
        for function, _, _ in verify.SUITES.values()
    },
}

Count = IntEnum("Count", {"ONE": 1, "TWO": 2, "THREE": 3})

# Each bad value by its test id; None stands for the IntEnum member equal to
# the valid int.
BAD = {"bool": True, "float": 2.0, "str": "2", "negative": -1, "intenum": None}

_MISSING = object()


def _valid_args(name: str) -> dict | None:
    """Keyword arguments for a valid call of ``name``, or None if a required one has no valid value."""
    try:
        params = inspect.signature(PUBLIC[name]).parameters.values()
    except (TypeError, ValueError):  # no signature, as for an exception class
        return None
    args = {}
    for param in params:
        value = VALID.get(f"{name}.{param.name}", VALID.get(param.name, _MISSING))
        if value is not _MISSING:
            args[param.name] = value
        elif param.default is param.empty:
            return None
    return args


def _answer(result):
    """``result`` in a form two equal calls share: generators read out, verify reports without their timing."""
    if isinstance(result, verify.VerifyReport):
        return dataclasses.replace(result, duration=0.0)
    if inspect.isgenerator(result) or isinstance(result, list):
        return [_answer(item) for item in result]
    return result


@cache
def _reference(name: str):
    return _answer(PUBLIC[name](**_valid_args(name)))


@cache
def _warm(name: str, param: str) -> None:
    """Call ``name`` with ``param`` at 1 and 2, the ints equal to True and 2.0, so that any memo holds them."""
    for value in (1, 2):
        with suppress(ValueError):  # 1 or 2 may break another argument's range
            _answer(PUBLIC[name](**{**_valid_args(name), param: value}))


def _cases():
    for name in sorted(PUBLIC):
        args = None if name in NOT_WALKED else _valid_args(name)
        for param, value in (args or {}).items():
            if isinstance(value, int):
                for label in BAD:
                    yield pytest.param(name, param, label, id=f"{name}.{param}-{label}")


CASES = list(_cases())


def test_readme_names_every_export():
    # the library tour in README.md is where a reader meets the public
    # surface, so a new export must be named there
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for name in diagalg.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not missing, missing


def test_every_public_name_is_walked_or_has_a_reason():
    unclassified = [name for name in PUBLIC if name not in NOT_WALKED and _valid_args(name) is None]
    assert not unclassified, f"give these valid arguments or a NOT_WALKED reason: {unclassified}"
    assert set(NOT_WALKED) <= set(PUBLIC), sorted(set(NOT_WALKED) - set(PUBLIC))
    assert all(NOT_WALKED.values())
    for name in PUBLIC.keys() - NOT_WALKED.keys():
        _reference(name)  # every walked name takes its valid arguments


@pytest.mark.parametrize("name, param, label", CASES)
def test_integer_argument_keeps_the_contract(name, param, label):
    call, args, key = PUBLIC[name], _valid_args(name), f"{name}.{param}"
    _warm(name, param)
    bad = BAD[label]
    if bad is None:
        assert _answer(call(**{**args, param: Count(args[param])})) == _reference(name)
        return
    if key in LABEL_COUNTS and label == "negative":
        counted = _answer(call(**{**args, param: bad}))
        assert not counted and type(counted) is type(_reference(name))
        return
    if key in LABEL_COUNTS:
        error, message = ValueError, f"{param} must be an integer, got {bad!r}"
    elif key in VERIFY_BOUNDS:
        error, message = ValueError, f"verify bound must be a positive integer, got {bad!r}"
    else:
        error = InvariantViolation if name in VALUE_CONSTRUCTORS else ValueError
        message = f"{'degree' if key in DEGREE_NAMES else param} must be a non-negative integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        call(**{**args, param: bad})
    assert type(caught.value) is error

"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import diagalg

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "diagalg"


def _parsed_sources():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert paths, PACKAGE_DIR
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; every check in the package must raise instead.
    found = []
    for path, tree in _parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_hand_written_equality_or_hash():
    # Value types are dataclasses, so equality and hashing read the declared
    # fields; a hand-written copy could drift from them.
    found = []
    for path, tree in _parsed_sources():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                hand_written = [name for name in names if name in ("__eq__", "__hash__")]
                found += [f"{path.name}:{node.lineno} {cls.name}.{name}" for name in hand_written]
    assert not found, found


def _is_memo_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def test_memo_tables_are_module_level():
    # The benchmark clears every module-level functools.cache before each
    # pass and reports its cache_info(); a memo on a nested function or a
    # method would carry results across passes unseen.
    module_level, found = [], []
    for path, tree in _parsed_sources():
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_memo_decorator(d) for d in node.decorator_list
            ):
                where = f"{path.name}:{node.lineno} {node.name}"
                (module_level if id(node) in top else found).append(where)
    assert module_level, "no memo table found at all"
    assert not found, found


def test_every_export_resolves():
    # A name removed from a module but left in __all__ only fails on
    # `from diagalg import *`; catch it here instead.
    missing = [name for name in diagalg.__all__ if not hasattr(diagalg, name)]
    assert not missing, missing


# Functions that may build an object with ``_trusted``, which skips every
# check; a new unchecked construction path must be added here on purpose.
TRUSTED_CALLERS = {
    "compose",
    "act_top",
    "enumerate_basis",
    "TLHalfDiagram.to_half_diagram",
    "DeltaPolynomial.__mul__",
    "tl_basis",
}


def _calls(node, scope=""):
    """(qualified name of the innermost enclosing def or class, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, scope)


def test_trusted_constructions_are_allow_listed():
    found = set()
    for _, tree in _parsed_sources():
        for scope, call in _calls(tree):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "_trusted":
                found.add(scope)
    assert "compose" in found
    assert found <= TRUSTED_CALLERS, sorted(found - TRUSTED_CALLERS)


def test_compose_builds_no_validated_diagram():
    tree = ast.parse((PACKAGE_DIR / "diagrams.py").read_text(encoding="utf-8"))
    called = {
        call.func.id for scope, call in _calls(tree) if scope == "compose" and isinstance(call.func, ast.Name)
    }
    assert "_stack" in called
    assert "SetPartitionDiagram" not in called


def test_tl_basis_builds_no_validated_row():
    tree = ast.parse((PACKAGE_DIR / "tl.py").read_text(encoding="utf-8"))
    called = {
        call.func.id for scope, call in _calls(tree) if scope == "tl_basis" and isinstance(call.func, ast.Name)
    }
    assert "TLHalfDiagram" not in called


def test_verify_reports_built_only_by_run_suite():
    # run_suite names each report after its SUITES key; a suite that built
    # its own report could drift from that name.
    found = set()
    for _, tree in _parsed_sources():
        for scope, call in _calls(tree):
            if isinstance(call.func, ast.Name) and call.func.id == "VerifyReport":
                found.add(scope)
    assert found == {"run_suite"}, sorted(found)



def _scopes(node, scope=""):
    """(qualified name, node) for every def and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
            yield name, child
            yield from _scopes(child, name)
        else:
            yield from _scopes(child, scope)


# Functions that call themselves, each with the argument that bounds its
# depth; Python stops a call chain near 1,000 frames, so a new recursion
# must be bounded by a budgeted argument and added here on purpose.
RECURSIVE_FUNCTIONS = {
    "set_partitions": "n",
    "partitions_inside.build": "len(outer)",
    "_char_on_beta": "len(rho)",
}


def test_recursive_functions_are_allow_listed():
    found = set()
    for _, tree in _parsed_sources():
        classes = {name for name, node in _scopes(tree) if isinstance(node, ast.ClassDef)}
        for scope, call in _calls(tree):
            owner, _, name = scope.rpartition(".")
            func = call.func
            if owner in classes:  # a method calls itself through self or cls
                hit = isinstance(func, ast.Attribute) and func.attr == name
                hit = hit and getattr(func.value, "id", None) in ("self", "cls")
            else:
                hit = isinstance(func, ast.Name) and func.id == name
            if hit:
                found.add(scope)
    assert found == set(RECURSIVE_FUNCTIONS), sorted(found ^ set(RECURSIVE_FUNCTIONS))


def _float_arithmetic(tree):
    """Float literals, the name ``float`` and true division anywhere in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float literal at line {node.lineno}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"true division at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"float at line {node.lineno}")
    return found


def _fraction_builders(tree):
    return {scope for scope, call in _calls(tree) if isinstance(call.func, ast.Name) and call.func.id == "Fraction"}


# The only functions in geometry.py that promise a Fraction; every other
# reading stays in doubled integers.
FRACTION_BUILDERS = {"tangent_lengths", "conic_parameters"}


def test_geometry_is_integer_arithmetic():
    tree = ast.parse((PACKAGE_DIR / "geometry.py").read_text(encoding="utf-8"))
    assert not _float_arithmetic(tree), _float_arithmetic(tree)
    builders = _fraction_builders(tree)
    assert builders == FRACTION_BUILDERS, sorted(builders)


def test_symfunc_is_integer_arithmetic():
    # Kronecker coefficients are an integer class sum divided exactly at the
    # end; the Fraction sum is the test oracle, not the engine.
    tree = ast.parse((PACKAGE_DIR / "symfunc.py").read_text(encoding="utf-8"))
    assert not _float_arithmetic(tree), _float_arithmetic(tree)
    builders = _fraction_builders(tree)
    assert not builders, sorted(builders)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Fraction" not in imported

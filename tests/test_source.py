"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import diagalg
from diagalg import cli

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


def test_memo_tables_check_no_partition():
    # A bool or float part hashes like its int, so a memo that checks its
    # own partitions answers from an int call's entry what a cold call
    # rejects; each public partition function checks, then reads its memo.
    # Scalar keys such as half_diagram_count's rely on lru_cache(typed=True).
    found = set()
    for path, tree in _parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_memo_decorator(d) for d in node.decorator_list
            ):
                for scope, call in _calls(node, node.name):
                    if scope == node.name and getattr(call.func, "id", None) == "check_partition":
                        found.add(f"{path.stem}.{node.name}")
    assert not found, sorted(found)


def _maxsize(decorator):
    """The maxsize a memo decorator sets, or None for unbounded (``cache``, ``lru_cache(maxsize=None)``)."""
    if not isinstance(decorator, ast.Call):
        return None
    given = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return next((node.value for node in given if isinstance(node, ast.Constant)), None)


def test_memo_tables_state_their_bound():
    # A memo holds every key it has met until the benchmark or the process
    # clears it, so each module-level one either has a maxsize or says on
    # its decorator line, in a comment about its keys, what bounds them.
    found = []
    for path, tree in _parsed_sources():
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in tree.body:
            for decorator in getattr(node, "decorator_list", ()):
                if _is_memo_decorator(decorator) and _maxsize(decorator) is None:
                    comment = lines[decorator.end_lineno - 1].partition("#")[2]
                    if "key" not in comment:
                        found.append(f"{path.name}:{decorator.lineno} {node.name}")
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
    "DeltaPolynomial.__add__",
    "DeltaPolynomial.__mul__",
    "DiagramSum.__add__",
    "DiagramSum.compose",
    "_planar_walk",
    "act",
    "GrothElement.__add__",
    "groth_multiply",
}


def _scoped(node, scope=""):
    """(qualified name of the innermost enclosing def or class, node) for every other node under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield scope, child
        yield from _scoped(child, scope)


def _calls(node, scope=""):
    """(qualified name of the innermost enclosing def or class, call) for every call under ``node``."""
    return ((where, child) for where, child in _scoped(node, scope) if isinstance(child, ast.Call))


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
    assert "_UnionFind" in called
    assert "SetPartitionDiagram" not in called


def test_stack_serves_only_compose():
    # compose stacks two diagrams dot by dot on its own union-find;
    # act_top and walled.transition share halfdiag._glue, a union-find over
    # half-diagram blocks.
    found = {"_UnionFind": set(), "_glue": set()}
    for path, tree in _parsed_sources():
        for scope, call in _calls(tree):
            if isinstance(call.func, ast.Name) and call.func.id in found:
                found[call.func.id].add(f"{path.stem}.{scope}")
    assert found == {"_UnionFind": {"diagrams.compose"}, "_glue": {"halfdiag.act_top", "walled.transition"}}, found


def test_act_top_builds_no_validated_half_diagram():
    tree = ast.parse((PACKAGE_DIR / "halfdiag.py").read_text(encoding="utf-8"))
    called = {
        call.func.id
        for scope, call in _calls(tree)
        if scope.split(".")[0] == "act_top" and isinstance(call.func, ast.Name)
    }
    assert "_glue" in called
    assert "HalfDiagram" not in called


def test_transition_reads_the_kernel_and_builds_no_top_row():
    tree = ast.parse((PACKAGE_DIR / "walled.py").read_text(encoding="utf-8"))
    called = {
        call.func.id
        for scope, call in _calls(tree)
        if scope.split(".")[0] == "transition" and isinstance(call.func, ast.Name)
    }
    assert "_glue" in called
    assert not called & {"act_top", "HalfDiagram"}, sorted(called)


def test_census_builds_no_diagram():
    # census counts from the one-sided half-diagram counts alone; enumeration
    # is its test oracle, so the census must not reach for it
    tree = ast.parse((PACKAGE_DIR / "walled.py").read_text(encoding="utf-8"))
    named = {scope: set() for scope in ("census", "_census_table")}
    for scope, node in _scoped(tree):
        if scope in named and isinstance(node, (ast.Name, ast.Attribute)):
            named[scope].add(node.id if isinstance(node, ast.Name) else node.attr)
    assert "_census_table" in named["census"]
    assert "half_diagram_count" in named["_census_table"]
    for scope, names in named.items():
        found = names & {"enumerate_basis", "enumerate_walled", "HalfDiagram", "WalledHalfDiagram"}
        assert not found, (scope, sorted(found))


def test_one_solver_and_one_strand_split_loop():
    # the system T + L + R = r, U + T + L = p, U + T + R = q is solved in
    # _solutions alone, which lists it for e_lattice and gives _splits the
    # strand splits; _strand_sum alone maps a split to its tables and joins
    # them, for bvo_multiplicity at unit weights and for the kernel at
    # tableau-count weights
    tree = ast.parse((PACKAGE_DIR / "multiplicity.py").read_text(encoding="utf-8"))
    callers = {"_join": set(), "_strand_sum": set(), "_solutions": set(), "WalledIndex": set()}
    for scope, call in _calls(tree):
        if isinstance(call.func, ast.Name) and call.func.id in callers:
            callers[call.func.id].add(scope)
    assert callers == {
        "_join": {"_strand_sum"},
        "_strand_sum": {"bvo_multiplicity", "_restriction_kernel"},
        "_solutions": {"e_lattice", "_splits"},
        "WalledIndex": {"_solutions"},
    }, callers


def test_restriction_total_rechecks_no_partition_it_built():
    # the total checks r, m and n once and sums kernels over sizes; the
    # kernel's weighted sides take their shapes from partitions_of, so they
    # read their tableau counts through the memo, past syt_count's checks,
    # and the strand-split loop the kernel hands them to checks nothing either
    tree = ast.parse((PACKAGE_DIR / "multiplicity.py").read_text(encoding="utf-8"))
    scopes = ("restriction_dimension_total", "_restriction_kernel", "_weighted_side", "_strand_sum")
    called = {scope: set() for scope in scopes}
    for scope, call in _calls(tree):
        if scope in called and isinstance(call.func, ast.Name):
            called[scope].add(call.func.id)
    assert "_restriction_kernel" in called["restriction_dimension_total"]
    assert "_syt_count" in called["_weighted_side"]
    for scope, names in called.items():
        assert not names & {"dim_standard", "syt_count", "check_partition"}, (scope, sorted(names))


def test_products_of_checked_values_recheck_nothing():
    # each builds its result from values already checked, so it calls the
    # unchecked route and never the checking one
    routes = {
        "halfdiag.act": ({"act_top", "_trusted"}, {"ScaledHalfDiagram", "DeltaPolynomial", "delta_power", "zero"}),
        "tl.groth_multiply": ({"_trusted"}, {"GrothElement"}),
        "tl.GrothElement.__add__": ({"_trusted"}, {"GrothElement"}),
        "geometry.geometry_summary": ({"_doubled", "_e_closed"}, {"e_closed"}),
        "cli._cmd_mult": ({"_check_count", "_e_closed"}, {"e_closed"}),
    }
    called = {name: set() for name in routes}
    for path, tree in _parsed_sources():
        for scope, call in _calls(tree):
            name = f"{path.stem}.{scope}"
            if name in called:
                func = call.func
                called[name].add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    for name, (needed, banned) in routes.items():
        assert needed <= called[name] and not called[name] & banned, (name, sorted(called[name]))


def test_tl_basis_builds_no_validated_row():
    tree = ast.parse((PACKAGE_DIR / "tl.py").read_text(encoding="utf-8"))
    called = {scope: set() for scope in ("tl_basis", "_planar_walk")}
    for scope, call in _calls(tree):
        if scope in called and isinstance(call.func, ast.Name):
            called[scope].add(call.func.id)
    assert "_planar_walk" in called["tl_basis"]
    assert not called["_planar_walk"] & {"HalfDiagram", "planar_row"}, sorted(called["_planar_walk"])


def _raising_scopes(phrase):
    found = []
    for path, tree in _parsed_sources():
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and phrase in str(c.value) for c in ast.walk(node)
            ):
                found.append(f"{path.stem}.{scope}")
    return found


def test_one_non_negative_integer_check():
    # Degrees and delta exponents go through diagrams._check_count, and label
    # counts through diagrams._check_int: each the one place that tests and
    # words its rule.
    found = _raising_scopes("must be a non-negative integer")
    assert found == ["diagrams._check_count"], found
    found = _raising_scopes("must be an integer")
    assert found == ["diagrams._check_int"], found


def test_no_exact_int_type_test():
    # An integer argument is tested with isinstance, so an int subclass such
    # as an IntEnum is accepted wherever an int is; no module compares
    # type(...) with int.
    found = []
    for path, tree in _parsed_sources():
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                typed = any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type" for s in sides)
                if typed and any(isinstance(s, ast.Name) and s.id == "int" for s in sides):
                    found.append(f"{path.stem}.{scope}")
    assert found == [], found


INDEX_FIELDS = ("through_unlabeled", "through_labeled", "left_labeled", "right_labeled")


def test_one_class_for_the_walled_index():
    # The index (U; T, L, R) has one type; a second class with these fields
    # in another order would compare equal to it with the roles swapped.
    found = {}
    for path, tree in _parsed_sources():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
                if set(INDEX_FIELDS) & set(fields):
                    found[f"{path.stem}.{cls.name}"] = tuple(fields)
    assert found == {"walled.WalledIndex": INDEX_FIELDS}, found


def test_verify_reports_built_only_by_run_suite():
    # run_suite names each report after its SUITES key; a suite that built
    # its own report could drift from that name.
    found = set()
    for _, tree in _parsed_sources():
        for scope, call in _calls(tree):
            if isinstance(call.func, ast.Name) and call.func.id == "VerifyReport":
                found.add(scope)
    assert found == {"run_suite"}, sorted(found)


def test_one_report_type():
    # Every check in the package reports through verify; a second report
    # type would be a second place to check and to word failures.
    found = [
        f"{path.stem}.{cls.name}"
        for path, tree in _parsed_sources()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Report")
    ]
    assert found == ["verify.VerifyReport"], found


def test_cli_exit_codes_decided_in_main():
    # Handlers raise ValueError, or InvariantViolation for a broken input;
    # main alone maps them to exit codes 2 and 3.
    own = [v for v in vars(cli).values() if isinstance(v, type) and issubclass(v, BaseException)]
    assert not [v.__name__ for v in own if v.__module__ == cli.__name__]
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    codes, catches = set(), set()
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Name) and node.id in ("USAGE_ERROR", "INVARIANT_ERROR"):
            if isinstance(node.ctx, ast.Load):
                codes.add(scope)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            if any(getattr(name, "id", None) == "InvariantViolation" for name in ast.walk(node.type)):
                catches.add(scope)
    assert codes == {"main"}, sorted(codes)
    assert catches <= {"main", "_build"}, sorted(catches)


def test_cli_chooses_json_or_text_in_emit():
    # mult and verify keep their own branch so that text mode never builds a
    # payload it does not print, tl basis --count-only prints its count
    # directly, and mult table JSON, tl basis listings and tl groth write
    # their rows and terms through _write_joined as they format them; the
    # other commands use _emit.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    callers = {"print": set(), "_emit": set(), "_write_joined": set()}
    for scope, call in _calls(tree):
        if isinstance(call.func, ast.Name) and call.func.id in callers:
            callers[call.func.id].add(scope)
    assert callers["print"] == {"_cmd_mult", "_cmd_verify", "_cmd_tl", "_emit", "main"}, sorted(callers["print"])
    assert callers["_emit"] == {"_cmd_compose", "_cmd_act", "_cmd_walled", "_cmd_geometry"}
    assert callers["_write_joined"] == {"_cmd_mult", "_cmd_tl"}


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
    "_partitions_inside.build": "len(outer)",
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

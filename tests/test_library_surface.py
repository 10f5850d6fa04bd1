"""Library-surface guard: every function, class and method in src/ is used.

A top-level definition in src/slenderlap counts as used when another
top-level statement of src/slenderlap or perfbench/ names it: as a name, an
attribute, an import, or a string (perfbench/tracer.py wraps functions it
names by strings).  A method of a src/ class counts as used when a statement
outside that method names it the same way; the language calls the dunder
methods.  Code that only tests call belongs in tests/.

Every module of src/slenderlap (bar __init__.py, whose imports are the
package's exports) and of tests/ names each name it imports, unless the
import carries "# noqa: F401".

Arrays in, arrays out: src/ never branches on isinstance(..., GridFunction),
and only the solver's results are GridFunctions.

Dense factorizations go through solver._lu, which hands LAPACK a
Fortran-order copy: only solver imports from scipy.linalg, and only _lu
calls lu_factor.

The slender-body solves never hold D_h: no src/ module reads a .D_h, and a
solver that has run a DtN and an NtD map holds two N x N arrays, S_h and
its LU.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# criterion 9's harness: the acceptance suite runs it, no CLI command does
EXCEPTIONS = {"measure_total_remainder"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _modules():
    src = sorted((ROOT / "src" / "slenderlap").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    return [(path in src, ast.parse(path.read_text())) for path in src + bench]


def _unused(units, is_subject):
    """Names of the subject units that no other unit names."""
    refs = [set(_names(node)) for _, node in units]
    return [node.name for i, (in_src, node) in enumerate(units)
            if in_src and is_subject(node) and node.name not in EXCEPTIONS
            and not any(node.name in r for j, r in enumerate(refs) if j != i)]


def test_every_library_definition_is_used_outside_itself():
    units = [(in_src, node) for in_src, tree in _modules() for node in tree.body]
    unused = _unused(units, lambda node: isinstance(node, DEFS))
    defined = {node.name for in_src, node in units
               if in_src and isinstance(node, DEFS)}
    assert not unused, f"defined in src/ but used nowhere else: {unused}"
    assert EXCEPTIONS <= defined, f"stale exceptions: {EXCEPTIONS - defined}"


def test_every_library_method_is_used_outside_itself():
    # each statement of a class body is a unit of its own, so a method named
    # only inside itself (recursion) does not count as used
    units = []
    for in_src, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units += [(in_src, sub) for sub in node.body]
            else:
                units.append((False, node))
    unused = _unused(units, lambda node: isinstance(node, FUNCS)
                     and not node.name.startswith("__"))
    assert not unused, f"methods defined in src/ but used nowhere else: {unused}"


def _unused_imports(path):
    """Names a module imports and never names again as a plain name."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    paths = [path for path in sorted((ROOT / "src" / "slenderlap").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {path.name: names for path in paths
              if (names := _unused_imports(path))}
    assert not unused, f"imported but never used: {unused}"


def _calls(node, func=None):
    """(enclosing function name, called name, call) of every call under node."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            yield func, getattr(f, "id", getattr(f, "attr", "")), sub
        yield from _calls(sub, sub.name if isinstance(sub, FUNCS) else func)


def test_only_solver_results_are_grid_functions():
    branches, makers = [], set()
    for path in sorted((ROOT / "src" / "slenderlap").glob("*.py")):
        for func, called, call in _calls(ast.parse(path.read_text())):
            if called == "isinstance" and "GridFunction" in set(_names(call)):
                branches.append(f"{path.name}:{call.lineno}")
            elif called == "GridFunction":
                makers.add((path.name, func))
    assert not branches, f"isinstance(..., GridFunction) in src/: {branches}"
    assert makers == {("solver.py", "dtn"), ("solver.py", "ntd"),
                      ("solver.py", "neumann_series_ntd")}, makers


def _scipy_linalg_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg") or (
                    module == "scipy"
                    and any(a.name == "linalg" for a in node.names)):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.linalg") for a in node.names):
                yield node.lineno


def test_dense_systems_are_factored_only_through_solver_lu():
    importers, callers = [], set()
    for path in sorted((ROOT / "src" / "slenderlap").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "solver.py":
            importers += [f"{path.name}:{line}"
                          for line in _scipy_linalg_imports(tree)]
        callers |= {(path.name, func) for func, called, _ in _calls(tree)
                    if called == "lu_factor"}
    assert not importers, f"scipy.linalg imported outside solver: {importers}"
    assert callers == {("solver.py", "_lu")}, callers


def test_solves_hold_no_dense_double_layer(circle_grid_small):
    from slenderlap.solver import SlenderBodySolver
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "slenderlap").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "D_h"]
    assert not readers, f".D_h read in src/: {readers}"
    g = circle_grid_small
    solver = SlenderBodySolver(g, "split")
    solver.ntd(solver.dtn(np.cos(2 * np.pi * g.s_nodes)).f)
    assert not hasattr(solver, "D_h")
    held = [a for x in vars(solver).values()
            for a in (x if isinstance(x, tuple) else (x,))
            if isinstance(a, np.ndarray) and a.shape == (g.n_nodes,) * 2]
    assert len(held) == 2, [a.shape for a in held]
    assert solver.B.shape == (g.n_nodes, g.n_s)

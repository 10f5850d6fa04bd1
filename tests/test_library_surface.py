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

Dense factorizations live in solver: only solver imports from
scipy.linalg or names a LAPACK routine it looks up (get_lapack_funcs,
potrf, potrs, trtrs, lange) or the dsymv that applies S_h from its factored
array, only _lu calls lu_factor, and only LU.solve calls lu_solve.  Every
factor is made in the C-order array that holds its matrix, through its
Fortran view, so src/ allocates no Fortran-order array: no asfortranarray
and no order="F" but in a reshape (a view).

The slender-body solves never hold D_h, and S_h only in the array its
factor overwrites: no src/ module reads a .D_h or a .S_h, and a solver
that has run a DtN and an NtD map holds one N x N buffer, which its
factor shares.
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


def _fortran_allocations(tree):
    """Line numbers of asfortranarray calls and of order="F" in any call but
    a reshape."""
    for _, called, call in _calls(tree):
        if called == "asfortranarray" or called != "reshape" and any(
                kw.arg == "order" and isinstance(kw.value, ast.Constant)
                and kw.value.value == "F" for kw in call.keywords):
            yield call.lineno


def test_dense_systems_are_factored_only_through_solver_lu():
    importers, callers, lapack, solves, in_lu = [], set(), [], [], []
    fortran = []
    for path in sorted((ROOT / "src" / "slenderlap").glob("*.py")):
        tree = ast.parse(path.read_text())
        fortran += [f"{path.name}:{line}"
                    for line in _fortran_allocations(tree)]
        if path.name != "solver.py":
            importers += [f"{path.name}:{line}"
                          for line in _scipy_linalg_imports(tree)]
            lapack += [f"{path.name}:{name}" for name in sorted(
                set(_names(tree)) & {"get_lapack_funcs", "potrf", "potrs",
                                     "trtrs", "dsymv", "lange"})]
        callers |= {(path.name, func) for func, called, _ in _calls(tree)
                    if called == "lu_factor"}
        # every call of lu_solve, and those inside a class LU
        solves += [(path.name, func) for func, called, _ in _calls(tree)
                   if called == "lu_solve"]
        in_lu += [(path.name, func) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "LU"
                  for func, called, _ in _calls(cls) if called == "lu_solve"]
    assert not importers, f"scipy.linalg imported outside solver: {importers}"
    assert not lapack, f"LAPACK routines named outside solver: {lapack}"
    assert callers == {("solver.py", "_lu")}, callers
    assert not fortran, f"Fortran-order arrays allocated in src/: {fortran}"
    assert solves == in_lu == [("solver.py", "solve")], (solves, in_lu)


def _dense_buffers(solver):
    """The distinct memory buffers of the N x N arrays a solver holds."""
    n = solver.grid.n_nodes
    held = [a for x in vars(solver).values()
            for a in (x if isinstance(x, tuple) else (x,))
            if isinstance(a, np.ndarray) and a.shape == (n, n)]
    buffers = []
    for a in held:
        if not any(np.shares_memory(a, b) for b in buffers):
            buffers.append(a)
    return buffers


def test_solves_hold_no_dense_double_layer(circle_cl, circle_frame):
    """One N x N buffer, the factor's."""
    from slenderlap.geometry import SurfaceSpec
    from slenderlap.grid import make_grid
    from slenderlap.solver import SlenderBodySolver
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "slenderlap").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("D_h", "S_h")]
    assert not readers, f".D_h or .S_h read in src/: {readers}"
    g = make_grid(SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                              epsilon=1.0 / 64.0), 64, 8)
    solver = SlenderBodySolver(g, "split")
    solver.ntd(solver.dtn(np.cos(2 * np.pi * g.s_nodes)).f)
    assert not hasattr(solver, "D_h") and not hasattr(solver, "S_h")
    assert len(_dense_buffers(solver)) == 1
    assert solver.B.shape == (g.n_nodes, g.n_s)

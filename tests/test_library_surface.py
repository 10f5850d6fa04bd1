"""Library-surface guard: every top-level function and class in src/ is used.

A top-level definition in src/slenderlap counts as used when another
top-level statement of src/slenderlap or perfbench/ names it: as a name, an
attribute, an import, or a string (perfbench/tracer.py wraps functions it
names by strings).  Code that only tests call belongs in tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# criterion 9's harness: the acceptance suite runs it, no CLI command does
EXCEPTIONS = {"measure_total_remainder"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def test_every_library_definition_is_used_outside_itself():
    src = sorted((ROOT / "src" / "slenderlap").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    nodes = [(path in src, node) for path in src + bench
             for node in ast.parse(path.read_text()).body]
    refs = [set(_names(node)) for _, node in nodes]
    defined, unused = set(), []
    for i, (in_src, node) in enumerate(nodes):
        if not (in_src and isinstance(node, DEFS)):
            continue
        defined.add(node.name)
        if node.name not in EXCEPTIONS and not any(
                node.name in r for j, r in enumerate(refs) if j != i):
            unused.append(node.name)
    assert not unused, f"defined in src/ but used nowhere else: {unused}"
    assert EXCEPTIONS <= defined, f"stale exceptions: {EXCEPTIONS - defined}"
